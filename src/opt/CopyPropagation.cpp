//===--- CopyPropagation.cpp - Block-local copy propagation ----------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// The "copyprop" pass: after `LoadLocal y; StoreLocal x` (no jump
/// landing on the store), slot x holds the same value as slot y; later
/// `LoadLocal x` in the block becomes `LoadLocal y`, often making the
/// intermediate store dead for DSE.
///
/// Besides the usual kills (a store to either side, any call, block
/// leaders, address-taken slots — see Rewrite.h), one VM subtlety gates
/// each rewrite site: LoadLocal pushes an aggregate's AggRef *shared*,
/// so a ref to y instead of x is distinguishable if a call mutates one
/// of the slots up-level while the value is still on the operand stack.
/// The guard: only rewrite a load with no call between it and the end
/// of its basic block.  Aggregate values never cross block boundaries
/// on the operand stack (only short-circuit booleans and CASE ordinals
/// do), so a call-free remainder means the value is consumed — copied
/// or compared by value — before any frame can be touched again.
///
//===----------------------------------------------------------------------===//

#include "opt/PassManager.h"
#include "opt/Rewrite.h"

using namespace m2c;
using namespace m2c::codegen;
using namespace m2c::opt;

namespace {

class CopyPropagationPass : public Pass {
public:
  std::string_view name() const override { return "copyprop"; }

  bool run(CodeUnit &Unit, StatisticSet &Stats) const override {
    std::vector<Instr> &Code = Unit.Code;
    if (Code.empty())
      return false;
    const detail::UnitScan Scan(Unit);

    // Per slot x: the copy fact x == Src, valid while Block equals the
    // current block number (a leader or a call starts a new one) and Src
    // has not been stored to since (SrcVersion equals Src's Version, which
    // every store to Src bumps).  Killing a slot is then O(1): no walk
    // over the facts that name it.
    struct Slot {
      int64_t Src = 0;
      uint32_t Block = 0;
      uint32_t SrcVersion = 0;
      uint32_t Version = 0;
    };
    std::vector<Slot> Slots(Scan.Slots);
    uint32_t Block = 0;
    auto CopyOf = [&](int64_t X) -> const Slot * {
      if (Scan.untrackable(X))
        return nullptr;
      const Slot &S = Slots[static_cast<size_t>(X)];
      return S.Block == Block &&
                     S.SrcVersion == Slots[static_cast<size_t>(S.Src)].Version
                 ? &S
                 : nullptr;
    };

    // Index of the last call in the current block (0: none after any
    // instruction of it).
    size_t LastCall = 0;
    uint64_t Propagated = 0;
    for (size_t I = 0; I < Code.size(); ++I) {
      if (Scan.leader(I)) {
        ++Block;
        LastCall = 0;
        for (size_t J = I + 1; J < Code.size() && !Scan.leader(J); ++J)
          if (detail::isCall(Code[J].Op))
            LastCall = J;
      }
      Instr &In = Code[I];
      if (In.Op == Opcode::LoadLocal) {
        const Slot *S = CopyOf(In.A);
        if (S && LastCall <= I) {
          In.A = S->Src;
          ++Propagated;
        }
        continue;
      }
      if (detail::isCall(In.Op)) {
        // A callee can reach this frame up-level through the static
        // link; every tracked fact dies.
        ++Block;
        continue;
      }
      if (In.Op == Opcode::StoreLocal && !Scan.untrackable(In.A)) {
        Slot &X = Slots[static_cast<size_t>(In.A)];
        X.Block = 0;
        ++X.Version;
        // Record x == y when the copied load immediately precedes (the
        // load was already chain-rewritten above, so facts close
        // transitively).
        if (I > 0 && !Scan.leader(I) && Code[I - 1].Op == Opcode::LoadLocal &&
            Code[I - 1].A != In.A && !Scan.untrackable(Code[I - 1].A)) {
          X.Src = Code[I - 1].A;
          X.Block = Block;
          X.SrcVersion = Slots[static_cast<size_t>(X.Src)].Version;
        }
      }
    }
    if (Propagated)
      Stats.add("opt.copyprop.propagated", Propagated);
    return Propagated != 0;
  }
};

} // namespace

std::unique_ptr<Pass> opt::createCopyPropagationPass() {
  return std::make_unique<CopyPropagationPass>();
}
