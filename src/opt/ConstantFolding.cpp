//===--- ConstantFolding.cpp - Block-local constant propagation ------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// The "constfold" pass: tracks frame slots known to hold an integer
/// constant (`PushInt c; StoreLocal x` with no jump landing on the
/// store) and rewrites later `LoadLocal x` in the same block to
/// `PushInt c`.  The rewrite is 1:1 in place, so no jump target moves;
/// the store itself is left for dead-store elimination, and the fresh
/// constants feed the peephole pass's window folds.
///
/// Safety (see Rewrite.h): address-taken slots are never tracked, any
/// call clobbers every fact, and facts die at block leaders.  Facts are
/// one array indexed by slot, so the pass is two linear scans.
///
//===----------------------------------------------------------------------===//

#include "opt/PassManager.h"
#include "opt/Rewrite.h"

using namespace m2c;
using namespace m2c::codegen;
using namespace m2c::opt;

namespace {

class ConstantFoldingPass : public Pass {
public:
  std::string_view name() const override { return "constfold"; }

  bool run(CodeUnit &Unit, StatisticSet &Stats) const override {
    std::vector<Instr> &Code = Unit.Code;
    if (Code.empty())
      return false;
    const detail::UnitScan Scan(Unit);

    // Known[x] holds while its Block equals the current one: a leader or
    // a call starts a new block number instead of clearing every slot.
    struct Fact {
      uint32_t Block = 0;
      int64_t Value = 0;
    };
    std::vector<Fact> Known(Scan.Slots);
    uint32_t Block = 0;
    uint64_t Propagated = 0;
    for (size_t I = 0; I < Code.size(); ++I) {
      if (Scan.leader(I))
        ++Block;
      Instr &In = Code[I];
      if (In.Op == Opcode::LoadLocal) {
        if (!Scan.untrackable(In.A) &&
            Known[static_cast<size_t>(In.A)].Block == Block) {
          In = Instr{Opcode::PushInt, Known[static_cast<size_t>(In.A)].Value,
                     0, 0.0};
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
        Fact &F = Known[static_cast<size_t>(In.A)];
        if (I > 0 && !Scan.leader(I) && Code[I - 1].Op == Opcode::PushInt)
          F = Fact{Block, Code[I - 1].A};
        else
          F.Block = 0;
      }
    }
    if (Propagated)
      Stats.add("opt.constfold.propagated", Propagated);
    return Propagated != 0;
  }
};

} // namespace

std::unique_ptr<Pass> opt::createConstantFoldingPass() {
  return std::make_unique<ConstantFoldingPass>();
}
