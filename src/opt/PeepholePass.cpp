//===--- PeepholePass.cpp - Window folding, fusion, jump threading ---------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// The former codegen::Peephole, registered as the "peephole" pass:
/// constant folding of integer and boolean operations, algebraic
/// identities, comparison/NOT fusion, jump threading and dead-jump
/// elimination.  One run() sweeps to an internal fixed point, so the
/// pass is idempotent and -O1 output stays byte-identical to what the
/// pre-pass-manager `Optimize` flag produced.
///
//===----------------------------------------------------------------------===//

#include "opt/PassManager.h"
#include "opt/Rewrite.h"

#include <optional>
#include <vector>

using namespace m2c;
using namespace m2c::codegen;
using namespace m2c::opt;

namespace {

using detail::isJump;

/// Folds a binary integer/boolean operation; null if not foldable (or if
/// folding would hide a runtime trap).
std::optional<int64_t> foldBinary(Opcode Op, int64_t A, int64_t B) {
  switch (Op) {
  case Opcode::AddInt:
    return A + B;
  case Opcode::SubInt:
    return A - B;
  case Opcode::MulInt:
    return A * B;
  case Opcode::CmpEqInt:
    return A == B;
  case Opcode::CmpNeInt:
    return A != B;
  case Opcode::CmpLtInt:
    return A < B;
  case Opcode::CmpLeInt:
    return A <= B;
  case Opcode::CmpGtInt:
    return A > B;
  case Opcode::CmpGeInt:
    return A >= B;
  case Opcode::DivInt:
  case Opcode::ModInt:
    // Folding 1 DIV 0 would delete a mandatory runtime trap.
    if (B == 0)
      return std::nullopt;
    return Op == Opcode::DivInt ? A / B : A % B;
  default:
    return std::nullopt;
  }
}

/// The comparison with the inverse sense, or the same opcode if none.
Opcode invertedCompare(Opcode Op) {
  switch (Op) {
  case Opcode::CmpEqInt:
    return Opcode::CmpNeInt;
  case Opcode::CmpNeInt:
    return Opcode::CmpEqInt;
  case Opcode::CmpLtInt:
    return Opcode::CmpGeInt;
  case Opcode::CmpLeInt:
    return Opcode::CmpGtInt;
  case Opcode::CmpGtInt:
    return Opcode::CmpLeInt;
  case Opcode::CmpGeInt:
    return Opcode::CmpLtInt;
  case Opcode::CmpEqReal:
    return Opcode::CmpNeReal;
  case Opcode::CmpNeReal:
    return Opcode::CmpEqReal;
  case Opcode::CmpLtReal:
    return Opcode::CmpGeReal;
  case Opcode::CmpLeReal:
    return Opcode::CmpGtReal;
  case Opcode::CmpGtReal:
    return Opcode::CmpLeReal;
  case Opcode::CmpGeReal:
    return Opcode::CmpLtReal;
  case Opcode::CmpEqPtr:
    return Opcode::CmpNePtr;
  case Opcode::CmpNePtr:
    return Opcode::CmpEqPtr;
  default:
    return Op;
  }
}

/// Counters of one rewriter sweep, flushed to the StatisticSet once per
/// run() so the atomic adds stay off the per-window path.
struct SweepStats {
  uint64_t Folded = 0;   ///< Constant operations evaluated at compile time.
  uint64_t Fused = 0;    ///< Compare/NOT and identity rewrites.
  uint64_t Threaded = 0; ///< Jump-to-jump chains shortened.
  uint64_t Removed = 0;  ///< Instructions deleted.
};

/// One local rewrite sweep.  Deleted instructions are marked in Dead and
/// compacted afterwards so jump targets stay correct.
struct Rewriter {
  std::vector<Instr> &Code;
  detail::Bits &Dead;
  const detail::Bits &Target; ///< Instruction is a jump target.
  SweepStats &Stats;

  /// A window position is usable if alive and not a jump target (a jump
  /// landing between fused instructions would see half a pattern).
  bool usable(size_t I) const {
    return I < Code.size() && !Dead.test(I) && !Target.test(I);
  }

  bool sweep() {
    bool Changed = false;
    for (size_t I = 0; I < Code.size(); ++I) {
      if (Dead.test(I))
        continue;

      // PushInt a; PushInt b; binop  ->  PushInt (a op b)
      size_t J = next(I);
      size_t K = J == Code.size() ? J : next(J);
      if (Code[I].Op == Opcode::PushInt && usable(J) &&
          Code[J].Op == Opcode::PushInt && usable(K)) {
        if (auto Folded = foldBinary(Code[K].Op, Code[I].A, Code[J].A)) {
          Code[K] = Instr{Opcode::PushInt, *Folded, 0, 0.0};
          Dead.set(I);
          Dead.set(J);
          Stats.Folded += 1;
          Stats.Removed += 2;
          Changed = true;
          continue;
        }
      }

      // PushInt c; NegInt -> PushInt -c ; PushInt c; NotBool -> PushInt !c
      if (Code[I].Op == Opcode::PushInt && usable(J)) {
        if (Code[J].Op == Opcode::NegInt || Code[J].Op == Opcode::NotBool ||
            Code[J].Op == Opcode::AbsInt) {
          int64_t V = Code[I].A;
          int64_t R = Code[J].Op == Opcode::NegInt ? -V
                      : Code[J].Op == Opcode::NotBool
                          ? (V == 0 ? 1 : 0)
                          : (V < 0 ? -V : V);
          Code[J] = Instr{Opcode::PushInt, R, 0, 0.0};
          Dead.set(I);
          Stats.Folded += 1;
          Stats.Removed += 1;
          Changed = true;
          continue;
        }
        // x + 0 / x * 1 on the right operand: PushInt 0; AddInt -> drop.
        if ((Code[I].A == 0 && (Code[J].Op == Opcode::AddInt ||
                                Code[J].Op == Opcode::SubInt)) ||
            (Code[I].A == 1 && Code[J].Op == Opcode::MulInt)) {
          Dead.set(I);
          Dead.set(J);
          Stats.Fused += 1;
          Stats.Removed += 2;
          Changed = true;
          continue;
        }
      }

      // compare; NotBool -> inverted compare
      if (invertedCompare(Code[I].Op) != Code[I].Op && usable(J) &&
          Code[J].Op == Opcode::NotBool) {
        Code[I].Op = invertedCompare(Code[I].Op);
        Dead.set(J);
        Stats.Fused += 1;
        Stats.Removed += 1;
        Changed = true;
        continue;
      }

      // PushInt c; JumpIfFalse/True -> Jump or nothing.
      if (Code[I].Op == Opcode::PushInt && usable(J) &&
          (Code[J].Op == Opcode::JumpIfFalse ||
           Code[J].Op == Opcode::JumpIfTrue)) {
        bool Taken = (Code[J].Op == Opcode::JumpIfTrue) == (Code[I].A != 0);
        if (Taken) {
          Code[J].Op = Opcode::Jump;
          Dead.set(I);
          Stats.Removed += 1;
        } else {
          Dead.set(I);
          Dead.set(J);
          Stats.Removed += 2;
        }
        Stats.Folded += 1;
        Changed = true;
        continue;
      }

      // Jump threading: a jump whose target is an unconditional Jump.
      if (isJump(Code[I].Op)) {
        size_t Hops = 0;
        int64_t T = Code[I].A;
        while (static_cast<size_t>(T) < Code.size() &&
               !Dead.test(static_cast<size_t>(T)) &&
               Code[static_cast<size_t>(T)].Op == Opcode::Jump &&
               T != Code[static_cast<size_t>(T)].A && Hops < 64) {
          T = Code[static_cast<size_t>(T)].A;
          ++Hops;
        }
        if (T != Code[I].A) {
          Code[I].A = T;
          Stats.Threaded += 1;
          Changed = true;
        }
      }
    }
    return Changed;
  }

  /// Index of the next live instruction after \p I (Code.size() if none).
  size_t next(size_t I) const {
    for (size_t J = I + 1; J < Code.size(); ++J)
      if (!Dead.test(J))
        return J;
    return Code.size();
  }
};

class PeepholePass : public Pass {
public:
  std::string_view name() const override { return "peephole"; }

  bool run(CodeUnit &Unit, StatisticSet &Stats) const override {
    SweepStats S;
    bool Any = false;
    detail::Bits Dead, Target;
    // Iterate local sweeps to a fixed point (folding exposes new folds),
    // then compact once per sweep.
    for (int Round = 0; Round < 8; ++Round) {
      Dead.reset(Unit.Code.size());
      detail::markJumpTargets(Unit.Code, Target);
      bool Changed = Rewriter{Unit.Code, Dead, Target, S}.sweep();
      if (!Changed)
        break;
      detail::compactCode(Unit.Code, Dead);
      Any = true;
    }
    if (S.Folded)
      Stats.add("opt.peephole.folded", S.Folded);
    if (S.Fused)
      Stats.add("opt.peephole.fused", S.Fused);
    if (S.Threaded)
      Stats.add("opt.peephole.threaded", S.Threaded);
    if (S.Removed)
      Stats.add("opt.peephole.removed", S.Removed);
    return Any;
  }
};

} // namespace

std::unique_ptr<Pass> opt::createPeepholePass() {
  return std::make_unique<PeepholePass>();
}
