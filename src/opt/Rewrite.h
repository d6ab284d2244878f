//===--- Rewrite.h - Shared pass machinery ----------------------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Analysis and rewrite helpers shared by the opt passes: opcode
/// classification, a word bitmap, the one analysis scan of a unit (slot
/// count, address-taken locals, jump targets) and the in-place dead-mask
/// compaction that remaps jump targets.
///
/// The safety rules every pass builds on:
///
///  - A frame slot whose address is ever taken (LoadLocalRef) may be
///    read or written through that address by *any* later instruction
///    (StoreIndirect, IncAddr, SetIncl/SetExcl, VAR arguments...), so
///    address-taken slots are excluded from value tracking entirely.
///  - Any call (Call/CallIndirect/CallBuiltin) may reach this frame
///    up-level through a nested procedure (LoadEnclosing/StoreEnclosing
///    walk the static link), so calls conservatively use and clobber
///    every local slot.
///  - Jump targets are block leaders; facts never flow across them.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_OPT_REWRITE_H
#define M2C_OPT_REWRITE_H

#include "codegen/MCode.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace m2c::opt::detail {

inline bool isJump(codegen::Opcode Op) {
  using codegen::Opcode;
  return Op == Opcode::Jump || Op == Opcode::JumpIfFalse ||
         Op == Opcode::JumpIfTrue;
}

inline bool isCall(codegen::Opcode Op) {
  using codegen::Opcode;
  return Op == Opcode::Call || Op == Opcode::CallIndirect ||
         Op == Opcode::CallBuiltin;
}

/// Control never falls through these.
inline bool isTerminator(codegen::Opcode Op) {
  using codegen::Opcode;
  return Op == Opcode::Jump || Op == Opcode::Return ||
         Op == Opcode::ReturnValue || Op == Opcode::Halt ||
         Op == Opcode::Trap;
}

/// Pushes exactly one value and has no side effect, no trap, and no
/// dependence on mutable frame state beyond the named slot — the set of
/// producers a following Pop may cancel.
inline bool isRemovableProducer(codegen::Opcode Op) {
  using codegen::Opcode;
  switch (Op) {
  case Opcode::PushInt:
  case Opcode::PushReal:
  case Opcode::PushSet:
  case Opcode::PushNil:
  case Opcode::PushStr:
  case Opcode::PushProc:
  case Opcode::LoadLocal:
  case Opcode::LoadLocalRef:
  case Opcode::Dup:
    return true;
  default:
    return false;
  }
}

/// A bitmap in 64-bit words.  Sized once per pass run and reused across
/// that run's sweeps; bits past the size it was made for stay clear.
class Bits {
public:
  Bits() = default;
  explicit Bits(size_t N) : Words(wordsFor(N), 0) {}

  static size_t wordsFor(size_t N) { return (N + 63) / 64; }

  bool test(size_t I) const { return Words[I >> 6] >> (I & 63) & 1; }
  void set(size_t I) { Words[I >> 6] |= uint64_t{1} << (I & 63); }

  /// Clears every bit and makes room for \p N.
  void reset(size_t N) { Words.assign(wordsFor(N), 0); }
  /// Grows to hold bit \p I (new bits clear).
  void grow(size_t I) {
    if (wordsFor(I + 1) > Words.size())
      Words.resize(wordsFor(I + 1), 0);
  }
  /// Inverts the first \p N bits (the size this bitmap was made for).
  void flip(size_t N);
  const std::vector<uint64_t> &words() const { return Words; }

private:
  std::vector<uint64_t> Words;
};

/// Sets in \p Target (reset to Code.size() bits) every instruction some
/// jump targets — a target inside a pattern window would see half a
/// rewrite.  Targets at Code.size() (jumps to the implicit return) have no
/// instruction to mark.
void markJumpTargets(const std::vector<codegen::Instr> &Code, Bits &Target);

/// What one scan of a unit tells every pass.
struct UnitScan {
  /// Frame slots the unit can name: FrameSize, widened by any higher
  /// slot an instruction references (temps allocated past the declared
  /// frame).
  size_t Slots = 0;
  /// Slots whose address is taken somewhere in the unit.
  Bits Taken;
  /// Instructions some jump targets.
  Bits Target;

  explicit UnitScan(const codegen::CodeUnit &Unit);

  /// A slot value tracking must leave alone: address-taken, or not a
  /// slot of this frame at all.
  bool untrackable(int64_t Slot) const {
    return Slot < 0 || static_cast<size_t>(Slot) >= Slots ||
           Taken.test(static_cast<size_t>(Slot));
  }
  /// Basic-block leaders for value tracking: instruction 0 plus every
  /// jump target.  Fall-through after a conditional jump keeps facts (the
  /// only other way in is a jump, and jump targets are leaders).
  bool leader(size_t I) const { return I == 0 || Target.test(I); }
};

/// Removes every instruction marked in \p Dead, in place, remapping jump
/// targets (a target that dies maps to the next surviving instruction;
/// the implicit-return target Code.size() stays the end).  Returns how
/// many instructions were removed.
size_t compactCode(std::vector<codegen::Instr> &Code, const Bits &Dead);

} // namespace m2c::opt::detail

#endif // M2C_OPT_REWRITE_H
