//===--- Rewrite.cpp - Shared pass machinery -------------------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "opt/Rewrite.h"

#include <bit>
#include <iterator>

using namespace m2c;
using namespace m2c::codegen;
using namespace m2c::opt;

void detail::Bits::flip(size_t N) {
  for (uint64_t &W : Words)
    W = ~W;
  if (N % 64)
    Words.back() &= (uint64_t{1} << (N % 64)) - 1;
}

void detail::markJumpTargets(const std::vector<Instr> &Code, Bits &Target) {
  Target.reset(Code.size());
  for (const Instr &I : Code)
    if (isJump(I.Op) && static_cast<size_t>(I.A) < Code.size())
      Target.set(static_cast<size_t>(I.A));
}

detail::UnitScan::UnitScan(const CodeUnit &Unit)
    : Slots(Unit.FrameSize), Taken(Unit.FrameSize),
      Target(Unit.Code.size()) {
  const size_t N = Unit.Code.size();
  for (const Instr &I : Unit.Code) {
    const size_t A = static_cast<size_t>(I.A);
    switch (I.Op) {
    case Opcode::LoadLocalRef:
      if (I.A >= 0) {
        Taken.grow(A);
        Taken.set(A);
      }
      [[fallthrough]];
    case Opcode::LoadLocal:
    case Opcode::StoreLocal:
      if (I.A >= 0 && A + 1 > Slots)
        Slots = A + 1;
      break;
    case Opcode::Jump:
    case Opcode::JumpIfFalse:
    case Opcode::JumpIfTrue:
      if (A < N)
        Target.set(A);
      break;
    default:
      break;
    }
  }
  if (Slots)
    Taken.grow(Slots - 1);
}

size_t detail::compactCode(std::vector<Instr> &Code, const Bits &Dead) {
  // An instruction's new index is its old one less the dead instructions
  // before it, which is also where a dead target's next survivor lands.
  // Dead counts before each word make that O(1) per jump; units of up to
  // 4096 instructions keep them on the stack, so a pass that compacts
  // once per sweep allocates nothing per sweep.
  const std::vector<uint64_t> &W = Dead.words();
  uint32_t Small[65];
  std::vector<uint32_t> Large;
  uint32_t *DeadBefore = Small;
  if (W.size() + 1 > std::size(Small)) {
    Large.resize(W.size() + 1);
    DeadBefore = Large.data();
  }
  DeadBefore[0] = 0;
  for (size_t K = 0; K < W.size(); ++K)
    DeadBefore[K + 1] = DeadBefore[K] + std::popcount(W[K]);
  const size_t Removed = DeadBefore[W.size()];
  if (Removed == 0)
    return 0;
  auto NewIndex = [&](size_t T) {
    size_t Below = DeadBefore[T >> 6];
    if (T & 63)
      Below += std::popcount(W[T >> 6] & ((uint64_t{1} << (T & 63)) - 1));
    return static_cast<int64_t>(T - Below);
  };

  size_t Out = 0;
  for (size_t I = 0; I < Code.size(); ++I) {
    if (Dead.test(I))
      continue;
    Instr In = Code[I];
    if (isJump(In.Op))
      In.A = NewIndex(static_cast<size_t>(In.A));
    Code[Out++] = In;
  }
  Code.resize(Out);
  return Removed;
}
