//===--- CodeArena.cpp - Reserve/commit arena for tier-1 code --------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "vm/tier/CodeArena.h"

#include <cassert>

using namespace m2c::vm::tier;

namespace {
constexpr size_t Alignment = alignof(std::max_align_t);

size_t alignUp(size_t N) { return (N + Alignment - 1) & ~(Alignment - 1); }
} // namespace

std::byte *CodeArena::reserve(size_t Bytes, std::byte **Limit) {
  Bytes = alignUp(Bytes == 0 ? 1 : Bytes);
  std::lock_guard<std::mutex> Lock(M);
  if (Chunks.empty() || Chunks.back().Cap - Chunks.back().Used < Bytes) {
    Chunk C;
    C.Cap = Bytes > ChunkBytes ? Bytes : ChunkBytes;
    C.Mem = std::make_unique<std::byte[]>(C.Cap);
    Chunks.push_back(std::move(C));
  }
  Chunk &C = Chunks.back();
  std::byte *Base = C.Mem.get() + C.Used;
  C.Used += Bytes;
  LastClaimBase = Base;
  LastClaimEnd = Base + Bytes;
  *Limit = Base + Bytes;
  return Base;
}

void CodeArena::commit(std::byte *Base, std::byte *Top) {
  assert(Top >= Base && "commit below reservation base");
  std::lock_guard<std::mutex> Lock(M);
  // Return the unused tail only when this reservation is still the arena's
  // newest claim (reserve() always claims the top of the last chunk, so a
  // matching LastClaimBase means nothing was reserved after us).  Older
  // reservations just waste their tail — pointer stability is worth more
  // than the bytes.
  if (Base == LastClaimBase && !Chunks.empty()) {
    Chunk &C = Chunks.back();
    size_t End = static_cast<size_t>(Base - C.Mem.get()) +
                 alignUp(static_cast<size_t>(Top - Base));
    assert(LastClaimEnd == C.Mem.get() + C.Used && "claim bookkeeping skew");
    if (End < C.Used) {
      C.Used = End;
      LastClaimEnd = C.Mem.get() + End;
    }
  }
}
