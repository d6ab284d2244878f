//===--- CodeArena.h - Reserve/commit arena for tier-1 code -----*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arena behind promoted tier-1 units, after lambdachine's MCode
/// reserve/commit API: a translator reserves a region up to a returned
/// limit, emits into it, and commits the high-water mark.  Two properties
/// make the atomic code-pointer install protocol sound:
///
///  * chunks are never freed, reused or moved while the arena lives, so a
///    pointer published with a release store stays valid for every reader
///    that acquire-loads it, forever;
///  * reserve() claims its region under the arena lock before returning,
///    so promotions running concurrently on different executor workers
///    can never hand out overlapping regions.
///
/// Unlike lambdachine we emit portable pre-decoded instruction records,
/// not executable machine code, so no mprotect dance is needed.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_VM_TIER_CODEARENA_H
#define M2C_VM_TIER_CODEARENA_H

#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>

namespace m2c::vm::tier {

/// Chunked bump arena with a reserve/commit protocol, safe for
/// concurrent reservations.
class CodeArena {
public:
  explicit CodeArena(size_t ChunkBytes = 64 * 1024) : ChunkBytes(ChunkBytes) {}
  CodeArena(const CodeArena &) = delete;
  CodeArena &operator=(const CodeArena &) = delete;

  /// Claims at least \p Bytes of storage.  Returns the base and sets
  /// \p Limit one past the claimed region; the caller emits up to Limit
  /// and then calls commit().  The region is exclusively the caller's
  /// from this moment (concurrent reserves get disjoint regions).
  std::byte *reserve(size_t Bytes, std::byte **Limit);

  /// Commits a reservation: \p Top is the first unused byte (Base <= Top
  /// <= Limit).  If the reservation is still the newest in its chunk the
  /// unused tail is returned to the chunk; otherwise only the accounting
  /// is updated (the tail is wasted, never reused — pointer stability is
  /// worth more than the bytes).
  void commit(std::byte *Base, std::byte *Top);

private:
  struct Chunk {
    std::unique_ptr<std::byte[]> Mem;
    size_t Cap = 0;
    size_t Used = 0;
  };

  const size_t ChunkBytes;
  std::mutex M;
  std::deque<Chunk> Chunks;
  std::byte *LastClaimBase = nullptr; ///< Newest reservation (trim check).
  std::byte *LastClaimEnd = nullptr;
};

} // namespace m2c::vm::tier

#endif // M2C_VM_TIER_CODEARENA_H
