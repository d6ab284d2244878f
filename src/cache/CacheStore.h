//===--- CacheStore.h - Keyed entry storage backends ------------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Storage backends for the compilation cache: a key/value store mapping
/// 32-hex-digit content keys to serialized entry text.  The in-memory
/// variant serves a single process (tests, repeated `compile()` calls);
/// the on-disk variant persists entries as one `<key>.mcc` text file per
/// entry so that warm builds survive process restarts, reusing the same
/// human-readable serialization the `.mco` object format uses.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_CACHE_CACHESTORE_H
#define M2C_CACHE_CACHESTORE_H

#include "support/Statistic.h"

#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace m2c::cache {

/// Abstract keyed blob store.  Implementations must be thread-safe: the
/// concurrent driver probes and stores from multiple worker threads.
class CacheStore {
public:
  virtual ~CacheStore();

  /// Returns the entry text stored under \p Key, if any.
  virtual std::optional<std::string> load(const std::string &Key) = 0;

  /// Stores \p Text under \p Key, replacing any previous entry.
  virtual void save(const std::string &Key, const std::string &Text) = 0;

  /// Number of entries currently stored (best effort for disk stores).
  virtual size_t size() const = 0;
};

/// Process-local store: a mutex-guarded hash map.
class MemoryCacheStore final : public CacheStore {
public:
  std::optional<std::string> load(const std::string &Key) override;
  void save(const std::string &Key, const std::string &Text) override;
  size_t size() const override;

private:
  mutable std::mutex Mutex;
  std::unordered_map<std::string, std::string> Entries;
};

/// Persistent store: one `<key>.mcc` file per entry under a cache
/// directory (created on first use).  Writes go through a temporary file
/// followed by an atomic rename — fsync-free, so a torn entry is possible
/// only across a power failure, never across concurrent writers.  Temp
/// names embed the process id and a per-process counter, so any number of
/// sessions, service requests, or whole processes can share one cache
/// directory without colliding mid-write.
///
/// Every entry written by this store carries a `#mcc1 <32hex>\n` header:
/// the content hash of the payload that follows.  load() verifies the hash
/// and self-heals on mismatch — the corrupt file is deleted and the load
/// reports a miss, so the caller simply recompiles and overwrites it
/// (`cache.disk.corrupt` counts these).  A file without the header is
/// corrupt too.
///
/// Construction runs a recovery sweep: `.tmp<pid>.*` files whose writing
/// process is dead are orphans from a crash mid-write and are deleted
/// (`cache.disk.orphans`); temps belonging to live processes are in-flight
/// writes and are left alone.
class DiskCacheStore final : public CacheStore {
public:
  explicit DiskCacheStore(std::string Directory);

  std::optional<std::string> load(const std::string &Key) override;
  void save(const std::string &Key, const std::string &Text) override;
  size_t size() const override;

  const std::string &directory() const { return Directory; }

  /// Result of an offline integrity pass over the whole directory.
  struct VerifyReport {
    size_t Checked = 0; ///< Entries examined.
    size_t Corrupt = 0; ///< Entries whose payload hash mismatched.
    size_t Healed = 0;  ///< Corrupt entries deleted (when Heal was set).
    size_t Orphans = 0; ///< Dead-process temp files found (and deleted).
  };

  /// Re-hashes every entry in the directory.  With \p Heal set, corrupt
  /// entries are deleted so the next build recompiles them; dead-process
  /// temps are always swept.  Safe to run concurrently with writers: an
  /// in-flight rename either lands a fully-written file or nothing.
  VerifyReport verifyAll(bool Heal);

  /// Store-level counters: cache.disk.corrupt, cache.disk.orphans,
  /// cache.disk.verified.
  const StatisticSet &stats() const { return Stats; }

private:
  std::string pathFor(const std::string &Key) const;
  /// Deletes dead-process temp files; returns how many were removed.
  size_t sweepOrphans();
  /// Checks the `#mcc1 <hash>` header of \p Raw.  Returns the payload on
  /// success, nullopt on a missing or torn header or a hash mismatch.
  static std::optional<std::string> checkEntry(const std::string &Raw);

  const std::string Directory;
  std::atomic<unsigned> NextTemp{0}; ///< Distinguishes in-flight writes.
  StatisticSet Stats;
};

} // namespace m2c::cache

#endif // M2C_CACHE_CACHESTORE_H
