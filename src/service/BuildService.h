//===--- BuildService.h - Long-lived multi-tenant build service -*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent, multi-tenant compilation service (DESIGN.md section 10).
/// One BuildService owns exactly one work-stealing ThreadedExecutor whose
/// workers serve any number of concurrently submitted build requests —
/// its own, so the service never shares tokens with the other compiles of
/// its process — plus the shared artifact tiers that amortize per-request
/// startup cost:
///
///   request -> SharedInterfacePool (interfaces parsed once per service)
///           -> BuildSession on the shared executor (fair-share tokens)
///           -> MemoryCacheTier -> DiskCacheStore -> compile
///
/// The correctness bar is byte-identity: a request's .mco images equal
/// what a cold standalone BuildSession produces for the same sources, for
/// any worker count and any arrival order.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_SERVICE_BUILDSERVICE_H
#define M2C_SERVICE_BUILDSERVICE_H

#include "build/BuildSession.h"
#include "cache/CompilationCache.h"
#include "sched/ThreadedExecutor.h"
#include "service/MemoryCacheTier.h"
#include "service/SharedInterfacePool.h"
#include "support/RequestControl.h"
#include "support/Statistic.h"

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace m2c::service {

/// Everything configurable about one service instance.
struct ServiceConfig {
  unsigned Workers = 4; ///< Processors of the one shared executor.
  symtab::DkyStrategy Strategy = symtab::DkyStrategy::Skeptical;
  sema::HeadingSharing Sharing = sema::HeadingSharing::CopyEntries;
  /// Default optimization level for requests that don't name their own
  /// (a BUILD request may carry a per-request level).
  opt::OptLevel Level = opt::defaultOptLevel();
  size_t MemoryTierBytes = static_cast<size_t>(64) << 20;
  /// Bound on distinct .def files one SharedInterfacePool generation may
  /// accumulate (0 = unbounded).  Farm workers run bounded so a worker
  /// is a fixed-size unit; affinity sharding keeps each worker's
  /// interface working set under its bound.
  unsigned MaxPooledInterfaces = 0;
  std::string CacheDir; ///< Disk tier below the memory tier; empty:
                        ///< memory-only.
};

/// The long-lived service.  Thread-safe: submit() may be called from any
/// number of client threads concurrently.
class BuildService {
public:
  BuildService(VirtualFileSystem &Files, StringInterner &Interner,
               ServiceConfig Config);
  BuildService(const BuildService &) = delete;
  BuildService &operator=(const BuildService &) = delete;

  /// Builds \p Roots as one request: shared interface generation, session
  /// on the shared executor, tiered cache.  Blocks the calling thread
  /// until the request completes.  A non-null \p Ctrl lets the caller
  /// abandon the request between phases (the result then has Aborted set
  /// and nothing was compiled or cached for it).
  /// \p Level overrides the service's default optimization level for this
  /// request only; cache keys embed the level, so requests at different
  /// levels never share entries.
  build::BuildResult submit(const std::vector<std::string> &Roots,
                            const RequestControl *Ctrl = nullptr,
                            std::optional<opt::OptLevel> Level = std::nullopt);

  /// Merged service-level counters: the shared executor's sched.* (its
  /// closed requests), cache.* from both tiers, service.requests.*,
  /// service.interface.*, service.generations.
  std::map<std::string, uint64_t> statsSnapshot();

  const ServiceConfig &config() const { return Config; }
  sched::ThreadedExecutor &executor() { return Exec; }
  SharedInterfacePool &interfacePool() { return Pool; }

private:
  /// Blocks while any in-flight request is compiling one of \p Modules
  /// (two requests may share interfaces freely, but concurrently
  /// compiling the same implementation module in one registry would
  /// collide), then marks them in flight.
  void lockModules(const std::vector<std::string> &Modules);
  void unlockModules(const std::vector<std::string> &Modules);

  /// RAII over lockModules/unlockModules: the in-flight marks are
  /// released on unwind too, so a throwing build can never leave its
  /// modules locked and deadlock every later overlapping request.
  class ModuleLocks {
  public:
    ModuleLocks(BuildService &S, std::vector<std::string> Modules)
        : S(S), Modules(std::move(Modules)) {
      S.lockModules(this->Modules);
    }
    ~ModuleLocks() { S.unlockModules(Modules); }
    ModuleLocks(const ModuleLocks &) = delete;
    ModuleLocks &operator=(const ModuleLocks &) = delete;

  private:
    BuildService &S;
    std::vector<std::string> Modules;
  };

  VirtualFileSystem &Files;
  StringInterner &Interner;
  const ServiceConfig Config;

  sched::ThreadedExecutor Exec;
  MemoryCacheTier *Tier = nullptr; ///< Owned by Cache (as its store).
  std::unique_ptr<cache::CompilationCache> Cache;
  SharedInterfacePool Pool;
  StatisticSet ServiceStats;

  std::mutex InFlightM;
  std::condition_variable InFlightCv;
  std::unordered_set<std::string> InFlightModules;
};

} // namespace m2c::service

#endif // M2C_SERVICE_BUILDSERVICE_H
