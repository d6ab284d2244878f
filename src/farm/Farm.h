//===--- Farm.h - affinity-sharded multi-process build farm -----*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-process scaling rung above the daemon (DESIGN.md §15): a
/// coordinator that serves the ordinary docs/PROTOCOL.md wire protocol
/// to clients through the same net::FrameServer as the daemon, and
/// whose build callback relays every BUILD to one of N `m2cd -worker`
/// processes over pooled upstream connections.  The farm protocol is a
/// composition layer, not a new protocol — a client cannot tell a
/// coordinator from a daemon (same frames, same invariants, same
/// deadlines, same exactly-one-BUILD_RESULT guarantee).
///
/// Routing: requests shard by module-graph affinity — a hash of the
/// request's sorted root set, which over one shared workspace uniquely
/// identifies the root-module closure — so each worker keeps seeing the
/// same projects and its SharedInterfacePool and memory cache tier stay
/// hot for exactly its shard.  A saturated shard spills to the
/// least-loaded worker; correctness is unaffected (any worker can build
/// anything) and the artifacts the spill target misses in memory it
/// finds in the shared content-addressed DiskCacheStore, which its
/// sibling already populated.
///
/// Failure handling: a worker that dies (crash, OOM-kill, injected
/// fault) takes its in-flight relays' connections with it; each such
/// relay fails over to the remaining workers via net::buildWithRetry
/// with jittered backoff — safe because BUILD is idempotent
/// (RemoteClient.h) — while the health thread respawns the dead worker
/// on the same socket path.  Clients observe nothing but latency.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_FARM_FARM_H
#define M2C_FARM_FARM_H

#include "farm/WorkerProcess.h"
#include "net/ClientPool.h"
#include "net/FrameServer.h"
#include "net/RemoteClient.h"
#include "support/Statistic.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace m2c::farm {

/// Everything configurable about one coordinator.
struct FarmConfig {
  std::string UnixSocketPath; ///< Empty: no unix listener.
  bool EnableTcp = false;
  uint16_t TcpPort = 0; ///< 0 with EnableTcp: ephemeral (see tcpPort()).

  unsigned Workers = 2; ///< Worker process count (the farm's N).
  /// The fixed worker unit: every worker runs this spec; the
  /// coordinator fills SocketPath per worker under WorkerDir.
  WorkerSpec Worker;
  /// Directory for worker sockets; empty derives "<UnixSocketPath>.d"
  /// or a /tmp directory when only TCP is configured.  Kept short:
  /// sun_path is ~107 bytes.
  std::string WorkerDir;

  unsigned MaxConnections = 64;
  /// Relays queued-or-running farm-wide; beyond it BUILDs are shed with
  /// REJECTED_OVERLOAD exactly like a daemon's MaxPendingBuilds.
  unsigned MaxPendingRelays = 64;
  /// In-flight relays on a worker before its shard spills to the
  /// least-loaded sibling.
  unsigned SpillThreshold = 4;

  /// Failover policy for relays whose worker failed mid-exchange: the
  /// sibling rotation runs under this jittered backoff.  MaxRetries
  /// here is attempts *across* workers, not per worker.
  net::RetryPolicy Retry = {/*MaxRetries=*/5, /*InitialBackoffMs=*/20,
                            /*MaxBackoffMs=*/500, /*Jitter=*/0.5,
                            /*JitterSeed=*/0, /*OnBackoff=*/nullptr};

  unsigned HealthIntervalMs = 100; ///< Liveness poll / respawn cadence.
};

/// One running coordinator: owns the worker processes, their connection
/// pools, and all protocol threads.  A library class for the same
/// reason Daemon is: tests and benches run farms in-process against
/// real sockets and real worker processes.
class Farm {
public:
  Farm(FarmConfig Config);
  ~Farm();
  Farm(const Farm &) = delete;
  Farm &operator=(const Farm &) = delete;

  /// Spawns the workers, waits until each answers its readiness probe,
  /// binds the client listeners and starts serving.  False + \p Err on
  /// any failure (everything already spawned is torn down).
  bool start(std::string &Err);

  /// Enters drain: refuse new connections and BUILDs, finish in-flight
  /// relays.  Workers keep running — they are what finishes the
  /// in-flight work.  Idempotent.
  void requestDrain() { Server.requestDrain(); }

  bool draining() const { return Server.draining(); }

  /// Drains, waits for every in-flight relay's reply, tears down the
  /// protocol threads, then cascades SIGTERM to the workers and reaps
  /// them (SIGKILL after a grace period).  Idempotent.
  void stop();

  /// The TCP listener's bound port (after start()); 0 if TCP is off.
  uint16_t tcpPort() const { return Server.tcpPort(); }

  unsigned workerCount() const { return static_cast<unsigned>(Slots.size()); }
  std::string workerAddress(unsigned I) const;
  pid_t workerPid(unsigned I);

  /// Chaos/testing hook: SIGKILL worker \p I (the health thread will
  /// respawn it).  False if \p I is out of range.
  bool killWorker(unsigned I);

  /// The farm's own counters (farm.*) plus pool usage.
  std::map<std::string, uint64_t> statsSnapshot();

  /// What a STATS request answers: every reachable worker's counters
  /// summed together, plus statsSnapshot().  Cross-process aggregation
  /// happens here and nowhere else.
  std::map<std::string, uint64_t> aggregatedStats();

  /// Deterministic affinity: FNV-1a over the sorted root set, mod \p N.
  /// Over one shared workspace the sorted roots uniquely identify the
  /// request's module-graph closure, so equal closures always land on
  /// the same worker.
  static unsigned affinityShard(const std::vector<std::string> &Roots,
                                unsigned N);

private:
  /// One worker slot: the process (respawned in place), its connection
  /// pool (address never changes), and its load.
  struct WorkerSlot {
    std::string SocketPath;
    std::unique_ptr<net::ClientPool> Pool;
    std::atomic<unsigned> InFlight{0};
    std::mutex ProcM; ///< Guards Proc (health thread vs stop/kill).
    std::unique_ptr<WorkerProcess> Proc;
  };

  bool spawnWorker(WorkerSlot &Slot, std::string &Err);
  void healthLoop();
  /// SIGTERMs every worker, then reaps each (SIGKILL after a grace
  /// period) and clears its pool.
  void stopWorkers();

  /// The server's build callback: relays one BUILD to a worker, failing
  /// over to its siblings.
  std::optional<net::BuildResultMsg> relay(net::BuildRequestMsg Msg,
                                           const RequestControl &Control);

  /// Picks the worker for a fresh relay: the affinity shard unless its
  /// in-flight load is at SpillThreshold and a strictly less loaded
  /// sibling exists.  Returns the worker index; \p Spilled reports
  /// which path was taken.
  unsigned routeWorker(unsigned Shard, bool &Spilled);

  const FarmConfig Config;
  StatisticSet FarmStats;

  std::vector<std::unique_ptr<WorkerSlot>> Slots;
  std::thread HealthThread;
  std::atomic<bool> StopHealth{false};
  std::mutex HealthM;                ///< Pairs with HealthCv only.
  std::condition_variable HealthCv;  ///< Wakes healthLoop() on stop().

  net::FrameServer Server;
};

} // namespace m2c::farm

#endif // M2C_FARM_FARM_H
