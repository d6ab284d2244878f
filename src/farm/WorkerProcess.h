//===--- WorkerProcess.h - one m2cd worker's lifecycle ----------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spawning, health-checking and reaping one `m2cd -worker` process.
/// The coordinator treats a worker as a fixed-size provisionable unit:
/// every worker of a farm runs the same executable with the same
/// resource bounds (-j, -mem-tier, -pool-cap, -max-*) over the same
/// workspace and the same shared disk cache, differing only in its
/// socket path.  The spawned process inherits the coordinator's
/// environment, which is how an `M2C_FAULTS` plan reaches every worker's
/// fault seams (FaultPlan.h installs from the environment before main).
///
//===----------------------------------------------------------------------===//

#ifndef M2C_FARM_WORKERPROCESS_H
#define M2C_FARM_WORKERPROCESS_H

#include <memory>
#include <optional>
#include <string>
#include <sys/types.h>
#include <utility>
#include <vector>

namespace m2c::farm {

/// How one worker m2cd is launched.  One spec serves a whole farm; the
/// coordinator fills SocketPath per worker.
struct WorkerSpec {
  std::string M2cdPath;   ///< Empty: findM2cd() resolution.
  std::string SocketPath; ///< The worker's unix-domain listener.
  std::string Workspace = ".";
  std::string CacheDir; ///< Shared content-addressed disk store; empty:
                        ///< workers run memory-only and share nothing.
  unsigned Jobs = 2;
  unsigned MaxActive = 0;  ///< 0: daemon default.
  unsigned MaxPending = 0; ///< 0: daemon default.
  /// In-memory cache tier budget; SIZE_MAX keeps the daemon default.
  size_t MemTierBytes = static_cast<size_t>(-1);
  unsigned PoolCap = 0; ///< SharedInterfacePool bound; 0: unbounded.
  /// false: worker stdout/stderr go to /dev/null (a 4-worker farm would
  /// otherwise interleave startup chatter into the coordinator's tty).
  bool InheritStdio = false;
  std::vector<std::string> ExtraArgs; ///< Appended verbatim (-dky etc).
  /// Extra environment (NAME, VALUE) set in the child before exec, on
  /// top of the inherited environment.
  std::vector<std::pair<std::string, std::string>> Env;
};

/// A spawned worker process.  Not thread-safe; the Farm serializes
/// access per slot.
class WorkerProcess {
public:
  /// fork+exec per \p Spec.  Returns nullptr with \p Err set if the
  /// fork fails or the executable is obviously absent.  exec failure
  /// inside the child surfaces as immediate exit 127 — visible to the
  /// caller's readiness probe, not here.
  static std::unique_ptr<WorkerProcess> spawn(const WorkerSpec &Spec,
                                              std::string &Err);
  ~WorkerProcess();
  WorkerProcess(const WorkerProcess &) = delete;
  WorkerProcess &operator=(const WorkerProcess &) = delete;

  pid_t pid() const { return Pid; }

  /// True while the process has not been reaped.  Polls waitpid
  /// (WNOHANG), so a killed worker turns not-alive as soon as the
  /// kernel has the exit status, with no zombie left behind.
  bool alive();

  void terminate(); ///< SIGTERM — m2cd drains and exits.
  void kill();      ///< SIGKILL — chaos/testing hook.

  /// Waits up to \p TimeoutMs for exit, reaping it.  Returns the raw
  /// waitpid status, or nullopt on timeout.
  std::optional<int> waitExit(unsigned TimeoutMs);

private:
  explicit WorkerProcess(pid_t Pid) : Pid(Pid) {}
  pid_t Pid = -1;
  bool Reaped = false;
};

/// Resolves the m2cd executable: \p Explicit if nonempty, else the
/// M2C_M2CD environment variable, else well-known locations relative to
/// the current executable (the build tree's src/daemon/), else bare
/// "m2cd" for PATH resolution at exec time.
std::string findM2cd(const std::string &Explicit);

/// Polls \p Address until an m2cd answers HELLO with a WELCOME naming
/// "m2cd/1 worker" (PROTOCOL.md §14 — proof we reached the worker we
/// spawned, not some unrelated daemon on a stale socket path), and
/// answers a PING.  False + \p Err after \p TimeoutMs.
bool waitWorkerReady(const std::string &Address, unsigned TimeoutMs,
                     std::string &Err);

} // namespace m2c::farm

#endif // M2C_FARM_WORKERPROCESS_H
