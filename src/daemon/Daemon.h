//===--- Daemon.h - m2cd: the network build daemon --------------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived network daemon over service::BuildService (DESIGN.md
/// §11): a net::FrameServer — listeners, the docs/PROTOCOL.md frame
/// protocol, deadlines, cancellation, shed and drain — whose build
/// callback multiplexes every connection's requests onto the one shared
/// executor and artifact tiers.  STATS answers the service counters
/// merged with the server's net.* set.
///
/// The Daemon is a library class so tests can run it in-process against
/// real sockets; the `m2cd` executable (m2cd.cpp) is a thin main over
/// it that adds SIGTERM-to-drain wiring and workspace preloading.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_DAEMON_DAEMON_H
#define M2C_DAEMON_DAEMON_H

#include "net/FrameServer.h"
#include "service/BuildService.h"
#include "support/Statistic.h"

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace m2c::daemon {

/// Everything configurable about one daemon instance.
struct DaemonConfig {
  service::ServiceConfig Service;

  std::string UnixSocketPath; ///< Empty: no unix listener.
  bool EnableTcp = false;
  uint16_t TcpPort = 0; ///< 0 with EnableTcp: ephemeral (see tcpPort()).

  /// Connections allowed concurrently; beyond this, accepts are answered
  /// ERROR REJECTED_OVERLOAD and closed (PROTOCOL.md §10).
  unsigned MaxConnections = 32;
  /// Builds in flight daemon-wide; beyond this, BUILDs are answered
  /// BUILD_RESULT REJECTED_OVERLOAD.  This 429-style shed is the one
  /// bound in front of the service, and the one a build pool must
  /// respect: an admitted build waits only on its module locks and the
  /// executor's fair share.
  unsigned MaxPendingBuilds = 16;

  /// Farm worker mode (PROTOCOL.md §14): the WELCOME server string
  /// becomes "m2cd/1 worker", which is how a coordinator's readiness
  /// probe distinguishes the worker it spawned from some unrelated
  /// daemon squatting on the same socket path.  Protocol semantics are
  /// otherwise identical — a worker is a complete daemon.
  bool WorkerMode = false;

  /// Test instrumentation: called on the build thread after the pending
  /// slot is claimed, before the service submit.  Lets DaemonTest hold
  /// builds on a latch to make shed/cancel/drain races deterministic.
  std::function<void(uint64_t RequestId)> OnBuildStart;
};

/// One running daemon: the BuildService behind a net::FrameServer.
class Daemon {
public:
  Daemon(VirtualFileSystem &Files, StringInterner &Interner,
         DaemonConfig Config);
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds the configured listeners and starts serving.  False + \p Err
  /// on bind failure.
  bool start(std::string &Err) { return Server.start(Err); }

  /// Enters drain (PROTOCOL.md §12): refuse new connections and new
  /// BUILDs, keep serving STATS/PING and every in-flight build.
  /// Idempotent; `m2cd` calls this on SIGTERM.
  void requestDrain() { Server.requestDrain(); }

  bool draining() const { return Server.draining(); }

  /// Drains, waits for every in-flight build's reply to be delivered,
  /// then tears all threads down.  Idempotent; called by the destructor.
  void stop() { Server.stop(); }

  /// The TCP listener's bound port (after start()); 0 if TCP is off.
  uint16_t tcpPort() const { return Server.tcpPort(); }

  /// Service counters merged with the daemon's net.* set — what a STATS
  /// request returns.
  std::map<std::string, uint64_t> statsSnapshot();

  service::BuildService &service() { return Service; }

private:
  /// The server's build callback: one BUILD through the service.
  std::optional<net::BuildResultMsg> submit(net::BuildRequestMsg Msg,
                                            const RequestControl &Control);

  VirtualFileSystem &Files;
  StringInterner &Interner;
  const DaemonConfig Config;
  service::BuildService Service;
  StatisticSet NetStats;

  /// Writes into the shared VirtualFileSystem (pushed BUILD files) are
  /// serialized so two requests' pushes interleave whole-file.
  std::mutex FilesM;

  /// Declared last, so it is destroyed — stopped — first, while
  /// everything its build threads use is still alive.
  net::FrameServer Server;
};

} // namespace m2c::daemon

#endif // M2C_DAEMON_DAEMON_H
