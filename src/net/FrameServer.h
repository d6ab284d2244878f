//===--- FrameServer.h - The one PROTOCOL.md server front end ---*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server side of docs/PROTOCOL.md, written once for both m2cd
/// (daemon::Daemon) and m2cfarm (farm::Farm); DESIGN.md §11.  It owns the
/// listeners and accept loop, the HELLO/WELCOME handshake, the frame loop,
/// drain and MaxPending admission, the in-flight request-id registry,
/// CANCEL, per-request deadlines and the exactly-one-BUILD_RESULT claim.
/// What a BUILD *does* is the owner's build callback, so the wire layer
/// stays free of compiler dependencies.
///
/// Threading: one poll()-based accept thread per listener, one reader
/// thread per connection, one joinable, reaped thread per in-flight BUILD,
/// and one deadline-monitor thread.  Frames on a connection are
/// serialized by a per-connection write mutex.
///
/// The one-reply protocol: three parties may answer a BUILD — its build
/// callback returning, a CANCEL, and the deadline monitor.  Every answer
/// goes through one atomic claim of the request's Replied flag; the winner
/// sends the one BUILD_RESULT, the others stay silent.  CANCEL and the
/// monitor first abandon the request's RequestControl, then claim; a build
/// callback that finds its request abandoned returns nothing, because one
/// of them is answering it.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_NET_FRAMESERVER_H
#define M2C_NET_FRAMESERVER_H

#include "net/Protocol.h"
#include "net/Socket.h"
#include "support/RequestControl.h"
#include "support/Statistic.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace m2c::net {

/// What the owner of a FrameServer decides about it.
struct FrameServerConfig {
  std::string UnixSocketPath; ///< Empty: no unix listener.
  bool EnableTcp = false;
  uint16_t TcpPort = 0; ///< 0 with EnableTcp: ephemeral (see tcpPort()).
  /// Connections allowed concurrently; beyond this, accepts are answered
  /// ERROR REJECTED_OVERLOAD and closed (PROTOCOL.md §10).
  unsigned MaxConnections = 0;
  /// BUILDs queued-or-running; beyond this, BUILDs are answered
  /// BUILD_RESULT REJECTED_OVERLOAD.
  unsigned MaxPending = 0;
  std::string Banner; ///< The WELCOME server string.
  std::string Prefix; ///< Counter prefix: "<Prefix>.requests.ok", ...
};

class FrameServer {
public:
  /// Runs one admitted BUILD on its own thread and returns the result to
  /// send (the server sets its RequestId), or nullopt when it found
  /// \p Control abandoned.  A thrown exception becomes a clean INTERNAL
  /// reply, so a failing build never takes the server down.
  using BuildFn = std::function<std::optional<BuildResultMsg>(
      BuildRequestMsg Msg, const RequestControl &Control)>;
  /// What a STATS request answers.
  using StatsFn = std::function<std::map<std::string, uint64_t>()>;

  /// The server adds its counters to \p Counters, which must outlive it.
  FrameServer(FrameServerConfig Config, StatisticSet &Counters, BuildFn Build,
              StatsFn Stats);
  ~FrameServer();
  FrameServer(const FrameServer &) = delete;
  FrameServer &operator=(const FrameServer &) = delete;

  /// Binds the configured listeners and starts serving.  False + \p Err
  /// on bind failure.
  bool start(std::string &Err);

  /// Enters drain (PROTOCOL.md §12): refuse new connections and new
  /// BUILDs, keep serving STATS/PING and every in-flight BUILD.
  /// Idempotent.
  void requestDrain();

  bool draining() const { return Draining.load(std::memory_order_relaxed); }

  /// Drains, waits for every in-flight BUILD's reply to be delivered,
  /// then tears all threads down.  Idempotent; called by the destructor.
  void stop();

  /// The TCP listener's bound port (after start()); 0 if TCP is off.
  uint16_t tcpPort() const { return TcpPortBound; }

private:
  using Clock = std::chrono::steady_clock;

  struct Connection;
  struct Request;

  void acceptLoop(Listener &L);
  void serveConnection(std::shared_ptr<Connection> Conn);
  bool handshake(Connection &Conn);
  void handleBuild(const std::shared_ptr<Connection> &Conn,
                   BuildRequestMsg Msg);
  void runBuild(std::shared_ptr<Request> R, BuildRequestMsg Msg);
  void handleCancel(Connection &Conn, const CancelMsg &Msg);
  void monitorLoop();

  /// Abandons \p R, then answers it with \p St unless it was answered.
  void abandon(Request &R, Status St);

  /// Sends \p M as \p R's one BUILD_RESULT unless someone beat us to it.
  /// Returns false if a reply was already sent.
  bool tryReply(Request &R, BuildResultMsg M);

  void sendFrame(Connection &Conn, const Frame &F);
  void count(const char *Suffix) { Counters.add(Config.Prefix + Suffix); }

  /// Joins finished build threads; \p All also joins running ones.
  /// Caller holds BuildsM, or no build can be live.
  void reapBuildThreads(bool All);

  const FrameServerConfig Config;
  StatisticSet &Counters;
  const BuildFn Build;
  const StatsFn Stats;

  Listener UnixListener, TcpListener;
  uint16_t TcpPortBound = 0;

  std::atomic<bool> Draining{false};
  std::atomic<bool> Stopping{false};
  bool Started = false, Stopped = false;

  std::mutex ConnsM;
  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>> Conns;
  std::atomic<unsigned> ActiveConns{0};

  /// BUILDs queued-or-running (the shed bound) and their joinable
  /// threads, each paired with a done flag for opportunistic reaping.
  std::mutex BuildsM;
  std::condition_variable BuildsCv;
  unsigned Pending = 0;
  std::vector<std::pair<std::shared_ptr<std::atomic<bool>>, std::thread>>
      BuildThreads;

  std::mutex DeadlineM;
  std::condition_variable DeadlineCv;
  bool MonitorStop = false;
  std::multimap<Clock::time_point, std::weak_ptr<Request>> Deadlines;

  std::vector<std::thread> AcceptThreads;
  std::thread MonitorThread;
};

} // namespace m2c::net

#endif // M2C_NET_FRAMESERVER_H
