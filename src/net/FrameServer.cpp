//===--- FrameServer.cpp - The one PROTOCOL.md server front end -----------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "net/FrameServer.h"

using namespace m2c;
using namespace m2c::net;

namespace {

/// The one status-to-counter table (PROTOCOL.md §11): every BUILD_RESULT
/// is counted as "<prefix>" + this for its status.
const char *requestCounter(Status St) {
  switch (St) {
  case Status::Ok:
    return ".requests.ok";
  case Status::RejectedOverload:
    return ".requests.shed";
  case Status::DeadlineExceeded:
    return ".requests.deadline";
  case Status::Cancelled:
    return ".requests.cancelled";
  case Status::BuildFailed:
    return ".requests.failed";
  case Status::Draining:
    return ".requests.draining";
  case Status::Internal:
    return ".requests.internal";
  default: // Statuses only an ERROR frame carries.
    return ".requests.other";
  }
}

} // namespace

struct FrameServer::Connection {
  Socket Sock;
  std::mutex WriteM; ///< Serializes frames onto the socket.
  std::atomic<bool> ReaderDone{false};
  std::mutex ReqM;
  std::map<uint64_t, std::shared_ptr<Request>> InFlight;
};

/// One in-flight BUILD, shared by its build thread, the connection reader
/// (CANCEL) and the deadline monitor.
struct FrameServer::Request {
  uint64_t Id = 0;
  std::shared_ptr<Connection> Conn;
  RequestControl Control;
  std::atomic<bool> Replied{false};
};

FrameServer::FrameServer(FrameServerConfig Config, StatisticSet &Counters,
                         BuildFn Build, StatsFn Stats)
    : Config(std::move(Config)), Counters(Counters), Build(std::move(Build)),
      Stats(std::move(Stats)) {}

FrameServer::~FrameServer() { stop(); }

bool FrameServer::start(std::string &Err) {
  if (Started) {
    Err = "server already started";
    return false;
  }
  if (Config.UnixSocketPath.empty() && !Config.EnableTcp) {
    Err = "no listener configured (need a unix socket path and/or TCP)";
    return false;
  }
  if (!Config.UnixSocketPath.empty()) {
    UnixListener = Listener::unixDomain(Config.UnixSocketPath, Err);
    if (!UnixListener.valid())
      return false;
  }
  if (Config.EnableTcp) {
    TcpListener = Listener::tcp(Config.TcpPort, Err);
    if (!TcpListener.valid())
      return false;
    TcpPortBound = TcpListener.port();
  }
  Started = true;
  MonitorThread = std::thread([this] { monitorLoop(); });
  if (UnixListener.valid())
    AcceptThreads.emplace_back([this] { acceptLoop(UnixListener); });
  if (TcpListener.valid())
    AcceptThreads.emplace_back([this] { acceptLoop(TcpListener); });
  return true;
}

void FrameServer::requestDrain() {
  Draining.store(true, std::memory_order_relaxed);
}

void FrameServer::stop() {
  if (!Started || Stopped)
    return;
  Stopped = true;
  requestDrain();

  // Finish in-flight: every admitted BUILD's one reply must be delivered
  // before any socket is torn down (PROTOCOL.md §12).  Admission holds
  // BuildsM and re-checks Draining under it, so once the predicate holds
  // under the lock no further build can appear.
  {
    std::unique_lock<std::mutex> Lock(BuildsM);
    BuildsCv.wait(Lock, [this] { return Pending == 0; });
    reapBuildThreads(/*All=*/true);
  }

  // Join the accept loops before touching the listener fds: each loop
  // polls with a 100ms timeout and rechecks Stopping, so closing the fd
  // out from under a blocked poll()/accept() is never necessary.
  Stopping.store(true, std::memory_order_relaxed);
  for (std::thread &T : AcceptThreads)
    T.join();
  AcceptThreads.clear();
  UnixListener.close();
  TcpListener.close();

  // Wake connection readers blocked in recv and join them.
  {
    std::lock_guard<std::mutex> Lock(ConnsM);
    for (auto &[Conn, Thread] : Conns) {
      Conn->Sock.shutdownBoth();
      Thread.join();
    }
    Conns.clear();
  }
  {
    std::lock_guard<std::mutex> Lock(DeadlineM);
    MonitorStop = true;
  }
  DeadlineCv.notify_all();
  MonitorThread.join();
}

void FrameServer::sendFrame(Connection &Conn, const Frame &F) {
  std::lock_guard<std::mutex> Lock(Conn.WriteM);
  // A failed send means the client vanished (EPIPE is suppressed by
  // MSG_NOSIGNAL, so a dead peer can never SIGPIPE the server); its reader
  // will see EOF and wind the connection down, so the write is simply
  // counted and dropped.
  if (!Conn.Sock.sendFrame(F))
    count(".replies.sendfailed");
}

//===--- Accepting ---------------------------------------------------------===//

void FrameServer::acceptLoop(Listener &L) {
  while (!Stopping.load(std::memory_order_relaxed)) {
    Socket S;
    switch (L.acceptFor(/*TimeoutMs=*/100, S)) {
    case Listener::AcceptStatus::TimedOut:
      continue;
    case Listener::AcceptStatus::Error:
      return; // Listener closed (stop) or irrecoverably broken.
    case Listener::AcceptStatus::Accepted:
      break;
    }
    if (Draining.load(std::memory_order_relaxed)) {
      count(".connections.draining");
      S.sendFrame(encode(ErrorMsg{Status::Draining, "server is draining"}));
      continue; // Socket closes on scope exit.
    }
    if (ActiveConns.load(std::memory_order_relaxed) >= Config.MaxConnections) {
      count(".connections.shed");
      S.sendFrame(encode(
          ErrorMsg{Status::RejectedOverload, "connection limit reached"}));
      continue;
    }
    auto Conn = std::make_shared<Connection>();
    Conn->Sock = std::move(S);
    ActiveConns.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(ConnsM);
    // Opportunistically reap connections whose reader already exited so
    // a long-lived server's list stays proportional to live clients.
    for (size_t I = 0; I < Conns.size();) {
      if (Conns[I].first->ReaderDone.load(std::memory_order_acquire)) {
        Conns[I].second.join();
        Conns.erase(Conns.begin() + static_cast<ptrdiff_t>(I));
      } else {
        ++I;
      }
    }
    Conns.emplace_back(Conn,
                       std::thread([this, Conn] { serveConnection(Conn); }));
  }
}

//===--- Per-connection protocol -------------------------------------------===//

bool FrameServer::handshake(Connection &Conn) {
  Frame F;
  if (Conn.Sock.recvFrame(F) != Socket::RecvStatus::Ok)
    return false;
  HelloMsg Hello;
  if (!decode(F, Hello)) {
    count(".frames.malformed");
    sendFrame(Conn, encode(ErrorMsg{Status::Malformed,
                                    "expected HELLO as the first frame"}));
    return false;
  }
  if (Hello.MinVersion > ProtocolVersion ||
      Hello.MaxVersion < ProtocolVersion) {
    sendFrame(Conn, encode(ErrorMsg{Status::UnsupportedVersion,
                                    "server implements only version " +
                                        std::to_string(ProtocolVersion)}));
    return false;
  }
  sendFrame(Conn, encode(WelcomeMsg{ProtocolVersion, Config.Banner}));
  count(".connections.accepted");
  return true;
}

void FrameServer::serveConnection(std::shared_ptr<Connection> Conn) {
  if (handshake(*Conn)) {
    bool Fatal = false;
    while (!Fatal) {
      Frame F;
      Socket::RecvStatus RS = Conn->Sock.recvFrame(F);
      if (RS == Socket::RecvStatus::Truncated)
        count(".frames.truncated");
      if (RS == Socket::RecvStatus::TooLarge) {
        count(".frames.toolarge");
        sendFrame(*Conn, encode(ErrorMsg{Status::FrameTooLarge,
                                         "frame exceeds 64 MiB"}));
      }
      if (RS == Socket::RecvStatus::Malformed) {
        count(".frames.malformed");
        sendFrame(*Conn,
                  encode(ErrorMsg{Status::Malformed, "zero-length frame"}));
      }
      if (RS != Socket::RecvStatus::Ok)
        break;

      // An undecodable payload is connection-fatal: the peer no longer
      // speaks the protocol this server does.
      auto Undecodable = [&](const char *What) {
        count(".frames.malformed");
        sendFrame(*Conn, encode(ErrorMsg{Status::Malformed, What}));
        Fatal = true;
      };
      switch (F.Type) {
      case MsgType::Build: {
        BuildRequestMsg Msg;
        if (decode(F, Msg))
          handleBuild(Conn, std::move(Msg));
        else
          Undecodable("undecodable BUILD payload");
        break;
      }
      case MsgType::Cancel: {
        CancelMsg Msg;
        if (decode(F, Msg))
          handleCancel(*Conn, Msg);
        else
          Undecodable("undecodable CANCEL payload");
        break;
      }
      case MsgType::Stats: {
        StatsResultMsg Msg;
        for (const auto &[Name, Value] : Stats())
          Msg.Counters.emplace_back(Name, Value);
        sendFrame(*Conn, encode(Msg));
        break;
      }
      case MsgType::Ping: {
        PingMsg Msg;
        if (decode(F, Msg))
          sendFrame(*Conn, encodePong(Msg.Token));
        break;
      }
      default:
        // Well-formed frame, unknown type: answer and keep going — the
        // framing is still trustworthy (PROTOCOL.md §4).
        count(".frames.unknown");
        sendFrame(*Conn, encode(ErrorMsg{Status::UnknownType,
                                         "unknown message type"}));
        break;
      }
    }
  }
  Conn->Sock.shutdownBoth();
  ActiveConns.fetch_sub(1, std::memory_order_relaxed);
  Conn->ReaderDone.store(true, std::memory_order_release);
}

//===--- Builds ------------------------------------------------------------===//

void FrameServer::handleBuild(const std::shared_ptr<Connection> &Conn,
                              BuildRequestMsg Msg) {
  auto R = std::make_shared<Request>();
  R->Id = Msg.RequestId;
  R->Conn = Conn;

  // Admission — the drain gate, the shed bound and the id registry — is
  // decided under BuildsM: stop() waits for Pending == 0 under the same
  // lock with Draining already set, so a build can never slip in behind
  // the drain's back.
  std::unique_lock<std::mutex> Lock(BuildsM);
  Status Refusal = Draining.load(std::memory_order_relaxed)
                       ? Status::Draining
                   : Pending >= Config.MaxPending ? Status::RejectedOverload
                                                  : Status::Ok;
  if (Refusal != Status::Ok) {
    Lock.unlock();
    BuildResultMsg Out;
    Out.RequestId = Msg.RequestId;
    Out.St = Refusal;
    count(requestCounter(Refusal));
    sendFrame(*Conn, encode(Out));
    return;
  }
  bool Duplicate = false;
  {
    std::lock_guard<std::mutex> ReqLock(Conn->ReqM);
    Duplicate = !Conn->InFlight.emplace(R->Id, R).second;
  }
  if (Duplicate) {
    // Duplicate in-flight id: connection-fatal (PROTOCOL.md §5.3).  The
    // shutdown ends this connection's reader loop.
    Lock.unlock();
    count(".frames.malformed");
    sendFrame(*Conn, encode(ErrorMsg{Status::Malformed,
                                     "request id already in flight"}));
    Conn->Sock.shutdownBoth();
    return;
  }
  ++Pending;
  count(".requests.received");

  // The deadline runs from here, the moment the BUILD was decoded
  // (PROTOCOL.md §6).
  if (Msg.DeadlineMs > 0) {
    auto Due = Clock::now() + std::chrono::milliseconds(Msg.DeadlineMs);
    {
      std::lock_guard<std::mutex> DeadlineLock(DeadlineM);
      Deadlines.emplace(Due, R);
    }
    DeadlineCv.notify_all();
  }

  reapBuildThreads(/*All=*/false);
  auto Done = std::make_shared<std::atomic<bool>>(false);
  BuildThreads.emplace_back(
      Done, std::thread([this, R, Msg = std::move(Msg), Done]() mutable {
        runBuild(std::move(R), std::move(Msg));
        Done->store(true, std::memory_order_release);
      }));
}

void FrameServer::runBuild(std::shared_ptr<Request> R, BuildRequestMsg Msg) {
  std::optional<BuildResultMsg> Result;
  try {
    Result = Build(std::move(Msg), R->Control);
  } catch (const std::exception &E) {
    // Injected faults and anything escaping the backend become one clean
    // INTERNAL reply, which is retryable client-side.
    count(".requests.faulted");
    Result.emplace();
    Result->St = Status::Internal;
    Result->Diagnostics = Config.Banner + ": build aborted: " + E.what() + "\n";
  }
  // No result, or a result nobody will see: the reply went out already.
  if (!Result || !tryReply(*R, std::move(*Result)))
    count(".requests.abandoned");

  std::lock_guard<std::mutex> Lock(BuildsM);
  --Pending;
  BuildsCv.notify_all();
}

void FrameServer::handleCancel(Connection &Conn, const CancelMsg &Msg) {
  std::shared_ptr<Request> R;
  {
    std::lock_guard<std::mutex> Lock(Conn.ReqM);
    auto It = Conn.InFlight.find(Msg.RequestId);
    if (It != Conn.InFlight.end())
      R = It->second;
  }
  if (!R) {
    count(".cancels.unknown");
    return; // Already completed, or never sent: a no-op (PROTOCOL.md §7).
  }
  abandon(*R, Status::Cancelled);
}

void FrameServer::monitorLoop() {
  std::unique_lock<std::mutex> Lock(DeadlineM);
  for (;;) {
    DeadlineCv.wait(Lock, [this] { return MonitorStop || !Deadlines.empty(); });
    if (MonitorStop)
      return;
    auto First = Deadlines.begin();
    const Clock::time_point Due = First->first;
    if (Clock::now() < Due) {
      // An earlier registration or stop() wakes this sooner.
      DeadlineCv.wait_until(Lock, Due);
      continue;
    }
    std::shared_ptr<Request> R = First->second.lock();
    Deadlines.erase(First);
    if (!R)
      continue;
    Lock.unlock();
    abandon(*R, Status::DeadlineExceeded);
    Lock.lock();
  }
}

void FrameServer::abandon(Request &R, Status St) {
  R.Control.abandon();
  BuildResultMsg Out;
  Out.St = St;
  tryReply(R, std::move(Out));
}

bool FrameServer::tryReply(Request &R, BuildResultMsg M) {
  if (R.Replied.exchange(true, std::memory_order_acq_rel))
    return false;
  M.RequestId = R.Id;
  // Free the id and count the outcome before the frame hits the wire: a
  // client that reads its result may reuse the id at once (§5.3), or ask
  // for STATS and expect this outcome reflected.
  {
    std::lock_guard<std::mutex> Lock(R.Conn->ReqM);
    R.Conn->InFlight.erase(R.Id);
  }
  count(requestCounter(M.St));
  sendFrame(*R.Conn, encode(M));
  return true;
}

void FrameServer::reapBuildThreads(bool All) {
  for (size_t I = 0; I < BuildThreads.size();) {
    if (All || BuildThreads[I].first->load(std::memory_order_acquire)) {
      BuildThreads[I].second.join();
      BuildThreads.erase(BuildThreads.begin() + static_cast<ptrdiff_t>(I));
    } else {
      ++I;
    }
  }
}
