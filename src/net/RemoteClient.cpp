//===--- RemoteClient.cpp - client side of the m2cd protocol --------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "net/RemoteClient.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>

#include <unistd.h>

using namespace m2c;
using namespace m2c::net;

const char *m2c::net::errorCategoryName(ErrorCategory C) {
  switch (C) {
  case ErrorCategory::None:
    return "none";
  case ErrorCategory::ConnectRefused:
    return "connect-refused";
  case ErrorCategory::Transport:
    return "transport";
  case ErrorCategory::Protocol:
    return "protocol";
  case ErrorCategory::Overload:
    return "overload";
  case ErrorCategory::Draining:
    return "draining";
  case ErrorCategory::Deadline:
    return "deadline";
  case ErrorCategory::Cancelled:
    return "cancelled";
  case ErrorCategory::BuildFailed:
    return "build-failed";
  case ErrorCategory::Internal:
    return "internal";
  }
  return "unknown";
}

ErrorCategory m2c::net::categorize(Status St) {
  switch (St) {
  case Status::Ok:
    return ErrorCategory::None;
  case Status::RejectedOverload:
    return ErrorCategory::Overload;
  case Status::DeadlineExceeded:
    return ErrorCategory::Deadline;
  case Status::Cancelled:
    return ErrorCategory::Cancelled;
  case Status::BuildFailed:
    return ErrorCategory::BuildFailed;
  case Status::Draining:
    return ErrorCategory::Draining;
  case Status::Internal:
    return ErrorCategory::Internal;
  case Status::Malformed:
  case Status::UnsupportedVersion:
  case Status::UnknownType:
  case Status::FrameTooLarge:
  case Status::UnknownRequest:
    return ErrorCategory::Protocol;
  }
  return ErrorCategory::Protocol;
}

bool m2c::net::isRetryable(ErrorCategory C) {
  switch (C) {
  case ErrorCategory::ConnectRefused:
  case ErrorCategory::Transport:
  case ErrorCategory::Overload:
  case ErrorCategory::Draining:
  case ErrorCategory::Internal:
    return true;
  default:
    return false;
  }
}

std::unique_ptr<RemoteClient> RemoteClient::open(const std::string &Address,
                                                 std::string &Err,
                                                 ErrorCategory *Category) {
  auto Fail = [&](ErrorCategory C) -> std::unique_ptr<RemoteClient> {
    if (Category)
      *Category = C;
    return nullptr;
  };
  Socket S;
  if (Address.rfind("tcp:", 0) == 0) {
    std::string HostPort = Address.substr(4);
    size_t Colon = HostPort.rfind(':');
    if (Colon == std::string::npos) {
      Err = "expected tcp:HOST:PORT, got '" + Address + "'";
      return Fail(ErrorCategory::Protocol);
    }
    int Port = std::atoi(HostPort.c_str() + Colon + 1);
    if (Port <= 0 || Port > 65535) {
      Err = "bad port in '" + Address + "'";
      return Fail(ErrorCategory::Protocol);
    }
    S = Socket::connectTcp(HostPort.substr(0, Colon),
                           static_cast<uint16_t>(Port), Err);
  } else {
    S = Socket::connectUnix(Address, Err);
  }
  if (!S.valid())
    return Fail(ErrorCategory::ConnectRefused);

  std::unique_ptr<RemoteClient> C(new RemoteClient(std::move(S)));
  if (!C->Sock.sendFrame(encode(HelloMsg{ProtocolVersion, ProtocolVersion}))) {
    Err = "handshake send failed";
    return Fail(ErrorCategory::Transport);
  }
  Frame F;
  if (C->Sock.recvFrame(F) != Socket::RecvStatus::Ok) {
    Err = "handshake: connection closed";
    return Fail(ErrorCategory::Transport);
  }
  ErrorMsg E;
  if (decode(F, E)) {
    Err = std::string("server refused: ") + statusName(E.St) +
          (E.Detail.empty() ? "" : " (" + E.Detail + ")");
    return Fail(categorize(E.St));
  }
  WelcomeMsg W;
  if (!decode(F, W)) {
    Err = "handshake: unexpected reply frame";
    return Fail(ErrorCategory::Protocol);
  }
  C->Version = W.Version;
  C->Server = W.Server;
  if (Category)
    *Category = ErrorCategory::None;
  return C;
}

bool RemoteClient::build(const BuildRequestMsg &Req, BuildResultMsg &Out,
                         std::string &Err) {
  return startBuild(Req, Err) && awaitResult(Req.RequestId, Out, Err);
}

bool RemoteClient::startBuild(const BuildRequestMsg &Req, std::string &Err) {
  if (!Sock.sendFrame(encode(Req)))
    return failWith(ErrorCategory::Transport,
                    "send failed (request too large or connection lost)", Err);
  LastCategory = ErrorCategory::None;
  return true;
}

bool RemoteClient::awaitResult(uint64_t RequestId, BuildResultMsg &Out,
                               std::string &Err) {
  for (;;) {
    auto It = Buffered.find(RequestId);
    if (It != Buffered.end()) {
      Out = std::move(It->second);
      Buffered.erase(It);
      LastCategory = ErrorCategory::None;
      return true;
    }
    Frame F;
    switch (Sock.recvFrame(F)) {
    case Socket::RecvStatus::Ok:
      break;
    case Socket::RecvStatus::Closed:
    case Socket::RecvStatus::Truncated:
      return failWith(ErrorCategory::Transport,
                      "connection closed before the result arrived", Err);
    default:
      return failWith(ErrorCategory::Transport, "transport error", Err);
    }
    ErrorMsg E;
    if (decode(F, E))
      return failWith(categorize(E.St),
                      std::string("server error: ") + statusName(E.St) +
                          (E.Detail.empty() ? "" : " (" + E.Detail + ")"),
                      Err);
    BuildResultMsg R;
    if (!decode(F, R))
      return failWith(ErrorCategory::Protocol, "undecodable frame from server",
                      Err);
    Buffered[R.RequestId] = std::move(R);
  }
}

bool RemoteClient::cancel(uint64_t RequestId) {
  return Sock.sendFrame(encode(CancelMsg{RequestId}));
}

bool RemoteClient::stats(std::map<std::string, uint64_t> &Out,
                         std::string &Err) {
  if (!Sock.sendFrame(encodeStatsRequest()))
    return failWith(ErrorCategory::Transport, "send failed", Err);
  Frame F;
  if (Sock.recvFrame(F) != Socket::RecvStatus::Ok)
    return failWith(ErrorCategory::Transport, "connection closed", Err);
  StatsResultMsg M;
  if (!decode(F, M))
    return failWith(ErrorCategory::Protocol, "undecodable STATS_RESULT", Err);
  Out.clear();
  for (auto &[Name, Value] : M.Counters)
    Out[Name] = Value;
  LastCategory = ErrorCategory::None;
  return true;
}

bool RemoteClient::ping(std::string &Err) {
  const uint64_t Token = 0x6d32636450494e47; // Arbitrary, echoed back.
  if (!Sock.sendFrame(encodePing(Token)))
    return failWith(ErrorCategory::Transport, "send failed", Err);
  Frame F;
  if (Sock.recvFrame(F) != Socket::RecvStatus::Ok)
    return failWith(ErrorCategory::Transport, "connection closed", Err);
  PingMsg M;
  if (F.Type != MsgType::Pong || !decode(F, M) || M.Token != Token)
    return failWith(ErrorCategory::Protocol, "bad PONG", Err);
  LastCategory = ErrorCategory::None;
  return true;
}

/// splitmix64 finalizer — a cheap, well-mixed pure hash so jitter is a
/// function of (seed, attempt) only and plans replay exactly.
static uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Distinct per process (and stable within one): independent clients must
/// disagree with each other, which is the whole point of jitter.
static uint64_t processJitterSeed() {
  static const uint64_t Seed = [] {
    std::random_device Rd;
    uint64_t S = (static_cast<uint64_t>(Rd()) << 32) ^ Rd();
    return S ^ mix64(static_cast<uint64_t>(::getpid()));
  }();
  return Seed;
}

unsigned m2c::net::backoffSleepMs(const RetryPolicy &Policy,
                                  unsigned Attempt) {
  if (Attempt == 0)
    Attempt = 1;
  uint64_t Base = Policy.InitialBackoffMs ? Policy.InitialBackoffMs : 1;
  for (unsigned I = 1; I < Attempt && Base < (uint64_t(1) << 32); ++I)
    Base *= 2;
  if (Policy.MaxBackoffMs)
    Base = std::min<uint64_t>(Base, Policy.MaxBackoffMs);
  double J = Policy.Jitter;
  if (J <= 0.0)
    return static_cast<unsigned>(Base);
  if (J > 1.0)
    J = 1.0;
  uint64_t Span = static_cast<uint64_t>(static_cast<double>(Base) * J);
  if (Span == 0)
    return static_cast<unsigned>(Base);
  uint64_t Seed =
      Policy.JitterSeed ? Policy.JitterSeed : processJitterSeed();
  uint64_t R = mix64(Seed ^ (uint64_t(Attempt) * 0x632be59bd9b4e019ULL));
  return static_cast<unsigned>(Base - Span + (R % (Span + 1)));
}

RemoteBuildOutcome m2c::net::buildWithRetry(
    const std::function<std::string(unsigned Attempt)> &Address,
    const BuildRequestMsg &Req, const RetryPolicy &Policy,
    BuildResultMsg &Out, const RequestControl *Ctrl) {
  RemoteBuildOutcome Outcome;
  for (unsigned Attempt = 0;; ++Attempt) {
    if (Ctrl && Ctrl->abandoned())
      return Outcome;
    ++Outcome.Attempts;
    ErrorCategory Cat = ErrorCategory::None;
    std::string Err;
    auto Client = RemoteClient::open(Address(Attempt), Err, &Cat);
    if (Client) {
      BuildResultMsg Result;
      if (Client->build(Req, Result, Err)) {
        Cat = categorize(Result.St);
        if (!isRetryable(Cat) || Attempt >= Policy.MaxRetries) {
          Out = std::move(Result);
          Outcome.Delivered = true;
          Outcome.Category = Cat;
          return Outcome;
        }
        // Retryable reply status (overload / drain / internal): fall
        // through to back off and reconnect.
      } else {
        Cat = Client->lastErrorCategory();
      }
    }
    if (!isRetryable(Cat) || Attempt >= Policy.MaxRetries) {
      Outcome.Category = Cat;
      Outcome.Err = std::move(Err);
      return Outcome;
    }
    ++Outcome.Retries[Cat];
    unsigned SleepMs = backoffSleepMs(Policy, Attempt + 1);
    if (Policy.OnBackoff)
      Policy.OnBackoff(Attempt + 1, SleepMs);
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(SleepMs));
  }
}

RemoteBuildOutcome m2c::net::buildWithRetry(const std::string &Address,
                                            const BuildRequestMsg &Req,
                                            const RetryPolicy &Policy,
                                            BuildResultMsg &Out) {
  return buildWithRetry([&Address](unsigned) { return Address; }, Req, Policy,
                        Out, /*Ctrl=*/nullptr);
}
