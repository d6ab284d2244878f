//===--- RemoteClient.h - client side of the m2cd protocol ------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client side of docs/PROTOCOL.md: connect + HELLO/WELCOME, then
/// synchronous or pipelined builds, cancellation, stats and ping.  Used
/// by `m2c_cli -remote`, DaemonTest, the farm and m2cbench.  One
/// RemoteClient is one connection and is NOT thread-safe; concurrency
/// comes from opening several clients (the daemon multiplexes them
/// server-side).
///
//===----------------------------------------------------------------------===//

#ifndef M2C_NET_REMOTECLIENT_H
#define M2C_NET_REMOTECLIENT_H

#include "net/Protocol.h"
#include "net/Socket.h"
#include "support/RequestControl.h"

#include <functional>
#include <map>
#include <memory>
#include <string>

namespace m2c::net {

/// What went wrong, coarsely — drives retry policy and CLI exit codes.
/// Errors before a BUILD_RESULT arrives (connect, transport, protocol) are
/// set by the client methods; reply statuses map through categorize().
enum class ErrorCategory : uint8_t {
  None,           ///< No failure.
  ConnectRefused, ///< connect(2)/resolve failed — daemon absent or down.
  Transport,      ///< Connection lost mid-exchange (send/recv failure).
  Protocol,       ///< Undecodable or unexpected frame; version refusal.
  Overload,       ///< Daemon shed the request (RejectedOverload).
  Draining,       ///< Daemon is shutting down.
  Deadline,       ///< Request deadline expired server-side.
  Cancelled,      ///< Request was cancelled.
  BuildFailed,    ///< Compile errors — a *successful* protocol exchange.
  Internal,       ///< Daemon-side internal error (includes injected faults).
};

const char *errorCategoryName(ErrorCategory C);

/// Maps a BUILD_RESULT / ERROR status to its client-facing category.
ErrorCategory categorize(Status St);

/// True for categories worth a reconnect-and-retry: transient availability
/// failures.  Protocol errors (a bug), deadline expiry (the time budget is
/// spent), cancellation and genuine compile failures are not retried.
bool isRetryable(ErrorCategory C);

class RemoteClient {
public:
  /// Connects to \p Address and performs the HELLO/WELCOME handshake.
  /// "tcp:HOST:PORT" selects TCP; anything else is a unix-socket path.
  /// Returns nullptr with \p Err set on connect, transport or version
  /// failure; \p Category (optional) receives the failure class.
  static std::unique_ptr<RemoteClient> open(const std::string &Address,
                                            std::string &Err,
                                            ErrorCategory *Category = nullptr);

  /// The version the server chose in WELCOME.
  uint32_t version() const { return Version; }

  /// The server identification string from WELCOME ("m2cd/1", or
  /// "m2cd/1 worker" for a farm worker — PROTOCOL.md §14).
  const std::string &serverName() const { return Server; }

  /// Fresh request id, unique within this connection.
  uint64_t nextRequestId() { return NextId++; }

  /// Sends BUILD and blocks for its BUILD_RESULT.  False only on
  /// transport/protocol failure (\p Err set); compile errors, shed,
  /// deadline etc. are carried in Out.St.
  bool build(const BuildRequestMsg &Req, BuildResultMsg &Out,
             std::string &Err);

  /// Pipelined form: sends the BUILD without waiting.
  bool startBuild(const BuildRequestMsg &Req, std::string &Err);

  /// Blocks until the result for \p RequestId arrives.  Results for
  /// *other* in-flight ids that arrive first are buffered and returned
  /// by their own awaitResult calls.
  bool awaitResult(uint64_t RequestId, BuildResultMsg &Out, std::string &Err);

  /// Sends CANCEL for \p RequestId (fire-and-forget; PROTOCOL.md §7 —
  /// the only observable effect is the pending result's status).
  bool cancel(uint64_t RequestId);

  /// Fetches the daemon's merged counters.
  bool stats(std::map<std::string, uint64_t> &Out, std::string &Err);

  /// Round-trips a PING.
  bool ping(std::string &Err);

  /// Category of the most recent failure (None after a success).  Only
  /// covers pre-result failures — a delivered BUILD_RESULT's status is
  /// classified by categorize().
  ErrorCategory lastErrorCategory() const { return LastCategory; }

private:
  explicit RemoteClient(Socket S) : Sock(std::move(S)) {}

  bool failWith(ErrorCategory C, std::string Message, std::string &Err) {
    LastCategory = C;
    Err = std::move(Message);
    return false;
  }

  Socket Sock;
  uint32_t Version = 0;
  std::string Server;
  uint64_t NextId = 1;
  ErrorCategory LastCategory = ErrorCategory::None;
  std::map<uint64_t, BuildResultMsg> Buffered; ///< Out-of-order results.
};

/// Bounded exponential backoff for buildWithRetry, with equal-jitter
/// de-synchronization: when many clients back off from the same event (a
/// worker died; the farm respawns it), exact doubling would land every
/// retry on the daemon in the same instant.  Each sleep is therefore
/// drawn uniformly from [Backoff*(1-Jitter), Backoff].
struct RetryPolicy {
  unsigned MaxRetries = 0;         ///< Retries *after* the first attempt.
  unsigned InitialBackoffMs = 100; ///< Doubled per retry...
  unsigned MaxBackoffMs = 2000;    ///< ...up to this cap.
  /// Fraction of each backoff that is randomized.  0 restores the exact
  /// doubling schedule; 1 draws from [0, Backoff].
  double Jitter = 0.5;
  /// Seed of the jitter stream.  0 (the default) uses a distinct
  /// per-process random seed — what production wants, since the point is
  /// that independent clients disagree.  Tests pin a nonzero seed and
  /// get a fully deterministic schedule.
  uint64_t JitterSeed = 0;
  /// Test/logging hook: called instead of sleeping when set.
  std::function<void(unsigned Attempt, unsigned SleepMs)> OnBackoff;
};

/// The sleep before retry number \p Attempt (1-based) under \p Policy:
/// doubling from InitialBackoffMs, capped at MaxBackoffMs, jittered per
/// the policy.  Pure — a nonzero JitterSeed yields the same schedule on
/// every call, which is what FaultTest pins down.
unsigned backoffSleepMs(const RetryPolicy &Policy, unsigned Attempt);

/// Outcome of buildWithRetry.
struct RemoteBuildOutcome {
  bool Delivered = false;  ///< A BUILD_RESULT arrived (any status).
  unsigned Attempts = 0;   ///< Connections tried.
  ErrorCategory Category = ErrorCategory::None; ///< Final classification.
  std::string Err;         ///< Transport/protocol detail when !Delivered.
  /// Retries broken down by the category that caused each backoff
  /// (Attempts == 1 + sum of these).  The CLI prints them so operators
  /// can tell "slow because overloaded" from "slow because flaky".
  std::map<ErrorCategory, unsigned> Retries;
};

/// Sends \p Req with reconnect-and-retry: each attempt opens a fresh
/// connection, and transient failures (connect refused, transport loss,
/// overload shed, drain, daemon-internal errors) are retried with bounded
/// exponential backoff.  Protocol errors, deadline expiry, cancellation and
/// compile failures are returned immediately.
///
/// Retrying a BUILD is safe because BUILD is idempotent: the request names
/// its inputs completely (roots + pushed file contents), compilation output
/// is a pure function of those inputs (byte-identical across runs by the
/// service's own identity tests), and cache writes are content-addressed
/// temp+rename upserts — a replay can only overwrite an entry with the same
/// bytes or recompute the same artifacts.  The only side effect of a
/// duplicate BUILD is wasted work, never divergent state.  FaultTest
/// RetriedBuildIsIdempotent locks this in.
RemoteBuildOutcome buildWithRetry(const std::string &Address,
                                  const BuildRequestMsg &Req,
                                  const RetryPolicy &Policy,
                                  BuildResultMsg &Out);

/// As above, but the target address is chosen per attempt (0-based): the
/// farm coordinator retries a killed worker's in-flight BUILDs on a
/// sibling by rotating the provider over its healthy upstreams.  BUILD
/// idempotence (above) is what makes cross-worker replay safe.  Once a
/// non-null \p Ctrl is abandoned (the client was answered already), it
/// returns undelivered before making another attempt.
RemoteBuildOutcome
buildWithRetry(const std::function<std::string(unsigned Attempt)> &Address,
               const BuildRequestMsg &Req, const RetryPolicy &Policy,
               BuildResultMsg &Out, const RequestControl *Ctrl);

} // namespace m2c::net

#endif // M2C_NET_REMOTECLIENT_H
