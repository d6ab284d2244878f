//===--- ClientPool.h - persistent upstream connections ---------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe pool of persistent RemoteClient connections to ONE
/// upstream address.  RemoteClient itself is single-threaded by design
/// (one connection, one conversation); the farm coordinator relays many
/// concurrent BUILDs to the same worker, so it checks a connection out
/// of the pool per relay and returns it when the exchange completed
/// cleanly.  Connections that saw a transport or protocol failure are
/// dropped, not returned — a half-consumed conversation can never be
/// handed to the next relay.  clear() empties the idle set, which the
/// farm calls after respawning a worker so no relay inherits a socket
/// into the dead incarnation.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_NET_CLIENTPOOL_H
#define M2C_NET_CLIENTPOOL_H

#include "net/RemoteClient.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace m2c::net {

class ClientPool {
public:
  /// \p MaxIdle bounds the parked-connection set; surplus returns are
  /// simply closed.
  explicit ClientPool(std::string Address, size_t MaxIdle = 8)
      : Addr(std::move(Address)), MaxIdle(MaxIdle) {}
  ClientPool(const ClientPool &) = delete;
  ClientPool &operator=(const ClientPool &) = delete;

  const std::string &address() const { return Addr; }

  /// An open, handshaken connection: a parked one when available, a
  /// fresh one otherwise.  Returns nullptr with \p Err / \p Category set
  /// when connecting fails.
  std::unique_ptr<RemoteClient> acquire(std::string &Err,
                                        ErrorCategory *Category = nullptr);

  /// Parks a connection whose last exchange completed cleanly.  Callers
  /// must NOT release a client after a failed send/recv; destroy it.
  void release(std::unique_ptr<RemoteClient> Client);

  /// Closes every parked connection (the upstream restarted; their file
  /// descriptors point at a dead incarnation).  In-flight checked-out
  /// clients are unaffected — their next exchange fails and the relay's
  /// retry logic handles it.
  void clear();

  uint64_t opened() const { return Opened.load(std::memory_order_relaxed); }
  uint64_t reused() const { return Reused.load(std::memory_order_relaxed); }

private:
  const std::string Addr;
  const size_t MaxIdle;
  mutable std::mutex M;
  std::vector<std::unique_ptr<RemoteClient>> Idle;
  std::atomic<uint64_t> Opened{0};
  std::atomic<uint64_t> Reused{0};
};

} // namespace m2c::net

#endif // M2C_NET_CLIENTPOOL_H
