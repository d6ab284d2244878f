//===--- ClientPool.cpp - persistent upstream connections -----------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "net/ClientPool.h"

using namespace m2c;
using namespace m2c::net;

std::unique_ptr<RemoteClient> ClientPool::acquire(std::string &Err,
                                                  ErrorCategory *Category) {
  {
    std::lock_guard<std::mutex> Lock(M);
    if (!Idle.empty()) {
      auto Client = std::move(Idle.back());
      Idle.pop_back();
      Reused.fetch_add(1, std::memory_order_relaxed);
      if (Category)
        *Category = ErrorCategory::None;
      return Client;
    }
  }
  auto Client = RemoteClient::open(Addr, Err, Category);
  if (Client)
    Opened.fetch_add(1, std::memory_order_relaxed);
  return Client;
}

void ClientPool::release(std::unique_ptr<RemoteClient> Client) {
  if (!Client)
    return;
  std::lock_guard<std::mutex> Lock(M);
  if (Idle.size() < MaxIdle)
    Idle.push_back(std::move(Client));
  // Else: drop — closing the surplus connection here is fine, the
  // daemon's reader thread just sees a clean EOF.
}

void ClientPool::clear() {
  std::vector<std::unique_ptr<RemoteClient>> Doomed;
  {
    std::lock_guard<std::mutex> Lock(M);
    Doomed.swap(Idle);
  }
  // Destroyed outside the lock: closing sockets can block briefly.
}
