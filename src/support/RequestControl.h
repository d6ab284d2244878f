//===--- RequestControl.h - Cooperative request abandonment -----*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one abandonment flag of one request.  A server (net::FrameServer)
/// that answers a client early — a CANCEL, an expired deadline — sets it;
/// the machinery behind the request reads it at its natural pause points:
/// BuildService::submit after queue admission, after discovery and after
/// module locking, and a farm relay before it fails over.  Work past the
/// last checkpoint runs to completion and its result is discarded;
/// mid-build preemption is deliberately not offered, because a half-run
/// session would have to unwind shared interface state.  See DESIGN.md
/// §11.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_SUPPORT_REQUESTCONTROL_H
#define M2C_SUPPORT_REQUESTCONTROL_H

#include <atomic>

namespace m2c {

class RequestControl {
public:
  void abandon() { Abandoned.store(true, std::memory_order_relaxed); }
  bool abandoned() const { return Abandoned.load(std::memory_order_relaxed); }

private:
  std::atomic<bool> Abandoned{false};
};

} // namespace m2c

#endif // M2C_SUPPORT_REQUESTCONTROL_H
