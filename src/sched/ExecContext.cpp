//===--- ExecContext.cpp - Per-task execution services --------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "sched/ExecContext.h"

#include <cstdio>
#include <cstdlib>

using namespace m2c::sched;

ExecContext::~ExecContext() = default;

namespace {
thread_local ExecContext *CurrentCtx = nullptr;
} // namespace

ExecContext &m2c::sched::ctx() {
  if (CurrentCtx)
    return *CurrentCtx;
  // One fallback context per thread for code running outside any executor
  // (unit tests, ad-hoc phase invocations, a Compilation built on a client
  // thread), created on first use and destroyed at thread exit.  Being
  // function-local keeps the fast path above free of TLS init guards.
  thread_local SequentialContext Fallback;
  return Fallback;
}

ScopedContext::ScopedContext(ExecContext &Ctx) : Saved(CurrentCtx) {
  CurrentCtx = &Ctx;
}

ScopedContext::~ScopedContext() { CurrentCtx = Saved; }

void SequentialContext::charge(CostKind Kind, uint64_t Count) {
  TotalUnits += Model.unitsFor(Kind, Count);
}

void SequentialContext::wait(Event &E) {
  // Sequential execution runs phases in dependency order, so any event a
  // phase waits on must already have occurred.  A violation means the
  // driver sequenced phases incorrectly.
  if (!E.isSignaled()) {
    std::fprintf(stderr,
                 "m2c: sequential wait on unsignaled event '%s'; phases "
                 "were run out of dependency order\n",
                 E.name().c_str());
    std::abort();
  }
  TotalUnits += Model.EventWaitOverhead;
}

void SequentialContext::signal(Event &E) {
  E.markSignaled(TotalUnits);
  TotalUnits += Model.EventSignalOverhead;
}

void SequentialContext::spawn(TaskPtr T) {
  // No executor is behind a sequential context, so a task spawned here
  // would never run; setup code must spawn through its request.
  std::fprintf(stderr,
               "m2c: task '%s' spawned on a sequential context; nothing "
               "would run it\n",
               T->name().c_str());
  std::abort();
}
