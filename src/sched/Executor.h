//===--- Executor.h - Abstract compilation executor ------------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An Executor runs a dynamically growing set of tasks on a fixed number
/// of (real or simulated) processors, applying the Supervisor scheduling
/// policy and the event semantics of section 2.3.  Every task belongs to
/// a *request*: opened, its tasks spawned, awaited, closed.  A
/// SimulatedExecutor serves one compile, so its request is the whole
/// simulation; a ThreadedExecutor's workers outlive requests, and every
/// threaded compile is a request on a process-lifetime one
/// (ThreadedExecutor.h).
///
//===----------------------------------------------------------------------===//

#ifndef M2C_SCHED_EXECUTOR_H
#define M2C_SCHED_EXECUTOR_H

#include "sched/ActivitySink.h"
#include "sched/CostModel.h"
#include "sched/Task.h"
#include "support/Statistic.h"

#include <map>
#include <memory>
#include <string>

namespace m2c::sched {

/// Common interface of the threaded and simulated executors: spawning
/// plus the one request lifecycle.
class Executor {
public:
  virtual ~Executor();

  /// Submits \p T.  May be called while a request is being set up and
  /// from inside running tasks (the Splitter and Importer start new
  /// streams this way).
  virtual void spawn(TaskPtr T) = 0;

  /// Opens a request and returns the tag to stamp on its tasks
  /// (Task::setRequestTag).  \p S receives the request's activity
  /// intervals.
  virtual std::shared_ptr<void> openRequest(ActivitySink *S = nullptr) = 0;

  /// Blocks until every task of the request has completed and returns
  /// its elapsed time: virtual-time units for the simulated executor,
  /// wall-clock nanoseconds since the open for the threaded one.  Aborts
  /// with a report if tasks deadlock.
  virtual uint64_t awaitRequest(const std::shared_ptr<void> &Tag) = 0;

  /// Closes an awaited request and returns its scheduler counters.
  virtual std::map<std::string, uint64_t>
  closeRequest(const std::shared_ptr<void> &Tag) = 0;

  /// Scheduler statistics (task counts, waits, boost counts, ...) summed
  /// over the executor's requests.
  StatisticSet &stats() { return Stats; }
  const StatisticSet &stats() const { return Stats; }

protected:
  StatisticSet Stats;
};

} // namespace m2c::sched

#endif // M2C_SCHED_EXECUTOR_H
