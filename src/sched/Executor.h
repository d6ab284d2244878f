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
/// policy and the event semantics of section 2.3.  A compile is a
/// *request*: opened, its tasks spawned, awaited, closed.  A
/// SimulatedExecutor serves one compile, so its request is simply run();
/// a ThreadedExecutor's workers outlive requests, and every threaded
/// compile is a request on a process-lifetime one (ThreadedExecutor.h).
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

/// Common interface of the threaded and simulated executors.
class Executor {
public:
  virtual ~Executor();

  /// Submits \p T.  May be called before run() and from inside running
  /// tasks (the Splitter and Importer start new streams this way).
  virtual void spawn(TaskPtr T) = 0;

  /// Executes spawned tasks until none remain.  Returns when the task set
  /// is quiescent; aborts with a report if tasks deadlock.
  virtual void run() = 0;

  /// Total elapsed time of run(): virtual-time units for the simulated
  /// executor, wall-clock nanoseconds for the threaded executor.
  virtual uint64_t elapsedUnits() const = 0;

  /// Number of processors this executor schedules onto.
  virtual unsigned processorCount() const = 0;

  /// Opens a request and returns the tag to stamp on its tasks
  /// (Task::setRequestTag).  \p S receives the request's activity
  /// intervals.  These defaults serve an executor that runs one compile:
  /// the tag is null, awaiting is run(), and the request's counters are
  /// the executor's.
  virtual std::shared_ptr<void> openRequest(ActivitySink *S = nullptr) {
    setActivitySink(S);
    return nullptr;
  }

  /// Blocks until every task of the request has completed and returns
  /// its elapsed time, in elapsedUnits()' scale.
  virtual uint64_t awaitRequest(const std::shared_ptr<void> &) {
    run();
    return elapsedUnits();
  }

  /// Closes an awaited request and returns its scheduler counters.
  virtual std::map<std::string, uint64_t>
  closeRequest(const std::shared_ptr<void> &) {
    return Stats.snapshot();
  }

  /// Scheduler statistics (task counts, waits, boost counts, ...) of
  /// every run() and closed request.
  StatisticSet &stats() { return Stats; }
  const StatisticSet &stats() const { return Stats; }

  /// Installs an activity-trace sink (may be null).  Must be set before
  /// run().
  void setActivitySink(ActivitySink *S) { Sink = S; }

protected:
  StatisticSet Stats;
  ActivitySink *Sink = nullptr;
};

} // namespace m2c::sched

#endif // M2C_SCHED_EXECUTOR_H
