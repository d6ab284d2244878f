//===--- ExecContext.h - Per-task execution services ------------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase code (lexing, parsing, semantic analysis, code generation) is
/// written once and runs under three regimes: the threaded executor, the
/// discrete-event simulated executor, and a plain sequential context used
/// by the baseline compiler and by unit tests.  ExecContext is the
/// regime-independent interface; the current context is installed
/// thread-locally so deeply nested phase code can reach it without
/// plumbing.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_SCHED_EXECCONTEXT_H
#define M2C_SCHED_EXECCONTEXT_H

#include "sched/CostModel.h"
#include "sched/Event.h"
#include "sched/Task.h"

#include <cstdint>
#include <deque>

namespace m2c::sched {

/// Services an executor provides to running task code.
class ExecContext {
public:
  virtual ~ExecContext();

  /// Reports \p Count occurrences of \p Kind worth of completed work.
  virtual void charge(CostKind Kind, uint64_t Count = 1) = 0;

  /// Blocks the calling task until \p E is signaled, applying the
  /// event-kind-specific scheduling policy (section 2.3.3).
  virtual void wait(Event &E) = 0;

  /// Signals \p E, waking waiters and releasing avoided-event gated tasks.
  virtual void signal(Event &E) = 0;

  /// Submits \p T for execution once its prerequisites are signaled.
  virtual void spawn(TaskPtr T) = 0;

  /// The cost model in effect.
  virtual const CostModel &costModel() const = 0;

  /// True when this context belongs to a task running on an executor (as
  /// opposed to a plain SequentialContext on an ordinary thread).  Spawn
  /// routing uses this: submissions from inside executor tasks go through
  /// the context so the executor can apply its scheduling policy, while
  /// submissions from setup and request threads go to the executor
  /// directly.
  virtual bool isTaskContext() const { return false; }
};

/// Returns the context installed on this thread.  Never null: when no
/// executor installed one, a thread-local SequentialContext is returned.
ExecContext &ctx();

/// RAII installer for the thread-local current context.
class ScopedContext {
public:
  explicit ScopedContext(ExecContext &Ctx);
  ~ScopedContext();
  ScopedContext(const ScopedContext &) = delete;
  ScopedContext &operator=(const ScopedContext &) = delete;

private:
  ExecContext *Saved;
};

/// Context for strictly sequential execution (baseline compiler, unit
/// tests).  Work charges accumulate into a running total of virtual time;
/// waits assert that the awaited event has already been signaled, which is
/// guaranteed when phases run in dependency order; spawned tasks are
/// queued and run by drain() in spawn order.
class SequentialContext : public ExecContext {
public:
  SequentialContext() = default;
  explicit SequentialContext(CostModel Model) : Model(Model) {}

  void charge(CostKind Kind, uint64_t Count = 1) override;
  void wait(Event &E) override;
  void signal(Event &E) override;
  void spawn(TaskPtr T) override;
  const CostModel &costModel() const override { return Model; }

  /// Runs queued tasks (in spawn order, honoring prerequisites) until none
  /// remain.  Aborts if progress stops with tasks still pending.
  void drain();

  /// Total virtual time units charged so far.
  uint64_t elapsedUnits() const { return TotalUnits; }

  /// Resets the accumulated virtual time.
  void resetElapsed() { TotalUnits = 0; }

private:
  CostModel Model;
  uint64_t TotalUnits = 0;
  std::deque<TaskPtr> Pending;
};

} // namespace m2c::sched

#endif // M2C_SCHED_EXECCONTEXT_H
