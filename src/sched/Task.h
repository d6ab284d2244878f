//===--- Task.h - Units of compiler parallelism (section 2.3) --*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "The task is the atomic unit of parallelism in our compilers."  Each
/// stream is partitioned into tasks corresponding to the traditional
/// compilation phases; the supervisor assigns tasks to workers in priority
/// order (section 2.3.4).
///
//===----------------------------------------------------------------------===//

#ifndef M2C_SCHED_TASK_H
#define M2C_SCHED_TASK_H

#include "sched/Event.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace m2c::sched {

/// Supervisor priority classes, highest priority first.  This is exactly
/// the queue-search order of the Skeptical Handling compiler in section
/// 2.3.4, with Merge appended (the paper notes merge tasks are tiny and
/// can run at any time; we run them last).
enum class TaskClass : uint8_t {
  Lexor = 0,
  Splitter,
  Importer,
  DefModParserDecl,
  ModuleParserDecl,
  ProcParserDecl,
  LongStmtCodeGen,
  ShortStmtCodeGen,
  Merge,
  /// VM tier-1 promotion: translates a hot procedure into threaded code
  /// while the interpreter keeps running it.  Lowest priority — promotion
  /// is a throughput optimization and must never delay compilation tasks.
  TierPromote,
};

/// Number of distinct TaskClass values.
constexpr unsigned NumTaskClasses =
    static_cast<unsigned>(TaskClass::TierPromote) + 1;

/// A schedulable unit of compiler work.
///
/// A task owns a body closure, a priority class, an optional weight (used
/// to order long statement/code-generation tasks before short ones) and a
/// list of avoided-event prerequisites that must all be signaled before
/// the supervisor will consider the task ready.
class Task {
public:
  using BodyFn = std::function<void()>;

  Task(std::string Name, TaskClass Class, BodyFn Body)
      : Name(std::move(Name)), Class(Class), Body(std::move(Body)) {}
  Task(const Task &) = delete;
  Task &operator=(const Task &) = delete;

  const std::string &name() const { return Name; }
  TaskClass taskClass() const { return Class; }

  /// Estimated size of the task's work, used only to order tasks within
  /// the LongStmtCodeGen class ("code is generated for long procedures
  /// before short ones to avoid a long sequential tail").  Larger runs
  /// first.
  int64_t weight() const { return Weight; }
  void setWeight(int64_t W) { Weight = W; }

  /// Registers an avoided-event prerequisite.  Must be called before the
  /// task is spawned.
  void addPrerequisite(EventPtr E) { Prereqs.push_back(std::move(E)); }
  const std::vector<EventPtr> &prerequisites() const { return Prereqs; }

  /// Priority boost applied when some blocked task is waiting for this
  /// task to signal an event (resolver preference, section 2.3.4).
  /// boost() returns true only for the call that performed the
  /// transition, so callers can keep exact boosted-task accounting.
  bool isBoosted() const { return Boosted.load(std::memory_order_relaxed); }
  bool boost() {
    bool Expected = false;
    return Boosted.compare_exchange_strong(Expected, true,
                                           std::memory_order_acq_rel);
  }

  /// Runs the task body.  Called exactly once, by an executor.
  void invoke() { Body(); }

  /// True once the body has run to completion.
  bool isDone() const { return Done.load(std::memory_order_acquire); }
  void markDone() { Done.store(true, std::memory_order_release); }

  /// True once an executor has begun executing the body.
  bool isStarted() const { return Started.load(std::memory_order_acquire); }
  bool markStarted() {
    bool Expected = false;
    return Started.compare_exchange_strong(Expected, true,
                                           std::memory_order_acq_rel);
  }

  /// Opaque handle of the request this task belongs to
  /// (Executor::openRequest; null on a simulated executor, whose one
  /// request is the whole simulation).  Set before the task is spawned —
  /// either by the submitting TaskSpawner or inherited from the spawning
  /// task by the executor.  A threaded executor aborts on a task spawned
  /// without one.
  const std::shared_ptr<void> &requestTag() const { return Request; }
  void setRequestTag(std::shared_ptr<void> Tag) { Request = std::move(Tag); }

  /// Fair-share bookkeeping (tagged tasks): a task charged to its
  /// request's concurrency-slot count at admission time holds the slot
  /// until it first blocks or completes, whichever comes first.
  /// markSlotHeld() records the charge (before the task can run, so it
  /// never races the release); markSlotReleased() returns true only for
  /// the call that performed the release, so the executor decrements each
  /// request's slot count exactly once per counted task.
  bool holdsSlot() const { return SlotHeld.load(std::memory_order_acquire); }
  void markSlotHeld() { SlotHeld.store(true, std::memory_order_release); }
  bool markSlotReleased() {
    bool Expected = false;
    return SlotReleased.compare_exchange_strong(Expected, true,
                                                std::memory_order_acq_rel);
  }

private:
  const std::string Name;
  const TaskClass Class;
  BodyFn Body;
  int64_t Weight = 0;
  std::vector<EventPtr> Prereqs;
  std::shared_ptr<void> Request;
  std::atomic<bool> Boosted{false};
  std::atomic<bool> Started{false};
  std::atomic<bool> Done{false};
  std::atomic<bool> SlotHeld{false};
  std::atomic<bool> SlotReleased{false};
};

using TaskPtr = std::shared_ptr<Task>;

/// Convenience factory.
inline TaskPtr makeTask(std::string Name, TaskClass Class, Task::BodyFn Body) {
  return std::make_shared<Task>(std::move(Name), Class, std::move(Body));
}

} // namespace m2c::sched

#endif // M2C_SCHED_TASK_H
