//===--- SimulatedExecutor.h - Discrete-event multiprocessor ----*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes the real compiler task graph on P *virtual* processors under a
/// deterministic discrete-event simulation, so the paper's 1..8-processor
/// speedup experiments can be reproduced on a single-core host.
///
/// Mechanism: every started task runs on a dedicated host thread that is
/// baton-controlled by the single simulator thread — at most one host
/// thread executes at any instant, so execution is fully deterministic.
/// Task code accrues virtual-time charges (CostModel) as it performs real
/// compilation work and parks at every scheduling operation (event wait,
/// event signal, task spawn, completion).  Parked operations are applied
/// in global virtual-time order; processor assignment follows the same
/// Supervisor policy as the threaded executor.
///
/// Approximation: between two scheduling operations a task's reads of
/// shared structures (e.g. probing another stream's symbol table) use the
/// host-order state rather than the exact virtual-time state.  The DKY
/// algorithms are insensitive to interleaving (a miss on an incomplete
/// table always re-checks after completion), so compilation results are
/// exact; only the fine-grained timing of individual probes is
/// approximate.  Timing results are deterministic for a given input.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_SCHED_SIMULATEDEXECUTOR_H
#define M2C_SCHED_SIMULATEDEXECUTOR_H

#include "sched/Executor.h"
#include "sched/ExecContext.h"
#include "sched/Supervisor.h"

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

namespace m2c::sched {

/// Deterministic virtual-time executor over P simulated processors.
class SimulatedExecutor : public Executor {
public:
  explicit SimulatedExecutor(unsigned Processors,
                             CostModel Model = CostModel());
  ~SimulatedExecutor() override;

  void spawn(TaskPtr T) override;

  /// The executor serves one compile, so its request is the whole
  /// simulation: the tag is null, awaiting is run() and returns the
  /// makespan, and the request's counters are the executor's.
  std::shared_ptr<void> openRequest(ActivitySink *S = nullptr) override {
    Sink = S;
    return nullptr;
  }
  uint64_t awaitRequest(const std::shared_ptr<void> &) override {
    run();
    return Makespan;
  }
  std::map<std::string, uint64_t>
  closeRequest(const std::shared_ptr<void> &) override {
    return Stats.snapshot();
  }

  /// Executes spawned tasks until none remain; aborts with a report if
  /// they deadlock.  The paper benches drive the simulator directly.
  void run();

  /// Makespan of run() in virtual-time units.
  uint64_t elapsedUnits() const { return Makespan; }

private:
  /// What a parked task is asking the simulator to do.
  enum class OpKind : uint8_t { Wait, Signal, Spawn, Finish };

  /// Bookkeeping for one started task and its baton-controlled host
  /// thread.
  struct SimTask {
    TaskPtr T;
    std::thread Host;

    // Baton handshake (guarded by BatonM).
    std::mutex BatonM;
    std::condition_variable BatonCv;
    bool Go = false;
    bool Parked = false;
    bool Finished = false;

    // Parked-operation payload; written by the task thread before it
    // parks, read by the simulator afterwards (ordered by the handshake).
    OpKind Op = OpKind::Finish;
    Event *OpEvent = nullptr;
    TaskPtr OpSpawn;

    // Virtual-time state, owned by the simulator thread except for
    // PendingUnits which the task thread accumulates while running.
    uint64_t PendingUnits = 0;
    uint64_t LocalTime = 0;
    unsigned BusyAtResume = 1;
    unsigned Proc = 0;
    uint64_t IntervalStart = 0;
    bool Blocked = false;
  };

  /// ExecContext installed on each task host thread.
  class SimContext final : public ExecContext {
  public:
    SimContext(SimulatedExecutor &Exec, SimTask &ST) : Exec(Exec), ST(ST) {}
    void charge(CostKind Kind, uint64_t Count) override {
      ST.PendingUnits += Exec.Model.unitsFor(Kind, Count);
    }
    void wait(Event &E) override;
    void signal(Event &E) override;
    void spawn(TaskPtr T) override;
    bool isTaskContext() const override { return true; }

  private:
    SimulatedExecutor &Exec;
    SimTask &ST;
  };

  struct PendingOp {
    uint64_t Time;
    uint64_t Seq;
    SimTask *ST;
  };
  struct OpOrder {
    bool operator()(const PendingOp &A, const PendingOp &B) const {
      if (A.Time != B.Time)
        return A.Time > B.Time; // min-heap
      return A.Seq > B.Seq;
    }
  };

  /// Parks the calling task thread with the op already stored in \p ST,
  /// and blocks until the simulator hands the baton back.
  void park(SimTask &ST);

  /// Lets \p ST run until its next op (or until it finishes) and pushes
  /// the resulting PendingOp.  Simulator thread only.
  void stepTask(SimTask &ST);

  /// Folds accumulated charges into LocalTime with bus-contention scaling.
  void flushCharges(SimTask &ST);

  void applyOp(SimTask &ST);
  void applyWait(SimTask &ST, Event &E);
  void applySignal(SimTask &ST, Event &E);
  void applyFinish(SimTask &ST);

  /// Starts/resumes tasks on free processors at time \p Now until either
  /// no processor is free or nothing is runnable.
  void matchAssignments(uint64_t Now);

  void recordInterval(SimTask &ST, uint64_t End);
  void wakeWaiters(Event &E, uint64_t Now);

  const unsigned Processors;
  const CostModel Model;
  ActivitySink *Sink = nullptr; ///< The request's trace sink (may be null).

  // Pre-run spawns (thread-safe); drained into Sup by run().
  std::mutex SpawnM;
  std::deque<TaskPtr> PreRunSpawns;
  bool Running = false;

  // Simulator-thread-only state.
  Supervisor Sup;
  std::priority_queue<PendingOp, std::vector<PendingOp>, OpOrder> Heap;
  uint64_t NextSeq = 0;
  std::vector<std::unique_ptr<SimTask>> AllTasks;
  std::deque<SimTask *> ResumeQueue; // handled waiters awaiting a processor
  std::unordered_map<Event *, std::vector<SimTask *>> BarrierWaiters;
  std::unordered_map<Event *, std::vector<SimTask *>> HandledWaiters;
  std::vector<unsigned> FreeProcs;
  unsigned BusyCount = 0;
  uint64_t CurTime = 0;
  uint64_t Makespan = 0;
  uint64_t LiveTasks = 0;
};

} // namespace m2c::sched

#endif // M2C_SCHED_SIMULATEDEXECUTOR_H
