//===--- ThreadedExecutor.h - Real-thread Supervisors executor -*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes compiler tasks on real OS threads with at most P tasks
/// running unblocked at any instant — the paper's "Supervisors" scheme
/// (one Worker per hardware processor) realized with a concurrency-token
/// pool.  When a task blocks on a handled event its token is released so
/// another task can use the processor (the modern equivalent of the
/// paper's run-another-task-nested workaround for Topaz threads); barrier
/// waits hold the token, exactly as the paper's workers "simply wait".
///
/// Scheduling state is sharded for scalability (see DESIGN.md section 9):
/// ready tasks live in per-shard class-priority deques with work
/// stealing; producer-class tasks (Lexor/Splitter/Importer — the tasks
/// barrier waiters depend on) go to one global queue every pop consults
/// first, preserving the producers-run-before-consumers invariant that
/// makes barrier waits deadlock-free.  Avoided-event gating runs through
/// the shared Supervisor under a dedicated gate lock that signals bypass
/// (Dekker-paired Event::MayGate flag) unless the event actually gates a
/// task.  Blocked tasks park on their event's own mutex/condvar, so
/// signal/wait traffic on different events never contends.
///
/// The executor has one lifecycle, like the paper's Topaz workers: the
/// workers start with the first task of the first request and live until
/// the destructor, so a request that spawns nothing starts no thread.
/// Every task belongs to a *request*: openRequest() hands out the tag a
/// compile stamps on its tasks (children inherit it), and a task spawned
/// without one aborts.  A request carries its own scheduler counters,
/// activity sink and clock, so compiles sharing one executor each see
/// only their own tasks, and while several requests are open
/// per-request fair-share admission caps how many of each one's tasks
/// run at once (see DESIGN.md section 10).
/// Every threaded compile at P is a request on shared(P); the build
/// service and the VM tier manager own their executors.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_SCHED_THREADEDEXECUTOR_H
#define M2C_SCHED_THREADEDEXECUTOR_H

#include "sched/Executor.h"
#include "sched/ExecContext.h"
#include "sched/Supervisor.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace m2c::sched {

/// Real-thread executor limited to \p Processors concurrently unblocked
/// tasks.
class ThreadedExecutor : public Executor {
public:
  explicit ThreadedExecutor(unsigned Processors);
  /// Joins every worker.  Every request must have been awaited.
  ~ThreadedExecutor() override;

  /// The process-lifetime executor for \p Processors, created on first
  /// use and never destroyed: its workers park between compiles and die
  /// with the process.  A forked child inherits the executor but not its
  /// threads, so it must exec or _exit without compiling.
  static ThreadedExecutor &shared(unsigned Processors);

  /// Submits a task of an open request; a task without a request tag
  /// aborts with a message naming it.
  void spawn(TaskPtr T) override;

  /// Opens a request and returns the opaque tag to stamp on the
  /// request's tasks (Task::setRequestTag); its first task starts the
  /// workers if they are not running yet.  Tasks spawned from inside a
  /// tagged task inherit its tag.  \p Sink receives the request's
  /// activity intervals in nanoseconds since this call.  While more than
  /// one request is open, each request's concurrently *running* tasks are
  /// capped at its fair share of the processors (producer-class and
  /// interface tasks, and boosted resolvers, bypass the cap — they are
  /// what other tasks block on).
  std::shared_ptr<void> openRequest(ActivitySink *Sink = nullptr) override;

  /// Blocks until every task carrying \p Tag has completed and returns
  /// the nanoseconds since the request opened.  Call only after the
  /// request's initial tasks were spawned; tasks spawned from running
  /// tasks are counted before their spawner completes, so the count
  /// cannot dip to zero mid-graph.  Aborts with a report when no task of
  /// the executor can run while every request with unfinished tasks is
  /// being awaited (a request still in setup may yet unblock them).
  uint64_t awaitRequest(const std::shared_ptr<void> &Tag) override;

  /// Closes a request opened with openRequest(), recomputes the fair
  /// share of the remaining ones, and folds the request's scheduler
  /// counters into stats().  Returns those counters.
  std::map<std::string, uint64_t>
  closeRequest(const std::shared_ptr<void> &Tag) override;

private:
  /// One ready-task shard: class-priority FIFO deques under a private
  /// lock.  Workers push spawned tasks to their home shard and steal from
  /// victim shards when their own is empty.
  struct Shard {
    std::mutex M;
    std::deque<TaskPtr> ByClass[NumTaskClasses];
    /// Tasks queued in this shard; lets pops and steals skip empty shards
    /// without touching their locks.
    std::atomic<size_t> Count{0};
  };

  /// Scheduler counters a request accumulates (named in the .cpp).
  enum Counter : unsigned {
    TasksTotal,
    TasksStarted,
    EventsSignaled,
    ReleasedByEvent,
    BarrierWaits,
    BarrierNs,
    HandledWaits,
    Boosts,
    Steals,
    WorkersSpawned,
    Deferred,
    Opened,
    Closed,
    NumCounters
  };

  /// One request's accounting.  Handed to clients as an opaque
  /// shared_ptr<void> (openRequest) and stamped on the request's tasks.
  struct RequestState {
    /// Relaxed hot counters, folded into stats() when the request closes.
    std::atomic<uint64_t> Ct[NumCounters] = {};
    void count(Counter C, uint64_t N = 1) {
      Ct[C].fetch_add(N, std::memory_order_relaxed);
    }
    ActivitySink *Sink = nullptr;
    uint64_t OpenNs = 0; ///< nowNs() at open; intervals are relative to it.
    /// Tasks carrying this tag that were spawned but have not finished.
    std::atomic<uint64_t> Incomplete{0};
    /// Threads inside awaitRequest() for this request.  A request
    /// with unfinished tasks and no awaiter is still in setup.
    std::atomic<unsigned> Awaiters{0};
    /// Concurrency slots currently charged to this request (running tasks
    /// that have not yet blocked or completed).
    std::atomic<unsigned> Slots{0};
    /// Tasks parked because the request was at its fair share when they
    /// became ready, plus the home shard each arrived with (so admission
    /// pushes it back where it came from).  DeferM guards both deques;
    /// DeferredCount lets the admit path skip the lock when nothing is
    /// parked.
    std::mutex DeferM;
    std::deque<TaskPtr> Deferred;
    std::deque<unsigned> DeferredShards;
    std::atomic<size_t> DeferredCount{0};
  };

  /// ExecContext implementation installed while a worker runs a task.
  class WorkerContext final : public ExecContext {
  public:
    WorkerContext(ThreadedExecutor &Exec, Task &T, RequestState &RS,
                  unsigned WorkerId)
        : Exec(Exec), T(T), RS(RS), WorkerId(WorkerId) {}

    /// Real threads are timed by the clock, not by charges.
    void charge(CostKind, uint64_t) override {}
    void wait(Event &E) override;
    void signal(Event &E) override;
    void spawn(TaskPtr NewTask) override {
      // Tasks spawned mid-task belong to the spawning task's request
      // unless the spawner already attributed them.
      if (!NewTask->requestTag())
        NewTask->setRequestTag(T.requestTag());
      Exec.spawnFrom(std::move(NewTask), WorkerId % Exec.NumShards);
    }
    bool isTaskContext() const override { return true; }

  private:
    friend class ThreadedExecutor;
    ThreadedExecutor &Exec;
    Task &T;
    RequestState &RS;
    unsigned WorkerId;
    uint64_t IntervalStartNs = 0;
  };

  void workerMain(unsigned WorkerId);
  void runTask(TaskPtr T, RequestState &RS, unsigned WorkerId);
  uint64_t nowNs() const;
  void flushInterval(WorkerContext &Ctx);

  /// The request \p T is attributed to.
  static RequestState &requestOf(const Task &T) {
    return *static_cast<RequestState *>(T.requestTag().get());
  }

  //===--- Ready-task queues ---------------------------------------------===//

  static bool isProducerClass(TaskClass C) {
    return C <= TaskClass::Importer;
  }

  /// Spawn bookkeeping plus routing: gated tasks to the Supervisor,
  /// producer classes to the global producer queue, the rest to
  /// \p HomeShard (the spawning worker's shard; round-robin externally).
  void spawnFrom(TaskPtr T, unsigned HomeShard);

  /// Pushes an admission-ready task into its queue and wakes a worker.
  /// A task of a request at its fair share is parked in the request's
  /// deferred queue instead (unless \p BypassFairShare).
  void pushReady(TaskPtr T, unsigned HomeShard, bool BypassFairShare = false);

  /// Pops the best task visible from \p HomeShard: boosted tasks first
  /// (global scan, gated by the BoostedHint counter), then the producer
  /// queue, then the home shard, then a stealing scan of victim shards.
  TaskPtr tryPop(unsigned HomeShard);
  TaskPtr popFromShard(Shard &S);
  TaskPtr popBoosted();

  /// Pops every admission-ready task out of the Supervisor into the
  /// shards.  Caller holds GateM.
  void drainSupervisor(unsigned HomeShard);

  //===--- Tokens, parking, worker lifecycle -----------------------------===//

  bool tryAcquireToken();
  void releaseToken();
  /// Blocks until a concurrency token is available (handled-wait resume).
  void acquireTokenBlocking();

  /// Wakes a parked worker (the reserve only when the idle lot is
  /// empty), or spawns a new OS thread (charged to \p RS) when ready work
  /// exists, no worker is parked, and a token is free (all existing
  /// workers' tasks are blocked in waits).
  void ensureWorkerForReadyWork(RequestState &RS);

  /// Spawns the P initial workers, charged to \p RS, unless they are
  /// running (a request's first task).
  void startWorkers(RequestState &RS);

  /// Called by a worker whose park timed out: if the last open request
  /// has closed since the previous trim and nothing runs, hands the free
  /// heap pages back to the OS.
  void trimIfIdle();

  //===--- Requests ------------------------------------------------------===//

  /// Tasks every request may run regardless of its fair share: producer
  /// classes and interface parses (what other tasks block on — throttling
  /// them converts fairness into convoying) and boosted resolvers.
  static bool bypassesFairShare(const Task &T) {
    return isProducerClass(T.taskClass()) ||
           T.taskClass() == TaskClass::DefModParserDecl || T.isBoosted();
  }

  /// Charges one concurrency slot to \p RS if it is under its fair share.
  bool takeSlot(RequestState &RS);

  /// Moves parked tasks of \p RS back into the ready queues while the
  /// request is under its fair share.
  void admitDeferred(RequestState &RS);

  /// Releases the fair-share slot held by \p T (first wait or completion,
  /// whichever comes first) and admits parked work it was excluding.
  void releaseRequestSlot(Task &T);

  /// Called when a task of \p RS finishes: drops the request's Incomplete
  /// count and wakes its awaiters at zero.
  void finishRequestTask(RequestState &RS);

  /// Unfinished tasks of the executor if it is deadlocked — none can run
  /// and every request with unfinished tasks is awaited — else zero.
  uint64_t stuckTasks();

  /// Recomputes FairShare from the open-request count.  Caller holds ReqM.
  void recomputeFairShare();

  const unsigned Processors;
  const unsigned NumShards;
  const std::chrono::steady_clock::time_point Epoch; ///< nowNs() origin.

  std::unique_ptr<Shard[]> Shards;
  Shard ProducerQueue; ///< Lexor/Splitter/Importer tasks, popped first.

  /// Gated-task machinery: the Supervisor tracks tasks held on avoided
  /// events.  GateM serializes it; signals skip it via Event::MayGate.
  std::mutex GateM;
  Supervisor Sup;

  std::atomic<unsigned> Active{0};     ///< Concurrency tokens in use.
  std::atomic<size_t> ReadyCount{0};   ///< Tasks queued across all shards.
  std::atomic<unsigned> BoostedHint{0}; ///< Queued boosted tasks (approx).
  std::atomic<unsigned> Blocked{0};    ///< Workers inside wait().
  std::atomic<unsigned> RoundRobin{0}; ///< Home shard for external spawns.
  std::atomic<bool> ShuttingDown{false};
  std::atomic<bool> Started{false};
  /// Set when the last open request closes; cleared by trimIfIdle().
  std::atomic<bool> TrimDue{false};

  /// Parking lot for workers with no admissible work.  The waiter counts
  /// are atomic so pushers can skip the lock-and-notify when nobody is
  /// parked (the common case on a busy pipeline).
  std::mutex IdleM;
  std::condition_variable IdleCv;
  std::atomic<unsigned> IdleWorkers{0};
  /// Workers parked while P others already are, left over from a burst
  /// of blocked tasks.  Only ensureWorkerForReadyWork() wakes them, where
  /// it would otherwise start a thread, so ordinary wakeups go to the few
  /// workers that ran last instead of cycling through a large cold pool.
  /// Guarded by IdleM like the idle lot.
  std::condition_variable ReserveCv;
  std::atomic<unsigned> ReserveWorkers{0};

  /// Parking lot for resumed tasks waiting to reacquire a token.
  std::mutex TokenM;
  std::condition_variable TokenCv;
  std::atomic<unsigned> TokenWaiters{0};

  std::mutex WorkersM; ///< Guards Workers (dynamic thread spawning).
  std::vector<std::thread> Workers;

  /// Per-request running-task cap: max(1, Processors / open requests),
  /// or ~0u (no throttling) while at most one request is open.
  std::atomic<unsigned> FairShare{~0u};
  std::mutex ReqM; ///< Guards OpenRequests and FairShare recomputation.
  std::vector<std::shared_ptr<RequestState>> OpenRequests;
  /// awaitRequest() parking lot (shared by all requests; completions are rare
  /// relative to task throughput).
  std::mutex ReqDoneM;
  std::condition_variable ReqDoneCv;
};

} // namespace m2c::sched

#endif // M2C_SCHED_THREADEDEXECUTOR_H
