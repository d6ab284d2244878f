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
/// Besides the one-shot run() used by single compilations and build
/// sessions, the executor supports a persistent *service mode*
/// (startService/stopService): workers stay alive across many
/// independently submitted task graphs, each graph is attributed to a
/// *request* (openRequest/awaitRequest/closeRequest), and per-request
/// fair-share admission caps how many of a request's tasks may run at
/// once when several requests are in flight — one shared worker pool at
/// any request rate instead of every client constructing its own
/// oversubscribed executor (see DESIGN.md section 10).
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
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace m2c::sched {

/// Real-thread executor limited to \p Processors concurrently unblocked
/// tasks.
class ThreadedExecutor : public Executor {
public:
  explicit ThreadedExecutor(unsigned Processors, CostModel Model = CostModel());
  ~ThreadedExecutor() override;

  void spawn(TaskPtr T) override;
  void run() override;
  uint64_t elapsedUnits() const override { return ElapsedNs; }
  unsigned processorCount() const override { return Processors; }

  const CostModel &costModel() const { return Model; }

  //===--- Service mode ---------------------------------------------------===//

  /// Starts persistent operation: spawns the worker pool and keeps it
  /// alive until stopService().  Do not mix with run(); a serving
  /// executor drains every spawned task as it arrives and requests wait
  /// on their own task subgraphs with awaitRequest().
  void startService();

  /// Stops persistent operation: joins every worker (spawned tasks are
  /// still drained first only if callers awaited their requests) and
  /// flushes scheduler statistics.  Idempotent.
  void stopService();

  /// True between startService() and stopService().
  bool serving() const { return Serving.load(std::memory_order_acquire); }

  /// Opens a request: returns the opaque tag to stamp on the request's
  /// tasks (Task::setRequestTag).  Tasks spawned from inside a tagged
  /// task inherit its tag.  While more than one request is open, each
  /// request's concurrently *running* tasks are capped at its fair share
  /// of the processors (producer-class and interface tasks, and boosted
  /// resolvers, bypass the cap — they are what other tasks block on).
  std::shared_ptr<void> openRequest();

  /// Blocks until every task carrying \p Tag has completed.  Call only
  /// after the request's initial tasks were spawned; tasks spawned from
  /// running tasks are counted before their spawner completes, so the
  /// count cannot dip to zero mid-graph.
  void awaitRequest(const std::shared_ptr<void> &Tag);

  /// Closes a request opened with openRequest() and recomputes the fair
  /// share of the remaining ones.
  void closeRequest(const std::shared_ptr<void> &Tag);

  /// Folds the hot atomic counters into stats().  run() does this
  /// automatically; a serving executor calls it on demand (stat queries,
  /// stopService).
  void flushStats();

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

  /// ExecContext implementation installed while a worker runs a task.
  class WorkerContext final : public ExecContext {
  public:
    WorkerContext(ThreadedExecutor &Exec, Task &T, unsigned WorkerId)
        : Exec(Exec), T(T), WorkerId(WorkerId) {}

    void charge(CostKind Kind, uint64_t Count) override;
    void wait(Event &E) override;
    void signal(Event &E) override;
    void spawn(TaskPtr NewTask) override {
      // Tasks spawned mid-task belong to the spawning task's request
      // unless the spawner already attributed them.
      if (!NewTask->requestTag() && T.requestTag())
        NewTask->setRequestTag(T.requestTag());
      Exec.spawnFrom(std::move(NewTask), WorkerId % Exec.NumShards);
    }
    const CostModel &costModel() const override { return Exec.Model; }
    bool isTaskContext() const override { return true; }

  private:
    friend class ThreadedExecutor;
    ThreadedExecutor &Exec;
    Task &T;
    unsigned WorkerId;
    uint64_t IntervalStartNs = 0;
    uint64_t ChargedUnits = 0;
  };

  void workerMain(unsigned WorkerId);
  void runTask(TaskPtr T, unsigned WorkerId);
  uint64_t nowNs() const;
  void flushInterval(WorkerContext &Ctx);

  //===--- Ready-task queues ---------------------------------------------===//

  static bool isProducerClass(TaskClass C) {
    return C <= TaskClass::Importer;
  }

  /// Spawn bookkeeping plus routing: gated tasks to the Supervisor,
  /// producer classes to the global producer queue, the rest to
  /// \p HomeShard (the spawning worker's shard; round-robin externally).
  void spawnFrom(TaskPtr T, unsigned HomeShard);

  /// Pushes an admission-ready task into its queue and wakes a worker.
  /// In service mode, a task of an over-fair-share request is parked in
  /// its request's deferred queue instead (unless \p BypassFairShare).
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

  /// Wakes a parked worker, or spawns a new OS thread when ready work
  /// exists, no worker is parked, and a token is free (all existing
  /// workers' tasks are blocked in waits).
  void ensureWorkerForReadyWork();

  /// Starts the clock and spawns the P initial workers (run() and
  /// startService()).
  void startWorkers();
  /// Shuts every worker down, joins it and resets the lifecycle flags
  /// (run(), stopService() and the destructor).
  void stopWorkers();

  const unsigned Processors;
  const unsigned NumShards;
  const CostModel Model;

  std::unique_ptr<Shard[]> Shards;
  Shard ProducerQueue; ///< Lexor/Splitter/Importer tasks, popped first.

  /// Gated-task machinery: the Supervisor tracks tasks held on avoided
  /// events.  GateM serializes it; signals skip it via Event::MayGate.
  std::mutex GateM;
  Supervisor Sup;

  std::atomic<unsigned> Active{0};     ///< Concurrency tokens in use.
  std::atomic<uint64_t> Incomplete{0}; ///< Spawned but not finished.
  std::atomic<size_t> ReadyCount{0};   ///< Tasks queued across all shards.
  std::atomic<unsigned> BoostedHint{0}; ///< Queued boosted tasks (approx).
  std::atomic<unsigned> Blocked{0};    ///< Workers inside wait().
  std::atomic<uint64_t> TotalSpawned{0};
  std::atomic<unsigned> RoundRobin{0}; ///< Home shard for external spawns.
  std::atomic<bool> ShuttingDown{false};
  std::atomic<bool> Started{false};

  /// Parking lot for workers with no admissible work.  The waiter counts
  /// are atomic so pushers can skip the lock-and-notify when nobody is
  /// parked (the common case on a busy pipeline).
  std::mutex IdleM;
  std::condition_variable IdleCv;
  std::atomic<unsigned> IdleWorkers{0};

  /// Parking lot for resumed tasks waiting to reacquire a token.
  std::mutex TokenM;
  std::condition_variable TokenCv;
  std::atomic<unsigned> TokenWaiters{0};

  /// run() completion wait.
  std::mutex DoneM;
  std::condition_variable DoneCv;

  std::mutex WorkersM; ///< Guards Workers (dynamic thread spawning).
  std::vector<std::thread> Workers;

  //===--- Service mode state --------------------------------------------===//

  /// Per-request accounting.  Handed to clients as an opaque
  /// shared_ptr<void> (openRequest) and stamped on the request's tasks.
  struct RequestState {
    /// Tasks carrying this tag that were spawned but have not finished.
    std::atomic<uint64_t> Incomplete{0};
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

  /// Looks up the RequestState a task is attributed to (null for untagged
  /// tasks or outside service mode).
  static RequestState *requestOf(const Task &T) {
    return static_cast<RequestState *>(T.requestTag().get());
  }

  /// Tasks every request may run regardless of its fair share: producer
  /// classes and interface parses (what other tasks block on — throttling
  /// them converts fairness into convoying) and boosted resolvers.
  static bool bypassesFairShare(const Task &T) {
    return isProducerClass(T.taskClass()) ||
           T.taskClass() == TaskClass::DefModParserDecl || T.isBoosted();
  }

  /// Moves parked tasks of \p RS back into the ready queues while the
  /// request is under its fair share.
  void admitDeferred(RequestState &RS);

  /// Releases the fair-share slot held by \p T (first wait or completion,
  /// whichever comes first) and admits parked work it was excluding.
  void releaseRequestSlot(Task &T);

  /// Called when a tagged task finishes: drops the request's Incomplete
  /// count and wakes awaitRequest() at zero.
  void finishRequestTask(const std::shared_ptr<void> &Tag);

  /// Recomputes FairShare from the open-request count.  Caller holds ReqM.
  void recomputeFairShare();

  std::atomic<bool> Serving{false};
  /// Per-request running-task cap: max(1, Processors / open requests).
  /// ~0u outside service mode / single-request operation (no throttling).
  std::atomic<unsigned> FairShare{~0u};
  std::mutex ReqM; ///< Guards OpenRequests and FairShare recomputation.
  std::vector<std::shared_ptr<RequestState>> OpenRequests;
  /// awaitRequest() parking lot (shared by all requests; completions are
  /// rare relative to task throughput).
  std::mutex ReqDoneM;
  std::condition_variable ReqDoneCv;

  //===--- Hot statistic counters (flushed into Stats at run() end) ------===//
  std::atomic<uint64_t> CtStarted{0};
  std::atomic<uint64_t> CtSignaled{0};
  std::atomic<uint64_t> CtReleasedByEvent{0};
  std::atomic<uint64_t> CtBarrierWaits{0};
  std::atomic<uint64_t> CtBarrierNs{0};
  std::atomic<uint64_t> CtHandledWaits{0};
  std::atomic<uint64_t> CtBoosts{0};
  std::atomic<uint64_t> CtSteals{0};
  std::atomic<uint64_t> CtWorkersSpawned{0};
  std::atomic<uint64_t> CtDeferred{0};
  std::atomic<uint64_t> CtRequestsOpened{0};
  std::atomic<uint64_t> CtRequestsClosed{0};

  std::chrono::steady_clock::time_point RunStart;
  uint64_t ElapsedNs = 0;
};

} // namespace m2c::sched

#endif // M2C_SCHED_THREADEDEXECUTOR_H
