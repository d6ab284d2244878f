//===--- ThreadedExecutor.cpp - Real-thread Supervisors executor ---------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "sched/ThreadedExecutor.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#ifdef __GLIBC__
#include <malloc.h>
#endif

using namespace m2c::sched;

Executor::~Executor() = default;
ActivitySink::~ActivitySink() = default;

namespace {
/// Stats names of the request counters, in Counter order.
const char *const CounterNames[] = {
    "sched.tasks.total",     "sched.tasks.started",
    "sched.events.signaled", "sched.tasks.released_by_event",
    "sched.waits.barrier",   "sched.waits.barrier_ns",
    "sched.waits.handled",   "sched.boosts",
    "sched.steals",          "sched.workers.spawned",
    "sched.requests.deferred", "sched.requests.opened",
    "sched.requests.closed",
};
} // namespace

ThreadedExecutor::ThreadedExecutor(unsigned Processors)
    : Processors(Processors), NumShards(Processors),
      Epoch(std::chrono::steady_clock::now()),
      Shards(std::make_unique<Shard[]>(Processors)) {
  assert(Processors > 0 && "need at least one processor");
  static_assert(std::size(CounterNames) == NumCounters);
}

ThreadedExecutor::~ThreadedExecutor() {
  ShuttingDown.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> Lock(IdleM);
    IdleCv.notify_all();
    ReserveCv.notify_all();
  }
  {
    std::lock_guard<std::mutex> Lock(TokenM);
    TokenCv.notify_all();
  }
  std::vector<std::thread> Done;
  {
    std::lock_guard<std::mutex> Lock(WorkersM);
    Done.swap(Workers);
  }
  for (std::thread &W : Done)
    W.join();
}

ThreadedExecutor &ThreadedExecutor::shared(unsigned Processors) {
  // Leaked on purpose: destroying them at exit would join workers that a
  // late compile on another thread may still be using.
  static std::mutex M;
  static auto *All = new std::map<unsigned, ThreadedExecutor *>();
  std::lock_guard<std::mutex> Lock(M);
  ThreadedExecutor *&E = (*All)[Processors];
  if (!E)
    E = new ThreadedExecutor(Processors);
  return *E;
}

uint64_t ThreadedExecutor::nowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

//===--- Spawning and queues ------------------------------------------------===//

void ThreadedExecutor::spawn(TaskPtr T) {
  if (!T->requestTag()) {
    std::fprintf(stderr, "m2c: task '%s' spawned outside any request\n",
                 T->name().c_str());
    std::abort();
  }
  // A request's first task starts the workers.
  if (!Started.load(std::memory_order_acquire))
    startWorkers(requestOf(*T));
  spawnFrom(std::move(T),
            RoundRobin.fetch_add(1, std::memory_order_relaxed) % NumShards);
}

void ThreadedExecutor::spawnFrom(TaskPtr T, unsigned HomeShard) {
  assert(T && "null task");
  // Count the task against its request before it can possibly run, so an
  // await never observes a transient zero while the graph is still
  // growing.
  RequestState &RS = requestOf(*T);
  RS.count(TasksTotal);
  RS.Incomplete.fetch_add(1, std::memory_order_acq_rel);
  if (T->prerequisites().empty()) {
    pushReady(std::move(T), HomeShard);
  } else {
    std::lock_guard<std::mutex> Lock(GateM);
    // Publish the gating intent before the Supervisor re-checks each
    // prerequisite's signaled flag: the seq_cst fence pairs with the one
    // in signal() (Dekker), so either the Supervisor sees the signal or
    // the signaler sees MayGate and takes GateM to release us.
    for (const EventPtr &E : T->prerequisites())
      if (!E->isSignaled())
        E->MayGate.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    Sup.add(std::move(T));
    drainSupervisor(HomeShard);
  }
  ensureWorkerForReadyWork(RS);
}

void ThreadedExecutor::drainSupervisor(unsigned HomeShard) {
  while (TaskPtr Ready = Sup.popBest())
    pushReady(std::move(Ready), HomeShard);
}

void ThreadedExecutor::pushReady(TaskPtr T, unsigned HomeShard,
                                 bool BypassFairShare) {
  // Fair-share admission: a request at its share parks further ready
  // tasks in its own deferred queue.  Deferred tasks are invisible to
  // ReadyCount — workers cannot pop them — and re-enter here
  // (BypassFairShare) when the request releases a slot or the share
  // rises.
  if (!BypassFairShare && !bypassesFairShare(*T)) {
    RequestState &RS = requestOf(*T);
    if (!takeSlot(RS)) {
      {
        std::lock_guard<std::mutex> Lock(RS.DeferM);
        RS.Deferred.push_back(std::move(T));
        RS.DeferredShards.push_back(HomeShard);
      }
      RS.DeferredCount.fetch_add(1, std::memory_order_release);
      RS.count(Deferred);
      // Close the check/park race: if every counted task released its
      // slot while we were parking, nobody else will admit us.
      admitDeferred(RS);
      return;
    }
    T->markSlotHeld();
  }
  // Producer-class tasks (Lexor/Splitter/Importer) go to the global queue
  // every pop consults first.  This preserves the baseline's
  // producers-before-consumers admission order: a consumer stuck in a
  // barrier wait holds its token, so a ready Lexor buried in an
  // unscanned shard could otherwise starve behind a full token pool.
  Shard &S =
      isProducerClass(T->taskClass()) ? ProducerQueue : Shards[HomeShard];
  unsigned Class = static_cast<unsigned>(T->taskClass());
  {
    std::lock_guard<std::mutex> Lock(S.M);
    S.ByClass[Class].push_back(std::move(T));
  }
  S.Count.fetch_add(1, std::memory_order_release);
  ReadyCount.fetch_add(1, std::memory_order_release);
  if (IdleWorkers.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> Lock(IdleM);
    IdleCv.notify_one();
  }
}

TaskPtr ThreadedExecutor::popFromShard(Shard &S) {
  std::lock_guard<std::mutex> Lock(S.M);
  for (unsigned C = 0; C < NumTaskClasses; ++C) {
    auto &Q = S.ByClass[C];
    if (Q.empty())
      continue;
    auto Best = Q.begin();
    // Within the long code-generation class, heavier tasks run first
    // ("code is generated for long procedures before short ones").
    if (C == static_cast<unsigned>(TaskClass::LongStmtCodeGen))
      for (auto It = std::next(Q.begin()), End = Q.end(); It != End; ++It)
        if ((*It)->weight() > (*Best)->weight())
          Best = It;
    TaskPtr T = std::move(*Best);
    Q.erase(Best);
    S.Count.fetch_sub(1, std::memory_order_release);
    ReadyCount.fetch_sub(1, std::memory_order_release);
    if (T->isBoosted()) {
      unsigned H = BoostedHint.load(std::memory_order_relaxed);
      while (H > 0 && !BoostedHint.compare_exchange_weak(
                          H, H - 1, std::memory_order_relaxed)) {
      }
    }
    return T;
  }
  return nullptr;
}

TaskPtr ThreadedExecutor::popBoosted() {
  auto ScanShard = [this](Shard &S) -> TaskPtr {
    if (S.Count.load(std::memory_order_acquire) == 0)
      return nullptr;
    std::lock_guard<std::mutex> Lock(S.M);
    for (unsigned C = 0; C < NumTaskClasses; ++C) {
      auto &Q = S.ByClass[C];
      for (auto It = Q.begin(), End = Q.end(); It != End; ++It) {
        if (!(*It)->isBoosted())
          continue;
        TaskPtr T = std::move(*It);
        Q.erase(It);
        S.Count.fetch_sub(1, std::memory_order_release);
        ReadyCount.fetch_sub(1, std::memory_order_release);
        return T;
      }
    }
    return nullptr;
  };
  TaskPtr T = ScanShard(ProducerQueue);
  for (unsigned I = 0; !T && I < NumShards; ++I)
    T = ScanShard(Shards[I]);
  // Decrement the hint whether or not the scan found a task: a miss means
  // the boosted task already left the queues (popped normally, started,
  // or still gated), and a stale hint would make every pop re-scan.
  unsigned H = BoostedHint.load(std::memory_order_relaxed);
  while (H > 0 &&
         !BoostedHint.compare_exchange_weak(H, H - 1,
                                            std::memory_order_relaxed)) {
  }
  return T;
}

TaskPtr ThreadedExecutor::tryPop(unsigned HomeShard) {
  if (BoostedHint.load(std::memory_order_acquire) > 0)
    if (TaskPtr T = popBoosted())
      return T;
  if (ProducerQueue.Count.load(std::memory_order_acquire) > 0)
    if (TaskPtr T = popFromShard(ProducerQueue))
      return T;
  if (Shards[HomeShard].Count.load(std::memory_order_acquire) > 0)
    if (TaskPtr T = popFromShard(Shards[HomeShard]))
      return T;
  // Steal: scan victim shards starting after our own.
  for (unsigned I = 1; I < NumShards; ++I) {
    Shard &Victim = Shards[(HomeShard + I) % NumShards];
    if (Victim.Count.load(std::memory_order_acquire) == 0)
      continue;
    if (TaskPtr T = popFromShard(Victim)) {
      requestOf(*T).count(Steals);
      return T;
    }
  }
  return nullptr;
}

//===--- Requests -----------------------------------------------------------===//

void ThreadedExecutor::recomputeFairShare() {
  size_t N = OpenRequests.size();
  FairShare.store(N <= 1 ? ~0u
                         : std::max(1u, Processors / static_cast<unsigned>(N)),
                  std::memory_order_release);
}

bool ThreadedExecutor::takeSlot(RequestState &RS) {
  unsigned Cap = FairShare.load(std::memory_order_acquire);
  unsigned S = RS.Slots.load(std::memory_order_relaxed);
  while (S < Cap)
    if (RS.Slots.compare_exchange_weak(S, S + 1, std::memory_order_acq_rel))
      return true;
  return false;
}

void ThreadedExecutor::admitDeferred(RequestState &RS) {
  // Take a slot first; a deferred task re-enters the ready queues already
  // counted, so admission is self-limiting.
  while (RS.DeferredCount.load(std::memory_order_acquire) > 0 &&
         takeSlot(RS)) {
    TaskPtr T;
    unsigned Shard = 0;
    {
      std::lock_guard<std::mutex> Lock(RS.DeferM);
      if (!RS.Deferred.empty()) {
        T = std::move(RS.Deferred.front());
        RS.Deferred.pop_front();
        Shard = RS.DeferredShards.front();
        RS.DeferredShards.pop_front();
      }
    }
    if (!T) { // Raced with another admitter; hand the slot back.
      RS.Slots.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    RS.DeferredCount.fetch_sub(1, std::memory_order_release);
    T->markSlotHeld();
    pushReady(std::move(T), Shard, /*BypassFairShare=*/true);
  }
}

void ThreadedExecutor::releaseRequestSlot(Task &T) {
  if (!T.holdsSlot() || !T.markSlotReleased())
    return;
  RequestState &RS = requestOf(T);
  RS.Slots.fetch_sub(1, std::memory_order_acq_rel);
  if (RS.DeferredCount.load(std::memory_order_acquire) > 0)
    admitDeferred(RS);
}

void ThreadedExecutor::finishRequestTask(RequestState &RS) {
  // The owner may close and free the request once the count reaches
  // zero, so nothing after the decrement touches RS.
  if (RS.Incomplete.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> Lock(ReqDoneM);
    ReqDoneCv.notify_all();
  }
}

std::shared_ptr<void> ThreadedExecutor::openRequest(ActivitySink *Sink) {
  auto RS = std::make_shared<RequestState>();
  RS->Sink = Sink;
  RS->OpenNs = nowNs();
  RS->count(Opened);
  Stats.add(CounterNames[Opened]); // Live: closeRequest() skips it.
  {
    std::lock_guard<std::mutex> Lock(ReqM);
    OpenRequests.push_back(RS);
    recomputeFairShare();
  }
  return RS;
}

std::map<std::string, uint64_t>
ThreadedExecutor::closeRequest(const std::shared_ptr<void> &Tag) {
  auto &RS = *static_cast<RequestState *>(Tag.get());
  std::vector<std::shared_ptr<RequestState>> Remaining;
  {
    std::lock_guard<std::mutex> Lock(ReqM);
    for (auto It = OpenRequests.begin(); It != OpenRequests.end(); ++It)
      if (It->get() == &RS) {
        OpenRequests.erase(It);
        break;
      }
    recomputeFairShare();
    Remaining = OpenRequests;
  }
  // The share just rose for everyone still open; and drain any stragglers
  // of the closed request itself (empty when the caller awaited first, as
  // the contract requires).
  admitDeferred(RS);
  for (const std::shared_ptr<RequestState> &Open : Remaining)
    admitDeferred(*Open);
  RS.count(Closed);
  if (Remaining.empty())
    TrimDue.store(true, std::memory_order_release);
  // Move the request's counters into stats() (sched.requests.opened went
  // there at open) and return them.
  std::map<std::string, uint64_t> Counters;
  for (unsigned C = 0; C < NumCounters; ++C) {
    uint64_t V = RS.Ct[C].exchange(0, std::memory_order_acq_rel);
    Stats.add(CounterNames[C], C == Opened ? 0 : V);
    Counters[CounterNames[C]] = V;
  }
  return Counters;
}

uint64_t ThreadedExecutor::awaitRequest(const std::shared_ptr<void> &Tag) {
  auto &RS = *static_cast<RequestState *>(Tag.get());
  RS.Awaiters.fetch_add(1, std::memory_order_acq_rel);
  auto Done = [&RS] {
    return RS.Incomplete.load(std::memory_order_acquire) == 0;
  };
  {
    // finishRequestTask() decrements first, then notifies under ReqDoneM;
    // the predicate re-checks under the same lock, so the last task's
    // wakeup cannot be lost.  The timeout only paces the deadlock check,
    // which re-verifies after a grace period to avoid racing handoffs.
    std::unique_lock<std::mutex> Lock(ReqDoneM);
    while (!ReqDoneCv.wait_for(Lock, std::chrono::milliseconds(100), Done))
      if (stuckTasks() &&
          !ReqDoneCv.wait_for(Lock, std::chrono::milliseconds(200), Done))
        if (uint64_t Stuck = stuckTasks()) {
          size_t HeldCount;
          std::vector<std::string> Report;
          {
            std::lock_guard<std::mutex> Gate(GateM);
            HeldCount = Sup.heldCount();
            Report = Sup.heldTaskReport();
          }
          std::fprintf(stderr,
                       "m2c: deadlock: %llu tasks incomplete, none runnable "
                       "(%zu held on avoided events)\n",
                       static_cast<unsigned long long>(Stuck), HeldCount);
          for (const std::string &Held : Report)
            std::fprintf(stderr, "  %s\n", Held.c_str());
          std::abort();
        }
  }
  RS.Awaiters.fetch_sub(1, std::memory_order_acq_rel);
  return nowNs() - RS.OpenNs;
}

uint64_t ThreadedExecutor::stuckTasks() {
  if (Active.load(std::memory_order_acquire) != 0 ||
      ReadyCount.load(std::memory_order_acquire) != 0)
    return 0;
  std::lock_guard<std::mutex> Lock(ReqM);
  uint64_t Stuck = 0;
  for (const std::shared_ptr<RequestState> &RS : OpenRequests) {
    uint64_t N = RS->Incomplete.load(std::memory_order_acquire);
    // A request in setup may still spawn or signal what the others wait on.
    if (N != 0 && RS->Awaiters.load(std::memory_order_acquire) == 0)
      return 0;
    Stuck += N;
  }
  return Stuck;
}

//===--- Tokens and worker lifecycle ----------------------------------------===//

bool ThreadedExecutor::tryAcquireToken() {
  unsigned A = Active.load(std::memory_order_relaxed);
  while (A < Processors)
    if (Active.compare_exchange_weak(A, A + 1, std::memory_order_acquire))
      return true;
  return false;
}

void ThreadedExecutor::releaseToken() {
  Active.fetch_sub(1, std::memory_order_acq_rel);
  // Prefer handing the token to a resumed task over waking a fresh
  // worker; resumers block inside their task and cannot make progress any
  // other way.
  if (TokenWaiters.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> Lock(TokenM);
    TokenCv.notify_one();
    return;
  }
  if (ReadyCount.load(std::memory_order_acquire) > 0 &&
      IdleWorkers.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> Lock(IdleM);
    IdleCv.notify_one();
  }
}

void ThreadedExecutor::acquireTokenBlocking() {
  while (!tryAcquireToken()) {
    std::unique_lock<std::mutex> Lock(TokenM);
    TokenWaiters.fetch_add(1, std::memory_order_release);
    // The timeout is a lost-wakeup backstop only; releaseToken() notifies
    // under TokenM whenever waiters exist.
    TokenCv.wait_for(Lock, std::chrono::milliseconds(10), [this] {
      return Active.load(std::memory_order_acquire) < Processors ||
             ShuttingDown.load(std::memory_order_acquire);
    });
    TokenWaiters.fetch_sub(1, std::memory_order_release);
    if (ShuttingDown.load(std::memory_order_acquire))
      return;
  }
}

void ThreadedExecutor::ensureWorkerForReadyWork(RequestState &RS) {
  if (!Started.load(std::memory_order_acquire) ||
      ShuttingDown.load(std::memory_order_acquire))
    return;
  if (ReadyCount.load(std::memory_order_acquire) == 0 ||
      Active.load(std::memory_order_acquire) >= Processors)
    return;
  if (IdleWorkers.load(std::memory_order_acquire) > 0 ||
      ReserveWorkers.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> Lock(IdleM);
    (IdleWorkers.load(std::memory_order_relaxed) > 0 ? IdleCv : ReserveCv)
        .notify_one();
    return;
  }
  // Ready task, free token, nobody parked: every live worker is running
  // or blocked in a wait, so a new OS thread is needed (the paper's
  // run-another-task workaround realized by growing the thread pool).
  std::lock_guard<std::mutex> Lock(WorkersM);
  if (ShuttingDown.load(std::memory_order_acquire))
    return;
  if (Workers.size() >=
      Processors + Blocked.load(std::memory_order_acquire))
    return;
  unsigned Id = static_cast<unsigned>(Workers.size());
  Workers.emplace_back([this, Id] { workerMain(Id); });
  RS.count(WorkersSpawned);
}

void ThreadedExecutor::startWorkers(RequestState &RS) {
  std::lock_guard<std::mutex> Lock(WorkersM);
  // Started first: a worker whose first task blocks must be able to grow
  // the pool (it waits for this lock, then sees the initial workers).
  Started.store(true, std::memory_order_release);
  while (Workers.size() < Processors) {
    unsigned Id = static_cast<unsigned>(Workers.size());
    Workers.emplace_back([this, Id] { workerMain(Id); });
    RS.count(WorkersSpawned);
  }
}

void ThreadedExecutor::trimIfIdle() {
#ifdef __GLIBC__
  // Workers outlive requests, and glibc binds each thread to one malloc
  // arena and keeps a cache of the chunks it freed, so the heap a
  // request's tasks released stays spread over arenas the next request's
  // workers may not use, and peak memory creeps up.  A worker of the idle
  // executor hands the free pages back, off every request's path.
  // malloc_trim is process-wide and each trim costs page faults later, so
  // the process trims at most once a second; a deferred trim stays due.
  if (!TrimDue.load(std::memory_order_acquire) ||
      Active.load(std::memory_order_acquire) != 0 ||
      ReadyCount.load(std::memory_order_acquire) != 0)
    return;
  static std::atomic<int64_t> LastTrimMs{0};
  int64_t Now = std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count();
  int64_t Last = LastTrimMs.load(std::memory_order_relaxed);
  if (Now - Last < 1000 || !LastTrimMs.compare_exchange_strong(Last, Now))
    return;
  TrimDue.store(false, std::memory_order_release);
  malloc_trim(0);
#endif
}

//===--- Main loops ---------------------------------------------------------===//

void ThreadedExecutor::workerMain(unsigned WorkerId) {
  unsigned Home = WorkerId % NumShards;
  while (!ShuttingDown.load(std::memory_order_acquire)) {
    TaskPtr T;
    if (ReadyCount.load(std::memory_order_acquire) > 0 &&
        tryAcquireToken()) {
      T = tryPop(Home);
      if (!T)
        releaseToken(); // Raced with another popper; requeue ourselves.
    }
    if (T) {
      RequestState &RS = requestOf(*T);
      runTask(std::move(T), RS, WorkerId);
      releaseToken();
      finishRequestTask(RS);
      continue;
    }
    // Nothing admissible: park.  Pushers notify under IdleM after the
    // queue counters are visible, and the predicate re-checks them under
    // the same lock, so wakeups cannot be lost; the idle lot's timeout is
    // a backstop.  Past P parked workers, park in the reserve, untimed so
    // a large pool costs no periodic wakeups: only
    // ensureWorkerForReadyWork() wakes it, and where it reads a stale zero
    // count it starts a thread instead of losing the wakeup.
    auto Admissible = [this] {
      return ShuttingDown.load(std::memory_order_acquire) ||
             (ReadyCount.load(std::memory_order_acquire) > 0 &&
              Active.load(std::memory_order_acquire) < Processors);
    };
    std::unique_lock<std::mutex> Lock(IdleM);
    if (IdleWorkers.load(std::memory_order_relaxed) < Processors) {
      IdleWorkers.fetch_add(1, std::memory_order_release);
      bool Woken =
          IdleCv.wait_for(Lock, std::chrono::milliseconds(50), Admissible);
      IdleWorkers.fetch_sub(1, std::memory_order_release);
      if (!Woken) {
        Lock.unlock();
        trimIfIdle();
      }
    } else {
      ReserveWorkers.fetch_add(1, std::memory_order_release);
      ReserveCv.wait(Lock, Admissible);
      ReserveWorkers.fetch_sub(1, std::memory_order_release);
    }
  }
}

void ThreadedExecutor::runTask(TaskPtr T, RequestState &RS,
                               unsigned WorkerId) {
  bool First = T->markStarted();
  assert(First && "task started twice");
  (void)First;
  RS.count(TasksStarted);
  WorkerContext Ctx(*this, *T, RS, WorkerId);
  Ctx.IntervalStartNs = nowNs();
  {
    ScopedContext Installed(Ctx);
    T->invoke();
  }
  flushInterval(Ctx);
  releaseRequestSlot(*T);
  T->markDone();
}

void ThreadedExecutor::flushInterval(WorkerContext &Ctx) {
  RequestState &RS = Ctx.RS;
  if (!RS.Sink)
    return;
  uint64_t Start = std::max(Ctx.IntervalStartNs, RS.OpenNs);
  uint64_t End = nowNs();
  if (End > Start)
    RS.Sink->record(Ctx.WorkerId, Ctx.T, Start - RS.OpenNs, End - RS.OpenNs);
  Ctx.IntervalStartNs = End;
}

//===--- WorkerContext ------------------------------------------------------===//

void ThreadedExecutor::WorkerContext::signal(Event &E) {
  if (!E.markSignaled(Exec.nowNs()))
    return;
  RS.count(EventsSignaled);
  // Wake tasks parked on this event.  The empty critical section pairs
  // with the waiters' signaled-recheck under WaitMutex: a waiter that
  // missed the flag is either inside wait() (and gets the notify) or
  // about to re-check (and sees the flag).
  {
    std::lock_guard<std::mutex> Lock(E.WaitMutex);
  }
  E.WaitCv.notify_all();
  // Dekker pairing with spawnFrom(): if a spawner is concurrently gating
  // a task on this event, either we observe MayGate here or the spawner's
  // re-check observes the signaled flag.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (E.MayGate.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> Lock(Exec.GateM);
    unsigned Released = Exec.Sup.noteSignaled(E);
    if (Released) {
      RS.count(ReleasedByEvent, Released);
      Exec.drainSupervisor(WorkerId % Exec.NumShards);
    }
  }
  Exec.ensureWorkerForReadyWork(RS);
}

void ThreadedExecutor::WorkerContext::wait(Event &E) {
  if (E.isSignaled())
    return;

  // A blocked task no longer competes for processors, so its request's
  // fair-share slot is released on its first wait (once per task) and
  // not reacquired — a soft cap that keeps admission deadlock-free.
  Exec.releaseRequestSlot(T);

  if (E.kind() == EventKind::Barrier) {
    // Barrier waits hold the processor: "the worker simply waits for the
    // event to occur" (section 2.3.3).  Safe because token producers
    // (Lexor tasks) never block and are already running.
    RS.count(BarrierWaits);
    Exec.flushInterval(*this);
    Exec.Blocked.fetch_add(1, std::memory_order_acq_rel);
    Exec.ensureWorkerForReadyWork(RS);
    uint64_t WaitStart = Exec.nowNs();
    {
      std::unique_lock<std::mutex> Lock(E.WaitMutex);
      while (!E.isSignaled())
        E.WaitCv.wait(Lock);
    }
    Exec.Blocked.fetch_sub(1, std::memory_order_acq_rel);
    RS.count(BarrierNs, Exec.nowNs() - WaitStart);
    IntervalStartNs = Exec.nowNs();
    return;
  }

  assert(E.kind() == EventKind::Handled &&
         "avoided events gate task start and are never waited on mid-task");
  RS.count(HandledWaits);
  if (Exec.Sup.boostResolver(E)) {
    RS.count(Boosts);
    Exec.BoostedHint.fetch_add(1, std::memory_order_acq_rel);
  }

  // Release our concurrency token so another task can use the processor.
  Exec.Blocked.fetch_add(1, std::memory_order_acq_rel);
  Exec.releaseToken();
  Exec.ensureWorkerForReadyWork(RS);
  Exec.flushInterval(*this);
  {
    std::unique_lock<std::mutex> Lock(E.WaitMutex);
    while (!E.isSignaled())
      E.WaitCv.wait(Lock);
  }
  // Reacquire a token before resuming.
  Exec.acquireTokenBlocking();
  Exec.Blocked.fetch_sub(1, std::memory_order_acq_rel);
  IntervalStartNs = Exec.nowNs();
}
