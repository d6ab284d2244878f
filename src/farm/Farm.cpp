//===--- Farm.cpp - affinity-sharded multi-process build farm -------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "farm/Farm.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include <unistd.h>

using namespace m2c;
using namespace m2c::farm;
using namespace m2c::net;

Farm::Farm(FarmConfig Config)
    : Config(std::move(Config)),
      Server({this->Config.UnixSocketPath, this->Config.EnableTcp,
              this->Config.TcpPort, this->Config.MaxConnections,
              this->Config.MaxPendingRelays, "m2cfarm/1", "farm"},
             FarmStats,
             [this](BuildRequestMsg Msg, const RequestControl &Control) {
               return relay(std::move(Msg), Control);
             },
             [this] { return aggregatedStats(); }) {}

Farm::~Farm() { stop(); }

unsigned Farm::affinityShard(const std::vector<std::string> &Roots,
                             unsigned N) {
  if (N == 0)
    return 0;
  std::vector<std::string> Sorted = Roots;
  std::sort(Sorted.begin(), Sorted.end());
  uint64_t H = 1469598103934665603ULL; // FNV-1a offset basis.
  for (const std::string &Root : Sorted) {
    for (char C : Root) {
      H ^= static_cast<unsigned char>(C);
      H *= 1099511628211ULL;
    }
    // Separator so {"AB"} and {"A","B"} hash apart.
    H ^= 0xff;
    H *= 1099511628211ULL;
  }
  return static_cast<unsigned>(H % N);
}

//===--- Worker lifecycle --------------------------------------------------===//

bool Farm::spawnWorker(WorkerSlot &Slot, std::string &Err) {
  WorkerSpec Spec = Config.Worker;
  Spec.SocketPath = Slot.SocketPath;
  Slot.Proc = WorkerProcess::spawn(Spec, Err);
  if (!Slot.Proc)
    return false;
  // Interruptible readiness wait: probe in short slices so stop() never
  // waits a full ReadyTimeoutMs behind a worker that will never come up.
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(Config.ReadyTimeoutMs);
  for (;;) {
    if (waitWorkerReady(Slot.SocketPath, /*TimeoutMs=*/200, Err))
      break;
    // Wrong-server is definitive, timeout is not.
    if (Err.find("not in worker mode") != std::string::npos ||
        StopHealth.load(std::memory_order_relaxed) ||
        std::chrono::steady_clock::now() >= Deadline) {
      Slot.Proc->kill();
      Slot.Proc->waitExit(1000);
      Slot.Proc.reset();
      return false;
    }
  }
  FarmStats.add("farm.workers.spawned");
  return true;
}

void Farm::healthLoop() {
  while (!StopHealth.load(std::memory_order_relaxed)) {
    {
      // Interruptible sleep: stop() must not wait out a long health
      // interval before it can tear the farm down.
      std::unique_lock<std::mutex> Lock(HealthM);
      HealthCv.wait_for(Lock,
                        std::chrono::milliseconds(Config.HealthIntervalMs),
                        [this] {
                          return StopHealth.load(std::memory_order_relaxed);
                        });
    }
    if (StopHealth.load(std::memory_order_relaxed))
      break;
    for (auto &SlotPtr : Slots) {
      WorkerSlot &Slot = *SlotPtr;
      std::lock_guard<std::mutex> Lock(Slot.ProcM);
      if (!Slot.Proc || Slot.Proc->alive())
        continue;
      FarmStats.add("farm.workers.died");
      if (!Config.AutoRespawn)
        continue;
      // The dead incarnation's parked connections point at a corpse;
      // clear them before anyone can check one out.
      Slot.Pool->clear();
      std::string Err;
      if (spawnWorker(Slot, Err)) {
        FarmStats.add("farm.workers.respawned");
      } else {
        // Retried on the next tick; relays meanwhile fail over to the
        // remaining workers.
        FarmStats.add("farm.workers.respawnfailed");
      }
    }
  }
}

std::string Farm::workerAddress(unsigned I) const {
  return I < Slots.size() ? Slots[I]->SocketPath : std::string();
}

pid_t Farm::workerPid(unsigned I) {
  if (I >= Slots.size())
    return -1;
  std::lock_guard<std::mutex> Lock(Slots[I]->ProcM);
  return Slots[I]->Proc ? Slots[I]->Proc->pid() : -1;
}

bool Farm::killWorker(unsigned I) {
  if (I >= Slots.size())
    return false;
  std::lock_guard<std::mutex> Lock(Slots[I]->ProcM);
  if (!Slots[I]->Proc)
    return false;
  FarmStats.add("farm.workers.killed");
  Slots[I]->Proc->kill();
  return true;
}

//===--- Startup / shutdown ------------------------------------------------===//

bool Farm::start(std::string &Err) {
  if (!Slots.empty()) {
    Err = "farm already started";
    return false;
  }
  if (Config.Workers == 0) {
    Err = "a farm needs at least one worker";
    return false;
  }

  std::string Dir = Config.WorkerDir;
  if (Dir.empty())
    Dir = !Config.UnixSocketPath.empty()
              ? Config.UnixSocketPath + ".d"
              : "/tmp/m2cfarm." + std::to_string(::getpid());
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    Err = "cannot create worker socket dir '" + Dir + "': " + EC.message();
    return false;
  }

  for (unsigned I = 0; I < Config.Workers; ++I) {
    auto Slot = std::make_unique<WorkerSlot>();
    Slot->SocketPath = Dir + "/w" + std::to_string(I) + ".sock";
    Slot->Pool = std::make_unique<ClientPool>(Slot->SocketPath);
    Slots.push_back(std::move(Slot));
  }
  auto Spawn = [&](std::unique_ptr<WorkerSlot> &Slot) {
    return spawnWorker(*Slot, Err);
  };
  if (!std::all_of(Slots.begin(), Slots.end(), Spawn) || !Server.start(Err)) {
    stopWorkers();
    Slots.clear();
    return false;
  }
  HealthThread = std::thread([this] { healthLoop(); });
  return true;
}

void Farm::stop() {
  // Every accepted BUILD's one reply is delivered before any worker goes:
  // the workers are what finishes the in-flight relays.
  Server.stop();

  // Health thread off before touching worker processes.
  {
    std::lock_guard<std::mutex> Lock(HealthM);
    StopHealth.store(true, std::memory_order_relaxed);
  }
  HealthCv.notify_all();
  if (HealthThread.joinable())
    HealthThread.join();
  stopWorkers();
}

void Farm::stopWorkers() {
  // Cascade the drain: SIGTERM everyone first (they drain in parallel),
  // then reap with a grace period, escalating to SIGKILL.
  for (auto &Slot : Slots) {
    std::lock_guard<std::mutex> Lock(Slot->ProcM);
    if (Slot->Proc)
      Slot->Proc->terminate();
  }
  for (auto &Slot : Slots) {
    std::lock_guard<std::mutex> Lock(Slot->ProcM);
    if (!Slot->Proc)
      continue;
    if (!Slot->Proc->waitExit(5000)) {
      Slot->Proc->kill();
      Slot->Proc->waitExit(1000);
    }
    Slot->Pool->clear();
  }
}

//===--- Stats -------------------------------------------------------------===//

std::map<std::string, uint64_t> Farm::statsSnapshot() {
  std::map<std::string, uint64_t> Merged = FarmStats.snapshot();
  Merged["farm.workers"] = Slots.size();
  uint64_t Opened = 0, Reused = 0;
  for (auto &Slot : Slots) {
    Opened += Slot->Pool->opened();
    Reused += Slot->Pool->reused();
  }
  Merged["farm.pool.opened"] = Opened;
  Merged["farm.pool.reused"] = Reused;
  return Merged;
}

std::map<std::string, uint64_t> Farm::aggregatedStats() {
  std::map<std::string, uint64_t> Merged = statsSnapshot();
  for (auto &Slot : Slots) {
    std::string Err;
    auto Client = Slot->Pool->acquire(Err);
    std::map<std::string, uint64_t> Stats;
    if (Client && Client->stats(Stats, Err)) {
      Slot->Pool->release(std::move(Client));
      for (const auto &[Name, Value] : Stats)
        Merged[Name] += Value;
    } else {
      // Worker mid-respawn: its counters are simply absent this round.
      FarmStats.add("farm.stats.unreachable");
      Merged["farm.stats.unreachable"] += 1;
    }
  }
  return Merged;
}

//===--- Relaying ----------------------------------------------------------===//

unsigned Farm::routeWorker(unsigned Shard, bool &Spilled) {
  Spilled = false;
  unsigned Load = Slots[Shard]->InFlight.load(std::memory_order_relaxed);
  if (Load < Config.SpillThreshold)
    return Shard;
  unsigned Best = Shard, BestLoad = Load;
  for (unsigned I = 0; I < Slots.size(); ++I) {
    unsigned L = Slots[I]->InFlight.load(std::memory_order_relaxed);
    if (L < BestLoad) {
      Best = I;
      BestLoad = L;
    }
  }
  Spilled = Best != Shard;
  return Best;
}

std::optional<BuildResultMsg> Farm::relay(BuildRequestMsg Msg,
                                          const RequestControl &Control) {
  const unsigned N = static_cast<unsigned>(Slots.size());
  const unsigned Shard = affinityShard(Msg.Roots, N);
  bool Spilled = false;
  const unsigned W = routeWorker(Shard, Spilled);
  FarmStats.add(Spilled ? "farm.requests.spilled" : "farm.requests.affinity");
  FarmStats.add("farm.worker." + std::to_string(W) + ".routed");

  // Fast path: a pooled persistent connection to the routed worker.
  {
    WorkerSlot &Slot = *Slots[W];
    Slot.InFlight.fetch_add(1, std::memory_order_relaxed);
    std::string Err;
    auto Client = Slot.Pool->acquire(Err);
    bool Ok = false;
    BuildResultMsg Result;
    if (Client) {
      // The relay owns its upstream conversation, so the upstream id
      // only needs uniqueness within that connection.
      Msg.RequestId = Client->nextRequestId();
      Ok = Client->build(Msg, Result, Err);
      // A failed exchange poisons the conversation: the client is dropped.
      if (Ok)
        Slot.Pool->release(std::move(Client));
    }
    Slot.InFlight.fetch_sub(1, std::memory_order_relaxed);
    // A retryable worker verdict (overload shed, drain, internal) falls
    // through to land it on a sibling.
    if (Ok && !isRetryable(categorize(Result.St)))
      return Result;
  }

  // The client may have cancelled, or its deadline passed, while the fast
  // path was failing; a failover for an already-answered request is pure
  // waste.
  if (Control.abandoned())
    return std::nullopt;

  // Failover: rotate the remaining workers under the jittered backoff
  // policy.  Fresh connection per attempt (buildWithRetry's contract) —
  // pooled sockets into a dead incarnation are exactly what we are
  // escaping.  Safe to replay because BUILD is idempotent.
  FarmStats.add("farm.requests.retried");
  auto Provider = [this, W, N](unsigned Attempt) {
    return Slots[(W + 1 + Attempt) % N]->SocketPath;
  };
  BuildResultMsg Result;
  RemoteBuildOutcome Outcome =
      buildWithRetry(Provider, Msg, Config.Retry, Result);
  for (const auto &[RetryCat, Count] : Outcome.Retries)
    FarmStats.add(std::string("farm.retries.") + errorCategoryName(RetryCat),
                  Count);
  if (Outcome.Delivered) {
    FarmStats.add("farm.requests.failover");
    return Result;
  }

  // Gave up: map the last failure category onto the protocol status the
  // client would have seen talking to a lone overloaded/draining/broken
  // daemon.  Transport-ish failures become INTERNAL, which is retryable
  // client-side.
  FarmStats.add("farm.requests.gaveup");
  BuildResultMsg Out;
  Out.St = Outcome.Category == ErrorCategory::Overload
               ? Status::RejectedOverload
           : Outcome.Category == ErrorCategory::Draining ? Status::Draining
                                                         : Status::Internal;
  if (Out.St == Status::Internal)
    Out.Diagnostics = "farm: relay failed after " +
                      std::to_string(Outcome.Attempts + 1) + " attempts (" +
                      errorCategoryName(Outcome.Category) +
                      (Outcome.Err.empty() ? "" : ": " + Outcome.Err) + ")\n";
  return Out;
}
