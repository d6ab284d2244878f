//===--- soak_service.cpp - Daemon soak under an active fault plan ---------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// Hammers an in-process m2cd with mixed traffic — well-formed projects and
// adversarial roots (truncated files, half-applied edits, pathological and
// cyclic import graphs) — while a fault plan injects disk corruption, torn
// connections and build-thread failures at >= 1% rates.  Clients go through
// the same reconnect-and-retry path `m2c_cli -retry` uses.
//
// The pass bar, checked here and nowhere weaker:
//   1. Every request reaches exactly one classified outcome (a watchdog
//      converts a hang into a loud failure).
//   2. Every *successful* reply is byte-identical to a fault-free cold
//      standalone build of the same root (diagnostics and .mco bytes).
//   3. Every compile-failure reply carries exactly the fault-free
//      standalone diagnostics — injected faults never masquerade as
//      compile errors.
//   4. The shared disk cache verifies clean afterwards: no corrupt
//      entries survive healing, no temp debris remains.
//
//   soak_service [--quick] [--farm]   (--quick: smaller mix, CI-sized)
//
// --farm points the same traffic at a 2-worker farm coordinator instead
// of an in-process daemon: the workspace is materialized to disk, the
// fault plan is handed to each exec'd m2cd worker through M2C_FAULTS
// (the env-armed installer in m2c_fault), and the coordinator-side plan
// keeps tearing relay and client connections — so worker crashes,
// failover and respawn are all on the table while the same four pass
// bars hold.
//
// The plan is env-overridable: M2C_SOAK_FAULTS="<spec>" (or, failing
// that, M2C_FAULTS) replaces the default mix — same grammar, see
// src/fault/FaultPlan.h.  Goldens are always computed with injection
// disarmed.  Results go to stdout, ending in one PASS or FAIL line; the
// exit code is 0 only on PASS.
//
//===----------------------------------------------------------------------===//

#include "build/BuildSession.h"
#include "cache/CacheStore.h"
#include "codegen/ObjectFile.h"
#include "daemon/Daemon.h"
#include "farm/Farm.h"
#include "fault/FaultPlan.h"
#include "net/RemoteClient.h"
#include "workload/WorkloadGenerator.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace m2c;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr const char *DefaultPlan =
    "seed=42;"
    "cache.disk.write=corrupt~0.05;"
    "cache.disk.read=fail~0.02;"
    "cache.disk.rename=fail~0.01;"
    "net.send=close~0.01;"
    "net.recv=fail~0.01;"
    "daemon.build=fail~0.02;"
    "service.admit=fail~0.01";

/// The fault-free truth for one root, computed before the plan is armed.
struct Golden {
  bool Success = false;
  std::string Diagnostics;
  std::map<std::string, std::string> Objects; ///< module -> .mco bytes
};

struct Tally {
  std::atomic<uint64_t> Issued{0};
  std::atomic<uint64_t> Outcomes{0};
  std::atomic<uint64_t> Ok{0};
  std::atomic<uint64_t> CompileFailed{0};
  std::atomic<uint64_t> GaveUp{0}; ///< Classified failure after retries.
  std::atomic<uint64_t> Retries{0};
  std::atomic<uint64_t> Mismatches{0};
};

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false, FarmMode = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::string(Argv[I]) == "--quick")
      Quick = true;
    else if (std::string(Argv[I]) == "--farm")
      FarmMode = true;
    else {
      std::fprintf(stderr, "usage: soak_service [--quick] [--farm]\n");
      return 2;
    }
  }

  const unsigned Clients = Quick ? 3 : 6;
  const unsigned RequestsPerClient = Quick ? 8 : 25;
  const unsigned Workers = 4;
  const unsigned WatchdogSeconds = Quick ? 120 : 600;

  // An M2C_FAULTS plan installs itself before main() runs; stand it down
  // until the goldens are computed — they must be fault-free truth.
  fault::installPlan(nullptr);

  VirtualFileSystem Files;
  StringInterner Interner;
  workload::WorkloadGenerator Gen(Files);

  // Well-formed projects sharing interfaces (the service's steady diet).
  workload::RequestSetSpec SetSpec;
  SetSpec.NumProjects = Quick ? 2 : 4;
  SetSpec.ModulesPerProject = Quick ? 2 : 4;
  SetSpec.RequestsPerProject = 1;
  workload::GeneratedRequestSet Set = Gen.generateRequestSet(SetSpec);

  // Adversarial roots mixed into the same VFS: hostile shapes the daemon
  // must classify cleanly, never crash or hang on.
  std::vector<workload::AdversarialKind> Kinds = {
      workload::AdversarialKind::TruncatedEof,
      workload::AdversarialKind::MidEditDrop,
      workload::AdversarialKind::CyclicImports,
      workload::AdversarialKind::PathologicalDag,
  };
  if (!Quick) {
    Kinds.push_back(workload::AdversarialKind::UnbalancedBlocks);
    Kinds.push_back(workload::AdversarialKind::DuplicateImports);
  }
  std::vector<std::string> Roots;
  for (const workload::GeneratedProject &P : Set.Projects)
    Roots.push_back(P.Root);
  for (size_t I = 0; I < Kinds.size(); ++I) {
    workload::AdversarialSpec Spec;
    Spec.Name = "Soak" + std::to_string(I);
    Spec.Kind = Kinds[I];
    Spec.Seed = 23 + static_cast<uint32_t>(I);
    Roots.push_back(Gen.generateAdversarial(Spec).Root);
  }

  // Fault-free goldens first: what every successful (or compile-failing)
  // reply must reproduce byte for byte.
  std::map<std::string, Golden> Goldens;
  for (const std::string &Root : Roots) {
    driver::CompilerOptions Options;
    Options.Executor = driver::ExecutorKind::Threaded;
    Options.Processors = Workers;
    build::BuildSession Session(Files, Interner, std::move(Options));
    build::BuildResult R = Session.build({Root});
    Golden G;
    G.Success = R.Success;
    G.Diagnostics = R.DiagnosticText;
    for (const build::ModuleBuild &M : R.Modules)
      G.Objects[M.Name] = codegen::writeObjectFile(M.Image, Interner);
    Goldens[Root] = std::move(G);
  }

  fs::path CacheDir = fs::temp_directory_path() /
                      ("soak-service-cache-" + std::to_string(::getpid()));
  fs::remove_all(CacheDir);
  std::string SocketPath =
      (fs::temp_directory_path() /
       ("soak-service-" + std::to_string(::getpid()) + ".sock"))
          .string();

  const char *PlanSpec = std::getenv("M2C_SOAK_FAULTS");
  if (!PlanSpec || !*PlanSpec)
    PlanSpec = std::getenv("M2C_FAULTS"); // CI sets a fixed-seed plan here.
  if (!PlanSpec || !*PlanSpec)
    PlanSpec = DefaultPlan;

  std::string Err;
  std::unique_ptr<daemon::Daemon> Server;
  std::unique_ptr<farm::Farm> Coordinator;
  fs::path WorkspaceDir;
  const unsigned FarmWorkers = 2;
  if (FarmMode) {
    // Workers are separate processes reading the real filesystem:
    // materialize the generated sources (including the adversarial
    // bytes) as an on-disk workspace.
    WorkspaceDir = fs::temp_directory_path() /
                   ("soak-farm-ws-" + std::to_string(::getpid()));
    fs::remove_all(WorkspaceDir);
    fs::create_directories(WorkspaceDir);
    for (const std::string &Name : Files.names()) {
      std::ofstream Out(WorkspaceDir / Name, std::ios::binary);
      Out << Files.lookup(Name)->Text;
    }
    farm::FarmConfig Config;
    Config.UnixSocketPath = SocketPath;
    Config.Workers = FarmWorkers;
    Config.Worker.Workspace = WorkspaceDir.string();
    Config.Worker.CacheDir = CacheDir.string();
    Config.Worker.Jobs = Workers / FarmWorkers;
    Config.MaxPendingRelays = Clients * 4;
    // The plan crosses the exec boundary by environment: every worker
    // (and every respawned incarnation) arms the same spec.
    Config.Worker.Env.emplace_back("M2C_FAULTS", PlanSpec);
    Coordinator = std::make_unique<farm::Farm>(Config);
    if (!Coordinator->start(Err)) {
      std::fprintf(stderr, "FATAL: farm start: %s\n", Err.c_str());
      return 1;
    }
  } else {
    daemon::DaemonConfig Config;
    Config.UnixSocketPath = SocketPath;
    Config.Service.Workers = Workers;
    Config.Service.CacheDir = CacheDir.string();
    Config.MaxPendingBuilds = Clients * 4;
    Server = std::make_unique<daemon::Daemon>(Files, Interner, Config);
    if (!Server->start(Err)) {
      std::fprintf(stderr, "FATAL: daemon start: %s\n", Err.c_str());
      return 1;
    }
  }

  if (!fault::installPlanFromSpec(PlanSpec, Err)) {
    std::fprintf(stderr, "FATAL: bad fault plan: %s\n", Err.c_str());
    return 1;
  }
  std::printf("soak%s: %u clients x %u requests over %zu roots (%zu "
              "adversarial), plan:\n  %s\n",
              FarmMode ? " [farm x2]" : "", Clients, RequestsPerClient,
              Roots.size(), Kinds.size(), PlanSpec);

  // Watchdog: a hung request must fail the run loudly, not park it forever.
  std::atomic<bool> Done{false};
  std::thread Watchdog([&] {
    for (unsigned S = 0; S < WatchdogSeconds * 10; ++S) {
      if (Done.load())
        return;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::fprintf(stderr, "FATAL: soak hung (watchdog after %us)\n",
                 WatchdogSeconds);
    std::_Exit(1);
  });

  Tally T;
  Clock::time_point Start = Clock::now();
  auto Client = [&](unsigned Id) {
    std::mt19937 Rng(Id * 2654435761u + 17);
    for (unsigned I = 0; I < RequestsPerClient; ++I) {
      const std::string &Root = Roots[Rng() % Roots.size()];
      const Golden &G = Goldens.at(Root);
      net::BuildRequestMsg Req;
      Req.RequestId = 1; // Per-connection ids; every attempt reconnects.
      Req.DeadlineMs = 30000;
      Req.Roots = {Root};
      net::RetryPolicy Policy;
      Policy.MaxRetries = 10;
      Policy.InitialBackoffMs = 1;
      Policy.MaxBackoffMs = 20;
      Policy.OnBackoff = [&](unsigned, unsigned SleepMs) {
        T.Retries.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(SleepMs));
      };
      T.Issued.fetch_add(1);
      net::BuildResultMsg Result;
      net::RemoteBuildOutcome Outcome =
          net::buildWithRetry(SocketPath, Req, Policy, Result);
      T.Outcomes.fetch_add(1); // Exactly one outcome per request, always.
      if (!Outcome.Delivered) {
        T.GaveUp.fetch_add(1);
        continue;
      }
      if (Result.St == net::Status::Ok) {
        T.Ok.fetch_add(1);
        bool Match = G.Success && Result.Diagnostics == G.Diagnostics &&
                     Result.Modules.size() == G.Objects.size();
        if (Match)
          for (const net::ModuleArtifact &M : Result.Modules) {
            auto It = G.Objects.find(M.Name);
            Match = Match && It != G.Objects.end() && It->second == M.Object;
          }
        if (!Match) {
          T.Mismatches.fetch_add(1);
          std::fprintf(stderr, "MISMATCH: %s: successful reply differs from "
                               "fault-free golden\n",
                       Root.c_str());
        }
      } else if (Result.St == net::Status::BuildFailed) {
        T.CompileFailed.fetch_add(1);
        // Compile failures must be the *program's* failures, with the
        // fault-free diagnostics — never a disguised injected fault.
        if (G.Success || Result.Diagnostics != G.Diagnostics) {
          T.Mismatches.fetch_add(1);
          std::fprintf(stderr,
                       "MISMATCH: %s: failure diagnostics differ from "
                       "fault-free golden\n",
                       Root.c_str());
        }
      } else {
        T.GaveUp.fetch_add(1); // Shed/internal after retries: classified.
      }
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &Th : Threads)
    Th.join();
  double Ms = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - Start)
                  .count() /
              1e6;
  Done.store(true);
  Watchdog.join();

  // In farm mode the aggregated view reaches into the (still-running)
  // worker processes, whose fault counters live in *their* address
  // spaces; the coordinator side's own injections (torn relay/client
  // connections) are folded in from the local plan.
  std::map<std::string, uint64_t> Stats;
  if (FarmMode) {
    Stats = Coordinator->aggregatedStats();
    for (const auto &[Name, Value] : fault::statsSnapshot())
      Stats[Name] += Value; // Keys are already fault.{hits,injected}.*.
    Coordinator->stop();
  } else {
    Stats = Server->statsSnapshot();
    Server->stop();
  }
  fault::installPlan(nullptr);

  uint64_t Injected = 0;
  for (const auto &[Name, Value] : Stats)
    if (Name.rfind("fault.injected.", 0) == 0)
      Injected += Value;
  uint64_t Failovers = Stats.count("farm.requests.failover")
                           ? Stats["farm.requests.failover"]
                           : 0;
  uint64_t Respawns = Stats.count("farm.workers.respawned")
                          ? Stats["farm.workers.respawned"]
                          : 0;

  // Post-mortem cache audit: heal anything the read path hadn't touched
  // yet, then demand a clean second pass and zero temp debris.
  cache::DiskCacheStore Store(CacheDir.string());
  cache::DiskCacheStore::VerifyReport First = Store.verifyAll(true);
  cache::DiskCacheStore::VerifyReport Second = Store.verifyAll(true);
  size_t TempDebris = 0;
  for (const auto &Entry : fs::directory_iterator(CacheDir))
    TempDebris += Entry.path().filename().string().rfind(".tmp", 0) == 0;

  std::printf("\n  %-28s %8llu\n", "requests issued",
              static_cast<unsigned long long>(T.Issued.load()));
  std::printf("  %-28s %8llu\n", "outcomes (must equal issued)",
              static_cast<unsigned long long>(T.Outcomes.load()));
  std::printf("  %-28s %8llu\n", "ok replies",
              static_cast<unsigned long long>(T.Ok.load()));
  std::printf("  %-28s %8llu\n", "compile-failure replies",
              static_cast<unsigned long long>(T.CompileFailed.load()));
  std::printf("  %-28s %8llu\n", "gave up after retries",
              static_cast<unsigned long long>(T.GaveUp.load()));
  std::printf("  %-28s %8llu\n", "retry reconnects",
              static_cast<unsigned long long>(T.Retries.load()));
  std::printf("  %-28s %8llu\n", "faults injected",
              static_cast<unsigned long long>(Injected));
  if (FarmMode) {
    std::printf("  %-28s %8llu\n", "relay failovers",
                static_cast<unsigned long long>(Failovers));
    std::printf("  %-28s %8llu\n", "workers respawned",
                static_cast<unsigned long long>(Respawns));
  }
  std::printf("  %-28s %8zu healed, %zu orphans\n", "cache audit",
              First.Healed, First.Orphans);
  std::printf("  %-28s %8.1f ms\n", "wall time", Ms);

  bool Pass = true;
  auto Check = [&](bool Cond, const char *What) {
    if (!Cond) {
      std::fprintf(stderr, "FAIL: %s\n", What);
      Pass = false;
    }
  };
  Check(T.Outcomes.load() == T.Issued.load(),
        "every request reaches exactly one outcome");
  Check(T.Mismatches.load() == 0,
        "replies byte-identical to fault-free goldens");
  Check(T.Ok.load() > 0, "some requests succeed under the plan");
  Check(Injected > 0, "the plan actually injected faults");
  Check(Second.Corrupt == 0, "no corrupt cache entries survive healing");
  Check(TempDebris == 0, "no temp debris in the cache directory");

  std::printf("%s\n", Pass ? "PASS" : "FAIL");

  fs::remove_all(CacheDir);
  std::error_code EC;
  if (!WorkspaceDir.empty())
    fs::remove_all(WorkspaceDir, EC);
  fs::remove(SocketPath, EC);
  return Pass ? 0 : 1;
}
