//===--- bench_farm.cpp - Multi-process farm scaling over m2cd workers -----===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// Measures what the affinity-sharded farm buys as workers are added on a
// FIXED per-worker resource budget (the provisionable-unit model: every
// worker runs with the same -j, -mem-tier and -pool-cap regardless of
// farm size).  The machine has one core, so this is a *capacity* scaling
// claim, not a CPU-parallelism one: a worker whose affinity shard fits
// its bounded SharedInterfacePool and memory tier serves warm+edit
// traffic without re-analyzing interface closures; a worker serving every
// project rotates its generation continuously and pays the closure again
// and again.
//
// Two traffic shapes are timed, warmed-through-the-farm first:
//   - pure replay: every request rebuilds an unchanged project (all
//     whole-module cache hits — the floor; little per-worker state is
//     exercised, so scaling here is modest and reported honestly).
//   - warm+edit: every request carries a unique procedure-body edit to
//     the project's last library module, pushed over the wire.  The
//     edited module recompiles, which needs its full interface closure
//     analyzed — free on an affinity-hot pool, paid in full after a
//     cap-forced rotation.  This is the edit-compile-loop the farm is
//     for, and the headline number.
//
// Byte-identity is asserted for EVERY farm-routed edit build against a
// cold standalone BuildSession over the same file state (base workspace
// plus that request's pushed edit), diagnostics included.
//
// Results go to stdout; a failed gate exits non-zero.
//
//   bench_farm [--quick] [--chaos]
//     --quick: fewer projects/requests, workers {1,2}, no scaling bar
//     --chaos: adds a 2-worker drain with a worker SIGKILLed mid-run;
//              asserts zero client-visible failures and full identity
//
//===----------------------------------------------------------------------===//

#include "build/BuildSession.h"
#include "codegen/ObjectFile.h"
#include "farm/Farm.h"
#include "net/RemoteClient.h"
#include "workload/WorkloadGenerator.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace m2c;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Start)
             .count() /
         1e6;
}

uint64_t stat(const std::map<std::string, uint64_t> &Stats,
              const std::string &Name) {
  auto It = Stats.find(Name);
  return It == Stats.end() ? 0 : It->second;
}

/// One warm+edit request: project \p Project gets \p EditedText pushed as
/// \p EditedFile, then its root is built.
struct EditRequest {
  size_t Project = 0;
  std::string Root;
  std::string EditedFile;
  std::string EditedText;
};

/// Reference result of one request: per-module object bytes + diagnostics.
struct Reference {
  std::map<std::string, std::string> Images;
  std::string Diagnostics;
};

/// Appends one fresh procedure before the module's exported Work
/// procedure — a body-only change (the .def is untouched), unique per
/// \p EditId, so the edited module misses the cache and recompiles while
/// every sibling replays.
std::string withEdit(const std::string &Base, unsigned EditId) {
  std::string Proc = "PROCEDURE BenchEdit(x: INTEGER): INTEGER;\n"
                     "BEGIN RETURN x * " +
                     std::to_string(3 + EditId % 7) + " + " +
                     std::to_string(EditId) + " END BenchEdit;\n";
  size_t P = Base.rfind("PROCEDURE Work");
  if (P == std::string::npos) {
    std::fprintf(stderr, "FATAL: edit anchor not found\n");
    std::exit(1);
  }
  return Base.substr(0, P) + Proc + Base.substr(P);
}

/// Cold standalone build of \p Roots over base workspace content with one
/// file overridden — the identity reference for a farm-routed edit build.
/// A fresh VFS and interner per call: this is a different process's view
/// in miniature, which is exactly what the farm's workers are.
Reference standalone(const VirtualFileSystem &Base,
                     const std::vector<std::string> &Names,
                     const EditRequest &Req) {
  VirtualFileSystem Files;
  for (const std::string &Name : Names) {
    const SourceBuffer *Buf = Base.lookup(Name);
    Files.addFile(Name, Name == Req.EditedFile ? Req.EditedText : Buf->Text);
  }
  StringInterner Interner;
  driver::CompilerOptions Options;
  Options.Executor = driver::ExecutorKind::Threaded;
  Options.Processors = 2;
  build::BuildSession Session(Files, Interner, std::move(Options));
  build::BuildResult R = Session.build({Req.Root});
  if (!R.Success) {
    std::fprintf(stderr, "FATAL: standalone build of %s failed:\n%s",
                 Req.Root.c_str(), R.DiagnosticText.c_str());
    std::exit(1);
  }
  Reference Ref;
  Ref.Diagnostics = R.DiagnosticText;
  for (const build::ModuleBuild &M : R.Modules)
    Ref.Images[M.Name] = codegen::writeObjectFile(M.Image, Interner);
  return Ref;
}

void checkIdentical(const net::BuildResultMsg &Result, const Reference &Ref,
                    const std::string &Root, const char *What) {
  if (Result.St != net::Status::Ok) {
    std::fprintf(stderr, "FATAL: %s build of %s: %s\n%s", What, Root.c_str(),
                 net::statusName(Result.St), Result.Diagnostics.c_str());
    std::exit(1);
  }
  if (Result.Diagnostics != Ref.Diagnostics) {
    std::fprintf(stderr, "FATAL: %s: %s diagnostics differ from cold "
                         "standalone\n",
                 What, Root.c_str());
    std::exit(1);
  }
  if (Result.Modules.size() != Ref.Images.size()) {
    std::fprintf(stderr, "FATAL: %s: %s module count %zu != reference %zu\n",
                 What, Root.c_str(), Result.Modules.size(), Ref.Images.size());
    std::exit(1);
  }
  for (const net::ModuleArtifact &M : Result.Modules) {
    auto It = Ref.Images.find(M.Name);
    if (It == Ref.Images.end() || M.Object != It->second) {
      std::fprintf(stderr,
                   "FATAL: %s: %s differs from cold standalone bytes\n", What,
                   M.Name.c_str());
      std::exit(1);
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false, Chaos = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--quick")
      Quick = true;
    else if (Arg == "--chaos")
      Chaos = true;
    else {
      std::fprintf(stderr, "usage: bench_farm [--quick] [--chaos]\n");
      return 2;
    }
  }

  const unsigned Clients = 4;
  std::vector<unsigned> WorkerCounts = Quick ? std::vector<unsigned>{1, 2}
                                             : std::vector<unsigned>{1, 2, 4};

  // The fixed worker unit.  PoolCap holds about two projects' interface
  // closures (common + 2x(project+chain) defs); MemTier holds a few
  // projects' artifacts.  Identical at every farm size — adding workers
  // adds capacity, never bigger workers.
  const unsigned WorkerJobs = 2;
  const unsigned PoolCap = 34;
  const size_t MemTierBytes = 256u << 10;

  workload::RequestSetSpec Spec;
  Spec.Name = "Farm";
  Spec.NumProjects = Quick ? 4 : 8;
  Spec.RequestsPerProject = Quick ? 2 : 4;
  Spec.CommonInterfaces = 24;
  Spec.ModulesPerProject = 3;
  Spec.ProjectInterfaces = 2;
  Spec.ProcsPerModule = 2;
  Spec.MeanProcStmts = 4;
  Spec.InterfaceDecls = 384;
  Spec.CommonImportsViaDefs = true;

  VirtualFileSystem Files;
  workload::WorkloadGenerator Gen(Files);
  workload::GeneratedRequestSet Set = Gen.generateRequestSet(Spec);
  std::vector<std::string> Names = Files.names();

  std::printf("Farm scaling on a fixed worker unit "
              "(-j %u, pool-cap %u, mem-tier %zu KiB): %u projects x%u "
              "requests, %u clients\n",
              WorkerJobs, PoolCap, MemTierBytes / 1024, Spec.NumProjects,
              Spec.RequestsPerProject, Clients);

  //===--- Workspace on disk (workers preload it via -C) -------------------===//
  std::string Dir = (std::filesystem::temp_directory_path() /
                     ("bench-farm-" + std::to_string(::getpid())))
                        .string();
  std::string Workspace = Dir + "/ws";
  std::filesystem::create_directories(Workspace);
  for (const std::string &Name : Names) {
    std::ofstream Out(Workspace + "/" + Name, std::ios::binary);
    Out << Files.lookup(Name)->Text;
  }

  //===--- The warm+edit request list --------------------------------------===//
  // Round-robin over projects, like real interleaved edit sessions; each
  // request's edit is globally unique so it always misses the cache.
  std::vector<EditRequest> Edits;
  for (unsigned Rep = 0; Rep < Spec.RequestsPerProject; ++Rep)
    for (size_t P = 0; P < Set.Projects.size(); ++P) {
      const workload::GeneratedProject &Proj = Set.Projects[P];
      EditRequest E;
      E.Project = P;
      E.Root = Proj.Root;
      // The last library module: imports every common and project
      // interface, so recompiling it needs the whole closure analyzed.
      E.EditedFile = Proj.Modules[Proj.Modules.size() - 2] + ".mod";
      E.EditedText =
          withEdit(Files.lookup(E.EditedFile)->Text,
                   static_cast<unsigned>(Rep * 100 + P));
      Edits.push_back(std::move(E));
    }
  const size_t N = Edits.size();

  //===--- Identity references (one cold standalone session per request) ---===//
  std::printf("computing %zu cold standalone references...\n", N);
  std::vector<Reference> Refs;
  Refs.reserve(N);
  for (const EditRequest &E : Edits)
    Refs.push_back(standalone(Files, Names, E));

  // Affinity preview: how the projects shard at each farm size.
  for (unsigned W : WorkerCounts) {
    std::printf("  affinity at %u worker%s:", W, W == 1 ? "" : "s");
    std::vector<unsigned> Count(W, 0);
    for (const workload::GeneratedProject &P : Set.Projects)
      ++Count[farm::Farm::affinityShard({P.Root}, W)];
    for (unsigned C : Count)
      std::printf(" %u", C);
    std::printf("\n");
  }

  //===--- Per-farm-size measurement ---------------------------------------===//
  std::map<unsigned, double> ReplayRps, EditRps;

  auto runFarmSize = [&](unsigned W, bool KillWorkers) {
    std::string Tag = std::to_string(W) + (KillWorkers ? "chaos" : "");
    std::string CacheDir = Dir + "/cache" + Tag;
    farm::FarmConfig Config;
    Config.UnixSocketPath = Dir + "/f" + Tag + ".sock";
    Config.Workers = W;
    Config.SpillThreshold = 8; // Clients <= 4: affinity never spills here.
    Config.MaxPendingRelays = static_cast<unsigned>(N) + Clients;
    Config.Worker.Workspace = Workspace;
    Config.Worker.CacheDir = CacheDir;
    Config.Worker.Jobs = WorkerJobs;
    Config.Worker.MemTierBytes = MemTierBytes;
    Config.Worker.PoolCap = PoolCap;
    farm::Farm Coordinator(Config);
    std::string Err;
    if (!Coordinator.start(Err)) {
      std::fprintf(stderr, "FATAL: farm start (%u workers): %s\n", W,
                   Err.c_str());
      std::exit(1);
    }

    auto OpenClient = [&] {
      std::string E;
      auto C = net::RemoteClient::open(Config.UnixSocketPath, E);
      if (!C)
        std::exit(
            (std::fprintf(stderr, "FATAL: connect: %s\n", E.c_str()), 1));
      return C;
    };

    // Warm pass: every project once, through the farm, so each worker's
    // pool, memory tier and the shared disk cache see its shard.
    {
      auto Client = OpenClient();
      for (const workload::GeneratedProject &P : Set.Projects) {
        net::BuildRequestMsg Req;
        Req.RequestId = Client->nextRequestId();
        Req.Roots = {P.Root};
        net::BuildResultMsg Result;
        if (!Client->build(Req, Result, Err) ||
            Result.St != net::Status::Ok)
          std::exit((std::fprintf(stderr, "FATAL: warm build of %s: %s\n",
                                  P.Root.c_str(), Err.c_str()),
                     1));
      }
    }

    // Pure-replay drain: unchanged projects, shared work-stealing index.
    double ReplayMs;
    {
      std::vector<std::unique_ptr<net::RemoteClient>> Conns;
      for (unsigned C = 0; C < Clients; ++C)
        Conns.push_back(OpenClient());
      std::atomic<size_t> Next{0};
      Clock::time_point Start = Clock::now();
      std::vector<std::thread> Threads;
      for (unsigned C = 0; C < Clients; ++C)
        Threads.emplace_back([&, C] {
          for (;;) {
            size_t I = Next.fetch_add(1);
            if (I >= N)
              return;
            net::BuildRequestMsg Req;
            Req.RequestId = Conns[C]->nextRequestId();
            Req.Roots = {Edits[I].Root};
            net::BuildResultMsg Result;
            std::string E;
            if (!Conns[C]->build(Req, Result, E) ||
                Result.St != net::Status::Ok)
              std::exit((std::fprintf(stderr, "FATAL: replay failed: %s\n",
                                      E.c_str()),
                         1));
          }
        });
      for (std::thread &T : Threads)
        T.join();
      ReplayMs = msSince(Start);
    }

    // Warm+edit drain.  Clients own disjoint projects (an editor per
    // project): requests to one project are serialized, so the pushed
    // file state a request builds against is exactly the one it pushed.
    double EditMs;
    {
      std::vector<std::unique_ptr<net::RemoteClient>> Conns;
      for (unsigned C = 0; C < Clients; ++C)
        Conns.push_back(OpenClient());
      Clock::time_point Start = Clock::now();
      std::vector<std::thread> Threads;
      for (unsigned C = 0; C < Clients; ++C)
        Threads.emplace_back([&, C] {
          for (size_t I = 0; I < N; ++I) {
            if (Edits[I].Project % Clients != C)
              continue;
            net::BuildRequestMsg Req;
            Req.RequestId = Conns[C]->nextRequestId();
            Req.Roots = {Edits[I].Root};
            Req.Files.emplace_back(Edits[I].EditedFile, Edits[I].EditedText);
            net::BuildResultMsg Result;
            std::string E;
            if (!Conns[C]->build(Req, Result, E))
              std::exit((std::fprintf(stderr, "FATAL: edit build failed: "
                                              "%s\n",
                                      E.c_str()),
                         1));
            checkIdentical(Result, Refs[I], Edits[I].Root,
                           KillWorkers ? "chaos" : "warm+edit");
          }
        });
      std::thread Killer;
      if (KillWorkers)
        // SIGKILL one worker while the drain is hot, then the other
        // later: every in-flight relay on the victim must fail over and
        // still deliver identical bytes.
        Killer = std::thread([&] {
          std::this_thread::sleep_for(std::chrono::milliseconds(150));
          Coordinator.killWorker(0);
          std::this_thread::sleep_for(std::chrono::milliseconds(400));
          Coordinator.killWorker(1 % W);
        });
      for (std::thread &T : Threads)
        T.join();
      if (Killer.joinable())
        Killer.join();
      EditMs = msSince(Start);
    }

    std::map<std::string, uint64_t> Stats = Coordinator.aggregatedStats();
    Coordinator.stop();

    double RRps = N / (ReplayMs / 1e3), ERps = N / (EditMs / 1e3);
    std::printf("  %u worker%s%s: replay %7.1f req/s, warm+edit %7.1f "
                "req/s  (cap rotations %llu, failovers %llu, respawns "
                "%llu)\n",
                W, W == 1 ? " " : "s", KillWorkers ? " +chaos" : "       ",
                RRps, ERps,
                static_cast<unsigned long long>(
                    stat(Stats, "service.pool.caprotations")),
                static_cast<unsigned long long>(
                    stat(Stats, "farm.requests.failover")),
                static_cast<unsigned long long>(
                    stat(Stats, "farm.workers.respawned")));
    if (KillWorkers) {
      if (!stat(Stats, "farm.workers.respawned")) {
        std::fprintf(stderr, "FATAL: chaos run respawned no worker\n");
        std::exit(1);
      }
    } else {
      ReplayRps[W] = RRps;
      EditRps[W] = ERps;
    }
  };

  for (unsigned W : WorkerCounts)
    runFarmSize(W, /*KillWorkers=*/false);
  if (Chaos)
    runFarmSize(2, /*KillWorkers=*/true);

  const unsigned WMax = WorkerCounts.back();
  double ReplayScaling = ReplayRps[WMax] / ReplayRps[1];
  double EditScaling = EditRps[WMax] / EditRps[1];
  std::printf("\n  identity: every farm-routed edit build byte-identical "
              "to a cold standalone session (diagnostics included)\n");
  std::printf("  scaling %u vs 1 worker: pure replay %.2fx, warm+edit "
              "%.2fx\n",
              WMax, ReplayScaling, EditScaling);

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);

  // The headline bar: on one shared machine, 4 fixed-size workers must
  // serve warm+edit traffic at >= 2.5x one worker's rate — capacity
  // scaling from affinity-hot pools and tiers, not from extra cores.
  if (!Quick && EditScaling < 2.5) {
    std::fprintf(stderr, "FATAL: warm+edit scaling %.2fx below the 2.5x "
                         "bar\n",
                 EditScaling);
    return 1;
  }
  return 0;
}
