//===--- BuildSession.cpp - Whole-project concurrent builds ---------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "build/BuildSession.h"

#include "build/BuildGraph.h"
#include "build/InterfaceSet.h"
#include "build/ModulePipeline.h"
#include "build/TaskSpawner.h"
#include "cache/CachePlanner.h"
#include "cache/CompilationCache.h"
#include "opt/PassManager.h"
#include "sched/SimulatedExecutor.h"
#include "sched/ThreadedExecutor.h"
#include "sema/Compilation.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace m2c;
using namespace m2c::build;
using namespace m2c::driver;
using namespace m2c::sched;
using namespace m2c::sema;

const ModuleBuild *BuildResult::module(std::string_view Name) const {
  for (const ModuleBuild &M : Modules)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

namespace {
using Clock = std::chrono::steady_clock;

uint64_t wallSince(Clock::time_point From) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           From)
          .count());
}
} // namespace

BuildResult BuildSession::build(const std::vector<std::string> &Roots) {
  // A standalone session is a private generation, wired the way the
  // service's interface pool wires a shared one: its own Compilation, an
  // InterfaceSet on an untagged spawner (its tasks take the tag of the
  // request that starts them), the discovered graph, and the
  // process-lifetime executor for the processor count or a private
  // simulated one.
  SessionExternals Ext;
  Ext.Comp = std::make_shared<Compilation>(
      Files, Interner, CompilationOptions{Options.Strategy, Options.Sharing});
  std::unique_ptr<SimulatedExecutor> Sim;
  if (Options.Executor == ExecutorKind::Simulated)
    Sim = std::make_unique<SimulatedExecutor>(Options.Processors,
                                              Options.Cost);
  Ext.Exec = Sim ? static_cast<Executor *>(Sim.get())
                 : &ThreadedExecutor::shared(Options.Processors);
  TaskSpawner Spawner(*Ext.Exec);
  InterfaceSet Defs(*Ext.Comp, Spawner);
  Ext.Defs = &Defs;
  {
    // Discovery closes over the import graph before anything is
    // scheduled, charged like any other sequential phase.
    SequentialContext Ctx(Options.Cost);
    ScopedContext Installed(Ctx);
    auto Start = Clock::now();
    Ext.Graph =
        BuildGraph::discover(Files, Interner, Ext.Comp->Builtins, Roots);
    Ext.DiscoveryUnits = Sim ? Ctx.elapsedUnits() : wallSince(Start);
  }
  return build(Roots, std::move(Ext));
}

BuildResult BuildSession::build(const std::vector<std::string> &Roots,
                                SessionExternals Ext) {
  BuildResult Result;
  std::shared_ptr<Compilation> Comp = Ext.Comp;
  Result.Compilation = Comp;
  Result.KeepAlive = Ext.KeepAlive;
  const BuildGraph &Graph = Ext.Graph;

  // The build's pass pipeline: one manager shared by every codegen task
  // of every pipeline; counters accumulate in a build-local set.
  opt::PassManager OwnedPasses = opt::PassManager::forLevel(Options.Level);
  const opt::PassManager *Passes =
      Options.Passes ? Options.Passes : &OwnedPasses;
  const std::string PassConfig = Passes->configString();
  StatisticSet LocalOptStats;
  driver::CompilerOptions RunOptions = Options;
  RunOptions.Passes = Passes->empty() ? nullptr : Passes;
  RunOptions.OptStats = &LocalOptStats;

  // Side work (discovery, cache probe and store, setup's replay of cached
  // units) in the run's clock: virtual units when simulated, wall
  // nanoseconds when threaded.
  const bool Threaded = Options.Executor == ExecutorKind::Threaded;
  uint64_t SideUnits = Ext.DiscoveryUnits;

  // Request-scoped diagnostics: location-less conditions go here, and at
  // the end the request's slice of the Compilation's engine is merged in,
  // so a request sharing its generation with peers renders exactly what
  // it alone caused.
  DiagnosticsEngine LocalDiags;
  for (const std::string &Root : Roots) {
    const BuildNode *N = Graph.node(Interner.intern(Root));
    if (!N || !N->HasImpl)
      LocalDiags.error(SourceLocation(),
                       "cannot find module file '" +
                           VirtualFileSystem::modFileName(Root) + "'");
  }

  // Interface cycles can never complete: analysis of each .def waits on
  // the interfaces it imports, so a cycle would deadlock the session.
  // Refuse the whole build with a deterministic diagnostic instead.
  if (!Graph.interfaceCycle().empty()) {
    std::string Message = "import cycle among interfaces:";
    for (size_t I = 0; I < Graph.interfaceCycle().size(); ++I) {
      Message += I == 0 ? " " : " -> ";
      Message += Interner.spelling(Graph.interfaceCycle()[I]);
    }
    LocalDiags.error(SourceLocation(), std::move(Message));
    Result.Success = false;
    Result.DiagnosticText = LocalDiags.render(&Files);
    Result.ElapsedUnits = SideUnits;
    return Result;
  }

  // The request's file set — its own .mod files plus its interface
  // closure's .def files — scopes every later read of the Compilation's
  // diagnostics engine.  Missing interfaces are synthesized here from the
  // graph: the InterfaceSet reports them location-less into that engine,
  // where a per-file filter cannot see them.
  std::unordered_set<uint32_t> RequestFiles;
  for (Symbol Mod : Graph.compileOrder())
    if (const SourceBuffer *Buf = Files.lookup(
            VirtualFileSystem::modFileName(Interner.spelling(Mod))))
      RequestFiles.insert(Buf->Id.index());
  for (Symbol Def : Graph.sessionInterfaces()) {
    std::string FileName =
        VirtualFileSystem::defFileName(Interner.spelling(Def));
    if (const SourceBuffer *Buf = Files.lookup(FileName))
      RequestFiles.insert(Buf->Id.index());
    else
      LocalDiags.error(SourceLocation(),
                       "cannot find interface file '" + FileName + "'");
  }

  // Cache prepass, module by module.  Whole-module hits never get a
  // pipeline; everything else carries its plan into the shared run.
  struct PendingModule {
    Symbol Name;
    std::optional<cache::CachePlan> Plan;
  };
  std::vector<PendingModule> Pending;
  for (Symbol Mod : Graph.compileOrder()) {
    std::string_view Spelling = Interner.spelling(Mod);
    if (!Options.Cache) {
      Pending.push_back({Mod, std::nullopt});
      continue;
    }
    auto Start = Clock::now();
    cache::CachePlanner Planner(
        Files, Interner, *Options.Cache,
        cache::CacheFingerprint{Options.Strategy, Options.Sharing, PassConfig,
                                "conc"},
        Options.Cost);
    // The graph already knows the module's interface closure, so the
    // probe takes (memoized) hashes instead of lexing every interface.
    std::vector<std::string> ClosureFiles;
    for (Symbol Def : Graph.interfaceClosureSet(Mod))
      ClosureFiles.push_back(
          VirtualFileSystem::defFileName(Interner.spelling(Def)));
    cache::CachePlan Plan = Planner.plan(Spelling, &ClosureFiles);
    SideUnits += Threaded ? wallSince(Start) : Plan.ProbeUnits;
    if (Plan.ModuleHit) {
      ModuleBuild MB;
      MB.Name = std::string(Spelling);
      MB.Image = std::move(Plan.Module->Image);
      MB.FromCache = true;
      MB.StreamCount = static_cast<size_t>(Plan.Module->StreamCount);
      Result.Modules.push_back(std::move(MB));
      continue;
    }
    Pending.push_back({Mod, std::move(Plan)});
  }

  // The shared run: every pending module's pipeline as ONE request on the
  // generation's executor, all interfaces parsed once by its InterfaceSet.
  uint64_t InterfaceStreams = 0;
  uint64_t InterfaceParses = 0;
  uint64_t ProcStreams = 0;
  uint64_t ExecUnits = 0;
  if (!Pending.empty()) {
    Executor &Exec = *Ext.Exec;
    InterfaceSet &Defs = *Ext.Defs;
    std::shared_ptr<void> Tag = Exec.openRequest(Options.Trace);
    TaskSpawner Spawner(Exec, Tag);
    // Setup below runs on this (non-task) thread and can first-touch
    // interface streams through the generation's untagged spawner; the
    // scope charges those spawns to this request so awaitRequest() waits
    // for them too.
    TaskSpawner::RequestTagScope TagScope(Tag);
    std::vector<std::unique_ptr<ModulePipeline>> Pipelines;
    {
      // Setup replays cached main-stream units; charge that to the cache
      // ledger, not the executor (its wall time is inside the request).
      // Pipelines are wired imports-first so interface streams start
      // before their importers are scheduled.
      SequentialContext Ctx(Options.Cost);
      ScopedContext Installed(Ctx);
      for (PendingModule &PM : Pending) {
        auto Pipe = std::make_unique<ModulePipeline>(
            RunOptions, *Comp, Interner.spelling(PM.Name), Spawner,
            &LocalDiags);
        if (PM.Plan && PM.Plan->Valid)
          Pipe->setPlan(&*PM.Plan);
        Pipe->setup();
        Pipelines.push_back(std::move(Pipe));
      }
      if (!Threaded)
        SideUnits += Ctx.elapsedUnits();
    }
    // Threaded tasks have been running since setup; wait for this
    // request's subgraph, then let the fair share rise.
    ExecUnits = Exec.awaitRequest(Tag);
    Result.SchedStats = Exec.closeRequest(Tag);
    // A shared interface stream first touched by a peer request runs
    // under the peer's tag, but its diagnostics land in .def files this
    // request's slice reads below; settle the whole set before judging
    // cleanliness so a late interface error is never missed.
    Defs.quiesce();

    for (size_t I = 0; I < Pipelines.size(); ++I) {
      ModulePipeline &Pipe = *Pipelines[I];
      ModuleBuild MB;
      MB.Name = std::string(Interner.spelling(Pipe.moduleName()));
      MB.Image = Pipe.finalizeImage();
      MB.PlanDropped = Pipe.planDropped();
      // Stream-count parity with a single-module compile of this module:
      // 1 main stream + its procedure streams + its own interface
      // closure (the session shares def streams, so the session total is
      // smaller than the sum of these).
      MB.StreamCount = 1 + Pipe.procStreamCount() +
                       Graph.interfaceClosure(Pipe.moduleName());
      ProcStreams += Pipe.procStreamCount();
      Result.Modules.push_back(std::move(MB));
    }

    // Store phase: the gate is session-wide — only a completely clean
    // session stores, so a replayed entry never owes a diagnostic from
    // any module — plus per-module plan integrity.  Cleanliness is judged
    // over the request's own file slice (a peer request's broken module
    // must not block this one's stores).
    bool Clean =
        LocalDiags.count() == 0 && Comp->Diags.countIn(RequestFiles) == 0;
    if (Options.Cache && Clean) {
      SequentialContext Ctx(Options.Cost);
      ScopedContext Installed(Ctx);
      auto Start = Clock::now();
      for (size_t I = 0; I < Pipelines.size(); ++I) {
        ModulePipeline &Pipe = *Pipelines[I];
        if (!Pipe.plan() || Pipe.planDropped())
          continue;
        const ModuleBuild *MB =
            Result.module(Interner.spelling(Pipe.moduleName()));
        storeCacheEntries(*Options.Cache, *Pipe.plan(), MB->Image,
                          static_cast<uint64_t>(MB->StreamCount), Interner);
      }
      SideUnits += Threaded ? wallSince(Start) : Ctx.elapsedUnits();
    }

    // Under a service these are the shared pool's service-lifetime
    // counters (interfaces are parsed once per generation, not per
    // request).
    InterfaceStreams = Defs.streamCount();
    InterfaceParses = Defs.parseCount();
  }

  // Cached modules were recorded during the prepass, compiled ones after
  // the run; restore imports-first order for the caller.
  {
    std::unordered_map<std::string_view, size_t> OrderIndex;
    for (size_t I = 0; I < Graph.compileOrder().size(); ++I)
      OrderIndex.emplace(Interner.spelling(Graph.compileOrder()[I]), I);
    std::stable_sort(Result.Modules.begin(), Result.Modules.end(),
                     [&OrderIndex](const ModuleBuild &A,
                                   const ModuleBuild &B) {
                       return OrderIndex[A.Name] < OrderIndex[B.Name];
                     });
  }

  // Merge the request's slice of the Compilation's engine into the local
  // one and render everything in one stable order.
  for (const Diagnostic &D : Comp->Diags.sortedIn(RequestFiles))
    LocalDiags.report(D.Severity, D.Loc, D.Message);
  Result.Success = !LocalDiags.hasErrors();
  Result.DiagnosticText = LocalDiags.render(&Files);
  Result.ElapsedUnits = ExecUnits + SideUnits;
  if (!Threaded)
    Result.SimSeconds = static_cast<double>(Result.ElapsedUnits) /
                        static_cast<double>(Options.Cost.UnitsPerSecond);
  if (Options.Cache)
    Result.CacheStats = Options.Cache->stats().snapshot();

  Result.BuildStats["build.modules.total"] = Graph.compileOrder().size();
  Result.BuildStats["build.modules.compiled"] = Pending.size();
  Result.BuildStats["build.modules.cached"] =
      Graph.compileOrder().size() - Pending.size();
  Result.BuildStats["build.interface.streams"] = InterfaceStreams;
  Result.BuildStats["build.interface.parses"] = InterfaceParses;
  Result.BuildStats["build.proc.streams"] = ProcStreams;
  Result.BuildStats["build.discovery.units"] = Ext.DiscoveryUnits;
  Result.OptStats = LocalOptStats.snapshot();
  return Result;
}
