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

BuildResult BuildSession::build(const std::vector<std::string> &Roots) {
  return buildImpl(Roots, nullptr);
}

BuildResult BuildSession::build(const std::vector<std::string> &Roots,
                                SessionExternals Ext) {
  return buildImpl(Roots, &Ext);
}

BuildResult BuildSession::buildImpl(const std::vector<std::string> &Roots,
                                    SessionExternals *Ext) {
  BuildResult Result;
  std::shared_ptr<Compilation> Comp;
  if (Ext) {
    Comp = Ext->Comp;
    Result.KeepAlive = Ext->KeepAlive;
  } else {
    Comp = std::make_shared<Compilation>(
        Files, Interner,
        CompilationOptions{Options.Strategy, Options.Sharing});
  }
  Result.Compilation = Comp;

  // The build's pass pipeline: one manager shared by every codegen task
  // of every pipeline; counters accumulate in a build-local set and are
  // folded into the service-lifetime sink afterwards.
  opt::PassManager OwnedPasses = opt::PassManager::forLevel(Options.Level);
  const opt::PassManager *Passes =
      Options.Passes ? Options.Passes : &OwnedPasses;
  const std::string PassConfig = Passes->configString();
  StatisticSet LocalOptStats;
  driver::CompilerOptions RunOptions = Options;
  RunOptions.Passes = Passes->empty() ? nullptr : Passes;
  RunOptions.OptStats = &LocalOptStats;

  bool Threaded = Ext || Options.Executor == ExecutorKind::Threaded;
  uint64_t SideUnits = 0;  // discovery + cache work, virtual units
  uint64_t SideWallNs = 0; // the same work in wall time
  using Clock = std::chrono::steady_clock;
  auto WallSince = [](Clock::time_point From) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             From)
            .count());
  };

  // Request-scoped diagnostics (service mode): location-less conditions
  // go here instead of the shared engine, and at the end the request's
  // slice of the shared engine is merged in, so each request renders
  // exactly what a standalone session would.
  DiagnosticsEngine LocalDiags;
  auto SessionStart = Clock::now();

  // Discovery: close over the import graph before anything is scheduled.
  // Charged like any other sequential phase so session times stay honest.
  // The service discovers before admission and hands the graph in.
  BuildGraph Graph;
  uint64_t DiscoveryUnits = 0;
  if (Ext) {
    Graph = std::move(Ext->Graph);
    DiscoveryUnits = Ext->DiscoveryWallNs;
  } else {
    SequentialContext Ctx(Options.Cost);
    ScopedContext Installed(Ctx);
    auto Start = Clock::now();
    Graph = BuildGraph::discover(Files, Interner, Comp->Builtins, Roots);
    DiscoveryUnits = Ctx.elapsedUnits();
    SideUnits += DiscoveryUnits;
    SideWallNs += WallSince(Start);
  }
  for (const std::string &Root : Roots) {
    const BuildNode *N = Graph.node(Interner.intern(Root));
    if (!N || !N->HasImpl) {
      std::string Message = "cannot find module file '" +
                            VirtualFileSystem::modFileName(Root) + "'";
      if (Ext)
        LocalDiags.error(SourceLocation(), std::move(Message));
      else
        Comp->Diags.error(SourceLocation(), std::move(Message));
    }
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
    if (Ext)
      LocalDiags.error(SourceLocation(), std::move(Message));
    else
      Comp->Diags.error(SourceLocation(), std::move(Message));
    Result.Success = false;
    Result.DiagnosticText =
        Ext ? LocalDiags.render(&Files) : Comp->Diags.render(&Files);
    Result.ElapsedUnits = Threaded ? SideWallNs : SideUnits;
    return Result;
  }

  // Service mode: the request's file set — its own .mod files plus its
  // interface closure's .def files — scopes every later read of the
  // shared diagnostics engine.  Missing interfaces are synthesized here
  // from the graph: the shared InterfaceSet reports them location-less
  // into the shared engine, where a per-file filter cannot see them.
  std::unordered_set<uint32_t> RequestFiles;
  if (Ext) {
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
    // Service mode hands the planner the module's already-discovered
    // interface closure, replacing the probe's per-interface lex walk
    // with (memoized) hash lookups.  Standalone sessions keep the
    // unassisted probe so their simulated probe units stay as charged.
    std::vector<std::string> ClosureFiles;
    if (Ext) {
      for (Symbol Def : Graph.interfaceClosureSet(Mod))
        ClosureFiles.push_back(
            VirtualFileSystem::defFileName(Interner.spelling(Def)));
    }
    cache::CachePlan Plan =
        Planner.plan(Spelling, Ext ? &ClosureFiles : nullptr);
    SideUnits += Plan.ProbeUnits;
    SideWallNs += WallSince(Start);
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

  // The shared run: every pending module's pipeline on ONE executor, all
  // interfaces parsed once by one InterfaceSet.
  uint64_t InterfaceStreams = 0;
  uint64_t InterfaceParses = 0;
  uint64_t ProcStreams = 0;
  uint64_t ExecUnits = 0; // the run's virtual units or request wall time
  if (!Pending.empty()) {
    // The build is one request: on the service's executor, on the
    // process-lifetime executor for its processor count, or on a private
    // simulated executor.
    std::unique_ptr<Executor> Sim;
    if (!Threaded)
      Sim = std::make_unique<SimulatedExecutor>(Options.Processors,
                                                Options.Cost);
    Executor &Exec = Sim   ? *Sim
                     : Ext ? *Ext->Exec
                           : ThreadedExecutor::shared(Options.Processors);
    std::shared_ptr<void> Tag = Exec.openRequest(Options.Trace);
    TaskSpawner Spawner(Exec, Tag);
    // Setup below runs on this (non-task) thread and can first-touch
    // shared interface streams through the pool's untagged spawner; the
    // scope charges those spawns to this request so awaitRequest() waits
    // for them too.
    TaskSpawner::RequestTagScope TagScope(Tag);
    std::unique_ptr<InterfaceSet> OwnedDefs;
    InterfaceSet *Defs = Ext ? Ext->SharedDefs : nullptr;
    if (!Defs) {
      OwnedDefs = std::make_unique<InterfaceSet>(*Comp, Spawner);
      Defs = OwnedDefs.get();
    }
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
            Ext ? &LocalDiags : nullptr);
        if (PM.Plan && PM.Plan->Valid)
          Pipe->setPlan(&*PM.Plan);
        Pipe->setup();
        Pipelines.push_back(std::move(Pipe));
      }
      SideUnits += Ctx.elapsedUnits();
    }
    // Threaded tasks have been running since setup; wait for this
    // request's subgraph, then let the fair share rise.
    ExecUnits = Exec.awaitRequest(Tag);
    Result.SchedStats = Exec.closeRequest(Tag);
    // A shared interface stream first touched by a peer request runs
    // under the peer's tag, but its diagnostics land in .def files this
    // request's slice reads below; settle the whole pool before judging
    // cleanliness so a late interface error is never missed.
    Defs->quiesce();

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
    // any module — plus per-module plan integrity.  A service request
    // judges cleanliness over its own file slice of the shared engine (a
    // peer request's broken module must not block this one's stores).
    bool Clean = Ext ? (LocalDiags.count() == 0 &&
                        Comp->Diags.countIn(RequestFiles) == 0)
                     : Comp->Diags.count() == 0;
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
      SideUnits += Ctx.elapsedUnits();
      SideWallNs += WallSince(Start);
    }

    // Under a service these are the shared pool's service-lifetime
    // counters (interfaces are parsed once per generation, not per
    // request).
    InterfaceStreams = Defs->streamCount();
    InterfaceParses = Defs->parseCount();
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

  if (Ext) {
    // Merge the request's slice of the shared engine into the local one
    // (already deduplicated) and render everything in one stable order.
    for (const Diagnostic &D : Comp->Diags.sortedIn(RequestFiles))
      LocalDiags.report(D.Severity, D.Loc, D.Message);
    Result.Success = !LocalDiags.hasErrors();
    Result.DiagnosticText = LocalDiags.render(&Files);
    Result.ElapsedUnits = WallSince(SessionStart) + DiscoveryUnits;
  } else {
    Result.Success = !Comp->Diags.hasErrors();
    Result.DiagnosticText = Comp->Diags.render(&Files);
    Result.ElapsedUnits = ExecUnits + (Threaded ? SideWallNs : SideUnits);
  }
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
  Result.BuildStats["build.discovery.units"] = DiscoveryUnits;

  Result.OptStats = LocalOptStats.snapshot();
  if (Ext && Ext->OptStats)
    for (const auto &[Name, Value] : Result.OptStats)
      Ext->OptStats->add(Name, Value);
  return Result;
}
