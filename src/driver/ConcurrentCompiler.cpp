//===--- ConcurrentCompiler.cpp - The concurrent compiler ------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "driver/ConcurrentCompiler.h"

#include "build/InterfaceSet.h"
#include "build/ModulePipeline.h"
#include "build/TaskSpawner.h"
#include "cache/CachePlanner.h"
#include "cache/CompilationCache.h"
#include "opt/PassManager.h"
#include "sched/SimulatedExecutor.h"
#include "sched/ThreadedExecutor.h"

#include <chrono>

using namespace m2c;
using namespace m2c::driver;
using namespace m2c::sched;
using namespace m2c::sema;

CompileResult ConcurrentCompiler::compile(std::string_view ModuleName) {
  CompileResult Result;
  auto Comp = std::make_shared<Compilation>(
      Files, Interner,
      CompilationOptions{Options.Strategy, Options.Sharing});
  Result.Compilation = Comp;

  // The run's pass pipeline: honor an externally supplied manager (a
  // build session sharing one across requests), else build the standard
  // roster for the requested level.  Codegen tasks read the pointers
  // through the options the pipeline carries — a per-run copy, so the
  // member never outlives this call holding them.
  opt::PassManager OwnedPasses = opt::PassManager::forLevel(Options.Level);
  StatisticSet LocalOptStats;
  driver::CompilerOptions RunOptions = Options;
  if (!RunOptions.Passes)
    RunOptions.Passes = OwnedPasses.empty() ? nullptr : &OwnedPasses;
  if (!RunOptions.OptStats)
    RunOptions.OptStats = &LocalOptStats;
  StatisticSet *OptStats = RunOptions.OptStats;
  const std::string PassConfig = RunOptions.Passes
                                     ? RunOptions.Passes->configString()
                                     : opt::passConfigString(opt::OptLevel::O0);

  std::string ModFile = VirtualFileSystem::modFileName(ModuleName);
  if (!Files.exists(ModFile)) {
    Comp->Diags.error(SourceLocation(),
                      "cannot find module file '" + ModFile + "'");
    Result.DiagnosticText = Comp->Diags.render(&Files);
    return Result;
  }

  // Cache prepass.  Probe cost is accounted in the run's own time scale:
  // virtual units under the simulated executor, wall nanoseconds under
  // the threaded one — speedup and warm/cold comparisons stay honest.
  cache::CachePlan Plan;
  uint64_t CacheUnits = 0;  // virtual units spent probing/injecting/storing
  uint64_t CacheWallNs = 0; // same work in wall time (threaded runs)
  using Clock = std::chrono::steady_clock;
  auto WallSince = [](Clock::time_point From) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             From)
            .count());
  };
  if (Options.Cache) {
    auto Start = Clock::now();
    cache::CachePlanner Planner(
        Files, Interner, *Options.Cache,
        cache::CacheFingerprint{Options.Strategy, Options.Sharing, PassConfig,
                                "conc"},
        Options.Cost);
    Plan = Planner.plan(ModuleName);
    CacheUnits += Plan.ProbeUnits;
    CacheWallNs += WallSince(Start);

    if (Plan.ModuleHit) {
      // Whole-module fast path: no source changed since a cached
      // zero-diagnostic compile; replay the image without an executor.
      Result.Image = std::move(Plan.Module->Image);
      Result.Success = true;
      Result.StreamCount = static_cast<size_t>(Plan.Module->StreamCount);
      Result.ElapsedUnits =
          Options.Executor == ExecutorKind::Threaded ? CacheWallNs
                                                     : CacheUnits;
      if (Options.Executor == ExecutorKind::Simulated)
        Result.SimSeconds = static_cast<double>(Result.ElapsedUnits) /
                            static_cast<double>(Options.Cost.UnitsPerSecond);
      Result.CacheStats = Options.Cache->stats().snapshot();
      return Result;
    }
  }

  std::unique_ptr<sched::Executor> Exec;
  if (Options.Executor == ExecutorKind::Threaded)
    Exec = std::make_unique<ThreadedExecutor>(Options.Processors,
                                              Options.Cost);
  else
    Exec = std::make_unique<SimulatedExecutor>(Options.Processors,
                                               Options.Cost);
  Exec->setActivitySink(Options.Trace);

  // One pipeline on one executor — a BuildSession runs many pipelines
  // through one spawner/interface set; the single-module compile is the
  // degenerate session.
  build::TaskSpawner Spawner(*Exec);
  build::InterfaceSet Defs(*Comp, Spawner);
  build::ModulePipeline Pipe(RunOptions, *Comp, ModuleName, Spawner);
  if (Plan.Valid)
    Pipe.setPlan(&Plan);

  {
    // Setup replays the main stream's cached unit (when the plan hit);
    // charge that injection work to the cache ledger, not the executor.
    SequentialContext Ctx(Options.Cost);
    ScopedContext Installed(Ctx);
    auto Start = Clock::now();
    Pipe.setup();
    CacheUnits += Ctx.elapsedUnits();
    CacheWallNs += WallSince(Start);
  }
  Exec->run();

  // The merge task's incremental concatenation has already collected
  // every unit; finalize orders them deterministically.
  Result.Image = Pipe.finalizeImage();
  Result.Success = !Comp->Diags.hasErrors();
  Result.DiagnosticText = Comp->Diags.render(&Files);
  Result.StreamCount = 1 + Pipe.procStreamCount() + Defs.streamCount();

  // Store phase: only fully clean compiles become cache entries, so a
  // replayed entry never owes anyone a diagnostic (count() includes
  // warnings), and a dropped plan's keys no longer describe the units
  // this run produced.
  if (Pipe.plan() && !Pipe.planDropped() && Comp->Diags.count() == 0) {
    SequentialContext Ctx(Options.Cost);
    ScopedContext Installed(Ctx);
    auto Start = Clock::now();
    build::storeCacheEntries(*Options.Cache, Plan, Result.Image,
                             static_cast<uint64_t>(Result.StreamCount),
                             Interner);
    CacheUnits += Ctx.elapsedUnits();
    CacheWallNs += WallSince(Start);
  }

  Result.ElapsedUnits = Exec->elapsedUnits();
  Result.ElapsedUnits +=
      Options.Executor == ExecutorKind::Threaded ? CacheWallNs : CacheUnits;
  if (Options.Executor == ExecutorKind::Simulated)
    Result.SimSeconds = static_cast<double>(Result.ElapsedUnits) /
                        static_cast<double>(Options.Cost.UnitsPerSecond);
  Result.SchedStats = Exec->stats().snapshot();
  if (Options.Cache)
    Result.CacheStats = Options.Cache->stats().snapshot();
  Result.OptStats = OptStats->snapshot();
  return Result;
}
