//===--- BuildService.cpp - Long-lived multi-tenant build service ---------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "service/BuildService.h"

#include "build/BuildGraph.h"
#include "cache/CacheStore.h"
#include "driver/CompilerOptions.h"
#include "fault/FaultPlan.h"
#include "sched/ExecContext.h"

#include <chrono>

using namespace m2c;
using namespace m2c::service;

BuildService::BuildService(VirtualFileSystem &Files, StringInterner &Interner,
                           ServiceConfig Config)
    : Files(Files), Interner(Interner), Config(Config),
      Exec(Config.Workers),
      Pool(Files, Interner, Exec,
           sema::CompilationOptions{Config.Strategy, Config.Sharing},
           Config.MaxPooledInterfaces) {
  std::unique_ptr<cache::CacheStore> Disk;
  if (!Config.CacheDir.empty())
    Disk = std::make_unique<cache::DiskCacheStore>(Config.CacheDir);
  auto TierPtr = std::make_unique<MemoryCacheTier>(std::move(Disk),
                                                   Config.MemoryTierBytes);
  Tier = TierPtr.get();
  Cache = std::make_unique<cache::CompilationCache>(std::move(TierPtr));
}

void BuildService::lockModules(const std::vector<std::string> &Modules) {
  std::unique_lock<std::mutex> Lock(InFlightM);
  InFlightCv.wait(Lock, [this, &Modules] {
    for (const std::string &M : Modules)
      if (InFlightModules.count(M))
        return false;
    return true;
  });
  for (const std::string &M : Modules)
    InFlightModules.insert(M);
}

void BuildService::unlockModules(const std::vector<std::string> &Modules) {
  {
    std::lock_guard<std::mutex> Lock(InFlightM);
    for (const std::string &M : Modules)
      InFlightModules.erase(M);
  }
  InFlightCv.notify_all();
}

build::BuildResult BuildService::submit(const std::vector<std::string> &Roots,
                                        const RequestControl *Ctrl,
                                        std::optional<opt::OptLevel> Level) {
  using Clock = std::chrono::steady_clock;
  ServiceStats.add("service.requests.submitted");

  // Admission failpoint: models a request thread dying between admission
  // and compilation (resource exhaustion, a bug in setup code).  The
  // server maps the exception to a clean Internal reply.
  if (M2C_FAULT_HIT("service.admit").fail()) {
    ServiceStats.add("service.requests.faulted");
    throw fault::InjectedFault("service.admit");
  }

  // Abandonment checkpoints — on entry, after discovery and after the
  // module locks: the server may have answered the client (deadline,
  // cancel) while this request waited, and compiling it now would only
  // take executor time from live requests.
  auto Abandoned = [this, Ctrl] {
    if (!Ctrl || !Ctrl->abandoned())
      return false;
    ServiceStats.add("service.requests.aborted");
    return true;
  };
  auto AbortedResult = [] {
    build::BuildResult R;
    R.Aborted = true;
    return R;
  };
  if (Abandoned())
    return AbortedResult();

  // Per-request discovery: the graph tells us the request's compile set
  // and .def closure before anything joins shared state.  Discovery needs
  // a builtin scope only to parent scratch scopes; any generation's works
  // and none is mutated.
  auto DiscStart = Clock::now();
  build::BuildGraph Graph;
  {
    sched::SequentialContext Ctx;
    sched::ScopedContext Installed(Ctx);
    std::shared_ptr<InterfaceGeneration> Scratch = Pool.acquire({});
    Graph = build::BuildGraph::discover(Files, Interner,
                                        Scratch->Comp->Builtins, Roots,
                                        /*UseMemo=*/true);
  }
  uint64_t DiscoveryNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           DiscStart)
          .count());

  std::vector<std::string> DefFiles;
  for (Symbol Def : Graph.sessionInterfaces())
    DefFiles.push_back(
        VirtualFileSystem::defFileName(Interner.spelling(Def)));
  std::vector<std::string> CompileSet;
  for (Symbol Mod : Graph.compileOrder())
    CompileSet.push_back(std::string(Interner.spelling(Mod)));

  if (Abandoned())
    return AbortedResult();

  // Interface generation: rotated if any .def this request depends on
  // changed since the current generation parsed it.
  std::shared_ptr<InterfaceGeneration> Gen = Pool.acquire(DefFiles);

  // Concurrent requests may overlap arbitrarily in interfaces but not in
  // the implementation modules they compile (the shared registry is
  // once-only per generation); rebuilding the same module twice at once
  // is also pure waste — the second request replays the first's cache
  // entries instead.
  ModuleLocks Locked(*this, std::move(CompileSet));

  // Last checkpoint: module locks may have blocked on a peer compiling
  // the same modules; past here the build runs to completion.
  if (Abandoned())
    return AbortedResult();

  driver::CompilerOptions Opts;
  Opts.Strategy = Config.Strategy;
  Opts.Sharing = Config.Sharing;
  Opts.Level = Level.value_or(Config.Level);
  Opts.Executor = driver::ExecutorKind::Threaded;
  Opts.Processors = Config.Workers;
  Opts.Cache = Cache.get();

  build::SessionExternals Ext;
  Ext.Exec = &Exec;
  Ext.Comp = Gen->Comp;
  Ext.Defs = Gen->Defs.get();
  Ext.Graph = std::move(Graph);
  Ext.DiscoveryUnits = DiscoveryNs; // A threaded run's clock is wall ns.
  Ext.KeepAlive = Gen;

  build::BuildSession Session(Files, Interner, Opts);
  build::BuildResult Result = Session.build(Roots, std::move(Ext));

  // opt.* folds into the STATS reply.
  for (const auto &[Name, Value] : Result.OptStats)
    ServiceStats.add(Name, Value);
  ServiceStats.add(Result.Success ? "service.requests.succeeded"
                                  : "service.requests.failed");
  return Result;
}

std::map<std::string, uint64_t> BuildService::statsSnapshot() {
  std::map<std::string, uint64_t> Merged = Exec.stats().snapshot();
  auto Fold = [&Merged](const std::map<std::string, uint64_t> &From) {
    for (const auto &[Name, Value] : From)
      Merged[Name] += Value;
  };
  Fold(Cache->stats().snapshot());
  Fold(Tier->stats().snapshot());
  // Disk-store integrity counters (cache.disk.*): corrupt entries healed
  // on read, orphaned temps swept at startup.
  if (auto *Disk = dynamic_cast<cache::DiskCacheStore *>(Tier->backing()))
    Fold(Disk->stats().snapshot());
  Fold(ServiceStats.snapshot());
  Merged["service.generations"] = Pool.generationCount();
  Merged["service.pool.caprotations"] = Pool.capRotationCount();
  Merged["service.interface.parses"] = Pool.parseCount();
  Merged["service.interface.streams"] = Pool.streamCount();
  return Merged;
}
