//===--- BuildSession.h - Whole-project concurrent builds -------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a whole import graph under ONE executor.  A session discovers
/// every module reachable from the given roots, then schedules all of
/// their module pipelines together: one shared Compilation provides the
/// interner, types, diagnostics and the once-only module registry, so
/// each imported definition module is lexed and parsed exactly once per
/// *session* no matter how many modules import it — the paper's
/// interface-once guarantee lifted from one compilation to a project.
/// Inter-module orderings ride on the same scope-completion events that
/// order streams inside one module, so a module's declaration analysis
/// simply waits on (or, with DKY, probes into) the shared interface
/// scopes while sibling modules keep all processors busy.
///
/// With a CompilationCache configured the session consults it per module
/// (whole-module fast path and per-stream replay) and stores back every
/// cleanly compiled module, so cross-module incremental builds recompile
/// only what an edit actually invalidates.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_BUILD_BUILDSESSION_H
#define M2C_BUILD_BUILDSESSION_H

#include "build/BuildGraph.h"
#include "codegen/MCode.h"
#include "driver/CompilerOptions.h"
#include "support/VirtualFileSystem.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace m2c::sema {
class Compilation;
}

namespace m2c::sched {
class ThreadedExecutor;
}

namespace m2c::build {

class InterfaceSet;

/// One module's outcome within a session.
struct ModuleBuild {
  std::string Name;
  codegen::ModuleImage Image;
  bool FromCache = false;   ///< Whole-module fast path; no pipeline ran.
  bool PlanDropped = false; ///< Cache plan abandoned mid-run.
  size_t StreamCount = 0;   ///< 1 + procedures + interface closure.
};

/// Everything a session produces.
struct BuildResult {
  bool Success = false;
  /// Service mode: the request was abandoned (deadline/cancel) at a
  /// checkpoint before compiling; nothing below is meaningful.
  bool Aborted = false;
  std::vector<ModuleBuild> Modules; ///< Imports-first order.

  /// Rendered session diagnostics (all modules, stable source order).
  std::string DiagnosticText;

  /// Virtual units (simulated) or wall nanoseconds (threaded), including
  /// discovery and cache prepass/store work.
  uint64_t ElapsedUnits = 0;
  double SimSeconds = 0.0; ///< ElapsedUnits in simulated seconds.

  std::map<std::string, uint64_t> SchedStats;
  std::map<std::string, uint64_t> CacheStats;
  /// Session counters: build.modules.total/compiled/cached,
  /// build.interface.streams, build.interface.parses,
  /// build.discovery.units, build.proc.streams.
  std::map<std::string, uint64_t> BuildStats;
  /// Middle-end pass counters (opt.units, opt.<pass>.*) for this build;
  /// empty at -O0.
  std::map<std::string, uint64_t> OptStats;

  std::shared_ptr<sema::Compilation> Compilation;

  /// Service mode: keeps the generation (shared Compilation + interface
  /// arenas) alive as long as this result can reach it.
  std::shared_ptr<void> KeepAlive;

  const ModuleBuild *module(std::string_view Name) const;
};

/// Shared state a BuildService hands to a session so it runs as one
/// *request* on the service's persistent infrastructure instead of
/// constructing its own: the tasks go to the service's executor (opened,
/// awaited and closed as one fair-share request), the session joins the
/// service's current Compilation generation — one interner, type context
/// and once-only module registry shared with its concurrent peers — and
/// interface streams come from the service-lifetime InterfaceSet, so a
/// definition module imported by many requests is parsed once per
/// generation, not once per session.
struct SessionExternals {
  sched::ThreadedExecutor *Exec = nullptr; ///< The service's executor.
  std::shared_ptr<sema::Compilation> Comp; ///< The generation's compilation.
  InterfaceSet *SharedDefs = nullptr;      ///< The generation's interfaces.
  BuildGraph Graph;            ///< Pre-discovered by the service.
  uint64_t DiscoveryWallNs = 0; ///< Wall time the discovery took.
  std::shared_ptr<void> KeepAlive; ///< Generation handle (outlives result).
  /// Service-lifetime sink the request's opt.* pass counters are folded
  /// into (so the daemon's STATS reply aggregates them); optional.
  StatisticSet *OptStats = nullptr;
};

/// Runs whole-project builds.  One session object may run one build.
class BuildSession {
public:
  BuildSession(VirtualFileSystem &Files, StringInterner &Interner,
               driver::CompilerOptions Options = driver::CompilerOptions())
      : Files(Files), Interner(Interner), Options(std::move(Options)) {}

  /// Discovers the import graph under \p Roots and compiles every
  /// reachable implementation module under one executor.
  BuildResult build(const std::vector<std::string> &Roots);

  /// Service-mode build: compiles \p Roots as one request on the shared
  /// infrastructure in \p Ext.  Diagnostics are scoped to the request's
  /// own files (its .mod files plus its interface closure's .def files),
  /// so concurrent requests sharing one Compilation each report exactly
  /// what a standalone session would.
  BuildResult build(const std::vector<std::string> &Roots,
                    SessionExternals Ext);

private:
  BuildResult buildImpl(const std::vector<std::string> &Roots,
                        SessionExternals *Ext);

  VirtualFileSystem &Files;
  StringInterner &Interner;
  driver::CompilerOptions Options;
};

} // namespace m2c::build

#endif // M2C_BUILD_BUILDSESSION_H
