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
class Executor;
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

  /// The request's executor time plus its side work (discovery, cache
  /// prepass and store), in virtual units (simulated) or wall nanoseconds
  /// (threaded).
  uint64_t ElapsedUnits = 0;
  double SimSeconds = 0.0; ///< ElapsedUnits in simulated seconds.

  std::map<std::string, uint64_t> SchedStats;
  std::map<std::string, uint64_t> CacheStats;
  /// Session counters: build.modules.total/compiled/cached,
  /// build.interface.streams, build.interface.parses,
  /// build.discovery.units, build.proc.streams.
  std::map<std::string, uint64_t> BuildStats;
  /// Middle-end pass counters (opt.units, opt.<pass>.*) for this build;
  /// empty at -O0.  A build service folds them into its own counters.
  std::map<std::string, uint64_t> OptStats;

  std::shared_ptr<sema::Compilation> Compilation;

  /// Service mode: keeps the generation (shared Compilation + interface
  /// arenas) alive as long as this result can reach it.
  std::shared_ptr<void> KeepAlive;

  const ModuleBuild *module(std::string_view Name) const;
};

/// The generation a session runs in.  A BuildService hands in its
/// current generation, so the session runs as one *request* on the
/// service's persistent infrastructure: the tasks go to the service's
/// executor (opened, awaited and closed as one fair-share request), the
/// session joins the generation's Compilation — one interner, type
/// context and once-only module registry shared with its concurrent
/// peers — and interface streams come from the generation's
/// InterfaceSet, so a definition module imported by many requests is
/// parsed once per generation, not once per session.  A standalone
/// build() sets up a private generation and runs the same request.
struct SessionExternals {
  sched::Executor *Exec = nullptr;         ///< Runs the request's tasks.
  std::shared_ptr<sema::Compilation> Comp; ///< The generation's compilation.
  InterfaceSet *Defs = nullptr;            ///< The generation's interfaces.
  BuildGraph Graph;             ///< The import graph under the roots.
  uint64_t DiscoveryUnits = 0;  ///< Discovery time in the run's clock.
  std::shared_ptr<void> KeepAlive; ///< Generation handle (outlives result).
};

/// Runs whole-project builds.  One session object may run one build.
class BuildSession {
public:
  BuildSession(VirtualFileSystem &Files, StringInterner &Interner,
               driver::CompilerOptions Options = driver::CompilerOptions())
      : Files(Files), Interner(Interner), Options(std::move(Options)) {}

  /// Discovers the import graph under \p Roots and compiles every
  /// reachable implementation module as one request of a private
  /// generation: its own Compilation and InterfaceSet, on the
  /// process-lifetime threaded executor for the processor count or on a
  /// private simulated one.
  BuildResult build(const std::vector<std::string> &Roots);

  /// Compiles \p Roots as one request of the generation in \p Ext.
  /// Diagnostics are scoped to the request's own files (its .mod files
  /// plus its interface closure's .def files), so concurrent requests
  /// sharing one Compilation each report exactly what a standalone
  /// session would.
  BuildResult build(const std::vector<std::string> &Roots,
                    SessionExternals Ext);

private:
  VirtualFileSystem &Files;
  StringInterner &Interner;
  driver::CompilerOptions Options;
};

} // namespace m2c::build

#endif // M2C_BUILD_BUILDSESSION_H
