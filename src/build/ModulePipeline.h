//===--- ModulePipeline.h - One module's concurrent task graph --*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The right columns of the paper's Figure 5 for one implementation
/// module: the raw token stream is split into a main-module stream and
/// one stream per procedure (at any nesting depth), each compiled by a
/// Lexor -> {Splitter, Importer} -> Parser/DeclAnalyzer ->
/// StmtAnalyzer/CodeGen pipeline of tasks, with per-procedure code units
/// merged by concatenation.
///
/// A ModulePipeline wires this task graph for a single module against
/// *shared* Compilation services and a *shared* executor (through a
/// TaskSpawner), so that a BuildSession can run many module pipelines
/// under one scheduler: imported interfaces are parsed once per session
/// by the shared InterfaceSet, and cross-module orderings are expressed
/// with the same scope-completion events that order streams inside one
/// module.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_BUILD_MODULEPIPELINE_H
#define M2C_BUILD_MODULEPIPELINE_H

#include "ast/AST.h"
#include "ast/Stmt.h"
#include "build/TaskSpawner.h"
#include "cache/CachePlanner.h"
#include "codegen/Merger.h"
#include "driver/CompilerOptions.h"
#include "lex/TokenBlockQueue.h"
#include "sema/Compilation.h"
#include "symtab/Scope.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace m2c::sema {
class DeclAnalyzer;
}

namespace m2c::build {

/// All the per-module state of one concurrent compilation.  Stream
/// objects are owned here and live until the executor run is over.
class ModulePipeline {
public:
  /// \p Options and \p Comp must outlive the pipeline; tasks are routed
  /// through \p Spawner onto the run's (possibly shared) executor.
  /// \p RequestDiags, when non-null, receives the pipeline's location-less
  /// conditions (missing module file, cache-plan divergence) instead of
  /// \p Comp's engine: a build session reads that engine through a
  /// per-file slice, which cannot see location-less entries, so they must
  /// go straight to the session's own engine.
  ModulePipeline(const driver::CompilerOptions &Options,
                 sema::Compilation &Comp, std::string_view ModuleName,
                 TaskSpawner &Spawner,
                 DiagnosticsEngine *RequestDiags = nullptr);
  ModulePipeline(const ModulePipeline &) = delete;
  ModulePipeline &operator=(const ModulePipeline &) = delete;
  ~ModulePipeline();

  /// Installs the cache plan for this module (index 0 is the main stream;
  /// procedure streams claim successive indices in splitter discovery
  /// order).  Call before setup().  Null: no cache or probe inapplicable.
  void setPlan(const cache::CachePlan *P) { Plan = P; }

  /// Wires the initial tasks (lex, split, import, main parse) and injects
  /// the main stream's cached unit when the plan hit.  Returns false —
  /// with a diagnostic — when the module source file is missing.
  bool setup();

  /// Produces the final, deterministically ordered image.  Call after the
  /// executor ran to quiescence.
  codegen::ModuleImage finalizeImage() { return Merge.finalize(); }

  /// Number of procedure streams the splitter created.
  size_t procStreamCount();

  /// True when a probe/compile divergence forced the cache plan to be
  /// abandoned mid-run; nothing from this compile may be stored back.
  bool planDropped() const {
    return PlanDropped.load(std::memory_order_acquire);
  }

  Symbol moduleName() const { return ModName; }
  const cache::CachePlan *plan() const { return Plan; }

private:
  /// One split-off procedure stream.
  struct ProcStream {
    Symbol Name;
    std::string QualifiedName;
    std::unique_ptr<symtab::Scope> ProcScope;
    TokenBlockQueue Queue;
    sched::EventPtr HeadingDone; ///< Avoided event: heading processed in
                                 ///< the parent.
    std::atomic<const symtab::SymbolEntry *> Entry{nullptr};
    ast::ASTArena Arena;
    std::atomic<int64_t> Weight{0};
    ProcStream *Parent = nullptr; ///< Null for main-module children.
    symtab::Scope *ParentScope = nullptr;
    sched::TaskPtr ParserTask; ///< Null when the cache plan skips the
                               ///< front end.
    bool SkipCodegen = false;  ///< Cached unit replayed; don't regenerate.

    std::mutex ChildrenMutex;
    std::vector<ProcStream *> Children; ///< Splitter discovery order.

    ProcStream(Symbol Name, std::string Qual, TokenBlockPool &Pool);
  };

  bool avoidance() const {
    return Options.Strategy == symtab::DkyStrategy::Avoidance;
  }

  ProcStream *createProcStream(ProcStream *Parent, Symbol Name);
  void dropPlan(const std::string &QualifiedName);
  void installHeadingHooks(sema::DeclAnalyzer &DA, ProcStream *Stream);
  void releaseOrphanHeadings(ProcStream *Stream);
  ProcStream *childAt(ProcStream *Stream, size_t Index);
  void mainParserTask();
  void procParserTask(ProcStream &S);
  void spawnCodeGen(ProcStream *Stream, ast::StmtList Body, int64_t Weight);

  const driver::CompilerOptions &Options;
  sema::Compilation &Comp;
  TaskSpawner &Spawner;
  /// Where location-less conditions are reported: the session's engine in
  /// a build session, \p Comp's engine in a single-module compile.
  DiagnosticsEngine &SessionDiags;
  Symbol ModName;
  codegen::Merger Merge;

  /// Cache plan for this run (null: no cache or probe not applicable).
  const cache::CachePlan *Plan = nullptr;
  std::atomic<size_t> NextPlanIndex{1};
  std::atomic<bool> PlanDropped{false};

  TokenBlockQueue RawQueue;
  TokenBlockQueue MainQueue;
  std::unique_ptr<symtab::Scope> ModuleScopePtr;
  symtab::Scope *OwnDefScope = nullptr;
  ast::ASTArena MainArena;
  sched::TaskPtr MainParserTask;

  std::mutex StreamsMutex;
  std::vector<std::unique_ptr<ProcStream>> ProcStreams;
  std::mutex MainChildrenMutex;
  std::vector<ProcStream *> MainChildren;
};

/// Stores one finished compile back into the cache: every missed stream's
/// unit plus the whole-module entry.  Callers gate on zero diagnostics
/// (only fully clean compiles become entries) and on the plan not having
/// been dropped.  Charges CacheLookup work to the active context.
void storeCacheEntries(cache::CompilationCache &Cache,
                       const cache::CachePlan &Plan,
                       const codegen::ModuleImage &Image,
                       uint64_t StreamCount, const StringInterner &Interner);

} // namespace m2c::build

#endif // M2C_BUILD_MODULEPIPELINE_H
