//===--- BuildGraph.h - Import-DAG discovery for sessions -------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Discovers the import DAG of a project before a build session runs:
/// starting from the root module names, each module's .def and .mod are
/// scanned with the real Lexer and Importer (into scratch state, so
/// nothing is registered with the session yet) and the reachable set is
/// closed over.  The graph answers the questions a session needs up
/// front: which modules have implementations to compile, in what
/// (imports-first) order to start their pipelines, and how many
/// interfaces each module's interface closure contains — the latter
/// keeps per-module cache entries' stream counts identical to what a
/// single-module compile of the same module records.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_BUILD_BUILDGRAPH_H
#define M2C_BUILD_BUILDGRAPH_H

#include "support/StringInterner.h"
#include "support/VirtualFileSystem.h"
#include "symtab/Scope.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace m2c::build {

/// One module of the project: what exists on disk and what it imports.
struct BuildNode {
  Symbol Name;
  bool HasImpl = false; ///< <Name>.mod exists; the session compiles it.
  bool HasDef = false;  ///< <Name>.def exists.
  std::vector<Symbol> ModImports; ///< Direct imports of the .mod.
  std::vector<Symbol> DefImports; ///< Direct imports of the .def.
};

/// The import DAG reachable from a set of root modules.
class BuildGraph {
public:
  /// Scans every reachable module's sources.  Lex/import work is charged
  /// to the active execution context (run it under a SequentialContext to
  /// account discovery in a session's time).  \p Builtins only parents
  /// the scratch scopes of discovery and is never mutated.
  ///
  /// \p UseMemo reuses each buffer's memoized import list (SourceBuffer
  /// facts) instead of re-lexing it — the big per-request win for a
  /// long-lived service, whose requests re-discover the same unchanged
  /// buffers over and over.  Off by default because a memo hit skips the
  /// lexing the execution context would otherwise charge, and simulated
  /// sessions want those units deterministic; wall-clock services opt in.
  static BuildGraph discover(VirtualFileSystem &Files,
                             StringInterner &Interner, symtab::Scope &Builtins,
                             const std::vector<std::string> &Roots,
                             bool UseMemo = false);

  const BuildNode *node(Symbol Name) const;

  /// Reachable modules with implementations, imports before importers
  /// (cycles broken in discovery order).  These are the session's
  /// pipelines.
  const std::vector<Symbol> &compileOrder() const { return Order; }

  /// Number of distinct interface names a single-module compile of
  /// \p Module would register: its own interface (when present), its
  /// .mod's direct imports, and the closure over interface imports.
  size_t interfaceClosure(Symbol Module) const;

  /// The names behind interfaceClosure(\p Module).  A build session hands
  /// these to the cache planner as the module's dependency set so the
  /// prepass need not re-derive the closure by lexing every interface.
  std::vector<Symbol> interfaceClosureSet(Symbol Module) const;

  /// Distinct interface names the whole session registers — every
  /// compiled module's closure, deduplicated — in deterministic closure
  /// order.  The service uses this to key its shared-interface generation
  /// (content hashes of the .def files), and every session to scope its
  /// diagnostics to the files it actually depends on.
  std::vector<Symbol> sessionInterfaces() const;

  /// Non-empty when the *interface* graph (.def import edges) contains a
  /// cycle: one representative cycle, first module repeated at the end
  /// (A, B, A).  Interface analysis resolves imports by waiting on the
  /// imported interface's completion, so a .def cycle can never make
  /// progress — sessions refuse such graphs up front with a clean
  /// diagnostic instead of deadlocking.  Cycles through .mod imports are
  /// fine (implementations only need interfaces, which stay acyclic).
  const std::vector<Symbol> &interfaceCycle() const { return DefCycle; }

private:
  std::vector<Symbol>
  closureFrom(const std::vector<Symbol> &Seeds) const;

  std::unordered_map<Symbol, BuildNode, SymbolHash> Nodes;
  std::vector<Symbol> Order;
  std::vector<Symbol> DefCycle;
};

} // namespace m2c::build

#endif // M2C_BUILD_BUILDGRAPH_H
