//===--- InterfaceSet.h - Definition-module streams -------------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The left column of the paper's Figure 5: one Lexor -> Importer ->
/// Parser/DeclAnalyzer pipeline per imported definition module.  Streams
/// are started by the module registry's once-only table the first time
/// any Importer or declaration analyzer discovers a module, so each
/// interface is processed exactly once per compilation — and, when the
/// InterfaceSet is shared by a whole BuildSession, exactly once per
/// *session* no matter how many implementation modules import it.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_BUILD_INTERFACESET_H
#define M2C_BUILD_INTERFACESET_H

#include "ast/AST.h"
#include "build/TaskSpawner.h"
#include "lex/TokenBlockQueue.h"
#include "sema/Compilation.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

namespace m2c::build {

/// Owns every definition-module stream of one run (or one session) and
/// installs itself as the module registry's stream starter.
class InterfaceSet {
public:
  /// Installs the once-only stream starter on \p Comp's module registry.
  /// The InterfaceSet must outlive the executor run.
  InterfaceSet(sema::Compilation &Comp, TaskSpawner &Spawner);
  InterfaceSet(const InterfaceSet &) = delete;
  InterfaceSet &operator=(const InterfaceSet &) = delete;

  /// Number of definition-module streams started.
  size_t streamCount() const;

  /// Number of definition-module parser tasks that actually ran — the
  /// "each interface parsed once" counter build sessions assert on.
  uint64_t parseCount() const {
    return Parses.load(std::memory_order_relaxed);
  }

  /// Blocks until every interface-stream task this set has started is
  /// finished.  A build session calls this after awaiting its own
  /// request: a shared stream first touched by a *peer* request carries
  /// the peer's tag, yet its diagnostics land in .def files this
  /// request's diagnostic slice reads, so the slice must not be taken
  /// while any stream is still in flight.
  void quiesce() const;

private:
  /// One definition-module stream.
  struct DefStream {
    Symbol Name;
    symtab::Scope *ModScope = nullptr;
    TokenBlockQueue Queue;
    ast::ASTArena Arena;
    sched::TaskPtr ParserTask;

    DefStream(std::string QueueName, TokenBlockPool &Pool)
        : Queue(std::move(QueueName), &Pool) {}
  };

  void startDefStream(Symbol Name, symtab::Scope &ModScope);
  void defParserTask(DefStream &S);
  void beginTasks(size_t N);
  void taskDone();

  sema::Compilation &Comp;
  TaskSpawner &Spawner;
  mutable std::mutex Mutex;
  std::vector<std::unique_ptr<DefStream>> Streams;
  std::atomic<uint64_t> Parses{0};

  /// Interface tasks spawned but not yet finished.  Incremented inside
  /// startDefStream — which always runs either on a request thread before
  /// that request awaits, or inside a counted task — so the count can
  /// never dip to zero while a stream tree is still growing.
  mutable std::mutex QuiesceMutex;
  mutable std::condition_variable QuiesceCv;
  size_t OutstandingTasks = 0;
};

} // namespace m2c::build

#endif // M2C_BUILD_INTERFACESET_H
