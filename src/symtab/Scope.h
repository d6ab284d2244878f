//===--- Scope.h - Per-scope concurrent symbol tables -----------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "We use a separate symbol table for each scope of declaration
/// (definition module, main module, procedure).  These symbol tables are
/// linked together to provide the correct scope ancestry path for
/// resolving names." (paper section 2.2)
///
/// A scope's table may be searched while the task building it is still
/// running; the completion event is what DKY strategies wait on.  Entry
/// creation is atomic with respect to search (footnote 1 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef M2C_SYMTAB_SCOPE_H
#define M2C_SYMTAB_SCOPE_H

#include "sched/Event.h"
#include "support/Arena.h"
#include "symtab/SymbolEntry.h"

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace m2c::symtab {

/// The declaration-scope kinds of the compiler.
enum class ScopeKind : uint8_t {
  Builtin,   ///< Names predefined by the compiler.
  DefModule, ///< An imported definition module's interface.
  Module,    ///< The main (implementation) module body.
  Procedure, ///< A procedure's parameters and locals.
  Record,    ///< A record type's field table ("other" search scopes).
};

/// One scope's symbol table.
class Scope {
public:
  Scope(std::string Name, ScopeKind Kind, Scope *Parent, Scope *Builtins);
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  const std::string &name() const { return Name; }
  ScopeKind kind() const { return Kind; }
  Scope *parent() const { return Parent; }
  Scope *builtins() const { return Builtins; }

  /// Result of insert(): the entry now registered under the name, plus
  /// whether this call created it (false: pre-existing clash).
  struct InsertResult {
    SymbolEntry *Entry;
    bool Inserted;
  };

  /// Inserts a copy of \p Proto, allocated in this scope's arena so entry
  /// storage costs one pointer bump instead of one malloc.  On a name
  /// clash the table is left unchanged and the existing entry is
  /// returned with Inserted == false.  Signals any Optimistic per-symbol
  /// event pending on this name.  The copy is published atomically with
  /// respect to find() (paper footnote 1).
  InsertResult insert(const SymbolEntry &Proto);

  /// Probes this table only (no waiting, no ancestry chaining).  Charges
  /// one LookupProbe.
  SymbolEntry *find(Symbol Name);

  /// True once the building task declared the table complete.
  bool isComplete() const { return Completed->isSignaled(); }

  /// The table-completion event DKY strategies wait on.
  const sched::EventPtr &completionEvent() const { return Completed; }

  /// Marks the table complete: signals the completion event and every
  /// pending Optimistic per-symbol event (so blocked searchers re-check
  /// and move outward).
  void markComplete();

  /// Optimistic handling: atomically re-probes for \p Name and, on a
  /// miss, returns the (created-if-needed) per-symbol event to wait on.
  /// Both results are null when the table completed concurrently (the
  /// caller simply continues outward).  Creating an event charges
  /// EventCreate — the bookkeeping cost the paper found to outweigh
  /// Optimistic's gains.
  std::pair<SymbolEntry *, sched::EventPtr> probeOrPending(Symbol Name);

  /// Number of entries inserted so far.
  size_t size() const;

  /// Snapshot of entries in insertion order (used by code generation and
  /// tests; call after completion).
  std::vector<const SymbolEntry *> entries() const;

private:
  const std::string Name;
  const ScopeKind Kind;
  Scope *const Parent;
  Scope *const Builtins;

  mutable std::mutex Mutex;
  support::Arena EntryArena; ///< Owns entry storage; guarded by Mutex.
  std::vector<SymbolEntry *> Owned; ///< Insertion order, for entries().
  std::unordered_map<Symbol, SymbolEntry *, SymbolHash> Table;
  std::unordered_map<Symbol, sched::EventPtr, SymbolHash> PendingSymbols;
  bool CompleteFlag = false; ///< Guarded by Mutex; see probeOrPending().
  sched::EventPtr Completed;
};

} // namespace m2c::symtab

#endif // M2C_SYMTAB_SCOPE_H
