//===--- Scope.cpp - Per-scope concurrent symbol tables -------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "symtab/Scope.h"

#include "sched/ExecContext.h"

#include <cassert>
#include <type_traits>

using namespace m2c;
using namespace m2c::symtab;

const char *m2c::symtab::entryKindName(EntryKind Kind) {
  switch (Kind) {
  case EntryKind::Const:
    return "constant";
  case EntryKind::Type:
    return "type";
  case EntryKind::Var:
    return "variable";
  case EntryKind::Proc:
    return "procedure";
  case EntryKind::Module:
    return "module";
  case EntryKind::EnumLiteral:
    return "enumeration literal";
  case EntryKind::Param:
    return "parameter";
  case EntryKind::Field:
    return "field";
  }
  return "symbol";
}

Scope::Scope(std::string Name, ScopeKind Kind, Scope *Parent, Scope *Builtins)
    : Name(std::move(Name)), Kind(Kind), Parent(Parent), Builtins(Builtins),
      Completed(sched::makeEvent("symtab." + this->Name + ".complete",
                                 sched::EventKind::Handled)) {}

// Entries are bump-allocated and never individually freed, so the arena
// may drop destructor bookkeeping entirely.
static_assert(std::is_trivially_destructible_v<SymbolEntry>,
              "SymbolEntry must stay trivially destructible for arena use");

Scope::InsertResult Scope::insert(const SymbolEntry &Proto) {
  assert(!isComplete() && "insert into completed symbol table");
  sched::EventPtr Pending;
  SymbolEntry *Entry;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Table.find(Proto.Name);
    if (It != Table.end())
      return {It->second, false};
    Entry = EntryArena.create<SymbolEntry>(Proto);
    Entry->OwnerScope = this;
    Table.emplace(Entry->Name, Entry);
    Owned.push_back(Entry);
    auto PendingIt = PendingSymbols.find(Entry->Name);
    if (PendingIt != PendingSymbols.end()) {
      Pending = PendingIt->second;
      PendingSymbols.erase(PendingIt);
    }
  }
  if (Pending && !Pending->isSignaled())
    sched::ctx().signal(*Pending);
  return {Entry, true};
}

SymbolEntry *Scope::find(Symbol Name) {
  sched::ctx().charge(sched::CostKind::LookupProbe);
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Table.find(Name);
  return It == Table.end() ? nullptr : It->second;
}

void Scope::markComplete() {
  std::vector<sched::EventPtr> Pending;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    CompleteFlag = true;
    for (auto &[Name, Event] : PendingSymbols)
      Pending.push_back(Event);
    PendingSymbols.clear();
  }
  sched::ctx().signal(*Completed);
  // "When the table is completed, it is traversed and all unsignaled
  // events ... are signaled, allowing blocked tasks to continue
  // searching." (section 2.3.3, Optimistic Handling)
  for (const sched::EventPtr &E : Pending)
    if (!E->isSignaled())
      sched::ctx().signal(*E);
}

std::pair<SymbolEntry *, sched::EventPtr> Scope::probeOrPending(Symbol Name) {
  bool Created = false;
  std::pair<SymbolEntry *, sched::EventPtr> Result{nullptr, nullptr};
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Table.find(Name);
    if (It != Table.end()) {
      Result.first = It->second;
      return Result;
    }
    // The table may have completed between the caller's completeness check
    // and this probe; a pending event created now would never be signaled.
    if (CompleteFlag)
      return Result;
    auto [PendIt, Inserted] = PendingSymbols.emplace(Name, nullptr);
    if (Inserted) {
      PendIt->second = sched::makeEvent("symtab." + this->Name + ".pending",
                                        sched::EventKind::Handled);
      Created = true;
    }
    Result.second = PendIt->second;
  }
  if (Created)
    sched::ctx().charge(sched::CostKind::EventCreate);
  return Result;
}

size_t Scope::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Owned.size();
}

std::vector<const SymbolEntry *> Scope::entries() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return std::vector<const SymbolEntry *>(Owned.begin(), Owned.end());
}
