//===--- Merger.cpp - Order-independent code merging ----------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "codegen/Merger.h"

#include "sched/ExecContext.h"

#include <algorithm>

using namespace m2c;
using namespace m2c::codegen;

void Merger::addUnit(CodeUnit Unit) {
  sched::ctx().charge(sched::CostKind::MergeUnit);
  std::lock_guard<std::mutex> Lock(Mutex);
  Image.Units.push_back(std::move(Unit));
}

void Merger::setImports(std::vector<Symbol> Imports) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Image.Imports = std::move(Imports);
}

void Merger::setGlobalsFrom(const symtab::Scope &ModuleScope,
                            const symtab::Scope *OwnInterface) {
  std::lock_guard<std::mutex> Lock(Mutex);
  // Globals are laid out by slot index; the interface's variables (when
  // present) occupy the front of the frame and the implementation's
  // continue after them.  entries() is insertion order, so sort by slot.
  std::vector<const symtab::SymbolEntry *> Vars;
  auto Collect = [&Vars](const symtab::Scope &S) {
    for (const symtab::SymbolEntry *E : S.entries())
      if (E->Kind == symtab::EntryKind::Var && E->IsGlobal &&
          E->OwnerScope == &S)
        Vars.push_back(E);
  };
  if (OwnInterface)
    Collect(*OwnInterface);
  Collect(ModuleScope);
  std::sort(Vars.begin(), Vars.end(),
            [](const symtab::SymbolEntry *A, const symtab::SymbolEntry *B) {
              return A->Slot < B->Slot;
            });
  Image.GlobalCount = static_cast<uint32_t>(Vars.size());
  Image.GlobalDescs.clear();
  for (const symtab::SymbolEntry *E : Vars)
    Image.GlobalDescs.push_back(
        internTypeDesc(E->Ty, Image.Descs, DescCache));
}

ModuleImage Merger::finalize() {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::sort(Image.Units.begin(), Image.Units.end(),
            [](const CodeUnit &A, const CodeUnit &B) {
              if (A.IsModuleBody != B.IsModuleBody)
                return A.IsModuleBody;
              return A.QualifiedName < B.QualifiedName;
            });
  // Procedure ids are allocated in task-completion order, which varies
  // between schedules (and between fresh and cache-replayed units).
  // Renumber in sorted order so the image — and its .mco rendering — is a
  // pure function of the source.  Callees are resolved by qualified name
  // at link time, so the ids are only a stable labeling.
  int32_t NextId = 0;
  for (CodeUnit &U : Image.Units)
    if (!U.IsModuleBody)
      U.ProcId = NextId++;
  return std::move(Image);
}
