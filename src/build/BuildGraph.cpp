//===--- BuildGraph.cpp - Import-DAG discovery for sessions ---------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "build/BuildGraph.h"

#include "lex/Lexer.h"
#include "sema/Compilation.h"
#include "split/Importer.h"
#include "support/Diagnostics.h"

#include <deque>
#include <functional>
#include <unordered_set>

using namespace m2c;
using namespace m2c::build;

namespace {

/// Lexes \p FileName and returns its direct imports.  All side state is
/// scratch: diagnostics are discarded (the real compile re-reports them)
/// and registrations go to a throwaway registry.
std::vector<Symbol> scanImports(VirtualFileSystem &Files,
                                StringInterner &Interner,
                                symtab::Scope &Builtins,
                                const std::string &FileName, bool UseMemo) {
  const SourceBuffer *Buf = Files.lookup(FileName);
  if (!Buf)
    return {};
  auto Scan = [&] {
    DiagnosticsEngine ScratchDiags;
    TokenBlockQueue Queue(FileName + ".scan");
    Lexer Lex(*Buf, Interner, ScratchDiags);
    Lex.lexAll(Queue);
    sema::ModuleRegistry Scratch(Builtins);
    Importer Imp(TokenBlockQueue::Reader(Queue), Scratch, Interner);
    return Imp.run();
  };
  if (UseMemo)
    return Buf->imports(&Interner, Scan);
  return Scan();
}

} // namespace

BuildGraph BuildGraph::discover(VirtualFileSystem &Files,
                                StringInterner &Interner,
                                symtab::Scope &Builtins,
                                const std::vector<std::string> &Roots,
                                bool UseMemo) {
  BuildGraph G;
  std::deque<Symbol> Work;
  std::vector<Symbol> Discovery; // first-appearance order
  auto Reach = [&](Symbol Name) {
    if (G.Nodes.count(Name))
      return;
    BuildNode N;
    N.Name = Name;
    G.Nodes.emplace(Name, std::move(N));
    Work.push_back(Name);
    Discovery.push_back(Name);
  };
  for (const std::string &Root : Roots)
    Reach(Interner.intern(Root));

  while (!Work.empty()) {
    Symbol Name = Work.front();
    Work.pop_front();
    BuildNode &N = G.Nodes.at(Name);
    std::string_view Spelling = Interner.spelling(Name);
    std::string DefFile = VirtualFileSystem::defFileName(Spelling);
    std::string ModFile = VirtualFileSystem::modFileName(Spelling);
    N.HasDef = Files.exists(DefFile);
    N.HasImpl = Files.exists(ModFile);
    if (N.HasDef)
      N.DefImports = scanImports(Files, Interner, Builtins, DefFile, UseMemo);
    if (N.HasImpl)
      N.ModImports = scanImports(Files, Interner, Builtins, ModFile, UseMemo);
    for (Symbol I : N.DefImports)
      Reach(I);
    for (Symbol I : N.ModImports)
      Reach(I);
  }

  // Imports-first pipeline order: DFS postorder over all import edges,
  // seeded in discovery order; cycles fall back to that seed order.
  std::unordered_set<uint32_t> Visited;
  std::function<void(Symbol)> Visit = [&](Symbol Name) {
    if (!Visited.insert(Name.id()).second)
      return;
    const BuildNode &N = G.Nodes.at(Name);
    for (Symbol I : N.DefImports)
      Visit(I);
    for (Symbol I : N.ModImports)
      Visit(I);
    if (N.HasImpl)
      G.Order.push_back(Name);
  };
  for (Symbol Name : Discovery)
    Visit(Name);

  // Detect interface cycles (.def -> .def edges only): tri-color DFS that
  // records one representative cycle from the stack.  Runs on the already
  // discovered graph, so the cost is linear in edges.
  enum class Color : uint8_t { White, Grey, Black };
  std::unordered_map<uint32_t, Color> Colors;
  std::vector<Symbol> Stack;
  std::function<bool(Symbol)> FindCycle = [&](Symbol Name) -> bool {
    Color &C = Colors[Name.id()];
    if (C == Color::Grey) {
      // Found: slice the DFS stack from the first occurrence of Name.
      size_t First = 0;
      while (First < Stack.size() && !(Stack[First] == Name))
        ++First;
      G.DefCycle.assign(Stack.begin() + static_cast<ptrdiff_t>(First),
                        Stack.end());
      G.DefCycle.push_back(Name);
      return true;
    }
    if (C == Color::Black)
      return false;
    C = Color::Grey;
    Stack.push_back(Name);
    auto It = G.Nodes.find(Name);
    if (It != G.Nodes.end() && It->second.HasDef)
      for (Symbol I : It->second.DefImports)
        if (FindCycle(I))
          return true;
    Stack.pop_back();
    Colors[Name.id()] = Color::Black;
    return false;
  };
  for (Symbol Name : Discovery)
    if (G.DefCycle.empty())
      FindCycle(Name);
  return G;
}

const BuildNode *BuildGraph::node(Symbol Name) const {
  auto It = Nodes.find(Name);
  return It == Nodes.end() ? nullptr : &It->second;
}

std::vector<Symbol>
BuildGraph::closureFrom(const std::vector<Symbol> &Seeds) const {
  // Expansion mirrors what a compile registers: every seed name is
  // registered whether or not its .def exists, and only existing .def
  // files are scanned onward (a missing interface has no imports to
  // chase — it just diagnoses).
  std::unordered_set<uint32_t> Seen;
  std::vector<Symbol> Result;
  std::deque<Symbol> Work;
  auto Add = [&](Symbol Name) {
    if (Seen.insert(Name.id()).second) {
      Result.push_back(Name);
      Work.push_back(Name);
    }
  };
  for (Symbol S : Seeds)
    Add(S);
  while (!Work.empty()) {
    Symbol Name = Work.front();
    Work.pop_front();
    auto It = Nodes.find(Name);
    if (It == Nodes.end() || !It->second.HasDef)
      continue;
    for (Symbol I : It->second.DefImports)
      Add(I);
  }
  return Result;
}

size_t BuildGraph::interfaceClosure(Symbol Module) const {
  return interfaceClosureSet(Module).size();
}

std::vector<Symbol> BuildGraph::interfaceClosureSet(Symbol Module) const {
  auto It = Nodes.find(Module);
  if (It == Nodes.end())
    return {};
  std::vector<Symbol> Seeds;
  if (It->second.HasDef)
    Seeds.push_back(Module); // the module's own anticipated interface
  for (Symbol I : It->second.ModImports)
    Seeds.push_back(I);
  return closureFrom(Seeds);
}

std::vector<Symbol> BuildGraph::sessionInterfaces() const {
  std::vector<Symbol> Seeds;
  for (Symbol M : Order) {
    const BuildNode &N = Nodes.at(M);
    if (N.HasDef)
      Seeds.push_back(M);
    for (Symbol I : N.ModImports)
      Seeds.push_back(I);
  }
  return closureFrom(Seeds);
}
