//===--- CachePlanner.cpp - Pre-compilation cache probing ------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "cache/CachePlanner.h"

#include "lex/Lexer.h"
#include "sched/ExecContext.h"
#include "split/Splitter.h"

#include <algorithm>
#include <cstdint>

using namespace m2c;
using namespace m2c::cache;

namespace {

/// Hashes one token: the parts semantic analysis and code generation can
/// observe.  Source locations are deliberately excluded — entries are
/// only stored by zero-diagnostic compiles, and generated code carries no
/// line information, so whitespace-only edits still hit.  Identifiers are
/// hashed by spelling, not Symbol id, so keys don't depend on interning
/// order.
void combineToken(KeyHasher &H, const Token &T, const StringInterner &Names) {
  H.combine(static_cast<uint64_t>(T.Kind));
  if (!T.Ident.isEmpty())
    H.combine(Names.spelling(T.Ident));
  H.combine(static_cast<uint64_t>(T.IntValue));
  H.combine(T.RealValue);
}

/// Scans a finished token queue for IMPORT / FROM clauses (the Importer's
/// recognizer, without the module registry).
void scanImports(TokenBlockQueue &Queue, std::vector<Symbol> &Out) {
  TokenBlockQueue::Reader In(Queue);
  auto Discover = [&](Symbol Name) {
    if (std::find(Out.begin(), Out.end(), Name) == Out.end())
      Out.push_back(Name);
  };
  while (true) {
    const Token &T = In.next();
    if (T.isEof())
      return;
    sched::ctx().charge(sched::CostKind::ImportToken);
    if (T.is(TokenKind::KwFrom)) {
      if (In.peek().is(TokenKind::Identifier))
        Discover(In.peek().Ident);
      while (!In.peek().isEof() && !In.peek().is(TokenKind::Semi))
        In.next();
      continue;
    }
    if (T.is(TokenKind::KwImport)) {
      while (In.peek().is(TokenKind::Identifier)) {
        Discover(In.next().Ident);
        if (!In.peek().is(TokenKind::Comma))
          break;
        In.next();
      }
    }
  }
}

} // namespace

void CachePlanner::combineFingerprint(KeyHasher &H) const {
  H.combine(static_cast<uint64_t>(Fingerprint.Strategy));
  H.combine(static_cast<uint64_t>(Fingerprint.Sharing));
  H.combine(std::string_view(Fingerprint.PassConfig));
  H.combine(std::string_view(Fingerprint.Driver));
}

namespace {

/// The buffer's content hash, computed once per buffer ever (the memo
/// lives on the immutable SourceBuffer).  The probe cost is still charged
/// per call — memoization is a wall-time optimization and must not make
/// virtual time nondeterministic.
std::string memoizedHash(const SourceBuffer &Buf) {
  sched::ctx().charge(sched::CostKind::CacheProbe, Buf.Text.size());
  return Buf.contentHash([&Buf] { return hashBytes(Buf.Text).hex(); });
}

} // namespace

bool CachePlanner::depsMatch(const std::vector<FileDep> &Deps) {
  for (const FileDep &Dep : Deps) {
    const SourceBuffer *Buf = Files.lookup(Dep.Name);
    if (!Buf) {
      if (Dep.Hash != "missing")
        return false;
      continue;
    }
    if (memoizedHash(*Buf) != Dep.Hash)
      return false;
  }
  return true;
}

void CachePlanner::probeInner(std::string_view ModuleName, CachePlan &Plan,
                              TokenBlockQueue *RawQueue,
                              const std::vector<std::string> *KnownClosure) {
  const SourceBuffer *ModBuf =
      Files.lookup(VirtualFileSystem::modFileName(ModuleName));
  if (!ModBuf)
    return; // Plan stays invalid; the driver reports the missing file.
  Plan.Valid = true;

  Plan.ModTextHash = memoizedHash(*ModBuf);

  KeyHasher MH;
  MH.combine(std::string_view("module"));
  combineFingerprint(MH);
  MH.combine(ModuleName);
  Plan.ModuleKey = MH.finish();

  // Whole-module fast path: the entry records the raw hashes of every
  // source it was built from; if all still match, the closure is
  // necessarily identical and the image can be replayed outright.
  if (auto Entry = Cache.lookupModule(Plan.ModuleKey, Interner)) {
    if (Entry->ModTextHash == Plan.ModTextHash && depsMatch(Entry->Deps)) {
      Cache.stats().add("cache.module.hit");
      Plan.ModuleHit = true;
      Plan.Deps = Entry->Deps;
      Plan.Module = std::move(Entry);
      return;
    }
    Cache.stats().add("cache.module.invalidated");
  } else {
    Cache.stats().add("cache.module.miss");
  }

  // Miss: the plan needs the module's interface closure as FileDeps.  The
  // module itself is lexed either way (planStreams consumes the queue);
  // the closure comes from either the caller's pre-discovered list or a
  // transitive IMPORT scan over every interface, exactly the recognition
  // the Importer tasks will repeat.  The probe lexes with a private
  // diagnostics engine — the real compilation re-lexes and reports.
  DiagnosticsEngine ProbeDiags;
  if (RawQueue) {
    Lexer Lex(*ModBuf, Interner, ProbeDiags);
    Lex.lexAll(*RawQueue);
  }

  auto AddDep = [this, &Plan](const std::string &FileName) {
    const SourceBuffer *Buf = Files.lookup(FileName);
    if (!Buf) {
      Plan.Deps.push_back(FileDep{FileName, "missing"});
      return Buf;
    }
    Plan.Deps.push_back(FileDep{FileName, memoizedHash(*Buf)});
    return Buf;
  };

  if (KnownClosure) {
    // Session-assisted path: dependency names were already discovered;
    // only the (memoized) content hashes are taken here.  The module's
    // own interface participates in every scope chain, so it is tracked
    // even when the caller's list omits it or the file is absent —
    // adding M.def later must invalidate.
    std::string SelfDef = VirtualFileSystem::defFileName(ModuleName);
    AddDep(SelfDef);
    for (const std::string &FileName : *KnownClosure)
      if (FileName != SelfDef)
        AddDep(FileName);
  } else {
    std::vector<Symbol> Worklist;
    if (RawQueue) {
      scanImports(*RawQueue, Worklist);
    } else {
      // Module-only probe (sequential driver): lex into a local queue.
      TokenBlockQueue Q("probe.raw." + std::string(ModuleName));
      Lexer Lex(*ModBuf, Interner, ProbeDiags);
      Lex.lexAll(Q);
      scanImports(Q, Worklist);
    }
    // Self-tracking, as above.
    Symbol Self = Interner.intern(ModuleName);
    if (std::find(Worklist.begin(), Worklist.end(), Self) == Worklist.end())
      Worklist.push_back(Self);

    std::vector<Symbol> Seen;
    for (size_t I = 0; I < Worklist.size(); ++I) {
      Symbol Name = Worklist[I];
      if (std::find(Seen.begin(), Seen.end(), Name) != Seen.end())
        continue;
      Seen.push_back(Name);
      const SourceBuffer *Buf =
          AddDep(VirtualFileSystem::defFileName(Interner.spelling(Name)));
      if (!Buf)
        continue;
      TokenBlockQueue Q("probe." + Buf->Name);
      Lexer Lex(*Buf, Interner, ProbeDiags);
      Lex.lexAll(Q);
      std::vector<Symbol> Imports;
      scanImports(Q, Imports);
      for (Symbol Imported : Imports)
        Worklist.push_back(Imported);
    }
  }
  std::sort(Plan.Deps.begin(), Plan.Deps.end(),
            [](const FileDep &A, const FileDep &B) { return A.Name < B.Name; });
}

void CachePlanner::planStreams(std::string_view ModuleName, CachePlan &Plan,
                               TokenBlockQueue &RawQueue) {
  // Re-run the real Splitter into private probe queues.  Using the same
  // recognizer over the same tokens guarantees the probe's stream tree —
  // names, nesting, discovery order — matches the concurrent run's.
  struct Probe {
    int Parent;
    std::string Qual;
    std::unique_ptr<TokenBlockQueue> Queue;
  };
  std::vector<Probe> Probes;
  Probes.push_back(Probe{-1, std::string(ModuleName),
                         std::make_unique<TokenBlockQueue>("probe.main")});

  SplitterHooks Hooks;
  Hooks.beginProc = [&](StreamHandle Parent, Symbol Name) -> StreamHandle {
    size_t ParentIdx = reinterpret_cast<uintptr_t>(Parent); // 0 == main
    std::string Qual =
        Probes[ParentIdx].Qual + "." + std::string(Interner.spelling(Name));
    size_t Idx = Probes.size();
    Probes.push_back(Probe{static_cast<int>(ParentIdx), Qual,
                           std::make_unique<TokenBlockQueue>("probe." + Qual)});
    return reinterpret_cast<StreamHandle>(static_cast<uintptr_t>(Idx));
  };
  Hooks.queueOf = [&](StreamHandle S) -> TokenBlockQueue & {
    return *Probes[reinterpret_cast<uintptr_t>(S)].Queue;
  };
  Hooks.endProc = [](StreamHandle, int64_t) {};
  Splitter Split(TokenBlockQueue::Reader(RawQueue), std::move(Hooks));
  Split.run();

  // Interface-closure hash: every stream's lookups can reach imported
  // interfaces, so all keys depend on it.
  KeyHasher IH;
  IH.combine(std::string_view("ifaces"));
  for (const FileDep &Dep : Plan.Deps) {
    IH.combine(std::string_view(Dep.Name));
    IH.combine(std::string_view(Dep.Hash));
  }
  CacheKey IfaceKey = IH.finish();

  // Per-stream declaration and full hashes.  declHash stops at the
  // stream's own body BEGIN: the main stream's leading MODULE keyword
  // opens one END-terminated construct, so its body BEGIN sits at depth
  // 1; procedure streams' at depth 0.
  std::vector<CacheKey> DeclKeys(Probes.size()), FullKeys(Probes.size());
  for (size_t I = 0; I < Probes.size(); ++I) {
    KeyHasher DeclH, FullH;
    bool InDecls = true;
    int Depth = 0;
    const int BodyDepth = I == 0 ? 1 : 0;
    TokenBlockQueue::Reader In(*Probes[I].Queue);
    while (true) {
      const Token &T = In.next();
      if (T.isEof())
        break;
      sched::ctx().charge(sched::CostKind::CacheProbe);
      combineToken(FullH, T, Interner);
      if (!InDecls)
        continue;
      if (T.is(TokenKind::KwBegin) && Depth == BodyDepth) {
        InDecls = false;
        continue;
      }
      if (Splitter::opensEnd(T.Kind))
        ++Depth;
      else if (T.is(TokenKind::KwEnd))
        --Depth;
      combineToken(DeclH, T, Interner);
    }
    DeclKeys[I] = DeclH.finish();
    FullKeys[I] = FullH.finish();
  }

  // Chain keys and probe the store.
  Plan.Streams.resize(Probes.size());
  for (size_t I = 0; I < Probes.size(); ++I) {
    StreamPlan &S = Plan.Streams[I];
    S.QualifiedName = Probes[I].Qual;
    S.Parent = Probes[I].Parent;

    KeyHasher KH;
    KH.combine(std::string_view("stream"));
    combineFingerprint(KH);
    KH.combine(IfaceKey);
    std::vector<int> Chain; // ancestors, outermost first
    for (int A = S.Parent; A >= 0; A = Probes[static_cast<size_t>(A)].Parent)
      Chain.push_back(A);
    std::reverse(Chain.begin(), Chain.end());
    for (int A : Chain)
      KH.combine(DeclKeys[static_cast<size_t>(A)]);
    KH.combine(FullKeys[I]);
    S.Key = KH.finish();

    S.Cached = Cache.lookupStream(S.Key, Interner);
    S.Hit = S.Cached.has_value();
  }

  // A stream's parse/sema must run if it missed or if any descendant
  // missed (descendants resolve names through this scope).  Children are
  // discovered after their parents, so one reverse sweep propagates the
  // requirement to the root.
  for (size_t I = Plan.Streams.size(); I-- > 0;)
    Plan.Streams[I].RunFrontEnd = !Plan.Streams[I].Hit;
  for (size_t I = Plan.Streams.size(); I-- > 1;)
    if (Plan.Streams[I].RunFrontEnd)
      Plan.Streams[static_cast<size_t>(Plan.Streams[I].Parent)].RunFrontEnd =
          true;
  // The main stream always re-runs its front end: it derives the image's
  // global layout and import list even when its own unit is cached.
  Plan.Streams[0].RunFrontEnd = true;
}

CachePlan CachePlanner::probeModule(std::string_view ModuleName) {
  CachePlan Plan;
  sched::SequentialContext Ctx(Cost);
  sched::ScopedContext Installed(Ctx);
  probeInner(ModuleName, Plan, nullptr, nullptr);
  Plan.ProbeUnits = Ctx.elapsedUnits();
  return Plan;
}

CachePlan CachePlanner::plan(std::string_view ModuleName,
                             const std::vector<std::string> *KnownClosure) {
  CachePlan Plan;
  sched::SequentialContext Ctx(Cost);
  sched::ScopedContext Installed(Ctx);
  TokenBlockQueue RawQueue("probe.raw");
  probeInner(ModuleName, Plan, &RawQueue, KnownClosure);
  if (Plan.Valid && !Plan.ModuleHit)
    planStreams(ModuleName, Plan, RawQueue);
  Plan.ProbeUnits = Ctx.elapsedUnits();
  return Plan;
}
