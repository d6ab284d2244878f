//===--- CachePlanner.h - Pre-compilation cache probing ---------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cache prepass.  Before the concurrent run is set up, the planner
/// re-runs the *real* Splitter over the module's token stream (into
/// private probe queues), derives each stream's content key, and probes
/// the cache, producing a CachePlan the driver consults when wiring
/// tasks: hit streams skip parse/sema/codegen and their cached units are
/// handed to the Merger directly.
///
/// Key derivation per stream:
///
///   key(S) = H(options, interface-closure hash,
///              declHash(ancestors of S, outermost first),
///              fullHash(S))
///
/// where declHash covers a stream's tokens up to (not including) its own
/// body BEGIN — i.e. its declarations, which include the *headings* of
/// its child procedures but not their bodies — and fullHash covers all of
/// the stream's tokens.  Hashing headings rather than whole enclosing
/// modules is what bounds the blast radius of an edit: a procedure-body
/// edit changes only that stream's fullHash, so only that stream misses.
///
/// The whole prepass runs under a SequentialContext charging real cost
/// kinds (LexChar, SplitToken, CacheProbe, CacheLookup, ...), so probe
/// work is visible in virtual time and speedup curves stay honest.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_CACHE_CACHEPLANNER_H
#define M2C_CACHE_CACHEPLANNER_H

#include "cache/CompilationCache.h"
#include "lex/TokenBlockQueue.h"
#include "sched/CostModel.h"
#include "sema/Compilation.h"
#include "support/VirtualFileSystem.h"
#include "symtab/NameResolver.h"

#include <optional>
#include <string>
#include <vector>

namespace m2c::cache {

/// The compilation-relevant options folded into every key.  Driver names
/// the compilation path ("conc"/"seq"): the two drivers produce images
/// that differ in scheduling metadata (stream weights), so their entries
/// are namespaced apart to keep cached output byte-identical to uncached
/// output within each driver.
struct CacheFingerprint {
  symtab::DkyStrategy Strategy = symtab::DkyStrategy::Skeptical;
  sema::HeadingSharing Sharing = sema::HeadingSharing::CopyEntries;
  /// Canonical pass-pipeline spelling (opt::passConfigString), e.g. "O0"
  /// or "O2:constfold,copyprop,peephole,dse,unreach".  Hashing the full
  /// roster — not just the level digit — means entries also re-key if a
  /// level's roster ever changes.
  std::string PassConfig = "O0";
  std::string Driver = "conc";
};

/// The plan for one stream, in splitter discovery order.
struct StreamPlan {
  std::string QualifiedName; ///< "Mod" for main, "Mod.P.Q" for procedures.
  int Parent = -1;           ///< Index of the enclosing stream; -1 = main.
  CacheKey Key;
  bool Hit = false;         ///< Cached unit available; skip codegen.
  bool RunFrontEnd = true;  ///< Parse/sema must run (self or a descendant
                            ///< missed and needs this scope populated).
  std::optional<codegen::CodeUnit> Cached; ///< Loaded unit when Hit.
};

/// Everything the prepass learned.
struct CachePlan {
  bool Valid = false; ///< Probe ran (the .mod file exists).

  /// Whole-module fast path: nothing changed since a cached compile.
  bool ModuleHit = false;
  std::optional<ModuleEntry> Module; ///< Loaded entry when ModuleHit.

  CacheKey ModuleKey;
  std::string ModTextHash;
  std::vector<FileDep> Deps; ///< Interface closure (sorted by file name).

  /// Per-stream plans; index 0 is the main module stream.  Empty when
  /// ModuleHit (streams were never probed).
  std::vector<StreamPlan> Streams;

  /// Virtual-time units the prepass consumed.
  uint64_t ProbeUnits = 0;
};

/// Runs the cache prepass for one module.
class CachePlanner {
public:
  CachePlanner(VirtualFileSystem &Files, StringInterner &Interner,
               CompilationCache &Cache, CacheFingerprint Fingerprint,
               const sched::CostModel &Cost)
      : Files(Files), Interner(Interner), Cache(Cache),
        Fingerprint(std::move(Fingerprint)), Cost(Cost) {}

  /// Module-level probe only: hash the sources, try the whole-module fast
  /// path, and discover the interface closure for a later store.  Used by
  /// the sequential driver, which has no streams to skip individually.
  CachePlan probeModule(std::string_view ModuleName);

  /// Full probe: module fast path, then (on miss) the per-stream plan.
  ///
  /// \p KnownClosure, when provided, is the module's interface-name
  /// closure as some earlier pass (session discovery) already derived it;
  /// the probe builds its dependency set from that list instead of
  /// re-deriving the closure by lexing every interface file.  The
  /// module's own interface is implied and need not be listed.  Content
  /// hashes are still taken per file (memoized on the buffers), so the
  /// resulting plan is identical to an unassisted probe of the same
  /// sources.
  CachePlan plan(std::string_view ModuleName,
                 const std::vector<std::string> *KnownClosure = nullptr);

private:
  void probeInner(std::string_view ModuleName, CachePlan &Plan,
                  TokenBlockQueue *RawQueue,
                  const std::vector<std::string> *KnownClosure);
  void planStreams(std::string_view ModuleName, CachePlan &Plan,
                   TokenBlockQueue &RawQueue);
  bool depsMatch(const std::vector<FileDep> &Deps);
  void combineFingerprint(KeyHasher &H) const;

  VirtualFileSystem &Files;
  StringInterner &Interner;
  CompilationCache &Cache;
  const CacheFingerprint Fingerprint;
  const sched::CostModel &Cost;
};

} // namespace m2c::cache

#endif // M2C_CACHE_CACHEPLANNER_H
