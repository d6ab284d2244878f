//===--- bench_hotpath.cpp - Hot-path data structure microbenchmarks -------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// Isolates the per-token / per-node costs the allocation-lean rework
// targets: token block queue round trips (pooled vs heap blocks), arena
// vs malloc object allocation, interner hits and misses, and symbol-table
// inserts.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "lex/TokenBlockQueue.h"
#include "support/Arena.h"
#include "support/StringInterner.h"
#include "symtab/Scope.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

using namespace m2c;
using namespace m2c::bench;

namespace {

SuiteFixture &fixture() {
  static SuiteFixture Suite;
  return Suite;
}

constexpr size_t TokensPerRun = 8192;

/// Producer fills the queue, one reader drains it.  All blocks publish
/// before the reader starts, so the barrier waits are already satisfied
/// (the single-threaded steady state of a warm pipeline stage).
void runQueueRoundTrip(benchmark::State &State, TokenBlockPool *Pool) {
  Token T;
  T.Kind = TokenKind::Identifier;
  size_t Consumed = 0;
  for (auto _ : State) {
    TokenBlockQueue Q("bench", Pool);
    for (size_t I = 0; I < TokensPerRun; ++I)
      Q.append(T);
    Q.finish(SourceLocation());
    TokenBlockQueue::Reader R(Q);
    Consumed = 0;
    while (!R.next().isEof())
      ++Consumed;
    benchmark::DoNotOptimize(Consumed);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(TokensPerRun));
  State.counters["tokens"] = static_cast<double>(Consumed);
}

void BM_TokenQueuePooled(benchmark::State &State) {
  TokenBlockPool Pool;
  runQueueRoundTrip(State, &Pool);
  State.counters["blocks_allocated"] =
      static_cast<double>(Pool.blocksAllocated());
}
BENCHMARK(BM_TokenQueuePooled)->Unit(benchmark::kMicrosecond);

void BM_TokenQueueUnpooled(benchmark::State &State) {
  runQueueRoundTrip(State, nullptr);
}
BENCHMARK(BM_TokenQueueUnpooled)->Unit(benchmark::kMicrosecond);

/// The AST-node-sized allocation the arena replaces.
struct Node {
  uint64_t Words[8];
};

void BM_ArenaAllocate(benchmark::State &State) {
  constexpr int N = 4096;
  for (auto _ : State) {
    support::Arena A;
    for (int I = 0; I < N; ++I)
      benchmark::DoNotOptimize(A.create<Node>());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * N);
}
BENCHMARK(BM_ArenaAllocate)->Unit(benchmark::kMicrosecond);

void BM_HeapAllocate(benchmark::State &State) {
  constexpr int N = 4096;
  std::vector<std::unique_ptr<Node>> Owned;
  Owned.reserve(N);
  for (auto _ : State) {
    Owned.clear();
    for (int I = 0; I < N; ++I)
      Owned.push_back(std::make_unique<Node>());
    benchmark::DoNotOptimize(Owned.data());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * N);
}
BENCHMARK(BM_HeapAllocate)->Unit(benchmark::kMicrosecond);

/// Steady-state interning: every lookup hits (the lexer's common case —
/// source re-mentions the same identifiers over and over).
void BM_InternerHit(benchmark::State &State) {
  StringInterner Interner;
  std::vector<std::string> Names;
  for (int I = 0; I < 512; ++I)
    Names.push_back("ident" + std::to_string(I));
  for (const std::string &N : Names)
    Interner.intern(N);
  for (auto _ : State)
    for (const std::string &N : Names)
      benchmark::DoNotOptimize(Interner.intern(N));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Names.size()));
}
BENCHMARK(BM_InternerHit)->Unit(benchmark::kMicrosecond);

/// Cold interning: every lookup inserts.
void BM_InternerMiss(benchmark::State &State) {
  constexpr int N = 512;
  std::vector<std::string> Names;
  for (int I = 0; I < N; ++I)
    Names.push_back("fresh" + std::to_string(I));
  for (auto _ : State) {
    StringInterner Interner;
    for (const std::string &Name : Names)
      benchmark::DoNotOptimize(Interner.intern(Name));
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * N);
}
BENCHMARK(BM_InternerMiss)->Unit(benchmark::kMicrosecond);

/// Symbol-table population: the declaration-analysis hot loop (one
/// arena-backed entry per variable).
void BM_ScopeInsert(benchmark::State &State) {
  constexpr int N = 1024;
  StringInterner &Interner = fixture().Interner;
  std::vector<Symbol> Names;
  for (int I = 0; I < N; ++I)
    Names.push_back(Interner.intern("v" + std::to_string(I)));
  for (auto _ : State) {
    symtab::Scope S("bench", symtab::ScopeKind::Module, nullptr, nullptr);
    for (Symbol Name : Names) {
      symtab::SymbolEntry E;
      E.Name = Name;
      E.Kind = symtab::EntryKind::Var;
      benchmark::DoNotOptimize(S.insert(E).Entry);
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * N);
}
BENCHMARK(BM_ScopeInsert)->Unit(benchmark::kMicrosecond);

} // namespace

int main(int argc, char **argv) {
  verifyMcoByteIdentity(fixture(), "Suite18");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
