//===--- SymtabTest.cpp - Concurrent symbol table and DKY tests ------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "sched/SimulatedExecutor.h"
#include "sched/ThreadedExecutor.h"
#include "symtab/NameResolver.h"

#include <gtest/gtest.h>

using namespace m2c;
using namespace m2c::sched;
using namespace m2c::symtab;

namespace {

SymbolEntry makeVar(Symbol Name) {
  SymbolEntry E;
  E.Name = Name;
  E.Kind = EntryKind::Var;
  return E;
}

struct SymtabFixture {
  StringInterner Interner;
  Symbol sym(std::string_view S) { return Interner.intern(S); }
};

TEST(Scope, InsertAndFind) {
  SymtabFixture F;
  Scope S("test", ScopeKind::Module, nullptr, nullptr);
  EXPECT_TRUE(S.insert(makeVar(F.sym("x"))).Inserted);
  EXPECT_TRUE(S.insert(makeVar(F.sym("y"))).Inserted);
  auto Dup = S.insert(makeVar(F.sym("x")));
  EXPECT_FALSE(Dup.Inserted); // clash reports the existing entry
  ASSERT_NE(Dup.Entry, nullptr);
  EXPECT_EQ(Dup.Entry->Name, F.sym("x"));
  EXPECT_NE(S.find(F.sym("x")), nullptr);
  EXPECT_EQ(S.find(F.sym("z")), nullptr);
  EXPECT_EQ(S.size(), 2u);
}

TEST(Scope, CompletionIsObservable) {
  SymtabFixture F;
  Scope S("test", ScopeKind::Module, nullptr, nullptr);
  EXPECT_FALSE(S.isComplete());
  S.markComplete();
  EXPECT_TRUE(S.isComplete());
}

TEST(Scope, ProbeOrPendingAfterCompletionYieldsNothing) {
  SymtabFixture F;
  Scope S("test", ScopeKind::Module, nullptr, nullptr);
  S.markComplete();
  auto [Entry, Pending] = S.probeOrPending(F.sym("ghost"));
  EXPECT_EQ(Entry, nullptr);
  EXPECT_EQ(Pending, nullptr);
}

TEST(NameResolver, SelfScopeHit) {
  SymtabFixture F;
  LookupStats Stats;
  NameResolver Resolver(DkyStrategy::Skeptical, Stats);
  Scope Self("proc", ScopeKind::Procedure, nullptr, nullptr);
  Self.insert(makeVar(F.sym("local")));
  EXPECT_NE(Resolver.lookupSimple(Self, F.sym("local")), nullptr);
  EXPECT_EQ(Stats.get(LookupForm::Simple, FoundWhen::FirstTry,
                      FoundScope::Self, Completeness::Incomplete),
            1u);
}

TEST(NameResolver, BuiltinHitBeforeOuterChain) {
  SymtabFixture F;
  LookupStats Stats;
  NameResolver Resolver(DkyStrategy::Skeptical, Stats);
  Scope Builtins("builtins", ScopeKind::Builtin, nullptr, nullptr);
  Builtins.insert(makeVar(F.sym("ABS")));
  Builtins.markComplete();
  // Outer scope is INCOMPLETE: a builtin hit must not touch it, which is
  // the whole point of treating builtins as local to each scope.
  Scope Outer("module", ScopeKind::Module, nullptr, &Builtins);
  Scope Self("proc", ScopeKind::Procedure, &Outer, &Builtins);
  EXPECT_NE(Resolver.lookupSimple(Self, F.sym("ABS")), nullptr);
  EXPECT_EQ(Stats.get(LookupForm::Simple, FoundWhen::FirstTry,
                      FoundScope::Builtin, Completeness::Complete),
            1u);
  EXPECT_EQ(Stats.dkyBlockages(), 0u);
}

TEST(NameResolver, OuterHitInCompleteScope) {
  SymtabFixture F;
  LookupStats Stats;
  NameResolver Resolver(DkyStrategy::Skeptical, Stats);
  Scope Outer("module", ScopeKind::Module, nullptr, nullptr);
  Outer.insert(makeVar(F.sym("g")));
  Outer.markComplete();
  Scope Self("proc", ScopeKind::Procedure, &Outer, nullptr);
  EXPECT_NE(Resolver.lookupSimple(Self, F.sym("g")), nullptr);
  EXPECT_EQ(Stats.get(LookupForm::Simple, FoundWhen::Search, FoundScope::Outer,
                      Completeness::Complete),
            1u);
}

TEST(NameResolver, SkepticalFindsInIncompleteTableWithoutBlocking) {
  SymtabFixture F;
  LookupStats Stats;
  NameResolver Resolver(DkyStrategy::Skeptical, Stats);
  Scope Outer("module", ScopeKind::Module, nullptr, nullptr);
  Outer.insert(makeVar(F.sym("early")));
  // Outer never completes, but the entry is already there: Skeptical must
  // succeed without any DKY wait (its edge over Pessimistic).
  Scope Self("proc", ScopeKind::Procedure, &Outer, nullptr);
  EXPECT_NE(Resolver.lookupSimple(Self, F.sym("early")), nullptr);
  EXPECT_EQ(Stats.get(LookupForm::Simple, FoundWhen::Search, FoundScope::Outer,
                      Completeness::Incomplete),
            1u);
  EXPECT_EQ(Stats.dkyBlockages(), 0u);
}

TEST(NameResolver, UndeclaredIsNever) {
  SymtabFixture F;
  LookupStats Stats;
  NameResolver Resolver(DkyStrategy::Skeptical, Stats);
  Scope Outer("module", ScopeKind::Module, nullptr, nullptr);
  Outer.markComplete();
  Scope Self("proc", ScopeKind::Procedure, &Outer, nullptr);
  EXPECT_EQ(Resolver.lookupSimple(Self, F.sym("nope")), nullptr);
  EXPECT_EQ(Stats.get(LookupForm::Simple, FoundWhen::Never, FoundScope::None,
                      Completeness::Complete),
            1u);
}

//===----------------------------------------------------------------------===//
// Concurrent DKY behaviour, parameterized over strategy x executor.
//===----------------------------------------------------------------------===//

enum class ExecKind { Threaded, Simulated };

struct DkyCase {
  DkyStrategy Strategy;
  ExecKind Kind;
};

class DkyTest : public ::testing::TestWithParam<DkyCase> {
protected:
  /// Runs \p Tasks, in spawn order, as one request on a fresh executor
  /// with \p Processors processors.
  void runTasks(unsigned Processors, std::vector<TaskPtr> Tasks) {
    std::unique_ptr<Executor> Exec;
    if (GetParam().Kind == ExecKind::Threaded)
      Exec = std::make_unique<ThreadedExecutor>(Processors);
    else
      Exec = std::make_unique<SimulatedExecutor>(Processors);
    std::shared_ptr<void> Tag = Exec->openRequest();
    for (TaskPtr &T : Tasks) {
      T->setRequestTag(Tag);
      Exec->spawn(std::move(T));
    }
    Exec->awaitRequest(Tag);
    Exec->closeRequest(Tag);
  }
};

TEST_P(DkyTest, LateDeclarationIsFoundAfterBlocking) {
  // The consumer searches an outer scope for a name the producer inserts
  // late; every strategy must eventually find it (strategies that search
  // early tables may also find it before completion).
  SymtabFixture F;
  LookupStats Stats;
  NameResolver Resolver(GetParam().Strategy, Stats);
  Scope Outer("module", ScopeKind::Module, nullptr, nullptr);
  Scope Self("proc", ScopeKind::Procedure, &Outer, nullptr);
  Symbol Late = F.sym("late");

  std::atomic<bool> Found{false};

  auto Producer = makeTask("producer", TaskClass::ModuleParserDecl, [&] {
    ctx().charge(CostKind::DeclAnalyzed, 50);
    Outer.insert(makeVar(F.sym("other1")));
    ctx().charge(CostKind::DeclAnalyzed, 50);
    Outer.insert(makeVar(Late));
    ctx().charge(CostKind::DeclAnalyzed, 50);
    Outer.markComplete();
  });
  Outer.completionEvent()->setResolver(Producer.get());

  auto Consumer = makeTask("consumer", TaskClass::LongStmtCodeGen, [&] {
    // Under Avoidance the consumer is gated on the producer's completion.
    Found = Resolver.lookupSimple(Self, Late) != nullptr;
  });
  if (GetParam().Strategy == DkyStrategy::Avoidance)
    Consumer->addPrerequisite(Outer.completionEvent());

  runTasks(2, {Producer, Consumer});
  EXPECT_TRUE(Found.load());
}

TEST_P(DkyTest, UndeclaredNameNeverFalselyResolves) {
  SymtabFixture F;
  LookupStats Stats;
  NameResolver Resolver(GetParam().Strategy, Stats);
  Scope Outer("module", ScopeKind::Module, nullptr, nullptr);
  Scope Self("proc", ScopeKind::Procedure, &Outer, nullptr);

  std::atomic<bool> Missing{false};

  auto Producer = makeTask("producer", TaskClass::ModuleParserDecl, [&] {
    for (int I = 0; I < 20; ++I) {
      ctx().charge(CostKind::DeclAnalyzed, 10);
      Outer.insert(makeVar(F.sym("decl" + std::to_string(I))));
    }
    Outer.markComplete();
  });
  Outer.completionEvent()->setResolver(Producer.get());

  auto Consumer = makeTask("consumer", TaskClass::LongStmtCodeGen, [&] {
    // "Symbol table search must ... never fail to detect an undeclared
    // symbol."
    Missing = Resolver.lookupSimple(Self, F.sym("undeclared")) == nullptr;
  });
  if (GetParam().Strategy == DkyStrategy::Avoidance)
    Consumer->addPrerequisite(Outer.completionEvent());

  runTasks(2, {Producer, Consumer});
  EXPECT_TRUE(Missing.load());
}

TEST_P(DkyTest, ManyConsumersManyNames) {
  SymtabFixture F;
  LookupStats Stats;
  NameResolver Resolver(GetParam().Strategy, Stats);
  Scope Outer("module", ScopeKind::Module, nullptr, nullptr);
  constexpr int NumNames = 40;
  constexpr int NumConsumers = 6;

  std::atomic<int> Hits{0};

  auto Producer = makeTask("producer", TaskClass::ModuleParserDecl, [&] {
    for (int I = 0; I < NumNames; ++I) {
      ctx().charge(CostKind::DeclAnalyzed, 25);
      Outer.insert(makeVar(F.sym("name" + std::to_string(I))));
    }
    Outer.markComplete();
  });
  Outer.completionEvent()->setResolver(Producer.get());

  std::vector<std::unique_ptr<Scope>> Selves;
  for (int C = 0; C < NumConsumers; ++C)
    Selves.push_back(std::make_unique<Scope>("proc" + std::to_string(C),
                                             ScopeKind::Procedure, &Outer,
                                             nullptr));
  std::vector<TaskPtr> Tasks;
  for (int C = 0; C < NumConsumers; ++C) {
    auto Consumer =
        makeTask("consumer" + std::to_string(C), TaskClass::LongStmtCodeGen,
                 [&, C] {
                   for (int I = 0; I < NumNames; ++I)
                     if (Resolver.lookupSimple(
                             *Selves[static_cast<size_t>(C)],
                             F.sym("name" + std::to_string(I))))
                       ++Hits;
                 });
    if (GetParam().Strategy == DkyStrategy::Avoidance)
      Consumer->addPrerequisite(Outer.completionEvent());
    Tasks.push_back(Consumer);
  }
  Tasks.push_back(Producer);
  runTasks(4, std::move(Tasks));
  EXPECT_EQ(Hits.load(), NumNames * NumConsumers);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, DkyTest,
    ::testing::Values(
        DkyCase{DkyStrategy::Avoidance, ExecKind::Threaded},
        DkyCase{DkyStrategy::Pessimistic, ExecKind::Threaded},
        DkyCase{DkyStrategy::Skeptical, ExecKind::Threaded},
        DkyCase{DkyStrategy::Optimistic, ExecKind::Threaded},
        DkyCase{DkyStrategy::Avoidance, ExecKind::Simulated},
        DkyCase{DkyStrategy::Pessimistic, ExecKind::Simulated},
        DkyCase{DkyStrategy::Skeptical, ExecKind::Simulated},
        DkyCase{DkyStrategy::Optimistic, ExecKind::Simulated}),
    [](const ::testing::TestParamInfo<DkyCase> &Info) {
      return std::string(dkyStrategyName(Info.param.Strategy)) +
             (Info.param.Kind == ExecKind::Threaded ? "Threaded"
                                                    : "Simulated");
    });

TEST(LookupStats, TableRendersNonZeroRows) {
  LookupStats Stats;
  Stats.record(LookupForm::Simple, FoundWhen::FirstTry, FoundScope::Self,
               Completeness::Complete);
  Stats.record(LookupForm::Simple, FoundWhen::AfterDky, FoundScope::Outer,
               Completeness::Complete);
  Stats.record(LookupForm::Qualified, FoundWhen::FirstTry, FoundScope::Other,
               Completeness::Incomplete);
  std::string Table = Stats.renderTable();
  EXPECT_NE(Table.find("First try"), std::string::npos);
  EXPECT_NE(Table.find("After DKY"), std::string::npos);
  EXPECT_NE(Table.find("incomplete"), std::string::npos);
  EXPECT_EQ(Stats.total(LookupForm::Simple), 2u);
  EXPECT_EQ(Stats.total(LookupForm::Qualified), 1u);
  EXPECT_EQ(Stats.dkyBlockages(), 1u);
}

} // namespace
