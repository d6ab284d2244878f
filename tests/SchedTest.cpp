//===--- SchedTest.cpp - Scheduler unit tests ------------------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "sched/ExecContext.h"
#include "sched/SimulatedExecutor.h"
#include "sched/Supervisor.h"
#include "sched/ThreadedExecutor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

using namespace m2c;
using namespace m2c::sched;

namespace {

TEST(Supervisor, PopsInPriorityClassOrder) {
  Supervisor Sup;
  auto Short = makeTask("short", TaskClass::ShortStmtCodeGen, [] {});
  auto Lex = makeTask("lex", TaskClass::Lexor, [] {});
  auto Split = makeTask("split", TaskClass::Splitter, [] {});
  Sup.add(Short);
  Sup.add(Split);
  Sup.add(Lex);
  EXPECT_EQ(Sup.popBest().get(), Lex.get());
  EXPECT_EQ(Sup.popBest().get(), Split.get());
  EXPECT_EQ(Sup.popBest().get(), Short.get());
  EXPECT_EQ(Sup.popBest(), nullptr);
}

TEST(Supervisor, LongCodeGenOrderedByDescendingWeight) {
  Supervisor Sup;
  auto A = makeTask("a", TaskClass::LongStmtCodeGen, [] {});
  auto B = makeTask("b", TaskClass::LongStmtCodeGen, [] {});
  auto C = makeTask("c", TaskClass::LongStmtCodeGen, [] {});
  A->setWeight(10);
  B->setWeight(30);
  C->setWeight(20);
  Sup.add(A);
  Sup.add(B);
  Sup.add(C);
  EXPECT_EQ(Sup.popBest().get(), B.get());
  EXPECT_EQ(Sup.popBest().get(), C.get());
  EXPECT_EQ(Sup.popBest().get(), A.get());
}

TEST(Supervisor, AvoidedEventHoldsTaskUntilSignal) {
  Supervisor Sup;
  EventPtr Gate = makeEvent("gate", EventKind::Avoided);
  auto T = makeTask("gated", TaskClass::Lexor, [] {});
  T->addPrerequisite(Gate);
  Sup.add(T);
  EXPECT_FALSE(Sup.hasReady());
  EXPECT_EQ(Sup.heldCount(), 1u);
  SequentialContext Seq;
  Seq.signal(*Gate);
  EXPECT_EQ(Sup.noteSignaled(*Gate), 1u);
  EXPECT_TRUE(Sup.hasReady());
  EXPECT_EQ(Sup.popBest().get(), T.get());
}

TEST(Supervisor, BoostedTaskJumpsQueue) {
  Supervisor Sup;
  auto Lex = makeTask("lex", TaskClass::Lexor, [] {});
  auto Proc = makeTask("proc", TaskClass::ProcParserDecl, [] {});
  Sup.add(Lex);
  Sup.add(Proc);
  EventPtr Dky = makeEvent("dky", EventKind::Handled);
  Dky->setResolver(Proc.get());
  EXPECT_TRUE(Sup.boostResolver(*Dky));
  EXPECT_EQ(Sup.popBest().get(), Proc.get());
  // Boosting an already started resolver is a no-op.
  EXPECT_FALSE(Sup.boostResolver(*Dky));
}

TEST(Supervisor, MultiplePrerequisitesAllRequired) {
  Supervisor Sup;
  EventPtr E1 = makeEvent("e1", EventKind::Avoided);
  EventPtr E2 = makeEvent("e2", EventKind::Avoided);
  auto T = makeTask("t", TaskClass::Merge, [] {});
  T->addPrerequisite(E1);
  T->addPrerequisite(E2);
  Sup.add(T);
  SequentialContext Seq;
  Seq.signal(*E1);
  EXPECT_EQ(Sup.noteSignaled(*E1), 0u);
  EXPECT_FALSE(Sup.hasReady());
  Seq.signal(*E2);
  EXPECT_EQ(Sup.noteSignaled(*E2), 1u);
  EXPECT_TRUE(Sup.hasReady());
}

// Nothing runs tasks on a sequential context, so a spawn there aborts,
// naming the task, instead of queueing work that never runs.
TEST(SequentialContextDeathTest, SpawnAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  SequentialContext Seq;
  EXPECT_DEATH(Seq.spawn(makeTask("orphan", TaskClass::Merge, [] {})),
               "m2c: task 'orphan' spawned on a sequential context");
}

//===----------------------------------------------------------------------===//
// Executor-parameterized behaviour
//===----------------------------------------------------------------------===//

enum class ExecKind { Threaded, Simulated };

struct ExecCase {
  ExecKind Kind;
  unsigned Processors;
};

/// Each case runs its tasks as one request on a fresh executor.
class ExecutorTest : public ::testing::TestWithParam<ExecCase> {
protected:
  void SetUp() override {
    ExecCase C = GetParam();
    if (C.Kind == ExecKind::Threaded)
      Exec = std::make_unique<ThreadedExecutor>(C.Processors);
    else
      Exec = std::make_unique<SimulatedExecutor>(C.Processors);
    Tag = Exec->openRequest();
  }

  /// Spawns \p T as a task of the case's request.
  void spawn(TaskPtr T) {
    T->setRequestTag(Tag);
    Exec->spawn(std::move(T));
  }

  /// Awaits and closes the request, folding its counters into stats().
  void run() {
    Exec->awaitRequest(Tag);
    Exec->closeRequest(Tag);
  }

  std::unique_ptr<Executor> Exec;
  std::shared_ptr<void> Tag;
};

TEST_P(ExecutorTest, RunsAllSpawnedTasks) {
  std::atomic<int> Count{0};
  for (int I = 0; I < 20; ++I)
    spawn(makeTask("t" + std::to_string(I), TaskClass::Lexor,
                   [&Count] { ++Count; }));
  run();
  EXPECT_EQ(Count.load(), 20);
  EXPECT_EQ(Exec->stats().get("sched.tasks.started"), 20u);
}

TEST_P(ExecutorTest, TasksCanSpawnTasks) {
  std::atomic<int> Count{0};
  spawn(makeTask("root", TaskClass::Splitter, [&Count] {
    ++Count;
    for (int I = 0; I < 5; ++I)
      ctx().spawn(makeTask("child" + std::to_string(I),
                           TaskClass::ProcParserDecl, [&Count] {
                             ++Count;
                             ctx().spawn(makeTask("grandchild",
                                                  TaskClass::Merge,
                                                  [&Count] { ++Count; }));
                           }));
  }));
  run();
  EXPECT_EQ(Count.load(), 1 + 5 + 5);
}

TEST_P(ExecutorTest, HandledEventBlocksUntilSignaled) {
  EventPtr Done = makeEvent("done", EventKind::Handled);
  std::atomic<bool> ProducerRan{false};
  std::atomic<bool> OrderOk{false};
  // Consumer has higher priority (Lexor) so it starts first and must
  // block; producer (lower class) then runs on a released processor.
  spawn(makeTask("consumer", TaskClass::Lexor, [&] {
    ctx().wait(*Done);
    OrderOk = ProducerRan.load();
  }));
  spawn(makeTask("producer", TaskClass::ShortStmtCodeGen, [&] {
    ProducerRan = true;
    ctx().signal(*Done);
  }));
  run();
  EXPECT_TRUE(OrderOk.load());
  // Whether the consumer actually blocked (rather than finding the event
  // already signaled) is schedule-dependent on real threads; only the
  // deterministic simulator guarantees the wait happened.
  if (GetParam().Kind == ExecKind::Simulated) {
    EXPECT_GE(Exec->stats().get("sched.waits.handled"), 1u);
  }
}

TEST_P(ExecutorTest, AvoidedEventDefersTaskStart) {
  EventPtr Gate = makeEvent("gate", EventKind::Avoided);
  std::atomic<bool> GateSignaledFirst{false};
  std::atomic<bool> Signaled{false};
  auto Gated = makeTask("gated", TaskClass::Lexor,
                        [&] { GateSignaledFirst = Signaled.load(); });
  Gated->addPrerequisite(Gate);
  spawn(Gated);
  spawn(makeTask("opener", TaskClass::ShortStmtCodeGen, [&] {
    Signaled = true;
    ctx().signal(*Gate);
  }));
  run();
  EXPECT_TRUE(GateSignaledFirst.load());
}

TEST_P(ExecutorTest, BarrierEventProducerConsumer) {
  // Producer must be the higher-priority class so that on one processor it
  // completes before the consumer starts (the paper's Lexor-first rule).
  std::vector<EventPtr> Blocks;
  for (int I = 0; I < 4; ++I)
    Blocks.push_back(
        makeEvent("block" + std::to_string(I), EventKind::Barrier));
  std::atomic<int> Produced{0}, Consumed{0};
  spawn(makeTask("lexor", TaskClass::Lexor, [&] {
    for (auto &B : Blocks) {
      ++Produced;
      ctx().signal(*B);
    }
  }));
  auto Consumer = makeTask("splitter", TaskClass::Splitter, [&] {
    for (auto &B : Blocks) {
      ctx().wait(*B);
      ++Consumed;
    }
  });
  spawn(Consumer);
  run();
  EXPECT_EQ(Produced.load(), 4);
  EXPECT_EQ(Consumed.load(), 4);
}

TEST_P(ExecutorTest, ResolverBoostPrefersDkyResolver) {
  EventPtr TableDone = makeEvent("table", EventKind::Handled);
  std::atomic<int> Order{0};
  std::atomic<int> ResolverPos{-1}, OtherPos{-1};
  auto Resolver = makeTask("resolver", TaskClass::ShortStmtCodeGen, [&] {
    ResolverPos = Order++;
    ctx().signal(*TableDone);
  });
  TableDone->setResolver(Resolver.get());
  // One blocker per processor, so the resolver and the decoy only run on
  // slots released by DKY waits, after the boost has been applied.
  for (unsigned I = 0; I < GetParam().Processors; ++I)
    spawn(makeTask("blocker" + std::to_string(I), TaskClass::Lexor,
                   [&] { ctx().wait(*TableDone); }));
  // Spawned before the resolver and in an earlier priority class, yet the
  // boost must let the resolver run first once the blocker waits.
  auto Other = makeTask("other", TaskClass::ProcParserDecl,
                        [&] { OtherPos = Order++; });
  spawn(Other);
  spawn(Resolver);
  run();
  ASSERT_GE(ResolverPos.load(), 0);
  ASSERT_GE(OtherPos.load(), 0);
  EXPECT_GE(Exec->stats().get("sched.boosts"), 1u);
  // Execution order of two concurrently dispatched bodies is only
  // deterministic on the simulator; real threads may interleave.
  if (GetParam().Kind == ExecKind::Simulated) {
    EXPECT_LT(ResolverPos.load(), OtherPos.load());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllExecutors, ExecutorTest,
    ::testing::Values(ExecCase{ExecKind::Threaded, 1},
                      ExecCase{ExecKind::Threaded, 2},
                      ExecCase{ExecKind::Threaded, 4},
                      ExecCase{ExecKind::Simulated, 1},
                      ExecCase{ExecKind::Simulated, 2},
                      ExecCase{ExecKind::Simulated, 4},
                      ExecCase{ExecKind::Simulated, 8}),
    [](const ::testing::TestParamInfo<ExecCase> &Info) {
      return std::string(Info.param.Kind == ExecKind::Threaded ? "Threaded"
                                                               : "Simulated") +
             std::to_string(Info.param.Processors);
    });

//===----------------------------------------------------------------------===//
// Simulated-executor timing semantics
//===----------------------------------------------------------------------===//

TEST(SimulatedExecutor, ChargesAdvanceVirtualTime) {
  CostModel Model;
  SimulatedExecutor Exec(1, Model);
  Exec.spawn(makeTask("worker", TaskClass::Lexor, [] {
    ctx().charge(CostKind::LexToken, 100);
  }));
  Exec.run();
  EXPECT_GE(Exec.elapsedUnits(), Model.unitsFor(CostKind::LexToken, 100));
}

TEST(SimulatedExecutor, PerfectlyParallelWorkScalesLinearly) {
  CostModel Model;
  Model.BusBeta = 0.0; // An ideal machine: this test checks the scheduler.
  std::vector<uint64_t> Times;
  for (unsigned P : {1u, 2u, 4u}) {
    SimulatedExecutor Exec(P, Model);
    for (int I = 0; I < 8; ++I)
      Exec.spawn(makeTask("t" + std::to_string(I), TaskClass::Lexor, [] {
        ctx().charge(CostKind::StmtNode, 100000);
      }));
    Exec.run();
    Times.push_back(Exec.elapsedUnits());
  }
  double S2 = static_cast<double>(Times[0]) / static_cast<double>(Times[1]);
  double S4 = static_cast<double>(Times[0]) / static_cast<double>(Times[2]);
  EXPECT_GT(S2, 1.9);
  EXPECT_LE(S2, 2.0 + 1e-9);
  EXPECT_GT(S4, 3.8);
  EXPECT_LE(S4, 4.0 + 1e-9);
}

TEST(SimulatedExecutor, DeterministicAcrossRuns) {
  auto RunOnce = [] {
    SimulatedExecutor Exec(3);
    EventPtr E = makeEvent("e", EventKind::Handled);
    for (int I = 0; I < 6; ++I)
      Exec.spawn(makeTask("w" + std::to_string(I), TaskClass::ProcParserDecl,
                          [E, I] {
                            ctx().charge(CostKind::DeclAnalyzed,
                                         100 + 37 * static_cast<uint64_t>(I));
                            if (I == 3)
                              ctx().signal(*E);
                            else if (I > 3)
                              ctx().wait(*E);
                          }));
    Exec.run();
    return Exec.elapsedUnits();
  };
  uint64_t A = RunOnce();
  uint64_t B = RunOnce();
  uint64_t C = RunOnce();
  EXPECT_EQ(A, B);
  EXPECT_EQ(B, C);
}

TEST(SimulatedExecutor, BusContentionSlowsConcurrentWork) {
  CostModel Contended;
  Contended.BusBeta = 0.05;
  auto Measure = [](const CostModel &Model, unsigned P) {
    SimulatedExecutor Exec(P, Model);
    for (unsigned I = 0; I < 8; ++I)
      Exec.spawn(makeTask("t" + std::to_string(I), TaskClass::Lexor,
                          [] { ctx().charge(CostKind::StmtNode, 10000); }));
    Exec.run();
    return Exec.elapsedUnits();
  };
  CostModel Ideal;
  // Same work, same processor count: contention must not speed things up,
  // and with 8 busy processors it must visibly slow them down.
  EXPECT_GT(Measure(Contended, 8), Measure(Ideal, 8));
  // With one processor there is no contention to model.
  EXPECT_EQ(Measure(Contended, 1), Measure(Ideal, 1));
}

TEST(SimulatedExecutor, BarrierWaitHoldsProcessor) {
  // Two processors, one producer (Lexor) + one consumer that barrier-waits,
  // plus an independent task.  The independent task must not run on the
  // consumer's processor while it barrier-waits; with both processors
  // occupied (producer + stalled consumer) it runs only after one frees.
  CostModel Model;
  SimulatedExecutor Exec(2, Model);
  EventPtr Block = makeEvent("block", EventKind::Barrier);
  Exec.spawn(makeTask("lexor", TaskClass::Lexor, [Block] {
    ctx().charge(CostKind::LexToken, 1000);
    ctx().signal(*Block);
  }));
  Exec.spawn(makeTask("consumer", TaskClass::Splitter, [Block] {
    ctx().wait(*Block);
    ctx().charge(CostKind::SplitToken, 10);
  }));
  Exec.spawn(makeTask("independent", TaskClass::Merge,
                      [] { ctx().charge(CostKind::MergeUnit, 1); }));
  Exec.run();
  EXPECT_EQ(Exec.stats().get("sched.waits.barrier"), 1u);
  EXPECT_GT(Exec.stats().get("sched.waits.barrier_units"), 0u);
}

} // namespace
