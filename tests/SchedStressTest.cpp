//===--- SchedStressTest.cpp - Work-stealing executor stress tests ---------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hammers the sharded work-stealing ThreadedExecutor with thousands of
/// tiny tasks, randomized handled/barrier waits, cross-task signals and
/// avoided-event gating.  Completion of each request is itself the
/// lost-wakeup assertion: a dropped notify would leave a worker parked
/// forever and trip the executor's deadlock detector (abort) or hang the
/// test.  The death tests check that the detector does fire on a real
/// deadlock, and that a task spawned outside any request aborts.
/// Intended to run under ThreadSanitizer in CI as well as natively.
///
//===----------------------------------------------------------------------===//

#include "sched/ExecContext.h"
#include "sched/SimulatedExecutor.h"
#include "sched/ThreadedExecutor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <vector>

using namespace m2c;
using namespace m2c::sched;

namespace {

// Non-producer classes a random tiny task may use.  Producer classes
// (Lexor/Splitter/Importer) are reserved for tasks that never block, which
// is the invariant that makes barrier waits deadlock-free.
const TaskClass ConsumerClasses[] = {
    TaskClass::DefModParserDecl, TaskClass::ModuleParserDecl,
    TaskClass::ProcParserDecl,   TaskClass::LongStmtCodeGen,
    TaskClass::ShortStmtCodeGen, TaskClass::Merge,
};

// Spawns a task that waits on a handled event and, when \p Signal, the
// task that signals it.  Without the signal the waiter can never resume.
void spawnWaiter(ThreadedExecutor &Exec, bool Signal,
                 const std::shared_ptr<void> &Tag) {
  EventPtr E = makeEvent("never", EventKind::Handled);
  TaskPtr Waiter = makeTask("waiter", TaskClass::ProcParserDecl,
                            [E] { ctx().wait(*E); });
  Waiter->setRequestTag(Tag);
  Exec.spawn(std::move(Waiter));
  if (!Signal)
    return;
  TaskPtr Signaler = makeTask("signaler", TaskClass::ShortStmtCodeGen,
                              [E] { ctx().signal(*E); });
  Signaler->setRequestTag(Tag);
  Exec.spawn(std::move(Signaler));
}

// The deadlock check sits in the one await path: a request on the
// process-lifetime executor aborts with the report instead of hanging.
TEST(SchedStressDeathTest, UnsignaledWaitAbortsSharedRequest) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto Await = [](bool Signal) {
    ThreadedExecutor &Exec = ThreadedExecutor::shared(2);
    std::shared_ptr<void> Tag = Exec.openRequest();
    spawnWaiter(Exec, Signal, Tag);
    Exec.awaitRequest(Tag);
    return Exec.closeRequest(Tag).at("sched.tasks.total");
  };
  EXPECT_EQ(Await(true), 2u);
  EXPECT_DEATH(Await(false), "m2c: deadlock: 1 tasks incomplete");
}

// Every task belongs to a request: one spawned without a tag aborts with
// a message naming it.
TEST(SchedStressDeathTest, UntaggedSpawnAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ThreadedExecutor Exec(2);
  EXPECT_DEATH(Exec.spawn(makeTask("stray", TaskClass::Merge, [] {})),
               "m2c: task 'stray' spawned outside any request");
}

// The workers start with a request's first task, not at its open, so a
// request that spawns nothing (a VM that never promotes) starts no thread.
TEST(SchedStress, RequestStartsWorkersWithItsFirstTask) {
  ThreadedExecutor Exec(2);
  std::shared_ptr<void> Idle = Exec.openRequest();
  Exec.awaitRequest(Idle);
  EXPECT_EQ(Exec.closeRequest(Idle).at("sched.workers.spawned"), 0u);
  std::shared_ptr<void> Busy = Exec.openRequest();
  TaskPtr T = makeTask("t", TaskClass::ShortStmtCodeGen, [] {});
  T->setRequestTag(Busy);
  Exec.spawn(std::move(T));
  Exec.awaitRequest(Busy);
  EXPECT_EQ(Exec.closeRequest(Busy).at("sched.workers.spawned"), 2u);
}

TEST(SchedStress, ThousandsOfTinyTasksWithRandomWaits) {
  for (unsigned Processors : {1u, 2u, 4u}) {
    ThreadedExecutor Exec(Processors);
    std::mt19937 Rng(12345 + Processors);
    std::atomic<uint64_t> Ran{0};
    uint64_t Expected = 0;
    std::vector<TaskPtr> Graph;

    auto RandomClass = [&] {
      return ConsumerClasses[Rng() % std::size(ConsumerClasses)];
    };

    // Handled-wait pairs: a waiter blocks on an event a signaler task
    // signals.  Handled waits release the waiter's concurrency token, so
    // any interleaving is safe.  Each waiter then signals a downstream
    // avoided event gating a third task (cross-task signal chain
    // exercising the Supervisor and the MayGate fast path).
    constexpr int HandledPairs = 600;
    for (int I = 0; I < HandledPairs; ++I) {
      EventPtr E =
          makeEvent("h" + std::to_string(I), EventKind::Handled);
      EventPtr Gate =
          makeEvent("g" + std::to_string(I), EventKind::Avoided);
      auto Gated = makeTask("gated" + std::to_string(I), RandomClass(),
                            [&Ran] { ++Ran; });
      Gated->addPrerequisite(Gate);
      Graph.push_back(std::move(Gated));
      Graph.push_back(makeTask("hwait" + std::to_string(I), RandomClass(),
                               [&Ran, E, Gate] {
                                 ctx().wait(*E);
                                 ctx().signal(*Gate);
                                 ++Ran;
                               }));
      Graph.push_back(makeTask("hsig" + std::to_string(I), RandomClass(),
                               [&Ran, E] {
                                 ctx().signal(*E);
                                 ++Ran;
                               }));
      Expected += 3;
    }

    // Barrier-wait pairs: barrier waiters hold their token, so the
    // signaler must be a producer-class task (popped from the global
    // producer queue ahead of everything) that never blocks — the token
    // stream invariant from paper section 2.3.3.
    constexpr int BarrierPairs = 200;
    for (int I = 0; I < BarrierPairs; ++I) {
      EventPtr E =
          makeEvent("b" + std::to_string(I), EventKind::Barrier);
      Graph.push_back(makeTask("bsig" + std::to_string(I), TaskClass::Lexor,
                               [&Ran, E] {
                                 ctx().signal(*E);
                                 ++Ran;
                               }));
      Graph.push_back(makeTask("bwait" + std::to_string(I), RandomClass(),
                               [&Ran, E] {
                                 ctx().wait(*E);
                                 ++Ran;
                               }));
      Expected += 2;
    }

    // Fan-out filler: tasks that spawn children from inside the executor
    // (the WorkerContext::spawn home-shard path work stealing rebalances).
    constexpr int Spawners = 150;
    constexpr int ChildrenPerSpawner = 4;
    for (int I = 0; I < Spawners; ++I) {
      Graph.push_back(makeTask(
          "spawner" + std::to_string(I), RandomClass(), [&Ran] {
            ++Ran;
            for (int C = 0; C < ChildrenPerSpawner; ++C)
              ctx().spawn(makeTask("child", TaskClass::Merge,
                                   [&Ran] { ++Ran; }));
          }));
      Expected += 1 + ChildrenPerSpawner;
    }

    // One root task spawns the graph into the request.  It holds a
    // processor while it does, so on one processor the whole graph is
    // queued before any of it runs and each barrier signaler (a producer,
    // popped first) precedes its waiter.
    std::shared_ptr<void> Tag = Exec.openRequest();
    TaskPtr Root = makeTask("root", TaskClass::Lexor, [&Ran, &Graph] {
      ++Ran;
      for (TaskPtr &T : Graph)
        ctx().spawn(std::move(T));
    });
    Root->setRequestTag(Tag);
    Exec.spawn(std::move(Root));
    ++Expected;
    Exec.awaitRequest(Tag);
    Exec.closeRequest(Tag);
    EXPECT_EQ(Ran.load(), Expected) << "Processors=" << Processors;
    EXPECT_EQ(Exec.stats().get("sched.tasks.total"), Expected);
    EXPECT_EQ(Exec.stats().get("sched.tasks.started"), Expected);
    // Every gated task really went through the avoided-event machinery.
    EXPECT_EQ(Exec.stats().get("sched.tasks.released_by_event"),
              static_cast<uint64_t>(HandledPairs));
  }
}

// Runs one fixed task graph as a request and returns its elapsed time: a
// three-stage chain gated by avoided events plus two independent tasks,
// with known virtual-time charges.
static uint64_t runFixedGraph(Executor &Exec, std::atomic<int> &Done) {
  std::shared_ptr<void> Tag = Exec.openRequest();
  auto Spawn = [&Exec, &Tag](TaskPtr T) {
    T->setRequestTag(Tag);
    Exec.spawn(std::move(T));
  };
  EventPtr AB = makeEvent("ab", EventKind::Avoided);
  EventPtr BC = makeEvent("bc", EventKind::Avoided);
  // The gated tasks go first: a threaded request runs each task as it is
  // spawned, and a task spawned after its event fired is never held.
  auto B = makeTask("b", TaskClass::ProcParserDecl, [&Done, BC] {
    ctx().charge(CostKind::ParseToken, 2); // 2 * 45 = 90 units
    ctx().signal(*BC);
    ++Done;
  });
  B->addPrerequisite(AB);
  Spawn(std::move(B));
  auto C = makeTask("c", TaskClass::ShortStmtCodeGen, [&Done] {
    ctx().charge(CostKind::EmitInstr, 3); // 3 * 85 = 255 units
    ++Done;
  });
  C->addPrerequisite(BC);
  Spawn(std::move(C));
  Spawn(makeTask("a", TaskClass::Lexor, [&Done, AB] {
    ctx().charge(CostKind::LexToken, 10); // 10 * 5 = 50 units
    ctx().signal(*AB);
    ++Done;
  }));
  for (int I = 0; I < 2; ++I)
    Spawn(makeTask("free" + std::to_string(I), TaskClass::Merge, [&Done] {
      ctx().charge(CostKind::MergeUnit, 1); // 900
      ++Done;
    }));
  uint64_t Units = Exec.awaitRequest(Tag);
  Exec.closeRequest(Tag);
  return Units;
}

TEST(SchedStress, ElapsedUnitAccountingMatchesSimulator) {
  // The executor rework must not change virtual-time accounting: on the
  // fixed graph the simulator's makespan is exactly the hand-computed
  // value, twice over (determinism), and the threaded executor runs the
  // identical graph to completion with identical task accounting.
  //
  // On 2 virtual processors the chain a(50) -> b(90) -> c(255) occupies
  // one processor for 395 units while the two 900-unit merge tasks share
  // the machine; the second merge task starts when the chain's processor
  // frees up.  Critical path: merge task started at t=50 on the chain
  // processor... the exact makespan is scheduler-policy dependent, so
  // compute it from one simulator run and require the second run and the
  // 1-processor serial sum to match exactly.
  // Serial makespan = work charges plus the model's per-task dispatch
  // cost and per-signal overhead (5 tasks, 2 signals).
  CostModel Model;
  uint64_t SerialUnits = (50 + 90 + 255 + 900 + 900) +
                         5 * Model.TaskDispatch +
                         2 * Model.EventSignalOverhead;
  uint64_t Mks[2];
  for (int Round = 0; Round < 2; ++Round) {
    SimulatedExecutor Sim(2);
    std::atomic<int> Done{0};
    Mks[Round] = runFixedGraph(Sim, Done);
    EXPECT_EQ(Done.load(), 5);
  }
  EXPECT_EQ(Mks[0], Mks[1]) << "simulator must be deterministic";
  EXPECT_GT(Mks[0], 0u);
  EXPECT_LE(Mks[0], SerialUnits);

  {
    SimulatedExecutor Sim1(1);
    std::atomic<int> Done{0};
    EXPECT_EQ(runFixedGraph(Sim1, Done), SerialUnits)
        << "1-processor makespan must equal the serial charge sum";
    EXPECT_EQ(Done.load(), 5);
  }

  ThreadedExecutor Thr(2);
  std::atomic<int> Done{0};
  runFixedGraph(Thr, Done);
  EXPECT_EQ(Done.load(), 5);
  EXPECT_EQ(Thr.stats().get("sched.tasks.total"), 5u);
  EXPECT_EQ(Thr.stats().get("sched.tasks.started"), 5u);
  // Both gated tasks were released by their prerequisite events.
  EXPECT_EQ(Thr.stats().get("sched.tasks.released_by_event"), 2u);
}

} // namespace
