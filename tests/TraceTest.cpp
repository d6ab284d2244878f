//===--- TraceTest.cpp - Activity recorder unit tests -----------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "sched/SimulatedExecutor.h"
#include "trace/ActivityRecorder.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

using namespace m2c;
using namespace m2c::sched;
using namespace m2c::trace;

namespace {

TaskPtr dummy(TaskClass Class) {
  return makeTask("t", Class, [] {});
}

TEST(Trace, EmptyRecorderRendersPlaceholder) {
  ActivityRecorder Rec;
  EXPECT_EQ(Rec.renderAscii(50), "(no activity recorded)\n");
  EXPECT_EQ(Rec.makespan(), 0u);
  EXPECT_EQ(Rec.utilization(4), 0.0);
}

TEST(Trace, EveryTaskClassHasADistinctGlyph) {
  std::set<char> Glyphs;
  for (unsigned K = 0; K < NumTaskClasses; ++K)
    Glyphs.insert(ActivityRecorder::classGlyph(static_cast<TaskClass>(K)));
  EXPECT_EQ(Glyphs.size(), static_cast<size_t>(NumTaskClasses));
  // Each glyph appears in the legend.
  std::string Legend = ActivityRecorder::legend();
  for (char G : Glyphs)
    EXPECT_NE(Legend.find(G), std::string::npos) << G;
}

TEST(Trace, DominantClassWinsTheBucket) {
  ActivityRecorder Rec;
  auto Lex = dummy(TaskClass::Lexor);
  auto Gen = dummy(TaskClass::LongStmtCodeGen);
  // In one 100-unit window, 30 units of lexing and 70 of codegen.
  Rec.record(0, *Lex, 0, 30);
  Rec.record(0, *Gen, 30, 100);
  std::string Art = Rec.renderAscii(1);
  EXPECT_NE(Art.find('C'), std::string::npos);
  EXPECT_EQ(Art.find('L'), std::string::npos);
}

TEST(Trace, ClearResets) {
  ActivityRecorder Rec;
  auto T = dummy(TaskClass::Lexor);
  Rec.record(0, *T, 0, 10);
  EXPECT_EQ(Rec.intervals().size(), 1u);
  Rec.clear();
  EXPECT_TRUE(Rec.intervals().empty());
  EXPECT_EQ(Rec.makespan(), 0u);
}

TEST(Trace, ConcurrentRecordingIsSafe) {
  ActivityRecorder Rec;
  auto T = dummy(TaskClass::Merge);
  std::vector<std::thread> Threads;
  for (int W = 0; W < 8; ++W)
    Threads.emplace_back([&Rec, &T, W] {
      for (uint64_t I = 0; I < 500; ++I)
        Rec.record(static_cast<unsigned>(W), *T, I * 10, I * 10 + 5);
    });
  for (std::thread &W : Threads)
    W.join();
  EXPECT_EQ(Rec.intervals().size(), 8u * 500u);
}

TEST(Trace, SimulatedExecutorFeedsDeterministicTraces) {
  auto RunOnce = [] {
    ActivityRecorder Rec;
    SimulatedExecutor Exec(3);
    std::shared_ptr<void> Tag = Exec.openRequest(&Rec);
    for (int I = 0; I < 9; ++I)
      Exec.spawn(makeTask("t" + std::to_string(I), TaskClass::ProcParserDecl,
                          [I] {
                            ctx().charge(CostKind::DeclAnalyzed,
                                         static_cast<uint64_t>(5 + I));
                          }));
    Exec.awaitRequest(Tag);
    return Rec.renderAscii(60);
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

TEST(Trace, UtilizationAccountsBlockedTimeAsIdle) {
  ActivityRecorder Rec;
  SimulatedExecutor Exec(2);
  std::shared_ptr<void> Tag = Exec.openRequest(&Rec);
  EventPtr Gate = makeEvent("gate", EventKind::Handled);
  // The waiter blocks for most of the producer's runtime: its blocked
  // span must not count as busy.
  Exec.spawn(makeTask("waiter", TaskClass::Lexor, [Gate] {
    ctx().charge(CostKind::LexToken, 10);
    ctx().wait(*Gate);
    ctx().charge(CostKind::LexToken, 10);
  }));
  Exec.spawn(makeTask("producer", TaskClass::Splitter, [Gate] {
    ctx().charge(CostKind::SplitToken, 100000);
    ctx().signal(*Gate);
  }));
  Exec.awaitRequest(Tag);
  EXPECT_LT(Rec.utilization(2), 0.75);
  EXPECT_GT(Rec.utilization(2), 0.25);
}

} // namespace
