//===--- TieringTest.cpp - Tiered-execution equivalence and races -----------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// The tiered VM's contract is that tier choice is *unobservable*: output,
// exit code, trap points and messages, and MaxSteps accounting are
// byte-identical whether a program interprets, runs fully promoted, or
// promotes concurrently mid-run.  These tests pin that contract, sweep
// the step budget across fused-group boundaries, and race promotion
// against execution (the TSan job runs this binary).
//
//===----------------------------------------------------------------------===//

#include "driver/SequentialCompiler.h"
#include "vm/VM.h"
#include "vm/VmStats.h"
#include "vm/tier/TierManager.h"
#include "workload/WorkloadGenerator.h"

#include <gtest/gtest.h>

#include <thread>

using namespace m2c;
using vm::tier::TierMode;
using vm::tier::TierPolicy;

namespace {

TierPolicy tier0Policy() {
  TierPolicy P;
  P.Mode = TierMode::Tier0Only;
  return P;
}

TierPolicy forcePolicy() {
  TierPolicy P;
  P.Mode = TierMode::ForceTier1;
  return P;
}

/// Mixed tiering with a tiny threshold, synchronous promotion: every
/// unit promotes deterministically a few calls/backedges in, so a single
/// run crosses the tier boundary mid-execution.
TierPolicy eagerMixedPolicy() {
  TierPolicy P;
  P.Mode = TierMode::Mixed;
  P.InvocationThreshold = 1;
  P.BackedgeThreshold = 4;
  P.Background = false;
  return P;
}

/// Mixed tiering promoting concurrently on worker threads — the racy
/// configuration TSan checks.
TierPolicy backgroundPolicy() {
  TierPolicy P;
  P.Mode = TierMode::Mixed;
  P.InvocationThreshold = 2;
  P.BackedgeThreshold = 2;
  P.Background = true;
  return P;
}

/// Compiles one module and runs it under any number of tier policies.
struct TierFixture {
  VirtualFileSystem Files;
  StringInterner Interner;
  vm::Program Prog{Interner};
  Symbol Main;

  void compile(const std::string &Name, const std::string &Source) {
    Files.addFile(Name + ".mod", Source);
    compileExisting(Name);
  }

  /// Compiles a module already present in Files (workload generators
  /// write straight into the VFS).
  void compileExisting(const std::string &Name) {
    driver::SequentialCompiler C(Files, Interner);
    driver::CompileResult R = C.compile(Name);
    ASSERT_TRUE(R.Success) << R.DiagnosticText;
    Prog.addImage(std::move(R.Image));
    ASSERT_TRUE(Prog.link());
    Main = Interner.intern(Name);
  }

  vm::VM::RunResult runWith(const TierPolicy &Policy,
                            uint64_t MaxSteps = 100'000'000) {
    vm::VM Machine(Prog);
    Machine.setTierPolicy(Policy);
    return Machine.run(Main, MaxSteps);
  }
};

void expectSameResult(const vm::VM::RunResult &A, const vm::VM::RunResult &B,
                      const char *What) {
  EXPECT_EQ(A.Output, B.Output) << What;
  EXPECT_EQ(A.ExitCode, B.ExitCode) << What;
  EXPECT_EQ(A.Trapped, B.Trapped) << What;
  EXPECT_EQ(A.TrapMessage, B.TrapMessage) << What;
}

//===--- Observable-equivalence gates ---------------------------------------===//

TEST(Tiering, ComputeWorkloadIdenticalAcrossTiers) {
  TierFixture F;
  workload::WorkloadGenerator Gen(F.Files);
  workload::ComputeSpec Spec;
  Spec.Depth = 2;
  Spec.Fan = 2;
  Spec.LeafProcs = 4;
  Spec.InnerIters = 24;
  Spec.OuterIters = 12;
  F.compileExisting(Gen.generateCompute(Spec).Name);

  vm::VM::RunResult T0 = F.runWith(tier0Policy());
  ASSERT_FALSE(T0.Trapped) << T0.TrapMessage;
  ASSERT_FALSE(T0.Output.empty());
  expectSameResult(T0, F.runWith(forcePolicy()), "forced tier 1");
  expectSameResult(T0, F.runWith(eagerMixedPolicy()), "mixed, tiny threshold");
}

// Every step budget from 0 to just past the program's full length must
// trap at the same point with the same message in every tier.  This
// crosses every fused-group boundary, so it exercises the tier-1 deopt
// path (a multi-dispatch superinstruction that cannot fit the remaining
// budget replays in tier 0).
TEST(Tiering, StepBudgetSweepIdenticalAcrossTiers) {
  TierFixture F;
  F.compile("T", "MODULE T;\nVAR i, acc, t: INTEGER;\nBEGIN\n"
                 "  acc := 0; t := 1;\n"
                 "  FOR i := 0 TO 15 DO acc := acc + i; t := t + acc END;\n"
                 "  WHILE t > 1 DO t := t DIV 2 END;\n"
                 "  WriteInt(acc + t, 0); WriteLn\nEND T.\n");

  vm::VM::RunResult Full = F.runWith(tier0Policy());
  ASSERT_FALSE(Full.Trapped) << Full.TrapMessage;

  // Find the exact untrapped step count: the smallest budget that runs
  // to completion under tier 0.
  uint64_t Total = 1;
  while (F.runWith(tier0Policy(), Total).Trapped)
    ++Total;
  ASSERT_GT(Total, 100u) << "workload too small to cross fusion boundaries";

  for (uint64_t Budget = 1; Budget <= Total + 2; ++Budget) {
    vm::VM::RunResult T0 = F.runWith(tier0Policy(), Budget);
    vm::VM::RunResult T1 = F.runWith(forcePolicy(), Budget);
    vm::VM::RunResult Mixed = F.runWith(eagerMixedPolicy(), Budget);
    EXPECT_EQ(T0.Trapped, T1.Trapped) << "budget " << Budget;
    EXPECT_EQ(T0.TrapMessage, T1.TrapMessage) << "budget " << Budget;
    EXPECT_EQ(T0.Output, T1.Output) << "budget " << Budget;
    EXPECT_EQ(T0.TrapMessage, Mixed.TrapMessage) << "budget " << Budget;
    EXPECT_EQ(T0.Output, Mixed.Output) << "budget " << Budget;
  }
}

// Traps raised *inside promoted code* must report the same tier-0 pc and
// message the interpreter would have.
TEST(Tiering, TrapPointsIdenticalAfterPromotion) {
  const std::string DivTrap =
      "MODULE T;\nVAR i, x: INTEGER;\nBEGIN\n"
      "  x := 0;\n"
      "  FOR i := 0 TO 60 DO x := x + 100 DIV (50 - i) END;\n"
      "  WriteInt(x, 0); WriteLn\nEND T.\n";
  const std::string BoundsTrap =
      "MODULE T;\nVAR a: ARRAY [0..9] OF INTEGER; i: INTEGER;\nBEGIN\n"
      "  FOR i := 0 TO 20 DO a[i] := i END;\n"
      "  WriteInt(a[0], 0); WriteLn\nEND T.\n";
  for (const std::string &Source : {DivTrap, BoundsTrap}) {
    TierFixture F;
    F.compile("T", Source);
    vm::VM::RunResult T0 = F.runWith(tier0Policy());
    ASSERT_TRUE(T0.Trapped);
    expectSameResult(T0, F.runWith(forcePolicy()), "forced tier 1");
    expectSameResult(T0, F.runWith(eagerMixedPolicy()), "mixed");
  }
}

//===--- Concurrency (the TSan target) --------------------------------------===//

// Background promotion publishes translated units while the interpreter
// is mid-run; several VMs share one TierManager from several threads.
// Correctness here is what the install release/acquire protocol claims.
TEST(Tiering, ConcurrentPromotionSharedManager) {
  TierFixture F;
  workload::WorkloadGenerator Gen(F.Files);
  workload::ComputeSpec Spec;
  Spec.Depth = 2;
  Spec.Fan = 2;
  Spec.LeafProcs = 8;
  Spec.InnerIters = 16;
  Spec.OuterIters = 8;
  F.compileExisting(Gen.generateCompute(Spec).Name);

  const std::string Expected = F.runWith(tier0Policy()).Output;
  ASSERT_FALSE(Expected.empty());

  auto Manager = std::make_shared<vm::tier::TierManager>(
      F.Prog.linked(), backgroundPolicy());
  constexpr unsigned Threads = 4;
  constexpr unsigned RunsPerThread = 6;
  std::vector<std::string> Bad[Threads];
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned R = 0; R < RunsPerThread; ++R) {
        vm::VM Machine(F.Prog);
        Machine.setTierManager(Manager);
        vm::VM::RunResult Result = Machine.run(F.Main);
        if (Result.Trapped || Result.Output != Expected)
          Bad[T].push_back(Result.Trapped ? Result.TrapMessage
                                          : Result.Output);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  for (unsigned T = 0; T < Threads; ++T)
    EXPECT_TRUE(Bad[T].empty()) << "thread " << T << ": " << Bad[T].front();
  Manager->quiesce();
  EXPECT_GT(Manager->promotions(), 0u);
}

//===--- Counters ------------------------------------------------------------===//

TEST(Tiering, CountersFlowThroughGlobalStats) {
  TierFixture F;
  F.compile("T", "MODULE T;\nVAR i, acc: INTEGER;\nBEGIN\n"
                 "  acc := 0;\n"
                 "  FOR i := 0 TO 500 DO acc := acc + i END;\n"
                 "  WriteInt(acc, 0); WriteLn\nEND T.\n");

  std::map<std::string, uint64_t> Before = vm::globalVmStats().snapshot();
  vm::VM::RunResult Forced = F.runWith(forcePolicy());
  ASSERT_FALSE(Forced.Trapped);
  std::map<std::string, uint64_t> After = vm::globalVmStats().snapshot();

  EXPECT_GE(After["vm.runs"], Before["vm.runs"] + 1);
  EXPECT_GT(After["vm.steps.tier1"], Before["vm.steps.tier1"]);
  EXPECT_GT(After["vm.dispatch.tier1"], Before["vm.dispatch.tier1"]);
  EXPECT_GT(After["vm.tier.promotions"], Before["vm.tier.promotions"]);
  EXPECT_GT(After["vm.tier.instrs"], Before["vm.tier.instrs"]);
  EXPECT_GT(After["vm.tier.arena.bytes"], Before["vm.tier.arena.bytes"]);
  // Fusion pays in dispatches: tier-0-equivalent steps must exceed the
  // dispatches tier 1 actually performed.
  EXPECT_GT(After["vm.steps.tier1"] - Before["vm.steps.tier1"],
            After["vm.dispatch.tier1"] - Before["vm.dispatch.tier1"]);

  // A mixed run whose hot loop crosses the backedge threshold enters
  // promoted code through OSR.  Promotion must come from the backedge
  // counter alone — an invocation-threshold promotion would install the
  // unit before its body starts and skip OSR entirely.
  TierPolicy BackedgeOnly;
  BackedgeOnly.Mode = TierMode::Mixed;
  BackedgeOnly.InvocationThreshold = 1'000'000;
  BackedgeOnly.BackedgeThreshold = 8;
  BackedgeOnly.Background = false;
  Before = After;
  vm::VM::RunResult Mixed = F.runWith(BackedgeOnly);
  ASSERT_FALSE(Mixed.Trapped);
  After = vm::globalVmStats().snapshot();
  EXPECT_GT(After["vm.tier.osr.entries"], Before["vm.tier.osr.entries"]);
  EXPECT_EQ(Mixed.Output, Forced.Output);
}

} // namespace
