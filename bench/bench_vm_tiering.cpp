//===--- bench_vm_tiering.cpp - Tier-0 vs tier-1 VM throughput -------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// Measures what the threaded-code tier buys on a compute-heavy program
// (WorkloadGenerator::generateCompute, compiled at -O2):
//  * BM_VmTier0 — the switch interpreter alone;
//  * BM_VmTier1Warm — fresh VMs over one shared, fully promoted
//    TierManager: steady-state tier-1 throughput;
//  * BM_VmMixedWarm — fresh VMs over a shared mixed-policy manager that
//    warmed up on the first run: the deployment configuration;
//  * BM_MixedColdFirstRun — one cold mixed run including concurrent
//    promotion: what the first execution pays;
//  * BM_TranslateAll — translation cost alone (ForceTier1 manager
//    construction promotes every unit synchronously).
//
// Before reporting, the program's output is checked byte-identical
// across tier 0, forced tier 1 and mixed execution — no numbers from a
// tier that changes observable behaviour — and the measured tier-1
// speedup is printed (the issue's target is >= 1.5x).
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "vm/VM.h"
#include "vm/tier/TierManager.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

using namespace m2c;
using namespace m2c::bench;
using vm::tier::TierManager;
using vm::tier::TierMode;
using vm::tier::TierPolicy;

namespace {

TierPolicy policyFor(TierMode Mode) {
  TierPolicy P;
  P.Mode = Mode;
  if (Mode == TierMode::Mixed) {
    // Promote within the first outer iterations of the driver loop.
    P.InvocationThreshold = 8;
    P.BackedgeThreshold = 32;
  }
  return P;
}

/// The compute-heavy program, compiled once at -O2 and shared by every
/// benchmark (the VM never mutates the linked program).
struct ComputeProgram {
  StringInterner Interner;
  vm::Program Prog{Interner};
  Symbol Main;
  std::string Output; ///< Tier-0 reference output.

  ComputeProgram() {
    VirtualFileSystem Files;
    workload::WorkloadGenerator Gen(Files);
    workload::ComputeSpec Spec;
    Spec.Depth = 2;
    Spec.Fan = 3;
    Spec.LeafProcs = 6;
    Spec.InnerIters = 200;
    Spec.OuterIters = 60;
    workload::GeneratedModule Info = Gen.generateCompute(Spec);

    driver::CompilerOptions Options;
    Options.Executor = driver::ExecutorKind::Threaded;
    Options.Processors = 4;
    Options.Level = opt::OptLevel::O2;
    driver::ConcurrentCompiler C(Files, Interner, Options);
    driver::CompileResult R = C.compile(Info.Name);
    if (!R.Success) {
      std::fprintf(stderr, "compute workload compile failed:\n%s",
                   R.DiagnosticText.c_str());
      std::exit(1);
    }
    Prog.addImage(std::move(R.Image));
    if (!Prog.link()) {
      std::fprintf(stderr, "compute workload link failed\n");
      std::exit(1);
    }
    Main = Interner.intern(Info.Name);

    vm::VM Machine(Prog);
    Machine.setTierPolicy(policyFor(TierMode::Tier0Only));
    vm::VM::RunResult Run = Machine.run(Main, 1'000'000'000);
    if (Run.Trapped) {
      std::fprintf(stderr, "compute workload trapped: %s\n",
                   Run.TrapMessage.c_str());
      std::exit(1);
    }
    Output = Run.Output;
  }

  vm::VM::RunResult runWithPolicy(TierMode Mode) {
    vm::VM Machine(Prog);
    Machine.setTierPolicy(policyFor(Mode));
    return Machine.run(Main, 1'000'000'000);
  }

  vm::VM::RunResult runWithManager(const std::shared_ptr<TierManager> &M) {
    vm::VM Machine(Prog);
    Machine.setTierManager(M);
    return Machine.run(Main, 1'000'000'000);
  }
};

ComputeProgram &compute() {
  static ComputeProgram P;
  return P;
}

/// One shared, fully promoted manager: steady-state tier 1.
std::shared_ptr<TierManager> &warmForced() {
  static std::shared_ptr<TierManager> M = std::make_shared<TierManager>(
      compute().Prog.linked(), policyFor(TierMode::ForceTier1));
  return M;
}

void BM_VmTier0(benchmark::State &State) {
  ComputeProgram &P = compute();
  for (auto _ : State) {
    vm::VM::RunResult Run = P.runWithPolicy(TierMode::Tier0Only);
    if (Run.Trapped || Run.Output != P.Output)
      State.SkipWithError("tier-0 run diverged");
    benchmark::DoNotOptimize(Run.Output.size());
  }
}
BENCHMARK(BM_VmTier0)->Unit(benchmark::kMillisecond);

void BM_VmTier1Warm(benchmark::State &State) {
  ComputeProgram &P = compute();
  std::shared_ptr<TierManager> M = warmForced();
  for (auto _ : State) {
    vm::VM::RunResult Run = P.runWithManager(M);
    if (Run.Trapped || Run.Output != P.Output)
      State.SkipWithError("tier-1 run diverged");
    benchmark::DoNotOptimize(Run.Output.size());
  }
}
BENCHMARK(BM_VmTier1Warm)->Unit(benchmark::kMillisecond);

void BM_VmMixedWarm(benchmark::State &State) {
  ComputeProgram &P = compute();
  // The deployment shape: profiling thresholds, background promotion,
  // manager shared across runs.  Warm it before timing so the loop
  // measures steady state, not the first run's interpretation.
  auto M = std::make_shared<TierManager>(P.Prog.linked(),
                                         policyFor(TierMode::Mixed));
  P.runWithManager(M);
  M->quiesce();
  for (auto _ : State) {
    vm::VM::RunResult Run = P.runWithManager(M);
    if (Run.Trapped || Run.Output != P.Output)
      State.SkipWithError("mixed run diverged");
    benchmark::DoNotOptimize(Run.Output.size());
  }
}
BENCHMARK(BM_VmMixedWarm)->Unit(benchmark::kMillisecond);

void BM_MixedColdFirstRun(benchmark::State &State) {
  ComputeProgram &P = compute();
  for (auto _ : State) {
    auto M = std::make_shared<TierManager>(P.Prog.linked(),
                                           policyFor(TierMode::Mixed));
    vm::VM::RunResult Run = P.runWithManager(M);
    if (Run.Trapped || Run.Output != P.Output)
      State.SkipWithError("cold mixed run diverged");
    M->quiesce();
    benchmark::DoNotOptimize(Run.Output.size());
  }
}
BENCHMARK(BM_MixedColdFirstRun)->Unit(benchmark::kMillisecond);

void BM_TranslateAll(benchmark::State &State) {
  ComputeProgram &P = compute();
  uint64_t Promotions = 0;
  for (auto _ : State) {
    TierManager M(P.Prog.linked(), policyFor(TierMode::ForceTier1));
    Promotions = M.promotions();
    benchmark::DoNotOptimize(Promotions);
  }
  State.counters["units"] = static_cast<double>(Promotions);
}
BENCHMARK(BM_TranslateAll)->Unit(benchmark::kMicrosecond);

/// Best-of-N wall time of one run under \p Mode, for the gate report.
double secondsPerRun(TierMode Mode, const std::shared_ptr<TierManager> &M) {
  ComputeProgram &P = compute();
  double Best = 1e9;
  for (int I = 0; I < 3; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    vm::VM::RunResult Run = M ? P.runWithManager(M) : P.runWithPolicy(Mode);
    auto T1 = std::chrono::steady_clock::now();
    if (Run.Trapped)
      return -1;
    Best = std::min(Best, std::chrono::duration<double>(T1 - T0).count());
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  // Gate the numbers: identical output across the three tier modes.
  ComputeProgram &P = compute();
  vm::VM::RunResult Forced = P.runWithPolicy(TierMode::ForceTier1);
  vm::VM::RunResult Mixed = P.runWithPolicy(TierMode::Mixed);
  if (Forced.Trapped || Forced.Output != P.Output) {
    std::fprintf(stderr, "FAIL: forced tier-1 output differs from tier 0\n");
    return 1;
  }
  if (Mixed.Trapped || Mixed.Output != P.Output) {
    std::fprintf(stderr, "FAIL: mixed-tier output differs from tier 0\n");
    return 1;
  }
  double Tier0 = secondsPerRun(TierMode::Tier0Only, nullptr);
  double Tier1 = secondsPerRun(TierMode::ForceTier1, warmForced());
  if (Tier0 <= 0 || Tier1 <= 0) {
    std::fprintf(stderr, "FAIL: gate run trapped\n");
    return 1;
  }
  std::printf("behaviour: output byte-identical across tier0/tier1/mixed  OK\n"
              "tier-1 speedup: %.2fx (tier0 %.2f ms, tier1 %.2f ms; "
              "target >= 1.5x)\n\n",
              Tier0 / Tier1, Tier0 * 1e3, Tier1 * 1e3);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
