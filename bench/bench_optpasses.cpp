//===--- bench_optpasses.cpp - Middle-end cost and payoff ------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// Measures what the per-stream optimization pipeline costs at compile
// time and what it buys at run time:
//  * BM_CompileAtLevel — wall time of a threaded compile of a suite
//    program at -O0 / -O1 / -O2 (the delta is the middle end's cost);
//  * BM_PassPipelineOnly — the pass manager alone over a suite module's
//    pre-generated units, isolating pass cost from the rest of the
//    compiler;
//  * BM_VmExecution — VM wall time of a copy/const/dead-store heavy
//    program compiled at each level (the delta is the payoff).
//
// Before reporting, the -O2 program's VM output is checked equal to the
// -O0 output — no numbers from a miscompiling optimizer.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "opt/PassManager.h"
#include "vm/VM.h"

#include <benchmark/benchmark.h>

using namespace m2c;
using namespace m2c::bench;

namespace {

SuiteFixture &fixture() {
  static SuiteFixture Suite;
  return Suite;
}

driver::CompilerOptions optionsAt(opt::OptLevel Level) {
  driver::CompilerOptions O;
  O.Executor = driver::ExecutorKind::Threaded;
  O.Processors = 4;
  O.Level = Level;
  return O;
}

/// A program whose inner loop is dense with the shapes the passes
/// rewrite: local copies, constants round-tripped through locals, and
/// stores that are overwritten before use.
constexpr const char *HotSource =
    "MODULE Hot;\n"
    "VAR i, acc: INTEGER;\n"
    "PROCEDURE Step(x: INTEGER): INTEGER;\n"
    "VAR a, b, c, t: INTEGER;\n"
    "BEGIN\n"
    "  a := x; b := a; t := b;\n"
    "  c := 10; c := c + t;\n"
    "  t := 3; a := 7;\n"
    "  c := c + t * a + b * 1 + 0;\n"
    "  IF NOT (c = 0) THEN RETURN c END;\n"
    "  RETURN b\n"
    "END Step;\n"
    "BEGIN\n"
    "  acc := 0;\n"
    "  FOR i := 1 TO 400000 DO acc := acc + Step(i) END;\n"
    "  WriteInt(acc, 0); WriteLn\n"
    "END Hot.\n";

struct HotProgram {
  StringInterner Interner;
  vm::Program Prog{Interner};
  size_t Instrs = 0;
  std::string Output;

  explicit HotProgram(opt::OptLevel Level) {
    VirtualFileSystem Files;
    Files.addFile("Hot.mod", HotSource);
    driver::ConcurrentCompiler C(Files, Interner, optionsAt(Level));
    driver::CompileResult R = C.compile("Hot");
    if (!R.Success) {
      std::fprintf(stderr, "Hot compile failed:\n%s", R.DiagnosticText.c_str());
      std::exit(1);
    }
    for (const codegen::CodeUnit &U : R.Image.Units)
      Instrs += U.Code.size();
    Prog.addImage(std::move(R.Image));
    if (!Prog.link()) {
      std::fprintf(stderr, "Hot link failed\n");
      std::exit(1);
    }
    vm::VM Machine(Prog);
    vm::VM::RunResult Run = Machine.run(Interner.intern("Hot"), 1'000'000'000);
    if (Run.Trapped) {
      std::fprintf(stderr, "Hot trapped: %s\n", Run.TrapMessage.c_str());
      std::exit(1);
    }
    Output = Run.Output;
  }
};

HotProgram &hot(opt::OptLevel Level) {
  static HotProgram O0(opt::OptLevel::O0);
  static HotProgram O1(opt::OptLevel::O1);
  static HotProgram O2(opt::OptLevel::O2);
  switch (Level) {
  case opt::OptLevel::O0:
    return O0;
  case opt::OptLevel::O1:
    return O1;
  case opt::OptLevel::O2:
    return O2;
  }
  return O0;
}

void BM_CompileAtLevel(benchmark::State &State) {
  SuiteFixture &Suite = fixture();
  std::string Name = "Suite" + std::to_string(State.range(0));
  opt::OptLevel Level = static_cast<opt::OptLevel>(State.range(1));
  size_t Instrs = 0;
  for (auto _ : State) {
    driver::CompileResult R = Suite.compileConc(Name, optionsAt(Level));
    if (!R.Success)
      State.SkipWithError("compile failed");
    Instrs = 0;
    for (const codegen::CodeUnit &U : R.Image.Units)
      Instrs += U.Code.size();
    benchmark::DoNotOptimize(Instrs);
  }
  State.counters["instrs"] = static_cast<double>(Instrs);
}
BENCHMARK(BM_CompileAtLevel)
    ->Args({18, 0})
    ->Args({18, 1})
    ->Args({18, 2})
    ->Args({30, 0})
    ->Args({30, 2})
    ->Unit(benchmark::kMillisecond);

void BM_PassPipelineOnly(benchmark::State &State) {
  SuiteFixture &Suite = fixture();
  std::string Name = "Suite" + std::to_string(State.range(0));
  opt::OptLevel Level = static_cast<opt::OptLevel>(State.range(1));
  // Generate the unoptimized units once; each iteration re-optimizes a
  // fresh copy, so the pass manager always sees pre-pipeline code.
  driver::CompileResult R =
      Suite.compileConc(Name, optionsAt(opt::OptLevel::O0));
  if (!R.Success) {
    State.SkipWithError("compile failed");
    return;
  }
  opt::PassManager PM = opt::PassManager::forLevel(Level);
  uint64_t Units = 0;
  for (auto _ : State) {
    State.PauseTiming();
    std::vector<codegen::CodeUnit> Fresh = R.Image.Units;
    State.ResumeTiming();
    for (codegen::CodeUnit &U : Fresh)
      PM.run(U, nullptr);
    Units = Fresh.size();
    benchmark::DoNotOptimize(Units);
  }
  State.counters["units"] = static_cast<double>(Units);
}
// Suite18 is a median module (19 units); Suite4.P0 is the suite's largest
// liveness problem (6073 instructions, 150 slots, 801 blocks); Suite36 is
// the largest module (258 units, 97931 instructions at -O0).
BENCHMARK(BM_PassPipelineOnly)
    ->Args({18, 1})
    ->Args({18, 2})
    ->Args({4, 2})
    ->Args({36, 2})
    ->Unit(benchmark::kMillisecond);

void BM_VmExecution(benchmark::State &State) {
  opt::OptLevel Level = static_cast<opt::OptLevel>(State.range(0));
  HotProgram &P = hot(Level);
  for (auto _ : State) {
    vm::VM Machine(P.Prog);
    vm::VM::RunResult Run = Machine.run(P.Interner.intern("Hot"),
                                        1'000'000'000);
    if (Run.Trapped)
      State.SkipWithError("trapped");
    benchmark::DoNotOptimize(Run.Output.size());
  }
  State.counters["instrs"] = static_cast<double>(P.Instrs);
}
BENCHMARK(BM_VmExecution)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  // Gate the numbers: identical VM-observable behaviour at every level,
  // and the optimized image must actually be smaller.
  if (hot(opt::OptLevel::O2).Output != hot(opt::OptLevel::O0).Output ||
      hot(opt::OptLevel::O1).Output != hot(opt::OptLevel::O0).Output) {
    std::fprintf(stderr, "FAIL: optimized program output differs\n");
    return 1;
  }
  if (hot(opt::OptLevel::O2).Instrs >= hot(opt::OptLevel::O0).Instrs) {
    std::fprintf(stderr, "FAIL: -O2 did not shrink the hot program\n");
    return 1;
  }
  std::printf("behaviour: Hot output identical at O0/O1/O2; "
              "instrs %zu (O0) -> %zu (O2)  OK\n\n",
              hot(opt::OptLevel::O0).Instrs, hot(opt::OptLevel::O2).Instrs);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
