//===--- OptTest.cpp - Optimization pass pipeline tests --------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// Per-pass unit tests over hand-built units, plus the pipeline-level
// guarantees the middle end makes: -O0 is byte-stable (the pipeline is
// provably absent), -O2 preserves VM-observable behaviour, and cache
// entries for different levels never collide.  Over the Table 1 suite:
// the -O2 output of a sample is pinned to recorded digests, opt.*
// counters do not depend on the thread count, and every pass reports
// its changes exactly and leaves nothing to do on its own output.
//
//===----------------------------------------------------------------------===//

#include "cache/CompilationCache.h"
#include "codegen/ObjectFile.h"
#include "driver/ConcurrentCompiler.h"
#include "driver/SequentialCompiler.h"
#include "opt/PassManager.h"
#include "vm/VM.h"
#include "workload/WorkloadGenerator.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace m2c;
using namespace m2c::codegen;

namespace {

CodeUnit makeUnit(std::vector<Instr> Code, uint32_t FrameSize = 4) {
  CodeUnit U;
  U.FrameSize = FrameSize;
  U.Code = std::move(Code);
  return U;
}

Instr I(Opcode Op, int64_t A = 0, int64_t B = 0) {
  return Instr{Op, A, B, 0.0};
}

/// Runs one pass to its own fixed point and returns the counters.
std::map<std::string, uint64_t> runPass(const std::unique_ptr<opt::Pass> &P,
                                        CodeUnit &U) {
  StatisticSet S;
  while (P->run(U, S))
    ;
  return S.snapshot();
}

//===--- Constant folding ---------------------------------------------------===//

TEST(OptTest, ConstfoldPropagatesKnownConstants) {
  CodeUnit U = makeUnit({I(Opcode::PushInt, 5), I(Opcode::StoreLocal, 0),
                         I(Opcode::LoadLocal, 0), I(Opcode::ReturnValue)});
  auto S = runPass(opt::createConstantFoldingPass(), U);
  EXPECT_EQ(S["opt.constfold.propagated"], 1u);
  ASSERT_EQ(U.Code.size(), 4u);
  EXPECT_EQ(U.Code[2].Op, Opcode::PushInt);
  EXPECT_EQ(U.Code[2].A, 5);
}

TEST(OptTest, ConstfoldFactsDieAtCalls) {
  // A call can reach every frame slot through the static link, so the
  // constant must not survive it.
  CodeUnit U = makeUnit({I(Opcode::PushInt, 5), I(Opcode::StoreLocal, 0),
                         I(Opcode::Call, 0, -1), I(Opcode::LoadLocal, 0),
                         I(Opcode::ReturnValue)});
  auto S = runPass(opt::createConstantFoldingPass(), U);
  EXPECT_EQ(S["opt.constfold.propagated"], 0u);
  EXPECT_EQ(U.Code[3].Op, Opcode::LoadLocal);
}

TEST(OptTest, ConstfoldNeverTouchesAddressTakenSlots) {
  // Slot 0's address escapes: a StoreIndirect through it would make the
  // propagated constant stale.
  CodeUnit U = makeUnit({I(Opcode::PushInt, 5), I(Opcode::StoreLocal, 0),
                         I(Opcode::LoadLocalRef, 0), I(Opcode::PushInt, 9),
                         I(Opcode::StoreIndirect), I(Opcode::LoadLocal, 0),
                         I(Opcode::ReturnValue)});
  auto S = runPass(opt::createConstantFoldingPass(), U);
  EXPECT_EQ(S["opt.constfold.propagated"], 0u);
  EXPECT_EQ(U.Code[5].Op, Opcode::LoadLocal);
}

//===--- Copy propagation ---------------------------------------------------===//

TEST(OptTest, CopypropRewritesLoadOfCopy) {
  CodeUnit U = makeUnit({I(Opcode::LoadLocal, 0), I(Opcode::StoreLocal, 1),
                         I(Opcode::LoadLocal, 1), I(Opcode::ReturnValue)});
  auto S = runPass(opt::createCopyPropagationPass(), U);
  EXPECT_EQ(S["opt.copyprop.propagated"], 1u);
  EXPECT_EQ(U.Code[2].Op, Opcode::LoadLocal);
  EXPECT_EQ(U.Code[2].A, 0);
}

TEST(OptTest, CopypropRefusesWhenCallFollowsInBlock) {
  // LoadLocal pushes a shared reference for aggregates; if a call sits
  // between the rewritten load and the end of the block, the callee
  // could mutate one slot and not the other, so the rewrite is unsound.
  CodeUnit U = makeUnit({I(Opcode::LoadLocal, 0), I(Opcode::StoreLocal, 1),
                         I(Opcode::LoadLocal, 1), I(Opcode::Call, 0, -1),
                         I(Opcode::ReturnValue)});
  auto S = runPass(opt::createCopyPropagationPass(), U);
  EXPECT_EQ(S["opt.copyprop.propagated"], 0u);
  EXPECT_EQ(U.Code[2].A, 1);
}

TEST(OptTest, CopypropKillsFactWhenEitherSideIsOverwritten) {
  // x := y; y := 3; load x  — the copy is stale once y changes.
  CodeUnit U = makeUnit({I(Opcode::LoadLocal, 0), I(Opcode::StoreLocal, 1),
                         I(Opcode::PushInt, 3), I(Opcode::StoreLocal, 0),
                         I(Opcode::LoadLocal, 1), I(Opcode::ReturnValue)});
  auto S = runPass(opt::createCopyPropagationPass(), U);
  EXPECT_EQ(S["opt.copyprop.propagated"], 0u);
  EXPECT_EQ(U.Code[4].A, 1);
}

//===--- Dead-store elimination ---------------------------------------------===//

TEST(OptTest, DseRemovesOverwrittenStoreAndItsProducer) {
  CodeUnit U = makeUnit({I(Opcode::PushInt, 1), I(Opcode::StoreLocal, 0),
                         I(Opcode::PushInt, 2), I(Opcode::StoreLocal, 0),
                         I(Opcode::LoadLocal, 0), I(Opcode::ReturnValue)});
  auto S = runPass(opt::createDeadStoreEliminationPass(), U);
  EXPECT_EQ(S["opt.dse.stores"], 1u);
  EXPECT_GE(S["opt.dse.removed"], 2u); // PushInt 1 + the Pop it fed
  ASSERT_EQ(U.Code.size(), 4u);
  EXPECT_EQ(U.Code[0].Op, Opcode::PushInt);
  EXPECT_EQ(U.Code[0].A, 2);
  EXPECT_EQ(U.Code[1].Op, Opcode::StoreLocal);
}

TEST(OptTest, DseKeepsStoreLiveAcrossBranch) {
  // The store at 1 is dead on the fall-through path but live on the
  // branch-taken path (the load at 5): it must survive.
  CodeUnit U = makeUnit({I(Opcode::PushInt, 1), I(Opcode::StoreLocal, 0),
                         I(Opcode::JumpIfTrue, 5), I(Opcode::PushInt, 0),
                         I(Opcode::ReturnValue), I(Opcode::LoadLocal, 0),
                         I(Opcode::ReturnValue)});
  auto S = runPass(opt::createDeadStoreEliminationPass(), U);
  EXPECT_EQ(S["opt.dse.stores"], 0u);
  EXPECT_EQ(U.Code[1].Op, Opcode::StoreLocal);
}

TEST(OptTest, DseKeepsStoresToAddressTakenSlots) {
  // Slot 0's address escapes into a call (a VAR argument): the callee
  // may read it, so even a never-reloaded store stays.
  CodeUnit U = makeUnit({I(Opcode::PushInt, 1), I(Opcode::StoreLocal, 0),
                         I(Opcode::LoadLocalRef, 0), I(Opcode::Call, 0, -1),
                         I(Opcode::Return)});
  auto S = runPass(opt::createDeadStoreEliminationPass(), U);
  EXPECT_EQ(S["opt.dse.stores"], 0u);
  EXPECT_EQ(U.Code[1].Op, Opcode::StoreLocal);
}

//===--- Unreachable-code elimination ---------------------------------------===//

TEST(OptTest, UnreachRemovesCodeAfterUnconditionalJump) {
  CodeUnit U = makeUnit({I(Opcode::Jump, 3), I(Opcode::PushInt, 1),
                         I(Opcode::Pop), I(Opcode::Halt, 0)});
  auto S = runPass(opt::createUnreachableCodePass(), U);
  EXPECT_EQ(S["opt.unreach.removed"], 2u);
  ASSERT_EQ(U.Code.size(), 2u);
  EXPECT_EQ(U.Code[0].Op, Opcode::Jump);
  EXPECT_EQ(U.Code[0].A, 1); // target remapped past the removed pair
  EXPECT_EQ(U.Code[1].Op, Opcode::Halt);
}

TEST(OptTest, UnreachKeepsBothArmsOfConditional) {
  CodeUnit U = makeUnit({I(Opcode::LoadLocal, 0), I(Opcode::JumpIfTrue, 4),
                         I(Opcode::PushInt, 1), I(Opcode::ReturnValue),
                         I(Opcode::PushInt, 2), I(Opcode::ReturnValue)});
  auto S = runPass(opt::createUnreachableCodePass(), U);
  EXPECT_EQ(S["opt.unreach.removed"], 0u);
  EXPECT_EQ(U.Code.size(), 6u);
}

//===--- Pass-manager roster and counters ------------------------------------===//

TEST(OptTest, PassManagerRostersAndConfigStrings) {
  EXPECT_TRUE(opt::PassManager::forLevel(opt::OptLevel::O0).empty());
  EXPECT_EQ(opt::PassManager::forLevel(opt::OptLevel::O0).configString(),
            "O0");
  EXPECT_EQ(opt::PassManager::forLevel(opt::OptLevel::O1).configString(),
            "O1:peephole");
  EXPECT_EQ(opt::PassManager::forLevel(opt::OptLevel::O2).configString(),
            "O2:constfold,copyprop,peephole,dse,unreach");
  EXPECT_EQ(opt::passConfigString(opt::OptLevel::O2),
            opt::PassManager::forLevel(opt::OptLevel::O2).configString());
}

TEST(OptTest, PassesComposeAcrossRounds) {
  // constfold turns the load into a push, peephole folds the add, dse
  // then kills the now-dead store on the next round.
  CodeUnit U = makeUnit({I(Opcode::PushInt, 20), I(Opcode::StoreLocal, 0),
                         I(Opcode::LoadLocal, 0), I(Opcode::PushInt, 22),
                         I(Opcode::AddInt), I(Opcode::ReturnValue)});
  opt::PassManager PM = opt::PassManager::forLevel(opt::OptLevel::O2);
  StatisticSet S;
  EXPECT_TRUE(PM.run(U, &S));
  ASSERT_EQ(U.Code.size(), 2u);
  EXPECT_EQ(U.Code[0].Op, Opcode::PushInt);
  EXPECT_EQ(U.Code[0].A, 42);
  EXPECT_EQ(U.Code[1].Op, Opcode::ReturnValue);
  auto Snap = S.snapshot();
  EXPECT_EQ(Snap["opt.units"], 1u);
  EXPECT_GE(Snap["opt.rounds"], 2u);
  EXPECT_GE(Snap["opt.instrs.removed"], 4u);
}

//===--- Pipeline-level guarantees -------------------------------------------===//

struct OptFixture {
  VirtualFileSystem Files;
  StringInterner Interner;
  cache::CompilationCache Cache{std::make_unique<cache::MemoryCacheStore>()};

  driver::CompilerOptions options(opt::OptLevel Level, bool Cached = false) {
    driver::CompilerOptions O;
    O.Executor = driver::ExecutorKind::Simulated;
    O.Processors = 4;
    O.Level = Level;
    if (Cached)
      O.Cache = &Cache;
    return O;
  }

  driver::CompileResult compile(const driver::CompilerOptions &O,
                                const std::string &Root = "Calc") {
    driver::ConcurrentCompiler C(Files, Interner, O);
    return C.compile(Root);
  }

  std::string render(const driver::CompileResult &R) {
    return codegen::writeObjectFile(R.Image, Interner);
  }

  static uint64_t stat(const driver::CompileResult &R,
                       const std::string &Name) {
    auto It = R.CacheStats.find(Name);
    return It == R.CacheStats.end() ? 0 : It->second;
  }

  void addCalc() {
    Files.addFile("Calc.mod", "MODULE Calc;\n"
                              "VAR total: INTEGER;\n"
                              "PROCEDURE Double(x: INTEGER): INTEGER;\n"
                              "BEGIN RETURN x * 2 END Double;\n"
                              "PROCEDURE Sum(a, b: INTEGER): INTEGER;\n"
                              "VAR t: INTEGER;\n"
                              "BEGIN t := a; RETURN Double(t) + b END Sum;\n"
                              "BEGIN\n"
                              "  total := Sum(2, 3);\n"
                              "  WriteInt(total, 0); WriteLn\n"
                              "END Calc.\n");
  }
};

TEST(OptTest, O0OutputIsByteStableCachedAndUncached) {
  OptFixture T;
  T.addCalc();
  std::string Uncached = T.render(T.compile(T.options(opt::OptLevel::O0)));
  std::string Cold = T.render(T.compile(T.options(opt::OptLevel::O0, true)));
  driver::CompileResult WarmR = T.compile(T.options(opt::OptLevel::O0, true));
  EXPECT_EQ(Uncached, Cold);
  EXPECT_EQ(Uncached, T.render(WarmR));
  EXPECT_EQ(T.stat(WarmR, "cache.module.hit"), 1u);
  // No pass ever ran: -O0 is the pre-pipeline compiler, not a disabled
  // pipeline.
  EXPECT_EQ(WarmR.OptStats.count("opt.units"), 0u);
}

TEST(OptTest, O2ReportsPassCountersInResult) {
  OptFixture T;
  T.addCalc();
  driver::CompileResult R = T.compile(T.options(opt::OptLevel::O2));
  ASSERT_TRUE(R.Success) << R.DiagnosticText;
  auto It = R.OptStats.find("opt.units");
  ASSERT_NE(It, R.OptStats.end());
  EXPECT_EQ(It->second, R.Image.Units.size());
  EXPECT_GT(R.OptStats["opt.rounds"], 0u);
}

TEST(OptTest, CacheEntriesNeverCollideAcrossLevels) {
  OptFixture T;
  T.addCalc();

  std::string ColdO0 = T.render(T.compile(T.options(opt::OptLevel::O0, true)));
  driver::CompileResult ColdO2R = T.compile(T.options(opt::OptLevel::O2, true));
  std::string ColdO2 = T.render(ColdO2R);
  // The O2 compile found no usable entry: levels key disjoint spaces.
  EXPECT_EQ(T.stat(ColdO2R, "cache.module.hit"), 0u);
  EXPECT_EQ(T.stat(ColdO2R, "cache.module.miss"), 2u);
  EXPECT_EQ(T.stat(ColdO2R, "cache.module.store"), 2u);

  // Warm recompiles replay each level's own bytes.
  driver::CompileResult WarmO0 = T.compile(T.options(opt::OptLevel::O0, true));
  driver::CompileResult WarmO2 = T.compile(T.options(opt::OptLevel::O2, true));
  EXPECT_EQ(T.stat(WarmO0, "cache.module.hit"), 1u);
  EXPECT_EQ(T.stat(WarmO2, "cache.module.hit"), 2u);
  EXPECT_EQ(T.render(WarmO0), ColdO0);
  EXPECT_EQ(T.render(WarmO2), ColdO2);
}

/// Compiles \p Root at \p Level and runs it to completion in the VM.
std::string runAtLevel(OptFixture &T, const std::string &Root,
                       opt::OptLevel Level, size_t *InstrsOut = nullptr) {
  driver::CompileResult R = T.compile(T.options(Level), Root);
  EXPECT_TRUE(R.Success) << R.DiagnosticText.substr(0, 800);
  if (InstrsOut) {
    *InstrsOut = 0;
    for (const CodeUnit &U : R.Image.Units)
      *InstrsOut += U.Code.size();
  }
  vm::Program Prog(T.Interner);
  Prog.addImage(std::move(R.Image));
  EXPECT_TRUE(Prog.link());
  vm::VM Machine(Prog);
  auto Run = Machine.run(T.Interner.intern(Root));
  EXPECT_FALSE(Run.Trapped) << Run.TrapMessage;
  return Run.Output;
}

TEST(OptTest, O2PreservesHandWrittenProgramBehaviour) {
  OptFixture T;
  // Shapes every pass bites on: redundant copies, re-stored temporaries,
  // constant chains through locals, and an early RETURN arm.
  T.Files.addFile("P.mod",
                  "MODULE P;\n"
                  "VAR i, acc: INTEGER;\n"
                  "PROCEDURE Step(x: INTEGER): INTEGER;\n"
                  "VAR a, b, c: INTEGER;\n"
                  "BEGIN\n"
                  "  a := x; b := a; c := 10;\n"
                  "  c := c + b;\n"
                  "  IF c > 100 THEN RETURN c END;\n"
                  "  c := 4; a := 5;\n"
                  "  RETURN b + c * a\n"
                  "END Step;\n"
                  "BEGIN\n"
                  "  acc := 0;\n"
                  "  FOR i := 1 TO 120 DO acc := acc + Step(i) END;\n"
                  "  WriteInt(acc, 0); WriteLn\n"
                  "END P.\n");
  size_t PlainSize = 0, OptSize = 0;
  std::string Plain = runAtLevel(T, "P", opt::OptLevel::O0, &PlainSize);
  std::string Opt = runAtLevel(T, "P", opt::OptLevel::O2, &OptSize);
  EXPECT_EQ(Plain, Opt);
  EXPECT_FALSE(Plain.empty());
  EXPECT_LT(OptSize, PlainSize);
}

TEST(OptTest, O2PreservesGeneratedSuiteBehaviour) {
  for (size_t SpecIdx : {2u, 6u}) {
    workload::ModuleSpec Spec = workload::WorkloadGenerator::paperSuite()[SpecIdx];
    Spec.WithImplementations = true;
    OptFixture T;
    workload::GeneratedModule Info =
        workload::WorkloadGenerator(T.Files).generate(Spec);

    auto BuildAndRun = [&](opt::OptLevel Level) {
      driver::CompilerOptions O = T.options(Level);
      vm::Program Prog(T.Interner);
      for (size_t K = 0; K < Info.InterfaceCount; ++K) {
        auto R = T.compile(O, Spec.Name + "I" + std::to_string(K));
        EXPECT_TRUE(R.Success);
        Prog.addImage(std::move(R.Image));
      }
      auto R = T.compile(O, Spec.Name);
      EXPECT_TRUE(R.Success);
      Prog.addImage(std::move(R.Image));
      EXPECT_TRUE(Prog.link());
      vm::VM Machine(Prog);
      auto Run = Machine.run(T.Interner.intern(Spec.Name), 50'000'000);
      EXPECT_FALSE(Run.Trapped) << Run.TrapMessage;
      return Run.Output;
    };

    EXPECT_EQ(BuildAndRun(opt::OptLevel::O0), BuildAndRun(opt::OptLevel::O2))
        << "spec " << SpecIdx;
  }
}

//===--- Suite-wide guarantees ------------------------------------------===//

/// The generated Table 1 suite (Suite0..Suite36), built once per process.
struct SuiteFiles {
  VirtualFileSystem Files;
  StringInterner Interner;
  std::vector<std::string> Names;

  SuiteFiles() {
    workload::WorkloadGenerator Gen(Files);
    for (const workload::ModuleSpec &Spec :
         workload::WorkloadGenerator::paperSuite()) {
      Gen.generate(Spec);
      Names.push_back(Spec.Name);
    }
  }
};

SuiteFiles &suite() {
  static SuiteFiles S;
  return S;
}

uint64_t fnv1a64(uint64_t H, const std::string &Bytes) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

constexpr uint64_t FnvBasis = 0xcbf29ce484222325ull;

std::map<std::string, uint64_t>
optCounters(const std::map<std::string, uint64_t> &All) {
  std::map<std::string, uint64_t> Opt;
  for (const auto &[Name, Value] : All)
    if (Name.rfind("opt.", 0) == 0)
      Opt.emplace(Name, Value);
  return Opt;
}

TEST(OptTest, O2OutputOfSuiteSampleMatchesPinnedDigests) {
  // Every fourth suite module, which includes Suite4 (the largest
  // liveness problem) and Suite36 (the largest module).  The digests and
  // counters were recorded from the compiler before its passes were
  // rewritten for speed; any change to -O2 output shows up here.
  SuiteFiles &S = suite();
  uint64_t SeqDigest = FnvBasis, ConcDigest = FnvBasis;
  StatisticSet SeqStats;
  for (size_t I = 0; I < S.Names.size(); I += 4) {
    driver::CompilerOptions Seq;
    Seq.Level = opt::OptLevel::O2;
    Seq.OptStats = &SeqStats;
    driver::CompileResult SR =
        driver::SequentialCompiler(S.Files, S.Interner, Seq)
            .compile(S.Names[I]);
    ASSERT_TRUE(SR.Success) << S.Names[I] << ": " << SR.DiagnosticText;
    SeqDigest = fnv1a64(SeqDigest, writeObjectFile(SR.Image, S.Interner));

    driver::CompilerOptions Conc;
    Conc.Level = opt::OptLevel::O2;
    Conc.Executor = driver::ExecutorKind::Threaded;
    Conc.Processors = 4;
    driver::CompileResult CR =
        driver::ConcurrentCompiler(S.Files, S.Interner, Conc)
            .compile(S.Names[I]);
    ASSERT_TRUE(CR.Success) << S.Names[I] << ": " << CR.DiagnosticText;
    ConcDigest = fnv1a64(ConcDigest, writeObjectFile(CR.Image, S.Interner));
  }
  EXPECT_EQ(SeqDigest, 0xc72b73709d86edfaull);
  EXPECT_EQ(ConcDigest, 0xbd55f62e61090317ull);
  const std::map<std::string, uint64_t> Expected = {
      {"opt.constfold.propagated", 92}, {"opt.copyprop.propagated", 212},
      {"opt.dse.removed", 366},         {"opt.dse.stores", 573},
      {"opt.instrs.removed", 1047},     {"opt.peephole.folded", 41},
      {"opt.peephole.removed", 73},     {"opt.rounds", 1179},
      {"opt.units", 591},               {"opt.unreach.removed", 608}};
  EXPECT_EQ(optCounters(SeqStats.snapshot()), Expected);
}

TEST(OptTest, O2CountersAtP4EqualP1) {
  // Every codegen task of a compile shares one StatisticSet, so a pass
  // that read its own progress back from it would see other streams'
  // counts and report changes it did not make.  The two largest modules
  // expose any such cross-talk at P=4.
  SuiteFiles &S = suite();
  auto Counters = [&S](const std::string &Name, unsigned Procs) {
    driver::CompilerOptions O;
    O.Level = opt::OptLevel::O2;
    O.Executor = driver::ExecutorKind::Threaded;
    O.Processors = Procs;
    driver::CompileResult R =
        driver::ConcurrentCompiler(S.Files, S.Interner, O).compile(Name);
    EXPECT_TRUE(R.Success) << Name << ": " << R.DiagnosticText;
    return optCounters(R.OptStats);
  };
  for (const char *Name : {"Suite35", "Suite36"}) {
    const std::map<std::string, uint64_t> P1 = Counters(Name, 1);
    ASSERT_FALSE(P1.empty());
    for (int Run = 0; Run < 5; ++Run)
      EXPECT_EQ(Counters(Name, 4), P1) << Name << " run " << Run;
  }
}

bool sameCode(const std::vector<Instr> &X, const std::vector<Instr> &Y) {
  if (X.size() != Y.size())
    return false;
  for (size_t I = 0; I < X.size(); ++I) {
    uint64_t FX, FY;
    std::memcpy(&FX, &X[I].F, sizeof FX);
    std::memcpy(&FY, &Y[I].F, sizeof FY);
    if (X[I].Op != Y[I].Op || X[I].A != Y[I].A || X[I].B != Y[I].B ||
        FX != FY)
      return false;
  }
  return true;
}

TEST(OptTest, EachPassReportsChangesExactlyAndIsIdempotentOnSuite) {
  // The pipeline stops after one quiet round, which is sound only if a
  // pass's return value says exactly whether it changed the unit and a
  // pass has nothing left to do on its own output.  Checked for every
  // pass on every -O0 unit of the suite, and on the unit as the first
  // -O2 round hands it to that pass (raw -O0 code gives peephole nothing
  // to fold until constfold has run).
  SuiteFiles &S = suite();
  std::vector<std::unique_ptr<opt::Pass>> Passes;
  Passes.push_back(opt::createConstantFoldingPass());
  Passes.push_back(opt::createCopyPropagationPass());
  Passes.push_back(opt::createPeepholePass());
  Passes.push_back(opt::createDeadStoreEliminationPass());
  Passes.push_back(opt::createUnreachableCodePass());
  std::vector<size_t> Changed(Passes.size(), 0);
  // Runs pass P over In twice; returns the first run's output.
  auto Check = [&](size_t P, const CodeUnit &In) {
    StatisticSet Stats;
    CodeUnit Once = In;
    bool First = Passes[P]->run(Once, Stats);
    EXPECT_EQ(First, !sameCode(Once.Code, In.Code))
        << Passes[P]->name() << " on " << In.QualifiedName;
    CodeUnit Twice = Once;
    EXPECT_FALSE(Passes[P]->run(Twice, Stats))
        << Passes[P]->name() << " on " << In.QualifiedName;
    EXPECT_TRUE(sameCode(Twice.Code, Once.Code))
        << Passes[P]->name() << " on " << In.QualifiedName;
    Changed[P] += First;
    return Once;
  };
  size_t Units = 0;
  for (const std::string &Name : S.Names) {
    driver::CompilerOptions O;
    O.Level = opt::OptLevel::O0;
    driver::CompileResult R =
        driver::SequentialCompiler(S.Files, S.Interner, O).compile(Name);
    ASSERT_TRUE(R.Success) << Name << ": " << R.DiagnosticText;
    for (const CodeUnit &U : R.Image.Units) {
      ++Units;
      CodeUnit Round = U;
      for (size_t P = 0; P < Passes.size(); ++P) {
        Check(P, U);
        Round = Check(P, Round);
      }
      if (::testing::Test::HasFailure())
        return;
    }
  }
  EXPECT_EQ(Units, 1931u);
  // Every pass has work somewhere in the suite, so none passes vacuously.
  for (size_t P = 0; P < Passes.size(); ++P)
    EXPECT_GT(Changed[P], 0u) << Passes[P]->name();
}

} // namespace
