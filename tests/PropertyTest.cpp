//===--- PropertyTest.cpp - Cross-cutting equivalence properties ------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// The invariants that make a concurrent compiler trustworthy, checked
// over a grid of workload shapes, DKY strategies and processor counts:
//
//  * the concurrent compiler produces exactly the sequential compiler's
//    merged image and diagnostics (splitting/merging is semantics-free);
//  * the simulated executor is deterministic;
//  * adding processors never slows a compilation down (in virtual time);
//  * the threaded executor is stable across repeated runs, and a compile
//    on the shared executor counts only its own tasks.
//
//===----------------------------------------------------------------------===//

#include "codegen/ObjectFile.h"
#include "driver/ConcurrentCompiler.h"
#include "driver/SequentialCompiler.h"
#include "workload/WorkloadGenerator.h"

#include <gtest/gtest.h>

#include <thread>

using namespace m2c;
using namespace m2c::driver;
using namespace m2c::symtab;

namespace {

struct GridCase {
  unsigned Procedures;
  unsigned Interfaces;
  unsigned Depth;
  DkyStrategy Strategy;
  unsigned Processors;
  uint32_t Seed;
};

std::string caseName(const ::testing::TestParamInfo<GridCase> &Info) {
  const GridCase &C = Info.param;
  return std::string(dkyStrategyName(C.Strategy)) + "P" +
         std::to_string(C.Processors) + "n" + std::to_string(C.Procedures) +
         "i" + std::to_string(C.Interfaces) + "d" +
         std::to_string(C.Depth) + "s" + std::to_string(C.Seed);
}

class EquivalenceGrid : public ::testing::TestWithParam<GridCase> {
protected:
  workload::ModuleSpec spec() {
    const GridCase &C = GetParam();
    workload::ModuleSpec Spec;
    Spec.Name = "Grid";
    Spec.NumProcedures = C.Procedures;
    Spec.MeanProcStmts = 10;
    Spec.ImportedInterfaces = C.Interfaces;
    Spec.ImportDepth = C.Depth;
    Spec.Seed = C.Seed;
    return Spec;
  }
};

TEST_P(EquivalenceGrid, ConcurrentMatchesSequential) {
  VirtualFileSystem Files;
  StringInterner Interner;
  workload::WorkloadGenerator(Files).generate(spec());

  SequentialCompiler Seq(Files, Interner);
  CompileResult SeqR = Seq.compile("Grid");
  ASSERT_TRUE(SeqR.Success) << SeqR.DiagnosticText.substr(0, 1500);

  CompilerOptions O;
  O.Strategy = GetParam().Strategy;
  O.Processors = GetParam().Processors;
  ConcurrentCompiler Conc(Files, Interner, O);
  CompileResult ConcR = Conc.compile("Grid");
  ASSERT_TRUE(ConcR.Success) << ConcR.DiagnosticText.substr(0, 1500);

  EXPECT_EQ(SeqR.DiagnosticText, ConcR.DiagnosticText);
  ASSERT_EQ(SeqR.Image.Units.size(), ConcR.Image.Units.size());
  for (size_t I = 0; I < SeqR.Image.Units.size(); ++I) {
    const codegen::CodeUnit &A = SeqR.Image.Units[I];
    const codegen::CodeUnit &B = ConcR.Image.Units[I];
    ASSERT_EQ(A.QualifiedName, B.QualifiedName);
    ASSERT_EQ(A.Code.size(), B.Code.size()) << A.QualifiedName;
    for (size_t J = 0; J < A.Code.size(); ++J) {
      EXPECT_EQ(A.Code[J].Op, B.Code[J].Op) << A.QualifiedName << " +" << J;
      EXPECT_EQ(A.Code[J].A, B.Code[J].A) << A.QualifiedName << " +" << J;
      EXPECT_EQ(A.Code[J].B, B.Code[J].B) << A.QualifiedName << " +" << J;
      EXPECT_EQ(A.Code[J].F, B.Code[J].F) << A.QualifiedName << " +" << J;
    }
    EXPECT_EQ(A.FrameSize, B.FrameSize) << A.QualifiedName;
    ASSERT_EQ(A.Callees.size(), B.Callees.size()) << A.QualifiedName;
    for (size_t J = 0; J < A.Callees.size(); ++J) {
      EXPECT_EQ(A.Callees[J].Module, B.Callees[J].Module);
      EXPECT_EQ(A.Callees[J].Name, B.Callees[J].Name);
    }
  }
  EXPECT_EQ(SeqR.Image.GlobalCount, ConcR.Image.GlobalCount);
}

TEST_P(EquivalenceGrid, SimulationIsDeterministic) {
  VirtualFileSystem Files;
  StringInterner Interner;
  workload::WorkloadGenerator(Files).generate(spec());
  CompilerOptions O;
  O.Strategy = GetParam().Strategy;
  O.Processors = GetParam().Processors;

  ConcurrentCompiler C1(Files, Interner, O);
  CompileResult R1 = C1.compile("Grid");
  ConcurrentCompiler C2(Files, Interner, O);
  CompileResult R2 = C2.compile("Grid");
  ASSERT_TRUE(R1.Success && R2.Success);
  EXPECT_EQ(R1.ElapsedUnits, R2.ElapsedUnits);
  EXPECT_EQ(R1.SchedStats, R2.SchedStats);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EquivalenceGrid,
    ::testing::Values(
        // Strategy sweep on a mid-size shape.
        GridCase{12, 6, 3, DkyStrategy::Avoidance, 8, 11},
        GridCase{12, 6, 3, DkyStrategy::Pessimistic, 8, 11},
        GridCase{12, 6, 3, DkyStrategy::Skeptical, 8, 11},
        GridCase{12, 6, 3, DkyStrategy::Optimistic, 8, 11},
        // Processor sweep.
        GridCase{12, 6, 3, DkyStrategy::Skeptical, 1, 11},
        GridCase{12, 6, 3, DkyStrategy::Skeptical, 2, 11},
        GridCase{12, 6, 3, DkyStrategy::Skeptical, 5, 11},
        // No imports at all.
        GridCase{8, 0, 1, DkyStrategy::Skeptical, 4, 7},
        GridCase{8, 0, 1, DkyStrategy::Avoidance, 4, 7},
        // Deep narrow import chain (maximum DKY pressure).
        GridCase{4, 8, 8, DkyStrategy::Skeptical, 8, 3},
        GridCase{4, 8, 8, DkyStrategy::Pessimistic, 8, 3},
        GridCase{4, 8, 8, DkyStrategy::Optimistic, 8, 3},
        // Wide flat import fan.
        GridCase{6, 24, 1, DkyStrategy::Skeptical, 8, 5},
        // Many tiny procedures.
        GridCase{60, 2, 1, DkyStrategy::Skeptical, 8, 13},
        // Different seeds for coverage of generator variation.
        GridCase{12, 6, 3, DkyStrategy::Skeptical, 8, 23},
        GridCase{12, 6, 3, DkyStrategy::Skeptical, 8, 37}),
    caseName);

TEST(Property, MoreProcessorsNeverSlowVirtualTime) {
  VirtualFileSystem Files;
  StringInterner Interner;
  workload::ModuleSpec Spec;
  Spec.Name = "Mono";
  Spec.NumProcedures = 20;
  Spec.MeanProcStmts = 14;
  Spec.ImportedInterfaces = 8;
  Spec.ImportDepth = 3;
  Spec.Seed = 21;
  workload::WorkloadGenerator(Files).generate(Spec);

  uint64_t Prev = ~uint64_t{0};
  for (unsigned P = 1; P <= 8; ++P) {
    CompilerOptions O;
    O.Processors = P;
    ConcurrentCompiler C(Files, Interner, O);
    CompileResult R = C.compile("Mono");
    ASSERT_TRUE(R.Success);
    // Allow a sliver of scheduling noise (task placement differs), but
    // adding processors must never cost real time.
    EXPECT_LE(R.ElapsedUnits, Prev + Prev / 50) << "P=" << P;
    Prev = R.ElapsedUnits;
  }
}

TEST(Property, ThreadedExecutorStableAcrossRuns) {
  VirtualFileSystem Files;
  StringInterner Interner;
  workload::ModuleSpec Spec;
  Spec.Name = "Thr";
  Spec.NumProcedures = 16;
  Spec.MeanProcStmts = 8;
  Spec.ImportedInterfaces = 5;
  Spec.ImportDepth = 2;
  Spec.Seed = 77;
  workload::WorkloadGenerator(Files).generate(Spec);

  SequentialCompiler Seq(Files, Interner);
  CompileResult Reference = Seq.compile("Thr");
  ASSERT_TRUE(Reference.Success) << Reference.DiagnosticText;

  for (int Round = 0; Round < 12; ++Round) {
    CompilerOptions O;
    O.Executor = ExecutorKind::Threaded;
    O.Processors = 4;
    O.Strategy = static_cast<DkyStrategy>(Round % 4);
    ConcurrentCompiler C(Files, Interner, O);
    CompileResult R = C.compile("Thr");
    ASSERT_TRUE(R.Success) << R.DiagnosticText.substr(0, 800);
    ASSERT_EQ(R.Image.Units.size(), Reference.Image.Units.size());
    for (size_t I = 0; I < R.Image.Units.size(); ++I) {
      EXPECT_EQ(R.Image.Units[I].QualifiedName,
                Reference.Image.Units[I].QualifiedName);
      EXPECT_EQ(R.Image.Units[I].Code.size(),
                Reference.Image.Units[I].Code.size());
    }
    EXPECT_EQ(R.DiagnosticText, Reference.DiagnosticText);
  }
}

// Threaded compiles are requests on one process-lifetime executor per
// processor count, so a compile right after another starts no thread.
// Pool has no procedure and no import: at P=1 none of its tasks ever
// waits, so the first worker is all the pool needs.  (Where tasks block,
// how many block at once varies between runs, and a later compile may
// still add a thread.)
TEST(Property, BackToBackThreadedCompilesReuseTheWorkers) {
  VirtualFileSystem Files;
  StringInterner Interner;
  Files.addFile("Pool.mod", "MODULE Pool;\n"
                            "VAR x: INTEGER;\n"
                            "BEGIN\n"
                            "  x := 6 * 7;\n"
                            "  WriteInt(x, 0); WriteLn\n"
                            "END Pool.\n");
  for (unsigned P : {1u, 4u}) {
    CompilerOptions O;
    O.Executor = ExecutorKind::Threaded;
    O.Processors = P;
    CompileResult First =
        ConcurrentCompiler(Files, Interner, O).compile("Pool");
    CompileResult Second =
        ConcurrentCompiler(Files, Interner, O).compile("Pool");
    ASSERT_TRUE(First.Success && Second.Success) << Second.DiagnosticText;
    EXPECT_EQ(codegen::writeObjectFile(First.Image, Interner),
              codegen::writeObjectFile(Second.Image, Interner))
        << "P=" << P;
    if (P == 1) {
      EXPECT_EQ(Second.SchedStats.at("sched.waits.handled") +
                    Second.SchedStats.at("sched.waits.barrier"),
                0u);
      EXPECT_EQ(Second.SchedStats.at("sched.workers.spawned"), 0u);
    }
  }
}

// Two compiles running at once on the shared executor each count exactly
// their own tasks and signals: the same figures as compiling alone.
TEST(Property, ConcurrentThreadedCompilesCountOnlyTheirOwnTasks) {
  VirtualFileSystem Files;
  StringInterner Interner;
  std::vector<workload::ModuleSpec> Suite =
      workload::WorkloadGenerator::paperSuite();
  const workload::ModuleSpec Specs[] = {Suite[20], Suite[30]};
  for (const workload::ModuleSpec &Spec : Specs)
    workload::WorkloadGenerator(Files).generate(Spec);

  CompilerOptions O;
  O.Executor = ExecutorKind::Threaded;
  O.Processors = 4;
  auto Counts = [](const CompileResult &R) {
    return std::make_pair(R.SchedStats.at("sched.tasks.total"),
                          R.SchedStats.at("sched.events.signaled"));
  };
  std::pair<uint64_t, uint64_t> Solo[2];
  std::string SoloMco[2];
  for (int I = 0; I < 2; ++I) {
    CompileResult R =
        ConcurrentCompiler(Files, Interner, O).compile(Specs[I].Name);
    ASSERT_TRUE(R.Success) << R.DiagnosticText.substr(0, 800);
    Solo[I] = Counts(R);
    SoloMco[I] = codegen::writeObjectFile(R.Image, Interner);
  }

  for (int Round = 0; Round < 3; ++Round) {
    CompileResult Both[2];
    std::thread Peer([&] {
      Both[1] = ConcurrentCompiler(Files, Interner, O).compile(Specs[1].Name);
    });
    Both[0] = ConcurrentCompiler(Files, Interner, O).compile(Specs[0].Name);
    Peer.join();
    for (int I = 0; I < 2; ++I) {
      ASSERT_TRUE(Both[I].Success) << Specs[I].Name;
      EXPECT_EQ(Counts(Both[I]), Solo[I]) << Specs[I].Name;
      EXPECT_EQ(codegen::writeObjectFile(Both[I].Image, Interner), SoloMco[I])
          << Specs[I].Name;
    }
  }
}

TEST(Property, ErrorsIdenticalUnderEveryStrategy) {
  VirtualFileSystem Files;
  StringInterner Interner;
  Files.addFile("Dep.def", "DEFINITION MODULE Dep;\n"
                           "CONST K = 1;\nEND Dep.\n");
  Files.addFile("Bad.mod",
                "MODULE Bad;\n"
                "FROM Dep IMPORT K, Missing;\n"
                "VAR x: INTEGER; b: BOOLEAN;\n"
                "PROCEDURE P(a: INTEGER): INTEGER;\n"
                "BEGIN RETURN b END P;\n"
                "PROCEDURE Q;\n"
                "VAR v: ARRAY [5..2] OF INTEGER;\n"
                "BEGIN undeclared := 1 END Q;\n"
                "BEGIN x := P(1, 2); x := TRUE END Bad.\n");

  SequentialCompiler Seq(Files, Interner);
  CompileResult Reference = Seq.compile("Bad");
  EXPECT_FALSE(Reference.Success);

  for (DkyStrategy Strategy :
       {DkyStrategy::Avoidance, DkyStrategy::Pessimistic,
        DkyStrategy::Skeptical, DkyStrategy::Optimistic}) {
    for (unsigned P : {1u, 8u}) {
      CompilerOptions O;
      O.Strategy = Strategy;
      O.Processors = P;
      ConcurrentCompiler C(Files, Interner, O);
      CompileResult R = C.compile("Bad");
      EXPECT_FALSE(R.Success);
      EXPECT_EQ(R.DiagnosticText, Reference.DiagnosticText)
          << dkyStrategyName(Strategy) << " P=" << P;
    }
  }
}

TEST(Property, ImportTreeProcessedBottomUp) {
  // Section 4.4: "The need to resolve DKY blockages quickly and the task
  // scheduling strategy used by our scheduler typically causes this
  // [definition-module] tree to be processed in a bottom up order."
  // With a linear chain Top -> Mid -> Leaf, the completion events must
  // fire leaf-first.
  VirtualFileSystem Files;
  StringInterner Interner;
  Files.addFile("Leaf.def", "DEFINITION MODULE Leaf;\n"
                            "TYPE T0 = INTEGER;\nCONST C0 = 1;\n"
                            "CONST C1 = 2; C2 = 3; C3 = 4;\n"
                            "END Leaf.\n");
  Files.addFile("Mid.def", "DEFINITION MODULE Mid;\nIMPORT Leaf;\n"
                           "TYPE T0 = INTEGER;\nCONST C0 = 5;\n"
                           "CONST CX = Leaf.C3 + 1;\nTYPE T1 = Leaf.T0;\n"
                           "END Mid.\n");
  Files.addFile("Top.def", "DEFINITION MODULE Top;\nIMPORT Mid;\n"
                           "TYPE T0 = INTEGER;\n"
                           "CONST CX = Mid.CX + 1;\nTYPE T1 = Mid.T1;\n"
                           "END Top.\n");
  Files.addFile("Main.mod", "MODULE Main;\nIMPORT Top;\n"
                            "VAR x: INTEGER;\n"
                            "BEGIN x := Top.CX; WriteInt(x, 0) END Main.\n");

  CompilerOptions O;
  O.Processors = 8;
  ConcurrentCompiler C(Files, Interner, O);
  CompileResult R = C.compile("Main");
  ASSERT_TRUE(R.Success) << R.DiagnosticText;

  auto CompletionTime = [&](const char *Name) {
    symtab::Scope *S = R.Compilation->Modules.lookup(Interner.intern(Name));
    EXPECT_NE(S, nullptr);
    EXPECT_TRUE(S->isComplete());
    return S->completionEvent()->signalTime();
  };
  uint64_t Leaf = CompletionTime("Leaf");
  uint64_t Mid = CompletionTime("Mid");
  uint64_t Tp = CompletionTime("Top");
  EXPECT_LT(Leaf, Mid);
  EXPECT_LT(Mid, Tp);
}

} // namespace
