//===--- DriverTest.cpp - End-to-end compile-and-run tests -----------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "driver/ConcurrentCompiler.h"
#include "driver/SequentialCompiler.h"
#include "vm/VM.h"
#include "vm/tier/TierManager.h"

#include <gtest/gtest.h>

using namespace m2c;
using namespace m2c::driver;

namespace {

/// Shared fixture: files + interner + helpers to compile and run.
struct E2E {
  VirtualFileSystem Files;
  StringInterner Interner;

  void addModule(const std::string &Name, const std::string &ModText) {
    Files.addFile(Name + ".mod", ModText);
  }
  void addDef(const std::string &Name, const std::string &DefText) {
    Files.addFile(Name + ".def", DefText);
  }

  CompileResult compileSeq(const std::string &Name,
                           CompilerOptions Options = CompilerOptions()) {
    SequentialCompiler C(Files, Interner, Options);
    return C.compile(Name);
  }

  CompileResult compileConc(const std::string &Name,
                            CompilerOptions Options = CompilerOptions()) {
    ConcurrentCompiler C(Files, Interner, Options);
    return C.compile(Name);
  }

  /// Links the given images and runs \p Main.
  vm::VM::RunResult runProgram(std::vector<codegen::ModuleImage> Images,
                               const std::string &Main,
                               std::vector<int64_t> Input = {}) {
    vm::Program Prog(Interner);
    for (auto &Image : Images)
      Prog.addImage(std::move(Image));
    if (!Prog.link()) {
      vm::VM::RunResult R;
      R.Trapped = true;
      R.TrapMessage = "link failed: ";
      for (const std::string &E : Prog.errors())
        R.TrapMessage += E + "; ";
      return R;
    }
    vm::VM Machine(Prog);
    Machine.setInput(std::move(Input));
    return Machine.run(Interner.intern(Main));
  }

  /// Compiles \p Main sequentially and runs it, expecting success.
  std::string compileAndRunSeq(const std::string &Main) {
    CompileResult R = compileSeq(Main);
    EXPECT_TRUE(R.Success) << R.DiagnosticText;
    auto Out = runProgram(makeImages(std::move(R)), Main);
    EXPECT_FALSE(Out.Trapped) << Out.TrapMessage;
    return Out.Output;
  }

  std::vector<codegen::ModuleImage> makeImages(CompileResult R) {
    std::vector<codegen::ModuleImage> Images;
    Images.push_back(std::move(R.Image));
    return Images;
  }
};

TEST(EndToEnd, HelloWorldSequential) {
  E2E T;
  T.addModule("Hello", "MODULE Hello;\n"
                       "BEGIN\n"
                       "  WriteString('Hello, world'); WriteLn\n"
                       "END Hello.\n");
  EXPECT_EQ(T.compileAndRunSeq("Hello"), "Hello, world\n");
}

TEST(EndToEnd, ArithmeticAndControlFlow) {
  E2E T;
  T.addModule("Arith",
              "MODULE Arith;\n"
              "VAR i, sum: INTEGER;\n"
              "BEGIN\n"
              "  sum := 0;\n"
              "  FOR i := 1 TO 10 DO sum := sum + i END;\n"
              "  WriteInt(sum, 0);\n"
              "  WriteChar(' ');\n"
              "  WriteInt(17 DIV 5, 0); WriteChar(' ');\n"
              "  WriteInt(17 MOD 5, 0); WriteChar(' ');\n"
              "  IF (sum > 50) AND ODD(sum MOD 10) THEN\n"
              "    WriteString('big-odd')\n"
              "  ELSE\n"
              "    WriteString('other')\n"
              "  END;\n"
              "  WriteLn\n"
              "END Arith.\n");
  EXPECT_EQ(T.compileAndRunSeq("Arith"), "55 3 2 big-odd\n");
}

TEST(EndToEnd, RecursiveProcedure) {
  E2E T;
  T.addModule("Fact",
              "MODULE Fact;\n"
              "PROCEDURE Factorial(n: INTEGER): INTEGER;\n"
              "BEGIN\n"
              "  IF n <= 1 THEN RETURN 1 END;\n"
              "  RETURN n * Factorial(n - 1)\n"
              "END Factorial;\n"
              "BEGIN\n"
              "  WriteInt(Factorial(10), 0); WriteLn\n"
              "END Fact.\n");
  EXPECT_EQ(T.compileAndRunSeq("Fact"), "3628800\n");
}

TEST(EndToEnd, RecordsArraysPointers) {
  E2E T;
  T.addModule(
      "Data",
      "MODULE Data;\n"
      "TYPE NodePtr = POINTER TO Node;\n"
      "     Node = RECORD value: INTEGER; next: NodePtr END;\n"
      "     Vec = ARRAY [1..5] OF INTEGER;\n"
      "VAR head, p: NodePtr; v: Vec; i, total: INTEGER;\n"
      "PROCEDURE Push(VAR list: NodePtr; x: INTEGER);\n"
      "VAR n: NodePtr;\n"
      "BEGIN\n"
      "  NEW(n); n^.value := x; n^.next := list; list := n\n"
      "END Push;\n"
      "BEGIN\n"
      "  head := NIL;\n"
      "  FOR i := 1 TO 5 DO v[i] := i * i; Push(head, v[i]) END;\n"
      "  total := 0;\n"
      "  p := head;\n"
      "  WHILE p # NIL DO total := total + p^.value; p := p^.next END;\n"
      "  WriteInt(total, 0); WriteLn\n"
      "END Data.\n");
  EXPECT_EQ(T.compileAndRunSeq("Data"), "55\n");
}

TEST(EndToEnd, WithStatementAndSets) {
  E2E T;
  T.addModule("Ws",
              "MODULE Ws;\n"
              "TYPE Point = RECORD x, y: INTEGER END;\n"
              "VAR p: Point; s: BITSET;\n"
              "BEGIN\n"
              "  WITH p DO x := 3; y := 4 END;\n"
              "  WriteInt(p.x + p.y, 0); WriteChar(' ');\n"
              "  s := {1, 3..5};\n"
              "  INCL(s, 7); EXCL(s, 4);\n"
              "  IF (3 IN s) AND NOT (4 IN s) THEN WriteString('sets-ok') END;\n"
              "  WriteLn\n"
              "END Ws.\n");
  EXPECT_EQ(T.compileAndRunSeq("Ws"), "7 sets-ok\n");
}

TEST(EndToEnd, NestedProceduresUpLevelAccess) {
  E2E T;
  T.addModule("Nest",
              "MODULE Nest;\n"
              "VAR r: INTEGER;\n"
              "PROCEDURE Outer(base: INTEGER): INTEGER;\n"
              "VAR acc: INTEGER;\n"
              "  PROCEDURE Add(k: INTEGER);\n"
              "  BEGIN acc := acc + base * k END Add;\n"
              "BEGIN\n"
              "  acc := 0; Add(1); Add(2); Add(3); RETURN acc\n"
              "END Outer;\n"
              "BEGIN\n"
              "  r := Outer(10);\n"
              "  WriteInt(r, 0); WriteLn\n"
              "END Nest.\n");
  EXPECT_EQ(T.compileAndRunSeq("Nest"), "60\n");
}

TEST(EndToEnd, CaseStatement) {
  E2E T;
  T.addModule("Cs",
              "MODULE Cs;\n"
              "VAR i: INTEGER;\n"
              "BEGIN\n"
              "  FOR i := 1 TO 6 DO\n"
              "    CASE i OF\n"
              "      1: WriteChar('a')\n"
              "    | 2, 3: WriteChar('b')\n"
              "    | 4..5: WriteChar('c')\n"
              "    ELSE WriteChar('d')\n"
              "    END\n"
              "  END;\n"
              "  WriteLn\n"
              "END Cs.\n");
  EXPECT_EQ(T.compileAndRunSeq("Cs"), "abbccd\n");
}

TEST(EndToEnd, ImportsAcrossModules) {
  E2E T;
  T.addDef("MathLib", "DEFINITION MODULE MathLib;\n"
                      "CONST Scale = 3;\n"
                      "PROCEDURE Triple(x: INTEGER): INTEGER;\n"
                      "PROCEDURE Square(x: INTEGER): INTEGER;\n"
                      "END MathLib.\n");
  T.addModule("MathLib", "IMPLEMENTATION MODULE MathLib;\n"
                         "PROCEDURE Triple(x: INTEGER): INTEGER;\n"
                         "BEGIN RETURN 3 * x END Triple;\n"
                         "PROCEDURE Square(x: INTEGER): INTEGER;\n"
                         "BEGIN RETURN x * x END Square;\n"
                         "END MathLib.\n");
  T.addModule("UseMath",
              "MODULE UseMath;\n"
              "IMPORT MathLib;\n"
              "FROM MathLib IMPORT Square, Scale;\n"
              "BEGIN\n"
              "  WriteInt(MathLib.Triple(7) + Square(4) + Scale, 0); WriteLn\n"
              "END UseMath.\n");

  CompileResult Lib = T.compileSeq("MathLib");
  ASSERT_TRUE(Lib.Success) << Lib.DiagnosticText;
  CompileResult Main = T.compileSeq("UseMath");
  ASSERT_TRUE(Main.Success) << Main.DiagnosticText;

  std::vector<codegen::ModuleImage> Images;
  Images.push_back(std::move(Lib.Image));
  Images.push_back(std::move(Main.Image));
  auto Out = T.runProgram(std::move(Images), "UseMath");
  EXPECT_FALSE(Out.Trapped) << Out.TrapMessage;
  EXPECT_EQ(Out.Output, "40\n"); // 21 + 16 + 3
}

// REPEAT is the one statement whose generated code branches backward on a
// condition.  Each compiler builds it at -O0 and -O2, and the program runs
// on the interpreter, with every unit forced to tier 1, and with eager
// mixed tiering that enters the promoted loops mid-run (OSR).
TEST(EndToEnd, RepeatUntilAcrossCompilersLevelsAndTiers) {
  E2E T;
  T.addModule("Rep",
              "MODULE Rep;\n"
              "VAR i, sum, n: INTEGER;\n"
              "PROCEDURE Count(k: INTEGER): INTEGER;\n"
              "VAR c, j: INTEGER;\n"
              "BEGIN c := 0; j := 0;\n"
              "  REPEAT j := j + 1; IF ODD(j) THEN c := c + j END "
              "UNTIL j >= k;\n"
              "  RETURN c\n"
              "END Count;\n"
              "PROCEDURE Scan(k: INTEGER): INTEGER;\n"
              "VAR j: INTEGER;\n"
              "BEGIN j := 0; LOOP j := j + 3; IF j > k THEN EXIT END END; "
              "RETURN j\n"
              "END Scan;\n"
              "BEGIN\n"
              "  sum := 0; i := 0; REPEAT i := i + 1; sum := sum + i "
              "UNTIL i = 10;\n"
              "  WriteInt(sum, 0); WriteChar(' ');\n"
              "  n := 0; FOR i := 1 TO 200 DO n := n + Count(i MOD 17) END;\n"
              "  WriteInt(n, 0); WriteChar(' ');\n"
              "  n := 0; FOR i := 1 TO 200 DO n := n + Scan(i) END;\n"
              "  WriteInt(n, 0); WriteLn\n"
              "END Rep.\n");

  vm::tier::TierPolicy Tier0, Forced, Eager;
  Tier0.Mode = vm::tier::TierMode::Tier0Only;
  Forced.Mode = vm::tier::TierMode::ForceTier1;
  Eager.Mode = vm::tier::TierMode::Mixed;
  Eager.InvocationThreshold = 1;
  Eager.BackedgeThreshold = 4;
  Eager.Background = false;

  for (opt::OptLevel Level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
    CompilerOptions Threaded;
    Threaded.Level = Level;
    Threaded.Executor = ExecutorKind::Threaded;
    Threaded.Processors = 4;
    CompilerOptions Simulated = Threaded;
    Simulated.Executor = ExecutorKind::Simulated;
    const std::pair<const char *, CompileResult> Builds[] = {
        {"sequential", T.compileSeq("Rep", Threaded)},
        {"threaded P=4", T.compileConc("Rep", Threaded)},
        {"simulated P=4", T.compileConc("Rep", Simulated)},
    };
    for (const auto &[Compiler, R] : Builds) {
      ASSERT_TRUE(R.Success) << Compiler << ": " << R.DiagnosticText;
      for (const vm::tier::TierPolicy &Policy : {Tier0, Forced, Eager}) {
        vm::Program Prog(T.Interner);
        Prog.addImage(R.Image);
        ASSERT_TRUE(Prog.link());
        vm::VM Machine(Prog);
        Machine.setTierPolicy(Policy);
        vm::VM::RunResult Out = Machine.run(T.Interner.intern("Rep"));
        EXPECT_FALSE(Out.Trapped) << Compiler << ": " << Out.TrapMessage;
        EXPECT_EQ(Out.Output, "55 4730 20499\n")
            << Compiler << " at " << opt::optLevelName(Level) << ", tier mode "
            << static_cast<int>(Policy.Mode);
      }
    }
  }
}

TEST(EndToEnd, SemanticErrorsAreReported) {
  E2E T;
  T.addModule("Bad", "MODULE Bad;\n"
                     "VAR x: INTEGER;\n"
                     "BEGIN\n"
                     "  x := TRUE;\n"
                     "  y := 1\n"
                     "END Bad.\n");
  CompileResult R = T.compileSeq("Bad");
  EXPECT_FALSE(R.Success);
  EXPECT_NE(R.DiagnosticText.find("cannot assign"), std::string::npos)
      << R.DiagnosticText;
  EXPECT_NE(R.DiagnosticText.find("undeclared identifier 'y'"),
            std::string::npos)
      << R.DiagnosticText;
}

//===----------------------------------------------------------------------===//
// Concurrent compiler, parameterized over strategy, executor, processors.
//===----------------------------------------------------------------------===//

struct ConcCase {
  symtab::DkyStrategy Strategy;
  ExecutorKind Exec;
  unsigned Processors;
};

class ConcurrentE2E : public ::testing::TestWithParam<ConcCase> {
protected:
  CompilerOptions options() {
    CompilerOptions O;
    O.Strategy = GetParam().Strategy;
    O.Executor = GetParam().Exec;
    O.Processors = GetParam().Processors;
    return O;
  }
};

/// A program with imports, procedures, nesting — enough to exercise
/// splitting, DKY waits and merging.
void addTestProject(E2E &T) {
  T.addDef("Lists", "DEFINITION MODULE Lists;\n"
                    "TYPE ListPtr = POINTER TO ListNode;\n"
                    "     ListNode = RECORD value: INTEGER; next: ListPtr "
                    "END;\n"
                    "PROCEDURE Length(l: ListPtr): INTEGER;\n"
                    "END Lists.\n");
  T.addDef("Util", "DEFINITION MODULE Util;\n"
                   "FROM Lists IMPORT ListPtr;\n"
                   "CONST Limit = 100;\n"
                   "PROCEDURE Clamp(x: INTEGER): INTEGER;\n"
                   "END Util.\n");
  T.addModule(
      "Main",
      "MODULE Main;\n"
      "IMPORT Util;\n"
      "FROM Util IMPORT Clamp, Limit;\n"
      "FROM Lists IMPORT ListPtr, ListNode;\n"
      "VAR total: INTEGER; head: ListPtr;\n"
      "PROCEDURE Push(x: INTEGER);\n"
      "VAR n: ListPtr;\n"
      "BEGIN NEW(n); n^.value := x; n^.next := head; head := n END Push;\n"
      "PROCEDURE SumAll(): INTEGER;\n"
      "VAR p: ListPtr; s: INTEGER;\n"
      "BEGIN\n"
      "  s := 0; p := head;\n"
      "  WHILE p # NIL DO s := s + p^.value; p := p^.next END;\n"
      "  RETURN s\n"
      "END SumAll;\n"
      "PROCEDURE Analyze(v: INTEGER): INTEGER;\n"
      "  PROCEDURE Half(): INTEGER;\n"
      "  BEGIN RETURN v DIV 2 END Half;\n"
      "BEGIN RETURN Clamp(Half()) END Analyze;\n"
      "BEGIN\n"
      "  Push(10); Push(20); Push(300);\n"
      "  total := Analyze(SumAll()) + Limit;\n"
      "  WriteInt(total, 0); WriteLn\n"
      "END Main.\n");
}

TEST_P(ConcurrentE2E, MatchesSequentialOutput) {
  E2E T;
  addTestProject(T);

  CompileResult Seq = T.compileSeq("Main");
  ASSERT_TRUE(Seq.Success) << Seq.DiagnosticText;
  CompileResult Conc = T.compileConc("Main", options());
  ASSERT_TRUE(Conc.Success) << Conc.DiagnosticText;

  // Same streams discovered.
  EXPECT_GE(Conc.StreamCount, 1u + 4u + 2u); // main + 4 procs + 2 defs

  // The merged images must agree unit for unit.
  ASSERT_EQ(Seq.Image.Units.size(), Conc.Image.Units.size());
  for (size_t I = 0; I < Seq.Image.Units.size(); ++I) {
    const codegen::CodeUnit &A = Seq.Image.Units[I];
    const codegen::CodeUnit &B = Conc.Image.Units[I];
    EXPECT_EQ(A.QualifiedName, B.QualifiedName);
    EXPECT_EQ(A.Code.size(), B.Code.size()) << A.QualifiedName;
  }

  // Identical diagnostics (none) and identical run output.
  // SumAll = 330, Half = 165, Clamp(165) = 100, + Limit = 200... the
  // implementation module for Util is required to execute; supply it.
  T.addModule("Util", "IMPLEMENTATION MODULE Util;\n"
                      "PROCEDURE Clamp(x: INTEGER): INTEGER;\n"
                      "BEGIN\n"
                      "  IF x > Limit THEN RETURN Limit END;\n"
                      "  IF x < 0 THEN RETURN 0 END;\n"
                      "  RETURN x\n"
                      "END Clamp;\n"
                      "END Util.\n");
  T.addModule("Lists", "IMPLEMENTATION MODULE Lists;\n"
                       "PROCEDURE Length(l: ListPtr): INTEGER;\n"
                       "VAR n: INTEGER;\n"
                       "BEGIN\n"
                       "  n := 0;\n"
                       "  WHILE l # NIL DO INC(n); l := l^.next END;\n"
                       "  RETURN n\n"
                       "END Length;\n"
                       "END Lists.\n");
  CompileResult UtilImg = T.compileConc("Util", options());
  ASSERT_TRUE(UtilImg.Success) << UtilImg.DiagnosticText;
  CompileResult ListsImg = T.compileConc("Lists", options());
  ASSERT_TRUE(ListsImg.Success) << ListsImg.DiagnosticText;

  std::vector<codegen::ModuleImage> Images;
  Images.push_back(std::move(Conc.Image));
  Images.push_back(std::move(UtilImg.Image));
  Images.push_back(std::move(ListsImg.Image));
  auto Out = T.runProgram(std::move(Images), "Main");
  EXPECT_FALSE(Out.Trapped) << Out.TrapMessage;
  EXPECT_EQ(Out.Output, "200\n");
}

TEST_P(ConcurrentE2E, DiagnosticsMatchSequential) {
  E2E T;
  T.addDef("Dep", "DEFINITION MODULE Dep;\n"
                  "PROCEDURE F(x: INTEGER): INTEGER;\n"
                  "END Dep.\n");
  T.addModule("Errs",
              "MODULE Errs;\n"
              "FROM Dep IMPORT F, Missing;\n"
              "VAR a: INTEGER; b: BOOLEAN;\n"
              "PROCEDURE P(): INTEGER;\n"
              "BEGIN RETURN b END P;\n"
              "BEGIN\n"
              "  a := F(a, a);\n"
              "  undeclared := 1\n"
              "END Errs.\n");
  CompileResult Seq = T.compileSeq("Errs");
  CompileResult Conc = T.compileConc("Errs", options());
  EXPECT_FALSE(Seq.Success);
  EXPECT_FALSE(Conc.Success);
  // The concurrent compiler must report exactly what the sequential
  // compiler reports, independent of task interleaving.
  EXPECT_EQ(Seq.DiagnosticText, Conc.DiagnosticText);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ConcurrentE2E,
    ::testing::Values(
        ConcCase{symtab::DkyStrategy::Skeptical, ExecutorKind::Simulated, 1},
        ConcCase{symtab::DkyStrategy::Skeptical, ExecutorKind::Simulated, 4},
        ConcCase{symtab::DkyStrategy::Skeptical, ExecutorKind::Simulated, 8},
        ConcCase{symtab::DkyStrategy::Avoidance, ExecutorKind::Simulated, 4},
        ConcCase{symtab::DkyStrategy::Pessimistic, ExecutorKind::Simulated,
                 4},
        ConcCase{symtab::DkyStrategy::Optimistic, ExecutorKind::Simulated, 4},
        ConcCase{symtab::DkyStrategy::Skeptical, ExecutorKind::Threaded, 2},
        ConcCase{symtab::DkyStrategy::Skeptical, ExecutorKind::Threaded, 4},
        ConcCase{symtab::DkyStrategy::Avoidance, ExecutorKind::Threaded, 4},
        ConcCase{symtab::DkyStrategy::Pessimistic, ExecutorKind::Threaded, 4},
        ConcCase{symtab::DkyStrategy::Optimistic, ExecutorKind::Threaded, 4}),
    [](const ::testing::TestParamInfo<ConcCase> &Info) {
      return std::string(symtab::dkyStrategyName(Info.param.Strategy)) +
             (Info.param.Exec == ExecutorKind::Threaded ? "Thr" : "Sim") +
             std::to_string(Info.param.Processors);
    });

} // namespace
