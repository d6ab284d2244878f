//===--- BuildTest.cpp - Project build session tests -----------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "build/BuildSession.h"
#include "build/InterfaceSet.h"
#include "build/ModulePipeline.h"
#include "build/TaskSpawner.h"
#include "cache/CachePlanner.h"
#include "cache/CompilationCache.h"
#include "codegen/Linker.h"
#include "codegen/ObjectFile.h"
#include "driver/ConcurrentCompiler.h"
#include "sched/SimulatedExecutor.h"
#include "service/BuildService.h"
#include "vm/VM.h"
#include "workload/WorkloadGenerator.h"

#include <gtest/gtest.h>

using namespace m2c;
using namespace m2c::driver;

namespace {

/// Fixture: in-memory files, an interner, and a memory-backed cache that
/// persists across sessions (the cross-session incremental scenarios).
struct BuildFixture {
  VirtualFileSystem Files;
  StringInterner Interner;
  cache::CompilationCache Cache{std::make_unique<cache::MemoryCacheStore>()};

  CompilerOptions options(bool Cached = false) {
    CompilerOptions Options;
    Options.Executor = ExecutorKind::Simulated;
    Options.Processors = 4;
    if (Cached)
      Options.Cache = &Cache;
    return Options;
  }

  build::BuildResult session(const std::vector<std::string> &Roots,
                             CompilerOptions Options) {
    build::BuildSession Session(Files, Interner, std::move(Options));
    return Session.build(Roots);
  }

  static uint64_t stat(const std::map<std::string, uint64_t> &Stats,
                       const std::string &Name) {
    auto It = Stats.find(Name);
    return It == Stats.end() ? 0 : It->second;
  }

  /// Cache counters are cumulative over the shared cache object; sessions
  /// are compared by delta.
  static uint64_t delta(const build::BuildResult &Now,
                        const build::BuildResult &Prev,
                        const std::string &Name) {
    return stat(Now.CacheStats, Name) - stat(Prev.CacheStats, Name);
  }

  std::string render(const codegen::ModuleImage &Image) {
    return codegen::writeObjectFile(Image, Interner);
  }

  /// Links a session's images (copies; the result stays usable) and runs
  /// \p Main, returning the program's output.
  std::string runProgram(const build::BuildResult &R, const std::string &Main) {
    codegen::Linker Link(Interner);
    for (const build::ModuleBuild &M : R.Modules)
      Link.addImage(M.Image);
    codegen::LinkedProgram Program = Link.link();
    EXPECT_TRUE(Program.ok());
    for (const std::string &E : Program.errors())
      ADD_FAILURE() << "link error: " << E;
    if (!Program.ok())
      return "";
    vm::VM Machine(Program, Interner);
    vm::VM::RunResult Run = Machine.run(Interner.intern(Main));
    EXPECT_FALSE(Run.Trapped) << Run.TrapMessage;
    return Run.Output;
  }

  /// The three-module text-statistics project: Stacks (a data structure),
  /// Stats (analysis built on Stacks), and the Report program.
  void addReportProject() {
    Files.addFile("Stacks.def",
                  "DEFINITION MODULE Stacks;\n"
                  "TYPE Stack = POINTER TO Cell;\n"
                  "     Cell = RECORD value: INTEGER; next: Stack END;\n"
                  "PROCEDURE Push(VAR s: Stack; x: INTEGER);\n"
                  "PROCEDURE Pop(VAR s: Stack): INTEGER;\n"
                  "PROCEDURE Depth(s: Stack): INTEGER;\n"
                  "END Stacks.\n");
    addStacksImpl("n := 0;");
    addStatsDef("");
    Files.addFile("Stats.mod",
                  "IMPLEMENTATION MODULE Stats;\n"
                  "FROM Stacks IMPORT Stack, Pop, Depth;\n"
                  "PROCEDURE SumAll(VAR s: Stack): INTEGER;\n"
                  "VAR total: INTEGER;\n"
                  "BEGIN\n"
                  "  total := 0;\n"
                  "  WHILE Depth(s) > 0 DO total := total + Pop(s) END;\n"
                  "  RETURN total\n"
                  "END SumAll;\n"
                  "PROCEDURE MaxAll(VAR s: Stack): INTEGER;\n"
                  "VAR best, x: INTEGER;\n"
                  "BEGIN\n"
                  "  best := 0;\n"
                  "  WHILE Depth(s) > 0 DO\n"
                  "    x := Pop(s);\n"
                  "    IF x > best THEN best := x END\n"
                  "  END;\n"
                  "  RETURN best\n"
                  "END MaxAll;\n"
                  "END Stats.\n");
    Files.addFile("Report.mod",
                  "MODULE Report;\n"
                  "IMPORT Stacks, Stats;\n"
                  "FROM Stacks IMPORT Stack, Push;\n"
                  "VAR a, b: Stack; i: INTEGER;\n"
                  "BEGIN\n"
                  "  FOR i := 1 TO 10 DO Push(a, i * i); Push(b, i * 3) END;\n"
                  "  WriteString('sum of squares: ');\n"
                  "  WriteInt(Stats.SumAll(a), 0); WriteLn;\n"
                  "  WriteString('max multiple:   ');\n"
                  "  WriteInt(Stats.MaxAll(b), 0); WriteLn\n"
                  "END Report.\n");
  }

  /// Stacks implementation with a pluggable first statement in Depth, so
  /// tests can make a behavior-preserving body edit.
  void addStacksImpl(const std::string &DepthInit) {
    Files.addFile("Stacks.mod",
                  "IMPLEMENTATION MODULE Stacks;\n"
                  "PROCEDURE Push(VAR s: Stack; x: INTEGER);\n"
                  "VAR c: Stack;\n"
                  "BEGIN NEW(c); c^.value := x; c^.next := s; s := c "
                  "END Push;\n"
                  "PROCEDURE Pop(VAR s: Stack): INTEGER;\n"
                  "VAR x: INTEGER;\n"
                  "BEGIN\n"
                  "  IF s = NIL THEN RETURN 0 END;\n"
                  "  x := s^.value; s := s^.next; RETURN x\n"
                  "END Pop;\n"
                  "PROCEDURE Depth(s: Stack): INTEGER;\n"
                  "VAR n: INTEGER;\n"
                  "BEGIN\n"
                  "  " +
                      DepthInit +
                      "\n"
                      "  WHILE s # NIL DO INC(n); s := s^.next END;\n"
                      "  RETURN n\n"
                      "END Depth;\n"
                      "END Stacks.\n");
  }

  /// Stats interface with a pluggable extra declaration, so tests can make
  /// a behavior-preserving interface edit.
  void addStatsDef(const std::string &Extra) {
    Files.addFile("Stats.def", "DEFINITION MODULE Stats;\n"
                               "FROM Stacks IMPORT Stack;\n" +
                                   Extra +
                                   "PROCEDURE SumAll(VAR s: Stack): INTEGER;\n"
                                   "PROCEDURE MaxAll(VAR s: Stack): INTEGER;\n"
                                   "END Stats.\n");
  }
};

const char *const ReportOutput = "sum of squares: 385\n"
                                 "max multiple:   30\n";

TEST(BuildTest, SessionCompilesLinksAndRuns) {
  BuildFixture T;
  T.addReportProject();

  build::BuildResult R = T.session({"Report"}, T.options());
  ASSERT_TRUE(R.Success) << R.DiagnosticText;

  // All three implementation modules were discovered from the one root,
  // and are reported imports first.
  ASSERT_EQ(R.Modules.size(), 3u);
  EXPECT_EQ(R.Modules[0].Name, "Stacks");
  EXPECT_EQ(R.Modules[1].Name, "Stats");
  EXPECT_EQ(R.Modules[2].Name, "Report");

  // Stream counts match the single-module compiles: Stacks is main + 3
  // procedures + its own interface; Stats is main + 2 procedures + its
  // 2-interface closure; Report is main + the same closure.
  EXPECT_EQ(R.Modules[0].StreamCount, 5u);
  EXPECT_EQ(R.Modules[1].StreamCount, 5u);
  EXPECT_EQ(R.Modules[2].StreamCount, 3u);

  // Though three modules import them, the session parsed the two
  // interfaces once each.
  EXPECT_EQ(T.stat(R.BuildStats, "build.modules.total"), 3u);
  EXPECT_EQ(T.stat(R.BuildStats, "build.modules.compiled"), 3u);
  EXPECT_EQ(T.stat(R.BuildStats, "build.interface.streams"), 2u);
  EXPECT_EQ(T.stat(R.BuildStats, "build.interface.parses"), 2u);

  EXPECT_EQ(T.runProgram(R, "Report"), ReportOutput);
}

TEST(BuildTest, ThreadedSessionProducesSameProgram) {
  BuildFixture T;
  T.addReportProject();

  CompilerOptions Options = T.options();
  Options.Executor = ExecutorKind::Threaded;
  build::BuildResult R = T.session({"Report"}, Options);
  ASSERT_TRUE(R.Success) << R.DiagnosticText;
  ASSERT_EQ(R.Modules.size(), 3u);
  EXPECT_EQ(T.stat(R.BuildStats, "build.interface.parses"), 2u);
  EXPECT_EQ(T.runProgram(R, "Report"), ReportOutput);
}

TEST(BuildTest, MissingRootIsReported) {
  BuildFixture T;
  T.addReportProject();

  build::BuildResult R = T.session({"Nonesuch"}, T.options());
  EXPECT_FALSE(R.Success);
  EXPECT_NE(R.DiagnosticText.find("cannot find module file"),
            std::string::npos)
      << R.DiagnosticText;
}

TEST(BuildTest, LinkReportsUnresolvedSymbols) {
  BuildFixture T;
  T.addReportProject();
  build::BuildResult R = T.session({"Report"}, T.options());
  ASSERT_TRUE(R.Success) << R.DiagnosticText;

  // Link without Stacks: every Stacks.* callee is a missing symbol.
  codegen::Linker Link(T.Interner);
  for (const build::ModuleBuild &M : R.Modules)
    if (M.Name != "Stacks")
      Link.addImage(M.Image);
  codegen::LinkedProgram Program = Link.link();
  ASSERT_FALSE(Program.ok());
  bool SawUnresolved = false;
  for (const std::string &E : Program.errors())
    SawUnresolved |= E.find("unresolved") != std::string::npos &&
                     E.find("Stacks") != std::string::npos;
  EXPECT_TRUE(SawUnresolved) << "errors did not mention unresolved Stacks";
}

TEST(BuildTest, LinkReportsDuplicateSymbols) {
  BuildFixture T;
  T.addReportProject();
  build::BuildResult R = T.session({"Report"}, T.options());
  ASSERT_TRUE(R.Success) << R.DiagnosticText;

  // The same module linked twice is a duplicate-symbol error, not a
  // silent override.
  codegen::Linker Link(T.Interner);
  for (const build::ModuleBuild &M : R.Modules)
    Link.addImage(M.Image);
  Link.addImage(R.Modules[0].Image);
  codegen::LinkedProgram Program = Link.link();
  ASSERT_FALSE(Program.ok());
  bool SawDuplicate = false;
  for (const std::string &E : Program.errors())
    SawDuplicate |= E.find("duplicate module 'Stacks'") != std::string::npos;
  EXPECT_TRUE(SawDuplicate) << "errors did not mention duplicate Stacks";
}

TEST(BuildTest, SessionImagesMatchPerModuleCompiles) {
  BuildFixture T;
  T.addReportProject();

  build::BuildResult R = T.session({"Report"}, T.options());
  ASSERT_TRUE(R.Success) << R.DiagnosticText;

  // A session compile of a module is byte-identical to compiling that
  // module alone: sharing the executor, interner and interface set must
  // not leak into the output.
  for (const build::ModuleBuild &M : R.Modules) {
    ConcurrentCompiler C(T.Files, T.Interner, T.options());
    CompileResult Single = C.compile(M.Name);
    ASSERT_TRUE(Single.Success) << Single.DiagnosticText;
    EXPECT_EQ(T.render(M.Image), T.render(Single.Image))
        << "image mismatch for " << M.Name;
    EXPECT_EQ(M.StreamCount, Single.StreamCount)
        << "stream count mismatch for " << M.Name;
  }
}

TEST(BuildTest, SessionParsesEachInterfaceOnce) {
  BuildFixture T;
  workload::WorkloadGenerator Gen(T.Files);
  workload::GeneratedProject P =
      Gen.generateProject(workload::ProjectSpec{});
  ASSERT_GE(P.Modules.size(), 5u);

  // The per-module loop: every module re-parses its own interface
  // closure.  Sum its work and keep its images for comparison.
  uint64_t LoopUnits = 0;
  std::map<std::string, std::string> LoopImages;
  for (const std::string &Name : P.Modules) {
    ConcurrentCompiler C(T.Files, T.Interner, T.options());
    CompileResult R = C.compile(Name);
    ASSERT_TRUE(R.Success) << Name << ":\n" << R.DiagnosticText;
    LoopUnits += R.ElapsedUnits;
    LoopImages[Name] = T.render(R.Image);
  }

  // The session: same modules under one executor, each of the project's
  // interfaces lexed and parsed exactly once.
  build::BuildResult S = T.session({P.Root}, T.options());
  ASSERT_TRUE(S.Success) << S.DiagnosticText;
  EXPECT_EQ(S.Modules.size(), P.Modules.size());
  EXPECT_EQ(T.stat(S.BuildStats, "build.interface.streams"),
            static_cast<uint64_t>(P.InterfaceCount));
  EXPECT_EQ(T.stat(S.BuildStats, "build.interface.parses"),
            static_cast<uint64_t>(P.InterfaceCount));

  // Same images, strictly less virtual time than the loop.
  for (const build::ModuleBuild &M : S.Modules)
    EXPECT_EQ(T.render(M.Image), LoopImages.at(M.Name))
        << "image mismatch for " << M.Name;
  EXPECT_LT(S.ElapsedUnits, LoopUnits);

  EXPECT_FALSE(T.runProgram(S, P.Root).empty());
}

TEST(BuildTest, InterfaceEditRecompilesOnlyDependents) {
  BuildFixture T;
  T.addReportProject();

  build::BuildResult Cold = T.session({"Report"}, T.options(true));
  ASSERT_TRUE(Cold.Success) << Cold.DiagnosticText;
  EXPECT_EQ(T.stat(Cold.CacheStats, "cache.module.store"), 3u);

  build::BuildResult Warm = T.session({"Report"}, T.options(true));
  ASSERT_TRUE(Warm.Success) << Warm.DiagnosticText;
  EXPECT_EQ(T.stat(Warm.BuildStats, "build.modules.cached"), 3u);
  EXPECT_EQ(T.delta(Warm, Cold, "cache.module.hit"), 3u);
  for (const build::ModuleBuild &M : Warm.Modules)
    EXPECT_TRUE(M.FromCache) << M.Name;

  // Edit Stats' interface (a new exported constant nobody uses).  Stats
  // and Report have Stats.def in their interface closure; Stacks does
  // not and must replay from the cache untouched.
  T.addStatsDef("CONST Version = 2;\n");
  build::BuildResult Edit = T.session({"Report"}, T.options(true));
  ASSERT_TRUE(Edit.Success) << Edit.DiagnosticText;
  EXPECT_EQ(T.stat(Edit.BuildStats, "build.modules.cached"), 1u);
  EXPECT_EQ(T.stat(Edit.BuildStats, "build.modules.compiled"), 2u);
  EXPECT_EQ(T.delta(Edit, Warm, "cache.module.hit"), 1u);
  EXPECT_EQ(T.delta(Edit, Warm, "cache.module.invalidated"), 2u);
  EXPECT_TRUE(Edit.module("Stacks")->FromCache);
  EXPECT_FALSE(Edit.module("Stats")->FromCache);
  EXPECT_FALSE(Edit.module("Report")->FromCache);

  // The recompiled project still links and behaves identically.
  EXPECT_EQ(T.runProgram(Edit, "Report"), ReportOutput);
}

TEST(BuildTest, BodyEditRelinksWithoutRecompilingSiblings) {
  BuildFixture T;
  T.addReportProject();

  build::BuildResult Cold = T.session({"Report"}, T.options(true));
  ASSERT_TRUE(Cold.Success) << Cold.DiagnosticText;
  // Stream stores: Stacks main + 3 procedures, Stats main + 2, Report
  // main.
  EXPECT_EQ(T.stat(Cold.CacheStats, "cache.stream.store"), 8u);

  // Edit one procedure body in Stacks.  No interface changed, so Stats
  // and Report replay whole-module; within Stacks only Depth's stream
  // misses.
  T.addStacksImpl("n := 0; n := n + 0;");
  build::BuildResult Edit = T.session({"Report"}, T.options(true));
  ASSERT_TRUE(Edit.Success) << Edit.DiagnosticText;
  EXPECT_EQ(T.stat(Edit.BuildStats, "build.modules.cached"), 2u);
  EXPECT_EQ(T.stat(Edit.BuildStats, "build.modules.compiled"), 1u);
  EXPECT_EQ(T.delta(Edit, Cold, "cache.module.hit"), 2u);
  EXPECT_EQ(T.delta(Edit, Cold, "cache.module.invalidated"), 1u);
  EXPECT_EQ(T.delta(Edit, Cold, "cache.stream.hit"), 3u);
  EXPECT_EQ(T.delta(Edit, Cold, "cache.stream.miss"), 1u);
  EXPECT_TRUE(Edit.module("Stats")->FromCache);
  EXPECT_TRUE(Edit.module("Report")->FromCache);
  EXPECT_FALSE(Edit.module("Stacks")->FromCache);
  EXPECT_FALSE(Edit.module("Stacks")->PlanDropped);

  // Cached and recompiled images link together and run unchanged.
  EXPECT_EQ(T.runProgram(Edit, "Report"), ReportOutput);
}

/// The divergence safety net: a plan whose stream sequence no longer
/// matches what the splitter discovers (a corrupt or stale cache) is
/// dropped at runtime with a note, and the compile completes uncached
/// with the exact same output.  Exercised by driving a ModulePipeline
/// directly with a forged plan — the real planner, sharing the real
/// splitter, cannot produce one.
TEST(BuildTest, DivergentCachePlanIsDroppedGracefully) {
  BuildFixture T;
  T.Files.addFile("Calc.mod", "MODULE Calc;\n"
                              "PROCEDURE Double(x: INTEGER): INTEGER;\n"
                              "BEGIN RETURN x * 2 END Double;\n"
                              "PROCEDURE Triple(x: INTEGER): INTEGER;\n"
                              "BEGIN RETURN x * 3 END Triple;\n"
                              "BEGIN\n"
                              "  WriteInt(Double(4) + Triple(6), 0); WriteLn\n"
                              "END Calc.\n");

  CompilerOptions Options = T.options();
  // The hand-rolled pipeline below bypasses the driver (no pass manager
  // is wired in), so pin -O0 to keep the reference comparable even when
  // M2C_OPT_LEVEL raises the ambient default.
  Options.Level = opt::OptLevel::O0;
  ConcurrentCompiler Ref(T.Files, T.Interner, Options);
  CompileResult Reference = Ref.compile("Calc");
  ASSERT_TRUE(Reference.Success) << Reference.DiagnosticText;

  auto RunWithPlan = [&](const cache::CachePlan &Plan) {
    auto Comp = std::make_shared<sema::Compilation>(
        T.Files, T.Interner,
        sema::CompilationOptions{Options.Strategy, Options.Sharing});
    sched::SimulatedExecutor Exec(Options.Processors, Options.Cost);
    build::TaskSpawner Spawner(Exec);
    build::InterfaceSet Defs(*Comp, Spawner);
    build::ModulePipeline Pipe(Options, *Comp, "Calc", Spawner);
    Pipe.setPlan(&Plan);
    EXPECT_TRUE(Pipe.setup());
    Exec.run();

    EXPECT_TRUE(Pipe.planDropped());
    EXPECT_FALSE(Comp->Diags.hasErrors()) << Comp->Diags.render(&T.Files);
    EXPECT_NE(Comp->Diags.render(&T.Files).find("diverged"),
              std::string::npos);
    EXPECT_EQ(T.render(Pipe.finalizeImage()), T.render(Reference.Image));
  };

  // A plan naming a procedure stream that no longer exists.
  cache::CachePlan Renamed;
  Renamed.Valid = true;
  Renamed.Streams.resize(2);
  Renamed.Streams[0].QualifiedName = "Calc";
  Renamed.Streams[1].QualifiedName = "Calc.Quadruple";
  RunWithPlan(Renamed);

  // A plan with fewer streams than the splitter discovers.
  cache::CachePlan Short;
  Short.Valid = true;
  Short.Streams.resize(1);
  Short.Streams[0].QualifiedName = "Calc";
  RunWithPlan(Short);
}

/// The four diagnostic projects of the pinned-output test: a missing
/// root, a missing interface, an interface cycle, and located errors in a
/// .def and a .mod plus the module-name warning.
struct PinnedProject {
  const char *Name;
  std::vector<std::pair<const char *, const char *>> Sources;
  std::vector<std::string> Roots;
  const char *Text;
};

const PinnedProject PinnedProjects[] = {
    {"missing root",
     {},
     {"Nonesuch"},
     "<builtin>:<unknown>: error: cannot find module file 'Nonesuch.mod'\n"},
    {"missing interface",
     {{"Lost.mod", "MODULE Lost;\nIMPORT Ghost;\nVAR n: INTEGER;\n"
                   "BEGIN\n  n := 1\nEND Lost.\n"}},
     {"Lost"},
     "<builtin>:<unknown>: error: cannot find interface file 'Ghost.def'\n"},
    {"interface cycle",
     {{"Ping.def", "DEFINITION MODULE Ping;\nIMPORT Pong;\nEND Ping.\n"},
      {"Pong.def", "DEFINITION MODULE Pong;\nIMPORT Ping;\nEND Pong.\n"},
      {"Loop.mod", "MODULE Loop;\nIMPORT Ping;\nBEGIN\nEND Loop.\n"}},
     {"Loop"},
     "<builtin>:<unknown>: error: import cycle among interfaces: Ping -> "
     "Pong -> Ping\n"},
    {"located errors",
     {{"Shapes.def", "DEFINITION MODULE Shapes;\n"
                     "PROCEDURE Area(s: Square): INTEGER;\nEND Shapes.\n"},
      {"Draw.mod", "MODULE Drawing;\nIMPORT Shapes;\nVAR n: INTEGER;\n"
                   "BEGIN\n  n := missing + 1\nEND Drawing.\n"}},
     {"Draw"},
     "Shapes.def:2:19: error: undeclared type 'Square'\n"
     "Draw.mod:1:1: warning: module name does not match its file name\n"
     "Draw.mod:5:8: error: undeclared identifier 'missing'\n"},
};

// Every way of building a project renders the same pinned diagnostics: a
// standalone session at simulated P=1 and at threaded P=2, and the same
// roots sent as a request to a build service.
TEST(BuildTest, SessionDiagnosticsArePinned) {
  for (const PinnedProject &P : PinnedProjects) {
    auto Fresh = [&P](BuildFixture &T) {
      for (const auto &[File, Text] : P.Sources)
        T.Files.addFile(File, Text);
    };
    auto Check = [&P](const build::BuildResult &R, const char *Path) {
      EXPECT_FALSE(R.Success) << P.Name << " via " << Path;
      EXPECT_EQ(R.DiagnosticText, P.Text) << P.Name << " via " << Path;
    };
    {
      BuildFixture T;
      Fresh(T);
      CompilerOptions Options = T.options();
      Options.Processors = 1;
      Check(T.session(P.Roots, Options), "simulated P=1");
    }
    {
      BuildFixture T;
      Fresh(T);
      CompilerOptions Options = T.options();
      Options.Executor = ExecutorKind::Threaded;
      Options.Processors = 2;
      Check(T.session(P.Roots, Options), "threaded P=2");
    }
    {
      BuildFixture T;
      Fresh(T);
      service::ServiceConfig Config;
      Config.Workers = 2;
      service::BuildService Service(T.Files, T.Interner, Config);
      Check(Service.submit(P.Roots), "service request");
    }
  }
}

// An uncached simulated session's clock and counters, pinned: how the
// session is wired must not move a virtual unit.
TEST(BuildTest, UncachedSessionUnitsArePinned) {
  BuildFixture T;
  T.addReportProject();
  build::BuildResult R = T.session({"Report"}, T.options());
  ASSERT_TRUE(R.Success) << R.DiagnosticText;
  EXPECT_EQ(R.ElapsedUnits, 219046u);
  const std::map<std::string, uint64_t> Expected = {
      {"build.discovery.units", 9149}, {"build.interface.parses", 2},
      {"build.interface.streams", 2},  {"build.modules.cached", 0},
      {"build.modules.compiled", 3},   {"build.modules.total", 3},
      {"build.proc.streams", 5}};
  EXPECT_EQ(R.BuildStats, Expected);
}

} // namespace
