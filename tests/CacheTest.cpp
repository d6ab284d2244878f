//===--- CacheTest.cpp - Stream compilation cache tests --------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "cache/CachePlanner.h"
#include "cache/CompilationCache.h"
#include "codegen/ObjectFile.h"
#include "driver/ConcurrentCompiler.h"
#include "driver/SequentialCompiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

using namespace m2c;
using namespace m2c::driver;

namespace {

/// Fixture: in-memory files, an interner, and a fresh memory-backed cache.
struct CacheFixture {
  VirtualFileSystem Files;
  StringInterner Interner;
  cache::CompilationCache Cache{std::make_unique<cache::MemoryCacheStore>()};

  CompilerOptions options() {
    CompilerOptions Options;
    Options.Executor = ExecutorKind::Simulated;
    Options.Processors = 4;
    Options.Cache = &Cache;
    return Options;
  }

  CompileResult compile(CompilerOptions Options) {
    ConcurrentCompiler C(Files, Interner, Options);
    return C.compile("Calc");
  }

  CompileResult compileCached() { return compile(options()); }

  CompileResult compileUncached() {
    CompilerOptions Options = options();
    Options.Cache = nullptr;
    return compile(Options);
  }

  uint64_t stat(const CompileResult &R, const std::string &Name) {
    auto It = R.CacheStats.find(Name);
    return It == R.CacheStats.end() ? 0 : It->second;
  }

  std::string render(const CompileResult &R) {
    return codegen::writeObjectFile(R.Image, Interner);
  }

  /// A module with three procedures: four plan streams (main + 3).
  void addCalc(const std::string &SumBody = "RETURN Double(a) + Triple(b)") {
    Files.addFile("Calc.mod", "MODULE Calc;\n"
                              "VAR total: INTEGER;\n"
                              "PROCEDURE Double(x: INTEGER): INTEGER;\n"
                              "BEGIN RETURN x * 2 END Double;\n"
                              "PROCEDURE Triple(x: INTEGER): INTEGER;\n"
                              "BEGIN RETURN x * 3 END Triple;\n"
                              "PROCEDURE Sum(a, b: INTEGER): INTEGER;\n"
                              "BEGIN " +
                                  SumBody +
                                  " END Sum;\n"
                                  "BEGIN\n"
                                  "  total := Sum(2, 3);\n"
                                  "  WriteInt(total, 0); WriteLn\n"
                                  "END Calc.\n");
  }
};

TEST(CacheTest, HitOnIdenticalRecompile) {
  CacheFixture T;
  T.addCalc();

  CompileResult Cold = T.compileCached();
  ASSERT_TRUE(Cold.Success) << Cold.DiagnosticText;
  EXPECT_EQ(T.stat(Cold, "cache.module.miss"), 1u);
  EXPECT_EQ(T.stat(Cold, "cache.stream.miss"), 4u);  // main + 3 procedures
  EXPECT_EQ(T.stat(Cold, "cache.stream.store"), 4u);
  EXPECT_EQ(T.stat(Cold, "cache.module.store"), 1u);

  CompileResult Warm = T.compileCached();
  ASSERT_TRUE(Warm.Success) << Warm.DiagnosticText;
  EXPECT_EQ(T.stat(Warm, "cache.module.hit"), 1u);
  EXPECT_EQ(Warm.StreamCount, Cold.StreamCount);
  EXPECT_EQ(T.render(Warm), T.render(Cold));
  // The whole-module replay is far cheaper than compiling.
  EXPECT_LT(Warm.ElapsedUnits, Cold.ElapsedUnits / 2);
}

TEST(CacheTest, OnlyEditedStreamMissesAfterBodyEdit) {
  CacheFixture T;
  T.addCalc();
  CompileResult Cold = T.compileCached();
  ASSERT_TRUE(Cold.Success) << Cold.DiagnosticText;

  // Edit one procedure body; the other streams' keys are untouched.
  T.addCalc("RETURN Double(a) + Triple(b) + 1");
  CompileResult Warm = T.compileCached();
  ASSERT_TRUE(Warm.Success) << Warm.DiagnosticText;
  EXPECT_EQ(T.stat(Warm, "cache.module.invalidated"), 1u);
  EXPECT_EQ(T.stat(Warm, "cache.stream.hit"), 3u);   // main, Double, Triple
  EXPECT_EQ(T.stat(Warm, "cache.stream.miss"), 5u);  // cold 4 + edited Sum
  EXPECT_EQ(T.stat(Warm, "cache.stream.store"), 5u);

  // The warm image equals a from-scratch compile of the edited source.
  CompileResult Fresh = T.compileUncached();
  ASSERT_TRUE(Fresh.Success) << Fresh.DiagnosticText;
  EXPECT_EQ(T.render(Warm), T.render(Fresh));
}

TEST(CacheTest, HeadingEditInvalidatesOnlyStreamsThatSeeIt) {
  CacheFixture T;
  auto AddNested = [&T](const std::string &InnerParam) {
    T.Files.addFile("Calc.mod",
                    "MODULE Calc;\n"
                    "PROCEDURE Double(x: INTEGER): INTEGER;\n"
                    "BEGIN RETURN x * 2 END Double;\n"
                    "PROCEDURE Triple(x: INTEGER): INTEGER;\n"
                    "BEGIN RETURN x * 3 END Triple;\n"
                    "PROCEDURE Sum(a, b: INTEGER): INTEGER;\n"
                    "  PROCEDURE Inner(" +
                        InnerParam +
                        ": INTEGER): INTEGER;\n"
                        "  BEGIN RETURN " +
                        InnerParam +
                        " + 1 END Inner;\n"
                        "BEGIN RETURN Inner(Double(a) + Triple(b)) END Sum;\n"
                        "BEGIN\n"
                        "  WriteInt(Sum(2, 3), 0); WriteLn\n"
                        "END Calc.\n");
  };
  AddNested("x");
  CompileResult Cold = T.compileCached();
  ASSERT_TRUE(Cold.Success) << Cold.DiagnosticText;
  EXPECT_EQ(T.stat(Cold, "cache.stream.store"), 5u);  // main + 4 procedures

  // A heading edit is a declaration change visible to exactly the streams
  // whose scope chain contains it.  Renaming Inner's parameter changes
  // Sum's declarations (and Inner itself), but Inner's heading never
  // appears in the main stream — so main, Double and Triple all keep
  // their keys and hit.
  AddNested("y");
  CompileResult Warm = T.compileCached();
  ASSERT_TRUE(Warm.Success) << Warm.DiagnosticText;
  EXPECT_EQ(T.stat(Warm, "cache.stream.hit"), 3u);  // main, Double, Triple
  EXPECT_EQ(T.stat(Warm, "cache.stream.miss"),
            T.stat(Cold, "cache.stream.miss") + 2u);  // Sum and Inner

  CompileResult Fresh = T.compileUncached();
  ASSERT_TRUE(Fresh.Success) << Fresh.DiagnosticText;
  EXPECT_EQ(T.render(Warm), T.render(Fresh));
}

TEST(CacheTest, TopLevelHeadingEditInvalidatesSiblings) {
  CacheFixture T;
  T.addCalc();
  CompileResult Cold = T.compileCached();
  ASSERT_TRUE(Cold.Success) << Cold.DiagnosticText;

  // A *top-level* heading lives in the main stream's declarations, which
  // every procedure's key folds in (any sibling may call Sum), so
  // changing it conservatively invalidates the whole module scope.
  std::string Mod = T.Files.lookup("Calc.mod")->Text;
  size_t At = Mod.find("PROCEDURE Sum(a, b: INTEGER): INTEGER;");
  ASSERT_NE(At, std::string::npos);
  Mod.replace(At, std::string("PROCEDURE Sum(a, b: INTEGER): INTEGER;").size(),
              "PROCEDURE Sum(b, a: INTEGER): INTEGER;");
  T.Files.addFile("Calc.mod", Mod);

  CompileResult Warm = T.compileCached();
  ASSERT_TRUE(Warm.Success) << Warm.DiagnosticText;
  EXPECT_EQ(T.stat(Warm, "cache.stream.hit"), 0u);
  EXPECT_EQ(T.stat(Warm, "cache.stream.miss"),
            T.stat(Cold, "cache.stream.miss") + 4u);
}

TEST(CacheTest, EditingImportedInterfaceInvalidatesEveryStream) {
  CacheFixture T;
  T.Files.addFile("Scale.def", "DEFINITION MODULE Scale;\n"
                               "CONST Factor = 10;\n"
                               "END Scale.\n");
  T.Files.addFile("Calc.mod", "MODULE Calc;\n"
                              "FROM Scale IMPORT Factor;\n"
                              "PROCEDURE Apply(x: INTEGER): INTEGER;\n"
                              "BEGIN RETURN x * Factor END Apply;\n"
                              "BEGIN\n"
                              "  WriteInt(Apply(4), 0); WriteLn\n"
                              "END Calc.\n");
  CompileResult Cold = T.compileCached();
  ASSERT_TRUE(Cold.Success) << Cold.DiagnosticText;
  EXPECT_EQ(T.stat(Cold, "cache.stream.store"), 2u);  // main + Apply

  // Every stream's key folds in the interface-closure hash, so a .def
  // edit invalidates all of them even though no .mod text changed.
  T.Files.addFile("Scale.def", "DEFINITION MODULE Scale;\n"
                               "CONST Factor = 12;\n"
                               "END Scale.\n");
  CompileResult Warm = T.compileCached();
  ASSERT_TRUE(Warm.Success) << Warm.DiagnosticText;
  EXPECT_EQ(T.stat(Warm, "cache.module.invalidated"), 1u);
  EXPECT_EQ(T.stat(Warm, "cache.stream.hit"), 0u);
  EXPECT_EQ(T.stat(Warm, "cache.stream.miss"), 4u);  // 2 cold + 2 warm

  CompileResult Fresh = T.compileUncached();
  ASSERT_TRUE(Fresh.Success) << Fresh.DiagnosticText;
  EXPECT_EQ(T.render(Warm), T.render(Fresh));
}

TEST(CacheTest, SeparateEntriesPerStrategyAndOptLevel) {
  CacheFixture T;
  T.addCalc();

  // Pin every config's level explicitly: the ambient default follows
  // M2C_OPT_LEVEL, and this test needs three provably-disjoint keys.
  CompilerOptions Skeptical = T.options();
  Skeptical.Level = opt::OptLevel::O0;
  CompilerOptions Optimistic = T.options();
  Optimistic.Strategy = symtab::DkyStrategy::Optimistic;
  Optimistic.Level = opt::OptLevel::O0;
  CompilerOptions Optimized = T.options();
  Optimized.Level = opt::OptLevel::O2;

  ASSERT_TRUE(T.compile(Skeptical).Success);
  ASSERT_TRUE(T.compile(Optimistic).Success);
  CompileResult R = T.compile(Optimized);
  ASSERT_TRUE(R.Success);
  // Three configurations, three disjoint key spaces: no hits yet, one
  // stored module (and stream set) per configuration.
  EXPECT_EQ(T.stat(R, "cache.module.hit"), 0u);
  EXPECT_EQ(T.stat(R, "cache.module.miss"), 3u);
  EXPECT_EQ(T.stat(R, "cache.module.store"), 3u);
  EXPECT_EQ(T.stat(R, "cache.stream.store"), 12u);

  // Each configuration hits its own entry on recompile.
  EXPECT_EQ(T.stat(T.compile(Skeptical), "cache.module.hit"), 1u);
  EXPECT_EQ(T.stat(T.compile(Optimistic), "cache.module.hit"), 2u);
  EXPECT_EQ(T.stat(T.compile(Optimized), "cache.module.hit"), 3u);
}

TEST(CacheTest, ByteIdenticalOutputCacheOnVsOffAllStrategies) {
  for (symtab::DkyStrategy Strategy :
       {symtab::DkyStrategy::Avoidance, symtab::DkyStrategy::Pessimistic,
        symtab::DkyStrategy::Skeptical, symtab::DkyStrategy::Optimistic}) {
    CacheFixture T;
    T.addCalc();
    CompilerOptions Options = T.options();
    Options.Strategy = Strategy;

    CompilerOptions NoCache = Options;
    NoCache.Cache = nullptr;
    std::string Reference = T.render(T.compile(NoCache));

    EXPECT_EQ(T.render(T.compile(Options)), Reference)
        << "cold cached compile diverged, strategy "
        << static_cast<int>(Strategy);
    EXPECT_EQ(T.render(T.compile(Options)), Reference)
        << "warm cached compile diverged, strategy "
        << static_cast<int>(Strategy);

    // Partially warm: edit a body, recompile, un-edit, recompile.
    T.addCalc("RETURN Triple(b) + Double(a)");
    ASSERT_TRUE(T.compile(Options).Success);
    T.addCalc();
    EXPECT_EQ(T.render(T.compile(Options)), Reference)
        << "mixed hit/miss compile diverged, strategy "
        << static_cast<int>(Strategy);
  }
}

TEST(CacheTest, CompilesWithDiagnosticsAreNotCached) {
  CacheFixture T;
  // Compiles but warns: the module name differs from the file name.
  T.Files.addFile("Calc.mod", "MODULE Calx;\n"
                              "BEGIN WriteLn\n"
                              "END Calx.\n");
  CompileResult First = T.compileCached();
  ASSERT_TRUE(First.Success);
  EXPECT_NE(First.DiagnosticText, "");
  EXPECT_EQ(T.stat(First, "cache.module.store"), 0u);
  EXPECT_EQ(T.stat(First, "cache.stream.store"), 0u);

  // Replaying the entry would lose the warning; it must recompile.
  CompileResult Second = T.compileCached();
  ASSERT_TRUE(Second.Success);
  EXPECT_NE(Second.DiagnosticText, "");
  EXPECT_EQ(T.stat(Second, "cache.module.hit"), 0u);
  EXPECT_EQ(T.stat(Second, "cache.stream.hit"), 0u);
}

TEST(CacheTest, SequentialDriverUsesModuleEntries) {
  CacheFixture T;
  T.addCalc();
  CompilerOptions Options = T.options();

  SequentialCompiler Cold(T.Files, T.Interner, Options);
  CompileResult R1 = Cold.compile("Calc");
  ASSERT_TRUE(R1.Success) << R1.DiagnosticText;
  EXPECT_EQ(T.stat(R1, "cache.module.miss"), 1u);
  EXPECT_EQ(T.stat(R1, "cache.module.store"), 1u);

  SequentialCompiler Warm(T.Files, T.Interner, Options);
  CompileResult R2 = Warm.compile("Calc");
  ASSERT_TRUE(R2.Success) << R2.DiagnosticText;
  EXPECT_EQ(T.stat(R2, "cache.module.hit"), 1u);
  EXPECT_EQ(T.render(R2), T.render(R1));
  EXPECT_LT(R2.ElapsedUnits, R1.ElapsedUnits / 2);

  // The sequential and concurrent drivers keep disjoint entries (their
  // images differ in scheduling metadata): no cross-driver hit.
  CompileResult R3 = T.compileCached();
  ASSERT_TRUE(R3.Success) << R3.DiagnosticText;
  EXPECT_EQ(T.stat(R3, "cache.module.hit"), 1u);
  EXPECT_EQ(T.stat(R3, "cache.module.miss"), 2u);
}

TEST(CacheTest, DiskStorePersistsAcrossCacheInstances) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "m2c-cache-test";
  std::filesystem::remove_all(Dir);

  VirtualFileSystem Files;
  StringInterner Interner;
  auto Mod = [&Files]() {
    Files.addFile("Calc.mod", "MODULE Calc;\n"
                              "PROCEDURE Id(x: INTEGER): INTEGER;\n"
                              "BEGIN RETURN x END Id;\n"
                              "BEGIN WriteInt(Id(7), 0); WriteLn\n"
                              "END Calc.\n");
  };
  Mod();

  std::string ColdText;
  {
    cache::CompilationCache Cache(
        std::make_unique<cache::DiskCacheStore>(Dir.string()));
    CompilerOptions Options;
    Options.Cache = &Cache;
    ConcurrentCompiler C(Files, Interner, Options);
    CompileResult R = C.compile("Calc");
    ASSERT_TRUE(R.Success) << R.DiagnosticText;
    ColdText = codegen::writeObjectFile(R.Image, Interner);
    EXPECT_GT(Cache.store().size(), 0u);
  }
  {
    // A new cache over the same directory — a fresh process, in effect.
    cache::CompilationCache Cache(
        std::make_unique<cache::DiskCacheStore>(Dir.string()));
    CompilerOptions Options;
    Options.Cache = &Cache;
    ConcurrentCompiler C(Files, Interner, Options);
    CompileResult R = C.compile("Calc");
    ASSERT_TRUE(R.Success) << R.DiagnosticText;
    auto It = R.CacheStats.find("cache.module.hit");
    ASSERT_NE(It, R.CacheStats.end());
    EXPECT_EQ(It->second, 1u);
    EXPECT_EQ(codegen::writeObjectFile(R.Image, Interner), ColdText);
  }
  std::filesystem::remove_all(Dir);
}

TEST(CacheTest, DiskStoreSurvivesConcurrentReadersAndWriters) {
  // The disk store is shared by every session of a build service (and by
  // concurrent m2c_cli processes over one -cache DIR): entries are
  // written via a private temp file and atomically renamed into place,
  // so a concurrent reader sees either a complete entry or none at all —
  // never a torn prefix.
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "m2c-cache-hammer";
  std::filesystem::remove_all(Dir);
  cache::DiskCacheStore Store(Dir.string());

  constexpr unsigned Keys = 8;
  auto CanonicalValue = [](unsigned K) {
    // Large enough that a non-atomic write would be observably torn.
    std::string Value;
    std::string Piece = "entry-" + std::to_string(K) + ";";
    while (Value.size() < 64 * 1024)
      Value += Piece;
    return Value;
  };
  std::vector<std::string> Values;
  for (unsigned K = 0; K < Keys; ++K)
    Values.push_back(CanonicalValue(K));

  std::atomic<int> Torn{0};
  auto Hammer = [&](unsigned Id) {
    std::mt19937 R(Id * 7919 + 1);
    for (unsigned I = 0; I < 200; ++I) {
      unsigned K = R() % Keys;
      if (R() % 2) {
        Store.save("hammer" + std::to_string(K), Values[K]);
      } else if (std::optional<std::string> Got =
                     Store.load("hammer" + std::to_string(K))) {
        if (*Got != Values[K])
          Torn.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 8; ++T)
    Threads.emplace_back(Hammer, T);
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Torn.load(), 0);

  // After the dust settles every key reads back its canonical value and
  // no temp files linger as store entries.
  for (unsigned K = 0; K < Keys; ++K) {
    std::optional<std::string> Got = Store.load("hammer" + std::to_string(K));
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(*Got, Values[K]);
  }
  EXPECT_EQ(Store.size(), Keys);
  std::filesystem::remove_all(Dir);
}

TEST(CacheTest, DiskStoreSurvivesCrossProcessContention) {
  // The farm's workers are separate *processes* sharing one -cache DIR,
  // so the temp+rename discipline must hold across address spaces, not
  // just across threads: two processes racing a save() of the same key
  // must leave a complete entry from one of them, never a torn hybrid.
  // Forked children (no threads, _exit on the way out) keep this
  // TSan-compatible.
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "m2c-cache-xproc";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);

  constexpr unsigned Keys = 4;
  auto CanonicalValue = [](unsigned K) {
    std::string Value;
    std::string Piece = "xproc-" + std::to_string(K) + ";";
    while (Value.size() < 64 * 1024)
      Value += Piece;
    return Value;
  };

  auto ChildMain = [&](unsigned Id) {
    // Own store instance over the shared directory — exactly what a
    // second m2cd worker process has.  No gtest in the child: report
    // through the exit code (0 = clean, 1 = torn read observed).
    cache::DiskCacheStore ChildStore(Dir.string());
    std::mt19937 R(Id * 6151 + 3);
    for (unsigned I = 0; I < 120; ++I) {
      unsigned K = R() % Keys;
      std::string Key = "xproc" + std::to_string(K);
      if (R() % 2) {
        ChildStore.save(Key, CanonicalValue(K));
      } else if (std::optional<std::string> Got = ChildStore.load(Key)) {
        if (*Got != CanonicalValue(K))
          ::_exit(1);
      }
    }
    ::_exit(0);
  };

  std::vector<pid_t> Children;
  for (unsigned C = 0; C < 2; ++C) {
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0)
      ChildMain(C);
    Children.push_back(Pid);
  }

  // The parent is a third contender over the same directory.
  cache::DiskCacheStore Store(Dir.string());
  std::mt19937 R(991);
  for (unsigned I = 0; I < 120; ++I) {
    unsigned K = R() % Keys;
    std::string Key = "xproc" + std::to_string(K);
    if (R() % 2) {
      Store.save(Key, CanonicalValue(K));
    } else if (std::optional<std::string> Got = Store.load(Key)) {
      EXPECT_EQ(*Got, CanonicalValue(K)) << "torn cross-process read";
    }
  }

  for (pid_t Pid : Children) {
    int WStatus = 0;
    ASSERT_EQ(::waitpid(Pid, &WStatus, 0), Pid);
    ASSERT_TRUE(WIFEXITED(WStatus));
    EXPECT_EQ(WEXITSTATUS(WStatus), 0) << "child observed a torn read";
  }

  // Post-mortem: every key reads back canonical, and a healing sweep
  // finds nothing to heal — the race left no corrupt entry behind.
  for (unsigned K = 0; K < Keys; ++K) {
    std::optional<std::string> Got = Store.load("xproc" + std::to_string(K));
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(*Got, CanonicalValue(K));
  }
  cache::DiskCacheStore::VerifyReport Report = Store.verifyAll(true);
  EXPECT_EQ(Report.Corrupt, 0u);
  EXPECT_EQ(Report.Healed, 0u);
  EXPECT_EQ(Report.Checked, Keys);
  std::filesystem::remove_all(Dir);
}

//===--- Recovery sweep and entry verification -----------------------------===//

TEST(CacheTest, RecoverySweepDeletesOnlyDeadWritersTemps) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "m2c-cache-sweep";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  auto Put = [&](const std::string &Name) {
    std::ofstream Out(Dir / Name, std::ios::binary);
    Out << "half-written";
  };
  // A temp whose writer pid can't exist (kernel pid_max is at most 2^22):
  // debris from a crash mid-write.
  Put(".tmp4194303.0.deadkey");
  // A temp of THIS live process: an in-flight write, must be left alone.
  Put(".tmp" + std::to_string(::getpid()) + ".7.livekey");
  // Not the temp pattern at all: never touched.
  Put(".tmpnotapid");
  Put("unrelated.txt");

  cache::DiskCacheStore Store(Dir.string());
  EXPECT_FALSE(std::filesystem::exists(Dir / ".tmp4194303.0.deadkey"));
  EXPECT_TRUE(std::filesystem::exists(
      Dir / (".tmp" + std::to_string(::getpid()) + ".7.livekey")));
  EXPECT_TRUE(std::filesystem::exists(Dir / ".tmpnotapid"));
  EXPECT_TRUE(std::filesystem::exists(Dir / "unrelated.txt"));
  EXPECT_EQ(Store.stats().snapshot().at("cache.disk.orphans"), 1u);
  std::filesystem::remove_all(Dir);
}

TEST(CacheTest, BitFlippedEntryIsDetectedAndHealedOnLoad) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "m2c-cache-bitflip";
  std::filesystem::remove_all(Dir);
  cache::DiskCacheStore Store(Dir.string());
  Store.save("key", "a perfectly good payload");
  ASSERT_TRUE(Store.load("key").has_value());

  // Flip one payload bit on disk, as a failing sector would.
  std::filesystem::path Path = Dir / "key.mcc";
  std::string Raw;
  {
    std::ifstream In(Path, std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    Raw = SS.str();
  }
  Raw.back() ^= 0x01;
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << Raw;
  }

  // The verified read refuses the entry, deletes it and misses — the
  // caller recompiles and the store self-heals.
  EXPECT_FALSE(Store.load("key").has_value());
  EXPECT_FALSE(std::filesystem::exists(Path));
  EXPECT_EQ(Store.stats().snapshot().at("cache.disk.corrupt"), 1u);
  Store.save("key", "a perfectly good payload");
  ASSERT_TRUE(Store.load("key").has_value());
  EXPECT_EQ(*Store.load("key"), "a perfectly good payload");
  std::filesystem::remove_all(Dir);
}

// A flipped bit in an entry's magic is damage like any other: the load
// misses, counts the entry corrupt and removes it, and verifyAll reports
// such an entry as corrupt.
TEST(CacheTest, FlippedMagicByteIsCorrupt) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "m2c-cache-magic";
  std::filesystem::remove_all(Dir);
  cache::DiskCacheStore Store(Dir.string());
  std::filesystem::path Path = Dir / "key.mcc";
  auto SaveDamaged = [&] {
    Store.save("key", "a perfectly good payload");
    std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
    char First = 0;
    F.get(First);
    F.seekp(0);
    F.put(static_cast<char>(First ^ 0x40));
  };

  SaveDamaged();
  EXPECT_FALSE(Store.load("key").has_value());
  EXPECT_EQ(Store.stats().snapshot().at("cache.disk.corrupt"), 1u);
  EXPECT_FALSE(std::filesystem::exists(Path));

  SaveDamaged();
  cache::DiskCacheStore::VerifyReport Report = Store.verifyAll(false);
  EXPECT_EQ(Report.Checked, 1u);
  EXPECT_EQ(Report.Corrupt, 1u);
  std::filesystem::remove_all(Dir);
}

TEST(CacheTest, VerifyAllReportsThenHeals) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "m2c-cache-verify";
  std::filesystem::remove_all(Dir);
  cache::DiskCacheStore Store(Dir.string());
  Store.save("good0", "payload zero");
  Store.save("victim", "payload one");
  Store.save("good2", "payload two");
  {
    std::fstream F(Dir / "victim.mcc",
                   std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(-1, std::ios::end);
    F.put('!');
  }

  // Report-only: the corrupt entry is found but kept.
  cache::DiskCacheStore::VerifyReport Dry = Store.verifyAll(false);
  EXPECT_EQ(Dry.Checked, 3u);
  EXPECT_EQ(Dry.Corrupt, 1u);
  EXPECT_EQ(Dry.Healed, 0u);
  EXPECT_TRUE(std::filesystem::exists(Dir / "victim.mcc"));

  // Healing pass deletes it; a second pass comes back clean.
  cache::DiskCacheStore::VerifyReport Heal = Store.verifyAll(true);
  EXPECT_EQ(Heal.Corrupt, 1u);
  EXPECT_EQ(Heal.Healed, 1u);
  EXPECT_FALSE(std::filesystem::exists(Dir / "victim.mcc"));
  cache::DiskCacheStore::VerifyReport Clean = Store.verifyAll(true);
  EXPECT_EQ(Clean.Checked, 2u);
  EXPECT_EQ(Clean.Corrupt, 0u);
  std::filesystem::remove_all(Dir);
}

TEST(CacheTest, VerifySweepConcurrentWithWritersStaysConsistent) {
  // verifyAll is advertised as safe against live writers: temp+rename means
  // it only ever sees complete entries, so a healing sweep racing a writer
  // can never eat a good entry or report a torn one.
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "m2c-cache-sweeprace";
  std::filesystem::remove_all(Dir);
  cache::DiskCacheStore Store(Dir.string());

  constexpr unsigned Keys = 4;
  auto Value = [](unsigned K) {
    return std::string(4096, static_cast<char>('a' + K));
  };
  std::atomic<int> Torn{0};
  std::atomic<bool> Done{false};
  auto Writer = [&](unsigned Id) {
    std::mt19937 R(Id * 131 + 7);
    for (unsigned I = 0; I < 200; ++I) {
      unsigned K = R() % Keys;
      if (R() % 2)
        Store.save("race" + std::to_string(K), Value(K));
      else if (auto Got = Store.load("race" + std::to_string(K)))
        if (*Got != Value(K))
          Torn.fetch_add(1);
    }
  };
  std::thread Sweeper([&] {
    size_t CorruptSeen = 0;
    while (!Done.load())
      CorruptSeen += Store.verifyAll(true).Corrupt;
    EXPECT_EQ(CorruptSeen, 0u);
  });
  std::vector<std::thread> Writers;
  for (unsigned T = 0; T < 4; ++T)
    Writers.emplace_back(Writer, T);
  for (std::thread &T : Writers)
    T.join();
  Done.store(true);
  Sweeper.join();

  EXPECT_EQ(Torn.load(), 0);
  cache::DiskCacheStore::VerifyReport Final = Store.verifyAll(true);
  EXPECT_EQ(Final.Corrupt, 0u);
  EXPECT_EQ(Final.Checked, Keys);
  std::filesystem::remove_all(Dir);
}

} // namespace
