//===--- ServiceTest.cpp - Build service tests -----------------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// The build service's correctness bar is byte-identity: whatever sharing
// the service performs (one executor, one interface generation, tiered
// artifact caches), each request's .mco images must equal what a cold
// standalone BuildSession produces for the same sources — for any worker
// count and any arrival order.
//
//===----------------------------------------------------------------------===//

#include "build/BuildSession.h"
#include "codegen/ObjectFile.h"
#include "service/BuildService.h"
#include "workload/WorkloadGenerator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

using namespace m2c;
using namespace m2c::service;

namespace {

struct ServiceFixture {
  VirtualFileSystem Files;
  StringInterner Interner;

  workload::GeneratedRequestSet makeRequestSet(unsigned Projects = 3,
                                               unsigned Repeats = 2) {
    workload::RequestSetSpec Spec;
    Spec.NumProjects = Projects;
    Spec.RequestsPerProject = Repeats;
    Spec.CommonInterfaces = 3;
    Spec.ModulesPerProject = 3;
    Spec.ProjectInterfaces = 2;
    workload::WorkloadGenerator Gen(Files);
    return Gen.generateRequestSet(Spec);
  }

  ServiceConfig config(unsigned Workers = 4) {
    ServiceConfig Config;
    Config.Workers = Workers;
    return Config;
  }

  /// Cold standalone reference: a fresh BuildSession with no cache and its
  /// own executor — the byte-identity baseline the service must match.
  /// Parameterized by optimization level so identity is asserted per-level.
  std::map<std::string, std::string>
  standaloneImages(const std::vector<std::string> &Roots, unsigned Workers,
                   opt::OptLevel Level = opt::defaultOptLevel()) {
    driver::CompilerOptions Options;
    Options.Executor = driver::ExecutorKind::Threaded;
    Options.Processors = Workers;
    Options.Level = Level;
    build::BuildSession Session(Files, Interner, std::move(Options));
    build::BuildResult R = Session.build(Roots);
    EXPECT_TRUE(R.Success) << R.DiagnosticText;
    std::map<std::string, std::string> Bytes;
    for (const build::ModuleBuild &M : R.Modules)
      Bytes[M.Name] = codegen::writeObjectFile(M.Image, Interner);
    return Bytes;
  }

  void expectMatches(const build::BuildResult &R,
                     const std::map<std::string, std::string> &Reference) {
    ASSERT_TRUE(R.Success) << R.DiagnosticText;
    ASSERT_EQ(R.Modules.size(), Reference.size());
    for (const build::ModuleBuild &M : R.Modules) {
      auto It = Reference.find(M.Name);
      ASSERT_NE(It, Reference.end()) << M.Name;
      EXPECT_EQ(codegen::writeObjectFile(M.Image, Interner), It->second)
          << M.Name << ": service image differs from cold standalone build";
    }
  }

  static uint64_t stat(const std::map<std::string, uint64_t> &Stats,
                       const std::string &Name) {
    auto It = Stats.find(Name);
    return It == Stats.end() ? 0 : It->second;
  }
};

//===--- (a) Byte-identity across worker counts and arrival orders --------===//

TEST(ServiceTest, ImagesMatchStandaloneAcrossWorkerCounts) {
  for (unsigned Workers : {1u, 2u, 4u, 8u}) {
    ServiceFixture F;
    workload::GeneratedRequestSet Set = F.makeRequestSet();
    std::map<std::string, std::map<std::string, std::string>> References;
    for (const workload::GeneratedProject &P : Set.Projects)
      References[P.Root] = F.standaloneImages({P.Root}, Workers);

    BuildService Service(F.Files, F.Interner, F.config(Workers));
    for (const std::vector<std::string> &Roots : Set.Requests) {
      build::BuildResult R = Service.submit(Roots);
      F.expectMatches(R, References.at(Roots.front()));
    }
  }
}

TEST(ServiceTest, ImagesMatchStandaloneUnderConcurrentArrival) {
  ServiceFixture F;
  workload::GeneratedRequestSet Set = F.makeRequestSet(4, 3);
  std::map<std::string, std::map<std::string, std::string>> References;
  for (const workload::GeneratedProject &P : Set.Projects)
    References[P.Root] = F.standaloneImages({P.Root}, 4);

  BuildService Service(F.Files, F.Interner, F.config());
  // Eight clients race over the request list in both directions, so
  // repeats and distinct projects overlap arbitrarily in flight.
  std::vector<std::vector<std::string>> Order = Set.Requests;
  Order.insert(Order.end(), Set.Requests.rbegin(), Set.Requests.rend());
  std::atomic<size_t> Next{0};
  std::atomic<int> Failures{0};
  auto Client = [&] {
    for (;;) {
      size_t I = Next.fetch_add(1);
      if (I >= Order.size())
        return;
      build::BuildResult R = Service.submit(Order[I]);
      if (!R.Success) {
        Failures.fetch_add(1);
        continue;
      }
      const auto &Reference = References.at(Order[I].front());
      if (R.Modules.size() != Reference.size()) {
        Failures.fetch_add(1);
        continue;
      }
      for (const build::ModuleBuild &M : R.Modules) {
        auto It = Reference.find(M.Name);
        if (It == Reference.end() ||
            codegen::writeObjectFile(M.Image, F.Interner) != It->second)
          Failures.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C < 8; ++C)
    Clients.emplace_back(Client);
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Failures.load(), 0);

  std::map<std::string, uint64_t> Stats = Service.statsSnapshot();
  EXPECT_EQ(ServiceFixture::stat(Stats, "service.requests.submitted"),
            Order.size());
  EXPECT_EQ(ServiceFixture::stat(Stats, "service.requests.succeeded"),
            Order.size());
  EXPECT_EQ(ServiceFixture::stat(Stats, "sched.requests.opened"),
            ServiceFixture::stat(Stats, "sched.requests.closed"));
}

TEST(ServiceTest, PerRequestOptLevelMatchesStandalonePerLevel) {
  ServiceFixture F;
  workload::GeneratedRequestSet Set = F.makeRequestSet(1, 1);
  ServiceConfig Config = F.config();
  Config.Level = opt::OptLevel::O0;
  BuildService Service(F.Files, F.Interner, Config);
  const std::vector<std::string> &Roots = Set.Requests.front();
  auto RefO0 = F.standaloneImages(Roots, 4, opt::OptLevel::O0);
  auto RefO2 = F.standaloneImages(Roots, 4, opt::OptLevel::O2);

  // The config default applies when a request names no level; an explicit
  // per-request level overrides it.  Each must match the standalone build
  // at the *same* level, byte for byte.
  F.expectMatches(Service.submit(Roots), RefO0);
  F.expectMatches(Service.submit(Roots, nullptr, opt::OptLevel::O2), RefO2);
  // Levels key disjoint artifact spaces: replays from the memory tier
  // return each level's own bytes, never the other's.
  F.expectMatches(Service.submit(Roots), RefO0);
  F.expectMatches(Service.submit(Roots, nullptr, opt::OptLevel::O2), RefO2);

  // The O2 request ran real passes, and their counters reached the
  // service's merged snapshot.
  EXPECT_GT(ServiceFixture::stat(Service.statsSnapshot(), "opt.units"), 0u);
}

//===--- (b) Interfaces parsed once per service ----------------------------===//

TEST(ServiceTest, SharedInterfacesParsedOncePerService) {
  ServiceFixture F;
  workload::GeneratedRequestSet Set = F.makeRequestSet(3, 3);
  BuildService Service(F.Files, F.Interner, F.config());

  // First round: every project once.
  for (size_t I = 0; I < Set.Projects.size(); ++I)
    ASSERT_TRUE(Service.submit(Set.Requests[I]).Success);
  uint64_t ParsesAfterFirstRound = Service.interfacePool().parseCount();
  // Every distinct interface at most once — never once per request.
  EXPECT_LE(ParsesAfterFirstRound, Set.InterfaceCount);
  EXPECT_GE(ParsesAfterFirstRound, Set.CommonInterfaceNames.size());

  // Repeats re-use the generation: zero additional parses.
  for (const std::vector<std::string> &Roots : Set.Requests)
    ASSERT_TRUE(Service.submit(Roots).Success);
  EXPECT_EQ(Service.interfacePool().parseCount(), ParsesAfterFirstRound);
  EXPECT_EQ(Service.interfacePool().generationCount(), 1u);
}

TEST(ServiceTest, InterfaceEditRotatesGeneration) {
  ServiceFixture F;
  workload::GeneratedRequestSet Set = F.makeRequestSet(2, 1);
  BuildService Service(F.Files, F.Interner, F.config());
  for (const std::vector<std::string> &Roots : Set.Requests)
    ASSERT_TRUE(Service.submit(Roots).Success);
  ASSERT_EQ(Service.interfacePool().generationCount(), 1u);

  // Edit a common interface: same declarations plus one more constant.
  const std::string &Name = Set.CommonInterfaceNames.front();
  const SourceBuffer *Buf =
      F.Files.lookup(VirtualFileSystem::defFileName(Name));
  ASSERT_NE(Buf, nullptr);
  std::string Text = Buf->Text;
  std::string End = "END " + Name + ".";
  Text.replace(Text.find(End), End.size(),
               "CONST CNew = 7;\n" + End);
  F.Files.addFile(VirtualFileSystem::defFileName(Name), Text);

  build::BuildResult R = Service.submit(Set.Requests.front());
  EXPECT_TRUE(R.Success) << R.DiagnosticText;
  EXPECT_EQ(Service.interfacePool().generationCount(), 2u);
  // And the rebuilt images still match a cold standalone build of the
  // edited sources.
  F.expectMatches(R, F.standaloneImages(Set.Requests.front(), 4));
}

// Regression: a module's own .def stream is first touched on the request
// thread (no task context) while its pipeline is wired, and with the
// Skeptical strategy every consumer can resolve its imports before the
// interface finishes lexing/parsing — so a diagnostic late in the .def
// (here an unexpected character after the final END) lands only after all
// the request's compile tasks are done.  The request must still wait for
// the shared stream (tag stamping + pool quiesce), fail, and render the
// same text a standalone session does — on the first and on a repeated
// request, whose slice re-reads the diagnostic from the shared engine.
TEST(ServiceTest, LateInterfaceErrorFailsRequestLikeStandalone) {
  ServiceFixture F;
  F.Files.addFile("Broken.def", "DEFINITION MODULE Broken;\n"
                                "CONST Limit = 8;\n"
                                "PROCEDURE Ok(x: INTEGER): INTEGER;\n"
                                "END Broken.\n"
                                "$\n");
  F.Files.addFile("Broken.mod", "IMPLEMENTATION MODULE Broken;\n"
                                "PROCEDURE Ok(x: INTEGER): INTEGER;\n"
                                "BEGIN RETURN x + Limit END Ok;\n"
                                "END Broken.\n");
  F.Files.addFile("Use.mod", "MODULE Use;\n"
                             "FROM Broken IMPORT Ok;\n"
                             "BEGIN WriteInt(Ok(1), 0); WriteLn\n"
                             "END Use.\n");

  std::string Reference;
  {
    driver::CompilerOptions Options;
    Options.Executor = driver::ExecutorKind::Threaded;
    build::BuildSession Session(F.Files, F.Interner, std::move(Options));
    build::BuildResult R = Session.build({"Use"});
    EXPECT_FALSE(R.Success);
    Reference = R.DiagnosticText;
  }
  ASSERT_NE(Reference.find("Broken.def"), std::string::npos) << Reference;
  ASSERT_NE(Reference.find("unexpected character"), std::string::npos)
      << Reference;

  BuildService Service(F.Files, F.Interner, F.config());
  for (int I = 0; I < 2; ++I) {
    build::BuildResult R = Service.submit({"Use"});
    EXPECT_FALSE(R.Success) << "request " << I;
    EXPECT_EQ(R.DiagnosticText, Reference) << "request " << I;
  }
}

//===--- (c) Memory-tier hits on repeated requests -------------------------===//

TEST(ServiceTest, RepeatRequestsHitTheMemoryTier) {
  ServiceFixture F;
  workload::GeneratedRequestSet Set = F.makeRequestSet(2, 1);
  BuildService Service(F.Files, F.Interner, F.config());

  for (const std::vector<std::string> &Roots : Set.Requests)
    ASSERT_TRUE(Service.submit(Roots).Success);
  std::map<std::string, uint64_t> Cold = Service.statsSnapshot();

  // The repeats replay entirely from the in-memory tier.
  for (const std::vector<std::string> &Roots : Set.Requests) {
    build::BuildResult R = Service.submit(Roots);
    ASSERT_TRUE(R.Success) << R.DiagnosticText;
    for (const build::ModuleBuild &M : R.Modules)
      EXPECT_TRUE(M.FromCache) << M.Name;
  }
  std::map<std::string, uint64_t> Warm = Service.statsSnapshot();
  EXPECT_GT(ServiceFixture::stat(Warm, "cache.mem.hit"),
            ServiceFixture::stat(Cold, "cache.mem.hit"));
  EXPECT_EQ(ServiceFixture::stat(Warm, "cache.mem.miss"),
            ServiceFixture::stat(Cold, "cache.mem.miss"));
}

//===--- (d) Fair-share admission ------------------------------------------===//

TEST(ServiceTest, SmallRequestsCompleteWhileLargeRequestInFlight) {
  using Clock = std::chrono::steady_clock;
  ServiceFixture F;
  workload::WorkloadGenerator Gen(F.Files);

  workload::ProjectSpec Big;
  Big.Name = "Big";
  Big.NumModules = 10;
  Big.ProcsPerModule = 14;
  Big.MeanProcStmts = 24;
  Big.SharedInterfaces = 4;
  Big.Seed = 31;
  workload::GeneratedProject BigProj = Gen.generateProject(Big);

  std::vector<workload::GeneratedProject> Smalls;
  for (unsigned I = 0; I < 3; ++I) {
    workload::ProjectSpec Small;
    Small.Name = "Small" + std::to_string(I);
    Small.NumModules = 1;
    Small.ProcsPerModule = 2;
    Small.MeanProcStmts = 4;
    Small.SharedInterfaces = 1;
    Small.InterfaceDecls = 4;
    Small.Seed = 97 + I;
    Smalls.push_back(Gen.generateProject(Small));
  }

  BuildService Service(F.Files, F.Interner, F.config(4));
  Clock::time_point BigDone;
  std::thread BigClient([&] {
    build::BuildResult R = Service.submit({BigProj.Root});
    BigDone = Clock::now();
    EXPECT_TRUE(R.Success) << R.DiagnosticText;
  });
  // Give the large request a head start so its tasks saturate the
  // executor before the small ones arrive.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  std::vector<Clock::time_point> SmallDone(Smalls.size());
  std::vector<std::thread> SmallClients;
  for (size_t I = 0; I < Smalls.size(); ++I)
    SmallClients.emplace_back([&, I] {
      build::BuildResult R = Service.submit({Smalls[I].Root});
      SmallDone[I] = Clock::now();
      EXPECT_TRUE(R.Success) << R.DiagnosticText;
    });
  for (std::thread &T : SmallClients)
    T.join();
  BigClient.join();

  // Fair-share admission: the small requests must not be starved behind
  // the large one's task backlog.
  for (Clock::time_point T : SmallDone)
    EXPECT_LT(T.time_since_epoch().count(), BigDone.time_since_epoch().count())
        << "small request finished after the large one";

  std::map<std::string, uint64_t> Stats = Service.statsSnapshot();
  EXPECT_EQ(ServiceFixture::stat(Stats, "sched.requests.opened"), 4u);
  EXPECT_EQ(ServiceFixture::stat(Stats, "sched.requests.closed"), 4u);
}

//===--- Stats merge -------------------------------------------------------===//

TEST(ServiceTest, StatsSnapshotMergesExecutorCacheAndServiceCounters) {
  ServiceFixture F;
  workload::GeneratedRequestSet Set = F.makeRequestSet(2, 2);
  BuildService Service(F.Files, F.Interner, F.config());
  for (const std::vector<std::string> &Roots : Set.Requests)
    ASSERT_TRUE(Service.submit(Roots).Success);

  std::map<std::string, uint64_t> Stats = Service.statsSnapshot();
  // One counter from every merged source.
  EXPECT_GT(ServiceFixture::stat(Stats, "sched.tasks.started"), 0u);
  EXPECT_GT(ServiceFixture::stat(Stats, "cache.mem.store"), 0u);
  EXPECT_GT(ServiceFixture::stat(Stats, "cache.module.store"), 0u);
  EXPECT_EQ(ServiceFixture::stat(Stats, "service.requests.submitted"),
            Set.Requests.size());
  EXPECT_EQ(ServiceFixture::stat(Stats, "service.generations"), 1u);
  EXPECT_GT(ServiceFixture::stat(Stats, "service.interface.parses"), 0u);
}

} // namespace
