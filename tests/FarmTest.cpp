//===--- FarmTest.cpp - Multi-process build farm tests ---------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// The farm's correctness bar extends the daemon's across process
// boundaries: a BUILD routed through the coordinator to a worker m2cd
// process must return artifacts byte-identical to a cold standalone
// BuildSession over the same sources; affinity routing must be
// deterministic; a SIGKILLed worker must never surface as a client
// failure (failover now, respawn shortly); and overload/drain answer
// with the same statuses a single daemon would.
//
// All tests spawn REAL worker processes (the m2cd binary, resolved
// test-binary-relative or via M2C_M2CD) against a real on-disk
// workspace, because that is the configuration the farm exists for.
//
//===----------------------------------------------------------------------===//

#include "build/BuildSession.h"
#include "codegen/ObjectFile.h"
#include "farm/Farm.h"
#include "net/Protocol.h"
#include "net/RemoteClient.h"
#include "workload/WorkloadGenerator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include <unistd.h>

using namespace m2c;

namespace {

struct FarmFixture {
  VirtualFileSystem Files;
  StringInterner Interner;
  std::filesystem::path Dir;
  workload::GeneratedRequestSet Set;

  FarmFixture(unsigned Projects = 2) {
    static std::atomic<unsigned> Counter{0};
    Dir = std::filesystem::temp_directory_path() /
          ("m2cfarm-test-" + std::to_string(::getpid()) + "-" +
           std::to_string(Counter.fetch_add(1)));
    std::filesystem::create_directories(Dir / "ws");
    std::filesystem::create_directories(Dir / "cache");

    workload::RequestSetSpec Spec;
    Spec.Name = "FT";
    Spec.NumProjects = Projects;
    Spec.RequestsPerProject = 1;
    Spec.CommonInterfaces = 2;
    Spec.ModulesPerProject = 2;
    Spec.ProjectInterfaces = 1;
    Spec.ProcsPerModule = 2;
    Spec.MeanProcStmts = 3;
    workload::WorkloadGenerator Gen(Files);
    Set = Gen.generateRequestSet(Spec);

    // Workers are separate processes: materialize the generated sources
    // as a real workspace directory they can read.
    for (const std::string &Name : Files.names()) {
      std::ofstream Out(Dir / "ws" / Name, std::ios::binary);
      Out << Files.lookup(Name)->Text;
    }
  }

  ~FarmFixture() {
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }

  farm::FarmConfig config(unsigned Workers) {
    farm::FarmConfig Config;
    Config.UnixSocketPath = (Dir / "farm.sock").string();
    Config.Workers = Workers;
    Config.Worker.Workspace = (Dir / "ws").string();
    Config.Worker.CacheDir = (Dir / "cache").string();
    Config.Worker.Jobs = 2;
    // Tests retry fast; the defaults are tuned for production latency.
    Config.Retry.InitialBackoffMs = 5;
    Config.Retry.MaxBackoffMs = 50;
    return Config;
  }

  /// Cold standalone reference over the same (in-memory) sources.
  build::BuildResult standalone(const std::vector<std::string> &Roots) {
    driver::CompilerOptions Options;
    Options.Executor = driver::ExecutorKind::Threaded;
    Options.Processors = 2;
    Options.Level = opt::OptLevel::O0; // BUILD requests default to O0.
    build::BuildSession Session(Files, Interner, std::move(Options));
    return Session.build(Roots);
  }

  /// Asserts \p Result is an Ok reply whose diagnostics and .mco bytes
  /// equal the cold standalone build of the same root.
  void expectIdentical(const net::BuildResultMsg &Result,
                       const std::string &Root) {
    ASSERT_EQ(Result.St, net::Status::Ok) << Result.Diagnostics;
    build::BuildResult Reference = standalone({Root});
    ASSERT_TRUE(Reference.Success) << Reference.DiagnosticText;
    EXPECT_EQ(Result.Diagnostics, Reference.DiagnosticText);
    ASSERT_EQ(Result.Modules.size(), Reference.Modules.size());
    std::map<std::string, std::string> ReferenceBytes;
    for (const build::ModuleBuild &M : Reference.Modules)
      ReferenceBytes[M.Name] = codegen::writeObjectFile(M.Image, Interner);
    for (const net::ModuleArtifact &M : Result.Modules) {
      auto It = ReferenceBytes.find(M.Name);
      ASSERT_NE(It, ReferenceBytes.end()) << M.Name;
      EXPECT_EQ(M.Object, It->second)
          << M.Name << ": farm-routed image differs from standalone build";
    }
  }
};

uint64_t counter(const std::map<std::string, uint64_t> &Stats,
                 const std::string &Name) {
  auto It = Stats.find(Name);
  return It == Stats.end() ? 0 : It->second;
}

} // namespace

TEST(FarmTest, AffinityShardIsDeterministicAndOrderInsensitive) {
  std::vector<std::string> Roots = {"Alpha", "Beta"};
  std::vector<std::string> Swapped = {"Beta", "Alpha"};
  for (unsigned N : {1u, 2u, 4u, 7u}) {
    unsigned S = farm::Farm::affinityShard(Roots, N);
    EXPECT_LT(S, N);
    // Same closure, same worker — regardless of how the client ordered
    // the roots or when it asks.
    EXPECT_EQ(S, farm::Farm::affinityShard(Swapped, N));
    EXPECT_EQ(S, farm::Farm::affinityShard(Roots, N));
  }
  EXPECT_EQ(farm::Farm::affinityShard({"Alpha"}, 1), 0u);
}

TEST(FarmTest, FarmRoutedBuildMatchesStandaloneByteForByte) {
  FarmFixture F;
  farm::Farm Coordinator(F.config(2));
  std::string Err;
  ASSERT_TRUE(Coordinator.start(Err)) << Err;

  auto Client =
      net::RemoteClient::open((F.Dir / "farm.sock").string(), Err);
  ASSERT_NE(Client, nullptr) << Err;
  EXPECT_NE(Client->serverName().find("m2cfarm"), std::string::npos)
      << Client->serverName();

  // Cold pass and warm (cache-replayed) pass: identical both times.
  for (int Pass = 0; Pass < 2; ++Pass) {
    for (const workload::GeneratedProject &P : F.Set.Projects) {
      net::BuildRequestMsg Req;
      Req.RequestId = Client->nextRequestId();
      Req.Roots = {P.Root};
      net::BuildResultMsg Result;
      ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
      F.expectIdentical(Result, P.Root);
    }
  }
  Coordinator.stop();
}

TEST(FarmTest, AffinityRoutingIsStickyPerRoot) {
  FarmFixture F;
  farm::Farm Coordinator(F.config(2));
  std::string Err;
  ASSERT_TRUE(Coordinator.start(Err)) << Err;
  auto Client =
      net::RemoteClient::open((F.Dir / "farm.sock").string(), Err);
  ASSERT_NE(Client, nullptr) << Err;

  unsigned Builds = 0;
  for (const workload::GeneratedProject &P : F.Set.Projects) {
    unsigned Shard = farm::Farm::affinityShard({P.Root}, 2);
    std::string Routed = "farm.worker." + std::to_string(Shard) + ".routed";
    uint64_t Before = counter(Coordinator.statsSnapshot(), Routed);
    for (int I = 0; I < 2; ++I) {
      net::BuildRequestMsg Req;
      Req.RequestId = Client->nextRequestId();
      Req.Roots = {P.Root};
      net::BuildResultMsg Result;
      ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
      ASSERT_EQ(Result.St, net::Status::Ok) << Result.Diagnostics;
      ++Builds;
    }
    // Both builds of this root landed on its affinity worker.
    EXPECT_EQ(counter(Coordinator.statsSnapshot(), Routed), Before + 2);
  }

  std::map<std::string, uint64_t> Stats = Coordinator.aggregatedStats();
  EXPECT_EQ(counter(Stats, "farm.requests.affinity"), Builds);
  EXPECT_EQ(counter(Stats, "farm.requests.spilled"), 0u);
  EXPECT_EQ(counter(Stats, "farm.workers"), 2u);
  // Aggregation reached into the workers: their service counters sum in.
  EXPECT_GE(counter(Stats, "service.requests.submitted"), Builds);
  Coordinator.stop();
}

TEST(FarmTest, KilledWorkerFailsOverWithoutClientVisibleFailure) {
  FarmFixture F;
  farm::FarmConfig Config = F.config(2);
  // Keep the health thread out of this test: the first build after the
  // kill must succeed via failover to the sibling, not via respawn.
  Config.HealthIntervalMs = 60000;
  farm::Farm Coordinator(Config);
  std::string Err;
  ASSERT_TRUE(Coordinator.start(Err)) << Err;
  auto Client =
      net::RemoteClient::open((F.Dir / "farm.sock").string(), Err);
  ASSERT_NE(Client, nullptr) << Err;

  const std::string Root = F.Set.Projects[0].Root;
  unsigned Shard = farm::Farm::affinityShard({Root}, 2);

  // Warm the affinity worker (and its pooled upstream connection).
  net::BuildRequestMsg Req;
  Req.RequestId = Client->nextRequestId();
  Req.Roots = {Root};
  net::BuildResultMsg Result;
  ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
  ASSERT_EQ(Result.St, net::Status::Ok) << Result.Diagnostics;

  ASSERT_TRUE(Coordinator.killWorker(Shard));

  // The relay's fast path hits the dead worker and must fail over to the
  // sibling — the client sees nothing but an Ok reply, byte-identical to
  // a standalone build (the sibling replays the shared disk cache).
  Req.RequestId = Client->nextRequestId();
  ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
  F.expectIdentical(Result, Root);

  std::map<std::string, uint64_t> Stats = Coordinator.statsSnapshot();
  EXPECT_GE(counter(Stats, "farm.requests.failover"), 1u);
  EXPECT_EQ(counter(Stats, "farm.requests.gaveup"), 0u);
  EXPECT_EQ(counter(Stats, "farm.requests.failed"), 0u);
  Coordinator.stop();
}

TEST(FarmTest, DeadlineExpiresDuringFailover) {
  // PROTOCOL.md §6: the coordinator measures a BUILD's deadline itself, so
  // a relay stuck in failover backoff still answers on time.
  FarmFixture F;
  farm::FarmConfig Config = F.config(1);
  Config.HealthIntervalMs = 60000; // No respawn: every attempt fails.
  Config.Retry.MaxRetries = 5;
  Config.Retry.InitialBackoffMs = 200;
  Config.Retry.MaxBackoffMs = 500;
  farm::Farm Coordinator(Config);
  std::string Err;
  ASSERT_TRUE(Coordinator.start(Err)) << Err;
  ASSERT_TRUE(Coordinator.killWorker(0));
  auto Client =
      net::RemoteClient::open((F.Dir / "farm.sock").string(), Err);
  ASSERT_NE(Client, nullptr) << Err;

  net::BuildRequestMsg Req;
  Req.RequestId = Client->nextRequestId();
  Req.DeadlineMs = 100; // Far shorter than the ~2 s of failover backoff.
  Req.Roots = {F.Set.Projects[0].Root};
  net::BuildResultMsg Result;
  ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
  EXPECT_EQ(Result.St, net::Status::DeadlineExceeded) << Result.Diagnostics;
  EXPECT_EQ(counter(Coordinator.statsSnapshot(), "farm.requests.deadline"),
            1u);
  Coordinator.stop();
  EXPECT_EQ(counter(Coordinator.statsSnapshot(), "farm.requests.gaveup"), 0u);
}

TEST(FarmTest, KilledWorkerIsRespawnedAndServesAgain) {
  FarmFixture F;
  farm::FarmConfig Config = F.config(2);
  Config.HealthIntervalMs = 20;
  farm::Farm Coordinator(Config);
  std::string Err;
  ASSERT_TRUE(Coordinator.start(Err)) << Err;

  pid_t OldPid = Coordinator.workerPid(0);
  ASSERT_GT(OldPid, 0);
  ASSERT_TRUE(Coordinator.killWorker(0));

  // The health thread notices within its interval and respawns on the
  // same socket path.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (counter(Coordinator.statsSnapshot(), "farm.workers.respawned") ==
             0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(counter(Coordinator.statsSnapshot(), "farm.workers.respawned"),
            1u);
  EXPECT_NE(Coordinator.workerPid(0), OldPid);

  // The respawned worker serves its shard again.
  auto Client =
      net::RemoteClient::open((F.Dir / "farm.sock").string(), Err);
  ASSERT_NE(Client, nullptr) << Err;
  for (const workload::GeneratedProject &P : F.Set.Projects) {
    net::BuildRequestMsg Req;
    Req.RequestId = Client->nextRequestId();
    Req.Roots = {P.Root};
    net::BuildResultMsg Result;
    ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
    ASSERT_EQ(Result.St, net::Status::Ok) << Result.Diagnostics;
  }
  Coordinator.stop();
}

TEST(FarmTest, OverloadShedsWithRejectedOverload) {
  FarmFixture F;
  farm::FarmConfig Config = F.config(1);
  Config.MaxPendingRelays = 0; // Everything sheds, deterministically.
  farm::Farm Coordinator(Config);
  std::string Err;
  ASSERT_TRUE(Coordinator.start(Err)) << Err;
  auto Client =
      net::RemoteClient::open((F.Dir / "farm.sock").string(), Err);
  ASSERT_NE(Client, nullptr) << Err;

  net::BuildRequestMsg Req;
  Req.RequestId = Client->nextRequestId();
  Req.Roots = {F.Set.Projects[0].Root};
  net::BuildResultMsg Result;
  ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
  EXPECT_EQ(Result.St, net::Status::RejectedOverload);
  EXPECT_GE(counter(Coordinator.statsSnapshot(), "farm.requests.shed"), 1u);
  Coordinator.stop();
}

TEST(FarmTest, DrainRefusesNewBuildsAndNewConnections) {
  FarmFixture F;
  farm::Farm Coordinator(F.config(1));
  std::string Err;
  ASSERT_TRUE(Coordinator.start(Err)) << Err;
  auto Client =
      net::RemoteClient::open((F.Dir / "farm.sock").string(), Err);
  ASSERT_NE(Client, nullptr) << Err;

  Coordinator.requestDrain();
  EXPECT_TRUE(Coordinator.draining());

  // Existing connections get DRAINING per BUILD...
  net::BuildRequestMsg Req;
  Req.RequestId = Client->nextRequestId();
  Req.Roots = {F.Set.Projects[0].Root};
  net::BuildResultMsg Result;
  ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
  EXPECT_EQ(Result.St, net::Status::Draining);

  // ...and new connections are refused outright.
  auto Late = net::RemoteClient::open((F.Dir / "farm.sock").string(), Err);
  EXPECT_EQ(Late, nullptr);
  Coordinator.stop();
}
