//===--- FaultTest.cpp - Deterministic fault injection tests ---------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// The robustness bar: with faults armed at every seam (disk cache, socket,
// build threads, service admission), every request still gets exactly one
// clean reply, every *successful* reply is byte-identical to a fault-free
// build, and the persistent cache ends internally consistent.  The plan
// itself must be deterministic — same spec + seed, same injections.
//
//===----------------------------------------------------------------------===//

#include "build/BuildSession.h"
#include "cache/CacheStore.h"
#include "codegen/ObjectFile.h"
#include "daemon/Daemon.h"
#include "fault/FaultPlan.h"
#include "net/RemoteClient.h"
#include "workload/WorkloadGenerator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace m2c;

namespace {

namespace fs = std::filesystem;

/// Uninstalls the process-wide plan on scope exit, so a failing assertion
/// can't leak an armed plan into the next test.
struct FaultGuard {
  ~FaultGuard() { fault::installPlan(nullptr); }

  bool install(const std::string &Spec) {
    std::string Err;
    bool Ok = fault::installPlanFromSpec(Spec, Err);
    EXPECT_TRUE(Ok) << Err;
    return Ok;
  }
};

uint64_t counter(const std::map<std::string, uint64_t> &Stats,
                 const std::string &Name) {
  auto It = Stats.find(Name);
  return It == Stats.end() ? 0 : It->second;
}

fs::path freshDir(const std::string &Name) {
  fs::path Dir = fs::path(::testing::TempDir()) /
                 (Name + "-" + std::to_string(::getpid()));
  fs::remove_all(Dir);
  return Dir;
}

//===--- Plan parsing and determinism --------------------------------------===//

TEST(FaultTest, SpecParsesActionsAndModifiers) {
  std::string Err;
  auto Plan = fault::FaultPlan::parse(
      "seed=42;cache.disk.write=fail@3;net.send=close@1;"
      "disk.fsync=delay:50ms;daemon.build=corrupt~0.25",
      Err);
  ASSERT_NE(Plan, nullptr) << Err;
  EXPECT_EQ(Plan->seed(), 42u);

  // Unarmed points never fire; armed points appear in the snapshot once hit.
  EXPECT_FALSE(Plan->hit("no.such.point").fired());
  auto Stats = Plan->snapshot();
  EXPECT_EQ(counter(Stats, "fault.hits.cache.disk.write"), 0u);
}

TEST(FaultTest, MalformedSpecsAreRejected) {
  for (const char *Bad :
       {"nonsense", "p=", "=fail", "p=explode", "p=fail@x", "p=fail~2",
        "p=fail~nope", "p=delay:ms", "seed=notanumber", ";;p=fail@0x"}) {
    std::string Err;
    EXPECT_EQ(fault::FaultPlan::parse(Bad, Err), nullptr) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
  // A malformed spec must leave the previously installed plan in place.
  FaultGuard Guard;
  ASSERT_TRUE(Guard.install("p=fail@1"));
  fault::FaultPlan *Before = fault::activePlan();
  std::string Err;
  EXPECT_FALSE(fault::installPlanFromSpec("p=banana", Err));
  EXPECT_EQ(fault::activePlan(), Before);
}

TEST(FaultTest, OneShotFiresOnExactlyTheNthHit) {
  std::string Err;
  auto Plan = fault::FaultPlan::parse("p=fail@3", Err);
  ASSERT_NE(Plan, nullptr) << Err;
  std::vector<bool> Fired;
  for (int I = 0; I < 5; ++I)
    Fired.push_back(Plan->hit("p").fail());
  EXPECT_EQ(Fired, (std::vector<bool>{false, false, true, false, false}));
  auto Stats = Plan->snapshot();
  EXPECT_EQ(counter(Stats, "fault.hits.p"), 5u);
  EXPECT_EQ(counter(Stats, "fault.injected.p"), 1u);
}

TEST(FaultTest, ProbabilisticFiringIsAPureFunctionOfSeedAndHitIndex) {
  const std::string Spec = "seed=42;p=fail~0.5";
  auto Pattern = [&](const std::string &S) {
    std::string Err;
    auto Plan = fault::FaultPlan::parse(S, Err);
    EXPECT_NE(Plan, nullptr) << Err;
    std::vector<bool> Out;
    for (int I = 0; I < 256; ++I)
      Out.push_back(Plan->hit("p").fail());
    return Out;
  };
  std::vector<bool> A = Pattern(Spec);
  // Replaying the same spec replays the same injections, hit for hit.
  EXPECT_EQ(A, Pattern(Spec));
  // A different seed draws a different pattern (256 coin flips colliding
  // across seeds would mean the seed isn't mixed in at all).
  EXPECT_NE(A, Pattern("seed=43;p=fail~0.5"));
  // The rate is plausibly 0.5, not degenerate.
  size_t FiredCount = 0;
  for (bool B : A)
    FiredCount += B;
  EXPECT_GT(FiredCount, 64u);
  EXPECT_LT(FiredCount, 192u);
  // Probability endpoints behave.
  for (bool B : Pattern("seed=42;p=fail~0"))
    EXPECT_FALSE(B);
  for (bool B : Pattern("seed=42;p=fail~1"))
    EXPECT_TRUE(B);
}

TEST(FaultTest, DelayActionSleepsInline) {
  std::string Err;
  auto Plan = fault::FaultPlan::parse("p=delay:30ms@1", Err);
  ASSERT_NE(Plan, nullptr) << Err;
  auto Start = std::chrono::steady_clock::now();
  fault::FaultOutcome F = Plan->hit("p");
  auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - Start);
  EXPECT_TRUE(F.fired());
  EXPECT_FALSE(F.fail()); // A delay is not a failure.
  EXPECT_GE(Elapsed.count(), 25);
  // Subsequent hits (past @1) don't sleep.
  Start = std::chrono::steady_clock::now();
  EXPECT_FALSE(Plan->hit("p").fired());
  Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - Start);
  EXPECT_LT(Elapsed.count(), 25);
}

TEST(FaultTest, MacroIsInertWithoutAPlanAndLiveWithOne) {
  FaultGuard Guard;
  fault::installPlan(nullptr);
  EXPECT_FALSE(fault::active());
  EXPECT_FALSE(M2C_FAULT_HIT("p").fired());
  EXPECT_TRUE(fault::statsSnapshot().empty());

  ASSERT_TRUE(Guard.install("p=fail@1"));
  EXPECT_TRUE(fault::active());
  EXPECT_TRUE(M2C_FAULT_HIT("p").fail());
  EXPECT_FALSE(M2C_FAULT_HIT("p").fired());
  auto Stats = fault::statsSnapshot();
  EXPECT_EQ(counter(Stats, "fault.hits.p"), 2u);
  EXPECT_EQ(counter(Stats, "fault.injected.p"), 1u);
}

//===--- Disk cache under injected faults ----------------------------------===//

TEST(FaultTest, InjectedWriteFailureIsJustAMiss) {
  fs::path Dir = freshDir("m2c-fault-wfail");
  cache::DiskCacheStore Store(Dir.string());
  FaultGuard Guard;
  ASSERT_TRUE(Guard.install("cache.disk.write=fail@1"));
  Store.save("key", "payload");
  EXPECT_FALSE(Store.load("key").has_value());
  EXPECT_EQ(Store.size(), 0u);
  // The plan was one-shot: the next save lands.
  Store.save("key", "payload");
  ASSERT_TRUE(Store.load("key").has_value());
  EXPECT_EQ(*Store.load("key"), "payload");
  fs::remove_all(Dir);
}

TEST(FaultTest, CorruptOnWriteIsDetectedAndSelfHealedOnRead) {
  fs::path Dir = freshDir("m2c-fault-wcorrupt");
  cache::DiskCacheStore Store(Dir.string());
  {
    FaultGuard Guard;
    ASSERT_TRUE(Guard.install("cache.disk.write=corrupt@1"));
    Store.save("key", "payload-payload-payload");
    EXPECT_EQ(Store.size(), 1u); // The damaged entry did land on disk...
  }
  // ...but the read-side hash check rejects it, deletes it and misses.
  EXPECT_FALSE(Store.load("key").has_value());
  EXPECT_EQ(Store.size(), 0u);
  EXPECT_EQ(Store.stats().snapshot().at("cache.disk.corrupt"), 1u);
  // Self-healed: the rewrite restores service.
  Store.save("key", "payload-payload-payload");
  ASSERT_TRUE(Store.load("key").has_value());
  fs::remove_all(Dir);
}

TEST(FaultTest, CorruptOnReadDoesNotDamageTheFile) {
  fs::path Dir = freshDir("m2c-fault-rcorrupt");
  cache::DiskCacheStore Store(Dir.string());
  Store.save("key", "payload");
  {
    FaultGuard Guard;
    ASSERT_TRUE(Guard.install("cache.disk.read=corrupt@1"));
    // The in-memory copy was damaged after the read; the verify catches it
    // and (conservatively) drops the entry.
    EXPECT_FALSE(Store.load("key").has_value());
  }
  // Injected read *failures* are pure misses: nothing touched on disk.
  Store.save("key", "payload");
  {
    FaultGuard Guard;
    ASSERT_TRUE(Guard.install("cache.disk.read=fail@1"));
    EXPECT_FALSE(Store.load("key").has_value());
  }
  ASSERT_TRUE(Store.load("key").has_value());
  EXPECT_EQ(*Store.load("key"), "payload");
  fs::remove_all(Dir);
}

TEST(FaultTest, RenameFaultLeavesNoTempDebris) {
  fs::path Dir = freshDir("m2c-fault-rename");
  cache::DiskCacheStore Store(Dir.string());
  FaultGuard Guard;
  ASSERT_TRUE(Guard.install("cache.disk.rename=fail@1"));
  Store.save("key", "payload");
  EXPECT_FALSE(Store.load("key").has_value());
  for (const auto &Entry : fs::directory_iterator(Dir))
    ADD_FAILURE() << "leftover file: " << Entry.path();
  fs::remove_all(Dir);
}

//===--- Daemon and service under injected faults ---------------------------===//

struct DaemonFixture {
  VirtualFileSystem Files;
  StringInterner Interner;
  std::string SocketPath;

  DaemonFixture() {
    static std::atomic<unsigned> Counter{0};
    SocketPath = (fs::temp_directory_path() /
                  ("m2c-fault-test-" + std::to_string(::getpid()) + "-" +
                   std::to_string(Counter.fetch_add(1)) + ".sock"))
                     .string();
  }
  ~DaemonFixture() {
    std::error_code EC;
    fs::remove(SocketPath, EC);
  }

  daemon::DaemonConfig config() {
    daemon::DaemonConfig Config;
    Config.UnixSocketPath = SocketPath;
    Config.Service.Workers = 4;
    return Config;
  }

  build::BuildResult standalone(const std::vector<std::string> &Roots) {
    driver::CompilerOptions Options;
    Options.Executor = driver::ExecutorKind::Threaded;
    Options.Processors = 4;
    Options.Level = opt::OptLevel::O0; // BUILD requests default to O0.
    build::BuildSession Session(Files, Interner, std::move(Options));
    return Session.build(Roots);
  }
};

TEST(FaultTest, InjectedBuildFaultYieldsOneCleanInternalError) {
  DaemonFixture F;
  F.Files.addFile("Tiny.mod", "MODULE Tiny; BEGIN END Tiny.\n");
  daemon::Daemon Server(F.Files, F.Interner, F.config());
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;
  auto Client = net::RemoteClient::open(F.SocketPath, Err);
  ASSERT_NE(Client, nullptr) << Err;

  FaultGuard Guard;
  ASSERT_TRUE(Guard.install("daemon.build=fail@1"));

  net::BuildRequestMsg Req;
  Req.RequestId = Client->nextRequestId();
  Req.Roots = {"Tiny"};
  net::BuildResultMsg Result;
  ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
  EXPECT_EQ(Result.St, net::Status::Internal);
  EXPECT_NE(Result.Diagnostics.find("injected fault"), std::string::npos)
      << Result.Diagnostics;

  // The fault was confined to that request: same connection still builds,
  // and the daemon's counters account for exactly one faulted request.
  net::BuildRequestMsg Req2;
  Req2.RequestId = Client->nextRequestId();
  Req2.Roots = {"Tiny"};
  net::BuildResultMsg Result2;
  ASSERT_TRUE(Client->build(Req2, Result2, Err)) << Err;
  EXPECT_EQ(Result2.St, net::Status::Ok) << Result2.Diagnostics;
  auto Stats = Server.statsSnapshot();
  EXPECT_EQ(counter(Stats, "net.requests.faulted"), 1u);
  EXPECT_EQ(counter(Stats, "net.requests.failed"), 0u);
  EXPECT_EQ(counter(Stats, "fault.injected.daemon.build"), 1u);
  Server.stop();
}

TEST(FaultTest, InjectedAdmissionFaultYieldsOneCleanInternalError) {
  DaemonFixture F;
  F.Files.addFile("Tiny.mod", "MODULE Tiny; BEGIN END Tiny.\n");
  daemon::Daemon Server(F.Files, F.Interner, F.config());
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;
  auto Client = net::RemoteClient::open(F.SocketPath, Err);
  ASSERT_NE(Client, nullptr) << Err;

  FaultGuard Guard;
  ASSERT_TRUE(Guard.install("service.admit=fail@1"));

  net::BuildRequestMsg Req;
  Req.RequestId = Client->nextRequestId();
  Req.Roots = {"Tiny"};
  net::BuildResultMsg Result;
  ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
  EXPECT_EQ(Result.St, net::Status::Internal);
  EXPECT_NE(Result.Diagnostics.find("service.admit"), std::string::npos)
      << Result.Diagnostics;

  net::BuildRequestMsg Req2;
  Req2.RequestId = Client->nextRequestId();
  Req2.Roots = {"Tiny"};
  net::BuildResultMsg Result2;
  ASSERT_TRUE(Client->build(Req2, Result2, Err)) << Err;
  EXPECT_EQ(Result2.St, net::Status::Ok) << Result2.Diagnostics;
  Server.stop();
}

TEST(FaultTest, TransportFaultIsCategorizedTransport) {
  DaemonFixture F;
  daemon::Daemon Server(F.Files, F.Interner, F.config());
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  FaultGuard Guard;
  // The first net.send in the process after this install is the client's
  // HELLO (the daemon only sends in response).
  ASSERT_TRUE(Guard.install("net.send=close@1"));
  net::ErrorCategory Category = net::ErrorCategory::None;
  EXPECT_EQ(net::RemoteClient::open(F.SocketPath, Err, &Category), nullptr);
  EXPECT_EQ(Category, net::ErrorCategory::Transport);

  fault::installPlan(nullptr);
  EXPECT_NE(net::RemoteClient::open(F.SocketPath, Err), nullptr) << Err;
  Server.stop();
}

TEST(FaultTest, CategoriesAndRetryabilityAreStable) {
  using net::ErrorCategory;
  using net::Status;
  EXPECT_EQ(net::categorize(Status::Ok), ErrorCategory::None);
  EXPECT_EQ(net::categorize(Status::RejectedOverload), ErrorCategory::Overload);
  EXPECT_EQ(net::categorize(Status::Draining), ErrorCategory::Draining);
  EXPECT_EQ(net::categorize(Status::DeadlineExceeded), ErrorCategory::Deadline);
  EXPECT_EQ(net::categorize(Status::Cancelled), ErrorCategory::Cancelled);
  EXPECT_EQ(net::categorize(Status::BuildFailed), ErrorCategory::BuildFailed);
  EXPECT_EQ(net::categorize(Status::Internal), ErrorCategory::Internal);
  EXPECT_EQ(net::categorize(Status::Malformed), ErrorCategory::Protocol);

  // Transient availability failures retry; spent budgets and bugs do not.
  for (ErrorCategory C :
       {ErrorCategory::ConnectRefused, ErrorCategory::Transport,
        ErrorCategory::Overload, ErrorCategory::Draining,
        ErrorCategory::Internal})
    EXPECT_TRUE(net::isRetryable(C)) << net::errorCategoryName(C);
  for (ErrorCategory C :
       {ErrorCategory::None, ErrorCategory::Protocol, ErrorCategory::Deadline,
        ErrorCategory::Cancelled, ErrorCategory::BuildFailed})
    EXPECT_FALSE(net::isRetryable(C)) << net::errorCategoryName(C);
}

TEST(FaultTest, ConnectRefusedIsRetriedThenReported) {
  net::BuildRequestMsg Req;
  Req.RequestId = 1;
  Req.Roots = {"Nothing"};
  net::RetryPolicy Policy;
  Policy.MaxRetries = 2;
  Policy.Jitter = 0; // Exact exponential schedule for the assertions below.
  std::vector<unsigned> Sleeps;
  Policy.OnBackoff = [&](unsigned, unsigned SleepMs) {
    Sleeps.push_back(SleepMs); // Don't actually sleep in tests.
  };
  net::BuildResultMsg Result;
  net::RemoteBuildOutcome Outcome = net::buildWithRetry(
      "/nonexistent/m2c-fault-test.sock", Req, Policy, Result);
  EXPECT_FALSE(Outcome.Delivered);
  EXPECT_EQ(Outcome.Category, net::ErrorCategory::ConnectRefused);
  EXPECT_EQ(Outcome.Attempts, 3u);
  // Both failed attempts were retried, and the outcome says why.
  EXPECT_EQ(Outcome.Retries[net::ErrorCategory::ConnectRefused], 2u);
  // Exponential backoff: each wait doubles (bounded by MaxBackoffMs).
  ASSERT_EQ(Sleeps.size(), 2u);
  EXPECT_EQ(Sleeps[1], Sleeps[0] * 2);
}

TEST(FaultTest, JitteredBackoffIsSeededDeterministicAndBounded) {
  net::RetryPolicy Policy;
  Policy.InitialBackoffMs = 100;
  Policy.MaxBackoffMs = 10000;
  Policy.Jitter = 0.5;
  Policy.JitterSeed = 42;
  for (unsigned Attempt = 1; Attempt <= 6; ++Attempt) {
    unsigned Base = 100u << (Attempt - 1);
    unsigned Sleep = net::backoffSleepMs(Policy, Attempt);
    // Jitter subtracts up to Jitter*Base from the exponential base, so
    // herds spread out without any client waiting longer than the plain
    // schedule.
    EXPECT_GE(Sleep, Base / 2) << "attempt " << Attempt;
    EXPECT_LE(Sleep, Base) << "attempt " << Attempt;
    // Pure function of (policy, attempt): replays exactly.
    EXPECT_EQ(Sleep, net::backoffSleepMs(Policy, Attempt));
  }
  // Different seeds must disagree somewhere (that is the point of
  // jitter); six attempts make a coincidence across all of them
  // astronomically unlikely.
  net::RetryPolicy Other = Policy;
  Other.JitterSeed = 43;
  bool Differs = false;
  for (unsigned Attempt = 1; Attempt <= 6; ++Attempt)
    Differs |= net::backoffSleepMs(Other, Attempt) !=
               net::backoffSleepMs(Policy, Attempt);
  EXPECT_TRUE(Differs);
  // Jitter off reproduces the plain exponential schedule exactly.
  Policy.Jitter = 0;
  EXPECT_EQ(net::backoffSleepMs(Policy, 1), 100u);
  EXPECT_EQ(net::backoffSleepMs(Policy, 2), 200u);
  EXPECT_EQ(net::backoffSleepMs(Policy, 8), 10000u); // MaxBackoffMs cap
}

TEST(FaultTest, RetriedBuildIsIdempotent) {
  // The retry story's load-bearing claim (net/RemoteClient.h): resending a
  // BUILD after a failed attempt can change nothing but latency.  Inject a
  // one-shot build-thread fault, retry once, and demand the replayed
  // request's artifacts be byte-identical to a fault-free standalone build.
  DaemonFixture F;
  workload::WorkloadGenerator Gen(F.Files);
  workload::ProjectSpec Spec;
  Spec.NumModules = 2;
  Spec.SharedInterfaces = 2;
  workload::GeneratedProject Project = Gen.generateProject(Spec);
  build::BuildResult Reference = F.standalone({Project.Root});
  ASSERT_TRUE(Reference.Success) << Reference.DiagnosticText;

  daemon::Daemon Server(F.Files, F.Interner, F.config());
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  FaultGuard Guard;
  ASSERT_TRUE(Guard.install("daemon.build=fail@1"));

  net::BuildRequestMsg Req;
  Req.RequestId = 1;
  Req.Roots = {Project.Root};
  net::RetryPolicy Policy;
  Policy.MaxRetries = 3;
  Policy.OnBackoff = [](unsigned, unsigned) {};
  net::BuildResultMsg Result;
  net::RemoteBuildOutcome Outcome =
      net::buildWithRetry(F.SocketPath, Req, Policy, Result);
  ASSERT_TRUE(Outcome.Delivered) << Outcome.Err;
  ASSERT_EQ(Result.St, net::Status::Ok) << Result.Diagnostics;
  EXPECT_EQ(Outcome.Attempts, 2u); // One fault, one clean replay.

  EXPECT_EQ(Result.Diagnostics, Reference.DiagnosticText);
  ASSERT_EQ(Result.Modules.size(), Reference.Modules.size());
  std::map<std::string, std::string> ReferenceBytes;
  for (const build::ModuleBuild &M : Reference.Modules)
    ReferenceBytes[M.Name] = codegen::writeObjectFile(M.Image, F.Interner);
  for (const net::ModuleArtifact &M : Result.Modules) {
    auto It = ReferenceBytes.find(M.Name);
    ASSERT_NE(It, ReferenceBytes.end()) << M.Name;
    EXPECT_EQ(M.Object, It->second) << M.Name;
  }
  Server.stop();
}

//===--- Adversarial workloads ----------------------------------------------===//

build::BuildResult buildAdversarial(VirtualFileSystem &Files,
                                    StringInterner &Interner,
                                    const std::string &Root) {
  driver::CompilerOptions Options;
  Options.Executor = driver::ExecutorKind::Threaded;
  Options.Processors = 4;
  build::BuildSession Session(Files, Interner, std::move(Options));
  return Session.build({Root});
}

TEST(FaultTest, AdversarialInputsTerminateWithTheExpectedOutcome) {
  using workload::AdversarialExpectation;
  using workload::AdversarialKind;
  for (AdversarialKind Kind :
       {AdversarialKind::TruncatedEof, AdversarialKind::MidEditDrop,
        AdversarialKind::UnbalancedBlocks, AdversarialKind::DuplicateImports,
        AdversarialKind::CyclicImports, AdversarialKind::PathologicalDag}) {
    for (uint32_t Seed : {23u, 24u, 25u}) {
      VirtualFileSystem Files;
      StringInterner Interner;
      workload::WorkloadGenerator Gen(Files);
      workload::AdversarialSpec Spec;
      Spec.Kind = Kind;
      Spec.Seed = Seed;
      workload::GeneratedAdversarial Adv = Gen.generateAdversarial(Spec);
      build::BuildResult R = buildAdversarial(Files, Interner, Adv.Root);
      switch (Adv.Expect) {
      case AdversarialExpectation::MustFail:
        EXPECT_FALSE(R.Success)
            << "kind " << static_cast<int>(Kind) << " seed " << Seed;
        EXPECT_FALSE(R.DiagnosticText.empty());
        break;
      case AdversarialExpectation::MustSucceed:
        EXPECT_TRUE(R.Success) << "kind " << static_cast<int>(Kind) << " seed "
                               << Seed << "\n"
                               << R.DiagnosticText;
        break;
      case AdversarialExpectation::Either:
        break; // Terminating at all is the assertion.
      }
    }
  }
}

TEST(FaultTest, TruncatedInputDiagnosticsAreBounded) {
  // A torn file unwinds every open construct at EOF; the cascade must not
  // be proportional to program size.  (Parser::error caps repeats at EOF.)
  VirtualFileSystem Files;
  StringInterner Interner;
  workload::WorkloadGenerator Gen(Files);
  workload::AdversarialSpec Spec;
  Spec.Kind = workload::AdversarialKind::TruncatedEof;
  Spec.Scale = 8; // A big module: dozens of procedures to unwind through.
  workload::GeneratedAdversarial Adv = Gen.generateAdversarial(Spec);
  build::BuildResult R = buildAdversarial(Files, Interner, Adv.Root);
  EXPECT_FALSE(R.Success);
  size_t Lines = 0;
  for (char C : R.DiagnosticText)
    Lines += C == '\n';
  EXPECT_GT(Lines, 0u);
  EXPECT_LT(Lines, 64u) << R.DiagnosticText;
}

TEST(FaultTest, InterfaceImportCycleIsRefusedNotDeadlocked) {
  VirtualFileSystem Files;
  StringInterner Interner;
  workload::WorkloadGenerator Gen(Files);
  workload::AdversarialSpec Spec;
  Spec.Kind = workload::AdversarialKind::CyclicImports;
  workload::GeneratedAdversarial Adv = Gen.generateAdversarial(Spec);
  build::BuildResult R = buildAdversarial(Files, Interner, Adv.Root);
  EXPECT_FALSE(R.Success);
  EXPECT_NE(R.DiagnosticText.find("import cycle among interfaces"),
            std::string::npos)
      << R.DiagnosticText;
}

//===--- Mini soak: mixed traffic under an active plan ----------------------===//

TEST(FaultTest, MixedTrafficUnderFaultsKeepsRepliesIdenticalAndCacheClean) {
  DaemonFixture F;
  workload::WorkloadGenerator Gen(F.Files);
  workload::RequestSetSpec SetSpec;
  SetSpec.NumProjects = 2;
  SetSpec.ModulesPerProject = 2;
  SetSpec.RequestsPerProject = 2;
  workload::GeneratedRequestSet Set = Gen.generateRequestSet(SetSpec);

  // Fault-free goldens, computed before any plan is armed.
  std::map<std::string, std::map<std::string, std::string>> Golden;
  std::map<std::string, std::string> GoldenDiags;
  for (const workload::GeneratedProject &P : Set.Projects) {
    build::BuildResult Reference = F.standalone({P.Root});
    ASSERT_TRUE(Reference.Success) << Reference.DiagnosticText;
    GoldenDiags[P.Root] = Reference.DiagnosticText;
    for (const build::ModuleBuild &M : Reference.Modules)
      Golden[P.Root][M.Name] = codegen::writeObjectFile(M.Image, F.Interner);
  }

  fs::path CacheDir = freshDir("m2c-fault-soak-cache");
  daemon::DaemonConfig Config = F.config();
  Config.Service.CacheDir = CacheDir.string();
  daemon::Daemon Server(F.Files, F.Interner, Config);
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  FaultGuard Guard;
  ASSERT_TRUE(Guard.install("seed=42;cache.disk.write=corrupt~0.08;"
                            "cache.disk.read=fail~0.05;"
                            "daemon.build=fail~0.10;service.admit=fail~0.05"));

  constexpr unsigned ClientThreads = 3;
  constexpr unsigned RequestsPerThread = 4;
  std::atomic<unsigned> Delivered{0}, Successes{0}, Mismatches{0};
  auto Run = [&](unsigned Id) {
    for (unsigned I = 0; I < RequestsPerThread; ++I) {
      const workload::GeneratedProject &P =
          Set.Projects[(Id + I) % Set.Projects.size()];
      net::BuildRequestMsg Req;
      Req.RequestId = 1;
      Req.Roots = {P.Root};
      net::RetryPolicy Policy;
      Policy.MaxRetries = 8;
      Policy.OnBackoff = [](unsigned, unsigned) {};
      net::BuildResultMsg Result;
      net::RemoteBuildOutcome Outcome =
          net::buildWithRetry(F.SocketPath, Req, Policy, Result);
      if (!Outcome.Delivered)
        continue; // Classified failure after retries: allowed, counted.
      Delivered.fetch_add(1);
      if (Result.St != net::Status::Ok)
        continue;
      Successes.fetch_add(1);
      // Every successful reply must be byte-identical to the golden.
      if (Result.Diagnostics != GoldenDiags[P.Root])
        Mismatches.fetch_add(1);
      for (const net::ModuleArtifact &M : Result.Modules)
        if (Golden[P.Root][M.Name] != M.Object)
          Mismatches.fetch_add(1);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < ClientThreads; ++T)
    Threads.emplace_back(Run, T);
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_GT(Successes.load(), 0u); // The plan's rates leave room to succeed.
  Server.stop();

  // Faults are recorded in the daemon's merged counters.
  auto Stats = Server.statsSnapshot();
  EXPECT_GT(counter(Stats, "fault.hits.daemon.build"), 0u);

  // With the plan disarmed, the cache directory must verify clean: any
  // corrupt-on-write entries were healed by read-side verification or are
  // healed now, and no temp debris survived.
  fault::installPlan(nullptr);
  cache::DiskCacheStore Store(CacheDir.string());
  cache::DiskCacheStore::VerifyReport Report = Store.verifyAll(true);
  cache::DiskCacheStore::VerifyReport Again = Store.verifyAll(true);
  EXPECT_EQ(Again.Corrupt, 0u) << "corrupt entries survived healing";
  EXPECT_EQ(Again.Orphans, 0u);
  (void)Report;
  for (const auto &Entry : fs::directory_iterator(CacheDir))
    EXPECT_EQ(Entry.path().filename().string().find(".tmp"), std::string::npos)
        << "leftover temp: " << Entry.path();
  fs::remove_all(CacheDir);
}

} // namespace
