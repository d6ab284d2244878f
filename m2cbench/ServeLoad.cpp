//===--- ServeLoad.cpp - daemon-edit and farm-replay over the wire -------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// Two closed-loop loads over a generated request set (overlapping projects
// at -O0), driven through net::RemoteClient:
//
//   daemon-edit  an in-process daemon::Daemon on a unix socket, over
//                bench_daemon's request set.  Each client owns disjoint
//                projects and pushes a unique procedure-body edit with
//                every BUILD (bench_farm's edit), the way an editor waits
//                for each rebuild: one module recompiles, its siblings
//                replay from the memory tier.
//   farm-replay  a farm::Farm coordinator over two m2cd worker processes
//                with unbounded interface pools, over bench_farm's request
//                set.  Every BUILD rebuilds an unchanged project, so every
//                module is a whole-module cache hit and the coordinator
//                relay and the wire dominate.
//
// Set-up builds every implementation module cold, one at a time, with each
// of the three compilers (the compile_*_ms figures of these workloads); the
// P=4 images are the references every reply is checked against.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "build/BuildSession.h"
#include "codegen/ObjectFile.h"
#include "daemon/Daemon.h"
#include "farm/Farm.h"
#include "net/RemoteClient.h"
#include "workload/WorkloadGenerator.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <thread>

using namespace m2c;

namespace m2cbench {
namespace {

unsigned hostCores() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// What tells the two serve workloads apart.
struct ServeKind {
  bool Farm = false;  ///< A farm over m2cd workers, else an in-process daemon.
  bool Edits = false; ///< Every BUILD pushes a unique body edit.
};

constexpr unsigned FarmWorkers = 2;

/// The request set, in the shape of the committed bench each workload
/// follows, so their recorded figures size it: daemon-edit takes
/// bench_daemon's (4 projects of 5 modules over 4 common interfaces;
/// BENCH_daemon.json: about 75 KB of artifacts per reply), farm-replay
/// bench_farm's (8 projects of 3 modules over 24 common interfaces of 384
/// declarations, imported through the project defs; BENCH_farm.json).  The
/// self-check size is each bench's --quick shape.
workload::RequestSetSpec requestSpec(const Options &O, const ServeKind &K) {
  workload::RequestSetSpec Spec;
  if (K.Farm) {
    Spec.Name = "Farm";
    Spec.NumProjects = O.Tiny ? 4 : 8;
    Spec.CommonInterfaces = 24;
    Spec.ModulesPerProject = 3;
    Spec.ProjectInterfaces = 2;
    Spec.ProcsPerModule = 2;
    Spec.MeanProcStmts = 4;
    Spec.InterfaceDecls = 384;
    Spec.CommonImportsViaDefs = true;
  } else {
    Spec.NumProjects = O.Tiny ? 2 : 4;
    Spec.CommonInterfaces = 4;
    Spec.ModulesPerProject = O.Tiny ? 3 : 5;
    Spec.ProjectInterfaces = 2;
  }
  Spec.Seed = perturb(O.Seed, Spec.Seed);
  return Spec;
}

/// The generated request set: base sources plus cold reference images.
struct Inputs {
  std::map<std::string, std::string> Base; ///< File name -> text.
  workload::GeneratedRequestSet Set;
  std::vector<std::string> Modules;        ///< Every implementation module.
  std::map<std::string, ModeImages> Ref;   ///< Module -> cold .mco per mode.
  size_t RefBytes = 0; ///< .mco bytes of one build of every project.

  /// The image a server must reply for \p Module.
  const std::string *image(const std::string &Module) const {
    auto It = Ref.find(Module);
    return It == Ref.end() ? nullptr : &It->second[T4];
  }
};

/// Builds every module of \p In cold, one at a time, in every mode
/// (\p Pass shifts the rotation), adding the times to \p Times if given.
/// Each mode must reproduce In.Ref, which the first pass fills.
void compilePass(Inputs &In, unsigned Pass, Report &R,
                 PassTimes *Times = nullptr) {
  VirtualFileSystem Files;
  for (const auto &[Name, Text] : In.Base)
    Files.addFile(Name, Text);
  StringInterner Interner;
  for (size_t I = 0; I < In.Modules.size(); ++I) {
    const std::string &Name = In.Modules[I];
    auto It = In.Ref.find(Name);
    const bool First = It == In.Ref.end();
    ModeRuns Runs = compileModes(Files, Interner, Name, opt::OptLevel::O0,
                                 I + Pass, R, First ? nullptr : &It->second);
    if (First)
      In.Ref[Name] = {Runs[Seq].Mco, Runs[T1].Mco, Runs[T4].Mco};
    if (Times)
      Times->add(I, Runs);
  }
}

/// Generates the request set and runs the reference pass.  \p Prior, from
/// an earlier set-up of the same run, must get identical references.
std::unique_ptr<Inputs> prepare(const workload::RequestSetSpec &Spec,
                                const Inputs *Prior, Report &R) {
  auto In = std::make_unique<Inputs>();
  VirtualFileSystem Files;
  In->Set = workload::WorkloadGenerator(Files).generateRequestSet(Spec);
  for (const std::string &Name : Files.names())
    In->Base[Name] = Files.lookup(Name)->Text;
  std::set<std::string> Modules;
  for (const workload::GeneratedProject &P : In->Set.Projects)
    Modules.insert(P.Modules.begin(), P.Modules.end());
  In->Modules.assign(Modules.begin(), Modules.end());
  if (Prior)
    In->Ref = Prior->Ref;
  compilePass(*In, 0, R);
  for (const workload::GeneratedProject &P : In->Set.Projects)
    for (const std::string &M : P.Modules)
      In->RefBytes += In->image(M)->size();
  return In;
}

/// Share of an untraced run's seconds spent on compile passes; the load
/// gets the rest.
constexpr double CompileShare = 0.3;

/// The compile_*_ms figures of an untraced run: repeated cold passes over
/// the workload's modules, for CompileShare of the run and at least three
/// passes, with \p In (left as the reference for set-up) from a first
/// pass.  They run before anything else: interleaved with the load
/// blocks, passes read up to 2x slower at random, seq most, with the
/// daemon in the same process.
PassTimes timeCompilePasses(const Options &O,
                            const workload::RequestSetSpec &Spec,
                            std::unique_ptr<Inputs> &In, Report &R) {
  PassTimes Times;
  if (O.Trace)
    return Times;
  In = prepare(Spec, nullptr, R);
  const unsigned MinPasses = O.Tiny ? 2 : 3;
  Clock::time_point Start = Clock::now();
  for (unsigned P = 0;
       P < MinPasses || msSince(Start) < CompileShare * O.Seconds * 1e3; ++P)
    compilePass(*In, P + 1, R, &Times);
  return Times;
}

/// The server under load: an in-process daemon over its own copy of the
/// sources, or a farm coordinator whose workers read a workspace on disk.
/// Destruction stops it (the farm reaps every worker).
struct Backend {
  std::unique_ptr<VirtualFileSystem> Files;
  std::unique_ptr<StringInterner> Interner;
  std::unique_ptr<daemon::Daemon> Daemon;
  std::unique_ptr<farm::Farm> Farm;
  std::string Address;
};

std::unique_ptr<Backend> startBackend(const Options &O, const ServeKind &K,
                                      const Inputs &In, unsigned Rep) {
  auto B = std::make_unique<Backend>();
  const std::string Tag = std::to_string(Rep);
  std::string Err;
  if (!K.Farm) {
    B->Files = std::make_unique<VirtualFileSystem>();
    for (const auto &[Name, Text] : In.Base)
      B->Files->addFile(Name, Text);
    B->Interner = std::make_unique<StringInterner>();
    daemon::DaemonConfig Config;
    Config.Service.Level = opt::OptLevel::O0;
    B->Address = O.WorkDir + "/d" + Tag + ".sock";
    Config.UnixSocketPath = B->Address;
    B->Daemon = std::make_unique<daemon::Daemon>(*B->Files, *B->Interner,
                                                  Config);
    if (!B->Daemon->start(Err))
      throw Fatal("daemon start: " + Err);
    return B;
  }
  std::string Workspace = O.WorkDir + "/ws" + Tag;
  std::filesystem::create_directories(Workspace);
  for (const auto &[Name, Text] : In.Base) {
    std::ofstream Out(Workspace + "/" + Name, std::ios::binary);
    Out << Text;
    if (!Out)
      throw Fatal("cannot write workspace file " + Name);
  }
  farm::FarmConfig Config;
  B->Address = O.WorkDir + "/f" + Tag + ".sock";
  Config.UnixSocketPath = B->Address;
  Config.Workers = FarmWorkers;
  Config.Worker.M2cdPath = O.M2cdPath;
  Config.Worker.Workspace = Workspace;
  Config.Worker.CacheDir = O.WorkDir + "/cache" + Tag;
  Config.Worker.Jobs = 2;
  Config.Worker.PoolCap = 0;
  B->Farm = std::make_unique<farm::Farm>(Config);
  if (!B->Farm->start(Err))
    throw Fatal("farm start: " + Err);
  return B;
}

/// Appends one fresh procedure before the module's exported Work
/// procedure: a body-only change, unique per \p EditId, so the module
/// misses the cache while every sibling replays.
std::string withEdit(const std::string &Base, uint64_t EditId) {
  std::string Proc = "PROCEDURE BenchEdit(x: INTEGER): INTEGER;\n"
                     "BEGIN RETURN x * " +
                     std::to_string(3 + EditId % 7) + " + " +
                     std::to_string(EditId) + " END BenchEdit;\n";
  size_t P = Base.rfind("PROCEDURE Work");
  if (P == std::string::npos)
    throw Fatal("edit anchor not found");
  return Base.substr(0, P) + Proc + Base.substr(P);
}

/// The module a project's edits go to: the last library module, which
/// imports every common and project interface.
std::string editedModule(const workload::GeneratedProject &P) {
  return P.Modules[P.Modules.size() - 2];
}

std::unique_ptr<net::RemoteClient> connect(const std::string &Address) {
  std::string Err;
  auto C = net::RemoteClient::open(Address, Err);
  if (!C)
    throw Fatal("connect " + Address + ": " + Err);
  return C;
}

/// An unedited -O0 BUILD of \p Root.
net::BuildRequestMsg buildRequest(net::RemoteClient &C,
                                  const std::string &Root) {
  net::BuildRequestMsg Req;
  Req.RequestId = C.nextRequestId();
  Req.OptLevel = 0;
  Req.Roots = {Root};
  return Req;
}

std::map<std::string, uint64_t> stats(net::RemoteClient &C) {
  std::map<std::string, uint64_t> M;
  std::string Err;
  if (!C.stats(M, Err))
    throw Fatal("STATS: " + Err);
  return M;
}

/// True if every artifact of \p Res is its module's reference image,
/// except \p Skip (the module this request edited).
bool matchesReference(const net::BuildResultMsg &Res, const Inputs &In,
                      const workload::GeneratedProject &P,
                      const std::string &Skip) {
  if (Res.St != net::Status::Ok || Res.Modules.size() != P.Modules.size())
    return false;
  for (const net::ModuleArtifact &A : Res.Modules) {
    if (A.Name == Skip)
      continue;
    const std::string *Ref = In.image(A.Name);
    if (!Ref || *Ref != A.Object)
      return false;
  }
  return true;
}

/// One edited request kept for the standalone check after the run.
struct EditSample {
  size_t Project = 0;
  std::string Text; ///< The pushed .mod text.
  net::BuildResultMsg Reply;
};

/// What one client thread saw during one block.
struct ClientLog {
  std::vector<double> LatMs, ServerMs;
  uint64_t Requests = 0, Failed = 0, Compiled = 0;
  double ReplyBytes = 0;
  uint64_t ReplyBytesN = 0;
  std::vector<EditSample> Samples;
  std::vector<net::BuildResultMsg> Captured;
};

/// The load's shape: what each client's requests carry.
struct Load {
  const Inputs *In = nullptr;
  bool Edits = false;
  unsigned Clients = 1;
  uint64_t Seed = 1;
  uint64_t EditBase = 0;
};

/// A client's persistent state across blocks.
struct Client {
  unsigned Index = 0;
  std::unique_ptr<net::RemoteClient> Conn;
  uint64_t Next = 0; ///< Requests sent so far.
  size_t SamplesKept = 0;
};

constexpr unsigned SampleEvery = 32; ///< Edited requests checked standalone.
constexpr size_t SamplesPerClient = 4;
constexpr size_t CapturePerClient = 16;

/// Sends closed-loop BUILDs until \p Deadline.
void clientLoop(const Load &L, Client &C, Clock::time_point Deadline,
                bool Capture, ClientLog &Log) {
  const auto &Projects = L.In->Set.Projects;
  while (Clock::now() < Deadline) {
    uint64_t K = C.Next++;
    size_t Proj;
    if (L.Edits) {
      // Clients own disjoint projects: p = Index, Index+Clients, ...
      size_t Owned = (Projects.size() - C.Index + L.Clients - 1) / L.Clients;
      Proj = C.Index + (K % Owned) * L.Clients;
    } else {
      Proj = (C.Index + K) % Projects.size();
    }
    const workload::GeneratedProject &P = Projects[Proj];
    net::BuildRequestMsg Req = buildRequest(*C.Conn, P.Root);
    std::string Skip;
    uint64_t EditId = 0;
    if (L.Edits) {
      EditId = L.EditBase + K * L.Clients + C.Index;
      Skip = editedModule(P);
      std::string File = VirtualFileSystem::modFileName(Skip);
      Req.Files.emplace_back(File, withEdit(L.In->Base.at(File), EditId));
    }

    net::BuildResultMsg Res;
    std::string Err;
    Clock::time_point Start = Clock::now();
    bool Sent = C.Conn->build(Req, Res, Err);
    double Ms = msSince(Start);
    ++Log.Requests;
    if (!Sent) {
      ++Log.Failed;
      std::fprintf(stderr, "m2cbench: BUILD failed: %s\n", Err.c_str());
      return;
    }
    bool Ok = matchesReference(Res, *L.In, P, Skip);
    if (!Ok) {
      ++Log.Failed;
      std::fprintf(stderr, "m2cbench: reply for %s differs from reference "
                           "(%s)\n",
                   P.Root.c_str(), net::statusName(Res.St));
    }
    Log.LatMs.push_back(Ms);
    Log.ServerMs.push_back(static_cast<double>(Res.ElapsedNs) / 1e6);
    for (const net::ModuleArtifact &A : Res.Modules)
      Log.Compiled += A.FromCache ? 0 : 1;
    if (K % 8 == 0 || Capture) {
      Log.ReplyBytes +=
          static_cast<double>(net::encode(Res).Payload.size() + 5);
      ++Log.ReplyBytesN;
    }
    if (Ok && L.Edits && C.SamplesKept < SamplesPerClient &&
        mix(L.Seed ^ EditId) % SampleEvery == 0) {
      ++C.SamplesKept;
      Log.Samples.push_back({Proj, Req.Files[0].second, std::move(Res)});
    } else if (Capture && Log.Captured.size() < CapturePerClient) {
      Log.Captured.push_back(std::move(Res));
    }
  }
}

/// Cold standalone BuildSession over the base sources with \p S's edit
/// applied: the reference for an edited reply, diagnostics included.
bool standaloneMatches(const Inputs &In, const EditSample &S) {
  const workload::GeneratedProject &P = In.Set.Projects[S.Project];
  std::string File = VirtualFileSystem::modFileName(editedModule(P));
  VirtualFileSystem Files;
  for (const auto &[Name, Text] : In.Base)
    Files.addFile(Name, Name == File ? S.Text : Text);
  StringInterner Interner;
  driver::CompilerOptions Opt;
  Opt.Level = opt::OptLevel::O0;
  Opt.Executor = driver::ExecutorKind::Threaded;
  Opt.Processors = 2;
  build::BuildResult B =
      build::BuildSession(Files, Interner, Opt).build({P.Root});
  if (!B.Success || B.DiagnosticText != S.Reply.Diagnostics ||
      B.Modules.size() != S.Reply.Modules.size())
    return false;
  for (const build::ModuleBuild &M : B.Modules) {
    bool Found = false;
    for (const net::ModuleArtifact &A : S.Reply.Modules)
      if (A.Name == M.Name)
        Found = A.Object == codegen::writeObjectFile(M.Image, Interner);
    if (!Found)
      return false;
  }
  return true;
}

/// Aggregates over blocks of one kind (untraced or traced).
struct Totals {
  std::vector<double> LatMs, ServerMs;
  uint64_t Requests = 0, Compiled = 0;
  double ReplyBytes = 0;
  uint64_t ReplyBytesN = 0;
  std::map<std::string, uint64_t> Stats; ///< STATS deltas (traced only).
  std::vector<net::BuildResultMsg> Captured;
  /// Per block: requests per second, and the latency percentiles.
  std::vector<double> BlockRps, BlockP50, BlockP99;

  void add(ClientLog &Log) {
    LatMs.insert(LatMs.end(), Log.LatMs.begin(), Log.LatMs.end());
    ServerMs.insert(ServerMs.end(), Log.ServerMs.begin(), Log.ServerMs.end());
    Requests += Log.Requests;
    Compiled += Log.Compiled;
    ReplyBytes += Log.ReplyBytes;
    ReplyBytesN += Log.ReplyBytesN;
    for (net::BuildResultMsg &M : Log.Captured)
      Captured.push_back(std::move(M));
  }
  double rps() const { return median(BlockRps); }
};

/// The STATS counters a traced block reads.  Optional ones appear only
/// once their event first happens; any other missing counter has been
/// renamed, and the run stops rather than report it as 0.
struct Counter {
  const char *Name;
  bool FarmOnly;
  bool Optional;
};
constexpr Counter Counters[] = {
    {"cache.mem.hit", false, false},
    {"cache.mem.miss", false, false},
    {"service.interface.parses", false, false},
    {"sched.tasks.total", false, false},
    {"sched.events.signaled", false, false},
    {"sched.requests.deferred", false, false},
    {"farm.requests.received", true, false},
    {"farm.requests.spilled", true, true},
    {"farm.requests.retried", true, true},
};

/// Runs the measured blocks, about one a second, for the run's seconds
/// less the compile passes' share.  With --trace 1, odd blocks are traced:
/// STATS deltas around them and captured replies for the codec timing.
void measure(const Options &O, const ServeKind &K, const Load &L,
             std::vector<Client> &Clients, net::RemoteClient &StatsConn,
             Report &R, Totals &Untraced, Totals &Traced,
             std::vector<EditSample> &Samples) {
  const double Seconds = O.Trace ? O.Seconds : (1 - CompileShare) * O.Seconds;
  const unsigned Blocks = std::max(2u, static_cast<unsigned>(Seconds + 0.5));
  const double BlockMs = Seconds * 1e3 / Blocks;
  for (unsigned B = 0; B < Blocks; ++B) {
    const bool IsTraced = O.Trace && B % 2 == 1;
    std::map<std::string, uint64_t> Before;
    if (IsTraced)
      Before = stats(StatsConn);
    std::vector<ClientLog> Logs(Clients.size());
    Clock::time_point Start = Clock::now();
    Clock::time_point Deadline =
        Start + std::chrono::microseconds(static_cast<int64_t>(BlockMs * 1e3));
    {
      std::vector<std::jthread> Threads;
      for (size_t C = 0; C < Clients.size(); ++C)
        Threads.emplace_back([&, C] {
          clientLoop(L, Clients[C], Deadline, IsTraced, Logs[C]);
        });
    }
    double Wall = msSince(Start);
    Totals &T = IsTraced ? Traced : Untraced;
    uint64_t BlockRequests = 0;
    std::vector<double> BlockLatMs;
    for (ClientLog &Log : Logs) {
      BlockRequests += Log.Requests;
      BlockLatMs.insert(BlockLatMs.end(), Log.LatMs.begin(), Log.LatMs.end());
      R.Attempted += Log.Requests;
      R.Failed += Log.Failed;
      T.add(Log);
      for (EditSample &S : Log.Samples)
        Samples.push_back(std::move(S));
    }
    T.BlockRps.push_back(BlockRequests / (Wall / 1e3));
    T.BlockP50.push_back(percentile(BlockLatMs, 0.5));
    T.BlockP99.push_back(percentile(BlockLatMs, 0.99));
    std::fprintf(stderr, "m2cbench: block %u%s: %llu requests, %.1f req/s\n",
                 B, IsTraced ? " (traced)" : "",
                 static_cast<unsigned long long>(BlockRequests),
                 BlockRequests / (Wall / 1e3));
    if (!IsTraced)
      continue;
    std::map<std::string, uint64_t> After = stats(StatsConn);
    for (const Counter &C : Counters) {
      if (C.FarmOnly && !K.Farm)
        continue;
      auto A = After.find(C.Name), Bf = Before.find(C.Name);
      if (A == After.end() && !C.Optional)
        throw Fatal(std::string("STATS has no ") + C.Name);
      T.Stats[C.Name] += (A == After.end() ? 0 : A->second) -
                         (Bf == Before.end() ? 0 : Bf->second);
    }
  }
}

/// Relay cost, traced farm runs only: the same BUILD through the
/// coordinator (\p Via) and straight to the worker that owns its shard,
/// back to back.  Returns the span differences in milliseconds.
std::vector<double> relaySpans(farm::Farm &Farm, net::RemoteClient &Via,
                               const Inputs &In, Report &R) {
  std::vector<std::unique_ptr<net::RemoteClient>> Direct;
  for (unsigned W = 0; W < FarmWorkers; ++W)
    Direct.push_back(connect(Farm.workerAddress(W)));
  std::vector<double> RelayMs;
  Clock::time_point Start = Clock::now();
  for (size_t K = 0; RelayMs.size() < 400 && msSince(Start) < 2000; ++K) {
    const workload::GeneratedProject &P =
        In.Set.Projects[K % In.Set.Projects.size()];
    net::RemoteClient &To =
        *Direct[farm::Farm::affinityShard({P.Root}, FarmWorkers)];
    double Span[2];
    for (unsigned Side = 0; Side < 2; ++Side) {
      net::RemoteClient &C = Side == 0 ? Via : To;
      net::BuildRequestMsg Req = buildRequest(C, P.Root);
      net::BuildResultMsg Res;
      std::string Err;
      Clock::time_point S0 = Clock::now();
      bool Sent = C.build(Req, Res, Err);
      Span[Side] = msSince(S0);
      R.check(Sent && matchesReference(Res, In, P, ""));
    }
    RelayMs.push_back(Span[0] - Span[1]);
  }
  return RelayMs;
}

/// The end-to-end metrics both serve workloads report.
void reportEndToEnd(Report &R, const Totals &U,
                    const std::vector<double> &Setup, const PassTimes &Times,
                    const Inputs &In, double RssMb) {
  R.set("setup_s", median(Setup), "s");
  R.set("compile_seq_ms", Times.passMs(Seq), "ms");
  R.set("compile_t1_ms", Times.passMs(T1), "ms");
  R.set("compile_t4_ms", Times.passMs(T4), "ms");
  R.set("mco_bytes", static_cast<double>(In.RefBytes), "bytes");
  // Medians over blocks: a burst of host noise moves one block's figure.
  R.set("latency_ms.p50", median(U.BlockP50), "ms");
  R.set("latency_ms.p99", median(U.BlockP99), "ms");
  R.set("requests_per_s", U.rps(), "1/s");
  R.set("reply_bytes_per_req",
        U.ReplyBytesN ? U.ReplyBytes / U.ReplyBytesN : 0, "bytes");
  R.set("peak_rss_mb", RssMb, "MB");
}

/// The per-layer metrics both serve workloads report from traced blocks.
void reportLayers(Report &R, const Totals &U, const Totals &T, bool Farm) {
  std::vector<double> Overhead;
  for (size_t I = 0; I < T.LatMs.size(); ++I)
    Overhead.push_back(T.LatMs[I] - T.ServerMs[I]);
  R.set("server_ms.p50", percentile(T.ServerMs, 0.5), "ms");
  R.set("server_ms.p99", percentile(T.ServerMs, 0.99), "ms");
  R.set("net.overhead_ms.p50", percentile(Overhead, 0.5), "ms");
  R.set("net.overhead_ms.p99", percentile(Overhead, 0.99), "ms");

  // Codec cost over the captured replies: encode each, then decode it.
  std::vector<net::Frame> Frames;
  double EncodeUs = 0, DecodeUs = 0;
  const unsigned Reps = 5;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    Frames.clear();
    Clock::time_point Start = Clock::now();
    for (const net::BuildResultMsg &M : T.Captured)
      Frames.push_back(net::encode(M));
    EncodeUs += msSince(Start) * 1e3;
    Start = Clock::now();
    for (const net::Frame &F : Frames) {
      net::BuildResultMsg M;
      if (!net::decode(F, M))
        throw Fatal("captured reply does not decode");
    }
    DecodeUs += msSince(Start) * 1e3;
  }
  double NCodec =
      static_cast<double>(Reps * std::max<size_t>(1, T.Captured.size()));
  R.set("net.encode_reply_us", EncodeUs / NCodec, "us");
  R.set("net.decode_reply_us", DecodeUs / NCodec, "us");

  auto S = [&](const char *Name) {
    auto It = T.Stats.find(Name);
    return It == T.Stats.end() ? 0.0 : static_cast<double>(It->second);
  };
  double Reqs = static_cast<double>(std::max<uint64_t>(1, T.Requests));
  double Probes = S("cache.mem.hit") + S("cache.mem.miss");
  R.set("cache.mem.hit_ratio", Probes ? S("cache.mem.hit") / Probes : 0,
        "ratio");
  R.set("build.compiled_per_req", T.Compiled / Reqs, "count");
  R.set("service.interface.parses_per_req",
        S("service.interface.parses") / Reqs, "count");
  R.set("sched.tasks_per_req", S("sched.tasks.total") / Reqs, "count");
  R.set("sched.events_per_req", S("sched.events.signaled") / Reqs, "count");
  R.set("sched.requests.deferred", S("sched.requests.deferred"), "count");

  // The headline each workload is judged by: BUILD latency for the
  // daemon, throughput for the farm.  Positive means tracing costs.
  if (Farm) {
    R.set("farm.spill_ratio",
          S("farm.requests.received") ? S("farm.requests.spilled") /
                                            S("farm.requests.received")
                                      : 0,
          "ratio");
    R.set("farm.requests.retried", S("farm.requests.retried"), "count");
    R.set("trace.overhead_pct", 100.0 * (U.rps() - T.rps()) / U.rps(), "%");
  } else {
    double Un = median(U.BlockP50), Tr = median(T.BlockP50);
    R.set("trace.overhead_pct", 100.0 * (Tr - Un) / Un, "%");
  }
}

void runServe(const Options &O, const ServeKind &K, Report &R) {
  workload::RequestSetSpec Spec = requestSpec(O, K);
  const unsigned SetupReps = O.Tiny ? 1 : 3;

  std::unique_ptr<Inputs> In;
  PassTimes Times = timeCompilePasses(O, Spec, In, R);
  std::unique_ptr<Backend> Server;
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    Server.reset();
    Clock::time_point Start = Clock::now();
    In = prepare(Spec, In.get(), R);
    Server = startBackend(O, K, *In, Rep);

    // Warm-up: every project once, unedited, so the memory tier (on the
    // farm: each worker's pool and tier) holds it.
    auto Warm = connect(Server->Address);
    for (const workload::GeneratedProject &P : In->Set.Projects) {
      net::BuildRequestMsg Req = buildRequest(*Warm, P.Root);
      net::BuildResultMsg Res;
      std::string Err;
      R.check(Warm->build(Req, Res, Err) && matchesReference(Res, *In, P, ""));
    }
    SetupS.push_back(msSince(Start) / 1e3);
  }

  Load L;
  L.In = In.get();
  L.Edits = K.Edits;
  // Editing clients own disjoint projects: no more clients than projects.
  L.Clients = std::min(hostCores(), 4u);
  if (K.Edits)
    L.Clients = std::min(L.Clients, Spec.NumProjects);
  L.Seed = O.Seed;
  L.EditBase = mix(O.Seed) % 1000000;
  std::vector<Client> Conns(L.Clients);
  for (unsigned C = 0; C < L.Clients; ++C) {
    Conns[C].Index = C;
    Conns[C].Conn = connect(Server->Address);
  }
  auto StatsConn = connect(Server->Address);
  Totals U, T;
  std::vector<EditSample> Samples;
  measure(O, K, L, Conns, *StatsConn, R, U, T, Samples);
  Conns.clear();
  std::vector<double> RelayMs;
  if (K.Farm && O.Trace)
    RelayMs = relaySpans(*Server->Farm, *StatsConn, *In, R);
  StatsConn.reset();
  Server.reset();

  // The edited replies kept as samples, against a cold standalone session.
  for (const EditSample &S : Samples) {
    bool Ok = standaloneMatches(*In, S);
    R.check(Ok);
    if (!Ok)
      std::fprintf(stderr, "m2cbench: edited reply differs from a cold "
                           "standalone session\n");
  }

  R.Info["projects"] = Spec.NumProjects;
  R.Info["modules"] = static_cast<double>(In->Modules.size());
  R.Info["files"] = static_cast<double>(In->Base.size());
  R.Info["clients"] = L.Clients;
  R.Info["latency.samples"] = static_cast<double>(U.LatMs.size());
  R.Info["latency.samples.traced"] = static_cast<double>(T.LatMs.size());
  R.Info["compile.passes"] = static_cast<double>(Times.passes());
  if (K.Edits)
    R.Info["edit.samples"] = static_cast<double>(Samples.size());
  if (K.Farm)
    R.Info["workers"] = FarmWorkers;

  if (!O.Trace) {
    // The farm's workers are reaped by now: RUSAGE_CHILDREN has the
    // largest one's peak.
    reportEndToEnd(R, U, SetupS, Times, *In,
                   peakRssMb(false) + (K.Farm ? peakRssMb(true) : 0));
    return;
  }
  reportLayers(R, U, T, K.Farm);
  if (K.Farm) {
    R.set("farm.relay_ms.p50", percentile(RelayMs, 0.5), "ms");
    R.set("farm.relay_ms.p99", percentile(RelayMs, 0.99), "ms");
    R.Info["relay.samples"] = static_cast<double>(RelayMs.size());
  }
}

} // namespace

void runDaemonEdit(const Options &O, Report &R) {
  runServe(O, {/*Farm=*/false, /*Edits=*/true}, R);
}

void runFarmReplay(const Options &O, Report &R) {
  runServe(O, {/*Farm=*/true, /*Edits=*/false}, R);
}

} // namespace m2cbench
