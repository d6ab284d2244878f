//===--- SuiteCold.cpp - suite-cold: the paper suite, module at a time ----===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// The Table 1 suite (WorkloadGenerator::paperSuite, every spec's seed
// perturbed by --seed) compiled cold at -O2, one module at a time, by the
// three compilers the paper compares: SequentialCompiler, and the threaded
// ConcurrentCompiler at P=1 and P=4.  Within a pass the three modes rotate
// their order per module, so host drift lands on all of them alike.  No
// cache, service, wire or farm is involved.
//
// Gates: every t4 .mco equals the t1 .mco of the same pass, and every mode's
// .mco equals that mode's output in the reference pass of set-up.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/ConcurrentCompiler.h"
#include "opt/PassManager.h"
#include "sched/ActivitySink.h"
#include "support/Statistic.h"
#include "workload/WorkloadGenerator.h"

#include <array>
#include <atomic>
#include <memory>
#include <numeric>

using namespace m2c;

namespace m2cbench {
namespace {

/// Busy nanoseconds per task class, summed from the executor's activity
/// intervals.  Lock-free: the threaded executor reports from every worker.
class BusySink final : public sched::ActivitySink {
public:
  void record(unsigned, const sched::Task &T, uint64_t Start,
              uint64_t End) override {
    Ns[static_cast<unsigned>(T.taskClass())].fetch_add(
        End - Start, std::memory_order_relaxed);
  }
  uint64_t take(sched::TaskClass C) {
    return Ns[static_cast<unsigned>(C)].exchange(0, std::memory_order_relaxed);
  }

private:
  std::array<std::atomic<uint64_t>, sched::NumTaskClasses> Ns{};
};

/// The generated suite in its own file system and interner.
struct Suite {
  VirtualFileSystem Files;
  StringInterner Interner;
  std::vector<workload::ModuleSpec> Specs;
  std::vector<workload::GeneratedModule> Info;
};

std::unique_ptr<Suite> generateSuite(const Options &O) {
  auto S = std::make_unique<Suite>();
  workload::WorkloadGenerator Gen(S->Files);
  std::vector<workload::ModuleSpec> All =
      workload::WorkloadGenerator::paperSuite();
  for (size_t I = 0; I < All.size(); ++I) {
    // The self-check size keeps every fifth program: all size classes,
    // without the largest.
    if (O.Tiny && I % 5 != 0)
      continue;
    All[I].Seed = perturb(O.Seed, All[I].Seed);
    S->Specs.push_back(All[I]);
    S->Info.push_back(Gen.generate(All[I]));
  }
  return S;
}

/// A SchedStats counter; a missing one is a renamed counter, not a zero.
double stat(const std::map<std::string, uint64_t> &M, const char *Name) {
  auto It = M.find(Name);
  if (It == M.end())
    throw Fatal(std::string("SchedStats has no ") + Name);
  return static_cast<double>(It->second);
}

struct TaskGroup {
  const char *Name;
  std::vector<sched::TaskClass> Classes;
};

const std::vector<TaskGroup> &taskGroups() {
  using TC = sched::TaskClass;
  static const std::vector<TaskGroup> Groups = {
      {"lex", {TC::Lexor}},
      {"split", {TC::Splitter, TC::Importer}},
      {"parse_decl.def", {TC::DefModParserDecl}},
      {"parse_decl.module", {TC::ModuleParserDecl}},
      {"parse_decl.proc", {TC::ProcParserDecl}},
      {"codegen.long", {TC::LongStmtCodeGen}},
      {"codegen.short", {TC::ShortStmtCodeGen}},
      {"merge", {TC::Merge}},
  };
  return Groups;
}

/// Adds one traced compile's per-layer figures to \p LP: busy time per
/// task class from \p Sink, the rest of P x wall, and the SchedStats.
void addLayers(Mode M, const ModeRun &Run, BusySink &Sink,
               std::map<std::string, double> &LP) {
  const std::string Sfx = M == T1 ? ".t1" : ".t4";
  double BusyMs = 0;
  for (const TaskGroup &G : taskGroups()) {
    double GroupMs = 0;
    for (sched::TaskClass TC : G.Classes)
      GroupMs += static_cast<double>(Sink.take(TC)) / 1e6;
    LP[G.Name + (".busy_ms" + Sfx)] += GroupMs;
    BusyMs += GroupMs;
  }
  LP["sched.unattributed_ms" + Sfx] += ModeProcs[M] * Run.Ms - BusyMs;
  const auto &SS = Run.SchedStats;
  LP["sched.tasks" + Sfx] += stat(SS, "sched.tasks.total");
  LP["sched.events_signaled" + Sfx] += stat(SS, "sched.events.signaled");
  LP["sched.workers_spawned" + Sfx] += stat(SS, "sched.workers.spawned");
  LP["sched.steals" + Sfx] += stat(SS, "sched.steals");
  LP["sched.barrier_wait_ms" + Sfx] +=
      stat(SS, "sched.waits.barrier_ns") / 1e6;
}

} // namespace

void runSuiteCold(const Options &O, Report &R) {
  // Set-up: generate the suite and run the reference pass (which also
  // warms the allocator and code paths), several times for a steady
  // setup_s.  The last set-up's suite is the one measured.
  const unsigned SetupReps = O.Tiny ? 1 : 3;
  std::vector<double> SetupS;
  std::unique_ptr<Suite> S;
  std::vector<ModeImages> Ref;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    Clock::time_point Start = Clock::now();
    S = generateSuite(O);
    const bool First = Ref.empty();
    for (size_t I = 0; I < S->Specs.size(); ++I) {
      ModeRuns Runs = compileModes(S->Files, S->Interner, S->Specs[I].Name,
                                   opt::OptLevel::O2, I, R,
                                   First ? nullptr : &Ref[I]);
      if (First)
        Ref.push_back({Runs[Seq].Mco, Runs[T1].Mco, Runs[T4].Mco});
    }
    SetupS.push_back(msSince(Start) / 1e3);
  }
  const size_t N = S->Specs.size();

  // Measured passes.  With --trace 1, odd passes run with the activity
  // sinks and the per-layer spans; even passes stay untraced, so the
  // tracing cost is measured inside the same run.
  PassTimes Untraced, Traced;
  std::map<std::string, std::vector<double>> Layer;
  double PassMcoBytes = 0;
  BusySink SinkT1, SinkT4;

  Clock::time_point RunStart = Clock::now();
  const unsigned MinPasses = O.Trace ? 2 : 1;
  for (unsigned P = 0; P < MinPasses || msSince(RunStart) < O.Seconds * 1e3;
       ++P) {
    const bool IsTraced = O.Trace && P % 2 == 1;
    std::array<sched::ActivitySink *, NumModes> Sinks{};
    if (IsTraced)
      Sinks = {nullptr, &SinkT1, &SinkT4};
    std::map<std::string, double> LP; // This pass's per-layer sums.
    double McoBytes = 0;
    for (size_t I = 0; I < N; ++I) {
      ModeRuns Runs = compileModes(S->Files, S->Interner, S->Specs[I].Name,
                                   opt::OptLevel::O2, I + P, R, &Ref[I],
                                   Sinks);
      (IsTraced ? Traced : Untraced).add(I, Runs);
      McoBytes += static_cast<double>(Runs[T4].Mco.size());
      if (IsTraced) {
        addLayers(T1, Runs[T1], SinkT1, LP);
        addLayers(T4, Runs[T4], SinkT4, LP);
        LP["objfile.write_ms"] += Runs[T4].WriteMs;
      }
    }
    PassMcoBytes = McoBytes;
    for (auto &[Name, V] : LP)
      Layer[Name].push_back(V);
  }

  R.Info["modules"] = static_cast<double>(N);
  R.Info["passes.untraced"] = static_cast<double>(Untraced.passes());
  R.Info["passes.traced"] = static_cast<double>(Traced.passes());
  R.Info["setup.reps"] = SetupReps;

  if (!O.Trace) {
    R.set("setup_s", median(SetupS), "s");
    R.set("compile_seq_ms", Untraced.passMs(Seq), "ms");
    R.set("compile_t1_ms", Untraced.passMs(T1), "ms");
    R.set("compile_t4_ms", Untraced.passMs(T4), "ms");
    R.set("mco_bytes", PassMcoBytes, "bytes");
    // Over the modules' median t4 times: one sample per module and pass
    // would make p99 the largest module's single slowest compile.  p50 is
    // the mean of the middle fifth, because the one middle module's time
    // moved by 40% from one seed to the next.
    std::vector<double> ModuleT4 = Untraced.moduleMedians(T4);
    std::sort(ModuleT4.begin(), ModuleT4.end());
    const size_t Lo = ModuleT4.size() * 2 / 5,
                 Hi = std::max(Lo + 1, ModuleT4.size() * 3 / 5);
    R.set("latency_ms.p50",
          std::accumulate(ModuleT4.begin() + Lo, ModuleT4.begin() + Hi, 0.0) /
              static_cast<double>(Hi - Lo),
          "ms");
    R.set("latency_ms.p99", percentile(ModuleT4, 0.99), "ms");
    double AllModesMs =
        Untraced.passMs(Seq) + Untraced.passMs(T1) + Untraced.passMs(T4);
    R.set("requests_per_s", NumModes * N / (AllModesMs / 1e3), "1/s");
    R.set("reply_bytes_per_req", PassMcoBytes / static_cast<double>(N),
          "bytes");
    R.set("peak_rss_mb", peakRssMb(false), "MB");
    return;
  }

  // Every per-pass figure is a time (its name says _ms) or a count.
  for (auto &[Name, V] : Layer)
    R.set(Name, median(V),
          Name.find("_ms") != std::string::npos ? "ms" : "count");
  R.set("trace.overhead_pct",
        100.0 * (Traced.passMs(T4) - Untraced.passMs(T4)) /
            Untraced.passMs(T4),
        "%");

  // Opt layer: the O2 roster timed over copies of the -O0 units.
  std::vector<codegen::CodeUnit> Units;
  for (size_t I = 0; I < N; ++I) {
    driver::CompilerOptions Opt;
    Opt.Level = opt::OptLevel::O0;
    Opt.Executor = driver::ExecutorKind::Threaded;
    Opt.Processors = ModeProcs[T4];
    driver::CompileResult CR =
        driver::ConcurrentCompiler(S->Files, S->Interner, Opt)
            .compile(S->Specs[I].Name);
    R.check(CR.Success);
    for (const codegen::CodeUnit &U : CR.Image.Units)
      Units.push_back(U);
  }
  opt::PassManager O2 = opt::PassManager::forLevel(opt::OptLevel::O2);
  std::vector<double> OptMs;
  double Removed = 0;
  for (unsigned Rep = 0; Rep < 3; ++Rep) {
    std::vector<codegen::CodeUnit> Copy = Units;
    StatisticSet OptStats;
    Clock::time_point Start = Clock::now();
    for (codegen::CodeUnit &U : Copy)
      O2.run(U, &OptStats);
    OptMs.push_back(msSince(Start));
    Removed = static_cast<double>(OptStats.get("opt.instrs.removed"));
  }
  R.set("opt.busy_ms", median(OptMs), "ms");
  R.set("opt.units", static_cast<double>(Units.size()), "count");
  R.set("opt.instrs_removed", Removed, "count");

  // Real t1->t4 speedup next to the simulator's P=1->P=4 prediction, per
  // Table 1 size quartile.
  std::vector<size_t> BySize(N);
  std::iota(BySize.begin(), BySize.end(), 0);
  std::sort(BySize.begin(), BySize.end(), [&](size_t A, size_t B) {
    return S->Info[A].ModuleBytes < S->Info[B].ModuleBytes;
  });
  std::vector<double> Real1 = Untraced.moduleMedians(T1),
                      Real4 = Untraced.moduleMedians(T4);
  std::vector<double> Sim1(N), Sim4(N);
  for (size_t I = 0; I < N; ++I)
    for (unsigned Procs : {1u, 4u}) {
      driver::CompilerOptions Opt;
      Opt.Level = opt::OptLevel::O2;
      Opt.Executor = driver::ExecutorKind::Simulated;
      Opt.Processors = Procs;
      driver::CompileResult CR =
          driver::ConcurrentCompiler(S->Files, S->Interner, Opt)
              .compile(S->Specs[I].Name);
      R.check(CR.Success);
      (Procs == 1 ? Sim1 : Sim4)[I] = static_cast<double>(CR.ElapsedUnits);
    }
  for (unsigned Q = 0; Q < 4; ++Q) {
    size_t Lo = N * Q / 4, Hi = N * (Q + 1) / 4;
    double S1 = 0, S4 = 0, R1 = 0, R4 = 0;
    for (size_t K = Lo; K < Hi; ++K) {
      size_t I = BySize[K];
      S1 += Sim1[I];
      S4 += Sim4[I];
      R1 += Real1[I];
      R4 += Real4[I];
    }
    std::string Q1 = ".q" + std::to_string(Q + 1);
    R.set("speedup.real" + Q1, R4 > 0 ? R1 / R4 : 0, "x");
    R.set("speedup.sim" + Q1, S4 > 0 ? S1 / S4 : 0, "x");
  }
}

} // namespace m2cbench
