//===--- Bench.h - Shared plumbing of m2cbench -----------------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of m2cbench shares: the command-line options, the
/// result it reports (metrics with units plus attempted/failed counts),
/// seed mixing, order statistics, the clock, and the three-mode cold
/// compile.  Workloads drive m2c only through its public classes; every
/// timing here is a span the benchmark records around a call into the
/// compiler, never a counter the compiler keeps about itself.
///
//===----------------------------------------------------------------------===//

#ifndef M2CBENCH_BENCH_H
#define M2CBENCH_BENCH_H

#include "opt/OptLevel.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace m2c {
class StringInterner;
class VirtualFileSystem;
namespace sched {
class ActivitySink;
} // namespace sched
} // namespace m2c

namespace m2cbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Parsed command line.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false;       ///< Self-check size: every workload shrunk.
  std::string M2cdPath;    ///< Worker executable for the farm.
  std::string WorkDir;     ///< Scratch space; sockets, workspace, cache.
};

/// A fatal set-up or harness error: unwinds (so daemons and farm workers
/// are stopped by their destructors) and ends the run without a result.
struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What one run reports.
struct Report {
  struct Metric {
    double Value = 0;
    std::string Unit;
  };
  std::map<std::string, Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Workload sizes and sample counts for the stamp line.
  std::map<std::string, double> Info;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  /// Counts one checked operation.
  void check(bool Ok) {
    ++Attempted;
    if (!Ok)
      ++Failed;
  }
};

/// SplitMix64: spreads the --seed argument over every generated spec's
/// own seed, so two runs with different seeds share no generated input.
inline uint64_t mix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

inline uint32_t perturb(uint64_t Seed, uint32_t SpecSeed) {
  return static_cast<uint32_t>(mix(Seed * 0x100000001B3ull + SpecSeed));
}

/// Nearest-rank percentile (\p Q in [0,1]) of \p V; 0 when empty.
inline double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(Q * static_cast<double>(V.size()));
  return V[std::min(Rank, V.size() - 1)];
}

inline double median(std::vector<double> V) { return percentile(V, 0.5); }

/// Peak resident set of this process (\p Children: of its largest reaped
/// child) in MiB.
double peakRssMb(bool Children);

/// The three compilers the paper compares: SequentialCompiler, and the
/// threaded ConcurrentCompiler at P=1 and at P=4.
enum Mode : unsigned { Seq = 0, T1 = 1, T4 = 2 };
constexpr unsigned NumModes = 3;
constexpr unsigned ModeProcs[NumModes] = {1, 1, 4};

/// One mode's cold compile of one module.
struct ModeRun {
  double Ms = 0;      ///< The compile call, to its return.
  double WriteMs = 0; ///< writeObjectFile over the image.
  std::string Mco;    ///< The .mco bytes; empty if the compile failed.
  std::map<std::string, uint64_t> SchedStats;
};
using ModeRuns = std::array<ModeRun, NumModes>;
using ModeImages = std::array<std::string, NumModes>;

/// Compiles \p Module cold once per mode at \p Level, mode
/// (Rotation + K) % 3 going K-th, so host drift lands on every mode alike
/// across modules and passes.  \p Sinks[M], when set, traces mode M.
/// Counts in \p R one check per mode (it compiled, and its .mco equals
/// (*Ref)[M] when \p Ref is given) and one for the P=4 image equalling P=1.
ModeRuns compileModes(m2c::VirtualFileSystem &Files,
                      m2c::StringInterner &Interner, const std::string &Module,
                      m2c::opt::OptLevel Level, unsigned Rotation, Report &R,
                      const ModeImages *Ref = nullptr,
                      const std::array<m2c::sched::ActivitySink *, NumModes>
                          &Sinks = {});

/// Per-module compile times over repeated passes, one sample per pass.
class PassTimes {
public:
  void add(size_t Module, const ModeRuns &Runs) {
    if (Ms.size() <= Module)
      Ms.resize(Module + 1);
    for (unsigned M = 0; M < NumModes; ++M)
      Ms[Module][M].push_back(Runs[M].Ms);
  }
  size_t passes() const { return Ms.empty() ? 0 : Ms[0][0].size(); }
  /// Each module's median time in mode \p M.
  std::vector<double> moduleMedians(Mode M) const {
    std::vector<double> V;
    for (const auto &Module : Ms)
      V.push_back(median(Module[M]));
    return V;
  }
  /// One pass in mode \p M: the sum of the modules' medians, so a burst of
  /// host noise during one pass moves no module's figure.
  double passMs(Mode M) const {
    double Sum = 0;
    for (double V : moduleMedians(M))
      Sum += V;
    return Sum;
  }

private:
  std::vector<std::array<std::vector<double>, NumModes>> Ms;
};

/// Runs one workload, filling \p R.  Throws Fatal on harness errors;
/// output mismatches are counted in R.Failed instead.  A traced run sets
/// only the per-layer metrics the workload's path reaches.
void runSuiteCold(const Options &O, Report &R);
void runDaemonEdit(const Options &O, Report &R);
void runFarmReplay(const Options &O, Report &R);

} // namespace m2cbench

#endif // M2CBENCH_BENCH_H
