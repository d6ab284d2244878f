//===--- main.cpp - m2cbench: one benchmark command over m2c --------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//   m2cbench --workload suite-cold|daemon-edit|farm-replay --seed N
//            --seconds S --trace 0|1 --workdir DIR [--m2cd PATH]
//            [--revision REV] [--tiny]
//
// Prints a stamp line (host, build, sizes, sample counts), then as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.  An
// untraced run reports the end-to-end metrics, a traced run the per-layer
// ones its workload's path reaches (run.py completes the declared set).
// Exit status: 0 all outputs correct; 1 an output check failed (the
// result still prints, with "correct": false); 2 usage; 3 harness error
// (no result).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include <malloc.h>

using namespace m2cbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: m2cbench --workload suite-cold|daemon-edit|farm-replay "
               "--seed N --seconds S --trace 0|1 --workdir DIR [--m2cd PATH] "
               "[--revision REV] [--tiny]\n");
  return 2;
}

/// JSON string literal (names and units here are plain ASCII).
std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

/// Host-wide CPU ticks from /proc/stat: {steal, total}; {0, 0} when
/// unreadable.  On a shared virtual machine the steal share is the first
/// suspect when a run reads slower than its neighbours.
std::pair<uint64_t, uint64_t> cpuTicks() {
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  uint64_t Total = 0, Steal = 0, V = 0;
  Stat >> Cpu;
  for (int Field = 0; Cpu == "cpu" && Field < 8 && Stat >> V; ++Field) {
    Total += V;
    if (Field == 7)
      Steal = V;
  }
  return {Steal, Total};
}

std::string number(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Revision = "unknown";
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--tiny") {
      O.Tiny = true;
      continue;
    }
    if (!(V = Value()))
      return usage();
    if (Arg == "--workload")
      O.Workload = V;
    else if (Arg == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      O.Seconds = std::atof(V);
    else if (Arg == "--trace")
      O.Trace = std::string(V) == "1";
    else if (Arg == "--m2cd")
      O.M2cdPath = V;
    else if (Arg == "--workdir")
      O.WorkDir = V;
    else if (Arg == "--revision")
      Revision = V;
    else
      return usage();
  }
  if (O.WorkDir.empty() || !(O.Seconds > 0))
    return usage();

  // One malloc arena per processor (glibc's default: eight).  The executors
  // spawn fresh threads per compile; under the default they spread over a
  // varying number of arenas, and peak RSS moved by a fifth between runs.
  const unsigned Procs = std::max(1u, std::thread::hardware_concurrency());
  mallopt(M_ARENA_MAX, static_cast<int>(Procs));

  const auto [Steal0, Total0] = cpuTicks();
  Report R;
  try {
    if (O.Workload == "suite-cold")
      runSuiteCold(O, R);
    else if (O.Workload == "daemon-edit")
      runDaemonEdit(O, R);
    else if (O.Workload == "farm-replay")
      runFarmReplay(O, R);
    else
      return usage();
  } catch (const Fatal &E) {
    std::fprintf(stderr, "m2cbench: %s\n", E.what());
    return 3;
  }

  const double FailedRatio =
      R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 1.0;
  const auto [Steal1, Total1] = cpuTicks();
  const double StealPct =
      Total1 > Total0 ? 100.0 * (Steal1 - Steal0) / (Total1 - Total0) : 0;
  std::string Stamp = "{\"host\": {\"nproc\": " + std::to_string(Procs) +
                      ", \"malloc_arena_max\": " + std::to_string(Procs) +
                      ", \"compiler\": " + quote(M2CBENCH_COMPILER) +
                      ", \"build_type\": " + quote(M2CBENCH_BUILD_TYPE) +
                      ", \"assertions\": true, \"revision\": " +
                      quote(Revision) +
                      ", \"cpu_steal_pct\": " + number(StealPct) +
                      "}, \"workload\": " +
                      quote(O.Workload) + ", \"seed\": " +
                      std::to_string(O.Seed) + ", \"trace\": " +
                      (O.Trace ? "1" : "0") + ", \"tiny\": " +
                      (O.Tiny ? "true" : "false") +
                      ", \"failed_ratio\": " + number(FailedRatio) +
                      ", \"sizes\": {";
  bool First = true;
  for (const auto &[Name, V] : R.Info) {
    Stamp += (First ? "" : ", ") + quote(Name) + ": " + number(V);
    First = false;
  }
  Stamp += "}}";
  std::printf("stamp %s\n", Stamp.c_str());

  const bool Correct = R.Failed == 0 && R.Attempted > 0;
  std::string Out = std::string("{\"correct\": ") +
                    (Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(R.Attempted) +
                    ", \"failed\": " + std::to_string(R.Failed) +
                    ", \"metrics\": {";
  First = true;
  for (const auto &[Name, M] : R.Metrics) {
    Out += (First ? "" : ", ") + quote(Name) + ": {\"value\": " +
           number(M.Value) + ", \"unit\": " + quote(M.Unit) + "}";
    First = false;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
