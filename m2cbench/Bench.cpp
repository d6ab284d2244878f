//===--- Bench.cpp - Shared plumbing of m2cbench --------------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/ObjectFile.h"
#include "driver/ConcurrentCompiler.h"
#include "driver/SequentialCompiler.h"

#include <sys/resource.h>

using namespace m2c;

namespace m2cbench {

double peakRssMb(bool Children) {
  struct rusage U {};
  getrusage(Children ? RUSAGE_CHILDREN : RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

ModeRuns compileModes(VirtualFileSystem &Files, StringInterner &Interner,
                      const std::string &Module, opt::OptLevel Level,
                      unsigned Rotation, Report &R, const ModeImages *Ref,
                      const std::array<sched::ActivitySink *, NumModes> &Sinks) {
  ModeRuns Runs;
  for (unsigned K = 0; K < NumModes; ++K) {
    const Mode M = static_cast<Mode>((Rotation + K) % NumModes);
    driver::CompilerOptions Opt;
    Opt.Level = Level;
    Opt.Executor = driver::ExecutorKind::Threaded;
    Opt.Processors = ModeProcs[M];
    Opt.Trace = Sinks[M];
    ModeRun &Run = Runs[M];
    Clock::time_point Start = Clock::now();
    driver::CompileResult CR =
        M == Seq ? driver::SequentialCompiler(Files, Interner, Opt).compile(Module)
                 : driver::ConcurrentCompiler(Files, Interner, Opt).compile(Module);
    Run.Ms = msSince(Start);
    if (CR.Success) {
      Start = Clock::now();
      Run.Mco = codegen::writeObjectFile(CR.Image, Interner);
      Run.WriteMs = msSince(Start);
    }
    Run.SchedStats = std::move(CR.SchedStats);
    R.check(CR.Success && (!Ref || Run.Mco == (*Ref)[M]));
  }
  R.check(!Runs[T4].Mco.empty() && Runs[T4].Mco == Runs[T1].Mco);
  return Runs;
}

} // namespace m2cbench
