//===--- CostModel.h - Virtual-time cost model for simulation --*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The build host has a single CPU core, so the paper's 1..8-processor
/// speedup experiments are reproduced on a discrete-event simulation of a
/// Firefly-class shared-memory multiprocessor.  Phase code charges
/// abstract work units (CostKind) as it performs real compilation work;
/// the CostModel maps those to virtual time.  One unit is calibrated as
/// one cycle of a ~12.5 MHz CVax processor, so UnitsPerSecond converts
/// virtual time to the seconds reported in the paper's Table 1.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_SCHED_COSTMODEL_H
#define M2C_SCHED_COSTMODEL_H

#include <array>
#include <cstdint>

namespace m2c::sched {

/// Kinds of chargeable compiler work.  Phase code reports work in these
/// units; executors translate them to virtual time via the CostModel.
enum class CostKind : uint8_t {
  LexChar,        ///< One input character scanned.
  LexToken,       ///< One token produced.
  ParseToken,     ///< One token consumed by a parser.
  DeclAnalyzed,   ///< One type/const/procedure declaration analyzed.
  VarAnalyzed,    ///< One variable/parameter/field entry created.
  LookupProbe,    ///< One scope probed during symbol lookup.
  LookupBlocked,  ///< Bookkeeping for one DKY blockage.
  StmtNode,       ///< One statement/expression node analyzed.
  EmitInstr,      ///< One MCode instruction emitted.
  SplitToken,     ///< One token examined/diverted by the Splitter.
  ImportToken,    ///< One token examined by an Importer.
  QueueBlock,     ///< One token block published/consumed.
  EventCreate,    ///< One event allocated (visible Optimistic overhead).
  MergeUnit,      ///< One code unit concatenated by the Merge task.
  CacheProbe,     ///< One token hashed by the compilation-cache prepass.
  CacheLookup,    ///< One compilation-cache store lookup or store.
};

/// Number of distinct CostKind values.
constexpr unsigned NumCostKinds =
    static_cast<unsigned>(CostKind::CacheLookup) + 1;

/// Maps CostKinds to virtual-time units and holds machine parameters of
/// the simulated multiprocessor.
struct CostModel {
  /// Units charged per occurrence of each CostKind.  Defaults are rough
  /// CVax-cycle estimates; the workload generator calibrates module sizes
  /// so sequential compile times land in the paper's 2.3..108 s range.
  std::array<uint64_t, NumCostKinds> Units = {
      /*LexChar=*/1,
      /*LexToken=*/5,
      /*ParseToken=*/45,
      /*DeclAnalyzed=*/13200,
      /*VarAnalyzed=*/1800,
      /*LookupProbe=*/420,
      /*LookupBlocked=*/900,
      /*StmtNode=*/370,
      /*EmitInstr=*/85,
      /*SplitToken=*/2,
      /*ImportToken=*/2,
      /*QueueBlock=*/250,
      /*EventCreate=*/3500,
      /*MergeUnit=*/900,
      /*CacheProbe=*/2,
      /*CacheLookup=*/1500,
  };

  /// Fixed cost of one scheduling action (assigning a task to a worker).
  uint64_t TaskDispatch = 6000;

  /// Overhead charged to a task when it waits on an already-signaled or
  /// newly-signaled event.
  uint64_t EventWaitOverhead = 300;

  /// Overhead charged when signaling an event.
  uint64_t EventSignalOverhead = 200;

  /// Memory-bus contention: while K processors are simultaneously busy,
  /// every charge is scaled by (1 + BusBeta * (K - 1)).  The Firefly's
  /// bus saturation and fixed memory-access priorities degraded all
  /// processors at high concurrency (paper section 4.1); 0.025 makes the
  /// best-case (Synth.mod) curve land on the paper's ~6.7x at 8
  /// processors instead of near-linear.  Zero disables the model.
  double BusBeta = 0.025;

  /// Virtual-time units per simulated second, used to report virtual
  /// times in seconds (Table 1's "Seq. Compile Time").
  uint64_t UnitsPerSecond = 1'250'000;

  uint64_t unitsFor(CostKind Kind, uint64_t Count) const {
    return Units[static_cast<unsigned>(Kind)] * Count;
  }
};

} // namespace m2c::sched

#endif // M2C_SCHED_COSTMODEL_H
