//===--- Pass.h - Stream-level optimization pass interface ------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The middle-end pass interface.  A Pass is a stateless, in-place
/// rewrite of one stream's CodeUnit: because the per-procedure unit is
/// the whole optimization scope (the paper's independence bet), passes
/// compose with concurrent compilation for free — every Statement-
/// Analyzer/Code-Generator task optimizes its own stream on the session
/// executor, with no cross-stream synchronization.
///
/// run() is const and passes hold no mutable state, so one pass instance
/// (and one PassManager) is safely shared by all codegen tasks of a
/// session.  Counters go to a thread-safe StatisticSet under `opt.*`
/// names.  A pass counts in locals and adds each counter at most once per
/// run; it never reads the set back, because every codegen task of a
/// compile shares it and a read would see other streams' counts.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_OPT_PASS_H
#define M2C_OPT_PASS_H

#include "codegen/MCode.h"
#include "support/Statistic.h"

#include <string_view>

namespace m2c::opt {

/// One semantics-preserving rewrite of a code unit.  Correctness bar:
/// the VM-observable behaviour of the program may not change, including
/// runtime traps (division by zero, range checks) — an operation that
/// could trap is never folded or deleted.
class Pass {
public:
  virtual ~Pass() = default;

  /// Short roster name ("peephole", "dse", ...); also the middle segment
  /// of this pass's opt.<name>.* counters.
  virtual std::string_view name() const = 0;

  /// Rewrites \p Unit in place; returns true exactly when the code
  /// changed.  The pipeline stops after a round in which every pass
  /// returned false, so a pass should also leave nothing to do on its own
  /// output.
  virtual bool run(codegen::CodeUnit &Unit, StatisticSet &Stats) const = 0;
};

} // namespace m2c::opt

#endif // M2C_OPT_PASS_H
