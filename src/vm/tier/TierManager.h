//===--- TierManager.h - Profiling, promotion and tier install --*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns the tiering state of one LinkedProgram: per-unit invocation and
/// backedge counters fed by the tier-0 interpreter, the promotion queue,
/// the CodeArena behind every translated unit, and the per-unit installed
/// code pointer the interpreter consults.
///
/// Promotion protocol (the memory-ordering argument, see DESIGN.md §13):
/// a promotion task translates from *immutable* linked-program data into
/// fresh arena memory, then publishes the TierUnit with a release store
/// to the unit's Installed pointer.  The interpreter acquire-loads that
/// pointer at dispatch-switch points (calls, returns, loop backedges), so
/// every instruction it then reads through the pointer happens-before-
/// ordered after the translator's writes.  Arena chunks never move or
/// free while the manager lives, so a pointer once observed stays valid;
/// the interpreter is never paused.
///
/// A TierManager may be shared by several VMs running the same
/// LinkedProgram (promoted units carry no per-VM state), which is how
/// benchmarks keep a warm tier across fresh VM instances.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_VM_TIER_TIERMANAGER_H
#define M2C_VM_TIER_TIERMANAGER_H

#include "sched/ThreadedExecutor.h"
#include "vm/tier/CodeArena.h"
#include "vm/tier/TierUnit.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

namespace m2c::vm::tier {

/// How a VM executes.
enum class TierMode : uint8_t {
  Tier0Only, ///< Pure interpreter; no profiling, no promotion.
  Mixed,     ///< Profile, promote hot units concurrently (the default).
  ForceTier1 ///< Every unit promoted eagerly before execution.
};

/// Tiering knobs.  Defaults come from the environment (M2C_VM_TIER =
/// tier0|mixed|force, M2C_TIER_THRESHOLD = invocation threshold) so the
/// whole test suite can be pinned to one tier without code changes.
struct TierPolicy {
  TierMode Mode = TierMode::Mixed;
  /// Invocations of a unit before it is enqueued for promotion.
  uint32_t InvocationThreshold = 64;
  /// Loop backedges executed in a unit before it is enqueued (hot loops
  /// promote long before their procedure's call count would).
  uint32_t BackedgeThreshold = 256;
  /// Promote concurrently on a work-stealing executor (false = translate
  /// synchronously at the trigger point; deterministic, used by tests).
  bool Background = true;

  static TierPolicy fromEnv();
};

/// Per-program tiering state; thread-safe throughout.
class TierManager {
public:
  explicit TierManager(const codegen::LinkedProgram &Prog,
                       TierPolicy Policy = TierPolicy::fromEnv());
  ~TierManager();
  TierManager(const TierManager &) = delete;
  TierManager &operator=(const TierManager &) = delete;

  const codegen::LinkedProgram &program() const { return Prog; }
  const TierPolicy &policy() const { return Policy; }

  /// The installed tier-1 unit for \p UnitIndex, or null while it is
  /// still interpreting.  Acquire: pairs with the install release store.
  const TierUnit *installed(int32_t UnitIndex) const {
    return Units[static_cast<size_t>(UnitIndex)].Installed.load(
        std::memory_order_acquire);
  }

  /// Tier-0 profiling events; cross the threshold and the unit is
  /// enqueued for promotion exactly once.
  void noteInvocation(int32_t UnitIndex);
  void noteBackedge(int32_t UnitIndex);

  /// Synchronously promotes every unit (ForceTier1 startup, tests).
  void promoteAll();

  /// Blocks until no background promotion is in flight: awaits the
  /// promotion request.
  void quiesce();

  uint64_t promotions() const {
    return NumPromotions.load(std::memory_order_relaxed);
  }
  const CodeArena &arena() const { return Arena; }

private:
  struct PerUnit {
    std::atomic<const TierUnit *> Installed{nullptr};
    std::atomic<uint32_t> Invocations{0};
    std::atomic<uint32_t> Backedges{0};
    /// Promotion enqueued (or done, or permanently refused).
    std::atomic<bool> Requested{false};
  };

  /// Marks the unit requested; returns true for the claiming caller.
  bool claimRequest(int32_t UnitIndex);
  /// Enqueues (Background) or runs (synchronous) one promotion.
  void requestPromotion(int32_t UnitIndex);
  /// Translates and installs one unit.  Runs on a promotion worker.
  void promoteNow(int32_t UnitIndex);

  /// Worker threads of the promotion executor.
  static constexpr unsigned PromoteWorkers = 2;

  const codegen::LinkedProgram &Prog;
  const TierPolicy Policy;
  std::vector<PerUnit> Units;
  CodeArena Arena;

  /// Background promotions run as one request, open for the manager's
  /// lifetime, on a private executor (Mixed + Background only).  Its
  /// workers start with the first promotion, so a VM that never promotes
  /// starts no thread.
  std::optional<sched::ThreadedExecutor> Exec;
  std::shared_ptr<void> Promotions;

  std::atomic<uint64_t> NumPromotions{0};
};

} // namespace m2c::vm::tier

#endif // M2C_VM_TIER_TIERMANAGER_H
