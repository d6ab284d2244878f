//===--- TierManager.cpp - Profiling, promotion and tier install -----------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "vm/tier/TierManager.h"

#include "sched/ThreadedExecutor.h"
#include "vm/VmStats.h"
#include "vm/tier/Translator.h"

#include <cstdlib>
#include <cstring>

using namespace m2c;
using namespace m2c::vm;
using namespace m2c::vm::tier;

//===----------------------------------------------------------------------===//
// Global vm.* counters
//===----------------------------------------------------------------------===//

StatisticSet &m2c::vm::globalVmStats() {
  static StatisticSet *Set = [] {
    auto *S = new StatisticSet();
    // Pre-touch every exported key so stats consumers (CLI -stats, the
    // daemon STATS reply) always render the full set.
    for (const char *Key :
         {"vm.runs", "vm.steps.tier0", "vm.steps.tier1", "vm.dispatch.tier1",
          "vm.tier.promotions", "vm.tier.instrs", "vm.tier.fused.groups",
          "vm.tier.fused.saved", "vm.tier.arena.bytes", "vm.tier.osr.entries",
          "vm.tier.deopts"})
      S->add(Key, 0);
    return S;
  }();
  return *Set;
}

//===----------------------------------------------------------------------===//
// TierPolicy
//===----------------------------------------------------------------------===//

TierPolicy TierPolicy::fromEnv() {
  TierPolicy P;
  if (const char *Mode = std::getenv("M2C_VM_TIER")) {
    if (!std::strcmp(Mode, "tier0") || !std::strcmp(Mode, "0"))
      P.Mode = TierMode::Tier0Only;
    else if (!std::strcmp(Mode, "force") || !std::strcmp(Mode, "1") ||
             !std::strcmp(Mode, "tier1"))
      P.Mode = TierMode::ForceTier1;
    else if (!std::strcmp(Mode, "mixed"))
      P.Mode = TierMode::Mixed;
  }
  if (const char *Thresh = std::getenv("M2C_TIER_THRESHOLD")) {
    long V = std::strtol(Thresh, nullptr, 10);
    if (V > 0) {
      P.InvocationThreshold = static_cast<uint32_t>(V);
      P.BackedgeThreshold = static_cast<uint32_t>(V) * 4;
    }
  }
  return P;
}

//===----------------------------------------------------------------------===//
// TierManager
//===----------------------------------------------------------------------===//

TierManager::TierManager(const codegen::LinkedProgram &Prog, TierPolicy Policy)
    : Prog(Prog), Policy(Policy), Units(Prog.units().size()) {
  if (Policy.Mode == TierMode::ForceTier1)
    promoteAll();
  else if (Policy.Mode == TierMode::Mixed && Policy.Background)
    Promotions = Exec.emplace(PromoteWorkers).openRequest();
}

TierManager::~TierManager() {
  if (Promotions) {
    quiesce();
    Exec->closeRequest(Promotions);
  }
}

bool TierManager::claimRequest(int32_t UnitIndex) {
  bool Expected = false;
  return Units[static_cast<size_t>(UnitIndex)].Requested.compare_exchange_strong(
      Expected, true, std::memory_order_acq_rel);
}

void TierManager::noteInvocation(int32_t UnitIndex) {
  if (Policy.Mode != TierMode::Mixed)
    return;
  PerUnit &U = Units[static_cast<size_t>(UnitIndex)];
  if (U.Requested.load(std::memory_order_relaxed))
    return;
  // Loop-free units only benefit between invocations (no OSR entry can
  // rescue a running activation), so promote them at half the threshold.
  const codegen::LinkedUnit &LU = Prog.units()[static_cast<size_t>(UnitIndex)];
  uint32_t Threshold = LU.BackedgeCount == 0
                           ? (Policy.InvocationThreshold + 1) / 2
                           : Policy.InvocationThreshold;
  if (U.Invocations.fetch_add(1, std::memory_order_relaxed) + 1 >= Threshold)
    requestPromotion(UnitIndex);
}

void TierManager::noteBackedge(int32_t UnitIndex) {
  if (Policy.Mode != TierMode::Mixed)
    return;
  PerUnit &U = Units[static_cast<size_t>(UnitIndex)];
  if (U.Requested.load(std::memory_order_relaxed))
    return;
  if (U.Backedges.fetch_add(1, std::memory_order_relaxed) + 1 >=
      Policy.BackedgeThreshold)
    requestPromotion(UnitIndex);
}

void TierManager::requestPromotion(int32_t UnitIndex) {
  if (!claimRequest(UnitIndex))
    return;
  if (!Promotions) {
    promoteNow(UnitIndex);
    return;
  }
  const std::string &Name =
      Prog.units()[static_cast<size_t>(UnitIndex)].Unit->QualifiedName;
  sched::TaskPtr T =
      sched::makeTask("tier1:" + Name, sched::TaskClass::TierPromote,
                      [this, UnitIndex] { promoteNow(UnitIndex); });
  T->setRequestTag(Promotions);
  Exec->spawn(std::move(T));
}

void TierManager::promoteNow(int32_t UnitIndex) {
  const TierUnit *TU = translateUnit(Prog, UnitIndex, Arena);
  if (!TU)
    return; // Unit stays on tier 0 forever (Requested blocks retries).
  NumPromotions.fetch_add(1, std::memory_order_relaxed);
  StatisticSet &S = globalVmStats();
  S.add("vm.tier.promotions");
  S.add("vm.tier.instrs", TU->NumInstrs);
  S.add("vm.tier.fused.groups", TU->FusedGroups);
  S.add("vm.tier.fused.saved", TU->FusedSavedDispatches);
  S.add("vm.tier.arena.bytes", TU->ArenaBytes);
  // Publish last: the release pairs with installed()'s acquire, ordering
  // every arena write above before any interpreter read through it.
  Units[static_cast<size_t>(UnitIndex)].Installed.store(
      TU, std::memory_order_release);
}

void TierManager::promoteAll() {
  for (size_t U = 0; U < Units.size(); ++U)
    if (claimRequest(static_cast<int32_t>(U)))
      promoteNow(static_cast<int32_t>(U));
}

void TierManager::quiesce() {
  if (Promotions)
    Exec->awaitRequest(Promotions);
}
