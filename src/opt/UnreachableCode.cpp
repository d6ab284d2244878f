//===--- UnreachableCode.cpp - Reachability-based code removal -------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// The "unreach" pass: reachability from instruction 0 over the
/// control-flow successors, then deletion of everything never reached.
/// Peephole jump folding and threading routinely strand whole arms of
/// IF/CASE chains; this pass reclaims them.  compactCode remaps every
/// surviving jump, so targets stay exact.
///
//===----------------------------------------------------------------------===//

#include "opt/PassManager.h"
#include "opt/Rewrite.h"

using namespace m2c;
using namespace m2c::codegen;
using namespace m2c::opt;

namespace {

class UnreachableCodePass : public Pass {
public:
  std::string_view name() const override { return "unreach"; }

  bool run(CodeUnit &Unit, StatisticSet &Stats) const override {
    std::vector<Instr> &Code = Unit.Code;
    if (Code.empty())
      return false;

    // Walk each fall-through path from its start until it ends or meets
    // code already reached, queueing the jump targets it passes: every
    // instruction is visited once.
    const size_t N = Code.size();
    detail::Bits Reached(N);
    std::vector<size_t> Work{0};
    while (!Work.empty()) {
      size_t I = Work.back();
      Work.pop_back();
      for (; I < N && !Reached.test(I); ++I) {
        Reached.set(I);
        if (detail::isJump(Code[I].Op))
          Work.push_back(static_cast<size_t>(Code[I].A));
        if (detail::isTerminator(Code[I].Op))
          break;
      }
    }
    Reached.flip(N); // Now the unreached instructions.
    size_t Removed = detail::compactCode(Code, Reached);
    if (Removed)
      Stats.add("opt.unreach.removed", Removed);
    return Removed != 0;
  }
};

} // namespace

std::unique_ptr<Pass> opt::createUnreachableCodePass() {
  return std::make_unique<UnreachableCodePass>();
}
