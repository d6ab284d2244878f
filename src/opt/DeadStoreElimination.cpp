//===--- DeadStoreElimination.cpp - Backward liveness DSE ------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// The "dse" pass, in two steps:
///
///  1. Backward liveness over basic blocks.  A `StoreLocal x` with x
///     dead after it is rewritten to `Pop` — a 1:1 rewrite, so the
///     operand stack stays balanced and no jump target moves.  Calls
///     conservatively use every slot (a nested procedure may read this
///     frame up-level); address-taken slots are live everywhere; at a
///     Return/Halt/Trap nothing local is live.
///
///     Liveness lives in one flat array of 64-bit words, ⌈Slots/64⌉ per
///     block.  One scan of each block summarizes it as gen/kill words
///     (live-in = gen | (live-out & ~kill); a call makes both all-ones),
///     so the fixpoint touches words only, never instructions; a second
///     scan per block does the rewrite.
///
///  2. Cancellation: a side-effect-free single-value producer followed
///     immediately by a `Pop` that is not a jump target is a net no-op;
///     both are deleted and the code compacted (jumps into the deleted
///     producer land after the pair — the same no-op).  Deleting a pair
///     makes its neighbours adjacent, so whole dead `PushInt ...; Pop`
///     chains the liveness step exposed unwind.  One left-to-right pass
///     with a stack of survivors finds every pair, and the jump targets
///     a deleted pair carried move on to the next survivor, exactly as
///     compacting after each round of pairs would move them.
///
//===----------------------------------------------------------------------===//

#include "opt/PassManager.h"
#include "opt/Rewrite.h"

#include <algorithm>
#include <cstdint>

using namespace m2c;
using namespace m2c::codegen;
using namespace m2c::opt;

namespace {

/// Basic block [Begin, End) with successor block indices.
struct Block {
  uint32_t Begin = 0;
  uint32_t End = 0;
  uint32_t Succ[2] = {UINT32_MAX, UINT32_MAX}; ///< UINT32_MAX = exit/none.
};

class DeadStoreEliminationPass : public Pass {
public:
  std::string_view name() const override { return "dse"; }

  bool run(CodeUnit &Unit, StatisticSet &Stats) const override {
    if (Unit.Code.empty())
      return false;
    const detail::UnitScan Scan(Unit);
    const uint64_t Killed = Scan.Slots ? killDeadStores(Unit.Code, Scan) : 0;
    // Stores become Pops in place, so the scan's jump targets still hold.
    const uint64_t Pairs = cancelPops(Unit.Code, Scan.Target);
    if (Killed)
      Stats.add("opt.dse.stores", Killed);
    if (Pairs)
      Stats.add("opt.dse.removed", Pairs * 2);
    return Killed != 0 || Pairs != 0;
  }

private:
  static uint64_t killDeadStores(std::vector<Instr> &Code,
                                 const detail::UnitScan &Scan) {
    const size_t N = Code.size();

    // Partition into blocks: leaders are jump targets plus fall-throughs
    // after jumps/terminators (finer than value-tracking needs, exact
    // for dataflow).
    std::vector<Block> Blocks;
    Blocks.reserve(N);
    for (size_t I = 0; I < N; ++I) {
      if (I == 0 || Scan.Target.test(I) || detail::isJump(Code[I - 1].Op) ||
          detail::isTerminator(Code[I - 1].Op)) {
        if (!Blocks.empty())
          Blocks.back().End = static_cast<uint32_t>(I);
        Blocks.push_back(Block{static_cast<uint32_t>(I),
                               static_cast<uint32_t>(N),
                               {UINT32_MAX, UINT32_MAX}});
      }
    }
    const uint32_t NumBlocks = static_cast<uint32_t>(Blocks.size());
    for (uint32_t B = 0; B < NumBlocks; ++B) {
      Block &Blk = Blocks[B];
      const Instr &Last = Code[Blk.End - 1];
      size_t K = 0;
      if (detail::isJump(Last.Op) && static_cast<size_t>(Last.A) < N) {
        // A target is a leader: the block that begins exactly there.
        auto It = std::upper_bound(
            Blocks.begin(), Blocks.end(), static_cast<uint32_t>(Last.A),
            [](uint32_t T, const Block &X) { return T < X.Begin; });
        Blk.Succ[K++] = static_cast<uint32_t>(It - Blocks.begin()) - 1;
      }
      if (!detail::isTerminator(Last.Op) && Blk.End < N)
        Blk.Succ[K++] = B + 1;
    }

    // Gen, kill and live-in words per block, then one block's worth of
    // scratch.  Address-taken slots are simply never deleted below, so
    // they need no bits; falling off the end (or Return) leaves nothing
    // live.
    const size_t W = detail::Bits::wordsFor(Scan.Slots);
    const uint64_t LastMask = Scan.Slots % 64
                                  ? (uint64_t{1} << (Scan.Slots % 64)) - 1
                                  : ~uint64_t{0};
    std::vector<uint64_t> Words(3 * NumBlocks * W + W, 0);
    uint64_t *Gen = Words.data();
    uint64_t *Kill = Gen + NumBlocks * W;
    uint64_t *LiveIn = Kill + NumBlocks * W;
    uint64_t *Out = LiveIn + NumBlocks * W;
    auto SetAll = [&](uint64_t *X) {
      std::fill(X, X + W, ~uint64_t{0});
      X[W - 1] = LastMask;
    };

    // Walks block B backward, applying each instruction's liveness
    // transfer to Live.  Started from nothing live, Live ends as the
    // block's gen words and K (when given) as its kill words: live-in =
    // gen | (live-out & ~kill).  Started from live-out with Rewrite set,
    // it turns each store to a dead slot into a Pop.
    uint64_t Killed = 0;
    auto Walk = [&](uint32_t B, uint64_t *Live, uint64_t *K, bool Rewrite) {
      for (size_t I = Blocks[B].End; I-- > Blocks[B].Begin;) {
        Instr &In = Code[I];
        const size_t Word = static_cast<size_t>(In.A) >> 6;
        const uint64_t Mask = uint64_t{1} << (static_cast<size_t>(In.A) & 63);
        switch (In.Op) {
        case Opcode::StoreLocal:
          if (Rewrite && !(Live[Word] & Mask) &&
              !Scan.Taken.test(static_cast<size_t>(In.A))) {
            In = Instr{Opcode::Pop, 0, 0, 0.0};
            ++Killed;
          }
          Live[Word] &= ~Mask;
          if (K)
            K[Word] |= Mask;
          break;
        case Opcode::LoadLocal:
        case Opcode::LoadLocalRef:
          Live[Word] |= Mask;
          break;
        case Opcode::Call:
        case Opcode::CallIndirect:
        case Opcode::CallBuiltin:
          SetAll(Live);
          if (K)
            SetAll(K);
          break;
        default:
          break;
        }
      }
    };
    for (uint32_t B = 0; B < NumBlocks; ++B)
      Walk(B, Gen + B * W, Kill + B * W, /*Rewrite=*/false);

    auto LiveOut = [&](uint32_t B) {
      std::fill(Out, Out + W, 0);
      for (uint32_t S : Blocks[B].Succ)
        if (S != UINT32_MAX)
          for (size_t V = 0; V < W; ++V)
            Out[V] |= LiveIn[S * W + V];
    };
    for (bool Dirty = true; Dirty;) {
      Dirty = false;
      for (uint32_t B = NumBlocks; B-- > 0;) {
        LiveOut(B);
        uint64_t *In = LiveIn + B * W;
        const uint64_t *G = Gen + B * W, *K = Kill + B * W;
        for (size_t V = 0; V < W; ++V) {
          const uint64_t New = G[V] | (Out[V] & ~K[V]);
          if (New != In[V]) {
            In[V] = New;
            Dirty = true;
          }
        }
      }
    }

    for (uint32_t B = 0; B < NumBlocks; ++B) {
      LiveOut(B);
      Walk(B, Out, nullptr, /*Rewrite=*/true);
    }
    return Killed;
  }

  /// Deletes every producer/Pop pair; returns how many.
  static uint64_t cancelPops(std::vector<Instr> &Code,
                             const detail::Bits &Target) {
    // Survivors so far, as a stack of (index, is-a-target) entries; a Pop
    // cancels the top if the top is a producer and no jump lands on the
    // Pop.  Jumps that landed on a deleted pair land on the next survivor
    // instead, so that instruction is a target from then on (Carried).
    const size_t N = Code.size();
    detail::Bits Dead(N);
    std::vector<uint64_t> Stack;
    Stack.reserve(N);
    uint64_t Pairs = 0;
    bool Carried = false;
    for (size_t I = 0; I < N; ++I) {
      const bool IsTarget = Carried || Target.test(I);
      Carried = false;
      if (Code[I].Op == Opcode::Pop && !IsTarget && !Stack.empty() &&
          detail::isRemovableProducer(Code[Stack.back() >> 1].Op)) {
        Dead.set(Stack.back() >> 1);
        Dead.set(I);
        Carried = Stack.back() & 1;
        Stack.pop_back();
        ++Pairs;
        continue;
      }
      Stack.push_back(I << 1 | IsTarget);
    }
    if (Pairs)
      detail::compactCode(Code, Dead);
    return Pairs;
  }
};

} // namespace

std::unique_ptr<Pass> opt::createDeadStoreEliminationPass() {
  return std::make_unique<DeadStoreEliminationPass>();
}
