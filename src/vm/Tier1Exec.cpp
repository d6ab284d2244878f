//===--- Tier1Exec.cpp - Tier-1 threaded-code dispatcher -------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
//
// Executes pre-decoded TierUnits with computed-goto dispatch (a switch
// loop on compilers without the labels-as-values extension).  Semantics
// are bit-for-bit those of the tier-0 interpreter in VM.cpp: identical
// output, identical trap points and messages, identical MaxSteps
// accounting (each TInstr charges the number of tier-0 instructions it
// stands for before executing; see TierUnit.h for the deopt contract).
//
// Calls and returns between two promoted units stay inside this loop;
// any boundary into unpromoted code (or a pc the translator fused over)
// hands the tier-0 resume point back to the trampoline in executeUnit.
//
//===----------------------------------------------------------------------===//

#include "sema/Builtins.h"
#include "vm/ExecInternal.h"
#include "vm/tier/TierManager.h"

#include <cstdio>

using namespace m2c;
using namespace m2c::codegen;
using namespace m2c::vm;
using namespace m2c::vm::detail;
using namespace m2c::vm::tier;

#if defined(__GNUC__) || defined(__clang__)
#define M2C_TIER1_THREADED 1
#else
#define M2C_TIER1_THREADED 0
#endif

namespace {

int64_t applyBin(uint8_t Kind, int64_t A, int64_t B) {
  switch (static_cast<BinKind>(Kind)) {
  case BinKind::Add:
    return A + B;
  case BinKind::Sub:
    return A - B;
  case BinKind::Mul:
    return A * B;
  }
  return 0;
}

bool applyCmp(uint8_t Kind, int64_t A, int64_t B) {
  switch (static_cast<CmpKind>(Kind)) {
  case CmpKind::Eq:
    return A == B;
  case CmpKind::Ne:
    return A != B;
  case CmpKind::Lt:
    return A < B;
  case CmpKind::Le:
    return A <= B;
  case CmpKind::Gt:
    return A > B;
  case CmpKind::Ge:
    return A >= B;
  }
  return false;
}

} // namespace

VM::Flow VM::runTier1(Exec &E, const tier::TierUnit *Entry, RunResult &Result,
                      uint64_t &Steps, uint64_t MaxSteps) {
  auto &Stack = E.Stack;
  auto &Frames = E.Frames;

  const TierUnit *TU = Entry;
  const TInstr *Code = TU->Code;
  const CodeUnit *CU = TU->LU->Unit;
  size_t Ip = static_cast<size_t>(TU->PcMap[E.Pc]);
  Frame *F = &Frames.back(); // Deque: stays valid across pushFrame.
  const TInstr *I = nullptr;
  uint64_t Dispatches = 0;
  Value RetVal;
  bool HasRet = false;

  // Flush this segment's step/dispatch counts on every exit path.
  struct Account {
    VM &V;
    const uint64_t &Steps;
    const uint64_t &Dispatches;
    uint64_t Entry;
    ~Account() {
      V.Tier1Steps += Steps - Entry;
      V.Tier1Dispatches += Dispatches;
    }
  } Acct{*this, Steps, Dispatches, Steps};

  auto Fail = [&](size_t Pc0, const std::string &Message) {
    failAt(Result, *F, Pc0, Message);
    return Flow::Trapped;
  };
  auto Pop = [&]() {
    Value V = std::move(Stack.back());
    Stack.pop_back();
    return V;
  };

#if M2C_TIER1_THREADED
  static const void *const Labels[] = {
#define T1OP(Name) &&L_##Name,
#include "vm/tier/T1Op.def"
  };
#define CASE(Name) L_##Name:
#define DISPATCH()                                                             \
  do {                                                                         \
    I = &Code[Ip];                                                             \
    if (Steps + I->Cost > MaxSteps)                                            \
      goto StepLimit;                                                          \
    Steps += I->Cost;                                                          \
    ++Dispatches;                                                              \
    goto *Labels[static_cast<unsigned>(I->Op)];                                \
  } while (0)
#else
#define CASE(Name) case T1Op::Name:
#define DISPATCH() goto DispatchTop
#endif
// GCC runs no destructors when a computed goto leaves a block, so a Value
// local still in scope at NEXT() would leak the shared_ptr it holds.  Every
// op block therefore closes before its NEXT() (or DISPATCH()); a jump from
// inside a block may only leave trivially destructible locals behind.
#define NEXT()                                                                 \
  do {                                                                         \
    ++Ip;                                                                      \
    DISPATCH();                                                                \
  } while (0)

#if M2C_TIER1_THREADED
  DISPATCH();
#else
DispatchTop:
  I = &Code[Ip];
  if (Steps + I->Cost > MaxSteps)
    goto StepLimit;
  Steps += I->Cost;
  ++Dispatches;
  switch (I->Op) {
#endif

  //===--- Constants ------------------------------------------------------===//

  CASE(PushInt)
  Stack.push_back(Value(I->A));
  NEXT();

  CASE(PushReal)
  Stack.push_back(Value(I->F));
  NEXT();

  CASE(PushSet)
  Stack.push_back(Value(SetVal{static_cast<uint64_t>(I->A)}));
  NEXT();

  CASE(PushNil)
  Stack.push_back(Value(PtrRef{nullptr}));
  NEXT();

  CASE(PushStr)
  // Pre-resolved: the translator stored the Symbol itself.
  Stack.push_back(Value(StrRef{I->Sym}));
  NEXT();

  CASE(PushProc)
  // Pre-resolved: A is a linked unit index (-1 = unlinked).
  if (I->A < 0)
    return Fail(I->Pc0 + 1, "procedure value refers to an unlinked procedure");
  Stack.push_back(Value(ProcVal{static_cast<int32_t>(I->A)}));
  NEXT();

  //===--- Frame access ---------------------------------------------------===//

  CASE(LoadLocal)
  Stack.push_back(F->Slots[static_cast<size_t>(I->A)]);
  NEXT();

  CASE(StoreLocal) {
    Value V = Pop();
    assignInto(F->Slots[static_cast<size_t>(I->A)], std::move(V));
  }
  NEXT();

  CASE(LoadLocalRef)
  Stack.push_back(
      Value(Address{&F->Slots[static_cast<size_t>(I->A)], nullptr, 0}));
  NEXT();

  CASE(LoadEnclosing)
  CASE(StoreEnclosing)
  CASE(LoadEnclosingRef) {
    Frame *Target = F;
    for (int64_t Hop = 0; Hop < I->B; ++Hop) {
      Target = Target->StaticLink;
      if (!Target)
        return Fail(I->Pc0 + 1, "broken static link chain");
    }
    if (I->A < 0 || static_cast<size_t>(I->A) >= Target->Slots.size())
      return Fail(I->Pc0 + 1, "enclosing frame slot out of range");
    Value &Slot = Target->Slots[static_cast<size_t>(I->A)];
    if (I->Op == T1Op::LoadEnclosing) {
      Stack.push_back(Slot);
    } else if (I->Op == T1Op::StoreEnclosing) {
      Value V = Pop();
      assignInto(Slot, std::move(V));
    } else {
      Stack.push_back(Value(Address{&Slot, nullptr, 0}));
    }
  }
  NEXT();

  CASE(LoadGlobal)
  CASE(StoreGlobal)
  CASE(LoadGlobalRef) {
    // Pre-resolved: A = module index, B = slot.
    if (I->A < 0)
      return Fail(I->Pc0 + 1, "unresolved global reference");
    auto &ModGlobals = *Globals[static_cast<size_t>(I->A)];
    if (static_cast<size_t>(I->B) >= ModGlobals.size())
      return Fail(I->Pc0 + 1, "global slot out of range");
    Value &Slot = ModGlobals[static_cast<size_t>(I->B)];
    if (I->Op == T1Op::LoadGlobal) {
      Stack.push_back(Slot);
    } else if (I->Op == T1Op::StoreGlobal) {
      Value V = Pop();
      assignInto(Slot, std::move(V));
    } else {
      Stack.push_back(Value(Address{&Slot, nullptr, 0}));
    }
  }
  NEXT();

  //===--- Address plumbing -----------------------------------------------===//

  CASE(LoadIndirect) {
    Value V = Pop();
    const auto *Addr = std::get_if<Address>(&V);
    if (!Addr)
      return Fail(I->Pc0 + 1, "LoadIndirect on a non-address");
    Stack.push_back(Addr->slot());
  }
  NEXT();

  CASE(StoreIndirect) {
    Value V = Pop();
    Value AddrV = Pop();
    const auto *Addr = std::get_if<Address>(&AddrV);
    if (!Addr)
      return Fail(I->Pc0 + 1, "StoreIndirect on a non-address");
    assignInto(Addr->slot(), std::move(V));
  }
  NEXT();

  CASE(FieldAddr) {
    Value AddrV = Pop();
    const auto *Addr = std::get_if<Address>(&AddrV);
    if (!Addr)
      return Fail(I->Pc0 + 1, "FieldAddr on a non-address");
    const auto *Agg = std::get_if<AggRef>(&Addr->slot());
    if (!Agg || !Agg->Obj)
      return Fail(I->Pc0 + 1, "field access on a non-record value");
    if (static_cast<size_t>(I->A) >= Agg->Obj->Slots.size())
      return Fail(I->Pc0 + 1, "field index out of range");
    Stack.push_back(
        Value(Address{nullptr, Agg->Obj, static_cast<size_t>(I->A)}));
  }
  NEXT();

  CASE(IndexAddr) {
    int64_t Index = asOrdinal(Pop());
    Value AddrV = Pop();
    const auto *Addr = std::get_if<Address>(&AddrV);
    if (!Addr)
      return Fail(I->Pc0 + 1, "IndexAddr on a non-address");
    const auto *Agg = std::get_if<AggRef>(&Addr->slot());
    if (!Agg || !Agg->Obj)
      return Fail(I->Pc0 + 1, "indexing a non-array value");
    int64_t Low = I->A;
    int64_t Count =
        I->B >= 0 ? I->B : static_cast<int64_t>(Agg->Obj->Slots.size());
    if (Index < Low || Index >= Low + Count)
      return Fail(I->Pc0 + 1, "array index " + std::to_string(Index) +
                                  " out of bounds [" + std::to_string(Low) +
                                  ".." + std::to_string(Low + Count - 1) +
                                  "]");
    Stack.push_back(
        Value(Address{nullptr, Agg->Obj, static_cast<size_t>(Index - Low)}));
  }
  NEXT();

  CASE(DerefAddr) {
    Value V = Pop();
    const auto *Ptr = std::get_if<PtrRef>(&V);
    if (!Ptr)
      return Fail(I->Pc0 + 1, "dereference of a non-pointer value");
    if (!Ptr->Cell)
      return Fail(I->Pc0 + 1, "dereference of NIL");
    Stack.push_back(Value(Address{nullptr, Ptr->Cell, 0}));
  }
  NEXT();

  //===--- Aggregates -----------------------------------------------------===//

  CASE(PushAggregate)
  Stack.push_back(defaultValue(CU->Descs, static_cast<int32_t>(I->A)));
  NEXT();

  CASE(NewCell) {
    auto Cell = std::make_shared<Object>();
    Cell->Slots.push_back(defaultValue(CU->Descs, static_cast<int32_t>(I->A)));
    Stack.push_back(Value(PtrRef{std::move(Cell)}));
  }
  NEXT();

  CASE(DisposeCell) {
    Value AddrV = Pop();
    const auto *Addr = std::get_if<Address>(&AddrV);
    if (!Addr)
      return Fail(I->Pc0 + 1, "DISPOSE of a non-address");
    Addr->slot() = Value(PtrRef{nullptr});
  }
  NEXT();

  //===--- Integer arithmetic ---------------------------------------------===//

  CASE(AddInt) {
    int64_t B = asOrdinal(Pop()), A = asOrdinal(Pop());
    Stack.push_back(Value(A + B));
  }
  NEXT();

  CASE(SubInt) {
    int64_t B = asOrdinal(Pop()), A = asOrdinal(Pop());
    Stack.push_back(Value(A - B));
  }
  NEXT();

  CASE(MulInt) {
    int64_t B = asOrdinal(Pop()), A = asOrdinal(Pop());
    Stack.push_back(Value(A * B));
  }
  NEXT();

  CASE(DivInt) {
    int64_t B = asOrdinal(Pop()), A = asOrdinal(Pop());
    if (B == 0)
      return Fail(I->Pc0 + 1, "integer division by zero");
    Stack.push_back(Value(A / B));
  }
  NEXT();

  CASE(ModInt) {
    int64_t B = asOrdinal(Pop()), A = asOrdinal(Pop());
    if (B == 0)
      return Fail(I->Pc0 + 1, "MOD by zero");
    Stack.push_back(Value(A % B));
  }
  NEXT();

  CASE(NegInt)
  Stack.back() = Value(-asOrdinal(Stack.back()));
  NEXT();

  CASE(AbsInt) {
    int64_t A = asOrdinal(Stack.back());
    Stack.back() = Value(A < 0 ? -A : A);
  }
  NEXT();

  CASE(IncAddr) {
    int64_t Delta = asOrdinal(Pop());
    Value AddrV = Pop();
    const auto *Addr = std::get_if<Address>(&AddrV);
    if (!Addr)
      return Fail(I->Pc0 + 1, "INC/DEC of a non-address");
    Addr->slot() = Value(asOrdinal(Addr->slot()) + Delta);
  }
  NEXT();

  CASE(Odd)
  Stack.back() = Value(int64_t{(asOrdinal(Stack.back()) & 1) != 0});
  NEXT();

  CASE(Cap) {
    int64_t C = asOrdinal(Stack.back());
    if (C >= 'a' && C <= 'z')
      C = C - 'a' + 'A';
    Stack.back() = Value(C);
  }
  NEXT();

  //===--- Real arithmetic ------------------------------------------------===//

  CASE(AddReal) {
    double B = asReal(Pop()), A = asReal(Pop());
    Stack.push_back(Value(A + B));
  }
  NEXT();

  CASE(SubReal) {
    double B = asReal(Pop()), A = asReal(Pop());
    Stack.push_back(Value(A - B));
  }
  NEXT();

  CASE(MulReal) {
    double B = asReal(Pop()), A = asReal(Pop());
    Stack.push_back(Value(A * B));
  }
  NEXT();

  CASE(DivReal) {
    double B = asReal(Pop()), A = asReal(Pop());
    if (B == 0.0)
      return Fail(I->Pc0 + 1, "real division by zero");
    Stack.push_back(Value(A / B));
  }
  NEXT();

  CASE(NegReal)
  Stack.back() = Value(-asReal(Stack.back()));
  NEXT();

  CASE(AbsReal) {
    double A = asReal(Stack.back());
    Stack.back() = Value(A < 0 ? -A : A);
  }
  NEXT();

  CASE(IntToReal)
  Stack.back() = Value(static_cast<double>(asOrdinal(Stack.back())));
  NEXT();

  CASE(RealToInt)
  Stack.back() = Value(static_cast<int64_t>(asReal(Stack.back())));
  NEXT();

  //===--- Sets -----------------------------------------------------------===//

  CASE(SetUnion) {
    uint64_t B = asSet(Pop()), A = asSet(Pop());
    Stack.push_back(Value(SetVal{A | B}));
  }
  NEXT();

  CASE(SetDiff) {
    uint64_t B = asSet(Pop()), A = asSet(Pop());
    Stack.push_back(Value(SetVal{A & ~B}));
  }
  NEXT();

  CASE(SetIntersect) {
    uint64_t B = asSet(Pop()), A = asSet(Pop());
    Stack.push_back(Value(SetVal{A & B}));
  }
  NEXT();

  CASE(SetSymDiff) {
    uint64_t B = asSet(Pop()), A = asSet(Pop());
    Stack.push_back(Value(SetVal{A ^ B}));
  }
  NEXT();

  CASE(SetIn) {
    uint64_t Set = asSet(Pop());
    int64_t Elem = asOrdinal(Pop());
    Stack.push_back(
        Value(int64_t{Elem >= 0 && Elem < 64 && ((Set >> Elem) & 1) != 0}));
  }
  NEXT();

  CASE(SetAddBit) {
    int64_t Elem = asOrdinal(Pop());
    uint64_t Set = asSet(Pop());
    if (Elem < 0 || Elem > 63)
      return Fail(I->Pc0 + 1, "set element " + std::to_string(Elem) +
                                  " out of range 0..63");
    Stack.push_back(Value(SetVal{Set | (uint64_t{1} << Elem)}));
  }
  NEXT();

  CASE(SetAddRange) {
    int64_t Hi = asOrdinal(Pop());
    int64_t Lo = asOrdinal(Pop());
    uint64_t Set = asSet(Pop());
    if (Lo < 0 || Hi > 63)
      return Fail(I->Pc0 + 1, "set range out of range 0..63");
    for (int64_t It = Lo; It <= Hi; ++It)
      Set |= uint64_t{1} << It;
    Stack.push_back(Value(SetVal{Set}));
  }
  NEXT();

  CASE(SetIncl)
  CASE(SetExcl) {
    int64_t Elem = asOrdinal(Pop());
    Value AddrV = Pop();
    const auto *Addr = std::get_if<Address>(&AddrV);
    if (!Addr)
      return Fail(I->Pc0 + 1, "INCL/EXCL of a non-address");
    if (Elem < 0 || Elem > 63)
      return Fail(I->Pc0 + 1, "set element out of range 0..63");
    uint64_t Set = asSet(Addr->slot());
    if (I->Op == T1Op::SetIncl)
      Set |= uint64_t{1} << Elem;
    else
      Set &= ~(uint64_t{1} << Elem);
    Addr->slot() = Value(SetVal{Set});
  }
  NEXT();

  //===--- Comparisons ----------------------------------------------------===//

#define T1_INT_CMP(OP, EXPR)                                                   \
  CASE(OP) {                                                                   \
    int64_t B = asOrdinal(Pop()), A = asOrdinal(Pop());                        \
    Stack.push_back(Value(int64_t{(EXPR) ? 1 : 0}));                           \
  }                                                                            \
  NEXT();
  T1_INT_CMP(CmpEqInt, A == B)
  T1_INT_CMP(CmpNeInt, A != B)
  T1_INT_CMP(CmpLtInt, A < B)
  T1_INT_CMP(CmpLeInt, A <= B)
  T1_INT_CMP(CmpGtInt, A > B)
  T1_INT_CMP(CmpGeInt, A >= B)
#undef T1_INT_CMP

#define T1_REAL_CMP(OP, EXPR)                                                  \
  CASE(OP) {                                                                   \
    double B = asReal(Pop()), A = asReal(Pop());                               \
    Stack.push_back(Value(int64_t{(EXPR) ? 1 : 0}));                           \
  }                                                                            \
  NEXT();
  T1_REAL_CMP(CmpEqReal, A == B)
  T1_REAL_CMP(CmpNeReal, A != B)
  T1_REAL_CMP(CmpLtReal, A < B)
  T1_REAL_CMP(CmpLeReal, A <= B)
  T1_REAL_CMP(CmpGtReal, A > B)
  T1_REAL_CMP(CmpGeReal, A >= B)
#undef T1_REAL_CMP

  CASE(CmpEqPtr)
  CASE(CmpNePtr) {
    Value B = Pop(), A = Pop();
    auto CellOf = [](const Value &V) -> const void * {
      if (const auto *P = std::get_if<PtrRef>(&V))
        return P->Cell.get();
      if (const auto *P = std::get_if<ProcVal>(&V))
        return reinterpret_cast<const void *>(
            static_cast<uintptr_t>(P->UnitIndex + 1));
      return nullptr;
    };
    bool Eq = CellOf(A) == CellOf(B);
    Stack.push_back(Value(int64_t{(I->Op == T1Op::CmpEqPtr) == Eq ? 1 : 0}));
  }
  NEXT();

  CASE(NotBool)
  Stack.back() = Value(int64_t{asOrdinal(Stack.back()) == 0 ? 1 : 0});
  NEXT();

  //===--- Control flow (C = tier-1 target index) -------------------------===//

  CASE(Jump)
  Ip = static_cast<size_t>(I->C);
  DISPATCH();

  CASE(JumpIfFalse)
  if (asOrdinal(Pop()) == 0)
    Ip = static_cast<size_t>(I->C);
  else
    ++Ip;
  DISPATCH();

  CASE(JumpIfTrue)
  if (asOrdinal(Pop()) != 0)
    Ip = static_cast<size_t>(I->C);
  else
    ++Ip;
  DISPATCH();

  //===--- Calls ----------------------------------------------------------===//

  CASE(Call) {
    // Pre-resolved: A is a linked unit index.
    if (I->A < 0)
      return Fail(I->Pc0 + 1, "call to unlinked procedure");
    int32_t Target = static_cast<int32_t>(I->A);
    Frame *StaticLink = nullptr;
    if (I->B >= 0) {
      StaticLink = F;
      for (int64_t Hop = 0; Hop < I->B; ++Hop) {
        StaticLink = StaticLink->StaticLink;
        if (!StaticLink)
          return Fail(I->Pc0 + 1, "broken static link chain in call");
      }
    }
    const CodeUnit &Callee = *Prog.units()[static_cast<size_t>(Target)].Unit;
    if (Stack.size() < F->StackBase + Callee.Params.size())
      return Fail(I->Pc0 + 1, "call to '" + Callee.QualifiedName +
                                  "' with too few arguments on the stack");
    size_t ArgBase = Stack.size() - Callee.Params.size();
    // ReturnPc is always a tier-0 pc; the translator makes every
    // pc-after-call a group head, so a tier-1 caller resumes in tier 1.
    Frame &NF = pushFrame(E, Target, StaticLink,
                          static_cast<size_t>(I->Pc0) + 1, E.CurUnit);
    bindArgs(E, NF, ArgBase);
    E.CurUnit = Target;
    Tier->noteInvocation(Target);
    if (const TierUnit *CT = Tier->installed(Target)) {
      // Fast path: stay in tier 1 across the call.
      TU = CT;
      Code = CT->Code;
      CU = CT->LU->Unit;
      F = &Frames.back();
      Ip = static_cast<size_t>(CT->PcMap[0]);
      DISPATCH();
    }
    E.Pc = 0;
    return Flow::Switch;
  }

  CASE(CallIndirect) {
    size_t Argc = static_cast<size_t>(I->B);
    if (Stack.size() < F->StackBase + Argc + 1)
      return Fail(I->Pc0 + 1, "indirect call with too few stack values");
    size_t ProcPos = Stack.size() - Argc - 1;
    const auto *P = std::get_if<ProcVal>(&Stack[ProcPos]);
    if (!P || P->UnitIndex < 0)
      return Fail(I->Pc0 + 1, "indirect call through an invalid procedure value");
    int32_t Target = P->UnitIndex;
    // Remove the procedure value from under the arguments.
    Stack.erase(Stack.begin() + static_cast<ptrdiff_t>(ProcPos));
    size_t ArgBase = Stack.size() - Argc;
    Frame &NF =
        pushFrame(E, Target, nullptr, static_cast<size_t>(I->Pc0) + 1,
                  E.CurUnit);
    bindArgs(E, NF, ArgBase);
    E.CurUnit = Target;
    Tier->noteInvocation(Target);
    // Hand indirect targets to the trampoline (it re-enters tier 1 if the
    // target is promoted).
    E.Pc = 0;
    return Flow::Switch;
  }

  CASE(CallBuiltin)
  if (!callBuiltin(E, Result, I->A, static_cast<size_t>(I->Pc0) + 1))
    return Flow::Trapped;
  NEXT();

  CASE(Return)
  HasRet = false;
  goto DoReturn;

  CASE(ReturnValue)
  RetVal = Pop();
  HasRet = true;
  goto DoReturn;

  //===--- Checks and misc ------------------------------------------------===//

  CASE(CheckRange) {
    int64_t V = asOrdinal(Stack.back());
    if (V < I->A || V > I->B)
      return Fail(I->Pc0 + 1, "value " + std::to_string(V) +
                                  " outside range " + std::to_string(I->A) +
                                  ".." + std::to_string(I->B));
  }
  NEXT();

  CASE(ArrayHigh) {
    Value V = Pop();
    if (const auto *Agg = std::get_if<AggRef>(&V)) {
      Stack.push_back(Value(static_cast<int64_t>(Agg->Obj->Slots.size()) - 1));
    } else if (const auto *Str = std::get_if<StrRef>(&V)) {
      Stack.push_back(
          Value(static_cast<int64_t>(Names.spelling(Str->Str).size()) - 1));
    } else {
      return Fail(I->Pc0 + 1, "HIGH of a non-array value");
    }
  }
  NEXT();

  CASE(Dup)
  Stack.push_back(Stack.back());
  NEXT();

  CASE(Pop)
  Pop();
  NEXT();

  CASE(Halt)
  Result.ExitCode = I->A;
  return Flow::Done;

  CASE(Trap)
  switch (I->A) {
  case 1:
    return Fail(I->Pc0 + 1, "no CASE branch matches the selector");
  case 2:
    return Fail(I->Pc0 + 1, "function procedure did not return a value");
  default:
    return Fail(I->Pc0 + 1, "trap " + std::to_string(I->A));
  }

  //===--- Fused superinstructions ----------------------------------------===//

  CASE(FusedLLBS) {
    // Slots[C] := Slots[A] <binop> Slots[B]; integer result, so plain
    // assignment matches StoreLocal's assignInto.
    int64_t A = asOrdinal(F->Slots[static_cast<size_t>(I->A)]);
    int64_t B = asOrdinal(F->Slots[static_cast<size_t>(I->B)]);
    F->Slots[static_cast<size_t>(I->C)] = Value(applyBin(I->Kind, A, B));
  }
  NEXT();

  CASE(FusedLIBS) {
    int64_t A = asOrdinal(F->Slots[static_cast<size_t>(I->A)]);
    F->Slots[static_cast<size_t>(I->C)] = Value(applyBin(I->Kind, A, I->B));
  }
  NEXT();

  CASE(FusedLLB) {
    int64_t A = asOrdinal(F->Slots[static_cast<size_t>(I->A)]);
    int64_t B = asOrdinal(F->Slots[static_cast<size_t>(I->B)]);
    Stack.push_back(Value(applyBin(I->Kind, A, B)));
  }
  NEXT();

  CASE(FusedLIB) {
    int64_t A = asOrdinal(F->Slots[static_cast<size_t>(I->A)]);
    Stack.push_back(Value(applyBin(I->Kind, A, I->B)));
  }
  NEXT();

  CASE(FusedLLCmpBr) {
    int64_t A = asOrdinal(F->Slots[static_cast<size_t>(I->A)]);
    int64_t B = asOrdinal(F->Slots[static_cast<size_t>(I->B)]);
    if (!applyCmp(I->Kind, A, B))
      Ip = static_cast<size_t>(I->C);
    else
      ++Ip;
  }
  DISPATCH();

  CASE(FusedLICmpBr) {
    int64_t A = asOrdinal(F->Slots[static_cast<size_t>(I->A)]);
    if (!applyCmp(I->Kind, A, I->B))
      Ip = static_cast<size_t>(I->C);
    else
      ++Ip;
  }
  DISPATCH();

  CASE(FusedStoreConst)
  F->Slots[static_cast<size_t>(I->A)] = Value(I->B);
  NEXT();

  CASE(FusedCopyLocal) {
    // LoadLocal pushes a copy; StoreLocal runs full assignment semantics
    // (deep copy for aggregates, padding for string constants).
    Value V = F->Slots[static_cast<size_t>(I->A)];
    assignInto(F->Slots[static_cast<size_t>(I->C)], std::move(V));
  }
  NEXT();

  CASE(FusedReturnLocal)
  RetVal = F->Slots[static_cast<size_t>(I->A)];
  HasRet = true;
  goto DoReturn;

  CASE(FellOff)
  // Synthetic: pc reached one past the end.  The step was already
  // charged, matching tier 0's check order (limit before fell-off).
  return Fail(I->Pc0, "fell off the end of the code unit");

#if !M2C_TIER1_THREADED
  }
  goto DispatchTop; // Unreachable; every case transfers control.
#endif

DoReturn: {
  Stack.resize(F->StackBase);
  size_t ReturnPc = F->ReturnPc;
  int32_t ReturnUnit = F->ReturnUnit;
  Frames.pop_back();
  if (Frames.empty())
    return Flow::Done; // Entry unit finished.
  if (HasRet)
    Stack.push_back(std::move(RetVal));
  E.CurUnit = ReturnUnit;
  F = &Frames.back();
  const TierUnit *RT = Tier->installed(ReturnUnit);
  if (RT && ReturnPc < RT->PcMapSize && RT->PcMap[ReturnPc] >= 0) {
    // Fast path: resume the promoted caller without leaving tier 1.
    TU = RT;
    Code = RT->Code;
    CU = RT->LU->Unit;
    Ip = static_cast<size_t>(RT->PcMap[ReturnPc]);
    DISPATCH();
  }
  E.Pc = ReturnPc;
  return Flow::Switch;
}

StepLimit:
  if (I->Cost == 1) {
    // Identical to tier 0: the failing step is charged, the trap names
    // the pc of the instruction that would have run.
    ++Steps;
    return Fail(I->Pc0, "step limit exceeded (runaway program?)");
  }
  // A fused group would cross the budget mid-way.  None of its trap-free
  // components has executed, so tier 0 can replay from the group head and
  // trap at the exact tier-0 pc.
  ++Deopts;
  E.Pc = I->Pc0;
  return Flow::Deopt;

#undef CASE
#undef DISPATCH
#undef NEXT
}
