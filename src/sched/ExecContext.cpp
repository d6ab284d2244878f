//===--- ExecContext.cpp - Per-task execution services --------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "sched/ExecContext.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace m2c::sched;

ExecContext::~ExecContext() = default;

const char *m2c::sched::costKindName(CostKind Kind) {
  switch (Kind) {
  case CostKind::LexChar:
    return "LexChar";
  case CostKind::LexToken:
    return "LexToken";
  case CostKind::ParseToken:
    return "ParseToken";
  case CostKind::DeclAnalyzed:
    return "DeclAnalyzed";
  case CostKind::VarAnalyzed:
    return "VarAnalyzed";
  case CostKind::LookupProbe:
    return "LookupProbe";
  case CostKind::LookupBlocked:
    return "LookupBlocked";
  case CostKind::StmtNode:
    return "StmtNode";
  case CostKind::EmitInstr:
    return "EmitInstr";
  case CostKind::SplitToken:
    return "SplitToken";
  case CostKind::ImportToken:
    return "ImportToken";
  case CostKind::QueueBlock:
    return "QueueBlock";
  case CostKind::EventCreate:
    return "EventCreate";
  case CostKind::MergeUnit:
    return "MergeUnit";
  case CostKind::CacheProbe:
    return "CacheProbe";
  case CostKind::CacheLookup:
    return "CacheLookup";
  }
  return "Unknown";
}

const char *m2c::sched::taskClassName(TaskClass Class) {
  switch (Class) {
  case TaskClass::Lexor:
    return "Lexor";
  case TaskClass::Splitter:
    return "Splitter";
  case TaskClass::Importer:
    return "Importer";
  case TaskClass::DefModParserDecl:
    return "DefModParserDecl";
  case TaskClass::ModuleParserDecl:
    return "ModuleParserDecl";
  case TaskClass::ProcParserDecl:
    return "ProcParserDecl";
  case TaskClass::LongStmtCodeGen:
    return "LongStmtCodeGen";
  case TaskClass::ShortStmtCodeGen:
    return "ShortStmtCodeGen";
  case TaskClass::Merge:
    return "Merge";
  case TaskClass::TierPromote:
    return "TierPromote";
  }
  return "Unknown";
}

namespace {
thread_local ExecContext *CurrentCtx = nullptr;
} // namespace

ExecContext &m2c::sched::ctx() {
  if (CurrentCtx)
    return *CurrentCtx;
  // One fallback context per thread for code running outside any executor
  // (unit tests, ad-hoc phase invocations, a Compilation built on a client
  // thread), created on first use and destroyed at thread exit.  Being
  // function-local keeps the fast path above free of TLS init guards.
  thread_local SequentialContext Fallback;
  return Fallback;
}

ScopedContext::ScopedContext(ExecContext &Ctx) : Saved(CurrentCtx) {
  CurrentCtx = &Ctx;
}

ScopedContext::~ScopedContext() { CurrentCtx = Saved; }

void SequentialContext::charge(CostKind Kind, uint64_t Count) {
  TotalUnits += Model.unitsFor(Kind, Count);
}

void SequentialContext::wait(Event &E) {
  // Sequential execution runs phases in dependency order, so any event a
  // phase waits on must already have occurred.  A violation means the
  // driver sequenced phases incorrectly.
  if (!E.isSignaled()) {
    std::fprintf(stderr,
                 "m2c: sequential wait on unsignaled event '%s'; phases "
                 "were run out of dependency order\n",
                 E.name().c_str());
    std::abort();
  }
  TotalUnits += Model.EventWaitOverhead;
}

void SequentialContext::signal(Event &E) {
  E.markSignaled(TotalUnits);
  TotalUnits += Model.EventSignalOverhead;
}

void SequentialContext::spawn(TaskPtr T) {
  assert(T && "null task");
  Pending.push_back(std::move(T));
}

void SequentialContext::drain() {
  bool Progress = true;
  while (!Pending.empty() && Progress) {
    Progress = false;
    for (size_t I = 0; I < Pending.size();) {
      TaskPtr &T = Pending[I];
      bool Ready = true;
      for (const EventPtr &E : T->prerequisites())
        if (!E->isSignaled()) {
          Ready = false;
          break;
        }
      if (!Ready) {
        ++I;
        continue;
      }
      TaskPtr Run = std::move(T);
      Pending.erase(Pending.begin() + static_cast<ptrdiff_t>(I));
      Run->markStarted();
      Run->invoke();
      Run->markDone();
      Progress = true;
      // Restart the scan: completing a task may have readied earlier ones.
      I = 0;
    }
  }
  if (!Pending.empty()) {
    std::fprintf(stderr,
                 "m2c: sequential drain stuck with %zu tasks pending\n",
                 Pending.size());
    std::abort();
  }
}
