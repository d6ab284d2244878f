//===--- Diagnostics.cpp - Thread-safe diagnostic collection -------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/VirtualFileSystem.h"

#include <algorithm>
#include <sstream>

using namespace m2c;

std::string m2c::toString(const SourceLocation &Loc) {
  if (!Loc.isValid())
    return "<unknown>";
  return std::to_string(Loc.Line) + ":" + std::to_string(Loc.Column);
}

void DiagnosticsEngine::report(DiagSeverity Severity, SourceLocation Loc,
                               std::string Message) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Diags.push_back(Diagnostic{Severity, Loc, std::move(Message)});
}

bool DiagnosticsEngine::hasErrors() const { return errorCount() != 0; }

size_t DiagnosticsEngine::errorCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t N = 0;
  for (const Diagnostic &D : Diags)
    if (D.Severity == DiagSeverity::Error)
      ++N;
  return N;
}

size_t DiagnosticsEngine::count() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Diags.size();
}

static void sortDiags(std::vector<Diagnostic> &Out) {
  std::stable_sort(Out.begin(), Out.end(),
                   [](const Diagnostic &A, const Diagnostic &B) {
                     if (A.Loc.File.index() != B.Loc.File.index())
                       return A.Loc.File.index() < B.Loc.File.index();
                     if (A.Loc.Line != B.Loc.Line)
                       return A.Loc.Line < B.Loc.Line;
                     if (A.Loc.Column != B.Loc.Column)
                       return A.Loc.Column < B.Loc.Column;
                     return A.Message < B.Message;
                   });
}

/// Collapses identical (severity, location, message) neighbours of a
/// sorted list.  Applied to EVERY sorted view — the standalone render and
/// a service request's per-file slice alike — so the two stay
/// byte-identical: under a service, a module recompiled by a later
/// request re-reports diagnostics a peer already placed in the shared
/// engine, and the duplicate must collapse in both paths or neither.
static void dedupDiags(std::vector<Diagnostic> &Out) {
  Out.erase(std::unique(Out.begin(), Out.end(),
                        [](const Diagnostic &A, const Diagnostic &B) {
                          return A.Severity == B.Severity &&
                                 A.Loc.File.index() == B.Loc.File.index() &&
                                 A.Loc.Line == B.Loc.Line &&
                                 A.Loc.Column == B.Loc.Column &&
                                 A.Message == B.Message;
                        }),
            Out.end());
}

std::vector<Diagnostic> DiagnosticsEngine::sorted() const {
  std::vector<Diagnostic> Copy;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Copy = Diags;
  }
  sortDiags(Copy);
  dedupDiags(Copy);
  return Copy;
}

std::vector<Diagnostic> DiagnosticsEngine::sortedIn(
    const std::unordered_set<uint32_t> &FileIdxs) const {
  std::vector<Diagnostic> Out;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const Diagnostic &D : Diags)
      if (D.Loc.File.isValid() && FileIdxs.count(D.Loc.File.index()))
        Out.push_back(D);
  }
  sortDiags(Out);
  dedupDiags(Out);
  return Out;
}

size_t DiagnosticsEngine::countIn(
    const std::unordered_set<uint32_t> &FileIdxs) const {
  return sortedIn(FileIdxs).size();
}

static const char *severityName(DiagSeverity Severity) {
  switch (Severity) {
  case DiagSeverity::Note:
    return "note";
  case DiagSeverity::Warning:
    return "warning";
  case DiagSeverity::Error:
    return "error";
  }
  return "unknown";
}

static std::string renderList(const std::vector<Diagnostic> &List,
                              const VirtualFileSystem *Files) {
  std::ostringstream OS;
  for (const Diagnostic &D : List) {
    if (D.Loc.File.isValid() && Files)
      OS << Files->buffer(D.Loc.File).Name;
    else if (D.Loc.File.isValid())
      OS << "file" << D.Loc.File.index();
    else
      OS << "<builtin>";
    OS << ":" << toString(D.Loc) << ": " << severityName(D.Severity) << ": "
       << D.Message << "\n";
  }
  return OS.str();
}

std::string DiagnosticsEngine::render(const VirtualFileSystem *Files) const {
  return renderList(sorted(), Files);
}
