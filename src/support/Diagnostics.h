//===--- Diagnostics.h - Thread-safe diagnostic collection -----*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Diagnostics produced by concurrently executing compiler tasks are
/// collected into a shared, thread-safe engine and rendered in a stable
/// (source-position) order at the end of compilation, so the concurrent
/// compiler reports exactly what the sequential compiler reports.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_SUPPORT_DIAGNOSTICS_H
#define M2C_SUPPORT_DIAGNOSTICS_H

#include "support/SourceLocation.h"

#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace m2c {

class VirtualFileSystem;

/// Severity of a diagnostic.
enum class DiagSeverity {
  Note,
  Warning,
  Error,
};

/// One reported diagnostic.
struct Diagnostic {
  DiagSeverity Severity = DiagSeverity::Error;
  SourceLocation Loc;
  std::string Message;
};

/// Thread-safe diagnostic sink shared by all compiler tasks.
class DiagnosticsEngine {
public:
  DiagnosticsEngine() = default;
  DiagnosticsEngine(const DiagnosticsEngine &) = delete;
  DiagnosticsEngine &operator=(const DiagnosticsEngine &) = delete;

  void report(DiagSeverity Severity, SourceLocation Loc, std::string Message);

  void error(SourceLocation Loc, std::string Message) {
    report(DiagSeverity::Error, Loc, std::move(Message));
  }
  void warning(SourceLocation Loc, std::string Message) {
    report(DiagSeverity::Warning, Loc, std::move(Message));
  }

  bool hasErrors() const;
  size_t errorCount() const;
  size_t count() const;

  /// Returns all diagnostics sorted by (file, line, column, message) so the
  /// output is independent of task interleaving.  Identical (severity,
  /// location, message) entries are collapsed — the same policy as
  /// sortedIn(), so a standalone render and a service request's slice of
  /// a shared engine agree byte-for-byte.
  std::vector<Diagnostic> sorted() const;

  /// Renders the sorted diagnostics, one per line, in the conventional
  /// "file:line:col: severity: message" format.  \p Files resolves file
  /// names; it may be null, in which case file ids are printed.
  std::string render(const VirtualFileSystem *Files = nullptr) const;

  /// Per-request views (service mode): several concurrent requests share
  /// one engine, and each sees only the diagnostics located in its own
  /// file set (its .mod files plus its interface closure's .def files).
  /// Identical (severity, location, message) entries are collapsed — as
  /// in sorted() — so a module recompiled by a later request, which
  /// re-reports diagnostics a peer already placed in the shared engine,
  /// still renders them once.  Invalid-location diagnostics are excluded
  /// — request-scoped conditions without a source position are reported
  /// through the request's own local engine.
  std::vector<Diagnostic>
  sortedIn(const std::unordered_set<uint32_t> &FileIdxs) const;
  size_t countIn(const std::unordered_set<uint32_t> &FileIdxs) const;

private:
  mutable std::mutex Mutex;
  std::vector<Diagnostic> Diags;
};

} // namespace m2c

#endif // M2C_SUPPORT_DIAGNOSTICS_H
