//===--- Merger.h - Order-independent code merging --------------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "At the end of compilation, a merge task concatenates the output of
/// separate code generation streams to form the complete compiler
/// result.  Because the unit of merging is the code for an entire
/// procedure, this concatenation can be done in any order and
/// concurrently with other compiler activity." (paper section 3)
///
//===----------------------------------------------------------------------===//

#ifndef M2C_CODEGEN_MERGER_H
#define M2C_CODEGEN_MERGER_H

#include "codegen/MCode.h"
#include "codegen/TypeDescBuilder.h"
#include "symtab/Scope.h"

#include <mutex>

namespace m2c::codegen {

/// Collects per-stream CodeUnits (in any order, from any task) and
/// assembles the ModuleImage.
class Merger {
public:
  explicit Merger(Symbol ModuleName) { Image.ModuleName = ModuleName; }
  Merger(const Merger &) = delete;
  Merger &operator=(const Merger &) = delete;

  /// Adds one stream's code.  Thread-safe; charges MergeUnit.
  void addUnit(CodeUnit Unit);

  /// Records the module's direct imports (for link-time initialization
  /// order).  Thread-safe.
  void setImports(std::vector<Symbol> Imports);

  /// Derives the module's global-variable layout from the completed
  /// module scope and (when the module has one) its own interface scope,
  /// whose variables occupy the front of the frame.  Call once, after
  /// both declaration analyses completed.
  void setGlobalsFrom(const symtab::Scope &ModuleScope,
                      const symtab::Scope *OwnInterface = nullptr);

  /// Produces the final image.  Units are ordered deterministically
  /// (body first, procedures by qualified name) so that concurrent and
  /// sequential compilations of the same source compare equal.
  ModuleImage finalize();

private:
  mutable std::mutex Mutex;
  ModuleImage Image;
  TypeDescCache DescCache;
};

} // namespace m2c::codegen

#endif // M2C_CODEGEN_MERGER_H
