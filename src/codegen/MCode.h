//===--- MCode.h - Compiled code representation -----------------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MCode: the compiler's object format.  "It is a straightforward
/// exercise to generate code for each procedure separately and to merge
/// this code using simple concatenation" (paper section 2.1) — a
/// CodeUnit is the per-procedure unit of that concatenation, and a
/// ModuleImage is the merged compiler output for one module.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_CODEGEN_MCODE_H
#define M2C_CODEGEN_MCODE_H

#include "support/StringInterner.h"

#include <cstdint>
#include <string>
#include <vector>

namespace m2c::codegen {

/// MCode opcodes; see Opcode.def.
enum class Opcode : uint8_t {
#define OPCODE(Name) Name,
#include "codegen/Opcode.def"
};

const char *opcodeName(Opcode Op);

/// One MCode instruction.
struct Instr {
  Opcode Op = Opcode::Halt;
  int64_t A = 0;
  int64_t B = 0;
  double F = 0.0;
};

/// Reference to a procedure in this or another module, resolved at link
/// time by qualified name.
struct CalleeRef {
  Symbol Module;
  Symbol Name; ///< "Outer.Inner" spelling for nested procedures.
};

/// Reference to a module-level variable, resolved at link time.
struct GlobalRef {
  Symbol Module;
  int32_t Slot = 0;
};

/// Shape descriptor for default-initializing aggregates (frame locals,
/// NEW cells).  Descriptors form a per-unit table; children index it.
struct TypeDesc {
  enum class Kind : uint8_t { Int, Real, Set, Pointer, ProcVal, Array, Record };
  Kind DescKind = Kind::Int;
  int64_t Count = 0;              ///< Array element count.
  int32_t Element = -1;           ///< Array element descriptor.
  std::vector<int32_t> Fields;    ///< Record field descriptors.
};

/// One formal parameter of a compiled procedure.
struct ParamDesc {
  bool IsVar = false;
  bool IsAggregate = false; ///< Value arrays/records are copied on call.
};

/// The compiled form of one stream's code: a procedure, or the module
/// body (initialization) code.
struct CodeUnit {
  Symbol Module;
  Symbol Name;               ///< Empty for the module body unit.
  std::string QualifiedName; ///< "Mod.Outer.Inner" / "Mod" for the body.
  int32_t ProcId = -1;       ///< Compilation-assigned id (body: -1).
  bool IsModuleBody = false;
  uint32_t NestLevel = 0; ///< 0 = module level procedures.

  std::vector<ParamDesc> Params;
  uint32_t FrameSize = 0; ///< Parameters + locals + temporaries.

  std::vector<Instr> Code;
  std::vector<CalleeRef> Callees;
  std::vector<GlobalRef> Globals;
  std::vector<TypeDesc> Descs;
  std::vector<Symbol> Strings;

  /// Source weight (token count) — drives long-before-short scheduling
  /// and the workload statistics.
  int64_t Weight = 0;

  /// Renders a readable listing (tests, debugging).
  std::string dump(const StringInterner &Names) const;
};

/// The merged output of compiling one module: the module body unit plus
/// one unit per procedure, plus everything the linker needs.
struct ModuleImage {
  Symbol ModuleName;
  uint32_t GlobalCount = 0;         ///< Module-level variable slots.
  std::vector<Symbol> Imports;      ///< Directly imported modules.
  std::vector<CodeUnit> Units;      ///< Body unit first after finalize().
  std::vector<int32_t> GlobalDescs; ///< Descriptor per global slot...
  std::vector<TypeDesc> Descs;      ///< ...indexing this table.

  /// Finds a unit by qualified procedure name; null if absent.
  const CodeUnit *findUnit(const std::string &QualifiedName) const;
};

} // namespace m2c::codegen

#endif // M2C_CODEGEN_MCODE_H
