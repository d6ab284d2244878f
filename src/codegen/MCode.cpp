//===--- MCode.cpp - Compiled code representation --------------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "codegen/MCode.h"

#include <sstream>

using namespace m2c;
using namespace m2c::codegen;

const char *m2c::codegen::opcodeName(Opcode Op) {
  switch (Op) {
#define OPCODE(Name)                                                           \
  case Opcode::Name:                                                           \
    return #Name;
#include "codegen/Opcode.def"
  }
  return "?";
}

std::string CodeUnit::dump(const StringInterner &Names) const {
  std::ostringstream OS;
  OS << (IsModuleBody ? "module body " : "procedure ") << QualifiedName
     << " (frame " << FrameSize << ", params " << Params.size() << ")\n";
  for (size_t I = 0; I < Code.size(); ++I) {
    const Instr &In = Code[I];
    OS << "  " << I << ": " << opcodeName(In.Op);
    switch (In.Op) {
    case Opcode::PushReal:
      OS << " " << In.F;
      break;
    case Opcode::PushStr:
      OS << " \"" << Names.spelling(Strings[static_cast<size_t>(In.A)])
         << "\"";
      break;
    case Opcode::Call:
    case Opcode::PushProc: {
      const CalleeRef &Ref = Callees[static_cast<size_t>(In.A)];
      OS << " " << Names.spelling(Ref.Module) << "."
         << Names.spelling(Ref.Name);
      if (In.Op == Opcode::Call && In.B >= 0)
        OS << " hops=" << In.B;
      break;
    }
    case Opcode::LoadGlobal:
    case Opcode::StoreGlobal:
    case Opcode::LoadGlobalRef: {
      const GlobalRef &Ref = Globals[static_cast<size_t>(In.A)];
      OS << " " << Names.spelling(Ref.Module) << "[" << Ref.Slot << "]";
      break;
    }
    default:
      if (In.A != 0 || In.B != 0)
        OS << " " << In.A;
      if (In.B != 0)
        OS << ", " << In.B;
      break;
    }
    OS << "\n";
  }
  return OS.str();
}

const CodeUnit *ModuleImage::findUnit(const std::string &QualifiedName) const {
  for (const CodeUnit &U : Units)
    if (U.QualifiedName == QualifiedName)
      return &U;
  return nullptr;
}
