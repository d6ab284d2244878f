//===--- WorkloadGenerator.cpp - Synthetic Modula-2+ programs -------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "workload/WorkloadGenerator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <random>
#include <sstream>

using namespace m2c;
using namespace m2c::workload;

namespace {

/// Deterministic helper bundling the RNG with common draws.
struct Rng {
  std::mt19937 Gen;
  explicit Rng(uint32_t Seed) : Gen(Seed) {}
  unsigned range(unsigned Lo, unsigned Hi) { // inclusive
    return Lo + Gen() % (Hi - Lo + 1);
  }
  bool chance(unsigned Percent) { return Gen() % 100 < Percent; }
};

/// Interface layering: distributes \p Total interfaces over \p Depth
/// levels (level 0 is imported directly by the main module).
std::vector<unsigned> layerSizes(unsigned Total, unsigned Depth) {
  Depth = std::max(1u, std::min(Depth, Total == 0 ? 1u : Total));
  std::vector<unsigned> Sizes(Depth, Total / Depth);
  for (unsigned I = 0; I < Total % Depth; ++I)
    ++Sizes[I];
  return Sizes;
}

} // namespace

GeneratedModule WorkloadGenerator::generate(const ModuleSpec &Spec) {
  Rng R(Spec.Seed);
  GeneratedModule Info;
  Info.Name = Spec.Name;
  Info.ProcedureCount = Spec.NumProcedures;

  //===--- Interfaces -------------------------------------------------------===//
  unsigned NumIfaces = Spec.BestCase ? 0 : Spec.ImportedInterfaces;
  std::vector<unsigned> Layers = layerSizes(NumIfaces, Spec.ImportDepth);
  // Interface k lives at level LevelOf[k]; names are <Name>I<k>.
  std::vector<unsigned> LevelOf;
  std::vector<std::vector<unsigned>> AtLevel(Layers.size());
  {
    unsigned K = 0;
    for (unsigned L = 0; L < Layers.size(); ++L)
      for (unsigned I = 0; I < Layers[L]; ++I) {
        LevelOf.push_back(L);
        AtLevel[L].push_back(K++);
      }
  }
  auto IfaceName = [&](unsigned K) {
    return Spec.Name + "I" + std::to_string(K);
  };

  for (unsigned K = 0; K < NumIfaces; ++K) {
    std::ostringstream OS;
    OS << "DEFINITION MODULE " << IfaceName(K) << ";\n";
    unsigned Level = LevelOf[K];
    int Deeper = -1;
    if (Level + 1 < AtLevel.size() && !AtLevel[Level + 1].empty()) {
      // Import one or two deeper interfaces to build the nesting chain.
      Deeper = static_cast<int>(AtLevel[Level + 1][R.range(
          0, static_cast<unsigned>(AtLevel[Level + 1].size()) - 1)]);
      OS << "IMPORT " << IfaceName(static_cast<unsigned>(Deeper));
      if (AtLevel[Level + 1].size() > 1 && R.chance(50)) {
        unsigned Second = AtLevel[Level + 1][R.range(
            0, static_cast<unsigned>(AtLevel[Level + 1].size()) - 1)];
        if (static_cast<int>(Second) != Deeper)
          OS << ", " << IfaceName(Second);
      }
      OS << ";\n";
    }
    // T0 and C0 come first so that dependents probing this table early
    // usually find them in the still-incomplete table (the Skeptical
    // strategy's "Search / incomplete" wins in Table 2).
    OS << "TYPE T0 = INTEGER;\n";
    unsigned Decls = std::max(2u, Spec.InterfaceDecls);
    OS << "CONST\n";
    for (unsigned D = 0; D < (Decls + 1) / 2; ++D)
      OS << "  C" << D << " = " << R.range(1, 97) << ";\n";
    for (unsigned D = 0; D < Decls / 2; ++D)
      OS << "PROCEDURE P" << D << "(x: INTEGER): INTEGER;\n";
    // Cross-references into the imported (deeper) interface sit *late*,
    // as in real interfaces where imported types appear in signatures
    // after the local groundwork: the inter-scope information flows of
    // paper section 2.4.  They reference early symbols of the deeper
    // interface, so a probe of its incomplete table usually succeeds and
    // DKY blockage stays rare (Table 2).
    if (Deeper >= 0) {
      OS << "CONST CX = " << IfaceName(static_cast<unsigned>(Deeper))
         << ".C0 + " << R.range(1, 9) << ";\n";
      OS << "TYPE T1 = " << IfaceName(static_cast<unsigned>(Deeper))
         << ".T0;\n";
    }
    OS << "VAR v0: INTEGER;\n";
    if (Deeper >= 0)
      OS << "VAR v1: " << IfaceName(static_cast<unsigned>(Deeper))
         << ".T0;\n";
    OS << "END " << IfaceName(K) << ".\n";
    Files.addFile(IfaceName(K) + ".def", OS.str());

    if (Spec.WithImplementations) {
      std::ostringstream Impl;
      Impl << "IMPLEMENTATION MODULE " << IfaceName(K) << ";\n";
      for (unsigned D = 0; D < Decls / 2; ++D)
        Impl << "PROCEDURE P" << D << "(x: INTEGER): INTEGER;\n"
             << "BEGIN RETURN x * " << D + 2 << " + C0 END P" << D
             << ";\n";
      Impl << "BEGIN v0 := C0 END " << IfaceName(K) << ".\n";
      Files.addFile(IfaceName(K) + ".mod", Impl.str());
    }
  }
  Info.InterfaceCount = NumIfaces;
  Info.ImportDepth = NumIfaces ? static_cast<unsigned>(Layers.size()) : 0;

  //===--- Main module ------------------------------------------------------===//
  std::ostringstream OS;
  OS << "MODULE " << Spec.Name << ";\n";
  if (!AtLevel.empty() && !AtLevel[0].empty()) {
    OS << "IMPORT ";
    for (size_t I = 0; I < AtLevel[0].size(); ++I)
      OS << (I ? ", " : "") << IfaceName(AtLevel[0][I]);
    OS << ";\n";
    // FROM-import a constant from the first direct interface.
    OS << "FROM " << IfaceName(AtLevel[0][0]) << " IMPORT C0;\n";
  }

  OS << "CONST\n";
  for (unsigned C = 0; C < Spec.NumGlobalConsts; ++C)
    OS << "  K" << C << " = " << R.range(1, 999) << ";\n";
  OS << "TYPE\n"
     << "  Rec = RECORD x, y: INTEGER END;\n"
     << "  Vec = ARRAY [0..15] OF INTEGER;\n";
  for (unsigned T = 2; T < std::max(2u, Spec.NumTypes); ++T)
    OS << "  T" << T << " = [0.." << R.range(7, 63) << "];\n";
  OS << "VAR\n";
  for (unsigned V = 0; V < Spec.NumGlobalVars; ++V)
    OS << "  g" << V << ": INTEGER;\n";
  OS << "  grec: Rec;\n  gvec: Vec;\n";

  // Per-procedure statement budgets: most around the mean, a long tail of
  // much longer procedures ("long procedures before short ones").
  std::vector<unsigned> Budgets;
  for (unsigned P = 0; P < Spec.NumProcedures; ++P) {
    if (Spec.BestCase) {
      Budgets.push_back(Spec.MeanProcStmts);
      continue;
    }
    unsigned B = std::max<unsigned>(
        2, static_cast<unsigned>(Spec.MeanProcStmts * 0.4) +
               R.range(0, Spec.MeanProcStmts));
    if (R.chance(8))
      B *= R.range(3, 5); // the long tail
    if (P == 0 && Spec.DominantProcFactor > 1)
      B *= Spec.DominantProcFactor;
    Budgets.push_back(B);
  }

  auto EmitStmt = [&](std::ostringstream &Body, unsigned ProcIndex,
                      const char *Indent) {
    unsigned MaxKind = Spec.BestCase ? 6 : 9;
    switch (R.range(0, MaxKind)) {
    case 0:
      Body << Indent << "t := (a * " << R.range(2, 9) << " + b) MOD "
           << R.range(5, 17) << ";\n";
      break;
    case 1:
      Body << Indent << "FOR i := 0 TO " << R.range(3, 15)
           << " DO acc := acc + i * t END;\n";
      break;
    case 2:
      Body << Indent << "IF acc > " << R.range(10, 99) << " THEN acc := acc - "
           << R.range(1, 9) << " ELSE acc := acc + 1 END;\n";
      break;
    case 3:
      Body << Indent << "WHILE t > 0 DO t := t DIV 2; INC(acc) END;\n";
      break;
    case 4:
      Body << Indent << "v[" << R.range(0, 15) << "] := acc; t := t + v["
           << R.range(0, 15) << "];\n";
      break;
    case 5:
      Body << Indent << "WITH r DO x := acc; y := t END; acc := acc + r.x;\n";
      break;
    case 6:
      Body << Indent << "CASE t MOD 4 OF 0: acc := acc + 1 | 1, 2: acc := "
                        "acc + 2 ELSE acc := acc - 1 END;\n";
      break;
    case 7: // outer-scope references (module globals and constants)
      if (R.chance(12)) {
        // A global declared *after* the procedures (see below): probing
        // the incomplete module scope misses, so the lookup blocks and
        // succeeds only once the table completes.
        Body << Indent << "acc := acc + late"
             << (R.chance(50) ? "A" : "B") << ";\n";
      } else {
        Body << Indent << "acc := acc + g"
             << R.range(0, Spec.NumGlobalVars - 1) << " + K"
             << R.range(0, Spec.NumGlobalConsts - 1) << ";\n";
      }
      break;
    case 8: // qualified reference into a *directly* imported interface
      if (!AtLevel.empty() && !AtLevel[0].empty()) {
        unsigned K = AtLevel[0][R.range(
            0, static_cast<unsigned>(AtLevel[0].size()) - 1)];
        Body << Indent << "acc := acc + " << IfaceName(K) << ".C"
             << R.range(0, (std::max(2u, Spec.InterfaceDecls) + 1) / 2 - 1)
             << ";\n";
      } else {
        Body << Indent << "acc := acc + 1;\n";
      }
      break;
    case 9: // call an earlier procedure of this module
      if (ProcIndex > 0)
        Body << Indent << "acc := acc + P" << R.range(0, ProcIndex - 1)
             << "(t, acc);\n";
      else
        Body << Indent << "acc := acc * 2;\n";
      break;
    }
  };

  for (unsigned P = 0; P < Spec.NumProcedures; ++P) {
    OS << "PROCEDURE P" << P << "(a, b: INTEGER): INTEGER;\n"
       << "VAR i, t, acc: INTEGER; v: Vec; r: Rec;\n";
    if (!AtLevel.empty() && !AtLevel[0].empty() && R.chance(60)) {
      // A qualified *type* reference exercises qualified lookup during
      // declaration analysis, when interfaces are most likely incomplete.
      unsigned K = AtLevel[0][R.range(
          0, static_cast<unsigned>(AtLevel[0].size()) - 1)];
      OS << "  q: " << IfaceName(K) << ".T0;\n";
    }
    bool Nested = !Spec.BestCase && Spec.NestedProcEvery != 0 &&
                  P % Spec.NestedProcEvery == Spec.NestedProcEvery - 1;
    if (Nested) {
      OS << "  PROCEDURE Inner(k: INTEGER): INTEGER;\n"
         << "  BEGIN RETURN k * 2 + a END Inner;\n";
    }
    OS << "BEGIN\n  acc := 0; t := b;\n";
    // A qualified *type* use exercises qualified lookups during
    // declaration analysis, where interfaces are most likely incomplete.
    for (unsigned S = 0; S < Budgets[P]; ++S)
      EmitStmt(OS, P, "  ");
    if (Nested)
      OS << "  acc := acc + Inner(t);\n";
    OS << "  RETURN acc + t\nEND P" << P << ";\n";
  }

  // Declaration sections may repeat in any order; globals declared
  // *after* the procedures are what statement analyzers can only find
  // after a DKY blockage on the (still incomplete) module scope — the
  // "After DKY" rows of the paper's Table 2.
  if (!Spec.BestCase)
    OS << "VAR lateA, lateB: INTEGER;\n";

  OS << "BEGIN\n";
  unsigned Calls = std::min(Spec.NumProcedures, 8u);
  for (unsigned C = 0; C < Calls; ++C)
    OS << "  g" << C % std::max(1u, Spec.NumGlobalVars) << " := P"
       << (Spec.NumProcedures - 1 - C) << "(" << C + 1 << ", " << C + 2
       << ");\n";
  OS << "  WriteInt(g0, 0); WriteLn\nEND " << Spec.Name << ".\n";

  std::string Text = OS.str();
  Info.ModuleBytes = Text.size();
  Files.addFile(Spec.Name + ".mod", std::move(Text));
  return Info;
}

GeneratedProject WorkloadGenerator::generateProject(const ProjectSpec &Spec) {
  Rng R(Spec.Seed);
  GeneratedProject Info;
  auto SharedName = [&](unsigned K) {
    return Spec.Name + "Shared" + std::to_string(K);
  };
  auto ModName = [&](unsigned J) {
    return Spec.Name + "M" + std::to_string(J);
  };
  unsigned Decls = std::max(2u, Spec.InterfaceDecls);
  unsigned Procs = std::max(1u, Spec.ProcsPerModule);

  //===--- Shared interfaces (imported by every library module) -----------===//
  for (unsigned K = 0; K < Spec.SharedInterfaces; ++K) {
    std::ostringstream Def;
    Def << "DEFINITION MODULE " << SharedName(K) << ";\n";
    Def << "CONST\n";
    for (unsigned D = 0; D < (Decls + 1) / 2; ++D)
      Def << "  C" << D << " = " << R.range(1, 97) << ";\n";
    for (unsigned D = 0; D < Decls / 2; ++D)
      Def << "PROCEDURE F" << D << "(x: INTEGER): INTEGER;\n";
    Def << "VAR v0: INTEGER;\n";
    Def << "END " << SharedName(K) << ".\n";
    Files.addFile(SharedName(K) + ".def", Def.str());

    std::ostringstream Impl;
    Impl << "IMPLEMENTATION MODULE " << SharedName(K) << ";\n";
    for (unsigned D = 0; D < Decls / 2; ++D)
      Impl << "PROCEDURE F" << D << "(x: INTEGER): INTEGER;\n"
           << "BEGIN RETURN x * " << D + 2 << " + C0 END F" << D << ";\n";
    Impl << "BEGIN v0 := C0 END " << SharedName(K) << ".\n";
    Files.addFile(SharedName(K) + ".mod", Impl.str());
    Info.Modules.push_back(SharedName(K));
  }

  //===--- The module chain ------------------------------------------------===//
  for (unsigned J = 0; J < Spec.NumModules; ++J) {
    std::ostringstream Def;
    Def << "DEFINITION MODULE " << ModName(J) << ";\n";
    if (!Spec.DefImportInterfaces.empty()) {
      // Def-to-def edges: importers of this interface pull the whole set
      // into their closure without binding it themselves.
      Def << "IMPORT ";
      for (size_t K = 0; K < Spec.DefImportInterfaces.size(); ++K)
        Def << (K ? ", " : "") << Spec.DefImportInterfaces[K];
      Def << ";\n";
    }
    Def << "PROCEDURE Work(n: INTEGER): INTEGER;\n"
        << "END " << ModName(J) << ".\n";
    Files.addFile(ModName(J) + ".def", Def.str());

    std::ostringstream Impl;
    Impl << "IMPLEMENTATION MODULE " << ModName(J) << ";\n";
    if (Spec.SharedInterfaces) {
      Impl << "IMPORT ";
      for (unsigned K = 0; K < Spec.SharedInterfaces; ++K)
        Impl << (K ? ", " : "") << SharedName(K);
      Impl << ";\n";
    }
    if (!Spec.ImportInterfaces.empty()) {
      Impl << "IMPORT ";
      for (size_t K = 0; K < Spec.ImportInterfaces.size(); ++K)
        Impl << (K ? ", " : "") << Spec.ImportInterfaces[K];
      Impl << ";\n";
    }
    if (J > 0)
      Impl << "IMPORT " << ModName(J - 1) << ";\n";
    for (unsigned P = 0; P < Procs; ++P) {
      Impl << "PROCEDURE H" << P << "(a, b: INTEGER): INTEGER;\n"
           << "VAR i, t, acc: INTEGER;\nBEGIN\n  acc := 0; t := b;\n";
      unsigned Stmts = std::max(
          2u, static_cast<unsigned>(Spec.MeanProcStmts * 0.5) +
                  R.range(0, Spec.MeanProcStmts));
      for (unsigned S = 0; S < Stmts; ++S) {
        switch (R.range(0, 3)) {
        case 0:
          Impl << "  t := (a * " << R.range(2, 9) << " + acc) MOD "
               << R.range(5, 17) << ";\n";
          break;
        case 1:
          Impl << "  FOR i := 0 TO " << R.range(3, 9)
               << " DO acc := acc + i + t END;\n";
          break;
        case 2:
          Impl << "  WHILE t > 0 DO t := t DIV 2; INC(acc) END;\n";
          break;
        case 3:
          if (Spec.SharedInterfaces) {
            unsigned K = R.range(0, Spec.SharedInterfaces - 1);
            Impl << "  acc := acc + " << SharedName(K) << ".C"
                 << R.range(0, (Decls + 1) / 2 - 1) << ";\n";
          } else {
            Impl << "  acc := acc + 1;\n";
          }
          break;
        }
      }
      if (Spec.SharedInterfaces) {
        unsigned K = R.range(0, Spec.SharedInterfaces - 1);
        Impl << "  acc := acc + " << SharedName(K) << ".F0(a);\n";
      }
      if (!Spec.ImportInterfaces.empty()) {
        // Qualified reference into an external interface so the import is
        // load-bearing; C0 always exists (InterfaceDecls >= 2).
        unsigned K = R.range(
            0, static_cast<unsigned>(Spec.ImportInterfaces.size()) - 1);
        Impl << "  acc := acc + " << Spec.ImportInterfaces[K] << ".C0;\n";
      }
      Impl << "  RETURN acc + t\nEND H" << P << ";\n";
    }
    Impl << "PROCEDURE Work(n: INTEGER): INTEGER;\n"
         << "VAR r, i: INTEGER;\nBEGIN\n  r := 0;\n"
         << "  FOR i := 0 TO n DO r := r + H0(i, n) END;\n"
         << "  r := r + H" << Procs - 1 << "(n, 2);\n";
    if (J > 0)
      Impl << "  r := r + " << ModName(J - 1) << ".Work(n);\n";
    Impl << "  RETURN r\nEND Work;\n"
         << "END " << ModName(J) << ".\n";
    Files.addFile(ModName(J) + ".mod", Impl.str());
    Info.Modules.push_back(ModName(J));
  }

  //===--- The root program ------------------------------------------------===//
  Info.Root = Spec.Name + "Main";
  std::ostringstream Main;
  Main << "MODULE " << Info.Root << ";\n";
  if (Spec.NumModules)
    Main << "IMPORT " << ModName(Spec.NumModules - 1) << ";\n";
  Main << "VAR r: INTEGER;\nBEGIN\n  r := 0;\n";
  if (Spec.NumModules)
    Main << "  r := " << ModName(Spec.NumModules - 1) << ".Work(4);\n";
  Main << "  WriteInt(r, 0); WriteLn\nEND " << Info.Root << ".\n";
  Files.addFile(Info.Root + ".mod", Main.str());
  Info.Modules.push_back(Info.Root);
  Info.InterfaceCount = Spec.SharedInterfaces + Spec.NumModules;
  return Info;
}

GeneratedRequestSet
WorkloadGenerator::generateRequestSet(const RequestSetSpec &Spec) {
  Rng R(Spec.Seed);
  GeneratedRequestSet Info;
  unsigned Decls = std::max(2u, Spec.InterfaceDecls);

  //===--- The common interface pool (.def only) ---------------------------===//
  // Definition-only interfaces: every project imports all of them, so
  // they overlap in front-end work (lex/parse/analyze of the interface)
  // without forcing the projects to share implementation modules — the
  // service's compile sets stay disjoint and requests run concurrently.
  for (unsigned K = 0; K < Spec.CommonInterfaces; ++K) {
    std::string Name = Spec.Name + "Common" + std::to_string(K);
    std::ostringstream Def;
    Def << "DEFINITION MODULE " << Name << ";\n";
    Def << "CONST\n";
    for (unsigned D = 0; D < (Decls + 1) / 2; ++D)
      Def << "  C" << D << " = " << R.range(1, 97) << ";\n";
    for (unsigned D = 0; D < Decls / 2; ++D)
      Def << "PROCEDURE F" << D << "(x: INTEGER): INTEGER;\n";
    Def << "VAR v0: INTEGER;\n";
    Def << "END " << Name << ".\n";
    Files.addFile(Name + ".def", Def.str());
    Info.CommonInterfaceNames.push_back(std::move(Name));
  }
  Info.InterfaceCount = Spec.CommonInterfaces;

  //===--- The projects ----------------------------------------------------===//
  for (unsigned P = 0; P < Spec.NumProjects; ++P) {
    ProjectSpec Proj;
    Proj.Name = Spec.Name + "P" + std::to_string(P);
    Proj.NumModules = Spec.ModulesPerProject;
    Proj.SharedInterfaces = Spec.ProjectInterfaces;
    Proj.ProcsPerModule = Spec.ProcsPerModule;
    Proj.MeanProcStmts = Spec.MeanProcStmts;
    Proj.InterfaceDecls = Spec.InterfaceDecls;
    Proj.Seed = Spec.Seed + 101 * (P + 1);
    if (Spec.CommonImportsViaDefs)
      Proj.DefImportInterfaces = Info.CommonInterfaceNames;
    else
      Proj.ImportInterfaces = Info.CommonInterfaceNames;
    GeneratedProject Gen = generateProject(Proj);
    Info.InterfaceCount += Gen.InterfaceCount;
    Info.Projects.push_back(std::move(Gen));
  }

  //===--- The request list (round-robin arrival) --------------------------===//
  for (unsigned Rep = 0; Rep < Spec.RequestsPerProject; ++Rep)
    for (const GeneratedProject &Proj : Info.Projects)
      Info.Requests.push_back({Proj.Root});
  return Info;
}

GeneratedModule WorkloadGenerator::generateCompute(const ComputeSpec &Spec) {
  Rng R(Spec.Seed);
  GeneratedModule Info;
  Info.Name = Spec.Name;
  const unsigned Leaves = std::max(1u, Spec.LeafProcs);
  const unsigned Fan = std::max(1u, Spec.Fan);

  std::ostringstream OS;
  OS << "MODULE " << Spec.Name << ";\n"
     << "VAR total, k: INTEGER;\n";

  //===--- Leaf procedures (the hot ones) ----------------------------------===//
  // The inner-loop bodies are all local-variable integer arithmetic —
  // LoadLocal/LoadLocal/binop/StoreLocal sequences — so tier 1 fuses
  // them, and the loop itself supplies the backedges that drive
  // promotion.  Everything stays in INTEGER with MOD bounds, so the
  // result (and therefore the program output) is tier-independent.
  for (unsigned L = 0; L < Leaves; ++L) {
    OS << "PROCEDURE L" << L << "(a, b: INTEGER): INTEGER;\n"
       << "VAR i, t, acc: INTEGER;\nBEGIN\n"
       << "  acc := a MOD " << R.range(7, 31) << "; t := b;\n"
       << "  FOR i := 0 TO " << Spec.InnerIters << " DO\n";
    switch (R.range(0, 2)) {
    case 0:
      OS << "    acc := acc + i; t := t + acc\n";
      break;
    case 1:
      OS << "    acc := acc + i + t; t := t + " << R.range(1, 5) << "\n";
      break;
    case 2:
      OS << "    t := t + i; acc := acc + t; acc := acc - i\n";
      break;
    }
    OS << "  END;\n"
       << "  WHILE t > " << R.range(1, 9)
       << " DO t := t DIV 2; INC(acc) END;\n"
       << "  RETURN acc + t\nEND L" << L << ";\n";
  }

  //===--- Chain levels, bottom-up -----------------------------------------===//
  // Level Depth-1 calls leaves; level d calls level d+1; the module body
  // calls level 0.  Bottom-up emission keeps declare-before-use.  MOD
  // lives only here (it is not fusable and bounds the values), leaving
  // the leaves' loops maximally fusable.
  auto Proc = [](unsigned Level, unsigned K) {
    return "P" + std::to_string(Level) + "_" + std::to_string(K);
  };
  for (unsigned D = Spec.Depth; D-- > 0;) {
    for (unsigned K = 0; K < Fan; ++K) {
      OS << "PROCEDURE " << Proc(D, K) << "(a, b: INTEGER): INTEGER;\n"
         << "VAR j, r: INTEGER;\nBEGIN\n"
         << "  r := a MOD 1009;\n"
         << "  FOR j := 0 TO " << Fan - 1 << " DO\n";
      if (D + 1 < Spec.Depth)
        OS << "    r := r + " << Proc(D + 1, R.range(0, Fan - 1))
           << "(r + j, b)\n";
      else
        OS << "    r := r + L" << R.range(0, Leaves - 1) << "(r + j, b)\n";
      OS << "  END;\n"
         << "  RETURN r MOD 100003\nEND " << Proc(D, K) << ";\n";
    }
  }

  //===--- The driver loop --------------------------------------------------===//
  OS << "BEGIN\n  total := 0;\n"
     << "  FOR k := 1 TO " << Spec.OuterIters << " DO\n";
  if (Spec.Depth)
    OS << "    total := (total + " << Proc(0, R.range(0, Fan - 1))
       << "(k, k + 1)) MOD 100003\n";
  else
    OS << "    total := (total + L" << R.range(0, Leaves - 1)
       << "(k, k + 1)) MOD 100003\n";
  OS << "  END;\n"
     << "  WriteInt(total, 0); WriteLn\nEND " << Spec.Name << ".\n";

  std::string Text = OS.str();
  Info.ModuleBytes = Text.size();
  Info.ProcedureCount = Leaves + Spec.Depth * Fan;
  Files.addFile(Spec.Name + ".mod", Text);
  return Info;
}

GeneratedAdversarial
WorkloadGenerator::generateAdversarial(const AdversarialSpec &Spec) {
  Rng R(Spec.Seed);
  GeneratedAdversarial Out;
  Out.Root = Spec.Name;
  unsigned Scale = std::max(1u, Spec.Scale);

  // Text-mutating kinds start from a real generated module so the damage
  // profile matches partial writes of real sources.
  auto BaseModule = [&] {
    ModuleSpec Base;
    Base.Name = Spec.Name;
    Base.NumProcedures = 2 + Scale;
    Base.MeanProcStmts = 6 + Scale;
    Base.ImportedInterfaces = 2;
    Base.ImportDepth = 1;
    Base.InterfaceDecls = 8;
    Base.Seed = Spec.Seed;
    generate(Base);
    return std::string(Files.lookup(Spec.Name + ".mod")->Text);
  };

  switch (Spec.Kind) {
  case AdversarialKind::TruncatedEof: {
    // Cut mid-token-stream: everything from 40–85% in is gone, so the
    // parser meets EOF inside nested blocks; the trailing "END <name>."
    // is always lost.
    std::string Text = BaseModule();
    size_t Cut = Text.size() * R.range(40, 85) / 100;
    Files.addFile(Spec.Name + ".mod", Text.substr(0, Cut));
    Out.Expect = AdversarialExpectation::MustFail;
    break;
  }
  case AdversarialKind::MidEditDrop: {
    // A half-applied edit: an interior span vanished but the file still
    // has its head and tail.  Almost always malformed, but a lucky span
    // can be a whole procedure — only clean termination is promised.
    std::string Text = BaseModule();
    size_t From = Text.size() * R.range(25, 55) / 100;
    size_t Len = Text.size() * R.range(10, 30) / 100;
    Files.addFile(Spec.Name + ".mod",
                  Text.substr(0, From) + Text.substr(From + Len));
    Out.Expect = AdversarialExpectation::Either;
    break;
  }
  case AdversarialKind::UnbalancedBlocks: {
    // Blank every block terminator past the midpoint (spaces, so token
    // positions elsewhere survive): nesting never closes, and unlike
    // TruncatedEof the parser keeps finding tokens after the damage.
    std::string Text = BaseModule();
    for (size_t Pos = Text.size() / 2;
         (Pos = Text.find("END", Pos)) != std::string::npos;)
      Text.replace(Pos, 3, "   ");
    Files.addFile(Spec.Name + ".mod", Text);
    Out.Expect = AdversarialExpectation::MustFail;
    break;
  }
  case AdversarialKind::DuplicateImports: {
    // The same interface imported over and over, in both clauses.
    std::string If = Spec.Name + "Dup";
    Files.addFile(If + ".def", "DEFINITION MODULE " + If +
                                   ";\nCONST C0 = 7;\nEND " + If + ".\n");
    std::ostringstream OS;
    OS << "MODULE " << Spec.Name << ";\n";
    for (unsigned I = 0; I < Scale; ++I)
      OS << "IMPORT " << If << ", " << If << ";\n";
    OS << "FROM " << If << " IMPORT C0;\n";
    OS << "VAR x: INTEGER;\nBEGIN x := " << If << ".C0 + C0\nEND "
       << Spec.Name << ".\n";
    Files.addFile(Spec.Name + ".mod", OS.str());
    Out.Expect = AdversarialExpectation::Either;
    break;
  }
  case AdversarialKind::CyclicImports: {
    // Interfaces importing in a ring.  Interface analysis would deadlock
    // on this; BuildGraph::interfaceCycle() must refuse it cleanly.
    unsigned Len = std::max(2u, Scale);
    auto Iface = [&](unsigned I) {
      return Spec.Name + "Cyc" + std::to_string(I % Len);
    };
    for (unsigned I = 0; I < Len; ++I)
      Files.addFile(Iface(I) + ".def",
                    "DEFINITION MODULE " + Iface(I) + ";\nIMPORT " +
                        Iface(I + 1) + ";\nCONST C0 = " +
                        std::to_string(I + 1) + ";\nEND " + Iface(I) + ".\n");
    Files.addFile(Spec.Name + ".mod",
                  "MODULE " + Spec.Name + ";\nIMPORT " + Iface(0) +
                      ";\nVAR x: INTEGER;\nBEGIN x := 1\nEND " + Spec.Name +
                      ".\n");
    Out.Expect = AdversarialExpectation::MustFail;
    break;
  }
  case AdversarialKind::PathologicalDag: {
    // Scale layers of Scale interfaces; every node imports the *whole*
    // next layer, so closure sizes explode combinatorially while the
    // graph stays well-formed.
    auto Iface = [&](unsigned L, unsigned I) {
      return Spec.Name + "L" + std::to_string(L) + "I" + std::to_string(I);
    };
    for (unsigned L = 0; L < Scale; ++L)
      for (unsigned I = 0; I < Scale; ++I) {
        std::ostringstream OS;
        OS << "DEFINITION MODULE " << Iface(L, I) << ";\n";
        if (L + 1 < Scale) {
          OS << "IMPORT ";
          for (unsigned J = 0; J < Scale; ++J)
            OS << (J ? ", " : "") << Iface(L + 1, J);
          OS << ";\n";
        }
        OS << "CONST C0 = " << L * Scale + I + 1 << ";\n";
        if (L + 1 < Scale)
          OS << "CONST CX = " << Iface(L + 1, 0) << ".C0 + 1;\n";
        OS << "END " << Iface(L, I) << ".\n";
        Files.addFile(Iface(L, I) + ".def", OS.str());
      }
    std::ostringstream OS;
    OS << "MODULE " << Spec.Name << ";\nIMPORT ";
    for (unsigned I = 0; I < Scale; ++I)
      OS << (I ? ", " : "") << Iface(0, I);
    OS << ";\nVAR x: INTEGER;\nBEGIN\n  x := 0";
    for (unsigned I = 0; I < Scale; ++I)
      OS << " + " << Iface(0, I) << ".C0";
    OS << "\nEND " << Spec.Name << ".\n";
    Files.addFile(Spec.Name + ".mod", OS.str());
    Out.Expect = AdversarialExpectation::MustSucceed;
    break;
  }
  }
  return Out;
}

std::vector<ModuleSpec> WorkloadGenerator::paperSuite() {
  // Table 1 anchors: min / median / max of each attribute over the 37
  // programs.  Values between anchors interpolate geometrically, with
  // mild deterministic jitter so the suite isn't artificially smooth.
  constexpr unsigned N = 37;
  constexpr double BytesAnchor[3] = {2371, 13180, 336312};
  constexpr double ProcsAnchor[3] = {2, 16, 221};
  constexpr double IfacesAnchor[3] = {4, 17, 133};
  constexpr double DepthAnchor[3] = {1, 5, 12};

  auto Interp = [&](const double A[3], unsigned I) {
    double Mid = (N - 1) / 2.0;
    double T;
    double Lo, Hi;
    if (I <= Mid) {
      T = I / Mid;
      Lo = A[0];
      Hi = A[1];
    } else {
      T = (I - Mid) / Mid;
      Lo = A[1];
      Hi = A[2];
    }
    return Lo * std::pow(Hi / Lo, T);
  };

  std::vector<ModuleSpec> Suite;
  for (unsigned I = 0; I < N; ++I) {
    Rng R(1000 + I);
    double Jitter = (I == 0 || I == N / 2 || I == N - 1)
                        ? 1.0
                        : 0.9 + (R.Gen() % 21) / 100.0;
    ModuleSpec Spec;
    Spec.Name = "Suite" + std::to_string(I);
    Spec.Seed = 7 * I + 13;
    double TargetBytes = Interp(BytesAnchor, I) * Jitter;
    Spec.NumProcedures = std::max(
        2u, static_cast<unsigned>(std::lround(Interp(ProcsAnchor, I))));
    Spec.ImportedInterfaces = std::max(
        4u, static_cast<unsigned>(std::lround(Interp(IfacesAnchor, I))));
    Spec.ImportDepth = std::max(
        1u, static_cast<unsigned>(std::lround(Interp(DepthAnchor, I))));
    // Solve the per-procedure statement budget for the byte target:
    // bytes ~ base + procs * (heading ~95B + stmts * ~42B).
    double Base = 420 + 14.0 * Spec.NumGlobalVars;
    double PerProc = 95.0;
    double Budget =
        (TargetBytes - Base - PerProc * Spec.NumProcedures) /
        (48.0 * Spec.NumProcedures);
    Spec.MeanProcStmts =
        std::max(2u, static_cast<unsigned>(std::lround(Budget)));
    // The smallest programs get one dominant procedure (and the byte
    // budget is rebalanced so Table 1's sizes still hold).
    if (Spec.NumProcedures <= 5) {
      Spec.DominantProcFactor = 5;
      double Share =
          (Spec.NumProcedures + 4.0) / Spec.NumProcedures; // budget scale
      Spec.MeanProcStmts = std::max(
          2u, static_cast<unsigned>(std::lround(Budget / Share)));
    }
    Spec.NumGlobalVars = 4 + Spec.NumProcedures / 8;
    Spec.NumGlobalConsts = 4 + Spec.NumProcedures / 16;
    Suite.push_back(std::move(Spec));
  }
  // One mid-size program is a classic single-procedure utility: almost
  // all of its work is one long sequential stream, which caps its
  // speedup near 2 however many processors are available — the paper's
  // minimum-speedup program (Table 3 Min row).
  Suite[4].NumProcedures = 2;
  Suite[4].DominantProcFactor = 16;
  Suite[4].MeanProcStmts = 24;
  Suite[4].NestedProcEvery = 0;
  return Suite;
}

ModuleSpec WorkloadGenerator::synthSpec() {
  ModuleSpec Spec;
  Spec.Name = "Synth";
  Spec.BestCase = true;
  Spec.NumProcedures = 64;
  Spec.MeanProcStmts = 60;
  Spec.NumGlobalVars = 8;
  Spec.NumGlobalConsts = 4;
  Spec.ImportedInterfaces = 0;
  Spec.NestedProcEvery = 0;
  Spec.Seed = 424242;
  return Spec;
}
