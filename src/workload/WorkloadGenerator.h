//===--- WorkloadGenerator.h - Synthetic Modula-2+ programs -----*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper evaluated on 37 programs sampled from the DEC SRC Modula-2+
/// library — proprietary sources that are not available.  This generator
/// produces well-formed synthetic modules with the same *gross structure*
/// (module size, procedure count and length distribution, imported
/// interface count, import nesting depth; Table 1), which is what the
/// concurrent compiler's behaviour depends on.  Generation is
/// deterministic in the seed.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_WORKLOAD_WORKLOADGENERATOR_H
#define M2C_WORKLOAD_WORKLOADGENERATOR_H

#include "support/VirtualFileSystem.h"

#include <cstdint>
#include <string>
#include <vector>

namespace m2c::workload {

/// Parameters of one generated module (plus its interface closure).
struct ModuleSpec {
  std::string Name;
  unsigned NumProcedures = 16;
  /// Mean statements per procedure body; individual procedures vary
  /// around it with a long tail (some procedures much longer).
  unsigned MeanProcStmts = 12;
  unsigned NumGlobalVars = 8;
  unsigned NumGlobalConsts = 6;
  unsigned NumTypes = 3;
  /// Total interfaces imported directly or indirectly.
  unsigned ImportedInterfaces = 4;
  /// Maximum import nesting depth of the interface DAG.
  unsigned ImportDepth = 2;
  /// Declarations per generated interface.
  unsigned InterfaceDecls = 40;
  /// Every Nth procedure receives a nested procedure (0 = none).
  unsigned NestedProcEvery = 6;
  /// When nonzero, the first procedure's statement budget is multiplied
  /// by this factor.  Small real programs are often one dominant
  /// procedure plus helpers, which caps their speedup with a long
  /// sequential stream (the paper's minimum-speedup programs).
  unsigned DominantProcFactor = 0;
  uint32_t Seed = 1;
  /// Best-case mode (the paper's Synth.mod): no imports, no references
  /// outside the procedure's own scope, equal-sized procedures — ample
  /// parallel work and no DKY blockage, for near-linear speedup.
  bool BestCase = false;
  /// Also emit an implementation module for every generated interface,
  /// so the whole program can be compiled module by module, linked and
  /// executed on the MCode machine.
  bool WithImplementations = false;
};

/// Description of one generated module, reported for Table 1.
struct GeneratedModule {
  std::string Name;
  size_t ModuleBytes = 0;     ///< Size of the .mod file.
  size_t InterfaceCount = 0;  ///< Interfaces generated (direct+indirect).
  unsigned ImportDepth = 0;
  unsigned ProcedureCount = 0;
};

/// Parameters of one generated multi-module project: a chain of library
/// modules (each with its own interface) over a set of shared interfaces
/// that *every* module imports, plus a root program module.  The shared
/// interfaces are what make a build session pay off: a per-module
/// compile loop re-parses each of them once per module, a session parses
/// each exactly once.
struct ProjectSpec {
  std::string Name = "Proj";
  /// Library modules (each a .def + .mod pair), chained: module j
  /// imports module j-1's interface.
  unsigned NumModules = 6;
  /// Interfaces (with implementations) imported by every library module.
  unsigned SharedInterfaces = 3;
  unsigned ProcsPerModule = 8;
  unsigned MeanProcStmts = 10;
  unsigned InterfaceDecls = 16;
  uint32_t Seed = 11;
  /// Externally provided interfaces (generated elsewhere, by name) that
  /// every library module of this project additionally imports.  This is
  /// how generateRequestSet() makes separate projects overlap: they all
  /// import the same external interface set, so a build service parses
  /// those interfaces once for the whole request fleet.
  std::vector<std::string> ImportInterfaces;
  /// Externally provided interfaces imported by every chain module's
  /// *interface* (.def) instead of its implementation.  The interfaces
  /// end up in exactly the same request closure, but reach it through
  /// def-to-def edges: an implementation binds only its few direct
  /// imports while the transitive interface analysis still covers the
  /// full set.  This separates "how much a compile binds" from "how much
  /// an interface pool (re)analyzes" — the knob the farm bench uses to
  /// size rotation cost independently of per-request compile cost.
  std::vector<std::string> DefImportInterfaces;
};

/// What generateProject() produced.
struct GeneratedProject {
  std::string Root; ///< The program module; build sessions start here.
  /// Every implementation module, imports first (shared libraries, the
  /// module chain, then the root) — the per-module compile loop's order.
  std::vector<std::string> Modules;
  size_t InterfaceCount = 0; ///< Distinct .def files generated.
};

/// Parameters of a generated *request set*: several projects that all
/// import one common pool of interfaces, plus a manifest of build
/// requests over them.  This is the shared workload of the build-service
/// bench, the service tests and `m2c_cli -serve`: requests overlap in
/// interfaces (the service's interface pool pays off) and repeat
/// (the artifact tiers pay off), deterministically in the seed.
struct RequestSetSpec {
  std::string Name = "Req";
  unsigned NumProjects = 4;
  /// Interfaces imported by every module of *every* project (.def only —
  /// no implementations, so projects overlap in parsing, not codegen).
  unsigned CommonInterfaces = 4;
  /// Route the common imports through each project's chain-module .defs
  /// (see ProjectSpec::DefImportInterfaces) instead of every chain .mod.
  /// Same interface closure per request, far fewer direct binds per
  /// compiled module.
  bool CommonImportsViaDefs = false;
  /// Per-project chained modules (see ProjectSpec::NumModules).
  unsigned ModulesPerProject = 4;
  /// Per-project interfaces imported by that project's modules only.
  unsigned ProjectInterfaces = 2;
  unsigned ProcsPerModule = 6;
  unsigned MeanProcStmts = 8;
  unsigned InterfaceDecls = 12;
  /// How many times each project appears in the request list.  Requests
  /// are interleaved round-robin (P0 P1 .. P0 P1 ..) so repeats arrive
  /// after every project ran once — the warm-tier case.
  unsigned RequestsPerProject = 2;
  uint32_t Seed = 17;
};

/// Parameters of one generated *compute-heavy* program: a single runnable
/// module whose execution time dwarfs its compile time — deep call chain,
/// hot integer inner loops, deterministic WriteInt output.  This is the
/// VM-tiering workload: the inner loops lower to the
/// load/load/binop/store shapes the tier-1 translator fuses, the leaf
/// procedures cross the promotion thresholds within the first outer
/// iterations, and the output depends only on the arithmetic, so it is
/// byte-identical across execution tiers.
struct ComputeSpec {
  std::string Name = "Compute";
  /// Call-chain depth between the module body and the leaf procedures.
  unsigned Depth = 3;
  /// Calls each chain level makes into the level below.
  unsigned Fan = 2;
  /// Leaf procedures (the hot ones).
  unsigned LeafProcs = 6;
  /// Iterations of each leaf's inner loop.
  unsigned InnerIters = 64;
  /// Iterations of the module body's driver loop.
  unsigned OuterIters = 50;
  uint32_t Seed = 7;
};

/// What generateRequestSet() produced.
struct GeneratedRequestSet {
  /// One entry per request: the root modules to build (arrival order).
  std::vector<std::vector<std::string>> Requests;
  std::vector<GeneratedProject> Projects;
  /// Names of the interfaces every project imports.
  std::vector<std::string> CommonInterfaceNames;
  size_t InterfaceCount = 0; ///< Distinct .def files generated in total.
};

/// The shapes of hostile input real traffic contains at its worst
/// moments: torn reads, half-applied edits, pathological graphs.  The
/// contract under all of them is the same — the compiler terminates with
/// clean diagnostics (or a clean success), never hangs, crashes or
/// corrupts shared state.
enum class AdversarialKind {
  TruncatedEof,     ///< Well-formed module cut mid-token-stream.
  MidEditDrop,      ///< An interior span deleted, as in a half-applied edit.
  UnbalancedBlocks, ///< Block terminators blanked past the midpoint.
  DuplicateImports, ///< The same interface imported repeatedly.
  CyclicImports,    ///< Interfaces whose .def files import in a cycle.
  PathologicalDag,  ///< Dense layered DAG: each node imports a whole layer.
};

struct AdversarialSpec {
  std::string Name = "Adv";
  AdversarialKind Kind = AdversarialKind::TruncatedEof;
  uint32_t Seed = 23;
  /// Size knob: nesting depth, DAG layer width, cycle length.
  unsigned Scale = 3;
};

/// What a build of an adversarial root is allowed to do.  Byte-identity
/// and exactly-one-reply hold regardless; this only classifies the
/// expected Success bit.
enum class AdversarialExpectation {
  MustFail,    ///< The input is definitely broken.
  MustSucceed, ///< Hostile in shape but well-formed.
  Either,      ///< Outcome unspecified; only clean termination is required.
};

struct GeneratedAdversarial {
  std::string Root; ///< Root module name to build.
  AdversarialExpectation Expect = AdversarialExpectation::Either;
};

/// Generates synthetic compiler input into a VirtualFileSystem.
class WorkloadGenerator {
public:
  explicit WorkloadGenerator(VirtualFileSystem &Files) : Files(Files) {}

  /// Generates Spec.Name.mod plus its interface closure; returns the
  /// Table 1 attributes of what was generated.
  GeneratedModule generate(const ModuleSpec &Spec);

  /// Generates a linkable, runnable multi-module project (see
  /// ProjectSpec).  Deterministic in the seed; the root module writes a
  /// single integer, so linked output is comparable across build modes.
  GeneratedProject generateProject(const ProjectSpec &Spec);

  /// Generates overlapping projects and a request manifest over them
  /// (see RequestSetSpec).  Deterministic in the seed.
  GeneratedRequestSet generateRequestSet(const RequestSetSpec &Spec);

  /// Generates Spec.Name.mod, a self-contained compute-heavy program
  /// (see ComputeSpec).  Deterministic in the seed, output deterministic
  /// in the spec — the VM-tiering benchmark and test workload.
  GeneratedModule generateCompute(const ComputeSpec &Spec);

  /// Generates one adversarial root (see AdversarialKind), deterministic
  /// in the seed.  Text-mutating kinds generate a well-formed module
  /// first and then damage its bytes, so the damage is representative of
  /// real partial writes rather than synthetic garbage.
  GeneratedAdversarial generateAdversarial(const AdversarialSpec &Spec);

  /// The canned 37-program suite whose attribute distributions match the
  /// paper's Table 1 (min / median / max anchors, geometric in between).
  static std::vector<ModuleSpec> paperSuite();

  /// The best-possible-speedup synthetic module (paper Figure 2).
  static ModuleSpec synthSpec();

private:
  VirtualFileSystem &Files;
};

} // namespace m2c::workload

#endif // M2C_WORKLOAD_WORKLOADGENERATOR_H
