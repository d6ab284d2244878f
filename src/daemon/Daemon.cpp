//===--- Daemon.cpp - m2cd: the network build daemon ----------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"

#include "codegen/ObjectFile.h"
#include "fault/FaultPlan.h"
#include "vm/VmStats.h"

using namespace m2c;
using namespace m2c::daemon;
using namespace m2c::net;

Daemon::Daemon(VirtualFileSystem &Files, StringInterner &Interner,
               DaemonConfig Config)
    : Files(Files), Interner(Interner), Config(std::move(Config)),
      Service(Files, Interner, this->Config.Service),
      Server({this->Config.UnixSocketPath, this->Config.EnableTcp,
              this->Config.TcpPort, this->Config.MaxConnections,
              this->Config.MaxPendingBuilds,
              this->Config.WorkerMode ? "m2cd/1 worker" : "m2cd/1", "net"},
             NetStats,
             [this](BuildRequestMsg Msg, const RequestControl &Control) {
               return submit(std::move(Msg), Control);
             },
             [this] { return statsSnapshot(); }) {}

std::map<std::string, uint64_t> Daemon::statsSnapshot() {
  std::map<std::string, uint64_t> Merged = Service.statsSnapshot();
  for (const auto &[Name, Value] : NetStats.snapshot())
    Merged[Name] += Value;
  // The execution-tier counters (vm.*): present even when the daemon
  // never ran a program, so clients always see the full key set.
  for (const auto &[Name, Value] : vm::globalVmStats().snapshot())
    Merged[Name] += Value;
  // Injection counters (fault.*): only present while a FaultPlan is
  // installed, so production stats stay clean.
  for (const auto &[Name, Value] : fault::statsSnapshot())
    Merged[Name] += Value;
  return Merged;
}

std::optional<BuildResultMsg> Daemon::submit(BuildRequestMsg Msg,
                                             const RequestControl &Control) {
  if (Config.OnBuildStart)
    Config.OnBuildStart(Msg.RequestId);

  // Register pushed sources before discovery (PROTOCOL.md §9); the lock
  // makes concurrent pushes interleave whole-file, nothing finer.
  if (!Msg.Files.empty()) {
    std::lock_guard<std::mutex> Lock(FilesM);
    for (auto &[Name, Text] : Msg.Files)
      Files.addFile(Name, std::move(Text));
    NetStats.add("net.files.pushed", Msg.Files.size());
  }

  // The server turns the throw into one clean INTERNAL reply.
  if (M2C_FAULT_HIT("daemon.build").fail())
    throw fault::InjectedFault("daemon.build");
  build::BuildResult R = Service.submit(
      Msg.Roots, &Control, static_cast<opt::OptLevel>(Msg.OptLevel));
  // A checkpoint early-out: the deadline monitor or a CANCEL answers this
  // request; nothing was compiled.
  if (R.Aborted)
    return std::nullopt;

  BuildResultMsg Out;
  Out.St = R.Success ? Status::Ok : Status::BuildFailed;
  Out.Diagnostics = R.DiagnosticText;
  Out.ElapsedNs = R.ElapsedUnits;
  if (R.Success)
    for (const build::ModuleBuild &M : R.Modules) {
      ModuleArtifact A;
      A.Name = M.Name;
      A.FromCache = M.FromCache;
      A.StreamCount = static_cast<uint32_t>(M.StreamCount);
      A.Object = codegen::writeObjectFile(M.Image, Interner);
      Out.Modules.push_back(std::move(A));
    }
  return Out;
}
