//===--- WorkerProcess.cpp - one m2cd worker's lifecycle ------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "farm/WorkerProcess.h"

#include "net/RemoteClient.h"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace m2c;
using namespace m2c::farm;

std::unique_ptr<WorkerProcess> WorkerProcess::spawn(const WorkerSpec &Spec,
                                                    std::string &Err) {
  std::string Exe = findM2cd(Spec.M2cdPath);

  std::vector<std::string> Args;
  Args.push_back(Exe);
  Args.push_back("-worker");
  Args.push_back("-socket");
  Args.push_back(Spec.SocketPath);
  Args.push_back("-C");
  Args.push_back(Spec.Workspace);
  Args.push_back("-j");
  Args.push_back(std::to_string(Spec.Jobs));
  if (!Spec.CacheDir.empty()) {
    Args.push_back("-cache");
    Args.push_back(Spec.CacheDir);
  }
  if (Spec.MemTierBytes != static_cast<size_t>(-1)) {
    Args.push_back("-mem-tier");
    Args.push_back(std::to_string(Spec.MemTierBytes));
  }
  if (Spec.PoolCap) {
    Args.push_back("-pool-cap");
    Args.push_back(std::to_string(Spec.PoolCap));
  }

  std::vector<char *> Argv;
  Argv.reserve(Args.size() + 1);
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  pid_t Pid = ::fork();
  if (Pid < 0) {
    Err = "fork failed";
    return nullptr;
  }
  if (Pid == 0) {
    // Child.  Keep it async-signal-safe: setenv before exec is fine (we
    // are single-threaded post-fork as far as our own code goes; the
    // allocator locks are the usual fork caveat accepted by every
    // spawner of this shape).
    for (const auto &[Name, Value] : Spec.Env)
      ::setenv(Name.c_str(), Value.c_str(), 1);
    int Null = ::open("/dev/null", O_RDWR);
    if (Null >= 0) {
      ::dup2(Null, STDOUT_FILENO);
      ::dup2(Null, STDERR_FILENO);
      if (Null > STDERR_FILENO)
        ::close(Null);
    }
    ::execvp(Argv[0], Argv.data());
    ::_exit(127);
  }
  return std::unique_ptr<WorkerProcess>(new WorkerProcess(Pid));
}

WorkerProcess::~WorkerProcess() {
  if (Pid > 0 && !Reaped) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
  }
}

bool WorkerProcess::alive() {
  if (Pid <= 0 || Reaped)
    return false;
  int St = 0;
  pid_t R = ::waitpid(Pid, &St, WNOHANG);
  if (R == Pid) {
    Reaped = true;
    return false;
  }
  return true;
}

void WorkerProcess::terminate() {
  if (Pid > 0 && !Reaped)
    ::kill(Pid, SIGTERM);
}

void WorkerProcess::kill() {
  if (Pid > 0 && !Reaped)
    ::kill(Pid, SIGKILL);
}

std::optional<int> WorkerProcess::waitExit(unsigned TimeoutMs) {
  if (Pid <= 0 || Reaped)
    return 0;
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  for (;;) {
    int St = 0;
    pid_t R = ::waitpid(Pid, &St, WNOHANG);
    if (R == Pid) {
      Reaped = true;
      return St;
    }
    if (std::chrono::steady_clock::now() >= Deadline)
      return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::string m2c::farm::findM2cd(const std::string &Explicit) {
  if (!Explicit.empty())
    return Explicit;
  if (const char *Env = std::getenv("M2C_M2CD"); Env && *Env)
    return Env;
  // Relative to this executable: covers m2cfarm (build/src/farm/ next to
  // build/src/daemon/), test binaries (build/tests/) and bench binaries
  // (build/bench/).
  std::error_code EC;
  std::filesystem::path Self =
      std::filesystem::read_symlink("/proc/self/exe", EC);
  if (!EC) {
    std::filesystem::path Dir = Self.parent_path();
    for (const char *Rel :
         {"m2cd", "../daemon/m2cd", "../src/daemon/m2cd",
          "../../src/daemon/m2cd"}) {
      std::filesystem::path Candidate = Dir / Rel;
      if (std::filesystem::exists(Candidate, EC))
        return Candidate.lexically_normal().string();
    }
  }
  return "m2cd"; // PATH resolution at exec time.
}

bool m2c::farm::waitWorkerReady(const std::string &Address,
                                unsigned TimeoutMs, std::string &Err) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  std::string LastErr = "not attempted";
  for (;;) {
    std::string E;
    if (auto Client = net::RemoteClient::open(Address, E)) {
      if (Client->serverName().find("worker") == std::string::npos) {
        Err = "daemon at '" + Address + "' is not in worker mode (server '" +
              Client->serverName() + "')";
        return false;
      }
      if (Client->ping(E))
        return true;
      LastErr = "ping: " + E;
    } else {
      LastErr = E;
    }
    if (std::chrono::steady_clock::now() >= Deadline) {
      Err = "worker at '" + Address + "' not ready: " + LastErr;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}
