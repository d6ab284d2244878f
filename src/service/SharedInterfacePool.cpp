//===--- SharedInterfacePool.cpp - Interface reuse across requests --------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "service/SharedInterfacePool.h"

#include "cache/CacheKey.h"
#include "sched/ThreadedExecutor.h"

using namespace m2c;
using namespace m2c::service;

SharedInterfacePool::SharedInterfacePool(VirtualFileSystem &Files,
                                         StringInterner &Interner,
                                         sched::ThreadedExecutor &Exec,
                                         sema::CompilationOptions Options,
                                         unsigned MaxInterfaces)
    : Files(Files), Interner(Interner), Exec(Exec), Options(Options),
      MaxInterfaces(MaxInterfaces) {}

void SharedInterfacePool::rotateLocked() {
  if (Current) {
    RetiredParses += Current->Defs->parseCount();
    RetiredStreams += Current->Defs->streamCount();
  }
  auto Gen = std::make_shared<InterfaceGeneration>();
  Gen->Comp = std::make_shared<sema::Compilation>(Files, Interner, Options);
  // No request tag of its own: an interface task started from inside a
  // request's task inherits that request's tag through the worker
  // context, so awaitRequest covers the streams a request triggered.
  Gen->Spawner = std::make_unique<build::TaskSpawner>(Exec);
  Gen->Defs = std::make_unique<build::InterfaceSet>(*Gen->Comp,
                                                    *Gen->Spawner);
  Current = std::move(Gen);
  Generations.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<InterfaceGeneration>
SharedInterfacePool::acquire(const std::vector<std::string> &DefFiles) {
  std::lock_guard<std::mutex> Lock(M);
  if (!Current)
    rotateLocked();

  // Hash what's on "disk" now; "missing" hashes like the planner's file
  // dependencies so appearance/disappearance also rotates.
  std::vector<std::pair<const std::string *, std::string>> Hashes;
  Hashes.reserve(DefFiles.size());
  for (const std::string &Name : DefFiles) {
    const SourceBuffer *Buf = Files.lookup(Name);
    // Memoized on the buffer: requests re-check the same unchanged
    // interfaces on every acquire, and the hash of an immutable buffer
    // never changes.
    Hashes.emplace_back(&Name, Buf ? Buf->contentHash([Buf] {
      return cache::hashBytes(Buf->Text).hex();
    })
                                   : "missing");
  }
  for (const auto &[Name, Hash] : Hashes) {
    auto It = Current->DefHashes.find(*Name);
    if (It != Current->DefHashes.end() && It->second != Hash) {
      rotateLocked();
      break;
    }
  }
  // Capacity bound: admitting this closure's new interfaces must not
  // push the generation past MaxInterfaces.  Rotating resets the pooled
  // set to exactly this request's closure — even a closure larger than
  // the bound is served whole (it just monopolizes the generation).  A
  // fresh generation (empty set) never re-rotates.
  if (MaxInterfaces && !Current->DefHashes.empty()) {
    size_t NewFiles = 0;
    for (const auto &[Name, Hash] : Hashes)
      if (!Current->DefHashes.count(*Name))
        ++NewFiles;
    if (NewFiles && Current->DefHashes.size() + NewFiles > MaxInterfaces) {
      rotateLocked();
      CapRotations.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Record every hash the generation now depends on (first-seen wins; an
  // unchanged hash overwrites itself).
  for (const auto &[Name, Hash] : Hashes)
    Current->DefHashes.emplace(*Name, Hash);
  return Current;
}

uint64_t SharedInterfacePool::parseCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return RetiredParses + (Current ? Current->Defs->parseCount() : 0);
}

uint64_t SharedInterfacePool::streamCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return RetiredStreams + (Current ? Current->Defs->streamCount() : 0);
}
