//===--- CacheStore.cpp - Keyed entry storage backends ---------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "cache/CacheStore.h"

#include "cache/CacheKey.h"
#include "fault/FaultPlan.h"

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <unistd.h>

using namespace m2c::cache;

namespace fs = std::filesystem;

CacheStore::~CacheStore() = default;

//===----------------------------------------------------------------------===//
// MemoryCacheStore
//===----------------------------------------------------------------------===//

std::optional<std::string> MemoryCacheStore::load(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Key);
  if (It == Entries.end())
    return std::nullopt;
  return It->second;
}

void MemoryCacheStore::save(const std::string &Key, const std::string &Text) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries[Key] = Text;
}

size_t MemoryCacheStore::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

//===----------------------------------------------------------------------===//
// DiskCacheStore
//===----------------------------------------------------------------------===//

namespace {

const char EntryMagic[] = "#mcc1 ";
constexpr size_t EntryMagicLen = sizeof(EntryMagic) - 1;
constexpr size_t EntryHashLen = 32; // CacheKey::hex() digits.

/// `#mcc1 <32hex>\n` + payload.
std::string framedEntry(const std::string &Text) {
  std::string Out;
  Out.reserve(EntryMagicLen + EntryHashLen + 1 + Text.size());
  Out += EntryMagic;
  Out += hashBytes(Text).hex();
  Out += '\n';
  Out += Text;
  return Out;
}

/// True when the process that created a `.tmp<pid>.` file is gone, meaning
/// the temp is an orphan from a crash mid-write.
bool pidIsDead(unsigned long Pid) {
  if (Pid == 0 || Pid > static_cast<unsigned long>(1) << 22)
    return false; // Unparseable — leave the file alone.
  if (::kill(static_cast<pid_t>(Pid), 0) == 0)
    return false;
  return errno == ESRCH;
}

/// Parses the pid out of a `.tmp<pid>.<counter>.<key>` file name; returns 0
/// if the name does not match the temp pattern.
unsigned long tempFilePid(const std::string &Name) {
  if (Name.rfind(".tmp", 0) != 0)
    return 0;
  size_t Pos = 4;
  unsigned long Pid = 0;
  while (Pos < Name.size() && Name[Pos] >= '0' && Name[Pos] <= '9')
    Pid = Pid * 10 + static_cast<unsigned long>(Name[Pos++] - '0');
  if (Pos >= Name.size() || Name[Pos] != '.')
    return 0;
  return Pid;
}

} // namespace

DiskCacheStore::DiskCacheStore(std::string Directory)
    : Directory(std::move(Directory)) {
  std::error_code EC;
  fs::create_directories(this->Directory, EC);
  // A failure here surfaces as load/save misses; the compiler still works,
  // it just never gets warm.
  sweepOrphans();
}

std::string DiskCacheStore::pathFor(const std::string &Key) const {
  return Directory + "/" + Key + ".mcc";
}

size_t DiskCacheStore::sweepOrphans() {
  // Recovery sweep: a `.tmp<pid>.*` file whose writer is dead can never be
  // renamed into place — it is debris from a crash between write and
  // rename.  Temps of live processes (including our own other threads) are
  // in-flight writes and must be left alone.
  std::error_code EC;
  size_t Swept = 0;
  for (const auto &Entry : fs::directory_iterator(Directory, EC)) {
    std::string Name = Entry.path().filename().string();
    unsigned long Pid = tempFilePid(Name);
    if (Pid == 0 || !pidIsDead(Pid))
      continue;
    std::error_code RemoveEC;
    if (fs::remove(Entry.path(), RemoveEC)) {
      ++Swept;
      Stats.add("cache.disk.orphans");
    }
  }
  return Swept;
}

std::optional<std::string> DiskCacheStore::checkEntry(const std::string &Raw) {
  // Every entry is written framed, so a missing or damaged magic is
  // corruption like any other.
  if (Raw.compare(0, EntryMagicLen, EntryMagic) != 0 ||
      Raw.size() < EntryMagicLen + EntryHashLen + 1 ||
      Raw[EntryMagicLen + EntryHashLen] != '\n')
    return std::nullopt;
  std::string Payload = Raw.substr(EntryMagicLen + EntryHashLen + 1);
  if (Raw.compare(EntryMagicLen, EntryHashLen, hashBytes(Payload).hex()) != 0)
    return std::nullopt;
  return Payload;
}

std::optional<std::string> DiskCacheStore::load(const std::string &Key) {
  fault::FaultOutcome F = M2C_FAULT_HIT("cache.disk.read");
  if (F.fail())
    return std::nullopt; // Injected read error: surfaces as a miss.
  std::ifstream In(pathFor(Key), std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Raw = SS.str();
  if (F.corrupt() && !Raw.empty())
    Raw[Raw.size() / 2] ^= 0x40; // Injected bit-flip, caught by the verify.
  std::optional<std::string> Payload = checkEntry(Raw);
  if (!Payload) {
    // Self-heal: drop the damaged entry so the recompile that follows this
    // miss overwrites it with a good one.
    Stats.add("cache.disk.corrupt");
    std::error_code EC;
    fs::remove(pathFor(Key), EC);
    return std::nullopt;
  }
  return Payload;
}

void DiskCacheStore::save(const std::string &Key, const std::string &Text) {
  // Write-temp + atomic rename.  The temp name carries the process id and
  // a per-process counter so concurrent writers — other threads of this
  // process or entirely different processes sharing the directory — each
  // write their own file; whichever rename lands last wins whole, and a
  // reader can never observe a partially written entry.
  fault::FaultOutcome F = M2C_FAULT_HIT("cache.disk.write");
  if (F.fail())
    return; // Injected write error: the entry is simply never stored.
  std::string Framed = framedEntry(Text);
  if (F.corrupt() && !Text.empty())
    Framed[Framed.size() - 1 - Text.size() / 2] ^= 0x40; // Detected on load.
  unsigned Temp = NextTemp.fetch_add(1, std::memory_order_relaxed);
  std::string TempPath = Directory + "/.tmp" +
                         std::to_string(static_cast<unsigned long>(::getpid())) +
                         "." + std::to_string(Temp) + "." + Key;
  {
    std::ofstream Out(TempPath, std::ios::binary);
    if (!Out)
      return;
    Out << Framed;
    if (!Out)
      return;
  }
  std::error_code EC;
  if (M2C_FAULT_HIT("cache.disk.rename").fail()) {
    fs::remove(TempPath, EC); // Injected crash between write and rename.
    return;
  }
  fs::rename(TempPath, pathFor(Key), EC);
  if (EC)
    fs::remove(TempPath, EC);
}

DiskCacheStore::VerifyReport DiskCacheStore::verifyAll(bool Heal) {
  VerifyReport Report;
  Report.Orphans = sweepOrphans();
  std::error_code EC;
  for (const auto &Entry : fs::directory_iterator(Directory, EC)) {
    if (Entry.path().extension() != ".mcc")
      continue;
    ++Report.Checked;
    Stats.add("cache.disk.verified");
    std::ifstream In(Entry.path(), std::ios::binary);
    if (!In)
      continue;
    std::ostringstream SS;
    SS << In.rdbuf();
    if (checkEntry(SS.str()))
      continue;
    ++Report.Corrupt;
    Stats.add("cache.disk.corrupt");
    if (Heal) {
      std::error_code RemoveEC;
      if (fs::remove(Entry.path(), RemoveEC))
        ++Report.Healed;
    }
  }
  return Report;
}

size_t DiskCacheStore::size() const {
  std::error_code EC;
  size_t Count = 0;
  for (const auto &Entry : fs::directory_iterator(Directory, EC))
    if (Entry.path().extension() == ".mcc")
      ++Count;
  return Count;
}
