#include "util/fault_injection.h"

#include <atomic>
#include <cstdlib>
#include <map>

#include "util/sanitize.h"
#include "util/thread_annotations.h"

namespace cextend {
namespace {

// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash. Wraparound is
// intentional (util/sanitize.h).
CEXTEND_NO_SANITIZE_INTEGER
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

CEXTEND_NO_SANITIZE_INTEGER
uint64_t HashSite(const std::string& site) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

struct FaultInjection::Impl {
  struct Site {
    // fire iff mix64(seed ^ site_hash ^ hit) < threshold (p scaled to 2^64;
    // p >= 1 stored as UINT64_MAX meaning "always").
    uint64_t threshold = UINT64_MAX;
    uint64_t site_hash = 0;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> fired{0};
  };

  mutable Mutex mu;
  // `mu` guards the map *structure* and the seed; Site counters are atomic
  // and are bumped after the lock is dropped (map entries are stable).
  std::map<std::string, Site> sites GUARDED_BY(mu);
  uint64_t seed GUARDED_BY(mu) = 1;
  std::atomic<bool> any_armed{false};
};

FaultInjection& FaultInjection::Global() {
  static FaultInjection* instance = new FaultInjection();
  return *instance;
}

FaultInjection::FaultInjection() : impl_(new Impl()) {
  const char* env = std::getenv("CEXTEND_FAULTS");
  if (env != nullptr && env[0] != '\0') {
    uint64_t seed = 1;
    if (const char* env_seed = std::getenv("CEXTEND_FAULTS_SEED")) {
      seed = std::strtoull(env_seed, nullptr, 10);
    }
    Configure(env, seed);
  }
}

void FaultInjection::Configure(const std::string& spec, uint64_t seed) {
  MutexLock lock(impl_->mu);
  impl_->sites.clear();
  impl_->seed = seed;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    // Trim whitespace.
    size_t b = entry.find_first_not_of(" \t");
    size_t e = entry.find_last_not_of(" \t");
    if (b == std::string::npos) continue;
    entry = entry.substr(b, e - b + 1);
    std::string name = entry;
    double p = 1.0;
    size_t eq = entry.find('=');
    if (eq != std::string::npos) {
      name = entry.substr(0, eq);
      char* end = nullptr;
      p = std::strtod(entry.c_str() + eq + 1, &end);
      if (end == entry.c_str() + eq + 1 || p < 0.0) continue;  // malformed
    }
    if (name.empty() || p <= 0.0) continue;
    Impl::Site& site = impl_->sites[name];
    site.site_hash = HashSite(name);
    site.threshold = p >= 1.0
                         ? UINT64_MAX
                         : static_cast<uint64_t>(
                               p * static_cast<double>(UINT64_MAX));
  }
  impl_->any_armed.store(!impl_->sites.empty(), std::memory_order_release);
}

void FaultInjection::Reset() { Configure("", 1); }

bool FaultInjection::ShouldFail(const char* site) {
  if (!impl_->any_armed.load(std::memory_order_acquire)) return false;
  Impl::Site* s = nullptr;
  uint64_t seed;
  {
    MutexLock lock(impl_->mu);
    auto it = impl_->sites.find(site);
    if (it == impl_->sites.end()) return false;
    s = &it->second;
    seed = impl_->seed;  // copied under the lock; Configure may race
  }
  // Map entries are stable; counters are atomic, so the lock can be dropped.
  uint64_t hit = s->hits.fetch_add(1, std::memory_order_relaxed);
  bool fire = s->threshold == UINT64_MAX ||
              Mix64(seed ^ s->site_hash ^ hit) < s->threshold;
  if (fire) s->fired.fetch_add(1, std::memory_order_relaxed);
  return fire;
}

uint64_t FaultInjection::FiredCount(const std::string& site) const {
  MutexLock lock(impl_->mu);
  auto it = impl_->sites.find(site);
  if (it == impl_->sites.end()) return 0;
  return it->second.fired.load(std::memory_order_relaxed);
}

const std::vector<std::string>& FaultInjection::KnownSites() {
  static const std::vector<std::string>* kSites = new std::vector<std::string>{
      "dual.warm_start",
      "manifest.commit",
      "oracle.build",
      "oracle.pair_budget",
      "pool.alloc",
      "shard.emit",
      "simplex.iteration_cap",
      "simplex.refactor",
      "sink.flush",
      "sink.torn_write",
      "sink.write",
  };
  return *kSites;
}

std::vector<std::string> FaultInjection::ArmedSites() const {
  MutexLock lock(impl_->mu);
  std::vector<std::string> out;
  out.reserve(impl_->sites.size());
  for (const auto& kv : impl_->sites) out.push_back(kv.first);
  return out;
}

}  // namespace cextend
