// Deterministic, named fault points for resilience testing.
//
// A fault point is a named site in the code (e.g. "simplex.refactor") where a
// failure can be forced on demand. Sites are compiled in only when the build
// defines CEXTEND_FAULT_INJECTION (CMake option of the same name); otherwise
// CEXTEND_INJECT_FAULT() folds to `false` and the registry is a no-op, so
// release binaries carry zero overhead.
//
// Firing is deterministic: each site keeps an atomic hit counter, and a hit
// fires iff mix64(seed ^ hash(site) ^ hit_index) < p * 2^64. With p = 1
// (the default) every hit fires regardless of thread interleaving, which is
// what the chaos suite uses; fractional p is still reproducible for a fixed
// seed on single-threaded stages (hit indices are then a fixed sequence).
//
// Configuration sources, later wins:
//   1. the CEXTEND_FAULTS environment variable, read once at first use;
//   2. FaultInjection::Configure(spec, seed) — programmatic, used by tests
//      via the ScopedFaults RAII helper.
// Spec grammar: comma-separated `site` or `site=p` entries, e.g.
//   "oracle.build,simplex.refactor=0.25".
//
// Registered sites (kept in sync with src/core/README.md):
//   oracle.build          indexed partition-oracle construction
//   oracle.pair_budget    materialized-pair budget charge
//   simplex.refactor      basis refactorization (LU rebuild)
//   simplex.iteration_cap primal/dual pivot-count cap
//   dual.warm_start       warm dual-simplex solve in B&B
//   pool.alloc            conflict-entry pool charge
//   shard.emit            shard emission (executor regenerates from plan)
//   sink.write            durable stream append (fails before any byte lands)
//   sink.torn_write       durable stream append torn mid-record (half the
//                         payload reaches the file, then the write fails)
//   sink.flush            durable stream flush/fsync at a commit boundary
//   manifest.commit       manifest record append+fsync at shard retirement

#ifndef CEXTEND_UTIL_FAULT_INJECTION_H_
#define CEXTEND_UTIL_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cextend {

class FaultInjection {
 public:
  /// The process-wide registry.
  static FaultInjection& Global();

  /// Replaces the active fault spec. Unknown sites are accepted (they simply
  /// never match a code site). Invalid entries are ignored. Thread-safe with
  /// respect to ShouldFail, but tests normally configure before solving.
  void Configure(const std::string& spec, uint64_t seed);

  /// Clears every armed site and resets fired counters.
  void Reset();

  /// True when `site` is armed and this hit deterministically fires.
  /// Compiled-out builds never call this (the macro short-circuits).
  bool ShouldFail(const char* site);

  /// Number of times `site` actually fired since the last Configure/Reset.
  /// Tests use this to assert a fault was reached.
  uint64_t FiredCount(const std::string& site) const;

  /// Sites currently armed (for diagnostics).
  std::vector<std::string> ArmedSites() const;

  /// Every site name registered in the codebase, sorted. This is the
  /// authoritative list the registry/doc sync test checks against the
  /// CEXTEND_INJECT_FAULT call sites in src/, the site table in
  /// src/core/README.md, and the comment at the top of this header.
  static const std::vector<std::string>& KnownSites();

  /// True when the build has fault injection compiled in.
  static constexpr bool CompiledIn() {
#ifdef CEXTEND_FAULT_INJECTION
    return true;
#else
    return false;
#endif
  }

 private:
  FaultInjection();
  struct Impl;
  Impl* impl_;  // intentionally leaked singleton state
};

/// RAII: arms `spec` on construction, restores a clean registry on
/// destruction. Test-only convenience.
class ScopedFaults {
 public:
  explicit ScopedFaults(const std::string& spec, uint64_t seed = 1) {
    FaultInjection::Global().Configure(spec, seed);
  }
  ~ScopedFaults() { FaultInjection::Global().Reset(); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
};

}  // namespace cextend

#ifdef CEXTEND_FAULT_INJECTION
/// True when the named fault point should fail this hit.
#define CEXTEND_INJECT_FAULT(site) \
  (::cextend::FaultInjection::Global().ShouldFail(site))
#else
#define CEXTEND_INJECT_FAULT(site) (false)
#endif

#endif  // CEXTEND_UTIL_FAULT_INJECTION_H_
