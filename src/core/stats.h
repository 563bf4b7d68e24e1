// Aggregated run statistics: the runtime breakdown reported in the paper's
// Figures 11 and 13 plus solution-quality counters.
//
// Concurrency contract: these are plain value aggregates with no internal
// synchronization. Worker threads never write a shared instance directly —
// the shard executor accumulates its Phase2Stats under ExecState::mu
// (GUARDED_BY; see src/core/shard_executor.cc) and the merged copy is read
// only after the pool has joined. Keep it that way: if a new parallel stage
// needs counters, either merge under an annotated Mutex or use per-thread
// locals combined at the barrier.

#ifndef CEXTEND_CORE_STATS_H_
#define CEXTEND_CORE_STATS_H_

#include <cstdint>
#include <string>

#include "core/hybrid.h"
#include "core/phase2.h"

namespace cextend {

/// Observable degradation ladder (see src/core/README.md "Resilience").
/// Each rung records that the solver stepped from its fast path onto a
/// slower-but-equivalent one — under resource pressure, a numerical
/// failure, or an injected fault. Invariant: every rung either preserves
/// bit-identical output for a fixed seed or the solve returns a non-OK
/// Status; a rung never silently changes the synthesized database.
struct DegradationLadder {
  /// Partitions (coloring or repair) whose indexed conflict-oracle build
  /// fell back to the O(n)-memory naive oracle (indexed→naive).
  size_t naive_oracle_fallbacks = 0;
  /// Product DCs materialized as pairs because the implicit-biclique
  /// family was full (implicit→materialized).
  size_t biclique_overflows = 0;
  /// B&B nodes whose dual warm start fell back to a cold solve
  /// (warm→cold).
  size_t cold_solve_fallbacks = 0;
  /// Shard emissions that failed and were regenerated in place from the
  /// plan (lost-shard→re-emit; regeneration is byte-identical).
  size_t shard_regenerations = 0;

  /// True when any rung was entered.
  bool AnyDegradation() const {
    return naive_oracle_fallbacks > 0 || biclique_overflows > 0 ||
           cold_solve_fallbacks > 0 || shard_regenerations > 0;
  }
};

struct SolveStats {
  HybridStats phase1;
  Phase2Stats phase2;
  DegradationLadder ladder;
  double phase1_seconds = 0.0;
  double phase2_seconds = 0.0;
  double total_seconds = 0.0;
  size_t invalid_tuples = 0;

  /// Figure 13-style breakdown table.
  std::string BreakdownTable() const;
  /// One-line summary.
  std::string Summary() const;
};

}  // namespace cextend

#endif  // CEXTEND_CORE_STATS_H_
