// Aggregated run statistics: the runtime breakdown reported in the paper's
// Figures 11 and 13 plus solution-quality counters.
//
// Each count has one writer: the code that does the work adds into the
// Phase2Stats its caller passes down (BuildPartitionOracle, AssignRepairKeys,
// BuildSynthesisPlan), and every larger total is built by
// Phase2Stats::Merge, never by copying fields one by one.
//
// Concurrency contract: these are plain value aggregates with no internal
// synchronization. Worker threads never write a shared instance directly:
// each shard carries its own Phase2Stats (ShardOutput::stats), filled by the
// worker that emits it, and the shard executor merges it into the run's
// stats under ExecState::mu (GUARDED_BY; see src/core/shard_executor.cc) when
// the shard retires. The merged copy is read only after the pool has joined.
// Keep it that way: if a new parallel stage needs counters, give each task
// its own Phase2Stats and merge under an annotated Mutex or at the barrier.

#ifndef CEXTEND_CORE_STATS_H_
#define CEXTEND_CORE_STATS_H_

#include <cstdint>
#include <string>

#include "core/hybrid.h"
#include "core/phase2.h"

namespace cextend {

struct SolveStats {
  HybridStats phase1;
  Phase2Stats phase2;
  double phase1_seconds = 0.0;
  double phase2_seconds = 0.0;
  double total_seconds = 0.0;

  /// Figure 13-style breakdown table.
  std::string BreakdownTable() const;
  /// One-line summary.
  std::string Summary() const;

  /// True when any rung of the degradation ladder (see src/core/README.md
  /// "Resilience") was entered: the solver stepped from its fast path onto
  /// a slower-but-equivalent one under resource pressure, a numerical
  /// failure, or an injected fault. Every rung either preserves
  /// bit-identical output for a fixed seed or the solve returns a non-OK
  /// Status. The rungs are counted where they happen:
  ///   phase1.ilp.cold_fallbacks       warm B&B node re-solved cold;
  ///   phase2.naive_oracle_fallbacks   quotient conflict oracle → naive.
  bool AnyDegradation() const;
};

}  // namespace cextend

#endif  // CEXTEND_CORE_STATS_H_
