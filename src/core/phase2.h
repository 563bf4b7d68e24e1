// Phase II (Section 5.2, Algorithm 4): reverse-engineer R1.FK from the
// completed join view so that every DC holds and R1 ⋈ R2 reproduces V_join.
//
// V_join is partitioned by (B1..Bq) values — candidate keys are disjoint
// across partitions, which is the paper's scalability optimization — and each
// partition's conflict structure is list-colored (Algorithm 3). Skipped
// vertices receive fresh keys, which materializes new R2 tuples. Invalid
// tuples (no B values) are completed last with error-minimizing combos
// (solveInvalidTuples): each candidate key is probed against the retained
// colors of its combo's partition — by direct DC scans or, for large repair
// groups, a per-combo conflict oracle — so every DC arity is honored.
// Partitions can be colored in parallel (Appendix A.3); fresh keys are
// renumbered deterministically after coloring and all RNG streams are
// derived per partition, so the output is identical at any thread count for
// a fixed seed.
//
// Phase II runs as plan → execute: BuildSynthesisPlan / PreparePlan
// (core/plan.h) freeze the repair combos, layout and shard map, and
// ExecutePlan (core/shard_executor.h) streams the shards and the repair
// stage into a RowSink. This header holds the options and statistics both
// stages share.

#ifndef CEXTEND_CORE_PHASE2_H_
#define CEXTEND_CORE_PHASE2_H_

#include <cstddef>
#include <cstdint>

#include "util/deadline.h"

namespace cextend {

struct Phase2Options {
  /// Baseline behaviour: pick a uniformly random candidate key per tuple
  /// instead of coloring (ignores DCs entirely).
  bool random_assignment = false;
  /// Maximum number of phase-2 threads: ExecutePlan's shard workers, the
  /// calling thread being one of them (1 = sequential).
  size_t num_threads = 1;
  uint64_t seed = 1;
  /// Deadline/cancellation, checked at every partition-coloring task start
  /// and per repair combo group, and forwarded into oracle construction.
  RunControl run_control;
  /// Number of phase-2 emission shards (contiguous worklist ranges). 0 =
  /// auto (see SynthesisPlanOptions::num_shards). The shard map never
  /// changes the output, only the executor's memory/parallelism granularity.
  size_t num_shards = 0;
  /// Bounded-memory admission: at most this many emitted-but-unretired
  /// shards in flight at once (0 = unbounded). 1 streams strictly
  /// shard-by-shard; output is identical for every value.
  size_t max_resident_shards = 0;
};

struct Phase2Stats {
  double partition_seconds = 0.0;
  double coloring_seconds = 0.0;   ///< includes conflict construction
  double invalid_seconds = 0.0;
  size_t num_partitions = 0;
  size_t skipped_vertices = 0;     ///< vertices needing fresh colors
  size_t new_r2_tuples = 0;
  size_t invalid_rows = 0;
  /// Repair combos whose probes went through a per-combo conflict oracle
  /// (AssignRepairKeys' size rule); the rest scanned the DCs directly.
  size_t oracle_repair_combos = 0;
  /// Degradation-ladder accounting (see src/core/README.md "Resilience"):
  /// oracle builds (coloring or repair) that fell back to the naive oracle.
  /// The rung preserves bit-identical output.
  size_t naive_oracle_fallbacks = 0;
  /// Conflict-quotient accounting: partitions colored on the CSR rung
  /// (chosen from sizes, not a degradation), and the summed buckets and
  /// deduplicated bucket pairs of every quotient oracle phase II built
  /// (partition colorings and repair combos).
  size_t csr_partitions = 0;
  size_t conflict_buckets = 0;
  size_t materialized_pairs = 0;
  /// Shard-executor accounting: shards retired to the sink, and the
  /// bounded-memory high-water marks — most shards simultaneously in flight
  /// and peak resident bytes of emitted-but-unretired shard output.
  size_t shards_emitted = 0;
  size_t max_shards_in_flight = 0;
  size_t peak_resident_bytes = 0;
  /// Durable-streaming accounting (core/stream_checkpoint.h): shards whose
  /// committed bytes were reused from the manifest instead of re-emitted
  /// (counts the repair stage too), and manifest records fsync'd this run.
  size_t resumed_shards = 0;
  size_t manifest_commits = 0;

  /// Adds `other` in: counters and timings sum, and the two high-water
  /// marks (max_shards_in_flight, peak_resident_bytes) take the max.
  void Merge(const Phase2Stats& other);
  bool operator==(const Phase2Stats&) const = default;
};

}  // namespace cextend

#endif  // CEXTEND_CORE_PHASE2_H_
