// Conflict structures for one phase-II partition (Section 5.1 + 5.2).
//
// All rows of a partition share their (B1..Bq) values, hence their candidate
// FK list; a hyperedge connects every tuple set that would violate a DC body
// if co-assigned. A binary DC's truth on a row pair depends only on the codes
// it reads, so the join view's rows are classified once per solve
// (DcRowClasses): rows are keyed by the codes of every column some binary DC
// reads, and each DC's sides are evaluated once per key. Keys then merge into
// buckets by (side signature, codes of the cross-atom columns the
// signature's sides read), whose members have identical neighborhoods, and
// buckets into groups by the sides they pass of the product DCs (no cross
// atoms, e.g. owner-owner). Each bucket records whether, and under which
// DCs, two of its rows conflict (self-adjacency); the final fill reads the
// same record as its clique classes. The classification is valid because
// DCs read only R1's key and A columns, which phase I never writes.
//
// Two interchangeable oracles implement the pairwise layer:
//
//  * PartitionConflictOracle (default): a quotient builder. It renumbers the
//    global buckets and groups its rows touch in first-vertex order (no
//    interning, no side evaluation). Product DCs link groups, the others
//    link buckets; each DC's class pairs come from the indexed emission run
//    over one representative row per class: side-1 representatives are
//    sorted by the hash of their equality-atom codes and the first ordering
//    atom's key, and every side-0 representative probes its sorted run. A
//    clique DC is one self-adjacent group. Degrees, edge counts, forbidden
//    colors and pair queries answer from the QuotientGraph with
//    simple-graph semantics, identical to one deduplicated all-pairs scan.
//    Construction is O(n) renumbering plus O(B + s log s + E_B) emission
//    over B classes, where E_B is the emitted class pairs. When keys are
//    near unique (a cross atom on a near-unique column), B approaches n and
//    the bucket level is the per-vertex CSR graph.
//
//  * NaiveConflictOracle: the reference brute-force implementation (side
//    masks + on-the-fly pair tests). It reads the DCs, never the
//    classification, so tests and benchmarks can cross-check the quotient
//    oracle bit-for-bit against it, and it is the fallback when materialized
//    class pairs would exceed the pair budget.
//
// DCs of arity >= 3 are expanded into an explicit hypergraph by both oracles.
//
// AssignRepairKeys (invalid-tuple repair) answers its key probes either by
// direct DC scans or through a per-combo oracle, chosen from combo sizes.

#ifndef CEXTEND_CORE_CONFLICT_H_
#define CEXTEND_CORE_CONFLICT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "constraints/denial_constraint.h"
#include "graph/hypergraph.h"
#include "relational/table.h"
#include "util/deadline.h"
#include "util/statusor.h"

namespace cextend {

/// The binary-DC classification of every row of one table (the join view),
/// built once per solve. Buckets and groups are numbered in first-row order.
struct DcRowClasses {
  /// Every DC, any arity, bound against the classified table.
  std::vector<BoundDenialConstraint> dcs;
  /// Signatures hold bit 2d when a class passes side 0 of the d-th binary
  /// DC of `dcs` and bit 2d + 1 for side 1, in sig_words words each.
  size_t sig_words = 0;
  std::vector<uint32_t> bucket_of;    ///< per row
  std::vector<uint32_t> bucket_rep;   ///< per bucket: its first row
  std::vector<uint64_t> bucket_sigs;  ///< per bucket: sig_words words
  std::vector<uint32_t> group_of;     ///< per bucket
  std::vector<uint32_t> group_rep;    ///< per group: its first row
  std::vector<uint64_t> group_sigs;   ///< per group: product-DC bits only
  /// Binary DCs (ascending d) a bucket is self-adjacent under: those that
  /// hold with its representative bound to both variables, so any two of
  /// its rows sharing an FK violate them. Bucket b's are
  /// self_dcs[self_begin[b] .. self_begin[b + 1]).
  std::vector<uint32_t> self_begin;
  std::vector<uint32_t> self_dcs;

  /// Classifies every row of `table`; `dcs` must be bound against it and
  /// read only columns whose codes stay fixed while the classification is
  /// in use.
  static DcRowClasses Build(const Table& table,
                            std::vector<BoundDenialConstraint> dcs);

  size_t num_buckets() const { return bucket_rep.size(); }
  std::span<const uint32_t> SelfDcs(uint32_t bucket) const {
    return {self_dcs.data() + self_begin[bucket],
            self_begin[bucket + 1] - self_begin[bucket]};
  }
};

struct ConflictOracleOptions {
  /// Edge enumeration for arity >= 3 DCs is capped at this many candidate
  /// assignments (guard against pathological inputs); exceeding it fails.
  size_t max_hyperedge_candidates = 50'000'000;
  /// The quotient oracle materializes at most this many (pre-dedup) bucket
  /// pairs (8 bytes each), its sort pools charged alongside. Exceeding it
  /// fails with kResourceExhausted; BuildPartitionOracle then falls back to
  /// the naive oracle, which needs O(n) memory at the price of O(n^2)
  /// queries.
  size_t max_materialized_pairs = 32'000'000;
  /// Deadline/cancellation, checked per DC during hyperedge enumeration and
  /// pair emission, and at every pair-budget charge chunk.
  RunControl run_control;
};

/// Degradation accounting for one BuildPartitionOracle call, reported
/// through the optional out-param so phase II can aggregate ladder stats.
struct BuildOracleInfo {
  /// The quotient build was abandoned (pair budget / injected fault) and the
  /// O(n)-memory naive oracle was built instead (quotient→naive rung).
  bool naive_fallback = false;
  /// Buckets and deduplicated group and bucket pairs of the quotient (0
  /// when naive).
  size_t conflict_buckets = 0;
  size_t materialized_pairs = 0;
};

/// ConflictOracle plus the pairwise and set queries phase II needs.
/// Implemented by both the indexed and the brute-force oracle so they are
/// interchangeable and cross-checkable.
class PartitionOracle : public ConflictOracle {
 public:
  /// v_join/R1 row ids forming the partition (local vertex v = rows()[v]).
  virtual const std::vector<uint32_t>& rows() const = 0;

  /// True when local vertices u, v conflict under some binary DC (used when
  /// inserting invalid tuples into an already-colored partition).
  virtual bool PairConflicts(size_t u, size_t v) const = 0;

  /// True when assigning `v` the same color as the already-colored vertices
  /// in `same_color` (local ids) would violate any DC.
  virtual bool WouldViolate(size_t v,
                            const std::vector<size_t>& same_color) const = 0;

  /// Total pairwise edges plus explicit hyperedges (cached at construction).
  virtual size_t CountEdges() const = 0;
};

/// Quotient conflict oracle: bucket adjacency for binary DCs + explicit
/// hypergraph for arity >= 3.
class PartitionConflictOracle final : public PartitionOracle {
 public:
  /// `rows` are row ids of `table`, which `classes` classifies. `higher`,
  /// when set, holds the arity >= 3 hyperedges over `rows` the caller
  /// already enumerated, null when there are none (BuildPartitionOracle
  /// shares them with a naive fallback); unset enumerates them here.
  static StatusOr<PartitionConflictOracle> Build(
      const Table& table, const DcRowClasses& classes,
      std::vector<uint32_t> rows, const ConflictOracleOptions& options = {},
      std::optional<std::shared_ptr<const Hypergraph>> higher = std::nullopt);

  const std::vector<uint32_t>& rows() const override { return rows_; }

  // ConflictOracle:
  size_t NumVertices() const override { return rows_.size(); }
  int64_t Degree(size_t v) const override {
    return quotient_.Degree(v) + (higher_ == nullptr ? 0 : higher_->Degree(v));
  }
  void AppendForbiddenColors(size_t v, const std::vector<int64_t>& colors,
                             std::vector<int64_t>* out) const override;
  /// Publishes the (quotient, hypergraph) decomposition so the greedy
  /// coloring can keep per-bucket forbidden sets; forbidden semantics are
  /// exactly the union of the two layers.
  ConflictStructure Structure() const override {
    return {&quotient_, higher_.get()};
  }

  // PartitionOracle:
  bool PairConflicts(size_t u, size_t v) const override {
    return quotient_.HasEdge(u, v);
  }
  bool WouldViolate(size_t v,
                    const std::vector<size_t>& same_color) const override;
  size_t CountEdges() const override {
    return quotient_.num_edges() +
           (higher_ == nullptr ? 0 : higher_->num_edges());
  }

  const QuotientGraph& quotient() const { return quotient_; }
  size_t num_buckets() const { return quotient_.buckets().size(); }
  /// Deduplicated group and bucket pairs actually materialized.
  size_t num_materialized_pairs() const {
    return quotient_.groups().adjacency.num_edges() +
           quotient_.buckets().adjacency.num_edges();
  }

 private:
  PartitionConflictOracle() = default;

  std::vector<uint32_t> rows_;
  QuotientGraph quotient_;  // binary-DC conflicts over vertex buckets
  // Arity >= 3 edges (local vertex ids); shareable with a fallback oracle.
  std::shared_ptr<const Hypergraph> higher_;
};

/// Reference brute-force oracle: per-vertex side masks, pairs tested on the
/// fly. O(n) memory; O(n * |DC|) per forbidden-color query.
class NaiveConflictOracle final : public PartitionOracle {
 public:
  /// `dcs` must be bound against `table`; `higher` as in
  /// PartitionConflictOracle::Build.
  static StatusOr<NaiveConflictOracle> Build(
      const Table& table, const std::vector<BoundDenialConstraint>& dcs,
      std::vector<uint32_t> rows, const ConflictOracleOptions& options = {},
      std::optional<std::shared_ptr<const Hypergraph>> higher = std::nullopt);

  const std::vector<uint32_t>& rows() const override { return rows_; }

  // ConflictOracle:
  size_t NumVertices() const override { return rows_.size(); }
  int64_t Degree(size_t v) const override { return degrees_[v]; }
  void AppendForbiddenColors(size_t v, const std::vector<int64_t>& colors,
                             std::vector<int64_t>* out) const override;

  // PartitionOracle:
  bool PairConflicts(size_t u, size_t v) const override;
  bool WouldViolate(size_t v,
                    const std::vector<size_t>& same_color) const override;
  size_t CountEdges() const override { return num_edges_; }

 private:
  NaiveConflictOracle() = default;

  const Table* table_ = nullptr;
  std::vector<uint32_t> rows_;
  // Binary DCs: per DC, per tuple variable, per local vertex: side match.
  struct BinaryDc {
    const BoundDenialConstraint* dc;
    std::vector<uint8_t> side0;
    std::vector<uint8_t> side1;
  };
  std::vector<BinaryDc> binary_;
  // Arity >= 3 edges (local vertex ids); shareable with the indexed oracle.
  std::shared_ptr<const Hypergraph> higher_;
  std::vector<int64_t> degrees_;
  size_t num_edges_ = 0;  // cached during the construction degree scan
};

/// Builds the indexed oracle, falling back to the naive oracle over
/// `classes.dcs` when the materialized-pair budget is exceeded (or the
/// `oracle.build` fault fires); the naive oracle points into `classes.dcs`,
/// so `classes` must outlive the result. `info`, when non-null, receives
/// degradation accounting for the build.
StatusOr<std::unique_ptr<PartitionOracle>> BuildPartitionOracle(
    const Table& table, const DcRowClasses& classes,
    std::vector<uint32_t> rows, const ConflictOracleOptions& options = {},
    BuildOracleInfo* info = nullptr);

// ---- Invalid-tuple repair probes (solveInvalidTuples pass 2). ----

/// Direct-evaluation twin of PartitionOracle::WouldViolate: true when giving
/// `row` the same key as the bucket `members` (local ids into `rows`)
/// violates any DC. Covers every arity; O(|bucket|^(arity-1)) per DC whose
/// unary atoms `row` satisfies for some variable, O(1) for the rest.
bool ScanWouldViolate(const Table& table,
                      const std::vector<BoundDenialConstraint>& dcs,
                      uint32_t row, const std::vector<size_t>& members,
                      const std::vector<uint32_t>& rows);

/// How AssignRepairKeys answers its probes. kBySize picks per combo from the
/// observable sizes (see AssignRepairKeys); the forced modes exist for
/// benchmarks and equivalence tests.
enum class RepairProbe { kBySize, kScan, kOracle };

struct RepairAssignment {
  /// Per repaired row: the chosen candidate key, or kNoColor when no
  /// candidate fits and the row needs a fresh key.
  std::vector<int64_t> keys;
  /// The probes went through a per-combo oracle (false: direct scans).
  bool used_oracle = false;
  BuildOracleInfo build;
};

/// Key assignment for one repair combo under `classes.dcs`. `rows` holds the
/// combo's colored partition rows (their keys in `colored_keys`, same order) followed by the
/// rows to repair. Each repaired row, in order, takes the first of
/// `candidate_keys` whose same-key bucket — colored rows plus rows repaired
/// so far — it can join without violating a DC.
///
/// Both conflict sources answer that question identically. kBySize builds a
/// per-combo oracle over `rows` when the estimated scan work — per k-ary DC,
/// (repaired rows that can fill one of its variables) · (largest bucket +
/// |group|)^(k − 1) — exceeds kRepairOracleWorkRatio times the estimated
/// build work — |rows| plus, per DC of arity >= 3, the product of its
/// per-variable candidate counts (the hyperedge enumeration) — and scans
/// otherwise. An oracle build that trips a resource cap falls back to
/// scans.
StatusOr<RepairAssignment> AssignRepairKeys(
    const Table& table, const DcRowClasses& classes,
    const std::vector<uint32_t>& rows, const std::vector<int64_t>& colored_keys,
    const std::vector<int64_t>& candidate_keys,
    RepairProbe probe = RepairProbe::kBySize,
    const ConflictOracleOptions& options = {});

/// Crossover of AssignRepairKeys' kBySize rule, from the
/// InvalidRepairCombo{Scan,Oracle} micro-kernels.
inline constexpr double kRepairOracleWorkRatio = 16.0;

}  // namespace cextend

#endif  // CEXTEND_CORE_CONFLICT_H_
