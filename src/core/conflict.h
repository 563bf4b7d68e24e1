// Conflict structures for one phase-II partition (Section 5.1 + 5.2).
//
// All rows of a partition share their (B1..Bq) values, hence their candidate
// FK list; a hyperedge connects every tuple set that would violate a DC body
// if co-assigned. Two interchangeable oracles implement the pairwise layer:
//
//  * PartitionConflictOracle (default): an *indexed* builder. Binary DCs
//    with no cross-tuple atoms (owner-owner style, whose conflict set is the
//    full side-0 x side-1 product) are kept *implicit*: only the two
//    membership bitsets are stored (ImplicitBicliqueFamily), so clique-style
//    partitions cost O(n) memory instead of Θ(n²) materialized pairs. Every
//    other binary DC is indexed: side-0/side-1 matching vertices are
//    bucketed by the codes of the columns appearing in its cross-atom
//    equality predicates (hash buckets), each bucket is sorted by the first
//    ordering atom's key (sorted runs for < / <= / > / >=), and adjacency is
//    materialized per bucket instead of per pair, deduplicated into a CSR
//    AdjacencyGraph. Degrees, edge counts, forbidden colors and pair queries
//    compose the (implicit ∪ CSR ∪ hypergraph) union with simple-graph
//    semantics, identical to one deduplicated all-pairs scan. Construction
//    is O(n) per implicit DC and O(n log n + E) per indexed DC instead of
//    the brute-force O(n^2 * |DC|) all-pairs CrossAtomsHold scan.
//
//  * NaiveConflictOracle: the reference brute-force implementation (side
//    masks + on-the-fly pair tests). Kept behind the same interface so tests
//    and benchmarks can cross-check the indexed oracle bit-for-bit, and as a
//    fallback when materialized adjacency would exceed the pair budget.
//
// DCs of arity >= 3 are expanded into an explicit hypergraph by both oracles.
//
// AssignRepairKeys (invalid-tuple repair) answers its key probes either by
// direct DC scans or through a per-combo oracle, chosen from combo sizes.

#ifndef CEXTEND_CORE_CONFLICT_H_
#define CEXTEND_CORE_CONFLICT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "constraints/denial_constraint.h"
#include "graph/hypergraph.h"
#include "relational/table.h"
#include "util/deadline.h"
#include "util/statusor.h"

namespace cextend {

class ThreadPool;

struct ConflictOracleOptions {
  /// Edge enumeration for arity >= 3 DCs is capped at this many candidate
  /// assignments (guard against pathological inputs); exceeding it fails.
  size_t max_hyperedge_candidates = 50'000'000;
  /// The indexed oracle materializes at most this many (pre-dedup) pairwise
  /// edges (8 bytes each). Exceeding it fails with kResourceExhausted;
  /// BuildPartitionOracle then falls back to the naive oracle, which needs
  /// O(n) memory at the price of O(n^2) queries. DCs held implicitly (no
  /// cross atoms) never materialize pairs; their bitset storage is charged
  /// against this budget word-for-word (normally a few n/64-word bitsets,
  /// i.e. negligible), so adversarial signature blowups also fall back.
  size_t max_materialized_pairs = 32'000'000;
  /// Forces the brute-force oracle (benchmarks / cross-checking).
  bool force_naive = false;
  /// Optional worker pool for *within-partition* parallel construction: each
  /// indexed binary DC emits (and sorts) its pair run as an independent
  /// task, and the runs are merged — already deduplicated — into the CSR
  /// graph. The adjacency produced is byte-identical to the serial build, so
  /// coloring results never depend on the thread count. Null = serial.
  ThreadPool* pool = nullptr;
  /// Deadline/cancellation, checked per DC during hyperedge enumeration and
  /// at every pair-budget charge chunk during pair emission.
  RunControl run_control;
};

/// Degradation accounting for one BuildPartitionOracle call, reported
/// through the optional out-param so phase II can aggregate ladder stats.
struct BuildOracleInfo {
  /// The indexed build was abandoned (pair budget / injected fault) and the
  /// O(n)-memory naive oracle was built instead (indexed→naive rung).
  bool naive_fallback = false;
  /// Product DCs that overflowed ImplicitBicliqueFamily::kMaxBicliques and
  /// were materialized as pairs instead (implicit→materialized rung).
  size_t biclique_overflows = 0;
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

/// Indexed conflict oracle: materialized, deduplicated CSR adjacency for
/// binary DCs + explicit hypergraph for arity >= 3.
class PartitionConflictOracle final : public PartitionOracle {
 public:
  /// `rows` are v_join/R1 row ids forming the partition. `dcs` must be bound
  /// against `table`.
  static StatusOr<PartitionConflictOracle> Build(
      const Table& table, const std::vector<BoundDenialConstraint>& dcs,
      std::vector<uint32_t> rows, const ConflictOracleOptions& options = {});

  /// Build with a prebuilt arity >= 3 hypergraph (may be null). Lets
  /// BuildPartitionOracle enumerate hyperedges once and share them with a
  /// naive fallback attempt; a kResourceExhausted from this overload always
  /// means the pair budget.
  static StatusOr<PartitionConflictOracle> BuildWithHypergraph(
      const Table& table, const std::vector<BoundDenialConstraint>& dcs,
      std::vector<uint32_t> rows, const ConflictOracleOptions& options,
      std::shared_ptr<const Hypergraph> higher);

  const std::vector<uint32_t>& rows() const override { return rows_; }

  // ConflictOracle:
  size_t NumVertices() const override { return rows_.size(); }
  int64_t Degree(size_t v) const override { return degrees_[v]; }
  void AppendForbiddenColors(size_t v, const std::vector<int64_t>& colors,
                             std::vector<int64_t>* out) const override;
  /// Publishes the (CSR, implicit, hypergraph) decomposition so the greedy
  /// coloring can run its incremental fast path; forbidden semantics are
  /// exactly the union of the three layers.
  ConflictStructure Structure() const override {
    return {&adjacency_, &implicit_, higher_.get()};
  }

  // PartitionOracle:
  bool PairConflicts(size_t u, size_t v) const override {
    return adjacency_.HasEdge(u, v) || implicit_.PairConflicts(u, v);
  }
  bool WouldViolate(size_t v,
                    const std::vector<size_t>& same_color) const override;
  size_t CountEdges() const override { return num_edges_; }

  const AdjacencyGraph& adjacency() const { return adjacency_; }

  /// Binary DCs held as implicit bicliques (no materialized pairs).
  size_t num_implicit_bicliques() const { return implicit_.num_bicliques(); }
  /// Deduplicated pairs actually materialized in the CSR layer.
  size_t num_materialized_pairs() const { return adjacency_.num_edges(); }
  /// Product DCs materialized because the implicit family was full.
  size_t num_biclique_overflows() const { return biclique_overflows_; }

 private:
  PartitionConflictOracle() = default;

  std::vector<uint32_t> rows_;
  AdjacencyGraph adjacency_;  // deduplicated binary-DC edges (indexed DCs)
  ImplicitBicliqueFamily implicit_;  // no-cross-atom binary DCs, O(n) bits
  // Arity >= 3 edges (local vertex ids); shareable with a fallback oracle.
  std::shared_ptr<const Hypergraph> higher_;
  std::vector<int64_t> degrees_;  // (implicit ∪ CSR) + hypergraph degrees
  size_t num_edges_ = 0;          // binary + hyper, cached
  size_t biclique_overflows_ = 0; // product DCs forced onto the pair path
};

/// Reference brute-force oracle: per-vertex side masks, pairs tested on the
/// fly. O(n) memory; O(n * |DC|) per forbidden-color query.
class NaiveConflictOracle final : public PartitionOracle {
 public:
  static StatusOr<NaiveConflictOracle> Build(
      const Table& table, const std::vector<BoundDenialConstraint>& dcs,
      std::vector<uint32_t> rows, const ConflictOracleOptions& options = {});

  /// Build with a prebuilt arity >= 3 hypergraph (may be null); see
  /// PartitionConflictOracle::BuildWithHypergraph.
  static StatusOr<NaiveConflictOracle> BuildWithHypergraph(
      const Table& table, const std::vector<BoundDenialConstraint>& dcs,
      std::vector<uint32_t> rows, const ConflictOracleOptions& options,
      std::shared_ptr<const Hypergraph> higher);

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

/// Builds the indexed oracle, falling back to the naive oracle when the
/// materialized-pair budget is exceeded (or when `options.force_naive`).
/// `info`, when non-null, receives degradation accounting for the build
/// (`force_naive` is a configured rung, not a fallback, and is not counted).
StatusOr<std::unique_ptr<PartitionOracle>> BuildPartitionOracle(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
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

/// Key assignment for one repair combo. `rows` holds the combo's colored
/// partition rows (their keys in `colored_keys`, same order) followed by the
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
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    const std::vector<uint32_t>& rows, const std::vector<int64_t>& colored_keys,
    const std::vector<int64_t>& candidate_keys,
    RepairProbe probe = RepairProbe::kBySize,
    const ConflictOracleOptions& options = {});

/// Crossover of AssignRepairKeys' kBySize rule, from the
/// InvalidRepairCombo{Scan,Oracle} micro-kernels.
inline constexpr double kRepairOracleWorkRatio = 16.0;

}  // namespace cextend

#endif  // CEXTEND_CORE_CONFLICT_H_
