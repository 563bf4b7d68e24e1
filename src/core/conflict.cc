#include "core/conflict.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <set>
#include <unordered_map>

#include "graph/list_coloring.h"
#include "util/fault_injection.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace cextend {
namespace {

using CrossAtom = BoundDenialConstraint::CrossAtom;

/// Recursively enumerates ordered assignments of distinct local vertices to
/// the tuple variables of a k-ary DC, restricted to per-variable candidate
/// lists, and records each satisfying assignment as an (unordered) edge.
void EnumerateHyperedges(const Table& table,
                         const BoundDenialConstraint& dc,
                         const std::vector<uint32_t>& rows,
                         const std::vector<std::vector<size_t>>& candidates,
                         std::vector<size_t>& chosen,
                         std::vector<uint32_t>& chosen_rows,
                         std::set<std::vector<int>>& edges) {
  size_t var = chosen.size();
  if (var == candidates.size()) {
    if (dc.CrossAtomsHold(table, chosen_rows)) {
      std::vector<int> edge(chosen.begin(), chosen.end());
      std::sort(edge.begin(), edge.end());
      edges.insert(std::move(edge));
    }
    return;
  }
  for (size_t v : candidates[var]) {
    if (std::find(chosen.begin(), chosen.end(), v) != chosen.end()) continue;
    chosen.push_back(v);
    chosen_rows.push_back(rows[v]);
    EnumerateHyperedges(table, dc, rows, candidates, chosen, chosen_rows,
                        edges);
    chosen.pop_back();
    chosen_rows.pop_back();
  }
}

/// Expands every arity >= 3 DC into explicit hyperedges. Returns nullptr
/// when no such DC produces an edge.
StatusOr<std::shared_ptr<const Hypergraph>> BuildHigherArity(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    const std::vector<uint32_t>& rows, size_t max_hyperedge_candidates,
    const RunControl& run_control = {}) {
  size_t n = rows.size();
  std::set<std::vector<int>> edges;
  for (const BoundDenialConstraint& dc : dcs) {
    if (dc.arity() == 2) continue;
    CEXTEND_RETURN_IF_ERROR(run_control.Check());
    std::vector<std::vector<size_t>> candidates(
        static_cast<size_t>(dc.arity()));
    size_t product = 1;
    for (int var = 0; var < dc.arity(); ++var) {
      for (size_t i = 0; i < n; ++i) {
        if (dc.SideMatches(table, rows[i], var)) {
          candidates[static_cast<size_t>(var)].push_back(i);
        }
      }
      product *=
          std::max<size_t>(1, candidates[static_cast<size_t>(var)].size());
      if (product > max_hyperedge_candidates) {
        return Status::ResourceExhausted(StrFormat(
            "hyperedge enumeration for a %d-ary DC exceeds the candidate "
            "cap (%zu)", dc.arity(), max_hyperedge_candidates));
      }
    }
    std::vector<size_t> chosen;
    std::vector<uint32_t> chosen_rows;
    EnumerateHyperedges(table, dc, rows, candidates, chosen, chosen_rows,
                        edges);
  }
  if (edges.empty()) return std::shared_ptr<const Hypergraph>();
  auto higher = std::make_shared<Hypergraph>(n);
  for (const std::vector<int>& e : edges) higher->AddEdge(e);
  return std::shared_ptr<const Hypergraph>(std::move(higher));
}

// ---- Indexed pair materialization for binary DCs. ----

CompareOp FlipOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

/// A cross atom normalized to the (u = var 0, v = var 1) orientation: the
/// atom holds for the ordered pair iff
///   (code(u, u_col) + u_adj)  op  (code(v, v_col) + v_adj).
struct OrientedAtom {
  size_t u_col;
  int64_t u_adj;
  size_t v_col;
  int64_t v_adj;
  CompareOp op;

  int64_t UKey(const Table& table, uint32_t row) const {
    return table.GetCode(row, u_col) + u_adj;
  }
  int64_t VKey(const Table& table, uint32_t row) const {
    return table.GetCode(row, v_col) + v_adj;
  }
  bool Holds(const Table& table, uint32_t u_row, uint32_t v_row) const {
    return BoundDenialConstraint::CompareCodes(UKey(table, u_row), op,
                                               VKey(table, v_row));
  }
};

/// The per-DC index plan: cross atoms split by role. `eq` atoms define the
/// hash-bucket key, the first `ord` atom the sorted run inside a bucket;
/// everything else is verified per candidate pair.
struct BinaryDcPlan {
  std::vector<OrientedAtom> eq;     // kEq cross atoms -> bucket key
  std::vector<OrientedAtom> ord;    // kLt/kLe/kGt/kGe cross atoms
  std::vector<OrientedAtom> other;  // kNe (and unsupported-op) cross atoms
  std::vector<CrossAtom> same0;     // same-tuple atoms on var 0
  std::vector<CrossAtom> same1;     // same-tuple atoms on var 1

  std::vector<OrientedAtom>& ClassOf(CompareOp op) {
    if (op == CompareOp::kEq) return eq;
    if (op == CompareOp::kLt || op == CompareOp::kLe ||
        op == CompareOp::kGt || op == CompareOp::kGe) {
      return ord;
    }
    // kNe and any op without index support (e.g. a stray binary kIn, which
    // never holds) stay residual per-pair filters, matching CrossAtomsHold.
    return other;
  }
};

BinaryDcPlan PlanBinaryDc(const BoundDenialConstraint& dc) {
  BinaryDcPlan plan;
  for (const CrossAtom& a : dc.cross_atoms()) {
    if (!a.IsCross()) {
      (a.lhs_tuple == 0 ? plan.same0 : plan.same1).push_back(a);
      continue;
    }
    OrientedAtom o;
    if (a.lhs_tuple == 0) {
      o = {a.lhs_col, 0, a.rhs_col, a.offset, a.op};
    } else {
      // code(v, lhs_col) op code(u, rhs_col) + offset, flipped around op.
      o = {a.rhs_col, a.offset, a.lhs_col, 0, FlipOp(a.op)};
    }
    plan.ClassOf(o.op).push_back(o);
  }
  return plan;
}

/// True when local vertex `i` can play variable `var` of `dc`: unary side
/// atoms hold, same-tuple binary atoms hold, and no column referenced by a
/// cross atom is NULL (a NULL operand can never satisfy a cross atom).
bool SideEligible(const Table& table, const BoundDenialConstraint& dc,
                  const BinaryDcPlan& plan, uint32_t row, int var) {
  if (!dc.SideMatches(table, row, var)) return false;
  const std::vector<CrossAtom>& same = var == 0 ? plan.same0 : plan.same1;
  for (const CrossAtom& a : same) {
    if (!BoundDenialConstraint::CrossAtomHolds(
            a, table.GetCode(row, a.lhs_col), table.GetCode(row, a.rhs_col)))
      return false;
  }
  auto cols_non_null = [&](const std::vector<OrientedAtom>& atoms) {
    for (const OrientedAtom& a : atoms) {
      size_t col = var == 0 ? a.u_col : a.v_col;
      if (table.GetCode(row, col) == kNullCode) return false;
    }
    return true;
  };
  return cols_non_null(plan.eq) && cols_non_null(plan.ord) &&
         cols_non_null(plan.other);
}

/// Batch SideEligible over every local vertex: match[i] = SideEligible(table,
/// dc, plan, rows[i], var). Column sweeps (one linear pass per atom over the
/// raw codes) replace the per-row atom loops — this is the O(n)-per-DC
/// prologue of every oracle build, so it runs at memory speed.
void BuildSideMask(const Table& table, const BoundDenialConstraint& dc,
                   const BinaryDcPlan& plan, const std::vector<uint32_t>& rows,
                   int var, std::vector<uint8_t>* match) {
  dc.SideMatchesBatch(table, rows, var, match);
  const size_t n = rows.size();
  uint8_t* m = match->data();
  const std::vector<CrossAtom>& same = var == 0 ? plan.same0 : plan.same1;
  for (const CrossAtom& a : same) {
    const int64_t* lhs = table.ColumnCodes(a.lhs_col).data();
    const int64_t* rhs = table.ColumnCodes(a.rhs_col).data();
    for (size_t i = 0; i < n; ++i) {
      if (m[i] != 0 && !BoundDenialConstraint::CrossAtomHolds(
                           a, lhs[rows[i]], rhs[rows[i]])) {
        m[i] = 0;
      }
    }
  }
  // A NULL operand can never satisfy a cross atom, so null cells in any
  // cross-referenced column disqualify the vertex for this side.
  auto non_null_sweep = [&](const std::vector<OrientedAtom>& atoms) {
    for (const OrientedAtom& a : atoms) {
      size_t col = var == 0 ? a.u_col : a.v_col;
      const int64_t* codes = table.ColumnCodes(col).data();
      for (size_t i = 0; i < n; ++i) {
        if (m[i] != 0 && codes[rows[i]] == kNullCode) m[i] = 0;
      }
    }
  };
  non_null_sweep(plan.eq);
  non_null_sweep(plan.ord);
  non_null_sweep(plan.other);
}

/// Epoch-stamped membership scratch for WouldViolate probes: stamping the
/// `same_color` set is O(|set|) array writes (no per-probe tree or hash
/// build), and the stamp survives across probes on the same thread so repair
/// loops never allocate after warm-up.
class ProbeStamp {
 public:
  /// Begins a new probe over vertices < n; marks every member.
  void Stamp(size_t n, const std::vector<size_t>& members) {
    Begin(n);
    for (size_t u : members) stamp_[u] = epoch_;
  }

  /// Begins a new probe over vertices < n; marks the [begin, end) run
  /// (e.g. a CSR neighbor row).
  void StampRun(size_t n, const uint32_t* begin, const uint32_t* end) {
    Begin(n);
    for (const uint32_t* p = begin; p != end; ++p) stamp_[*p] = epoch_;
  }

  bool Contains(size_t u) const { return stamp_[u] == epoch_; }

  static ProbeStamp& ThreadLocal() {
    // cextend-lint: static-state-ok(per-thread probe scratch; epoch-stamped
    // and reset on every probe, never observable in results)
    thread_local ProbeStamp stamp;
    return stamp;
  }

 private:
  void Begin(size_t n) {
    if (stamp_.size() < n) stamp_.resize(n, 0);
    if (++epoch_ == 0) {  // wrapped: all stale marks must die
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

/// Shared by both oracles: true when some hyperedge containing `v` has all
/// of its other vertices in `stamp` (the probed same-color set).
bool HyperedgeWouldViolate(const Hypergraph* higher, size_t v,
                           const ProbeStamp& stamp) {
  for (int e : higher->incident_edges(v)) {
    bool all_in = true;
    for (int u : higher->edge(static_cast<size_t>(e))) {
      if (static_cast<size_t>(u) == v) continue;
      if (!stamp.Contains(static_cast<size_t>(u))) {
        all_in = false;
        break;
      }
    }
    if (all_in) return true;
  }
  return false;
}

uint64_t PackPair(size_t u, size_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | static_cast<uint64_t>(v);
}

/// True when the DC's conflict set is the plain side-0 x side-1 product
/// (no cross-tuple atoms to test per pair) — representable as an implicit
/// biclique instead of materialized pairs.
bool IsProductDc(const BinaryDcPlan& plan) {
  return plan.eq.empty() && plan.ord.empty() && plan.other.empty();
}

/// Pairs emitted before the next charge against the shared budget counter;
/// bounds the global transient memory at budget + threads · chunk instead
/// of threads · budget when several DC runs emit concurrently.
constexpr size_t kBudgetChargeChunk = 1 << 16;

/// Materializes every conflicting (unordered) pair of one binary DC into
/// `pairs` (packed (u << 32) | v, u < v; duplicates allowed — deduplicated when
/// the CSR graph is built). Every ordered pair (u = var 0, v = var 1) with
/// u in side 0 and v in side 1 is covered, so both orientations of each
/// unordered pair are tested exactly as the brute-force oracle does.
/// Emission is charged in chunks against `global_emitted`, the pre-dedup
/// pair count shared by every DC run of one build: the budget decision
/// (total raw emission vs. max_materialized_pairs) matches the old
/// cumulative serial check while keeping concurrent runs' combined memory
/// near the budget.
Status EmitBinaryDcPairs(const Table& table, const BoundDenialConstraint& dc,
                         const BinaryDcPlan& plan,
                         const std::vector<uint32_t>& rows,
                         size_t max_materialized_pairs,
                         const RunControl& run_control,
                         std::atomic<size_t>* global_emitted,
                         std::vector<uint64_t>* pairs) {
  size_t n = rows.size();
  if (n < 2) return Status::Ok();
  CEXTEND_RETURN_IF_ERROR(run_control.Check());

  std::vector<uint8_t> in0, in1;
  BuildSideMask(table, dc, plan, rows, 0, &in0);
  BuildSideMask(table, dc, plan, rows, 1, &in1);
  std::vector<uint32_t> side0, side1;
  for (size_t i = 0; i < n; ++i) {
    if (in0[i]) side0.push_back(static_cast<uint32_t>(i));
    if (in1[i]) side1.push_back(static_cast<uint32_t>(i));
  }
  if (side0.empty() || side1.empty()) return Status::Ok();

  auto over_budget = [&]() -> Status {
    return Status::ResourceExhausted(
        StrFormat("materialized conflict pairs exceed the budget (%zu)",
                  max_materialized_pairs));
  };
  size_t charged = 0;
  // Charges `count` more emitted pairs; true when the build-wide total
  // crosses the budget. The injected fault simulates a budget overrun at
  // the first charge, driving the indexed→naive fallback.
  auto charge = [&](size_t count) {
    charged += count;
    if (CEXTEND_INJECT_FAULT("oracle.pair_budget")) return true;
    size_t prior = global_emitted->fetch_add(count);
    return prior + count > max_materialized_pairs;
  };

  // Fast path: no cross atoms at all (owner-owner style DCs) — the conflict
  // set is the full side0 x side1 product; nothing to test per pair. Such
  // DCs are normally held implicitly (ImplicitBicliqueFamily) and never
  // reach this function; this path only serves kMaxBicliques overflow. The
  // predicate is symmetric here, so the mirror orientation (v in side 0,
  // u in side 1) would emit the identical packed pair; skip it up front
  // instead of feeding duplicates to the dedup sort. The emission count is
  // known in closed form, so an over-budget product bails out before
  // reserving or pushing anything.
  if (IsProductDc(plan)) {
    uint64_t both = 0;  // vertices eligible on both sides
    for (size_t i = 0; i < n; ++i) both += in0[i] && in1[i] ? 1 : 0;
    // s0*s1 ordered pairs, minus the `both` diagonal hits, minus the
    // C(both, 2) mirror duplicates the loop skips.
    uint64_t emitted = static_cast<uint64_t>(side0.size()) *
                           static_cast<uint64_t>(side1.size()) -
                       both - both * (both - 1) / 2;
    // Known in closed form, so the whole product is charged (and an
    // over-budget one bails out) before reserving or pushing anything.
    if (charge(static_cast<size_t>(emitted))) return over_budget();
    pairs->reserve(pairs->size() + static_cast<size_t>(emitted));
    for (uint32_t u : side0) {
      for (uint32_t v : side1) {
        if (v == u || (v < u && in0[v] && in1[u])) continue;
        pairs->push_back(PackPair(u, v));
      }
    }
    return Status::Ok();
  }

  // Flat bucket index over side 1: one contiguous Entry pool sorted by
  // (hash of the equality-atom keys, first ordering atom's key). A bucket is
  // the equal-hash run, located by binary search; the ordering atom narrows
  // a sub-run inside it. Probes then stream a contiguous slice — no
  // hash-table nodes, no pointer chasing. The pool is transient build
  // memory, 3 words per side-1 entry; charge it against the pair budget
  // (one 64-bit word ≈ one materialized pair) like every other build-time
  // pool, so adversarial side sizes fall back to the O(n)-memory naive
  // oracle instead of silently blowing past the cap.
  struct Entry {
    uint64_t hash;
    int64_t sort_key;
    uint32_t vert;
  };
  {
    if (CEXTEND_INJECT_FAULT("pool.alloc")) return over_budget();
    size_t pool_words = 3 * side1.size();
    size_t prior = global_emitted->fetch_add(pool_words);
    if (prior + pool_words > max_materialized_pairs) return over_budget();
  }
  std::vector<Entry> entries;
  entries.reserve(side1.size());
  for (uint32_t v : side1) {
    uint32_t row = rows[v];
    uint64_t h = 0;
    for (const OrientedAtom& a : plan.eq) h = MixHash64(h, static_cast<uint64_t>(a.VKey(table, row)));
    int64_t sk = plan.ord.empty() ? 0 : plan.ord[0].VKey(table, row);
    entries.push_back(Entry{h, sk, v});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    if (a.sort_key != b.sort_key) return a.sort_key < b.sort_key;
    return a.vert < b.vert;
  });

  auto hash_less = [](const Entry& e, uint64_t h) { return e.hash < h; };
  auto hash_greater = [](uint64_t h, const Entry& e) { return h < e.hash; };
  for (uint32_t u : side0) {
    uint32_t u_row = rows[u];
    uint64_t h = 0;
    for (const OrientedAtom& a : plan.eq) h = MixHash64(h, static_cast<uint64_t>(a.UKey(table, u_row)));
    auto bucket_begin =
        std::lower_bound(entries.begin(), entries.end(), h, hash_less);
    if (bucket_begin == entries.end() || bucket_begin->hash != h) continue;
    auto bucket_end =
        std::upper_bound(bucket_begin, entries.end(), h, hash_greater);

    size_t lo = static_cast<size_t>(bucket_begin - entries.begin());
    size_t hi = static_cast<size_t>(bucket_end - entries.begin());
    if (!plan.ord.empty()) {
      // Predicate: u_key op v_sort_key. Narrow [lo, hi) to the satisfying
      // run of the sorted bucket.
      int64_t u_key = plan.ord[0].UKey(table, u_row);
      auto key_less = [](const Entry& e, int64_t k) { return e.sort_key < k; };
      auto key_greater = [](int64_t k, const Entry& e) {
        return k < e.sort_key;
      };
      switch (plan.ord[0].op) {
        case CompareOp::kLt:  // v_key > u_key
          lo = static_cast<size_t>(
              std::upper_bound(bucket_begin, bucket_end, u_key, key_greater) -
              entries.begin());
          break;
        case CompareOp::kLe:  // v_key >= u_key
          lo = static_cast<size_t>(
              std::lower_bound(bucket_begin, bucket_end, u_key, key_less) -
              entries.begin());
          break;
        case CompareOp::kGt:  // v_key < u_key
          hi = static_cast<size_t>(
              std::lower_bound(bucket_begin, bucket_end, u_key, key_less) -
              entries.begin());
          break;
        case CompareOp::kGe:  // v_key <= u_key
          hi = static_cast<size_t>(
              std::upper_bound(bucket_begin, bucket_end, u_key, key_greater) -
              entries.begin());
          break;
        default:
          break;
      }
    }

    for (size_t idx = lo; idx < hi; ++idx) {
      uint32_t v = entries[idx].vert;
      if (v == u) continue;
      uint32_t v_row = rows[v];
      bool ok = true;
      // Equality atoms re-verified to absorb hash collisions; ordering atoms
      // beyond the first and != atoms are genuine residual filters.
      for (const OrientedAtom& a : plan.eq) {
        if (!a.Holds(table, u_row, v_row)) {
          ok = false;
          break;
        }
      }
      for (size_t k = 1; ok && k < plan.ord.size(); ++k) {
        if (!plan.ord[k].Holds(table, u_row, v_row)) ok = false;
      }
      for (const OrientedAtom& a : plan.other) {
        if (!ok) break;
        if (!a.Holds(table, u_row, v_row)) ok = false;
      }
      if (ok) pairs->push_back(PackPair(u, v));
    }
    if (pairs->size() - charged >= kBudgetChargeChunk) {
      CEXTEND_RETURN_IF_ERROR(run_control.Check());
      if (charge(pairs->size() - charged)) return over_budget();
    }
  }
  if (pairs->size() > charged && charge(pairs->size() - charged)) {
    return over_budget();
  }
  return Status::Ok();
}

/// Merges independently sorted, deduplicated per-DC pair runs into one
/// sorted unique list via pairwise std::merge rounds (O(total · log k) with
/// a tight two-way inner loop; cross-run duplicates fall to a final unique
/// pass). The result is exactly what sorting + deduplicating the
/// concatenated emission would produce, so the parallel build stays
/// byte-identical to the serial one.
std::vector<uint64_t> MergeSortedRuns(std::vector<std::vector<uint64_t>>&& runs) {
  runs.erase(std::remove_if(runs.begin(), runs.end(),
                            [](const std::vector<uint64_t>& r) {
                              return r.empty();
                            }),
             runs.end());
  if (runs.empty()) return {};
  while (runs.size() > 1) {
    std::vector<std::vector<uint64_t>> next;
    next.reserve((runs.size() + 1) / 2);
    for (size_t i = 0; i + 1 < runs.size(); i += 2) {
      std::vector<uint64_t> merged;
      merged.reserve(runs[i].size() + runs[i + 1].size());
      std::merge(runs[i].begin(), runs[i].end(), runs[i + 1].begin(),
                 runs[i + 1].end(), std::back_inserter(merged));
      next.push_back(std::move(merged));
    }
    if (runs.size() % 2 != 0) next.push_back(std::move(runs.back()));
    runs = std::move(next);
  }
  runs[0].erase(std::unique(runs[0].begin(), runs[0].end()), runs[0].end());
  return std::move(runs[0]);
}

}  // namespace

// ---- PartitionConflictOracle (indexed). ----

StatusOr<PartitionConflictOracle> PartitionConflictOracle::Build(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    std::vector<uint32_t> rows, const ConflictOracleOptions& options) {
  CEXTEND_ASSIGN_OR_RETURN(
      std::shared_ptr<const Hypergraph> higher,
      BuildHigherArity(table, dcs, rows, options.max_hyperedge_candidates,
                       options.run_control));
  return BuildWithHypergraph(table, dcs, std::move(rows), options,
                             std::move(higher));
}

StatusOr<PartitionConflictOracle> PartitionConflictOracle::BuildWithHypergraph(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    std::vector<uint32_t> rows, const ConflictOracleOptions& options,
    std::shared_ptr<const Hypergraph> higher) {
  PartitionConflictOracle oracle;
  oracle.rows_ = std::move(rows);
  oracle.higher_ = std::move(higher);
  size_t n = oracle.rows_.size();
  oracle.implicit_ = ImplicitBicliqueFamily(n);

  // Pass 1 (serial, O(n) per DC): split binary DCs into implicitly held
  // product DCs and indexed DCs whose pairs get materialized.
  std::vector<const BoundDenialConstraint*> indexed_dcs;
  std::vector<BinaryDcPlan> indexed_plans;
  std::vector<uint8_t> in0, in1;
  for (const BoundDenialConstraint& dc : dcs) {
    if (dc.arity() != 2) continue;
    BinaryDcPlan plan = PlanBinaryDc(dc);
    if (IsProductDc(plan) && n >= 2) {
      if (oracle.implicit_.num_bicliques() <
          ImplicitBicliqueFamily::kMaxBicliques) {
        // No cross atoms: the conflict set is the side0 x side1 product.
        // Keep it implicit — O(n) bits instead of Θ(|side0|·|side1|) pairs,
        // and it never touches the materialized-pair budget.
        BuildSideMask(table, dc, plan, oracle.rows_, 0, &in0);
        BuildSideMask(table, dc, plan, oracle.rows_, 1, &in1);
        bool any0 = std::find(in0.begin(), in0.end(), uint8_t{1}) != in0.end();
        bool any1 = std::find(in1.begin(), in1.end(), uint8_t{1}) != in1.end();
        if (any0 && any1) oracle.implicit_.AddBiclique(in0, in1);
        continue;
      }
      // Implicit→materialized rung: the family is full, so this product DC
      // joins the indexed path and pays the pair budget like any other DC.
      ++oracle.biclique_overflows_;
    }
    indexed_dcs.push_back(&dc);
    indexed_plans.push_back(std::move(plan));
  }
  oracle.implicit_.Finalize();

  // Pass 2: per-DC pair emission, fanned out on the thread pool when one is
  // supplied. Each DC emits into a private run, which is then sorted and
  // deduplicated inside the task; the runs merge into one sorted unique pair
  // list, byte-identical to the serial sort-then-dedup of the concatenated
  // emission. The pair budget is authoritative on the *pre-dedup* total (as
  // in the old cumulative serial check): every run charges the shared
  // counter in chunks, so concurrent runs' combined memory stays near the
  // budget rather than a per-run multiple of it.
  std::vector<std::vector<uint64_t>> runs(indexed_dcs.size());
  std::vector<Status> run_status(indexed_dcs.size(), Status::Ok());
  std::atomic<size_t> total_emitted{0};
  ParallelFor(options.pool, indexed_dcs.size(), [&](size_t i) {
    // Chunk-start check: a tripped deadline/cancel skips the emission work
    // and surfaces after the (deterministic) status sweep below.
    run_status[i] = options.run_control.Check();
    if (!run_status[i].ok()) return;
    run_status[i] =
        EmitBinaryDcPairs(table, *indexed_dcs[i], indexed_plans[i],
                          oracle.rows_, options.max_materialized_pairs,
                          options.run_control, &total_emitted, &runs[i]);
    std::sort(runs[i].begin(), runs[i].end());
    runs[i].erase(std::unique(runs[i].begin(), runs[i].end()), runs[i].end());
  });
  // Interrupts outrank budget errors: a budget overrun would trigger the
  // naive fallback, which must not mask an expired deadline / cancel.
  for (const Status& st : run_status) {
    if (st.code() == StatusCode::kDeadlineExceeded ||
        st.code() == StatusCode::kCancelled) {
      return st;
    }
  }
  for (size_t i = 0; i < indexed_dcs.size(); ++i) {
    CEXTEND_RETURN_IF_ERROR(run_status[i]);
  }
  std::vector<uint64_t> pairs = MergeSortedRuns(std::move(runs));
  // The implicit layer normally stores O(K · n) bits, but pathologically
  // overlapping product DCs can mint up to n distinct signature groups, each
  // with an n-bit neighborhood. Charge its storage (one 64-bit word ≈ one
  // materialized pair) against the pair budget so the naive fallback — O(n)
  // memory, always — still guards the worst case.
  if (oracle.implicit_.StorageWords() > options.max_materialized_pairs) {
    return Status::ResourceExhausted(
        StrFormat("implicit biclique bitsets exceed the pair budget (%zu)",
                  options.max_materialized_pairs));
  }
  oracle.adjacency_ =
      AdjacencyGraph::FromSortedUniquePairs(n, std::move(pairs));

  // Union simple-graph degrees over (implicit ∪ CSR); hypergraph degrees
  // stack on top, matching the brute-force oracle's accounting.
  size_t pair_edges =
      oracle.implicit_.UnionDegrees(oracle.adjacency_, &oracle.degrees_);
  if (oracle.higher_ != nullptr) {
    for (size_t v = 0; v < n; ++v)
      oracle.degrees_[v] += oracle.higher_->Degree(v);
  }
  oracle.num_edges_ =
      pair_edges +
      (oracle.higher_ == nullptr ? 0 : oracle.higher_->num_edges());
  return oracle;
}

void PartitionConflictOracle::AppendForbiddenColors(
    size_t v, const std::vector<int64_t>& colors,
    std::vector<int64_t>* out) const {
  constexpr int64_t kNone = INT64_MIN;
  for (const uint32_t* p = adjacency_.NeighborsBegin(v),
                     * end = adjacency_.NeighborsEnd(v);
       p != end; ++p) {
    int64_t c = colors[*p];
    if (c != kNone) out->push_back(c);
  }
  // Implicit neighbors may overlap the CSR run; duplicate appends are legal
  // per the ConflictOracle contract (the coloring epoch-marks them away).
  implicit_.AppendForbiddenColors(v, colors, out);
  if (higher_ != nullptr) higher_->AppendForbiddenColors(v, colors, out);
}

bool PartitionConflictOracle::WouldViolate(
    size_t v, const std::vector<size_t>& same_color) const {
  // Implicit layer: v's entire implicit adjacency is one group-neighborhood
  // bitset, hoisted once — a member conflicts iff its bit is set, and
  // vertices in no biclique (the common case for invalid-tuple probes) skip
  // the layer outright instead of paying a per-member group lookup.
  const uint32_t g = implicit_.group_of(v);
  if (g != ImplicitBicliqueFamily::kNoGroup) {
    const uint64_t* hood = implicit_.GroupNeighborhood(g);
    for (size_t u : same_color) {
      if (u != v && ImplicitBicliqueFamily::TestBit(hood, u)) return true;
    }
  }

  // CSR layer, O(b + deg): stamp the smaller of (members, neighbor run) and
  // stream the other, instead of b binary searches (O(b log deg)). Small
  // probes keep the per-member search — b searches beat a stamp pass. A zero
  // CSR degree skips the layer entirely. Every path computes the same OR, so
  // the cutovers are purely perf.
  const size_t b = same_color.size();
  const size_t csr_deg = static_cast<size_t>(adjacency_.Degree(v));
  ProbeStamp& stamp = ProbeStamp::ThreadLocal();
  bool members_stamped = false;
  if (csr_deg != 0) {
    if (b < 64) {
      for (size_t u : same_color) {
        if (u != v && adjacency_.HasEdge(v, u)) return true;
      }
    } else if (csr_deg <= b) {
      stamp.StampRun(rows_.size(), adjacency_.NeighborsBegin(v),
                     adjacency_.NeighborsEnd(v));
      for (size_t u : same_color) {
        if (stamp.Contains(u)) return true;  // neighbors never include v
      }
    } else {
      stamp.Stamp(rows_.size(), same_color);
      members_stamped = true;
      for (const uint32_t* p = adjacency_.NeighborsBegin(v),
                         *end = adjacency_.NeighborsEnd(v);
           p != end; ++p) {
        if (stamp.Contains(*p)) return true;
      }
    }
  }

  // Hypergraph layer: edge-membership tests need the member set stamped.
  if (higher_ == nullptr || higher_->incident_edges(v).empty()) return false;
  if (!members_stamped) stamp.Stamp(rows_.size(), same_color);
  return HyperedgeWouldViolate(higher_.get(), v, stamp);
}

// ---- NaiveConflictOracle (brute force, reference). ----

StatusOr<NaiveConflictOracle> NaiveConflictOracle::Build(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    std::vector<uint32_t> rows, const ConflictOracleOptions& options) {
  CEXTEND_ASSIGN_OR_RETURN(
      std::shared_ptr<const Hypergraph> higher,
      BuildHigherArity(table, dcs, rows, options.max_hyperedge_candidates,
                       options.run_control));
  return BuildWithHypergraph(table, dcs, std::move(rows), options,
                             std::move(higher));
}

StatusOr<NaiveConflictOracle> NaiveConflictOracle::BuildWithHypergraph(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    std::vector<uint32_t> rows, const ConflictOracleOptions& /*options*/,
    std::shared_ptr<const Hypergraph> higher) {
  NaiveConflictOracle oracle;
  oracle.table_ = &table;
  oracle.rows_ = std::move(rows);
  oracle.higher_ = std::move(higher);
  size_t n = oracle.rows_.size();
  oracle.degrees_.assign(n, 0);

  for (const BoundDenialConstraint& dc : dcs) {
    if (dc.arity() != 2) continue;
    BinaryDc b;
    b.dc = &dc;
    b.side0.resize(n);
    b.side1.resize(n);
    for (size_t i = 0; i < n; ++i) {
      b.side0[i] = dc.SideMatches(table, oracle.rows_[i], 0) ? 1 : 0;
      b.side1[i] = dc.SideMatches(table, oracle.rows_[i], 1) ? 1 : 0;
    }
    oracle.binary_.push_back(std::move(b));
  }

  // Degrees + edge count in one pairwise scan (no edge storage).
  size_t pair_edges = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (oracle.PairConflicts(i, j)) {
        ++oracle.degrees_[i];
        ++oracle.degrees_[j];
        ++pair_edges;
      }
    }
  }
  oracle.num_edges_ = pair_edges;
  if (oracle.higher_ != nullptr) {
    for (size_t v = 0; v < n; ++v)
      oracle.degrees_[v] += oracle.higher_->Degree(v);
    oracle.num_edges_ += oracle.higher_->num_edges();
  }
  return oracle;
}

bool NaiveConflictOracle::PairConflicts(size_t u, size_t v) const {
  for (const BinaryDc& b : binary_) {
    if (b.side0[u] && b.side1[v] &&
        b.dc->CrossAtomsHold(*table_, {rows_[u], rows_[v]})) {
      return true;
    }
    if (b.side0[v] && b.side1[u] &&
        b.dc->CrossAtomsHold(*table_, {rows_[v], rows_[u]})) {
      return true;
    }
  }
  return false;
}

void NaiveConflictOracle::AppendForbiddenColors(
    size_t v, const std::vector<int64_t>& colors,
    std::vector<int64_t>* out) const {
  constexpr int64_t kNone = INT64_MIN;
  // Binary DCs: the color of any conflicting colored vertex is forbidden.
  for (size_t u = 0; u < rows_.size(); ++u) {
    if (u == v || colors[u] == kNone) continue;
    if (PairConflicts(u, v)) out->push_back(colors[u]);
  }
  if (higher_ != nullptr) higher_->AppendForbiddenColors(v, colors, out);
}

bool NaiveConflictOracle::WouldViolate(
    size_t v, const std::vector<size_t>& same_color) const {
  for (size_t u : same_color) {
    if (u != v && PairConflicts(u, v)) return true;
  }
  if (higher_ == nullptr || higher_->incident_edges(v).empty()) return false;
  ProbeStamp& stamp = ProbeStamp::ThreadLocal();
  stamp.Stamp(rows_.size(), same_color);
  return HyperedgeWouldViolate(higher_.get(), v, stamp);
}

// ---- Factory with fallback. ----

StatusOr<std::unique_ptr<PartitionOracle>> BuildPartitionOracle(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    std::vector<uint32_t> rows, const ConflictOracleOptions& options,
    BuildOracleInfo* info) {
  // Hyperedges are enumerated once up front and shared: a cap failure here
  // is terminal (the naive oracle would hit the identical cap), and a
  // later kResourceExhausted from the indexed build can only mean the pair
  // budget, which the naive fallback does not need.
  CEXTEND_ASSIGN_OR_RETURN(
      std::shared_ptr<const Hypergraph> higher,
      BuildHigherArity(table, dcs, rows, options.max_hyperedge_candidates,
                       options.run_control));
  // The injected fault abandons the indexed build outright, exercising the
  // same indexed→naive rung a real pair-budget overrun takes.
  if (!options.force_naive && !CEXTEND_INJECT_FAULT("oracle.build")) {
    StatusOr<PartitionConflictOracle> indexed =
        PartitionConflictOracle::BuildWithHypergraph(table, dcs, rows,
                                                     options, higher);
    if (indexed.ok()) {
      if (info != nullptr) {
        info->biclique_overflows = indexed.value().num_biclique_overflows();
      }
      std::unique_ptr<PartitionOracle> oracle =
          std::make_unique<PartitionConflictOracle>(
              std::move(indexed).value());
      return oracle;
    }
    if (indexed.status().code() != StatusCode::kResourceExhausted) {
      return indexed.status();
    }
    // Pair budget exceeded: fall back to the O(n) memory brute-force oracle.
  }
  if (info != nullptr && !options.force_naive) info->naive_fallback = true;
  CEXTEND_ASSIGN_OR_RETURN(
      NaiveConflictOracle naive,
      NaiveConflictOracle::BuildWithHypergraph(table, dcs, std::move(rows),
                                               options, std::move(higher)));
  std::unique_ptr<PartitionOracle> oracle =
      std::make_unique<NaiveConflictOracle>(std::move(naive));
  return oracle;
}

// ---- Invalid-tuple repair probes. ----

namespace {

/// True when some `need`-subset of members[start..] completes `tuple` into a
/// row set on which the DC body holds (any ordering).
bool SubsetViolates(const Table& table, const BoundDenialConstraint& dc,
                    const std::vector<size_t>& members,
                    const std::vector<uint32_t>& rows, size_t start,
                    size_t need, std::vector<uint32_t>& tuple) {
  if (need == 0) return dc.BodyHoldsUnordered(table, tuple);
  for (size_t i = start; i + need <= members.size(); ++i) {
    tuple.push_back(rows[members[i]]);
    if (SubsetViolates(table, dc, members, rows, i + 1, need - 1, tuple)) {
      tuple.pop_back();
      return true;
    }
    tuple.pop_back();
  }
  return false;
}

}  // namespace

bool ScanWouldViolate(const Table& table,
                      const std::vector<BoundDenialConstraint>& dcs,
                      uint32_t row, const std::vector<size_t>& members,
                      const std::vector<uint32_t>& rows) {
  for (const BoundDenialConstraint& dc : dcs) {
    // A violating row set needs `row` in some variable's role.
    bool can_join = false;
    for (int var = 0; var < dc.arity() && !can_join; ++var) {
      can_join = dc.SideMatches(table, row, var);
    }
    if (!can_join) continue;
    if (dc.arity() == 2) {
      for (size_t m : members) {
        if (rows[m] != row &&
            dc.BodyHoldsUnordered(table, {row, rows[m]})) {
          return true;
        }
      }
      continue;
    }
    size_t need = static_cast<size_t>(dc.arity()) - 1;
    if (members.size() < need) continue;
    std::vector<uint32_t> tuple = {row};
    if (SubsetViolates(table, dc, members, rows, 0, need, tuple)) return true;
  }
  return false;
}

StatusOr<RepairAssignment> AssignRepairKeys(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    const std::vector<uint32_t>& rows, const std::vector<int64_t>& colored_keys,
    const std::vector<int64_t>& candidate_keys, RepairProbe probe,
    const ConflictOracleOptions& options) {
  const size_t num_colored = colored_keys.size();
  CEXTEND_CHECK(num_colored <= rows.size());
  const size_t group = rows.size() - num_colored;
  // Same-key buckets as local ids into `rows`.
  std::unordered_map<int64_t, std::vector<size_t>> bucket;
  size_t largest = 0;
  for (size_t v = 0; v < num_colored; ++v) {
    std::vector<size_t>& members = bucket[colored_keys[v]];
    members.push_back(v);
    largest = std::max(largest, members.size());
  }

  bool use_oracle = probe == RepairProbe::kOracle;
  if (probe == RepairProbe::kBySize && group > 0) {
    // Scan: per k-ary DC, every repaired row that can fill one of its
    // variables checks up to (largest bucket + group)^(k-1) row sets. Build:
    // one pass over `rows`, plus the ordered candidate product that
    // hyperedge enumeration walks for each DC of arity >= 3.
    double scan_work = 0.0;
    double build_work = static_cast<double>(rows.size());
    std::vector<uint8_t> match;
    for (const BoundDenialConstraint& dc : dcs) {
      size_t joinable = 0;
      for (size_t local = num_colored; local < rows.size(); ++local) {
        for (int var = 0; var < dc.arity(); ++var) {
          if (dc.SideMatches(table, rows[local], var)) {
            ++joinable;
            break;
          }
        }
      }
      scan_work += static_cast<double>(joinable) *
                   std::pow(static_cast<double>(largest + group),
                            dc.arity() - 1);
      if (dc.arity() == 2) continue;
      double product = 1.0;
      for (int var = 0; var < dc.arity(); ++var) {
        dc.SideMatchesBatch(table, rows, var, &match);
        product *= std::max<double>(
            1.0, static_cast<double>(
                     std::count(match.begin(), match.end(), uint8_t{1})));
      }
      build_work += product;
    }
    use_oracle = scan_work > kRepairOracleWorkRatio * build_work;
  }

  RepairAssignment out;
  std::unique_ptr<PartitionOracle> oracle;
  if (use_oracle) {
    StatusOr<std::unique_ptr<PartitionOracle>> built =
        BuildPartitionOracle(table, dcs, rows, options, &out.build);
    if (built.ok()) {
      oracle = std::move(built).value();
      out.used_oracle = true;
    } else if (built.status().code() != StatusCode::kResourceExhausted) {
      return built.status();
    }
  }

  out.keys.reserve(group);
  for (size_t local = num_colored; local < rows.size(); ++local) {
    int64_t chosen = kNoColor;
    for (int64_t key : candidate_keys) {
      auto it = bucket.find(key);
      if (it == bucket.end() ||
          !(oracle != nullptr
                ? oracle->WouldViolate(local, it->second)
                : ScanWouldViolate(table, dcs, rows[local], it->second,
                                   rows))) {
        chosen = key;
        break;
      }
    }
    out.keys.push_back(chosen);
    // Fresh keys are never candidates, so only candidate buckets grow.
    if (chosen != kNoColor) bucket[chosen].push_back(local);
  }
  return out;
}

}  // namespace cextend
