#include "core/conflict.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <unordered_map>

#include "graph/list_coloring.h"
#include "util/fault_injection.h"
#include "util/code_interner.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

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
    return CompareCodes(UKey(table, u_row), op, VKey(table, v_row));
  }
};

/// The per-DC index plan: cross atoms split by role. `eq` atoms define the
/// hash-bucket key, the first `ord` atom the sorted run inside a bucket;
/// everything else is verified per candidate pair.
struct BinaryDcPlan {
  const BoundDenialConstraint* dc = nullptr;
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

  bool IsProduct() const { return eq.empty() && ord.empty() && other.empty(); }

  template <typename Fn>
  void ForEachCrossAtom(Fn fn) const {
    for (const std::vector<OrientedAtom>* atoms : {&eq, &ord, &other}) {
      for (const OrientedAtom& a : *atoms) fn(a);
    }
  }
};

BinaryDcPlan PlanBinaryDc(const BoundDenialConstraint& dc) {
  BinaryDcPlan plan;
  plan.dc = &dc;
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

/// match[i] = whether rows[i] can play variable `var` of `dc`: unary side
/// atoms hold, same-tuple binary atoms hold, and no column referenced by a
/// cross atom is NULL (a NULL operand can never satisfy a cross atom).
/// Column sweeps (one linear pass per atom over the raw codes) replace
/// per-row atom loops — this is the O(n)-per-DC prologue of every oracle
/// build, so it runs at memory speed.
void BuildSideMask(const Table& table, const BinaryDcPlan& plan,
                   const std::vector<uint32_t>& rows, int var,
                   std::vector<uint8_t>* match) {
  plan.dc->SideMatchesBatch(table, rows, var, match);
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

/// Epoch-stamped ids < n: Local(id) numbers the ids in order of first
/// sight (seen() lists them by local id) and Contains(id) tells whether id
/// was seen since Begin. The tables survive across calls on the same thread,
/// so a use costs O(ids touched), not O(n), and never allocates after
/// warm-up: oracle builds renumber the global buckets and groups their rows
/// touch, and WouldViolate probes stamp their same-color set.
class StampedIds {
 public:
  void Begin(size_t n) {
    if (stamp_.size() < n) {
      stamp_.resize(n, 0);
      local_.resize(n);
    }
    if (++epoch_ == 0) {  // wrapped: all stale marks must die
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    seen_.clear();
  }

  uint32_t Local(size_t id) {
    if (stamp_[id] != epoch_) {
      stamp_[id] = epoch_;
      local_[id] = static_cast<uint32_t>(seen_.size());
      seen_.push_back(static_cast<uint32_t>(id));
    }
    return local_[id];
  }

  bool Contains(size_t id) const { return stamp_[id] == epoch_; }
  const std::vector<uint32_t>& seen() const { return seen_; }

  /// Slots: 0 buckets and 1 groups of an oracle build, 2 probes.
  static StampedIds& ThreadLocal(size_t slot) {
    // cextend-lint: static-state-ok(per-thread scratch; epoch-stamped and
    // reset on every use, never observable in results)
    thread_local StampedIds ids[3];
    return ids[slot];
  }

 private:
  std::vector<uint32_t> stamp_;
  std::vector<uint32_t> local_;
  std::vector<uint32_t> seen_;
  uint32_t epoch_ = 0;
};

/// Shared by both oracles: true when some hyperedge containing `v` has all
/// of its other vertices in `stamp` (the probed same-color set).
bool HyperedgeWouldViolate(const Hypergraph* higher, size_t v,
                           const StampedIds& stamp) {
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

/// Pairs emitted before the next charge against the build's budget counter
/// (and the next deadline/cancel check).
constexpr size_t kBudgetChargeChunk = 1 << 16;

/// Appends every conflicting (unordered) pair of one binary DC over `rows`
/// to `pairs` (packed (u << 32) | v, u < v, as indices into `rows`;
/// duplicates allowed — deduplicated when the CSR graph is built). `side0`
/// and `side1` list the indices whose rows pass the DC's sides
/// (BuildSideMask). Every ordered pair (u = var 0, v = var 1), u != v, with
/// u in side 0 and v in side 1 is covered, so both orientations of each
/// unordered pair are tested exactly as the brute-force oracle does.
/// Emission is charged in chunks against `*build_emitted`, the pre-dedup
/// pair count of every DC of one build, so the budget decision is on the
/// total raw emission vs. max_materialized_pairs.
Status EmitBinaryDcPairs(const Table& table, const BinaryDcPlan& plan,
                         const std::vector<uint32_t>& rows,
                         std::span<const uint32_t> side0,
                         std::span<const uint32_t> side1,
                         size_t max_materialized_pairs,
                         const RunControl& run_control,
                         size_t* build_emitted,
                         std::vector<uint64_t>* pairs) {
  if (side0.empty() || side1.empty()) return Status::Ok();
  CEXTEND_RETURN_IF_ERROR(run_control.Check());

  auto over_budget = [&]() -> Status {
    return Status::ResourceExhausted(
        StrFormat("materialized conflict pairs exceed the budget (%zu)",
                  max_materialized_pairs));
  };
  size_t charged = pairs->size();  // pairs[0, charged) are paid for
  // Charges `count` more emitted pairs; true when the build-wide total
  // crosses the budget. The injected fault simulates a budget overrun at
  // the first charge, driving the quotient→naive fallback.
  auto charge = [&](size_t count) {
    charged += count;
    if (CEXTEND_INJECT_FAULT("oracle.pair_budget")) return true;
    *build_emitted += count;
    return *build_emitted > max_materialized_pairs;
  };

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
    *build_emitted += 3 * side1.size();
    if (*build_emitted > max_materialized_pairs) return over_budget();
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


/// The binary DCs of `dcs` with their index plans, in order.
std::vector<BinaryDcPlan> PlanBinaryDcs(
    const std::vector<BoundDenialConstraint>& dcs) {
  std::vector<BinaryDcPlan> plans;
  for (const BoundDenialConstraint& dc : dcs) {
    if (dc.arity() == 2) plans.push_back(PlanBinaryDc(dc));
  }
  return plans;
}

/// Classes listed by signature bit: the classes (of `sigs`, `words` words
/// each) whose signature has bit i, ascending, are
/// members[begin[i] .. begin[i + 1]). Two passes over the set bits.
struct SideLists {
  std::vector<uint32_t> begin;
  std::vector<uint32_t> members;

  SideLists(const std::vector<uint64_t>& sigs, size_t words) {
    begin.assign(words * 64 + 1, 0);
    auto for_each_bit = [&](auto fn) {
      for (size_t i = 0; i < sigs.size(); ++i) {
        for (uint64_t bits = sigs[i]; bits != 0; bits &= bits - 1) {
          fn((i % words) * 64 + static_cast<size_t>(__builtin_ctzll(bits)),
             static_cast<uint32_t>(i / words));
        }
      }
    };
    for_each_bit([&](size_t bit, uint32_t) { ++begin[bit + 1]; });
    for (size_t bit = 0; bit + 1 < begin.size(); ++bit) {
      begin[bit + 1] += begin[bit];
    }
    members.resize(begin.back());
    std::vector<uint32_t> cursor(begin.begin(), begin.end() - 1);
    for_each_bit([&](size_t bit, uint32_t c) { members[cursor[bit]++] = c; });
  }

  std::span<const uint32_t> Of(size_t bit) const {
    return {members.data() + begin[bit], begin[bit + 1] - begin[bit]};
  }
};

/// Representatives and side lists of one level of a partition's classes,
/// by local id; `global[local]` is the class's DcRowClasses id.
struct LocalClasses {
  std::vector<uint32_t> reps;
  SideLists sides;

  LocalClasses(const std::vector<uint32_t>& global,
               const std::vector<uint32_t>& all_reps,
               const std::vector<uint64_t>& all_sigs, size_t words)
      : sides(Gather(global, all_sigs, words), words) {
    for (uint32_t c : global) reps.push_back(all_reps[c]);
  }

  static std::vector<uint64_t> Gather(const std::vector<uint32_t>& global,
                                      const std::vector<uint64_t>& all_sigs,
                                      size_t words) {
    std::vector<uint64_t> sigs;
    sigs.reserve(global.size() * words);
    for (uint32_t c : global) {
      sigs.insert(sigs.end(), all_sigs.begin() + c * words,
                  all_sigs.begin() + (c + 1) * words);
    }
    return sigs;
  }
};

}  // namespace

// ---- DcRowClasses. ----

/// Rows are keyed by the codes of every column the binary DCs read, and each
/// DC's sides are evaluated once per key. Keys then merge into buckets by
/// (signature, codes of the cross-atom columns the signature's sides read):
/// two rows of one bucket pass the same DC sides and feed every cross atom
/// they take part in the same codes, so each DC holds on (u, w) exactly when
/// it holds on (u', w) for any u' of u's bucket. A cross-read column is
/// never NULL on a side that reads it (BuildSideMask), so kNullCode marks
/// the columns a signature does not read. Groups key buckets by their
/// product-DC bits alone.
DcRowClasses DcRowClasses::Build(const Table& table,
                                 std::vector<BoundDenialConstraint> dcs) {
  DcRowClasses out;
  out.dcs = std::move(dcs);
  const std::vector<BinaryDcPlan> plans = PlanBinaryDcs(out.dcs);
  const size_t n = table.NumRows();
  std::vector<size_t> cols;
  cols.reserve(4 * plans.size());
  for (const BinaryDcPlan& plan : plans) plan.dc->AppendReadColumns(&cols);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  std::vector<const int64_t*> col_codes;
  for (size_t c : cols) col_codes.push_back(table.ColumnCodes(c).data());

  CodeInterner keys(cols.size());
  std::vector<uint32_t> key_of(n);
  std::vector<uint32_t> key_reps;
  std::vector<int64_t> tuple(cols.size());
  for (size_t r = 0; r < n; ++r) {
    for (size_t k = 0; k < cols.size(); ++k) tuple[k] = col_codes[k][r];
    CodeInterner::Interned key = keys.Intern(tuple.data());
    key_of[r] = key.id;
    if (key.inserted) key_reps.push_back(static_cast<uint32_t>(r));
  }

  const size_t words = out.sig_words = (2 * plans.size() + 63) / 64;
  std::vector<uint64_t> key_sigs(key_reps.size() * words, 0);
  std::vector<uint64_t> product_bits(words, 0);
  std::vector<uint8_t> mask;
  for (size_t bit = 0; bit < 2 * plans.size(); ++bit) {
    const BinaryDcPlan& plan = plans[bit / 2];
    const uint64_t flag = uint64_t{1} << (bit % 64);
    if (plan.IsProduct()) product_bits[bit / 64] |= flag;
    BuildSideMask(table, plan, key_reps, static_cast<int>(bit % 2), &mask);
    for (size_t k = 0; k < key_reps.size(); ++k) {
      if (mask[k]) key_sigs[k * words + bit / 64] |= flag;
    }
  }

  // Cross-atom columns; a bucket key holds their codes after the
  // signature words.
  std::vector<size_t> cross;
  for (const BinaryDcPlan& plan : plans) {
    plan.ForEachCrossAtom([&](const OrientedAtom& a) {
      cross.push_back(a.u_col);
      cross.push_back(a.v_col);
    });
  }
  std::sort(cross.begin(), cross.end());
  cross.erase(std::unique(cross.begin(), cross.end()), cross.end());

  CodeInterner buckets(words + cross.size());
  CodeInterner groups(words);
  std::vector<uint32_t> bucket_of_key(key_reps.size());
  out.bucket_rep.reserve(key_reps.size());
  out.bucket_sigs.reserve(key_reps.size() * words);
  out.group_of.reserve(key_reps.size());
  out.self_begin.push_back(0);
  std::vector<int64_t> merged(words + cross.size());
  for (size_t k = 0; k < key_reps.size(); ++k) {
    const uint64_t* sig = key_sigs.data() + k * words;
    const uint32_t row = key_reps[k];
    std::fill(merged.begin() + static_cast<ptrdiff_t>(words), merged.end(),
              kNullCode);
    for (size_t w = 0; w < words; ++w) {
      merged[w] = static_cast<int64_t>(sig[w]);
      for (uint64_t bits = sig[w]; bits != 0; bits &= bits - 1) {
        const size_t bit = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        plans[bit / 2].ForEachCrossAtom([&](const OrientedAtom& a) {
          const size_t col = bit % 2 == 0 ? a.u_col : a.v_col;
          merged[words + static_cast<size_t>(
                             std::lower_bound(cross.begin(), cross.end(), col) -
                             cross.begin())] = table.GetCode(row, col);
        });
      }
    }
    CodeInterner::Interned bucket = buckets.Intern(merged.data());
    bucket_of_key[k] = bucket.id;
    if (!bucket.inserted) continue;
    out.bucket_rep.push_back(row);
    out.bucket_sigs.insert(out.bucket_sigs.end(), sig, sig + words);
    // Self-adjacent: the DC holds with `row` in both roles, i.e. on any two
    // distinct rows carrying row's codes.
    const std::vector<uint32_t> self_pair = {row, row};
    for (uint32_t d = 0; d < plans.size(); ++d) {
      if (plans[d].dc->BodyHolds(table, self_pair)) out.self_dcs.push_back(d);
    }
    out.self_begin.push_back(static_cast<uint32_t>(out.self_dcs.size()));
    for (size_t w = 0; w < words; ++w) {
      merged[w] = static_cast<int64_t>(sig[w] & product_bits[w]);
    }
    CodeInterner::Interned group = groups.Intern(merged.data());
    out.group_of.push_back(group.id);
    if (!group.inserted) continue;
    out.group_rep.push_back(row);
    out.group_sigs.insert(out.group_sigs.end(), merged.begin(),
                          merged.begin() + static_cast<ptrdiff_t>(words));
  }
  out.bucket_of.resize(n);
  for (size_t r = 0; r < n; ++r) out.bucket_of[r] = bucket_of_key[key_of[r]];
  return out;
}

// ---- PartitionConflictOracle (quotient). ----

StatusOr<PartitionConflictOracle> PartitionConflictOracle::Build(
    const Table& table, const DcRowClasses& classes,
    std::vector<uint32_t> rows, const ConflictOracleOptions& options,
    std::optional<std::shared_ptr<const Hypergraph>> higher) {
  if (!higher.has_value()) {
    CEXTEND_ASSIGN_OR_RETURN(
        higher,
        BuildHigherArity(table, classes.dcs, rows,
                         options.max_hyperedge_candidates,
                         options.run_control));
  }
  PartitionConflictOracle oracle;
  oracle.rows_ = std::move(rows);
  oracle.higher_ = std::move(*higher);
  const std::vector<BinaryDcPlan> plans = PlanBinaryDcs(classes.dcs);
  const size_t words = classes.sig_words;

  // The partition's buckets and groups, renumbered in first-vertex order,
  // with their representatives and signatures.
  CEXTEND_CHECK(classes.bucket_of.size() == table.NumRows());
  QuotientGraph::Parts parts;
  parts.bucket_of.reserve(oracle.rows_.size());
  StampedIds& buckets = StampedIds::ThreadLocal(0);
  buckets.Begin(classes.num_buckets());
  for (uint32_t row : oracle.rows_) {
    parts.bucket_of.push_back(buckets.Local(classes.bucket_of[row]));
  }
  StampedIds& groups = StampedIds::ThreadLocal(1);
  groups.Begin(classes.group_rep.size());
  for (uint32_t b : buckets.seen()) {
    parts.group_of.push_back(groups.Local(classes.group_of[b]));
  }
  const LocalClasses local_buckets(buckets.seen(), classes.bucket_rep,
                                   classes.bucket_sigs, words);
  const LocalClasses local_groups(groups.seen(), classes.group_rep,
                                  classes.group_sigs, words);

  // Product DCs emit group pairs over group representatives, the others
  // bucket pairs over bucket representatives; each level's pairs become its
  // CSR (deduplicated there). The pair budget is authoritative on the
  // *pre-dedup* total. A deadline/cancel outranks a budget overrun: the
  // overrun would trigger the naive fallback, which must not mask an
  // expired deadline / cancel.
  parts.group_self.assign(local_groups.reps.size(), 0);
  parts.bucket_self.assign(local_buckets.reps.size(), 0);
  size_t emitted = 0;
  for (size_t d = 0; d < plans.size(); ++d) {
    const bool product = plans[d].IsProduct();
    const LocalClasses& local = product ? local_groups : local_buckets;
    Status st = EmitBinaryDcPairs(
        table, plans[d], local.reps, local.sides.Of(2 * d),
        local.sides.Of(2 * d + 1), options.max_materialized_pairs,
        options.run_control, &emitted,
        product ? &parts.group_pairs : &parts.bucket_pairs);
    if (!st.ok()) {
      CEXTEND_RETURN_IF_ERROR(options.run_control.Check());
      return st;
    }
  }
  // A self-adjacent bucket makes its group self-adjacent under a product DC
  // (every bucket of a group passes the same product-DC sides) and itself
  // under any other.
  for (size_t b = 0; b < buckets.seen().size(); ++b) {
    for (uint32_t d : classes.SelfDcs(buckets.seen()[b])) {
      if (plans[d].IsProduct()) {
        parts.group_self[parts.group_of[b]] = 1;
      } else {
        parts.bucket_self[b] = 1;
      }
    }
  }
  oracle.quotient_ = QuotientGraph(std::move(parts));
  return oracle;
}

void PartitionConflictOracle::AppendForbiddenColors(
    size_t v, const std::vector<int64_t>& colors,
    std::vector<int64_t>* out) const {
  quotient_.AppendForbiddenColors(v, colors, out);
  if (higher_ != nullptr) higher_->AppendForbiddenColors(v, colors, out);
}

bool PartitionConflictOracle::WouldViolate(
    size_t v, const std::vector<size_t>& same_color) const {
  // A vertex without binary neighbors (the common case for invalid-tuple
  // probes) skips the member loop outright.
  if (quotient_.Degree(v) != 0) {
    for (size_t u : same_color) {
      if (quotient_.HasEdge(v, u)) return true;
    }
  }
  // Hypergraph layer: edge-membership tests need the member set stamped.
  if (higher_ == nullptr || higher_->incident_edges(v).empty()) return false;
  StampedIds& stamp = StampedIds::ThreadLocal(2);
  stamp.Begin(rows_.size());
  for (size_t u : same_color) stamp.Local(u);
  return HyperedgeWouldViolate(higher_.get(), v, stamp);
}

// ---- NaiveConflictOracle (brute force, reference). ----

StatusOr<NaiveConflictOracle> NaiveConflictOracle::Build(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    std::vector<uint32_t> rows, const ConflictOracleOptions& options,
    std::optional<std::shared_ptr<const Hypergraph>> higher) {
  if (!higher.has_value()) {
    CEXTEND_ASSIGN_OR_RETURN(
        higher, BuildHigherArity(table, dcs, rows,
                                 options.max_hyperedge_candidates,
                                 options.run_control));
  }
  NaiveConflictOracle oracle;
  oracle.table_ = &table;
  oracle.rows_ = std::move(rows);
  oracle.higher_ = std::move(*higher);
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
  StampedIds& stamp = StampedIds::ThreadLocal(2);
  stamp.Begin(rows_.size());
  for (size_t u : same_color) stamp.Local(u);
  return HyperedgeWouldViolate(higher_.get(), v, stamp);
}

// ---- Factory with fallback. ----

StatusOr<std::unique_ptr<PartitionOracle>> BuildPartitionOracle(
    const Table& table, const DcRowClasses& classes,
    std::vector<uint32_t> rows, const ConflictOracleOptions& options,
    BuildOracleInfo* info) {
  // Hyperedges are enumerated once up front and shared: a cap failure here
  // is terminal (the naive oracle would hit the identical cap), and a
  // later kResourceExhausted from the quotient build can only mean the pair
  // budget, which the naive fallback does not need.
  CEXTEND_ASSIGN_OR_RETURN(
      std::shared_ptr<const Hypergraph> higher,
      BuildHigherArity(table, classes.dcs, rows,
                       options.max_hyperedge_candidates, options.run_control));
  // The injected fault abandons the quotient build outright, exercising the
  // same quotient→naive rung a real pair-budget overrun takes.
  if (!CEXTEND_INJECT_FAULT("oracle.build")) {
    StatusOr<PartitionConflictOracle> quotient =
        PartitionConflictOracle::Build(table, classes, rows, options, higher);
    if (quotient.ok()) {
      if (info != nullptr) {
        info->conflict_buckets = quotient.value().num_buckets();
        info->materialized_pairs = quotient.value().num_materialized_pairs();
      }
      std::unique_ptr<PartitionOracle> oracle =
          std::make_unique<PartitionConflictOracle>(
              std::move(quotient).value());
      return oracle;
    }
    if (quotient.status().code() != StatusCode::kResourceExhausted) {
      return quotient.status();
    }
    // Pair budget exceeded: fall back to the O(n) memory brute-force oracle.
  }
  if (info != nullptr) info->naive_fallback = true;
  CEXTEND_ASSIGN_OR_RETURN(
      NaiveConflictOracle naive,
      NaiveConflictOracle::Build(table, classes.dcs, std::move(rows), options,
                                 std::move(higher)));
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
    const Table& table, const DcRowClasses& classes,
    const std::vector<uint32_t>& rows, const std::vector<int64_t>& colored_keys,
    const std::vector<int64_t>& candidate_keys, RepairProbe probe,
    const ConflictOracleOptions& options) {
  const std::vector<BoundDenialConstraint>& dcs = classes.dcs;
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
        BuildPartitionOracle(table, classes, rows, options, &out.build);
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
