#include "graph/list_coloring.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace cextend {
namespace {

constexpr size_t kNotFound = static_cast<size_t>(-1);

/// Adversarial implicit families can mint many signature groups; past this
/// the O(G) per-assignment update would dominate, so the coloring falls
/// back to the generic path (identical results, original complexity).
constexpr size_t kMaxIndexedGroups = 256;

/// Candidate values -> dense mark slots via one sorted flat array (cache
/// friendly; no hash table on the hot path). Duplicate values share the
/// slot of their first occurrence, so "first non-forbidden candidate" is
/// preserved exactly.
class CandidateIndex {
 public:
  explicit CandidateIndex(const std::vector<int64_t>& candidates)
      : rep_(candidates.size()) {
    std::vector<std::pair<int64_t, size_t>> sorted(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      sorted[i] = {candidates[i], i};
    }
    std::sort(sorted.begin(), sorted.end());
    values_.reserve(sorted.size());
    slots_.reserve(sorted.size());
    for (size_t i = 0; i < sorted.size();) {
      size_t j = i;
      while (j < sorted.size() && sorted[j].first == sorted[i].first) ++j;
      // Ties sort by original index, so sorted[i].second is the first
      // occurrence — the shared representative slot.
      values_.push_back(sorted[i].first);
      slots_.push_back(sorted[i].second);
      for (size_t k = i; k < j; ++k) rep_[sorted[k].second] = sorted[i].second;
      i = j;
    }
  }

  /// Mark slot for color `c`, or kNotFound when c is not a candidate.
  size_t Lookup(int64_t c) const {
    size_t lo =
        static_cast<size_t>(std::lower_bound(values_.begin(), values_.end(), c) -
                            values_.begin());
    return lo < values_.size() && values_[lo] == c ? slots_[lo] : kNotFound;
  }

  /// Shared slot of candidates[i].
  size_t rep(size_t i) const { return rep_[i]; }

 private:
  std::vector<int64_t> values_;  // sorted unique candidate values
  std::vector<size_t> slots_;    // representative slot per unique value
  std::vector<size_t> rep_;      // per original candidate index
};

}  // namespace

ListColoringResult GreedyListColoring(const ConflictOracle& oracle,
                                      std::vector<int64_t> initial,
                                      const std::vector<int64_t>& candidates) {
  size_t n = oracle.NumVertices();
  ListColoringResult result;
  if (initial.empty()) {
    result.colors.assign(n, kNoColor);
  } else {
    CEXTEND_CHECK(initial.size() == n);
    result.colors = std::move(initial);
  }

  // l <- uncolored vertices, non-increasing degree; ties by index for
  // determinism.
  std::vector<int> order;
  order.reserve(n);
  for (size_t v = 0; v < n; ++v) {
    if (result.colors[v] == kNoColor) order.push_back(static_cast<int>(v));
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return oracle.Degree(static_cast<size_t>(a)) >
           oracle.Degree(static_cast<size_t>(b));
  });

  const size_t num_candidates = candidates.size();
  CandidateIndex cidx(candidates);
  // Per-vertex forbidden candidates are epoch-stamped instead of rebuilding
  // a hash set, so one coloring step costs O(|forbidden| +
  // scan-to-first-free) with zero allocations on the hot path.
  std::vector<uint32_t> forbidden_mark(num_candidates, 0);
  uint32_t epoch = 0;

  ConflictStructure layers = oracle.Structure();
  const ImplicitBicliqueFamily* implicit = layers.implicit;
  if (implicit != nullptr && implicit->num_bicliques() == 0) implicit = nullptr;
  size_t num_groups = implicit == nullptr ? 0 : implicit->num_groups();
  bool fast = layers.Decomposed() && num_groups <= kMaxIndexedGroups;

  if (!fast) {
    // Generic reference path: one oracle query per vertex.
    std::vector<int64_t> forbidden_list;
    for (int v : order) {
      forbidden_list.clear();
      oracle.AppendForbiddenColors(static_cast<size_t>(v), result.colors,
                                   &forbidden_list);
      ++epoch;
      for (int64_t c : forbidden_list) {
        size_t slot = cidx.Lookup(c);
        // Colors outside the candidate list (e.g. assigned by an earlier
        // pass over a different list) cannot be chosen anyway.
        if (slot != kNotFound) forbidden_mark[slot] = epoch;
      }
      int64_t chosen = kNoColor;
      for (size_t i = 0; i < num_candidates; ++i) {
        if (forbidden_mark[cidx.rep(i)] != epoch) {
          chosen = candidates[i];
          break;
        }
      }
      if (chosen == kNoColor) {
        result.skipped.push_back(v);
      } else {
        result.colors[static_cast<size_t>(v)] = chosen;
      }
    }
    return result;
  }

  // Structure fast path. The implicit-biclique layer is served by an
  // incremental index: group_count[g * C + slot] counts colored vertices
  // inside group g's neighborhood holding candidate `slot`. Queries read one
  // contiguous C-entry row; assignments update each adjacent group via a
  // pure-register signature test (no neighborhood bitset is ever read).
  std::vector<uint32_t> group_count(num_groups * num_candidates, 0);
  std::vector<uint64_t> group_sig(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    group_sig[g] = implicit->group_signature(static_cast<uint32_t>(g));
  }
  auto record_assignment = [&](size_t v, size_t slot) {
    if (implicit == nullptr) return;
    uint64_t sv = implicit->signature_of(v);
    if (sv == 0) return;  // in no biclique -> in no group's neighborhood
    for (size_t g = 0; g < num_groups; ++g) {
      if (ImplicitBicliqueFamily::SignatureAdjacent(group_sig[g], sv)) {
        ++group_count[g * num_candidates + slot];
      }
    }
  };
  // Per-vertex candidate slot of the vertex's color (kNoSlot when uncolored
  // or colored outside the list — such colors can never be chosen, so they
  // never need marking). Lets the CSR stream mark one slot per neighbor with
  // a single load instead of a color lookup.
  constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
  std::vector<uint32_t> slot_of(n, kNoSlot);
  // Seed the index with colors carried in via `initial`.
  for (size_t v = 0; v < n; ++v) {
    if (result.colors[v] == kNoColor) continue;
    size_t slot = cidx.Lookup(result.colors[v]);
    if (slot != kNotFound) {
      slot_of[v] = static_cast<uint32_t>(slot);
      record_assignment(v, slot);
    }
  }

  std::vector<int64_t> hyper_forbidden;
  for (int v : order) {
    size_t vv = static_cast<size_t>(v);
    ++epoch;
    if (implicit != nullptr) {
      uint32_t g = implicit->group_of(vv);
      if (g != ImplicitBicliqueFamily::kNoGroup) {
        const uint32_t* row = group_count.data() + g * num_candidates;
        for (size_t slot = 0; slot < num_candidates; ++slot) {
          if (row[slot] != 0) forbidden_mark[slot] = epoch;
        }
      }
    }
    if (layers.csr != nullptr) {
      for (const uint32_t* p = layers.csr->NeighborsBegin(vv),
                         *end = layers.csr->NeighborsEnd(vv);
           p != end; ++p) {
        uint32_t slot = slot_of[*p];
        if (slot != kNoSlot) forbidden_mark[slot] = epoch;
      }
    }
    if (layers.higher != nullptr) {
      hyper_forbidden.clear();
      layers.higher->AppendForbiddenColors(vv, result.colors, &hyper_forbidden);
      for (int64_t c : hyper_forbidden) {
        size_t slot = cidx.Lookup(c);
        if (slot != kNotFound) forbidden_mark[slot] = epoch;
      }
    }
    int64_t chosen = kNoColor;
    size_t chosen_slot = kNotFound;
    for (size_t i = 0; i < num_candidates; ++i) {
      size_t slot = cidx.rep(i);
      if (forbidden_mark[slot] != epoch) {
        chosen = candidates[i];
        chosen_slot = slot;
        break;
      }
    }
    if (chosen == kNoColor) {
      result.skipped.push_back(v);
    } else {
      result.colors[vv] = chosen;
      slot_of[vv] = static_cast<uint32_t>(chosen_slot);
      record_assignment(vv, chosen_slot);
    }
  }
  return result;
}

}  // namespace cextend
