#include "graph/list_coloring.h"

#include <algorithm>
#include <span>
#include <utility>

#include "util/logging.h"

namespace cextend {
namespace {

constexpr size_t kNotFound = static_cast<size_t>(-1);

constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

/// The quotient path keeps one ⌈C/64⌉-word forbidden row per group and per
/// bucket; it is taken while those rows fit in this many words per vertex,
/// so its memory stays O(n) like the per-vertex path's.
constexpr size_t kRowWordsPerVertex = 2;

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
  // determinism. An LSD radix sort on (max degree - degree), one byte per
  // pass: each pass is stable, so ties keep index order.
  std::vector<int64_t> degree(n);
  std::vector<int> order;
  order.reserve(n);
  int64_t max_degree = 0;
  for (size_t v = 0; v < n; ++v) {
    if (result.colors[v] != kNoColor) continue;
    degree[v] = oracle.Degree(v);
    max_degree = std::max(max_degree, degree[v]);
    order.push_back(static_cast<int>(v));
  }
  std::vector<int> sorted(order.size());
  for (int shift = 0; shift < 64 && (max_degree >> shift) != 0; shift += 8) {
    size_t count[257] = {};
    auto digit = [&](int v) {
      return static_cast<size_t>(
          ((max_degree - degree[static_cast<size_t>(v)]) >> shift) & 255);
    };
    for (int v : order) ++count[digit(v) + 1];
    for (size_t d = 0; d < 256; ++d) count[d + 1] += count[d];
    for (int v : order) sorted[count[digit(v)]++] = v;
    order.swap(sorted);
  }

  const size_t num_candidates = candidates.size();
  CandidateIndex cidx(candidates);
  // Per-vertex forbidden candidates are epoch-stamped instead of rebuilding
  // a hash set, so one coloring step costs O(|forbidden| +
  // scan-to-first-free) with zero allocations on the hot path.
  std::vector<uint32_t> forbidden_mark(num_candidates, 0);
  uint32_t epoch = 0;
  // Marks the colors in `colors` that are candidates as forbidden for the
  // current epoch; other colors (e.g. assigned by an earlier pass over a
  // different list) cannot be chosen anyway.
  auto mark_colors = [&](const std::vector<int64_t>& colors) {
    for (int64_t c : colors) {
      size_t slot = cidx.Lookup(c);
      if (slot != kNotFound) forbidden_mark[slot] = epoch;
    }
  };
  // Colors v with the first candidate at or after `from` that `forbidden`
  // does not reject (or skips v), and returns the chosen slot.
  auto assign = [&](int v, size_t from, auto forbidden) {
    for (size_t i = from; i < num_candidates; ++i) {
      size_t slot = cidx.rep(i);
      if (!forbidden(slot)) {
        result.colors[static_cast<size_t>(v)] = candidates[i];
        return slot;
      }
    }
    result.skipped.push_back(v);
    return kNotFound;
  };
  auto marked = [&](size_t slot) { return forbidden_mark[slot] == epoch; };

  const ConflictStructure layers = oracle.Structure();
  const QuotientGraph* q = layers.quotient;
  CEXTEND_CHECK(q == nullptr || q->num_vertices() == n);
  if (q == nullptr) {
    // Generic reference path: one oracle query per vertex.
    std::vector<int64_t> forbidden_list;
    for (int v : order) {
      forbidden_list.clear();
      oracle.AppendForbiddenColors(static_cast<size_t>(v), result.colors,
                                   &forbidden_list);
      ++epoch;
      mark_colors(forbidden_list);
      assign(v, 0, marked);
    }
    return result;
  }

  // Marks v's hyperedge-forbidden colors in the current epoch (per-vertex
  // marks, never shared state); false when v is in no hyperedge.
  std::vector<int64_t> hyper_forbidden;
  auto mark_hyperedges = [&](size_t v) {
    if (layers.higher == nullptr || layers.higher->incident_edges(v).empty()) {
      return false;
    }
    hyper_forbidden.clear();
    layers.higher->AppendForbiddenColors(v, result.colors, &hyper_forbidden);
    mark_colors(hyper_forbidden);
    return true;
  };
  // Every uncolored vertex of a bucket sees the same forbidden set — the
  // slots held by colored vertices of adjacent groups and buckets — and
  // that set only grows. So each group and each bucket keeps a bitset row
  // over candidate slots, an assignment sets one bit in each adjacent
  // class's row, and a bucket's cursor over the candidate list only ever
  // moves past candidates its two rows forbid.
  //
  // CSR rung: when the rows of both levels would outgrow O(n) words (many
  // buckets and a long candidate list), buckets keep no rows; each vertex
  // streams the colored members of its adjacent buckets through a
  // per-vertex slot cache instead, as a per-vertex CSR graph would. Group
  // rows, and a cursor per group, stay unless they alone are too large.
  const size_t num_groups = q->groups().size();
  const size_t num_buckets = q->buckets().size();
  const size_t words = (num_candidates + 63) / 64;
  const size_t row_budget = kRowWordsPerVertex * n;
  const bool group_rows = num_groups * words <= row_budget;
  const bool bucket_rows =
      group_rows && (num_groups + num_buckets) * words <= row_budget;
  result.csr_rung = !bucket_rows;
  std::vector<uint64_t> rows(
      ((group_rows ? num_groups : 0) + (bucket_rows ? num_buckets : 0)) *
          words,
      0);
  const std::vector<uint64_t> no_row(words, 0);
  // Shared cursors: per bucket with bucket rows, else per group (a lower
  // bound for every member, whose forbidden set contains its group row).
  std::vector<size_t> cursor(
      bucket_rows ? num_buckets : (group_rows ? num_groups : 0), 0);
  std::vector<uint32_t> slot_of(bucket_rows ? 0 : n, kNoSlot);
  auto record = [&](size_t v, size_t slot) {
    const size_t word = slot >> 6;
    const uint64_t bit = uint64_t{1} << (slot & 63);
    const uint32_t b = q->bucket_of(v);
    if (group_rows) {
      q->groups().ForEachAdjacent(q->group_of_bucket(b), [&](uint32_t g) {
        rows[g * words + word] |= bit;
      });
    }
    if (bucket_rows) {
      q->buckets().ForEachAdjacent(b, [&](uint32_t c) {
        rows[(num_groups + c) * words + word] |= bit;
      });
    } else {
      slot_of[v] = static_cast<uint32_t>(slot);
    }
  };
  auto mark_run = [&](std::span<const uint32_t> run) {
    for (uint32_t u : run) {
      if (slot_of[u] != kNoSlot) forbidden_mark[slot_of[u]] = epoch;
    }
  };
  for (size_t v = 0; v < n; ++v) {
    if (result.colors[v] == kNoColor) continue;
    size_t slot = cidx.Lookup(result.colors[v]);
    if (slot != kNotFound) record(v, slot);
  }
  for (int v : order) {
    size_t vv = static_cast<size_t>(v);
    const uint32_t b = q->bucket_of(vv);
    const uint32_t g = q->group_of_bucket(b);
    const uint64_t* group_row =
        group_rows ? rows.data() + g * words : no_row.data();
    const uint64_t* bucket_row =
        bucket_rows ? rows.data() + (num_groups + b) * words : no_row.data();
    auto in_rows = [=](size_t slot) {
      return ((group_row[slot >> 6] | bucket_row[slot >> 6]) >> (slot & 63)) &
             1;
    };
    ++epoch;
    bool marks = mark_hyperedges(vv);
    size_t from = 0;
    if (group_rows) {
      size_t& shared = cursor[bucket_rows ? b : g];
      while (shared < num_candidates && in_rows(cidx.rep(shared))) ++shared;
      from = shared;
    }
    if (!bucket_rows) {
      marks = true;
      if (!group_rows) {
        q->groups().ForEachAdjacent(
            g, [&](uint32_t h) { mark_run(q->GroupMembers(h)); });
      }
      q->buckets().ForEachAdjacent(
          b, [&](uint32_t c) { mark_run(q->BucketMembers(c)); });
    }
    size_t slot = marks ? assign(v, from,
                                 [&](size_t s) {
                                   return in_rows(s) || marked(s);
                                 })
                        : assign(v, from, in_rows);
    if (slot != kNotFound) record(vv, slot);
  }
  return result;
}

}  // namespace cextend
