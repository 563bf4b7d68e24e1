#include "graph/hypergraph.h"

#include <algorithm>

#include "util/logging.h"

namespace cextend {

AdjacencyGraph AdjacencyGraph::FromPackedPairs(
    size_t n, std::vector<uint64_t>&& packed_pairs) {
  AdjacencyGraph g;
  g.offsets_.assign(n + 1, 0);
  for (uint64_t p : packed_pairs) {
    size_t u = static_cast<size_t>(p >> 32);
    size_t v = static_cast<size_t>(p & 0xFFFFFFFFULL);
    CEXTEND_DCHECK(u < v && v < n);
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (size_t i = 1; i <= n; ++i) g.offsets_[i] += g.offsets_[i - 1];

  // Pass 1: bucket every arc (row -> x) by its neighbor x, storing the row.
  std::vector<size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  std::vector<uint32_t> rows_by_neighbor(packed_pairs.size() * 2);
  for (uint64_t p : packed_pairs) {
    uint32_t u = static_cast<uint32_t>(p >> 32);
    uint32_t v = static_cast<uint32_t>(p);
    rows_by_neighbor[cursor[v]++] = u;
    rows_by_neighbor[cursor[u]++] = v;
  }
  std::vector<uint64_t>().swap(packed_pairs);

  // Pass 2: walk the buckets in ascending x and append x to each of its
  // rows. A stable counting sort, so every neighbor run comes out sorted and
  // a repeated pair (several DCs, or both orientations of one DC) arrives
  // right after its first copy: `last` drops it before it is written.
  struct RowCursor {
    size_t next;
    uint32_t last;
  };
  std::vector<RowCursor> rows(n);
  for (size_t r = 0; r < n; ++r) rows[r] = {g.offsets_[r], UINT32_MAX};
  g.neighbors_.resize(rows_by_neighbor.size());
  size_t repeats = 0;
  for (size_t x = 0; x < n; ++x) {
    for (size_t i = g.offsets_[x]; i < g.offsets_[x + 1]; ++i) {
      RowCursor& row = rows[rows_by_neighbor[i]];
      if (row.last == x) {
        ++repeats;
        continue;
      }
      row.last = static_cast<uint32_t>(x);
      g.neighbors_[row.next++] = static_cast<uint32_t>(x);
    }
  }
  std::vector<uint32_t>().swap(rows_by_neighbor);
  if (repeats == 0) return g;

  // Close the gaps the dropped repeats left at the end of each run.
  uint32_t* nb = g.neighbors_.data();
  size_t out = 0;
  for (size_t r = 0; r < n; ++r) {
    size_t begin = g.offsets_[r];
    g.offsets_[r] = out;
    out = static_cast<size_t>(
        std::copy(nb + begin, nb + rows[r].next, nb + out) - nb);
  }
  g.offsets_[n] = out;
  g.neighbors_.resize(out);
  g.neighbors_.shrink_to_fit();
  return g;
}

bool AdjacencyGraph::HasEdge(size_t u, size_t v) const {
  return std::binary_search(NeighborsBegin(u), NeighborsEnd(u),
                            static_cast<uint32_t>(v));
}

// ---- QuotientGraph. ----

QuotientGraph::QuotientGraph(Parts parts)
    : bucket_of_(std::move(parts.bucket_of)),
      group_of_(std::move(parts.group_of)) {
  const size_t num_buckets = group_of_.size();
  const size_t num_groups = parts.group_self.size();
  CEXTEND_CHECK(parts.bucket_self.size() == num_buckets);
  groups_.adjacency =
      AdjacencyGraph::FromPackedPairs(num_groups, std::move(parts.group_pairs));
  groups_.self = std::move(parts.group_self);
  // Keep the levels disjoint: bucket edges their groups already cover go.
  std::vector<uint64_t>& pairs = parts.bucket_pairs;
  pairs.erase(std::remove_if(pairs.begin(), pairs.end(),
                             [&](uint64_t p) {
                               return groups_.HasEdge(
                                   group_of_[p >> 32],
                                   group_of_[p & 0xFFFFFFFFULL]);
                             }),
              pairs.end());
  for (size_t b = 0; b < num_buckets; ++b) {
    if (groups_.self[group_of_[b]] != 0) parts.bucket_self[b] = 0;
  }
  buckets_.adjacency =
      AdjacencyGraph::FromPackedPairs(num_buckets, std::move(pairs));
  buckets_.self = std::move(parts.bucket_self);

  // Members by (group, bucket, id): bucket runs are laid out group by
  // group, then one ascending scatter of the vertices fills them.
  std::vector<uint32_t> bucket_size(num_buckets, 0);
  for (uint32_t b : bucket_of_) {
    CEXTEND_DCHECK(b < num_buckets);
    ++bucket_size[b];
  }
  group_begin_.assign(num_groups + 1, 0);
  for (size_t b = 0; b < num_buckets; ++b) {
    group_begin_[group_of_[b] + 1] += bucket_size[b];
  }
  for (size_t g = 0; g < num_groups; ++g) {
    group_begin_[g + 1] += group_begin_[g];
  }
  std::vector<uint32_t> group_cursor(group_begin_.begin(),
                                     group_begin_.end() - 1);
  bucket_begin_.resize(num_buckets);
  bucket_end_.resize(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    uint32_t& cursor = group_cursor[group_of_[b]];
    bucket_begin_[b] = cursor;
    cursor += bucket_size[b];
    bucket_end_[b] = bucket_begin_[b];
  }
  members_.resize(bucket_of_.size());
  for (size_t v = 0; v < bucket_of_.size(); ++v) {
    members_[bucket_end_[bucket_of_[v]]++] = static_cast<uint32_t>(v);
  }

  std::vector<int64_t> group_weight(num_groups, 0);
  for (uint32_t g = 0; g < num_groups; ++g) {
    groups_.ForEachAdjacent(g, [&](uint32_t h) {
      group_weight[g] += group_begin_[h + 1] - group_begin_[h];
    });
  }
  bucket_degree_.assign(num_buckets, 0);
  size_t degree_sum = 0;
  for (uint32_t b = 0; b < num_buckets; ++b) {
    const uint32_t g = group_of_[b];
    int64_t deg = group_weight[g];
    buckets_.ForEachAdjacent(b, [&](uint32_t c) { deg += bucket_size[c]; });
    // v itself sits in its own group's or bucket's run when that class is
    // self-adjacent (never both: the levels are disjoint).
    if (groups_.self[g] != 0 || buckets_.self[b] != 0) --deg;
    bucket_degree_[b] = deg;
    degree_sum += static_cast<size_t>(deg) * bucket_size[b];
  }
  num_edges_ = degree_sum / 2;
}

bool QuotientGraph::HasEdge(size_t u, size_t v) const {
  if (u == v) return false;
  const uint32_t bu = bucket_of_[u];
  const uint32_t bv = bucket_of_[v];
  return groups_.HasEdge(group_of_[bu], group_of_[bv]) ||
         buckets_.HasEdge(bu, bv);
}

void QuotientGraph::AppendForbiddenColors(size_t v,
                                          const std::vector<int64_t>& colors,
                                          std::vector<int64_t>* out) const {
  constexpr int64_t kNoColor = INT64_MIN;
  // v's own class is adjacent only when self-adjacent; v itself is skipped.
  auto append_run = [&](std::span<const uint32_t> run) {
    for (uint32_t u : run) {
      if (u != v && colors[u] != kNoColor) out->push_back(colors[u]);
    }
  };
  const uint32_t b = bucket_of_[v];
  groups_.ForEachAdjacent(group_of_[b],
                          [&](uint32_t g) { append_run(GroupMembers(g)); });
  buckets_.ForEachAdjacent(b,
                           [&](uint32_t c) { append_run(BucketMembers(c)); });
}

Hypergraph::Hypergraph(size_t num_vertices) : incident_(num_vertices) {}

void Hypergraph::AddEdge(std::vector<int> vertices) {
  CEXTEND_CHECK(vertices.size() >= 2) << "hyperedge arity must be >= 2";
  for (int v : vertices) {
    CEXTEND_CHECK(v >= 0 && static_cast<size_t>(v) < incident_.size())
        << "vertex out of range: " << v;
  }
  int edge_id = static_cast<int>(edges_.size());
  for (int v : vertices) incident_[static_cast<size_t>(v)].push_back(edge_id);
  edges_.push_back(std::move(vertices));
}

void Hypergraph::AppendForbiddenColors(size_t v,
                                       const std::vector<int64_t>& colors,
                                       std::vector<int64_t>* out) const {
  constexpr int64_t kNoColor = INT64_MIN;
  for (int e : incident_[v]) {
    const std::vector<int>& edge = edges_[static_cast<size_t>(e)];
    int64_t common = kNoColor;
    bool all_same = true;
    for (int u : edge) {
      if (static_cast<size_t>(u) == v) continue;
      int64_t cu = colors[static_cast<size_t>(u)];
      if (cu == kNoColor) {
        all_same = false;
        break;
      }
      if (common == kNoColor) {
        common = cu;
      } else if (common != cu) {
        all_same = false;
        break;
      }
    }
    if (all_same && common != kNoColor) out->push_back(common);
  }
}

}  // namespace cextend
