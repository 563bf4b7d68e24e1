#include "graph/hypergraph.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"
#include "util/simd.h"

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

// ---- ImplicitBicliqueFamily. ----

namespace {
constexpr uint32_t kNoGroup = ImplicitBicliqueFamily::kNoGroup;
constexpr int64_t kUncolored = INT64_MIN;
}  // namespace

ImplicitBicliqueFamily::ImplicitBicliqueFamily(size_t num_vertices)
    : n_(num_vertices),
      words_((num_vertices + 63) / 64),
      padded_words_(simd::PadWords((num_vertices + 63) / 64)) {}

void ImplicitBicliqueFamily::AddBiclique(const std::vector<uint8_t>& side0,
                                         const std::vector<uint8_t>& side1) {
  CEXTEND_CHECK(side0.size() == n_ && side1.size() == n_);
  std::vector<uint64_t> w0(words_, 0), w1(words_, 0);
  for (size_t i = 0; i < n_; ++i) {
    if (side0[i]) w0[i >> 6] |= uint64_t{1} << (i & 63);
    if (side1[i]) w1[i >> 6] |= uint64_t{1} << (i & 63);
  }
  AddBicliqueWords(std::move(w0), std::move(w1));
}

void ImplicitBicliqueFamily::AddBicliqueWords(std::vector<uint64_t> side0,
                                              std::vector<uint64_t> side1) {
  CEXTEND_CHECK(!finalized_) << "AddBiclique after Finalize";
  CEXTEND_CHECK(bicliques_.size() < kMaxBicliques);
  CEXTEND_CHECK(side0.size() == words_ && side1.size() == words_);
  bicliques_.push_back(Biclique{std::move(side0), std::move(side1)});
}

void ImplicitBicliqueFamily::Finalize() {
  CEXTEND_CHECK(!finalized_);
  finalized_ = true;
  signature_.assign(n_, 0);
  group_.assign(n_, kNoGroup);
  if (bicliques_.empty()) return;
  // Word-driven signature build: only set bits are visited, so sparse sides
  // cost their popcount, not n, and the inner loop is branch-light.
  for (size_t i = 0; i < bicliques_.size(); ++i) {
    const Biclique& b = bicliques_[i];
    for (size_t w = 0; w < words_; ++w) {
      uint64_t bits = b.side0[w];
      while (bits != 0) {
        signature_[w * 64 + static_cast<size_t>(__builtin_ctzll(bits))] |=
            uint64_t{1} << (2 * i);
        bits &= bits - 1;
      }
      bits = b.side1[w];
      while (bits != 0) {
        signature_[w * 64 + static_cast<size_t>(__builtin_ctzll(bits))] |=
            uint64_t{1} << (2 * i + 1);
        bits &= bits - 1;
      }
    }
  }
  // One union-neighborhood bitset per distinct signature: a vertex on side 0
  // of biclique i conflicts with all of side 1 and vice versa, so vertices
  // with equal signatures share their implicit neighborhood verbatim. Rows
  // live in one flat pool at a cache-line-padded stride (so line prefetch
  // works during sweeps and neighboring groups never share a line).
  std::unordered_map<uint64_t, uint32_t> group_of_signature;
  // Vertices with equal signatures arrive in long runs (typically one
  // signature per biclique side), so a one-entry cache turns the per-vertex
  // hash lookup into a register compare on the hot path.
  uint64_t cached_sig = 0;
  uint32_t cached_group = kNoGroup;
  for (size_t v = 0; v < n_; ++v) {
    uint64_t sig = signature_[v];
    if (sig == 0) continue;
    if (sig == cached_sig) {
      group_[v] = cached_group;
      continue;
    }
    auto [it, inserted] = group_of_signature.emplace(
        sig, static_cast<uint32_t>(group_popcount_.size()));
    if (inserted) {
      group_signature_.push_back(sig);
      group_neighborhoods_.resize(group_neighborhoods_.size() + padded_words_,
                                  0);
      uint64_t* hood =
          group_neighborhoods_.data() + group_neighborhoods_.size() -
          padded_words_;
      for (size_t i = 0; i < bicliques_.size(); ++i) {
        if (sig & (uint64_t{1} << (2 * i))) {
          simd::OrInto(hood, bicliques_[i].side1.data(), words_);
        }
        if (sig & (uint64_t{1} << (2 * i + 1))) {
          simd::OrInto(hood, bicliques_[i].side0.data(), words_);
        }
      }
      group_popcount_.push_back(simd::Popcount(hood, words_));
    }
    group_[v] = it->second;
    cached_sig = sig;
    cached_group = it->second;
  }
}

bool ImplicitBicliqueFamily::PairConflicts(size_t u, size_t v) const {
  CEXTEND_DCHECK(finalized_);
  if (u == v || bicliques_.empty()) return false;
  uint32_t g = group_[u];
  if (g == kNoGroup) return false;
  return TestBit(GroupNeighborhood(g), v);
}

int64_t ImplicitBicliqueFamily::Degree(size_t v) const {
  CEXTEND_DCHECK(finalized_);
  if (bicliques_.empty()) return 0;
  uint32_t g = group_[v];
  if (g == kNoGroup) return 0;
  return static_cast<int64_t>(group_popcount_[g]) -
         (TestBit(GroupNeighborhood(g), v) ? 1 : 0);
}

void ImplicitBicliqueFamily::AppendForbiddenColors(
    size_t v, const std::vector<int64_t>& colors,
    std::vector<int64_t>* out) const {
  CEXTEND_DCHECK(finalized_);
  if (bicliques_.empty()) return;
  uint32_t g = group_[v];
  if (g == kNoGroup) return;
  const uint64_t* hood = GroupNeighborhood(g);
  for (size_t w = 0; w < words_; ++w) {
    uint64_t bits = hood[w];
    while (bits != 0) {
      size_t u = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      if (u == v) continue;
      int64_t c = colors[u];
      if (c != kUncolored) out->push_back(c);
    }
  }
}

size_t ImplicitBicliqueFamily::UnionDegrees(const AdjacencyGraph& csr,
                                            std::vector<int64_t>* degrees) const {
  CEXTEND_DCHECK(finalized_);
  degrees->assign(n_, 0);
  size_t degree_sum = 0;
  const bool no_csr = csr.num_edges() == 0;
  for (size_t v = 0; v < n_; ++v) {
    uint32_t g = bicliques_.empty() ? kNoGroup : group_[v];
    size_t deg;
    if (g == kNoGroup) {
      deg = static_cast<size_t>(csr.Degree(v));
    } else {
      const uint64_t* hood = GroupNeighborhood(g);
      deg = group_popcount_[g] - (TestBit(hood, v) ? 1 : 0);
      if (!no_csr) {
        // CSR neighbors already covered by the implicit neighborhood would
        // be double-counted; membership is an O(1) bit test.
        for (const uint32_t* p = csr.NeighborsBegin(v),
                           *end = csr.NeighborsEnd(v);
             p != end; ++p) {
          if (!TestBit(hood, *p)) ++deg;
        }
      }
    }
    (*degrees)[v] = static_cast<int64_t>(deg);
    degree_sum += deg;
  }
  return degree_sum / 2;
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

bool Hypergraph::IsProperColoring(const std::vector<int64_t>& colors) const {
  constexpr int64_t kNoColor = INT64_MIN;
  for (const std::vector<int>& edge : edges_) {
    bool distinct = false;
    int64_t first = colors[static_cast<size_t>(edge[0])];
    if (first == kNoColor) return false;
    for (size_t i = 1; i < edge.size(); ++i) {
      int64_t c = colors[static_cast<size_t>(edge[i])];
      if (c == kNoColor) return false;  // uncolored vertices break the edge
      if (c != first) distinct = true;
    }
    if (!distinct) return false;
  }
  return true;
}

}  // namespace cextend
