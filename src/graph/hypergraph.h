// Conflict hypergraphs (Definition 5.1) and the abstract conflict oracle
// interface consumed by the greedy list-coloring algorithm.
//
// The paper materializes every hyperedge (NetworkX). Owner-owner style DCs
// make partitions near-cliques with Θ(n²) edges, so this layer also provides
// an implicit biclique representation (membership bitsets, no per-edge
// storage) that composes with the CSR graph under union simple-graph
// semantics; all conflict structures implement `ConflictOracle` and the
// coloring semantics are identical regardless of representation.

#ifndef CEXTEND_GRAPH_HYPERGRAPH_H_
#define CEXTEND_GRAPH_HYPERGRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cextend {

class AdjacencyGraph;
class ImplicitBicliqueFamily;
class Hypergraph;

/// Optional decomposition of a conflict oracle into its three layers. When
/// an oracle publishes this (all-null members mean "opaque"), its forbidden
/// rule is guaranteed to be exactly the union of: colors of colored CSR
/// neighbors, colors of colored implicit-biclique neighbors, and the
/// hypergraph all-other-vertices-same-color rule. The greedy coloring uses
/// the decomposition to run an incremental word-wise fast path instead of
/// calling AppendForbiddenColors per vertex; results are identical.
struct ConflictStructure {
  const AdjacencyGraph* csr = nullptr;
  const ImplicitBicliqueFamily* implicit = nullptr;
  const Hypergraph* higher = nullptr;

  bool Decomposed() const {
    return csr != nullptr || implicit != nullptr || higher != nullptr;
  }
};

/// Interface the list-coloring algorithm needs from a conflict structure.
class ConflictOracle {
 public:
  virtual ~ConflictOracle() = default;

  virtual size_t NumVertices() const = 0;

  /// Number of hyperedges incident to `v` (ties the coloring order).
  virtual int64_t Degree(size_t v) const = 0;

  /// Appends to `out` every color `c` such that some edge containing `v` has
  /// all of its *other* vertices colored `c` (the paper's forbidden rule).
  /// `colors[u] == kNoColor` means u is uncolored. May append duplicates.
  virtual void AppendForbiddenColors(size_t v,
                                     const std::vector<int64_t>& colors,
                                     std::vector<int64_t>* out) const = 0;

  /// Layer decomposition for the coloring fast path; default is opaque
  /// (all-null), which forces the generic AppendForbiddenColors path.
  virtual ConflictStructure Structure() const { return {}; }
};

/// Compressed-sparse-row simple graph over vertices 0..n-1, built once from
/// an unsorted multiset of pair edges. Duplicate pairs (e.g. the same pair
/// conflicting under several DCs, or both orientations of one DC) collapse
/// to a single edge, so degrees and edge counts are simple-graph semantics.
/// Neighbor lists are sorted, enabling O(log deg) membership tests.
class AdjacencyGraph {
 public:
  AdjacencyGraph() = default;

  /// `packed_pairs` holds edges encoded as (u << 32) | v with u < v < n
  /// (n < 2^32), in any order and with repeats. The vector is consumed: its
  /// buffer is freed before the neighbor array is allocated, so the
  /// transient peak is 16 bytes per input pair plus O(n). Built in O(n + P)
  /// by two counting scatters (arcs bucketed by neighbor, then by row), so
  /// each row's run comes out sorted with no comparisons; a repeated pair
  /// lands next to its first copy and is dropped, and the runs are
  /// compacted in place. Every run ends up sorted and deduplicated.
  static AdjacencyGraph FromPackedPairs(size_t n,
                                        std::vector<uint64_t>&& packed_pairs);

  size_t num_vertices() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  size_t num_edges() const { return neighbors_.size() / 2; }

  int64_t Degree(size_t v) const {
    return static_cast<int64_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted neighbor run of `v` as [begin, end) into a contiguous array.
  const uint32_t* NeighborsBegin(size_t v) const {
    return neighbors_.data() + offsets_[v];
  }
  const uint32_t* NeighborsEnd(size_t v) const {
    return neighbors_.data() + offsets_[v + 1];
  }

  /// O(log deg(u)) membership test.
  bool HasEdge(size_t u, size_t v) const;

 private:
  std::vector<size_t> offsets_;     // n + 1 entries
  std::vector<uint32_t> neighbors_; // 2 * num_edges entries, sorted per row
};

/// A family of implicit bicliques over vertices 0..n-1. Biclique i is given
/// by two membership bitsets (side 0 / side 1) and contributes every
/// unordered pair {u, v}, u != v, with u on one side and v on the other
/// (symmetric closure; side0 == side1 yields a clique). No per-edge storage:
/// a clique-style conflict set costs O(n) bits instead of Θ(n²) pairs.
///
/// Degrees and edge counts follow union-simple-graph semantics: vertices are
/// grouped by their membership signature (vertices with identical signatures
/// share one implicit neighborhood), one union-neighborhood bitset is built
/// per distinct signature, and `UnionDegrees` composes the family with a CSR
/// AdjacencyGraph so overlapping edges (several bicliques, or a biclique and
/// a materialized pair) count once — exactly what a deduplicated pair list
/// would produce.
class ImplicitBicliqueFamily {
 public:
  /// At most this many bicliques per family (signatures pack two bits per
  /// biclique into a uint64_t); callers route further conflict sets through
  /// an explicit representation.
  static constexpr size_t kMaxBicliques = 32;

  /// group_of() value for vertices in no biclique.
  static constexpr uint32_t kNoGroup = 0xFFFFFFFFu;

  ImplicitBicliqueFamily() = default;
  explicit ImplicitBicliqueFamily(size_t num_vertices);

  /// Adds a biclique from n-length 0/1 membership masks. Must be called
  /// before Finalize; requires num_bicliques() < kMaxBicliques.
  void AddBiclique(const std::vector<uint8_t>& side0,
                   const std::vector<uint8_t>& side1);

  /// As AddBiclique but from already-packed word bitsets ((n + 63) / 64
  /// words each) — the builder's hot path packs membership bits directly
  /// instead of round-tripping through byte masks.
  void AddBicliqueWords(std::vector<uint64_t> side0,
                        std::vector<uint64_t> side1);

  /// Builds the signature groups and union-neighborhood bitsets. Queries and
  /// UnionDegrees require a finalized family; AddBiclique is rejected after.
  void Finalize();

  size_t num_bicliques() const { return bicliques_.size(); }
  bool empty() const { return bicliques_.empty(); }

  /// O(1): true when some biclique covers the unordered pair {u, v}.
  bool PairConflicts(size_t u, size_t v) const;

  /// Number of implicit neighbors of `v` (union over bicliques, v excluded).
  int64_t Degree(size_t v) const;

  /// Appends colors[u] for every colored implicit neighbor u of `v`
  /// (duplicates allowed, matching ConflictOracle::AppendForbiddenColors).
  void AppendForbiddenColors(size_t v, const std::vector<int64_t>& colors,
                             std::vector<int64_t>* out) const;

  /// Exact union-graph degrees composed with `csr`:
  /// degrees[v] = |N_csr(v) ∪ N_implicit(v)|. Returns the number of unique
  /// union edges. Cost: O(#signatures · K · n/64 + Σ deg_csr + n).
  size_t UnionDegrees(const AdjacencyGraph& csr,
                      std::vector<int64_t>* degrees) const;

  /// 64-bit words held by the membership and group-neighborhood bitsets
  /// (valid after Finalize). Normally O(K · n/64); adversarially overlapping
  /// bicliques can push the group count toward n, so callers should charge
  /// this against their edge-memory budget and fall back when it blows up.
  /// Group rows count at their padded (cache-line) stride — what is actually
  /// allocated.
  size_t StorageWords() const {
    return 2 * bicliques_.size() * words_ + num_groups() * padded_words_;
  }

  // ---- Flat layout accessors (valid after Finalize), consumed by the
  // coloring fast path's incremental group-color index. ----

  size_t num_groups() const { return group_popcount_.size(); }
  size_t words() const { return words_; }

  /// Dense group id of `v`, or kNoGroup when v is in no biclique. Vertices
  /// with equal membership signatures share a group (and a neighborhood).
  uint32_t group_of(size_t v) const {
    return bicliques_.empty() ? kNoGroup : group_[v];
  }

  /// Group g's union-neighborhood bitset: words() valid words, starting at
  /// a cache-line-aligned offset in one contiguous pool (rows are padded to
  /// simd::kCacheLineWords so bulk sweeps never split lines across groups).
  const uint64_t* GroupNeighborhood(uint32_t g) const {
    return group_neighborhoods_.data() + static_cast<size_t>(g) * padded_words_;
  }

  /// Membership signature of `v` (0 = in no biclique) and the shared
  /// signature of group `g`.
  uint64_t signature_of(size_t v) const {
    return bicliques_.empty() ? 0 : signature_[v];
  }
  uint64_t group_signature(uint32_t g) const { return group_signature_[g]; }

  /// True iff a vertex with signature `vertex_sig` lies in the neighborhood
  /// of a group with signature `group_sig`: some biclique has the group on
  /// one side and the vertex on the other. Pure register math — the coloring
  /// fast path uses it to update its per-group color counts without reading
  /// any neighborhood bitset.
  static bool SignatureAdjacent(uint64_t group_sig, uint64_t vertex_sig) {
    constexpr uint64_t kSide0 = 0x5555555555555555ull;  // bits 2i
    constexpr uint64_t kSide1 = 0xAAAAAAAAAAAAAAAAull;  // bits 2i+1
    return ((group_sig & (vertex_sig >> 1) & kSide0) |
            (group_sig & (vertex_sig << 1) & kSide1)) != 0;
  }

  /// Bit test on a packed bitset (e.g. a hoisted GroupNeighborhood row):
  /// callers probing one vertex against many members fetch the row once and
  /// test per member, instead of re-resolving the group per pair.
  static bool TestBit(const uint64_t* bits, size_t i) {
    return (bits[i >> 6] >> (i & 63)) & 1;
  }

 private:
  static bool TestBit(const std::vector<uint64_t>& bits, size_t i) {
    return TestBit(bits.data(), i);
  }

  struct Biclique {
    std::vector<uint64_t> side0;
    std::vector<uint64_t> side1;
  };

  size_t n_ = 0;
  size_t words_ = 0;
  size_t padded_words_ = 0;  // words_ rounded up to a cache-line multiple
  bool finalized_ = false;
  std::vector<Biclique> bicliques_;
  /// Per-vertex membership signature: bit 2i = in side 0 of biclique i,
  /// bit 2i+1 = in side 1. Signature 0 means "in no biclique".
  std::vector<uint64_t> signature_;
  /// Per-vertex dense group id (kNoGroup for signature 0); one
  /// union-neighborhood bitset (with cached popcount) per group, flattened
  /// into a single pool at padded_words_ stride.
  std::vector<uint32_t> group_;
  std::vector<uint64_t> group_neighborhoods_;
  std::vector<size_t> group_popcount_;
  std::vector<uint64_t> group_signature_;  // per-group shared signature
};

/// Explicitly stored hypergraph (vertices 0..n-1; edges of arity >= 2).
class Hypergraph : public ConflictOracle {
 public:
  explicit Hypergraph(size_t num_vertices);

  /// Adds an edge over `vertices` (arity >= 2, all in range).
  void AddEdge(std::vector<int> vertices);

  size_t num_edges() const { return edges_.size(); }
  const std::vector<int>& edge(size_t e) const { return edges_[e]; }
  const std::vector<int>& incident_edges(size_t v) const {
    return incident_[v];
  }

  // ConflictOracle:
  size_t NumVertices() const override { return incident_.size(); }
  int64_t Degree(size_t v) const override {
    return static_cast<int64_t>(incident_[v].size());
  }
  void AppendForbiddenColors(size_t v, const std::vector<int64_t>& colors,
                             std::vector<int64_t>* out) const override;

  /// A coloring is proper when every edge has >= 2 distinct colors among its
  /// vertices. Uncolored vertices (kNoColor) make an edge improper.
  bool IsProperColoring(const std::vector<int64_t>& colors) const;

 private:
  std::vector<std::vector<int>> edges_;
  std::vector<std::vector<int>> incident_;
};

}  // namespace cextend

#endif  // CEXTEND_GRAPH_HYPERGRAPH_H_
