// Conflict hypergraphs (Definition 5.1) and the abstract conflict oracle
// interface consumed by the greedy list-coloring algorithm.
//
// The paper materializes every hyperedge (NetworkX). Owner-owner style DCs
// make partitions near-cliques with Θ(n²) edges, and the census age-gap DCs
// pair every owner with a band of members. A binary DC's truth on a row pair
// depends only on the codes it reads, so this layer stores pairwise
// conflicts as a quotient graph over classes of vertices with identical
// neighborhoods (QuotientGraph): a clique is one self-adjacent class, and
// no per-pair storage is needed. All conflict structures implement
// `ConflictOracle`, and the coloring is identical regardless of
// representation.

#ifndef CEXTEND_GRAPH_HYPERGRAPH_H_
#define CEXTEND_GRAPH_HYPERGRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cextend {

class Hypergraph;
class QuotientGraph;

/// Optional decomposition of a conflict oracle into its two layers. When an
/// oracle publishes a quotient, its forbidden rule is guaranteed to be
/// exactly the union of: colors of colored quotient neighbors, and the
/// hypergraph all-other-vertices-same-color rule. The greedy coloring uses
/// the decomposition to keep one forbidden set per class instead of
/// calling AppendForbiddenColors per vertex; results are identical.
struct ConflictStructure {
  const QuotientGraph* quotient = nullptr;
  const Hypergraph* higher = nullptr;

  bool Decomposed() const { return quotient != nullptr; }
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
  /// (no quotient), which forces the generic AppendForbiddenColors path.
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

/// A simple conflict graph stored as a two-level quotient. Vertices fall
/// into buckets, and buckets into groups; the members of one bucket have
/// identical neighborhoods apart from themselves. Edges are stored between
/// classes only, at two levels:
///
///  * group level: two distinct vertices conflict when their groups are
///    adjacent, or when they share a self-adjacent group (a clique, such as
///    the owner-owner DC's). DCs without cross atoms live here: their truth
///    depends on side membership alone.
///  * bucket level: the same rule over buckets, for the remaining edges.
///
/// The levels are kept disjoint (a bucket pair already covered by its
/// groups is dropped), so degrees add up. Degrees and edge counts follow
/// simple-graph semantics: a vertex's degree is the summed size of its
/// adjacent groups and buckets, minus one for itself when its own group or
/// bucket is self-adjacent. A quotient whose buckets each hold one vertex is
/// a per-vertex CSR graph. Storage is O(n + B + class pairs).
class QuotientGraph {
 public:
  /// One level of classes: adjacency among distinct classes (sorted runs)
  /// and per-class self-adjacency.
  struct Level {
    AdjacencyGraph adjacency;
    std::vector<uint8_t> self;

    size_t size() const { return self.size(); }
    bool HasEdge(uint32_t a, uint32_t b) const {
      return a == b ? self[a] != 0 : adjacency.HasEdge(a, b);
    }
    /// Calls fn(d) for every class d adjacent to class c: c itself when it
    /// is self-adjacent, then c's neighbor run.
    template <typename Fn>
    void ForEachAdjacent(uint32_t c, Fn fn) const {
      if (self[c] != 0) fn(c);
      for (const uint32_t* p = adjacency.NeighborsBegin(c),
                         *end = adjacency.NeighborsEnd(c);
           p != end; ++p) {
        fn(*p);
      }
    }
  };

  /// Construction input. Pairs are packed as AdjacencyGraph::FromPackedPairs
  /// takes them (a < b, any order, repeats allowed); a nonzero self flag
  /// makes the members of that class conflict with each other.
  struct Parts {
    std::vector<uint32_t> bucket_of;  ///< per vertex, < number of buckets
    std::vector<uint32_t> group_of;   ///< per bucket, < number of groups
    std::vector<uint64_t> group_pairs;
    std::vector<uint8_t> group_self;  ///< per group
    std::vector<uint64_t> bucket_pairs;
    std::vector<uint8_t> bucket_self;  ///< per bucket
  };

  QuotientGraph() = default;
  explicit QuotientGraph(Parts parts);

  size_t num_vertices() const { return bucket_of_.size(); }
  size_t num_edges() const { return num_edges_; }
  const Level& groups() const { return groups_; }
  const Level& buckets() const { return buckets_; }

  uint32_t bucket_of(size_t v) const { return bucket_of_[v]; }
  uint32_t group_of_bucket(uint32_t b) const { return group_of_[b]; }

  /// Members of bucket b / group g, ascending within a bucket. A group's
  /// members are its buckets' runs, back to back.
  std::span<const uint32_t> BucketMembers(uint32_t b) const {
    return {members_.data() + bucket_begin_[b],
            bucket_end_[b] - bucket_begin_[b]};
  }
  std::span<const uint32_t> GroupMembers(uint32_t g) const {
    return {members_.data() + group_begin_[g],
            group_begin_[g + 1] - group_begin_[g]};
  }

  int64_t Degree(size_t v) const { return bucket_degree_[bucket_of_[v]]; }

  /// O(log deg) over class adjacency.
  bool HasEdge(size_t u, size_t v) const;

  /// Appends colors[u] for every colored neighbor u of `v` (duplicates
  /// allowed, matching ConflictOracle::AppendForbiddenColors).
  void AppendForbiddenColors(size_t v, const std::vector<int64_t>& colors,
                             std::vector<int64_t>* out) const;

 private:
  std::vector<uint32_t> bucket_of_;
  std::vector<uint32_t> group_of_;
  // Vertices ordered by (group, bucket, id): bucket b's run is
  // [bucket_begin_[b], bucket_end_[b]), group g's is
  // [group_begin_[g], group_begin_[g + 1]).
  std::vector<uint32_t> members_;
  std::vector<uint32_t> bucket_begin_;
  std::vector<uint32_t> bucket_end_;
  std::vector<uint32_t> group_begin_;
  Level groups_;
  Level buckets_;
  std::vector<int64_t> bucket_degree_;  // any member's degree
  size_t num_edges_ = 0;
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

 private:
  std::vector<std::vector<int>> edges_;
  std::vector<std::vector<int>> incident_;
};

}  // namespace cextend

#endif  // CEXTEND_GRAPH_HYPERGRAPH_H_
