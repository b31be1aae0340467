// Flat-memory (CSR) view of a Graph, built once and read from hot loops.
//
// Graph stores one std::vector<Adjacency> per node — convenient while the
// topology is being built, but every neighbor scan chases a second
// pointer and the per-node vectors are scattered across the heap. The
// constructions this library spends its time in (per-root policy-Dijkstra
// sweeps, Cowen ball/cluster growth, table fill) only ever *read* the
// topology, so they route over this compressed-sparse-row snapshot
// instead: one offsets array plus one packed {neighbor, edge} array,
// adjacency in port order, everything contiguous.
//
// Port semantics are preserved exactly: port p of node v is position
// offsets[v] + p, the same Adjacency record Graph::neighbors(v)[p] holds.
// On top of the port-ordered rows the view keeps a neighbor-sorted
// permutation per row so port_to/has_edge — the lookup scheme
// construction loops (Cowen table fill, tree-router forwarding) hammer —
// can binary-search hub rows in O(log deg u); short rows take a
// contiguous linear scan instead, which is faster below a few dozen
// neighbors.
//
// The view is a snapshot: mutating the source Graph afterwards does not
// update it (rebuild instead). It does not hold a reference to the Graph.
#pragma once

#include "graph/graph.hpp"

#include <span>

namespace cpr {

class CsrGraph {
 public:
  // port_to scans rows of at most this many neighbors linearly and
  // binary-searches longer ones. The crossover is empirical: on the
  // sparse sweep topologies (mean degree ~6) a handful of contiguous
  // compares beats the branchy search plus the permutation indirection,
  // and hub rows are where the O(log deg) search pays off. (Compiled
  // FIB rows have no such cutoff: they are stored in Eytzinger order and
  // one branchless search, fib_row_find, serves every length.)
  // tests/test_csr_graph.cpp pins both sides of the boundary.
  static constexpr std::size_t kPortToLinearScanCutoff = 16;

  CsrGraph() = default;
  explicit CsrGraph(const Graph& g);

  std::size_t node_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t edge_count() const { return edges_.size(); }

  std::size_t degree(NodeId v) const {
    return offsets_[v + 1] - offsets_[v];
  }
  std::size_t max_degree() const { return max_degree_; }

  // Port p at node v leads to this neighbor / over this edge (identical
  // numbering to the source Graph).
  NodeId neighbor(NodeId v, Port p) const { return adj_[offsets_[v] + p].neighbor; }
  EdgeId edge_at(NodeId v, Port p) const { return adj_[offsets_[v] + p].edge; }

  // The adjacency row of v in port order, as a contiguous span.
  std::span<const Graph::Adjacency> neighbors(NodeId v) const {
    return {adj_.data() + offsets_[v], degree(v)};
  }

  // Global slot index of port 0 at v (row_begin(v) + p addresses port p);
  // lets callers keep per-slot side arrays aligned with the packed rows,
  // e.g. the edge weights all_pairs_trees gathers once per sweep batch.
  std::size_t row_begin(NodeId v) const { return offsets_[v]; }

  // Port at u that leads to v, or kInvalidPort. O(log deg u).
  Port port_to(NodeId u, NodeId v) const;

  bool has_edge(NodeId u, NodeId v) const {
    return port_to(u, v) != kInvalidPort;
  }

  const Graph::Edge& edge(EdgeId e) const { return edges_[e]; }
  const std::vector<Graph::Edge>& edges() const { return edges_; }

  // The endpoint of e that is not `from`.
  NodeId opposite(EdgeId e, NodeId from) const {
    return edges_[e].u == from ? edges_[e].v : edges_[e].u;
  }

 private:
  std::vector<std::uint32_t> offsets_;       // n + 1 row starts into adj_
  std::vector<Graph::Adjacency> adj_;        // packed rows, port order
  std::vector<NodeId> sorted_neighbors_;     // per row: neighbor ids ascending
  std::vector<Port> sorted_ports_;           // parallel: port of that neighbor
  std::vector<Graph::Edge> edges_;           // endpoint pairs by edge id
  std::size_t max_degree_ = 0;
};

}  // namespace cpr
