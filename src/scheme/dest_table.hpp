// Destination-based routing tables (Observation 1 / Proposition 2).
//
// For a regular algebra the preferred paths toward each destination form a
// tree, so a single (destination → port) entry per destination suffices:
// R̂_u(v) = (v, l_v). The per-node table is an array indexed by destination
// id holding a port in the node's local port space — O(n log d) bits, the
// paper's baseline that compact schemes try to beat. Proposition 2 says
// this is correct exactly for regular algebras; the tests exercise both
// directions (correct for S/W/R/WS, and the SW counterexample where
// tree-consistent destination tables cannot realize the preferred paths).
#pragma once

#include "algebra/algebra.hpp"
#include "graph/csr_graph.hpp"
#include "routing/dijkstra.hpp"
#include "scheme/scheme.hpp"
#include "util/bitstream.hpp"

#include <vector>

namespace cpr {

class DestinationTableScheme {
 public:
  using Header = NodeId;  // the header is just the destination's id

  // next_hop[t][u] = neighbor of u on u's path toward t (kInvalidNode when
  // u == t or t unreachable from u).
  DestinationTableScheme(const Graph& g,
                         std::vector<std::vector<NodeId>> next_hop)
      : graph_(&g), csr_(g), next_hop_(std::move(next_hop)) {}

  // Builds tables from preferred-path trees rooted at every destination
  // (undirected graph, commutative algebra: the tree rooted at t encodes
  // every node's preferred path to t).
  template <RoutingAlgebra A>
  static DestinationTableScheme from_algebra(
      const A& alg, const Graph& g, const EdgeMap<typename A::Weight>& w) {
    const std::size_t n = g.node_count();
    std::vector<std::vector<NodeId>> next_hop(n,
                                              std::vector<NodeId>(n, kInvalidNode));
    const CsrGraph csr(g);  // one snapshot for the n sweeps
    for (NodeId t = 0; t < n; ++t) {
      const auto tree = dijkstra(alg, csr, w, t);
      for (NodeId u = 0; u < n; ++u) {
        if (u != t && tree.reachable(u)) next_hop[t][u] = tree.parent[u];
      }
    }
    return DestinationTableScheme(g, std::move(next_hop));
  }

  Header make_header(NodeId target) const { return target; }

  Decision forward(NodeId u, Header& h) const {
    if (u == h) return Decision::delivered();
    const NodeId nh = next_hop_[h][u];
    if (nh == kInvalidNode) return Decision::via(kInvalidPort);
    return Decision::via(csr_.port_to(u, nh));
  }

  // Destination-indexed port array: (n-1) entries of ceil(log2 deg(u))
  // bits each, plus one "unreachable" flag bit per entry.
  std::size_t local_memory_bits(NodeId u) const {
    BitWriter bits;
    const std::size_t n = graph_->node_count();
    for (NodeId t = 0; t < n; ++t) {
      if (t == u) continue;
      const NodeId nh = next_hop_[t][u];
      bits.write_bit(nh != kInvalidNode);
      if (nh != kInvalidNode) {
        bits.write_bounded(csr_.port_to(u, nh),
                           std::max<std::size_t>(graph_->degree(u), 1));
      }
    }
    return bits.bit_count();
  }

  std::size_t label_bits(NodeId) const {
    return bits_for_universe(graph_->node_count());
  }

 private:
  const Graph* graph_;
  CsrGraph csr_;  // O(log deg) port lookups for forwarding + accounting
  std::vector<std::vector<NodeId>> next_hop_;
};

static_assert(CompactRoutingScheme<DestinationTableScheme>);

}  // namespace cpr
