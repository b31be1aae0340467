// Generalized Dijkstra vs. exhaustive ground truth across the regular
// Table-1 algebras, plus the documented unsoundness on the non-isotone
// shortest-widest algebra, and the unit-weight BFS kernel against both
// heaps on every PathTree field.
#include "algebra/lex_product.hpp"
#include "algebra/more_algebras.hpp"
#include "algebra/primitives.hpp"
#include "bgp/as_io.hpp"
#include "graph/generators.hpp"
#include "routing/dijkstra.hpp"
#include "routing/exhaustive.hpp"
#include "routing/shortest_widest.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>

namespace cpr {
namespace {

// Compares Dijkstra's weights against exhaustive enumeration on a random
// small graph (weights must match up to order-equality; paths themselves
// may differ under ties).
template <RoutingAlgebra A>
void expect_matches_exhaustive(const A& alg, std::uint64_t seed) {
  Rng rng(seed);
  const Graph g = erdos_renyi_connected(9, 0.35, rng);
  EdgeMap<typename A::Weight> w(g.edge_count());
  for (auto& x : w) x = alg.sample(rng);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const auto tree = dijkstra(alg, g, w, s);
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (s == t) continue;
      const auto truth = exhaustive_preferred(alg, g, w, s, t);
      ASSERT_EQ(tree.reachable(t), truth.traversable())
          << alg.name() << " s=" << s << " t=" << t;
      if (!truth.traversable()) continue;
      EXPECT_TRUE(order_equal(alg, *tree.weight(t), *truth.weight))
          << alg.name() << " s=" << s << " t=" << t << " dijkstra="
          << alg.to_string(*tree.weight(t))
          << " exhaustive=" << alg.to_string(*truth.weight);
      // The extracted path must realize the reported weight.
      const auto path = tree.extract_path(t);
      const auto pw = weight_of_path(alg, g, w, path);
      ASSERT_TRUE(pw.has_value());
      EXPECT_TRUE(order_equal(alg, *pw, *tree.weight(t)));
    }
  }
}

class DijkstraSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraSeeds, ShortestPathMatchesExhaustive) {
  expect_matches_exhaustive(ShortestPath{16}, GetParam());
}
TEST_P(DijkstraSeeds, WidestPathMatchesExhaustive) {
  expect_matches_exhaustive(WidestPath{8}, GetParam());
}
TEST_P(DijkstraSeeds, MostReliableMatchesExhaustive) {
  expect_matches_exhaustive(MostReliablePath{}, GetParam());
}
TEST_P(DijkstraSeeds, WidestShortestMatchesExhaustive) {
  expect_matches_exhaustive(WidestShortest{ShortestPath{16}, WidestPath{8}},
                            GetParam());
}
TEST_P(DijkstraSeeds, UsablePathMatchesExhaustive) {
  expect_matches_exhaustive(UsablePath{}, GetParam());
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DijkstraSeeds,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Dijkstra, LineGraphDistances) {
  const Graph g = path_graph(5);
  EdgeMap<std::uint64_t> w = {1, 2, 3, 4};
  const auto tree = dijkstra(ShortestPath{}, g, w, 0);
  EXPECT_FALSE(tree.weight(0).has_value());  // empty path has no weight
  EXPECT_EQ(*tree.weight(1), 1u);
  EXPECT_EQ(*tree.weight(4), 10u);
  EXPECT_EQ(tree.extract_path(4), (NodePath{0, 1, 2, 3, 4}));
  EXPECT_EQ(tree.hops[4], 4u);
}

TEST(Dijkstra, PhiEdgesAreImpassable) {
  // A widest-path edge of capacity 0 is φ: unreachable through it.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EdgeMap<std::uint64_t> w = {5, 0};
  const auto tree = dijkstra(WidestPath{}, g, w, 0);
  EXPECT_TRUE(tree.reachable(1));
  EXPECT_FALSE(tree.reachable(2));
  EXPECT_TRUE(tree.extract_path(2).empty());
}

TEST(Dijkstra, HopTieBreakPrefersShorterPaths) {
  // Two equal-weight routes 0→3: direct edge (weight 4) and 0-1-2-3
  // (1+1+2 = 4). The tie-break must pick the 1-hop path.
  Graph g(4);
  EdgeMap<std::uint64_t> w;
  g.add_edge(0, 1);
  w.push_back(1);
  g.add_edge(1, 2);
  w.push_back(1);
  g.add_edge(2, 3);
  w.push_back(2);
  g.add_edge(0, 3);
  w.push_back(4);
  const auto tree = dijkstra(ShortestPath{}, g, w, 0);
  EXPECT_EQ(*tree.weight(3), 4u);
  EXPECT_EQ(tree.hops[3], 1u);
  EXPECT_EQ(tree.extract_path(3), (NodePath{0, 3}));
}

TEST(Dijkstra, UnsoundOnShortestWidest) {
  // The canonical non-isotone failure: the greedy settles node 2 through
  // the widest prefix, but the best shortest-widest path to node 3 uses
  // the narrower prefix. Dijkstra's answer is strictly worse than truth.
  //
  //   0 --(cap 10, cost 10)-- 2 --(cap 1, cost 1)-- 3
  //   0 --(cap 1, cost 1)---- 2                (parallel route via node 1)
  const ShortestWidest sw;
  Graph g(4);
  EdgeMap<ShortestWidest::Weight> w;
  g.add_edge(0, 2);
  w.push_back({10, 10});
  g.add_edge(0, 1);
  w.push_back({1, 1});
  g.add_edge(1, 2);
  w.push_back({1, 1});
  g.add_edge(2, 3);
  w.push_back({1, 1});
  const auto tree = dijkstra(sw, g, w, 0);
  const auto truth = exhaustive_preferred(sw, g, w, 0, 3);
  ASSERT_TRUE(truth.traversable());
  // Ground truth: bottleneck 1 either way, so cost decides: 0-1-2-3 = 3.
  EXPECT_EQ(truth.weight->second, 3u);
  // Dijkstra settled 2 via the wide edge and reports cost 11 — suboptimal.
  EXPECT_TRUE(sw.less(*truth.weight, *tree.weight(3)));
}

TEST(Dijkstra, AllPairsTreesCoverEveryRoot) {
  Rng rng(3);
  const Graph g = erdos_renyi_connected(12, 0.3, rng);
  const auto w = random_integer_weights(g, 1, 9, rng);
  const auto trees = all_pairs_trees(ShortestPath{}, g, w);
  ASSERT_EQ(trees.size(), g.node_count());
  for (NodeId s = 0; s < g.node_count(); ++s) {
    EXPECT_EQ(trees[s].source, s);
    for (NodeId t = 0; t < g.node_count(); ++t) {
      EXPECT_TRUE(trees[s].reachable(t));
    }
  }
}

// ---- Unit-weight lane: detail::bfs_tree against the heaps ----
//
// The BFS kernel must reproduce the heap's PathTree byte for byte on
// every field whenever every live edge carries one weight and the
// algebra is monotone. Each root is run three ways: bfs_tree, the
// dispatching heap behind dijkstra_into (flat keys for order-keyed
// algebras) and the generic comparator heap (dijkstra_run), so both
// heap lanes serve as oracles. Families: PA, ER, grid, a disconnected
// graph, a single node and the as-rel fixture, each also with random
// edges downed to φ.

#ifndef CPR_TEST_DATA_DIR
#error "CPR_TEST_DATA_DIR must point at tests/data"
#endif

template <typename W>
void expect_same_tree(const PathTree<W>& got, const PathTree<W>& want,
                      const std::string& what) {
  ASSERT_EQ(got.source, want.source) << what;
  ASSERT_EQ(got.parent, want.parent) << what;
  ASSERT_EQ(got.parent_edge, want.parent_edge) << what;
  ASSERT_EQ(got.hops, want.hops) << what;
  ASSERT_EQ(got.reached, want.reached) << what;
  ASSERT_EQ(got.weights.size(), want.weights.size()) << what;
  // Bitwise, so a double lane cannot hide behind == on equal values.
  ASSERT_EQ(std::memcmp(got.weights.data(), want.weights.data(),
                        got.weights.size() * sizeof(W)),
            0)
      << what;
}

// Every edge weighs c, except that each edge is downed to φ with
// probability `down` (drawn from rng in edge-id order).
template <RoutingAlgebra A>
EdgeMap<typename A::Weight> uniform_weights(const A& alg, const Graph& g,
                                            const typename A::Weight& c,
                                            double down, Rng& rng) {
  EdgeMap<typename A::Weight> w(g.edge_count(), c);
  if (down > 0) {
    for (auto& x : w) {
      if (rng.coin(down)) x = alg.phi();
    }
  }
  return w;
}

// Compares the three kernels from `roots` (every node when empty).
template <RoutingAlgebra A>
void expect_bfs_matches_heaps(const A& alg, const Graph& g,
                              const EdgeMap<typename A::Weight>& w,
                              const typename A::Weight& c,
                              const std::vector<NodeId>& roots,
                              const std::string& what) {
  using W = typename A::Weight;
  const CsrGraph csr(g);
  const SlotWeights<W> slots = gather_slot_weights(alg, csr, w);
  bool live = false;
  for (const W& x : w) live = live || !alg.is_phi(x);
  // The gather must pick the lane exactly when a live edge exists.
  ASSERT_EQ(slots.uniform.has_value(), live) << what;
  if (live) {
    ASSERT_TRUE(*slots.uniform == c) << what;
  }

  IndexedDaryHeap<W> heap;
  const auto weight_at = [&w](NodeId, std::size_t,
                              const Graph::Adjacency& adj) -> const W& {
    return w[adj.edge];
  };
  PathTree<W> bfs, keyed, generic;
  const auto check = [&](NodeId s) {
    detail::bfs_tree(alg, csr, slots.w, c, s, bfs);
    dijkstra_into(alg, csr, w, s, keyed);
    detail::dijkstra_run(alg, csr, s, generic, heap, weight_at);
    expect_same_tree(bfs, keyed, what + " vs dijkstra_into, root " +
                                     std::to_string(s));
    expect_same_tree(bfs, generic, what + " vs generic heap, root " +
                                       std::to_string(s));
  };
  if (roots.empty()) {
    for (NodeId s = 0; s < g.node_count(); ++s) check(s);
  } else {
    for (const NodeId s : roots) check(s);
  }
}

const Graph& as_rel_graph() {
  static const Graph g = [] {
    const std::string path =
        std::string(CPR_TEST_DATA_DIR) + "/as_rel_caida_excerpt.txt.gz";
    if (!as_rel_gz_supported() || !std::ifstream(path)) return Graph{};
    return as_rel_underlay(read_as_rel_gz(path)).graph;
  }();
  return g;
}

// Two connected components plus an isolated node.
Graph disconnected_graph(Rng& rng) {
  const Graph a = erdos_renyi_connected(18, 0.2, rng);
  const Graph b = preferential_attachment(25, 2, 0.25, rng);
  Graph g(a.node_count() + b.node_count() + 1);
  for (const auto& e : a.edges()) g.add_edge(e.u, e.v);
  const NodeId off = static_cast<NodeId>(a.node_count());
  for (const auto& e : b.edges()) g.add_edge(off + e.u, off + e.v);
  return g;
}

// Runs every family of the corpus for one seed, with and without φ
// downs; the as-rel fixture is sampled at a few seed-drawn roots.
template <RoutingAlgebra A>
void bfs_differential(const A& alg, const typename A::Weight& c,
                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::string, Graph>> families;
  families.emplace_back(
      "pa", preferential_attachment(120 + rng.index(80), 2, 0.25, rng));
  families.emplace_back("er", erdos_renyi_connected(60 + rng.index(40),
                                                    0.06, rng));
  families.emplace_back("grid", grid(2 + rng.index(10), 2 + rng.index(12)));
  families.emplace_back("disconnected", disconnected_graph(rng));
  families.emplace_back("single", Graph(1));
  for (const auto& [name, g] : families) {
    for (const double down : {0.0, 0.15}) {
      const auto w = uniform_weights(alg, g, c, down, rng);
      expect_bfs_matches_heaps(alg, g, w, c, {},
                               alg.name() + " " + name + " down=" +
                                   std::to_string(down));
    }
  }
  const Graph& as_rel = as_rel_graph();
  if (as_rel.node_count() == 0) return;
  std::vector<NodeId> roots;
  for (int i = 0; i < 4; ++i) {
    roots.push_back(static_cast<NodeId>(rng.index(as_rel.node_count())));
  }
  for (const double down : {0.0, 0.1}) {
    const auto w = uniform_weights(alg, as_rel, c, down, rng);
    expect_bfs_matches_heaps(alg, as_rel, w, c, roots,
                             alg.name() + " as-rel down=" +
                                 std::to_string(down));
  }
}

class BfsLaneSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BfsLaneSeeds, ShortestPathUnitWeight) {
  bfs_differential(ShortestPath{}, 1, GetParam());
}
TEST_P(BfsLaneSeeds, ShortestPathWeightSeven) {
  bfs_differential(ShortestPath{}, 7, GetParam());
}
// min over one capacity never changes the weight: every layer ties, so
// the hop count alone decides.
TEST_P(BfsLaneSeeds, WidestPathUniformCapacity) {
  bfs_differential(WidestPath{}, 5, GetParam());
}
TEST_P(BfsLaneSeeds, UsablePath) {
  bfs_differential(UsablePath{}, UsablePath::Weight{1}, GetParam());
}
TEST_P(BfsLaneSeeds, MostReliableUniformP) {
  bfs_differential(MostReliablePath{}, 0.75, GetParam());
}
// Budget 10 at c = 3: layers 1-3 weigh 3, 6, 9 and the fold reaches φ at
// layer 4, so both kernels must stop there.
TEST_P(BfsLaneSeeds, CappedFoldReachesPhi) {
  bfs_differential(capped(ShortestPath{}, 10), 3, GetParam());
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, BfsLaneSeeds,
                         ::testing::Range<std::uint64_t>(1, 51));

TEST(BfsLane, CappedTreeStopsAtBudget) {
  const Graph g = path_graph(8);
  const EdgeMap<std::uint64_t> w(g.edge_count(), 3);
  const auto alg = capped(ShortestPath{}, 10);
  const CsrGraph csr(g);
  const auto slots = gather_slot_weights(alg, csr, w);
  ASSERT_TRUE(slots.uniform.has_value());
  PathTree<std::uint64_t> tree;
  detail::bfs_tree(alg, csr, slots.w, *slots.uniform, 0, tree);
  EXPECT_TRUE(tree.reachable(3));
  EXPECT_EQ(*tree.weight(3), 9u);
  EXPECT_FALSE(tree.reachable(4));
}

// The lane inside the parallel fan-out: all_pairs_trees runs bfs_tree on
// every worker's own scratch (the TSan leg runs this), and each tree must
// equal the sequential heap's.
TEST(BfsLane, AllPairsTreesOnPoolMatchHeap) {
  Rng rng(17);
  const Graph g = preferential_attachment(300, 2, 0.25, rng);
  const EdgeMap<std::uint64_t> w(g.edge_count(), 1);
  ThreadPool pool(4);
  const auto trees = all_pairs_trees(ShortestPath{}, g, w, &pool);
  ASSERT_EQ(trees.size(), g.node_count());
  for (NodeId s = 0; s < g.node_count(); ++s) {
    expect_same_tree(trees[s], dijkstra(ShortestPath{}, g, w, s),
                     "root " + std::to_string(s));
  }
}

// ShortestPath with its monotone flag withheld: the BFS argument has no
// premise, so the gather must keep the heap.
class UnflaggedShortestPath : public ShortestPath {
 public:
  UnflaggedShortestPath() : ShortestPath() {}
  AlgebraProperties properties() const {
    AlgebraProperties p = ShortestPath::properties();
    p.monotone = false;
    p.strictly_monotone = false;
    return p;
  }
};

TEST(BfsLane, GatherRejectsMixedWeights) {
  const Graph g = grid(4, 4);
  const CsrGraph csr(g);
  EdgeMap<std::uint64_t> w(g.edge_count(), 1);
  w[g.edge_count() / 2] = 2;
  const auto slots = gather_slot_weights(ShortestPath{}, csr, w);
  EXPECT_FALSE(slots.uniform.has_value());
  ASSERT_EQ(slots.w.size(), 2 * g.edge_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto row = csr.neighbors(u);
    for (std::size_t p = 0; p < row.size(); ++p) {
      EXPECT_EQ(slots.w[csr.row_begin(u) + p], w[row[p].edge]);
    }
  }
}

TEST(BfsLane, GatherRejectsNonMonotoneAlgebra) {
  const Graph g = grid(4, 4);
  const CsrGraph csr(g);
  const EdgeMap<std::uint64_t> w(g.edge_count(), 1);
  EXPECT_TRUE(gather_slot_weights(ShortestPath{}, csr, w).uniform);
  EXPECT_FALSE(gather_slot_weights(UnflaggedShortestPath{}, csr, w).uniform);
}

// Downing an edge leaves the lane on; a different weight on the edge
// beside the downed one (sharing its endpoint, scanned right after it in
// that endpoint's row) must still turn it off: φ slots are skipped, live
// slots are not.
TEST(BfsLane, GatherRejectsOddWeightBesideDownedEdge) {
  const Graph g = path_graph(5);
  const CsrGraph csr(g);
  EdgeMap<std::uint64_t> w(g.edge_count(), 1);
  w[1] = ShortestPath{}.phi();
  const auto downed = gather_slot_weights(ShortestPath{}, csr, w);
  ASSERT_TRUE(downed.uniform.has_value());
  EXPECT_EQ(*downed.uniform, 1u);
  w[2] = 2;
  EXPECT_FALSE(gather_slot_weights(ShortestPath{}, csr, w).uniform);
  // Every edge down: nothing is traversable, so no uniform weight.
  const EdgeMap<std::uint64_t> dead(g.edge_count(), ShortestPath{}.phi());
  EXPECT_FALSE(gather_slot_weights(ShortestPath{}, csr, dead).uniform);
}

}  // namespace
}  // namespace cpr
