// Streamed-vs-materialized Cowen construction differential (ISSUE 9).
//
// CowenOptions::Construction::kMaterialized is the exhaustive oracle: it
// builds all n preferred-path trees and derives landmarks, clusters,
// tables and labels from Θ(n²) scans. The streaming default replaces
// those phases with batched landmark SSSPs plus truncated-ball Dijkstras
// and must produce a **bit-identical** scheme — same landmark set, same
// promotions, same cluster sizes, same flat tables, same encoded labels —
// at every thread count. This suite pins that equivalence over a 50-seed
// corpus for the keyed/strict lane (ShortestPath) and the unit-weight
// BFS lane (ShortestPath with every weight 1), plus non-strict and
// generic-heap lanes (WidestPath, MostReliablePath), promotion-heavy
// options, disconnected graphs, the stats-only table-less mode, and the
// post-build churn path (apply_event lazily materializes and must then
// repair byte-identically). Runs under ASan and TSan in CI.
#include "algebra/primitives.hpp"
#include "graph/generators.hpp"
#include "scheme/cowen.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace cpr {
namespace {

template <RoutingAlgebra A>
void expect_identical(const CowenScheme<A>& streamed,
                      const CowenScheme<A>& oracle, std::size_t n,
                      const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(streamed.landmark_count(), oracle.landmark_count());
  EXPECT_EQ(streamed.initial_landmark_count(),
            oracle.initial_landmark_count());
  EXPECT_EQ(streamed.promoted_landmark_count(),
            oracle.promoted_landmark_count());
  EXPECT_EQ(streamed.strict_balls(), oracle.strict_balls());
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(streamed.is_landmark(u), oracle.is_landmark(u)) << "u=" << u;
    ASSERT_EQ(streamed.landmark_of(u), oracle.landmark_of(u)) << "u=" << u;
    ASSERT_EQ(streamed.cluster_size(u), oracle.cluster_size(u)) << "u=" << u;
    ASSERT_EQ(streamed.port_at_landmark(u), oracle.port_at_landmark(u))
        << "u=" << u;
    ASSERT_EQ(streamed.table(u), oracle.table(u)) << "u=" << u;
    // Labels byte for byte, not just field-wise.
    const auto [sb, sbits] = streamed.encode_header(streamed.make_header(u));
    const auto [ob, obits] = oracle.encode_header(oracle.make_header(u));
    ASSERT_EQ(sbits, obits) << "u=" << u;
    ASSERT_EQ(sb, ob) << "u=" << u;
  }
}

// Builds the same instance three ways — streamed on 1 thread, streamed on
// 8 threads, materialized — from identical rng streams, and demands
// bit-identity.
template <RoutingAlgebra A>
void differential(const A& alg, const Graph& g,
                  const EdgeMap<typename A::Weight>& w, std::uint64_t seed,
                  CowenOptions base = {}) {
  const std::size_t n = g.node_count();
  ThreadPool pool1(1);
  ThreadPool pool8(8);

  CowenOptions streamed1 = base;
  streamed1.construction = CowenOptions::Construction::kStreaming;
  streamed1.pool = &pool1;
  Rng r1(seed);
  const auto s1 = CowenScheme<A>::build(alg, g, w, r1, streamed1);

  CowenOptions streamed8 = base;
  streamed8.construction = CowenOptions::Construction::kStreaming;
  streamed8.pool = &pool8;
  // Odd batch so multi-round promotion sweeps cross batch boundaries.
  streamed8.landmark_batch = 3;
  Rng r8(seed);
  const auto s8 = CowenScheme<A>::build(alg, g, w, r8, streamed8);

  CowenOptions materialized = base;
  materialized.construction = CowenOptions::Construction::kMaterialized;
  materialized.pool = &pool8;
  Rng rm(seed);
  const auto oracle = CowenScheme<A>::build(alg, g, w, rm, materialized);

  EXPECT_FALSE(s1.trees_materialized());
  EXPECT_TRUE(oracle.trees_materialized());
  expect_identical(s1, oracle, n, "streamed@1 vs materialized");
  expect_identical(s8, oracle, n, "streamed@8 vs materialized");
}

class StreamSeeds : public ::testing::TestWithParam<std::uint64_t> {};

// The keyed/strict fast lane over the full 50-seed corpus.
TEST_P(StreamSeeds, CowenStreamShortestPathBitIdentical) {
  const std::uint64_t seed = GetParam();
  auto inst = test::seeded_instance(ShortestPath{64}, seed, 48, 0.15);
  differential(ShortestPath{64}, inst.graph, inst.weights, seed * 7 + 1);
}

// Unit weights: every landmark sweep and every materialized tree takes
// the BFS lane (detail::bfs_tree). Both constructions must still agree
// byte for byte, and the oracle's trees must equal the heap's.
void unit_weight_differential(const Graph& g, std::uint64_t seed) {
  const ShortestPath alg{1};
  const EdgeMap<std::uint64_t> w(g.edge_count(), 1);
  differential(alg, g, w, seed);
  Rng rm(seed);
  CowenOptions mopt;
  mopt.construction = CowenOptions::Construction::kMaterialized;
  const auto oracle = CowenScheme<ShortestPath>::build(alg, g, w, rm, mopt);
  for (NodeId t = 0; t < g.node_count(); ++t) {
    const auto heap = dijkstra(alg, g, w, t);
    ASSERT_EQ(oracle.tree(t).parent, heap.parent) << "t=" << t;
    ASSERT_EQ(oracle.tree(t).parent_edge, heap.parent_edge) << "t=" << t;
    ASSERT_EQ(oracle.tree(t).hops, heap.hops) << "t=" << t;
    ASSERT_EQ(oracle.tree(t).weights, heap.weights) << "t=" << t;
    ASSERT_EQ(oracle.tree(t).reached, heap.reached) << "t=" << t;
  }
}

TEST_P(StreamSeeds, CowenStreamUnitWeightBitIdentical) {
  const std::uint64_t seed = GetParam();
  auto inst = test::seeded_instance(ShortestPath{1}, seed, 48, 0.15);
  unit_weight_differential(inst.graph, seed * 7 + 1);
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, StreamSeeds,
                         ::testing::Range<std::uint64_t>(1, 51));

// The seeded G(48, p) graphs fit one bitmap word, so every BFS layer
// takes the bitmap branch; a preferential-attachment graph of a few
// hundred nodes also reaches the sorted sparse-layer branch.
TEST(StreamPreferential, CowenStreamUnitWeightBitIdentical) {
  Rng rng(5);
  const Graph g = preferential_attachment(400, 2, 0.25, rng);
  unit_weight_differential(g, 36);
}

class StreamSeedsWide : public ::testing::TestWithParam<std::uint64_t> {};

// Non-strict balls (weakly monotone) — clusters are fat and landmarks can
// sit exactly on ball boundaries.
TEST_P(StreamSeedsWide, CowenStreamWidestPathBitIdentical) {
  const std::uint64_t seed = GetParam();
  auto inst = test::seeded_instance(WidestPath{8}, seed, 40, 0.18);
  differential(WidestPath{8}, inst.graph, inst.weights, seed * 11 + 3);
}

// Generic-heap lane (no 128-bit order key).
TEST_P(StreamSeedsWide, CowenStreamMostReliableBitIdentical) {
  const std::uint64_t seed = GetParam();
  auto inst = test::seeded_instance(MostReliablePath{}, seed, 36, 0.2);
  differential(MostReliablePath{}, inst.graph, inst.weights, seed * 13 + 5);
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, StreamSeedsWide,
                         ::testing::Range<std::uint64_t>(1, 11));

class StreamPromotion : public ::testing::TestWithParam<std::uint64_t> {};

// Tiny initial sample + tight cap forces multiple promotion rounds, so
// the streaming fold sees landmarks arriving across several sweeps.
TEST_P(StreamPromotion, CowenStreamPromotionRoundsBitIdentical) {
  const std::uint64_t seed = GetParam();
  auto inst = test::seeded_instance(ShortestPath{64}, seed, 56, 0.12);
  CowenOptions opt;
  opt.initial_landmarks = 2;
  opt.cluster_cap = 8;
  differential(ShortestPath{64}, inst.graph, inst.weights, seed * 17 + 7,
               opt);
  const auto count_promotions = [&] {
    Rng r(seed * 17 + 7);
    CowenOptions o = opt;
    auto s = CowenScheme<ShortestPath>::build(ShortestPath{64}, inst.graph,
                                              inst.weights, r, o);
    return s.promoted_landmark_count();
  };
  EXPECT_GT(count_promotions(), 0u)
      << "options failed to force promotions — differential under-covers";
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, StreamPromotion,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(CowenStream, DisconnectedGraphBitIdentical) {
  // Two components: truncated balls and landmark folds must agree on
  // unreachable landmark tie-breaks (smallest id) and absent radii.
  Rng grng(33);
  const Graph a = erdos_renyi_connected(20, 0.25, grng);
  const Graph b = erdos_renyi_connected(14, 0.3, grng);
  Graph g(a.node_count() + b.node_count());
  EdgeMap<std::uint64_t> w;
  Rng wrng(44);
  for (const auto& e : a.edges()) {
    g.add_edge(e.u, e.v);
    w.push_back(wrng.uniform(1, 30));
  }
  const NodeId off = static_cast<NodeId>(a.node_count());
  for (const auto& e : b.edges()) {
    g.add_edge(off + e.u, off + e.v);
    w.push_back(wrng.uniform(1, 30));
  }
  differential(ShortestPath{64}, g, w, 909);
}

TEST(CowenStream, TreeAccessorThrowsUntilMaterialized) {
  auto inst = test::seeded_instance(ShortestPath{64}, 5, 24, 0.25);
  auto s = CowenScheme<ShortestPath>::build(ShortestPath{64}, inst.graph,
                                            inst.weights, inst.rng);
  EXPECT_FALSE(s.trees_materialized());
  EXPECT_THROW((void)s.tree(0), std::logic_error);
  s.rebuild_from(inst.weights);
  EXPECT_TRUE(s.trees_materialized());
  EXPECT_NO_THROW((void)s.tree(0));
}

TEST(CowenStream, ApplyEventAfterStreamedBuildMatchesOracle) {
  const ShortestPath alg{64};
  auto inst = test::seeded_instance(alg, 21, 40, 0.18);
  const Graph& g = inst.graph;
  const std::size_t n = g.node_count();

  ThreadPool pool(4);
  CowenOptions sopt;
  sopt.pool = &pool;
  sopt.construction = CowenOptions::Construction::kStreaming;
  Rng rs(777);
  auto streamed = CowenScheme<ShortestPath>::build(alg, g, inst.weights, rs,
                                                   sopt);
  CowenOptions mopt = sopt;
  mopt.construction = CowenOptions::Construction::kMaterialized;
  Rng rm(777);
  auto oracle = CowenScheme<ShortestPath>::build(alg, g, inst.weights, rm,
                                                 mopt);

  // A few weight moves on the same edge stream: the streamed scheme
  // materializes its trees lazily inside the first event, after which
  // every repair must stay byte-identical to the oracle's.
  EdgeMap<std::uint64_t> w = inst.weights;
  Rng erng(99);
  for (int event = 0; event < 6; ++event) {
    const EdgeId e = static_cast<EdgeId>(erng.index(g.edge_count()));
    const std::uint64_t old_w = w[e];
    const std::uint64_t new_w = erng.uniform(1, 60);
    w[e] = new_w;
    const auto rs_stats = streamed.apply_event(e, old_w, new_w, w);
    const auto ro_stats = oracle.apply_event(e, old_w, new_w, w);
    EXPECT_EQ(rs_stats.dirty_trees, ro_stats.dirty_trees);
    EXPECT_EQ(rs_stats.patched_targets, ro_stats.patched_targets);
    EXPECT_EQ(rs_stats.full_rebuild, ro_stats.full_rebuild);
    expect_identical(streamed, oracle, n, "post-event");
  }
  EXPECT_TRUE(streamed.trees_materialized());
  for (NodeId t = 0; t < n; ++t) {
    for (NodeId u = 0; u < n; ++u) {
      ASSERT_EQ(streamed.tree(t).parent[u], oracle.tree(t).parent[u]);
    }
  }
}

TEST(CowenStream, StatsOnlyModeSkipsTablesKeepsLabelsExact) {
  const ShortestPath alg{64};
  auto inst = test::seeded_instance(alg, 12, 44, 0.16);
  const std::size_t n = inst.graph.node_count();

  CowenOptions full;
  full.construction = CowenOptions::Construction::kStreaming;
  Rng rf(555);
  const auto with_tables =
      CowenScheme<ShortestPath>::build(alg, inst.graph, inst.weights, rf,
                                       full);

  CowenOptions stats = full;
  stats.materialize_tables = false;
  Rng rn(555);
  const auto stats_only =
      CowenScheme<ShortestPath>::build(alg, inst.graph, inst.weights, rn,
                                       stats);

  EXPECT_EQ(stats_only.landmark_count(), with_tables.landmark_count());
  EXPECT_EQ(stats_only.promoted_landmark_count(),
            with_tables.promoted_landmark_count());
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(stats_only.landmark_of(u), with_tables.landmark_of(u));
    ASSERT_EQ(stats_only.cluster_size(u), with_tables.cluster_size(u));
    ASSERT_EQ(stats_only.port_at_landmark(u), with_tables.port_at_landmark(u));
    EXPECT_TRUE(stats_only.table(u).empty());
  }
}

}  // namespace
}  // namespace cpr
