// The name-independent TZ layer (scheme/tz_name_independent.hpp):
// delivery and stretch ≤ 3 under arbitrary (non-identity) label
// permutations, hop-for-hop agreement with the embedded Cowen scheme,
// dictionary-resolution consistency, label codec round-trips, the
// honest memory accounting (dictionary share included), and unit-weight
// churn through the BFS tree lane with its label-space deltas.
#include "algebra/primitives.hpp"
#include "fib/compile.hpp"
#include "fib/forward_engine.hpp"
#include "graph/generators.hpp"
#include "routing/dijkstra.hpp"
#include "scheme/cowen.hpp"
#include "scheme/tz_name_independent.hpp"
#include "sim/churn.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace cpr {
namespace {

template <RoutingAlgebra A>
void expect_tz_stretch3(const A& alg, std::uint64_t seed, std::size_t n) {
  auto inst = test::seeded_instance(alg, seed, n, 0.25);
  const Graph& g = inst.graph;
  const auto& w = inst.weights;
  const auto scheme =
      TzNameIndependentScheme<A>::build(alg, g, w, inst.rng);
  const auto truth = all_pairs_trees(alg, g, w);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    for (NodeId t = 0; t < g.node_count(); ++t) {
      const RouteResult r = simulate_route(scheme, g, s, t);
      ASSERT_TRUE(r.delivered) << alg.name() << " s=" << s << " t=" << t;
      if (s == t) continue;
      const auto preferred = truth[t].weight(s);
      ASSERT_TRUE(preferred.has_value());
      EXPECT_TRUE(test::path_weight_within_stretch(alg, g, w, r.path,
                                                   *preferred, 3))
          << " s=" << s << " t=" << t;
    }
  }
}

class TzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TzSeeds, ShortestPathStretch3) {
  expect_tz_stretch3(ShortestPath{16}, GetParam(), 24);
}
TEST_P(TzSeeds, WidestShortestStretch3) {
  expect_tz_stretch3(WidestShortest{ShortestPath{16}, WidestPath{8}},
                     GetParam(), 20);
}

// The label bijection makes every TZ forwarding decision equal the
// embedded Cowen scheme's decision on the same (node, target): the two
// object paths must walk identical hop sequences for every pair. This is
// the theorem the whole layer rests on — stretch ≤ 3 is inherited, not
// re-proven.
TEST_P(TzSeeds, MatchesEmbeddedCowenHopForHop) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, GetParam(), 24, 0.25);
  const Graph& g = inst.graph;
  const auto scheme = TzNameIndependentScheme<ShortestPath>::build(
      alg, g, inst.weights, inst.rng);
  ASSERT_FALSE(scheme.labels().is_identity());
  const CowenScheme<ShortestPath>& cowen = scheme.cowen();
  for (NodeId s = 0; s < g.node_count(); ++s) {
    for (NodeId t = 0; t < g.node_count(); ++t) {
      const RouteResult tz = simulate_route(scheme, g, s, t);
      const RouteResult cw = simulate_route(cowen, g, s, t);
      ASSERT_EQ(cw.delivered, tz.delivered) << "s=" << s << " t=" << t;
      ASSERT_EQ(cw.path, tz.path) << "s=" << s << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, TzSeeds,
                         ::testing::Range<std::uint64_t>(1, 7));

// Internet-like degree distributions are the scheme's motivating regime
// (Krioukov–Fall–Yang run TZ on such graphs): preferential attachment,
// measured multiplicative stretch per pair, hard ≤ 3 everywhere. The
// aggregate distribution is printed so the docs' quoted numbers
// (docs/forwarding_plane.md) can be re-derived from this exact test.
TEST(TzScheme, PreferentialAttachmentStretchDistribution) {
  const ShortestPath alg{1 << 20};
  const std::size_t n = 200;
  Rng rng(42);
  const Graph g = preferential_attachment(n, 3, /*uniform_mix=*/0.0, rng);
  const auto w = test::integer_weights(g, rng, 1, 16);
  const auto scheme =
      TzNameIndependentScheme<ShortestPath>::build(alg, g, w, rng);
  const auto truth = all_pairs_trees(alg, g, w);

  std::size_t pairs = 0, stretched = 0;
  double worst = 1.0, sum = 0.0;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      const RouteResult r = simulate_route(scheme, g, s, t);
      ASSERT_TRUE(r.delivered) << "s=" << s << " t=" << t;
      const auto preferred = truth[t].weight(s);
      ASSERT_TRUE(preferred.has_value());
      const auto achieved = weight_of_path(alg, g, w, r.path);
      ASSERT_TRUE(achieved.has_value());
      const double ratio = static_cast<double>(*achieved) /
                           static_cast<double>(*preferred);
      EXPECT_LE(ratio, 3.0) << "s=" << s << " t=" << t;
      worst = std::max(worst, ratio);
      sum += ratio;
      ++pairs;
      if (ratio > 1.0) ++stretched;
    }
  }
  // Headline numbers for the docs; failure output shows them too.
  std::printf(
      "tz pa(n=%zu, m=3): mean stretch %.4f, max %.4f, stretched pairs "
      "%.2f%%, landmarks %zu\n",
      n, sum / static_cast<double>(pairs), worst,
      100.0 * static_cast<double>(stretched) / static_cast<double>(pairs),
      scheme.landmark_count());
  EXPECT_LE(worst, 3.0);
}

// make_header's dictionary resolution must agree with the label map on
// every name, and the codec must round-trip bit-exactly.
TEST(TzScheme, HeadersResolveAndRoundTrip) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 5, 32, 0.2);
  const auto scheme = TzNameIndependentScheme<ShortestPath>::build(
      alg, inst.graph, inst.weights, inst.rng);
  const auto& labels = scheme.labels();
  for (NodeId t = 0; t < inst.graph.node_count(); ++t) {
    const auto h = scheme.make_header(t);
    EXPECT_EQ(h.target, t);
    EXPECT_EQ(h.target_label, labels.label_of(t));
    const NodeId lm = scheme.cowen().landmark_of(t);
    ASSERT_NE(lm, kInvalidNode);
    EXPECT_EQ(h.landmark_label, labels.label_of(lm));
    const auto [bytes, bits] = scheme.encode_header(h);
    EXPECT_EQ(bits, scheme.label_bits(t));
    EXPECT_EQ(scheme.decode_header(bytes), h);
  }
}

// Name-independence is paid for in memory: each node's bill includes its
// label and its owned dictionary bucket on top of the labeled ball
// table. The total dictionary charge across nodes must cover all n
// names, and labels stay O(log n)-sized (four bounded fields).
TEST(TzScheme, MemoryAccountsForDictionaryShare) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 6, 64, 0.15);
  const std::size_t n = inst.graph.node_count();
  const auto scheme = TzNameIndependentScheme<ShortestPath>::build(
      alg, inst.graph, inst.weights, inst.rng);
  std::size_t total_tz = 0;
  for (NodeId u = 0; u < n; ++u) total_tz += scheme.local_memory_bits(u);
  std::size_t total_cowen = 0;
  for (NodeId u = 0; u < n; ++u) {
    total_cowen += scheme.cowen().local_memory_bits(u);
  }
  EXPECT_GT(total_tz, total_cowen)
      << "the dictionary share must show up in the bill";

  const double lg = std::log2(static_cast<double>(n));
  const double lgd =
      std::log2(static_cast<double>(inst.graph.max_degree()) + 1);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_LE(scheme.label_bits(v), 3 * lg + lgd + 4) << "v=" << v;
  }
}

// The permutation is seeded: same seed, same labels; and it is never the
// identity for n >= 2, so the differential suites genuinely exercise the
// name/label split.
TEST(TzScheme, LabelPermutationIsSeededAndNonIdentity) {
  const ShortestPath alg{16};
  auto a = test::seeded_instance(alg, 9, 24, 0.25);
  auto b = test::seeded_instance(alg, 9, 24, 0.25);
  const auto sa = TzNameIndependentScheme<ShortestPath>::build(
      alg, a.graph, a.weights, a.rng);
  const auto sb = TzNameIndependentScheme<ShortestPath>::build(
      alg, b.graph, b.weights, b.rng);
  ASSERT_FALSE(sa.labels().is_identity());
  EXPECT_EQ(sa.labels().raw_label_of(), sb.labels().raw_label_of());
}

// Unit weights (ShortestPath{1} samples only 1): the build's landmark
// sweeps and every repair recompute take the BFS lane. Per event of a
// flap trace, the embedded Cowen trees must equal the heap's on the
// current weights, and the label-space FibDelta the TZ layer emits,
// absorbed by a maintained arena, must serve exactly what a fresh
// compile of the repaired scheme serves, on the healthy graph and under
// the current dead-edge mask.
class TzUnitSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TzUnitSeeds, UnitWeightChurnLabelDeltasMatchFreshCompile) {
  const ShortestPath alg{1};
  const std::uint64_t seed = GetParam();
  auto inst = test::seeded_instance(alg, seed, 24, 0.2);
  const Graph& g = inst.graph;
  auto scheme = TzNameIndependentScheme<ShortestPath>::build(
      alg, g, inst.weights, inst.rng);
  ASSERT_FALSE(scheme.labels().is_identity());
  expect_tz_stretch3(alg, seed, 24);

  ChurnTraceOptions flaps;
  flaps.p_down = 0.5;
  flaps.p_up = 0.5;
  Rng trace_rng(seed ^ 0x7a7a7a7aull);
  const auto trace =
      random_churn_trace(alg, g, inst.weights, 12, trace_rng, flaps);
  ASSERT_FALSE(trace.empty());

  ChurnEngine<ShortestPath> engine(alg, g, inst.weights);
  FibMaintainOptions opt = fib_churn_maintain_options();
  opt.compaction_fraction = 2.0;  // keep absorbing deltas, not recompiling
  MaintainedFib<TzNameIndependentScheme<ShortestPath>> plane(scheme, g, opt);
  const auto queries = test::all_pairs(g.node_count());
  std::size_t patched_events = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " event " << i);
    const auto applied = engine.apply(trace[i]);
    const auto repair = scheme.apply_event(applied.edge, applied.old_weight,
                                           applied.new_weight,
                                           engine.weights(),
                                           /*rebuild_dirty_fraction=*/2.0);
    if (!repair.fib_delta.patches.empty()) ++patched_events;
    plane.absorb(repair.fib_delta, scheme);
    for (NodeId t = 0; t < g.node_count(); ++t) {
      const auto heap = dijkstra(alg, g, engine.weights(), t);
      ASSERT_EQ(scheme.cowen().tree(t).parent, heap.parent) << "t=" << t;
      ASSERT_EQ(scheme.cowen().tree(t).hops, heap.hops) << "t=" << t;
    }
    const FlatFib fresh = compile_fib(scheme, g);
    FibBatchOptions bopt;
    EXPECT_EQ(test::batch_hash(forward_batch(plane.fib(), queries, bopt)),
              test::batch_hash(forward_batch(fresh, queries, bopt)));
    const std::vector<bool> down = engine.down_mask();
    bopt.edge_down = &down;
    EXPECT_EQ(test::batch_hash(forward_batch(plane.fib(), queries, bopt)),
              test::batch_hash(forward_batch(fresh, queries, bopt)));
  }
  EXPECT_GT(patched_events, 0u) << "no event produced a label-space delta";
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, TzUnitSeeds,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace cpr
