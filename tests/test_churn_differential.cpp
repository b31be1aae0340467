// Property-based differential testing of incremental churn repair.
//
// The property: after *every* event of a seeded random churn trace, the
// incrementally repaired scheme is identical to a from-scratch rebuild on
// the engine's current φ-masked weight map —
//   SpanningTreeScheme::apply_event  vs  SpanningTreeScheme::build
//   CowenScheme::apply_event         vs  CowenScheme::rebuild_from
// (rebuild_from goes through all_pairs_trees + full table construction,
// a different code path from the per-root tree patching, so the
// comparison is not a tautology; the Cowen repair is forced down the
// incremental path by passing a dirty-fraction threshold > 1). Every
// repaired tree is also checked against the heap (dijkstra) on the
// current weights, which pins the unit-weight BFS lane the repair and
// the rebuild both take when every live edge weighs the same.
//
// When a trace fails, it is minimized before being reported: the failing
// prefix is cut at the first mismatching event, then earlier events are
// greedily dropped while the replay still mismatches, and the shrunk
// trace is printed event-by-event — a handful of lines to paste into a
// regression test instead of a 20-event haystack.
#include "algebra/primitives.hpp"
#include "routing/dijkstra.hpp"
#include "scheme/cowen.hpp"
#include "scheme/spanning_tree.hpp"
#include "sim/churn.hpp"
#include "sim/resilience.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace cpr {
namespace {

// Forces CowenScheme::apply_event to stay on the incremental path: the
// dirty fraction can never exceed 1, so the fallback never triggers and
// the differential oracle exercises the patching code, not rebuild_from.
constexpr double kNeverRebuild = 2.0;

template <RoutingAlgebra A>
std::string describe_event(const A& alg,
                           const ChurnEvent<typename A::Weight>& ev,
                           const Graph& g) {
  std::ostringstream out;
  out << "t=" << ev.time << " edge=" << ev.edge << " (" << g.edge(ev.edge).u
      << "-" << g.edge(ev.edge).v << ") ";
  switch (ev.kind) {
    case ChurnKind::kEdgeDown:
      out << "DOWN";
      break;
    case ChurnKind::kEdgeUp:
      out << "UP w=" << alg.to_string(ev.new_weight);
      break;
    case ChurnKind::kWeightChange:
      out << "CHANGE w=" << alg.to_string(ev.new_weight);
      break;
  }
  return out.str();
}

// One replay of a (possibly shrunk) trace against fresh schemes.
enum class ReplayOutcome {
  kAllMatch,   // every event's incremental state matched the rebuild
  kMismatch,   // differential property violated (index reported)
  kInvalid,    // the trace is inconsistent / disconnects the graph
};

struct ReplayResult {
  ReplayOutcome outcome = ReplayOutcome::kAllMatch;
  std::size_t first_mismatch = 0;
  std::string detail;  // which structure diverged, for the failure report
};

// The scenario is a pure function of (alg, seed): replays always rebuild
// the same graph, weights and (Cowen) landmark choice, so shrinking can
// re-run candidate traces at will.
template <RoutingAlgebra A>
struct ChurnScenario {
  A alg;
  std::uint64_t seed = 0;
  std::size_t n = 18;
  double p = 0.25;
  std::size_t events = 20;
  ChurnTraceOptions trace_options = {};

  std::vector<ChurnEvent<typename A::Weight>> make_trace() const {
    auto inst = test::seeded_instance(alg, seed, n, p);
    Rng trace_rng(seed ^ 0x9e3779b97f4a7c15ull);
    return random_churn_trace(alg, inst.graph, inst.weights, events,
                              trace_rng, trace_options);
  }

  ReplayResult replay(
      const std::vector<ChurnEvent<typename A::Weight>>& trace) const {
    ReplayResult result;
    auto inst = test::seeded_instance(alg, seed, n, p);
    const Graph& g = inst.graph;
    try {
      ChurnEngine<A> engine(alg, g, inst.weights);
      auto tree = SpanningTreeScheme<A>::build(alg, g, inst.weights);
      auto cowen = CowenScheme<A>::build(alg, g, inst.weights, inst.rng);
      // The oracle shares the incremental scheme's (pinned) landmark set;
      // per event it does a full pinned-landmark rebuild.
      CowenScheme<A> oracle(cowen);

      for (std::size_t i = 0; i < trace.size(); ++i) {
        const AppliedChurn<typename A::Weight> applied =
            engine.apply(trace[i]);
        tree.apply_event(applied.edge, applied.old_weight, applied.new_weight,
                         engine.weights());
        cowen.apply_event(applied.edge, applied.old_weight, applied.new_weight,
                          engine.weights(), kNeverRebuild);

        const auto tree_oracle =
            SpanningTreeScheme<A>::build(alg, g, engine.weights());
        oracle.rebuild_from(engine.weights());

        const std::string diff =
            compare(alg, g, engine.weights(), tree, tree_oracle, cowen, oracle);
        if (!diff.empty()) {
          result.outcome = ReplayOutcome::kMismatch;
          result.first_mismatch = i;
          result.detail = diff;
          return result;
        }
      }
    } catch (const std::exception&) {
      // Shrunk candidates can become inconsistent (an up whose down was
      // dropped) or disconnect the graph; such traces are not evidence.
      result.outcome = ReplayOutcome::kInvalid;
      return result;
    }
    return result;
  }

  // Byte-level comparison of every piece of repaired state, plus every
  // repaired tree against the keyed heap on the current weights (so a
  // lane switch inside apply_event cannot hide behind an oracle that
  // switched the same way). Returns a description of the first
  // divergence, empty when identical.
  static std::string compare(const A& alg, const Graph& g,
                             const EdgeMap<typename A::Weight>& w,
                             const SpanningTreeScheme<A>& tree,
                             const SpanningTreeScheme<A>& tree_oracle,
                             const CowenScheme<A>& cowen,
                             const CowenScheme<A>& oracle) {
    if (tree.tree_edges() != tree_oracle.tree_edges()) {
      return "spanning tree edge sets differ";
    }
    for (NodeId u = 0; u < g.node_count(); ++u) {
      std::ostringstream at;
      at << " at u=" << u;
      const auto heap = dijkstra(alg, g, w, u);
      const PathTree<typename A::Weight>& repaired = cowen.tree(u);
      if (repaired.parent != heap.parent ||
          repaired.parent_edge != heap.parent_edge ||
          repaired.hops != heap.hops || repaired.reached != heap.reached ||
          repaired.weights != heap.weights) {
        return "cowen tree differs from the heap's" + at.str();
      }
      if (cowen.landmark_of(u) != oracle.landmark_of(u)) {
        return "cowen landmark_of" + at.str();
      }
      if (cowen.cluster_size(u) != oracle.cluster_size(u)) {
        return "cowen cluster_size" + at.str();
      }
      if (cowen.table(u) != oracle.table(u)) {
        return "cowen table" + at.str();
      }
      if (cowen.port_at_landmark(u) != oracle.port_at_landmark(u)) {
        return "cowen port_at_landmark" + at.str();
      }
    }
    return {};
  }

  // Greedy minimization: cut at the first mismatch, then drop earlier
  // events while the shrunk trace still mismatches on replay.
  std::vector<ChurnEvent<typename A::Weight>> shrink(
      std::vector<ChurnEvent<typename A::Weight>> failing,
      std::size_t first_mismatch) const {
    failing.resize(first_mismatch + 1);
    bool progress = true;
    while (progress && failing.size() > 1) {
      progress = false;
      for (std::size_t i = 0; i + 1 < failing.size(); ++i) {
        auto candidate = failing;
        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
        const ReplayResult r = replay(candidate);
        if (r.outcome == ReplayOutcome::kMismatch) {
          candidate.resize(r.first_mismatch + 1);
          failing = std::move(candidate);
          progress = true;
          break;
        }
      }
    }
    return failing;
  }
};

template <RoutingAlgebra A>
void run_differential_trace(
    const ChurnScenario<A>& scenario,
    const std::vector<ChurnEvent<typename A::Weight>>& trace) {
  const A& alg = scenario.alg;
  const std::uint64_t seed = scenario.seed;
  ASSERT_FALSE(trace.empty()) << alg.name() << " seed=" << seed;
  const ReplayResult full = scenario.replay(trace);
  ASSERT_NE(full.outcome, ReplayOutcome::kInvalid)
      << alg.name() << " seed=" << seed
      << ": generated trace must be consistent";
  if (full.outcome == ReplayOutcome::kAllMatch) return;

  // Minimize before reporting.
  const auto shrunk = scenario.shrink(trace, full.first_mismatch);
  auto inst = test::seeded_instance(alg, seed, scenario.n, scenario.p);
  std::ostringstream report;
  report << alg.name() << " seed=" << seed << ": incremental repair diverged ("
         << full.detail << ") at event " << full.first_mismatch << " of "
         << trace.size() << ".\nShrunk to " << shrunk.size()
         << " event(s):\n";
  for (const auto& ev : shrunk) {
    report << "  " << describe_event(alg, ev, inst.graph) << "\n";
  }
  ADD_FAILURE() << report.str();
}

template <RoutingAlgebra A>
void run_differential_trace(const A& alg, std::uint64_t seed) {
  const ChurnScenario<A> scenario{alg, seed};
  run_differential_trace(scenario, scenario.make_trace());
}

class ChurnSeeds : public ::testing::TestWithParam<std::uint64_t> {};

// 18 seeds × 3 algebras = 54 seeded traces, ≥50 as the harness pins.
// The algebras cover Table 1's spread: strictly monotone additive
// (shortest path), tie-heavy bottleneck (widest path, where order-equal
// ≠ byte-equal and non-strict balls kick in), and multiplicative
// reliability.
TEST_P(ChurnSeeds, ShortestPathIncrementalMatchesRebuild) {
  run_differential_trace(ShortestPath{16}, GetParam());
}
TEST_P(ChurnSeeds, WidestPathIncrementalMatchesRebuild) {
  run_differential_trace(WidestPath{8}, GetParam());
}
TEST_P(ChurnSeeds, MostReliableIncrementalMatchesRebuild) {
  run_differential_trace(MostReliablePath{}, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Traces, ChurnSeeds,
                         ::testing::Range<std::uint64_t>(1, 19));

// Unit-weight churn: every tree the repair recomputes, and every tree of
// the rebuild oracle, takes the BFS lane.
class UnitChurnSeeds : public ::testing::TestWithParam<std::uint64_t> {};

// Links go down and come back up at weight 1 (ShortestPath{1} samples
// nothing else), so the weights stay uniform for the whole trace.
TEST_P(UnitChurnSeeds, FlapOnlyUnitWeightMatchesRebuild) {
  ChurnScenario<ShortestPath> scenario{ShortestPath{1}, GetParam()};
  scenario.trace_options.p_down = 0.5;
  scenario.trace_options.p_up = 0.5;
  const auto trace = scenario.make_trace();
  for (const auto& ev : trace) {
    ASSERT_NE(ev.kind, ChurnKind::kWeightChange);
  }
  run_differential_trace(scenario, trace);
}

// Unit weights, then one edge moves to weight 3 and back to 1, with a
// link flap in each state: the per-event gather in apply_event sees
// non-uniform weights (heap) and uniform ones again (BFS) in turn, and
// every repair must still match the rebuild and the heap.
std::vector<ChurnEvent<std::uint64_t>> lane_switch_trace(const Graph& g,
                                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<bool> alive(g.edge_count(), true);
  std::vector<ChurnEvent<std::uint64_t>> trace;
  double now = 0;
  const auto push = [&](ChurnKind kind, EdgeId e, std::uint64_t w) {
    ChurnEvent<std::uint64_t> ev;
    ev.time = now += 1;
    ev.kind = kind;
    ev.edge = e;
    ev.new_weight = w;
    trace.push_back(ev);
  };
  for (int round = 0; round < 4; ++round) {
    const EdgeId e = static_cast<EdgeId>(rng.index(g.edge_count()));
    EdgeId d = kInvalidEdge;
    for (int attempt = 0; attempt < 64 && d == kInvalidEdge; ++attempt) {
      const EdgeId c = static_cast<EdgeId>(rng.index(g.edge_count()));
      if (c != e && connected_without_edge(g, alive, c)) d = c;
    }
    push(ChurnKind::kWeightChange, e, 3);  // non-uniform: heap lane
    if (d != kInvalidEdge) push(ChurnKind::kEdgeDown, d, 0);
    push(ChurnKind::kWeightChange, e, 1);  // uniform again: BFS lane
    if (d != kInvalidEdge) push(ChurnKind::kEdgeUp, d, 1);
  }
  return trace;
}

TEST_P(UnitChurnSeeds, LaneSwitchingTraceMatchesRebuild) {
  const ChurnScenario<ShortestPath> scenario{ShortestPath{1}, GetParam()};
  const auto inst = test::seeded_instance(scenario.alg, scenario.seed,
                                          scenario.n, scenario.p);
  run_differential_trace(scenario,
                         lane_switch_trace(inst.graph, scenario.seed));
}

INSTANTIATE_TEST_SUITE_P(Traces, UnitChurnSeeds,
                         ::testing::Range<std::uint64_t>(1, 19));

// The Cowen fallback path: a threshold of 0 pushes every event with a
// non-empty dirty set through the parallel rebuild_from, which must land
// in the same state as the forced-incremental path.
TEST(ChurnDifferential, FallbackRebuildAgreesWithIncremental) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 77, 18, 0.25);
  ChurnEngine<ShortestPath> engine(alg, inst.graph, inst.weights);
  auto incremental =
      CowenScheme<ShortestPath>::build(alg, inst.graph, inst.weights, inst.rng);
  CowenScheme<ShortestPath> fallback(incremental);

  Rng trace_rng(7);
  const auto trace =
      random_churn_trace(alg, inst.graph, inst.weights, 12, trace_rng);
  ASSERT_FALSE(trace.empty());
  bool saw_fallback = false;
  for (const auto& ev : trace) {
    const auto applied = engine.apply(ev);
    incremental.apply_event(applied.edge, applied.old_weight,
                            applied.new_weight, engine.weights(),
                            kNeverRebuild);
    const CowenRepairStats stats = fallback.apply_event(
        applied.edge, applied.old_weight, applied.new_weight, engine.weights(),
        /*rebuild_dirty_fraction=*/0.0);
    saw_fallback = saw_fallback || stats.full_rebuild;
    for (NodeId u = 0; u < inst.graph.node_count(); ++u) {
      ASSERT_EQ(incremental.landmark_of(u), fallback.landmark_of(u)) << u;
      ASSERT_EQ(incremental.cluster_size(u), fallback.cluster_size(u)) << u;
      ASSERT_EQ(incremental.table(u), fallback.table(u)) << u;
      ASSERT_EQ(incremental.port_at_landmark(u), fallback.port_at_landmark(u))
          << u;
    }
  }
  EXPECT_TRUE(saw_fallback);
}

TEST(ChurnEngine, RejectsInconsistentEvents) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 3, 10, 0.4);
  ChurnEngine<ShortestPath> engine(alg, inst.graph, inst.weights);

  ChurnEvent<std::uint64_t> down{0.0, ChurnKind::kEdgeDown, 0, {}};
  engine.apply(down);
  EXPECT_FALSE(engine.alive(0));
  EXPECT_EQ(engine.down_count(), 1u);
  EXPECT_TRUE(engine.down_mask()[0]);
  // Double down.
  EXPECT_THROW(engine.apply(down), std::invalid_argument);
  // Weight change on a dead edge.
  ChurnEvent<std::uint64_t> change{1.0, ChurnKind::kWeightChange, 0, 3};
  EXPECT_THROW(engine.apply(change), std::invalid_argument);
  // Up with a φ payload.
  ChurnEvent<std::uint64_t> bad_up{2.0, ChurnKind::kEdgeUp, 0,
                                   alg.phi()};
  EXPECT_THROW(engine.apply(bad_up), std::invalid_argument);
  // Legal up restores the edge.
  ChurnEvent<std::uint64_t> up{3.0, ChurnKind::kEdgeUp, 0, 5};
  const auto applied = engine.apply(up);
  EXPECT_TRUE(engine.alive(0));
  EXPECT_EQ(applied.new_weight, 5u);
  EXPECT_TRUE(alg.is_phi(applied.old_weight));
  // Up on a live edge.
  EXPECT_THROW(engine.apply(up), std::invalid_argument);
  // Out-of-range edge id.
  ChurnEvent<std::uint64_t> oob{4.0, ChurnKind::kEdgeDown,
                                inst.graph.edge_count(), {}};
  EXPECT_THROW(engine.apply(oob), std::invalid_argument);
}

TEST(ChurnEngine, ErrorMessagesCarryEventContext) {
  // A malformed trace must be locatable from the message alone: index in
  // the applied sequence, timestamp, edge id.
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 3, 10, 0.4);
  ChurnEngine<ShortestPath> engine(alg, inst.graph, inst.weights);
  ASSERT_EQ(engine.applied_events(), 0u);

  engine.apply({0.0, ChurnKind::kEdgeDown, 2, {}});
  engine.apply({1.0, ChurnKind::kEdgeUp, 2, 7});
  ASSERT_EQ(engine.applied_events(), 2u);

  const auto message_of = [&](const ChurnEvent<std::uint64_t>& ev) {
    try {
      engine.apply(ev);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("NO THROW");
  };

  // The third event (index 2) goes bad; failed applies must not advance
  // the index.
  EXPECT_EQ(message_of({2.5, ChurnKind::kEdgeUp, 2, 7}),
            "ChurnEngine: edge already up (event index 2, t=2.500000, edge 2)");
  EXPECT_EQ(message_of({3.0, ChurnKind::kEdgeUp, 2, alg.phi()}),
            "ChurnEngine: edge already up (event index 2, t=3.000000, edge 2)");
  EXPECT_EQ(
      message_of({3.5, ChurnKind::kEdgeDown, inst.graph.edge_count(), {}}),
      "ChurnEngine: event edge out of range (event index 2, t=3.500000, edge " +
          std::to_string(inst.graph.edge_count()) + ")");
  engine.apply({4.0, ChurnKind::kEdgeDown, 2, {}});
  EXPECT_EQ(message_of({4.5, ChurnKind::kEdgeDown, 2, {}}),
            "ChurnEngine: edge already down (event index 3, t=4.500000, edge 2)");
  EXPECT_EQ(message_of({5.0, ChurnKind::kWeightChange, 2, 9}),
            "ChurnEngine: weight change on a down edge (event index 3, "
            "t=5.000000, edge 2)");
  EXPECT_EQ(message_of({5.5, ChurnKind::kEdgeUp, 2, alg.phi()}),
            "ChurnEngine: up event with phi weight (event index 3, t=5.500000, "
            "edge 2)");
  EXPECT_EQ(engine.applied_events(), 3u);
}

TEST(ChurnEngine, GeneratedTracesStayConsistentAndConnected) {
  const ShortestPath alg{32};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto inst = test::seeded_instance(alg, seed, 16, 0.3);
    Rng trace_rng(seed);
    const auto trace =
        random_churn_trace(alg, inst.graph, inst.weights, 30, trace_rng);
    ChurnEngine<ShortestPath> engine(alg, inst.graph, inst.weights);
    for (const auto& ev : trace) {
      ASSERT_NO_THROW(engine.apply(ev)) << "seed=" << seed;
      // keep_connected holds after every prefix, not just at the end.
      ASSERT_TRUE(engine.connected()) << "seed=" << seed;
    }
  }
}

// Protocol wiring: a down-only churn trace, translated by
// protocol_failures onto the mirrored digraph, must leave the path-vector
// protocol converged to the preferred weights of the φ-masked overlay —
// i.e. failures really do act as withdrawals and the survivors re-route.
TEST(ChurnProtocolWiring, FailuresBecomeWithdrawals) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 21, 14, 0.35);
  const Graph& g = inst.graph;

  ChurnTraceOptions opt;
  opt.p_down = 1.0;  // only failures have a protocol counterpart
  opt.p_up = 0.0;
  Rng trace_rng(9);
  const auto trace =
      random_churn_trace(alg, g, inst.weights, 4, trace_rng, opt);
  ASSERT_FALSE(trace.empty());

  ChurnEngine<ShortestPath> engine(alg, g, inst.weights);
  for (const auto& ev : trace) engine.apply(ev);

  const Digraph mirror = digraph_mirror(g);
  ASSERT_EQ(mirror.arc_count(), 2 * g.edge_count());
  const ArcMap<std::uint64_t> arc_w = mirror_arc_weights(g, inst.weights);
  const auto failures = protocol_failures(trace);
  ASSERT_EQ(failures.size(), trace.size());

  PathVectorProtocol<ShortestPath> proto(alg, mirror, arc_w);
  const NodeId dest = 0;
  Rng proto_rng(4);
  const auto result = proto.run(dest, proto_rng, {}, failures);
  ASSERT_TRUE(result.converged);

  // Oracle: preferred weights on the post-churn overlay (undirected
  // weights are symmetric, so the tree from dest gives every v→dest
  // weight).
  const auto oracle = dijkstra(alg, g, engine.weights(), dest);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (v == dest) continue;
    ASSERT_EQ(result.has_route(v), oracle.weight(v).has_value()) << "v=" << v;
    if (result.has_route(v)) {
      EXPECT_TRUE(order_equal(alg, *result.weight[v], *oracle.weight(v)))
          << "v=" << v << " proto=" << alg.to_string(*result.weight[v])
          << " oracle=" << alg.to_string(*oracle.weight(v));
    }
  }
}

// Convergence-window measurement: after repair the spanning-tree scheme
// routes over a valid spanning tree of the *live* overlay (the trace
// keeps the graph connected), so the repaired delivery rate is exactly 1
// while the stale rate is whatever the convergence window lost.
TEST(ChurnResilience, RepairedTreeDeliversEverything) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 13, 20, 0.25);
  ChurnEngine<ShortestPath> engine(alg, inst.graph, inst.weights);
  auto scheme =
      SpanningTreeScheme<ShortestPath>::build(alg, inst.graph, inst.weights);

  Rng trace_rng(31);
  const auto trace =
      random_churn_trace(alg, inst.graph, inst.weights, 15, trace_rng);
  Rng pair_rng(8);
  const ChurnResilienceReport report = measure_resilience_under_churn(
      scheme, engine, trace, /*pairs_per_event=*/40, pair_rng);

  EXPECT_EQ(report.events, trace.size());
  EXPECT_EQ(report.pairs_per_event, 40u);
  EXPECT_DOUBLE_EQ(report.repaired_rate(), 1.0);
  EXPECT_LE(report.stale_delivered, report.repaired_delivered);
}

}  // namespace
}  // namespace cpr
