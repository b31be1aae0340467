// Differential coverage for the compiled forwarding plane.
//
// Property, per seed of the random-graph corpus and per scheme family
// (heavy-path tree, interval, Cowen landmarks, TZ, BGP mesh): the compiled
// FlatFib served by forward_batch is *bit-identical* — delivered flags
// and full hop-by-hop paths — to the object-based oracle
// (route_batch_object / simulate_route_with_failures), at 1 and 8
// threads, both freshly compiled and after a serialize → from_blob round
// trip. The destination-table baselines have no compiled kind (pinned
// below); their batch paths are checked against each other instead.
// Plus: corrupted blobs (every byte position) and truncated blobs are
// rejected by the validating loader instead of misrouting.
#include "algebra/primitives.hpp"
#include "bgp/bgp_schemes.hpp"
#include "fib/compile.hpp"
#include "fib/forward_engine.hpp"
#include "routing/dijkstra.hpp"
#include "scheme/compressed_table.hpp"
#include "scheme/cowen.hpp"
#include "scheme/dest_table.hpp"
#include "scheme/interval_router.hpp"
#include "scheme/spanning_tree.hpp"
#include "scheme/tree_router.hpp"
#include "scheme/tz_name_independent.hpp"
#include "sim/resilience.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace cpr {
namespace {

constexpr std::size_t kCorpusSeeds = 50;
constexpr std::size_t kN = 18;
constexpr double kP = 0.25;

std::vector<std::pair<NodeId, NodeId>> all_pairs(std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> q;
  q.reserve(n * n);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) q.emplace_back(s, t);
  }
  return q;
}

// next_hop[t][u] = neighbor of u toward t along the preferred tree of t.
template <RoutingAlgebra A>
std::vector<std::vector<NodeId>> preferred_next_hops(
    const A& alg, const Graph& g, const EdgeMap<typename A::Weight>& w) {
  const auto trees = all_pairs_trees(alg, CsrGraph(g), w);
  std::vector<std::vector<NodeId>> next(g.node_count());
  for (NodeId t = 0; t < g.node_count(); ++t) next[t] = trees[t].parent;
  return next;
}

// The destination-table baselines route on their scheme objects: with
// no compile_fib overload, route_batch and route_pairs_with_failures take
// the object branch of their `requires { compile_fib(scheme, g); }`
// check. Pinned so a stray adapter cannot reintroduce a compiled table
// path (which served slower than the object lookup it replaced); the
// positive pin keeps the probe itself honest.
template <typename S>
concept FibCompilable = requires(const S& scheme, const Graph& g) {
  compile_fib(scheme, g);
};
static_assert(!FibCompilable<CompressedTableScheme>);
static_assert(!FibCompilable<DestinationTableScheme>);
static_assert(FibCompilable<IntervalRouter>);

// forward_batch output == oracle RouteResults, element by element.
void expect_identical(const std::vector<RouteResult>& oracle,
                      const FibBatchOutput& out, const char* what) {
  ASSERT_EQ(oracle.size(), out.results.size()) << what;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(oracle[i].delivered, out.results[i].delivered != 0)
        << what << " query " << i;
    const auto path = out.path(i);
    ASSERT_EQ(oracle[i].path.size(), path.size()) << what << " query " << i;
    for (std::size_t k = 0; k < path.size(); ++k) {
      EXPECT_EQ(oracle[i].path[k], path[k])
          << what << " query " << i << " hop " << k;
    }
  }
}

// The full differential + round-trip battery for one built scheme.
template <typename S>
void check_family(const S& scheme, const Graph& g, std::uint64_t seed,
                  const char* family) {
  SCOPED_TRACE(testing::Message() << family << " seed " << seed);
  const auto queries = all_pairs(g.node_count());
  ThreadPool pool1(1), pool8(8);
  const auto oracle = route_batch_object(scheme, g, queries, &pool1);

  const FlatFib fib = compile_fib(scheme, g);
  for (ThreadPool* pool : {&pool1, &pool8}) {
    FibBatchOptions opt;
    opt.pool = pool;
    expect_identical(oracle, forward_batch(fib, queries, opt), "compiled");
  }

  // Serialize → zero-copy reload → identical answers, no reconstruction.
  const auto blob = fib.blob();
  const FlatFib reloaded =
      FlatFib::from_blob({blob.data(), blob.size()});
  EXPECT_EQ(reloaded.kind(), fib.kind());
  EXPECT_EQ(reloaded.node_count(), fib.node_count());
  {
    FibBatchOptions opt;
    opt.pool = &pool8;
    expect_identical(oracle, forward_batch(reloaded, queries, opt),
                     "reloaded");
  }

  // The rewired public route_batch dispatches to the compiled plane and
  // must agree with the object oracle too.
  const auto rewired = route_batch(scheme, g, queries, &pool8);
  ASSERT_EQ(rewired.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(oracle[i].delivered, rewired[i].delivered) << "query " << i;
    EXPECT_EQ(oracle[i].path, rewired[i].path) << "query " << i;
  }

  // Failure mode: dead-edge drops + loop detection against the
  // step-by-step oracle, paths included.
  Rng fail_rng(seed ^ 0xf00dull);
  std::vector<bool> down(g.edge_count(), false);
  for (std::size_t e :
       fail_rng.sample_without_replacement(g.edge_count(),
                                           g.edge_count() / 5)) {
    down[e] = true;
  }
  FibBatchOptions fopt;
  fopt.pool = &pool8;
  fopt.edge_down = &down;
  const FibBatchOutput failed = forward_batch(fib, queries, fopt);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto [s, t] = queries[i];
    const RouteResult r = simulate_route_with_failures(scheme, g, down, s, t);
    EXPECT_EQ(r.delivered, failed.results[i].delivered != 0)
        << "failure query " << i;
    EXPECT_EQ(r.looped, failed.results[i].looped != 0)
        << "failure query " << i;
    const auto path = failed.path(i);
    ASSERT_EQ(r.path.size(), path.size()) << "failure query " << i;
    for (std::size_t k = 0; k < path.size(); ++k) {
      EXPECT_EQ(r.path[k], path[k]) << "failure query " << i << " hop " << k;
    }
  }
}

class FibSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FibSeeds, TreeFamilyMatchesObjectPath) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, GetParam(), kN, kP);
  const auto scheme =
      SpanningTreeScheme<ShortestPath>::build(alg, inst.graph, inst.weights);
  check_family(scheme, inst.graph, GetParam(), "tree");
}

TEST_P(FibSeeds, IntervalFamilyMatchesObjectPath) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, GetParam(), kN, kP);
  const IntervalRouter router(
      inst.graph, preferred_spanning_tree(alg, inst.graph, inst.weights));
  check_family(router, inst.graph, GetParam(), "interval");
}

TEST_P(FibSeeds, CowenFamilyMatchesObjectPath) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, GetParam(), kN, kP);
  const auto scheme = CowenScheme<ShortestPath>::build(alg, inst.graph,
                                                       inst.weights, inst.rng);
  check_family(scheme, inst.graph, GetParam(), "cowen");
}

// Name-independent TZ: queries address external *names*; the compiled
// kTz arena resolves them through the bucketed dictionary and forwards
// in label space. The same generic battery applies — the oracle is the
// scheme's own object path, and the non-identity label permutation (the
// build draws one explicitly) means any node-id/label confusion in the
// walker or the compile adapter misroutes immediately.
TEST_P(FibSeeds, TzFamilyMatchesObjectPath) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, GetParam(), kN, kP);
  const auto scheme = TzNameIndependentScheme<ShortestPath>::build(
      alg, inst.graph, inst.weights, inst.rng);
  ASSERT_FALSE(scheme.labels().is_identity());
  check_family(scheme, inst.graph, GetParam(), "tz");
}

// The destination-table baselines have no arena: route_batch and
// route_pairs_with_failures serve them on the object branch. Over the
// same preferred next hops, the DFS-relabeled CompressedTableScheme must
// route hop for hop like the identity-labeled DestinationTableScheme
// walked one query at a time — relabeling renames headers, never routes
// — both batched on 8 threads and under a failure mask.
TEST_P(FibSeeds, TableFamilyMatchesObjectPath) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, GetParam(), kN, kP);
  const Graph& g = inst.graph;
  const auto next = preferred_next_hops(alg, g, inst.weights);
  const auto tree_edges = preferred_spanning_tree(alg, g, inst.weights);
  const RootedTree tree = RootedTree::from_edges(g, tree_edges, 0);
  const CompressedTableScheme compressed(
      g, next, CompressedTableScheme::dfs_relabeling(g, tree.parent, 0));
  const DestinationTableScheme plain(g, next);

  const auto queries = all_pairs(g.node_count());
  ThreadPool pool8(8);
  const auto batch = route_batch(compressed, g, queries, &pool8);
  Rng fail_rng(GetParam() ^ 0xf00dull);
  std::vector<bool> down(g.edge_count(), false);
  for (std::size_t e :
       fail_rng.sample_without_replacement(g.edge_count(),
                                           g.edge_count() / 5)) {
    down[e] = true;
  }
  const auto flags = route_pairs_with_failures(compressed, g, down, queries);
  ASSERT_EQ(batch.size(), queries.size());
  ASSERT_EQ(flags.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto [s, t] = queries[i];
    const RouteResult r = simulate_route(plain, g, s, t);
    EXPECT_EQ(r.delivered, batch[i].delivered) << "query " << i;
    EXPECT_EQ(r.path, batch[i].path) << "query " << i;
    const RouteResult f = simulate_route_with_failures(plain, g, down, s, t);
    EXPECT_EQ(f.delivered, flags[i].first) << "failure query " << i;
    EXPECT_EQ(f.looped, flags[i].second) << "failure query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, FibSeeds,
                         ::testing::Range<std::uint64_t>(0, kCorpusSeeds));

// ---- Blob validation ----

FlatFib sample_fib() {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 7, kN, kP);
  const auto scheme = CowenScheme<ShortestPath>::build(alg, inst.graph,
                                                       inst.weights, inst.rng);
  return compile_fib(scheme, inst.graph);
}

FlatFib sample_tz_fib() {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 7, kN, kP);
  const auto scheme = TzNameIndependentScheme<ShortestPath>::build(
      alg, inst.graph, inst.weights, inst.rng);
  return compile_fib(scheme, inst.graph);
}

void expect_every_byte_flip_rejected(const FlatFib& fib) {
  const auto blob = fib.blob();
  const std::vector<std::uint8_t> bytes(blob.begin(), blob.end());
  // Every byte of the blob is guarded: header and directory fields by
  // explicit validation, padding by the all-zeros checks, sections by the
  // XXH64 payload checksum. Flip one bit per byte position and expect a loud throw.
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[pos] ^= 0x20;
    EXPECT_THROW(FlatFib::from_blob(corrupt), std::runtime_error)
        << "undetected corruption at byte " << pos;
  }
}

TEST(FibBlob, EveryByteFlipIsRejected) {
  expect_every_byte_flip_rejected(sample_fib());
}

// The label sections (label map, dictionary) are covered by the same
// payload checksum and the same structural validation as everything
// else; a kTz blob must reject every single-byte flip just like a Cowen
// one.
TEST(FibBlob, TzEveryByteFlipIsRejected) {
  const FlatFib fib = sample_tz_fib();
  ASSERT_EQ(fib.blob_version(), 6u);
  expect_every_byte_flip_rejected(fib);
}

// The payload checksum is XXH64 with seed 0, pinned by the published
// test vectors so a producer and a verifier built from different
// commits cannot silently disagree. The inputs cover the short path
// (under 32 bytes: 1-byte, 4-byte and 8-byte tails) and the four-lane
// stripe loop.
TEST(FibBlob, PayloadChecksumIsXxh64) {
  const auto xxh = [](const std::string& s) {
    return fib_payload_checksum(s.data(), s.size());
  };
  EXPECT_EQ(xxh(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(xxh("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(xxh("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(xxh("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ull);
  // Unaligned input: the lanes load through memcpy, so the same bytes
  // hash identically at any address.
  const std::string text = "Nobody inspects the spammish repetition";
  std::vector<char> shifted(text.size() + 1);
  std::memcpy(shifted.data() + 1, text.data(), text.size());
  EXPECT_EQ(fib_payload_checksum(shifted.data() + 1, text.size()),
            0xfbcea83c8a378bf1ull);
}

TEST(FibBlob, TruncationIsRejected) {
  const FlatFib fib = sample_fib();
  const auto blob = fib.blob();
  const std::vector<std::uint8_t> bytes(blob.begin(), blob.end());
  for (const double frac : {0.0, 0.1, 0.25, 0.5, 0.75, 0.99}) {
    const std::size_t keep =
        static_cast<std::size_t>(static_cast<double>(bytes.size()) * frac);
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    EXPECT_THROW(FlatFib::from_blob(cut), std::runtime_error)
        << "undetected truncation to " << keep << " bytes";
  }
}

TEST(FibBlob, EmptyAndGarbageInputsAreRejected) {
  EXPECT_THROW(FlatFib::from_blob({}), std::runtime_error);
  const std::vector<std::uint8_t> garbage(256, 0xab);
  EXPECT_THROW(FlatFib::from_blob(garbage), std::runtime_error);
}

// ---- Capacity CSR width ----
//
// The arena stores Cowen/TZ row offsets as u32. Row capacities (live
// length + churn slack) are summed in u64 and a total past UINT32_MAX
// must throw std::length_error before the row section is sized — at
// n ≈ 10^6 with fib_churn_maintain_options() the u32 sum used to wrap,
// undersize the rows and let compile write past them. The synthetic
// schemes below only report table sizes; their tables iterate as empty,
// so a regression would try a multi-GiB allocation instead of throwing,
// never a silent pass.

struct SizedTable {
  std::size_t n = 0;
  std::size_t size() const { return n; }
  const std::pair<NodeId, Port>* begin() const { return nullptr; }
  const std::pair<NodeId, Port>* end() const { return nullptr; }
};

struct HugeCowenTables {
  std::vector<std::size_t> sizes;
  SizedTable table(NodeId v) const { return {sizes[v]}; }
  NodeId landmark_of(NodeId) const { return 0; }
  Port port_at_landmark(NodeId) const { return kInvalidPort; }
};

struct HugeTzTables {
  std::vector<std::size_t> sizes;
  SizedTable labeled_table(NodeId v) const { return {sizes[v]}; }
  std::uint32_t label_of_node(NodeId v) const { return v; }
  std::uint32_t landmark_label_at(std::uint32_t) const { return 0; }
  Port port_at_landmark_at(std::uint32_t) const { return kInvalidPort; }
};

Graph path3() {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  return g;
}

TEST(FibCompileWidth, RowCapacitiesPastU32Throw) {
  const Graph g = path3();
  constexpr std::size_t kHalf = std::size_t{1} << 31;
  // Live lengths alone wrap a u32 sum: 2^31 + 2^31 + 5 ≡ 5 (mod 2^32).
  const std::vector<std::size_t> wrap = {kHalf, kHalf, 5};
  EXPECT_THROW(compile_fib(HugeCowenTables{wrap}, g), std::length_error);
  EXPECT_THROW(compile_fib(HugeTzTables{wrap}, g), std::length_error);

  // Lengths fit (2^32 - 2 in total); the churn slack pushes it over.
  const std::vector<std::size_t> fits = {kHalf - 1, kHalf - 1, 0};
  FibCompileOptions slack;
  slack.row_slack_min = 8;
  EXPECT_THROW(compile_fib(HugeCowenTables{fits}, g, slack),
               std::length_error);
  EXPECT_THROW(compile_fib(HugeTzTables{fits}, g, slack), std::length_error);
  EXPECT_THROW(compile_fib(HugeCowenTables{fits}, g,
                           fib_churn_maintain_options().compile),
               std::length_error);
}

// The tree, mesh and interval adapters narrow their light, label and
// child offsets through fib_u32_offset: the largest u32 passes through,
// one more throws naming the section.
TEST(FibCompileWidth, OffsetNarrowingThrowsPastU32) {
  constexpr std::uint64_t kMax = UINT32_MAX;
  EXPECT_EQ(fib_u32_offset(kMax, "tree light offsets"), UINT32_MAX);
  EXPECT_EQ(fib_u32_offset(0, "tree light offsets"), 0u);
  EXPECT_THROW(fib_u32_offset(kMax + 1, "tree light offsets"),
               std::length_error);
  try {
    fib_u32_offset(kMax + 1, "interval child offsets");
    FAIL() << "no throw";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("interval child offsets"),
              std::string::npos)
        << e.what();
  }
}

// ---- Degenerate graphs ----
//
// node_count == 0 is legal, and single-node / single-edge graphs hit
// every boundary condition in the per-kind validators (empty CSRs,
// sentinel-only offset arrays, rootless trees). Every compiled family
// must round-trip through blob() → from_blob and keep forwarding.

// Serialize → reload → serve an (empty) batch; validation must accept.
void expect_degenerate_roundtrip(const FlatFib& fib, std::size_t n) {
  EXPECT_EQ(fib.node_count(), n);
  const auto blob = fib.blob();
  const FlatFib reloaded = FlatFib::from_blob({blob.data(), blob.size()});
  EXPECT_EQ(reloaded.kind(), fib.kind());
  EXPECT_EQ(reloaded.node_count(), n);
  const auto queries = all_pairs(n);
  FibBatchOptions opt;
  const FibBatchOutput out = forward_batch(reloaded, queries, opt);
  ASSERT_EQ(out.results.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // On these tiny connected graphs every pair must deliver.
    EXPECT_EQ(out.results[i].delivered != 0, true) << "query " << i;
  }
}

// The empty graph has no scheme builders, so assemble the minimal valid
// arena of each kind by hand: sentinel-only offset arrays and zero-length
// payload sections.
TEST(FibDegenerate, EmptyGraphRoundTripsEveryKind) {
  const Graph g(0);
  const std::vector<std::uint32_t> sentinel{0};
  const std::vector<std::uint32_t> none;
  {
    FibBuilder b(FibKind::kTree, 0);
    b.add_topology(g);
    b.add_array(fib_section::kTreeNodes, std::vector<FibTreeNode>(1));
    b.add_array(fib_section::kTreeLightPorts, none);
    b.add_array(fib_section::kTreeLabelOff, sentinel);
    b.add_array(fib_section::kTreeLabelSeq, none);
    expect_degenerate_roundtrip(b.finish(), 0);
  }
  {
    FibBuilder b(FibKind::kInterval, 0);
    b.add_topology(g);
    b.add_array(fib_section::kIntervalNodes, std::vector<FibIntervalNode>(1));
    b.add_array(fib_section::kIntervalChildIn, none);
    b.add_array(fib_section::kIntervalChildPort, none);
    expect_degenerate_roundtrip(b.finish(), 0);
  }
  {
    FibBuilder b(FibKind::kCowen, 0);
    b.add_topology(g);
    b.add_array(fib_section::kCowenRowOff, sentinel);
    b.add_array(fib_section::kCowenRowLen, none);
    b.add_array(fib_section::kCowenRows, std::vector<std::uint64_t>{});
    b.add_array(fib_section::kCowenLandmark, none);
    b.add_array(fib_section::kCowenLandmarkPort, none);
    expect_degenerate_roundtrip(b.finish(), 0);
  }
  {
    // kTz adds the label map (empty permutation) and the dictionary —
    // whose header must still carry a nonzero bucket count (the shared
    // sizing helper never returns 0) with every slot empty.
    FibBuilder b(FibKind::kTz, 0);
    b.add_topology(g);
    b.add_array(fib_section::kCowenRowOff, sentinel);
    b.add_array(fib_section::kCowenRowLen, none);
    b.add_array(fib_section::kCowenRows, std::vector<std::uint64_t>{});
    b.add_array(fib_section::kCowenLandmark, none);
    b.add_array(fib_section::kCowenLandmarkPort, none);
    b.add_array(fib_section::kLabelMap, none);
    b.add_array(fib_section::kDictionary,
                std::vector<std::uint64_t>{1, 1, kFibDictEmpty});
    expect_degenerate_roundtrip(b.finish(), 0);
  }
  {
    FibBuilder b(FibKind::kMesh, 0);
    b.add_topology(g);
    b.add_array(fib_section::kMeshInfo, sentinel);  // component_count == 0
    b.add_array(fib_section::kMeshComp, none);
    b.add_array(fib_section::kMeshPeerPort, none);
    b.add_array(fib_section::kMeshNodes, std::vector<FibTreeNode>(1));
    b.add_array(fib_section::kMeshLightPorts, none);
    b.add_array(fib_section::kMeshLabelOff, sentinel);
    b.add_array(fib_section::kMeshLabelSeq, none);
    expect_degenerate_roundtrip(b.finish(), 0);
  }
}

// A nonzero component count on an empty FIB must be rejected, not served.
TEST(FibDegenerate, EmptyMeshWithComponentsIsRejected) {
  FibBuilder b(FibKind::kMesh, 0);
  b.add_topology(Graph(0));
  b.add_array(fib_section::kMeshInfo, std::vector<std::uint32_t>{1});
  b.add_array(fib_section::kMeshComp, std::vector<std::uint32_t>{});
  b.add_array(fib_section::kMeshPeerPort, std::vector<std::uint32_t>{});
  b.add_array(fib_section::kMeshNodes, std::vector<FibTreeNode>(1));
  b.add_array(fib_section::kMeshLightPorts, std::vector<std::uint32_t>{});
  b.add_array(fib_section::kMeshLabelOff, std::vector<std::uint32_t>{0});
  b.add_array(fib_section::kMeshLabelSeq, std::vector<std::uint32_t>{});
  EXPECT_THROW(b.finish(), std::runtime_error);
}

// Single-node and two-node-single-edge instances of the plain families,
// put through the full differential battery (compile, round-trip,
// route_batch, failure modes).
void check_plain_degenerate(const Graph& g, std::uint64_t seed) {
  const ShortestPath alg{16};
  Rng rng(seed);
  const auto w = test::sampled_weights(alg, g, rng);
  {
    const auto scheme = SpanningTreeScheme<ShortestPath>::build(alg, g, w);
    check_family(scheme, g, seed, "tree-degenerate");
  }
  {
    const IntervalRouter router(g, preferred_spanning_tree(alg, g, w));
    check_family(router, g, seed, "interval-degenerate");
  }
  {
    const auto scheme = CowenScheme<ShortestPath>::build(alg, g, w, rng);
    check_family(scheme, g, seed, "cowen-degenerate");
  }
  {
    // n == 1 forces the identity label map (no non-trivial permutation
    // exists); the scheme and the kTz walker must still deliver.
    const auto scheme =
        TzNameIndependentScheme<ShortestPath>::build(alg, g, w, rng);
    check_family(scheme, g, seed, "tz-degenerate");
  }
}

TEST(FibDegenerate, SingleNodePlainFamilies) {
  check_plain_degenerate(Graph(1), 11);
}

TEST(FibDegenerate, TwoNodeSingleEdgePlainFamilies) {
  Graph g(2);
  g.add_edge(0, 1);
  check_plain_degenerate(g, 12);
}

TEST(FibDegenerate, SingleNodeBgpFamilies) {
  AsTopology topo;
  topo.graph = Digraph(1);
  const ProviderTreeScheme pt(topo);
  check_family(pt, pt.shadow(), 21, "provider-tree-n1");
  const SvfcPeerMeshScheme mesh(topo);
  EXPECT_EQ(mesh.component_count(), 1u);
  check_family(mesh, mesh.shadow(), 21, "mesh-n1");
}

TEST(FibDegenerate, TwoNodeSingleProviderEdgeBgpFamilies) {
  AsTopology topo;
  topo.graph = Digraph(2);
  topo.graph.add_arc_pair(1, 0);  // 1's provider is 0
  topo.relation.push_back(Relationship::kProvider);
  topo.relation.push_back(Relationship::kCustomer);
  const ProviderTreeScheme pt(topo);
  check_family(pt, pt.shadow(), 22, "provider-tree-n2");
  const SvfcPeerMeshScheme mesh(topo);
  EXPECT_EQ(mesh.component_count(), 1u);
  check_family(mesh, mesh.shadow(), 22, "mesh-n2");
}

TEST(FibDegenerate, TwoPeeredRootsCompileAsTwoComponentMesh) {
  // Two single-node provider trees joined only by the root peering —
  // the smallest FIB whose peer matrix actually routes a packet.
  AsTopology topo;
  topo.graph = Digraph(2);
  topo.graph.add_arc_pair(0, 1);
  topo.relation.push_back(Relationship::kPeer);
  topo.relation.push_back(Relationship::kPeer);
  const SvfcPeerMeshScheme mesh(topo);
  EXPECT_EQ(mesh.component_count(), 2u);
  check_family(mesh, mesh.shadow(), 23, "mesh-two-roots");
}

}  // namespace
}  // namespace cpr
