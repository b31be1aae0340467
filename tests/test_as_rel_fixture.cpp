// End-to-end sweep over the checked-in CAIDA-style as-rel snapshot
// excerpt (tests/data/as_rel_caida_excerpt.txt.gz): gunzip → read_as_rel
// → as_rel_underlay → landmark scheme builds (Cowen and the
// name-independent TZ layer) → compile_fib → forward_batch — the full
// pipeline a measured dataset takes, on a topology with the real shape
// (tier-1 clique, transit hierarchy, stub fringe) rather than a G(n, p)
// draw. Skips cleanly when the build has no zlib.
#include "algebra/primitives.hpp"
#include "bgp/as_io.hpp"
#include "fib/compile.hpp"
#include "fib/forward_engine.hpp"
#include "routing/dijkstra.hpp"
#include "scheme/cowen.hpp"
#include "scheme/tz_name_independent.hpp"
#include "test_support.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace cpr {
namespace {

#ifndef CPR_TEST_DATA_DIR
#error "CPR_TEST_DATA_DIR must point at tests/data"
#endif

const std::string kFixture =
    std::string(CPR_TEST_DATA_DIR) + "/as_rel_caida_excerpt.txt.gz";

// GTEST_SKIP needs a void context, so the gate stays a macro used at the
// top of each test body.
#define CPR_SKIP_WITHOUT_FIXTURE()                                      \
  do {                                                                  \
    if (!as_rel_gz_supported()) {                                       \
      GTEST_SKIP() << "build has no zlib; gzipped fixture not loadable"; \
    }                                                                   \
    if (!std::ifstream(kFixture)) {                                     \
      GTEST_SKIP() << "fixture missing: " << kFixture;                  \
    }                                                                   \
  } while (false)

TEST(AsRelFixture, SnapshotLoadsWithRealisticShape) {
  CPR_SKIP_WITHOUT_FIXTURE();
  const AsRelLoadResult loaded = read_as_rel_gz(kFixture);
  const AsUnderlay u = as_rel_underlay(loaded);
  // The excerpt is a few thousand links over ~2k ASes; pin loose floors
  // so a silently truncated fixture fails loudly.
  EXPECT_GT(u.graph.node_count(), 1500u);
  EXPECT_GT(u.graph.edge_count(), 3000u);
  ASSERT_EQ(u.unit_weights.size(), u.graph.edge_count());
  ASSERT_EQ(u.asn_of_node.size(), u.graph.node_count());
  // Tier-1 clique members from the fixture header must be present.
  bool has_3356 = false;
  for (const std::uint64_t asn : u.asn_of_node) has_3356 |= (asn == 3356);
  EXPECT_TRUE(has_3356);
  // Connected: one Dijkstra from node 0 reaches everyone (the underlay
  // a scheme build needs — no AS is transit-less in the excerpt).
  EdgeMap<std::uint64_t> w(u.graph.edge_count());
  for (auto& x : w) x = 1;
  const ShortestPath alg{};
  const auto tree = dijkstra(alg, u.graph, w, 0);
  for (NodeId v = 0; v < u.graph.node_count(); ++v) {
    ASSERT_TRUE(tree.reachable(v)) << "AS graph disconnected at "
                                   << u.asn_of_node[v];
  }
}

// The full build → compile → serve sweep, both landmark schemes. Sampled
// queries must all deliver through the compiled plane (scalar and SIMD
// agreeing), and sampled TZ routes must sit within stretch 3 of the
// hop-count ground truth.
TEST(AsRelFixture, UnderlayBuildsCompilesAndServesEndToEnd) {
  CPR_SKIP_WITHOUT_FIXTURE();
  const AsRelLoadResult loaded = read_as_rel_gz(kFixture);
  const AsUnderlay u = as_rel_underlay(loaded);
  const Graph& g = u.graph;
  const std::size_t n = g.node_count();
  EdgeMap<std::uint64_t> w(g.edge_count());
  for (auto& x : w) x = 1;

  const ShortestPath alg{};
  Rng rng(2026);
  const auto scheme =
      TzNameIndependentScheme<ShortestPath>::build(alg, g, w, rng);
  ASSERT_FALSE(scheme.labels().is_identity());
  const FlatFib fib = compile_fib(scheme, g);
  EXPECT_EQ(fib.kind(), FibKind::kTz);
  EXPECT_EQ(fib.blob_version(), 6u);

  Rng qrng(7);
  std::vector<std::pair<NodeId, NodeId>> queries;
  for (std::size_t i = 0; i < 4000; ++i) {
    const NodeId s = static_cast<NodeId>(qrng.index(n));
    NodeId t = static_cast<NodeId>(qrng.index(n));
    if (t == s) t = static_cast<NodeId>((t + 1) % n);
    queries.push_back({s, t});
  }

  ThreadPool pool(4);
  FibBatchOptions opt;
  opt.pool = &pool;
  const FibBatchOutput scalar_out = [&] {
    FibBatchOptions o = opt;
    o.dispatch = FibDispatch::kScalar;
    return forward_batch(fib, queries, o);
  }();
  const FibBatchOutput simd_out = [&] {
    FibBatchOptions o = opt;
    o.dispatch = FibDispatch::kSimd;
    return forward_batch(fib, queries, o);
  }();
  ASSERT_EQ(scalar_out.results.size(), queries.size());
  EXPECT_EQ(test::batch_hash(scalar_out), test::batch_hash(simd_out))
      << "dispatch paths diverged on the AS underlay";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(scalar_out.results[i].delivered)
        << "undelivered: AS " << u.asn_of_node[queries[i].first] << " -> "
        << u.asn_of_node[queries[i].second];
  }

  // Stretch spot-check against per-target Dijkstra ground truth on a
  // handful of sampled targets (full all-pairs would dwarf the suite).
  Rng trng(11);
  for (std::size_t k = 0; k < 12; ++k) {
    const NodeId t = static_cast<NodeId>(trng.index(n));
    const auto truth = dijkstra(alg, g, w, t);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].second != t || queries[i].first == t) continue;
      const auto span = scalar_out.path(i);
      const NodePath path(span.begin(), span.end());
      const auto preferred = truth.weight(queries[i].first);
      ASSERT_TRUE(preferred.has_value());
      EXPECT_TRUE(test::path_weight_within_stretch(alg, g, w, path,
                                                   *preferred, 3))
          << "s=" << queries[i].first << " t=" << t;
    }
  }

  // And the plain Cowen build on the same underlay still compiles and
  // serves (the Cowen pipeline the sweep used before the label layer).
  Rng crng(2027);
  const auto cowen = CowenScheme<ShortestPath>::build(alg, g, w, crng);
  const FlatFib cfib = compile_fib(cowen, g);
  EXPECT_EQ(cfib.kind(), FibKind::kCowen);
  const FibBatchOutput cowen_out = forward_batch(cfib, queries, opt);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(cowen_out.results[i].delivered) << "cowen undelivered " << i;
  }
}

// A corrupt gzip stream must be reported as such, not parsed as a prefix.
TEST(AsRelFixture, TruncatedGzipIsRejected) {
  CPR_SKIP_WITHOUT_FIXTURE();
  std::ifstream in(kFixture, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 512u);
  const std::string cut = bytes.substr(0, bytes.size() / 2);
  const std::string tmp = ::testing::TempDir() + "as_rel_truncated.gz";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << cut;
  }
  EXPECT_THROW(read_as_rel_gz(tmp), std::runtime_error);
}

}  // namespace
}  // namespace cpr
