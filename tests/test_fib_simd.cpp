// Differential coverage for the SIMD / lockstep forwarding path.
//
// The dispatch contract (fib/forward_engine.hpp) is that FibDispatch is
// a pure performance knob: for any arena and any batch, the lockstep
// AVX2 path and the scalar reference path must produce bit-identical
// results — delivered flags, hop-by-hop paths, path lengths — which this
// suite checks against each other and against the object oracle over the
// same 50-seed random-graph corpus as test_fib.cpp, at 1 and 8 threads,
// with and without path recording. A larger Cowen instance pushes rows
// many levels deep so the Eytzinger descent runs long, the one row
// search is checked exhaustively against std::find on short rows, and a
// row whose Eytzinger order is broken is rejected by the loader.
//
// Under TSan (or off x86-64) fib_simd_supported() is false and kSimd
// resolves to scalar; the differential pairs then compare scalar against
// scalar, which keeps the suite meaningful as a no-crash/no-race check
// while the bit-identity claims are enforced by the native ASan runs.
#include "algebra/primitives.hpp"
#include "fib/compile.hpp"
#include "fib/forward_engine.hpp"
#include "scheme/cowen.hpp"
#include "scheme/interval_router.hpp"
#include "scheme/spanning_tree.hpp"
#include "scheme/tz_name_independent.hpp"
#include "sim/workload.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

using test::all_pairs;

// Two batch outputs agree field-for-field, paths included (when both
// recorded them).
void expect_same_output(const FibBatchOutput& a, const FibBatchOutput& b,
                        bool compare_paths, const char* what) {
  ASSERT_EQ(a.results.size(), b.results.size()) << what;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].delivered, b.results[i].delivered)
        << what << " query " << i;
    EXPECT_EQ(a.results[i].looped, b.results[i].looped)
        << what << " query " << i;
    EXPECT_EQ(a.results[i].path_len, b.results[i].path_len)
        << what << " query " << i;
    if (!compare_paths) continue;
    const auto pa = a.path(i);
    const auto pb = b.path(i);
    ASSERT_EQ(pa.size(), pb.size()) << what << " query " << i;
    for (std::size_t k = 0; k < pa.size(); ++k) {
      EXPECT_EQ(pa[k], pb[k]) << what << " query " << i << " hop " << k;
    }
  }
}

FibBatchOutput run(const FlatFib& fib,
                   const std::vector<std::pair<NodeId, NodeId>>& queries,
                   FibDispatch dispatch, ThreadPool* pool, bool record_paths) {
  FibBatchOptions opt;
  opt.pool = pool;
  opt.dispatch = dispatch;
  opt.record_paths = record_paths;
  return forward_batch(fib, queries, opt);
}

// The full scalar-vs-SIMD battery for one compiled scheme: paths on/off,
// 1 and 8 threads, all anchored to the object oracle.
template <typename S>
void check_dispatch_identical(
    const S& scheme, const Graph& g,
    const std::vector<std::pair<NodeId, NodeId>>& queries,
    const char* family) {
  SCOPED_TRACE(family);
  const FlatFib fib = compile_fib(scheme, g);
  ThreadPool pool1(1), pool8(8);
  const auto oracle = route_batch_object(scheme, g, queries, &pool1);

  for (ThreadPool* pool : {&pool1, &pool8}) {
    const auto scalar = run(fib, queries, FibDispatch::kScalar, pool, true);
    const auto simd = run(fib, queries, FibDispatch::kSimd, pool, true);
    expect_same_output(scalar, simd, /*compare_paths=*/true, "paths");

    // Anchor to the oracle, not just to each other.
    ASSERT_EQ(oracle.size(), simd.results.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_EQ(oracle[i].delivered, simd.results[i].delivered != 0)
          << "oracle query " << i;
      const auto path = simd.path(i);
      ASSERT_EQ(oracle[i].path.size(), path.size()) << "oracle query " << i;
      for (std::size_t k = 0; k < path.size(); ++k) {
        EXPECT_EQ(oracle[i].path[k], path[k])
            << "oracle query " << i << " hop " << k;
      }
    }

    // Stats-only serving mode (the refilling lockstep walk) must be
    // invisible in the outputs.
    const auto scalar_stats =
        run(fib, queries, FibDispatch::kScalar, pool, false);
    const auto simd_stats = run(fib, queries, FibDispatch::kSimd, pool, false);
    expect_same_output(scalar, scalar_stats, false, "scalar stats");
    expect_same_output(scalar, simd_stats, false, "simd stats");
  }
}

class FibSimdSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FibSimdSeeds, TreeFamilyDispatchIdentical) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, GetParam(), kN, kP);
  const auto scheme =
      SpanningTreeScheme<ShortestPath>::build(alg, inst.graph, inst.weights);
  check_dispatch_identical(scheme, inst.graph,
                           all_pairs(inst.graph.node_count()), "tree");
}

TEST_P(FibSimdSeeds, IntervalFamilyDispatchIdentical) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, GetParam(), kN, kP);
  const IntervalRouter router(
      inst.graph, preferred_spanning_tree(alg, inst.graph, inst.weights));
  check_dispatch_identical(router, inst.graph,
                           all_pairs(inst.graph.node_count()), "interval");
}

TEST_P(FibSimdSeeds, CowenFamilyDispatchIdentical) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, GetParam(), kN, kP);
  const auto scheme = CowenScheme<ShortestPath>::build(alg, inst.graph,
                                                       inst.weights, inst.rng);
  check_dispatch_identical(scheme, inst.graph,
                           all_pairs(inst.graph.node_count()), "cowen");
}

// The kTz walker shares the Cowen row search but adds the
// name → label dictionary resolve and the label-space deliver test; the
// scalar path is its reference, the object path the oracle. The 50-seed
// corpus runs a fresh label permutation per seed.
TEST_P(FibSimdSeeds, TzFamilyDispatchIdentical) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, GetParam(), kN, kP);
  const auto scheme = TzNameIndependentScheme<ShortestPath>::build(
      alg, inst.graph, inst.weights, inst.rng);
  check_dispatch_identical(scheme, inst.graph,
                           all_pairs(inst.graph.node_count()), "tz");
}

INSTANTIATE_TEST_SUITE_P(Corpus, FibSimdSeeds,
                         ::testing::Range<std::uint64_t>(0, kCorpusSeeds));

// ---- Dispatch resolution ----

TEST(FibSimdDispatch, ForcedScalarNeverResolvesToSimd) {
  EXPECT_EQ(fib_resolve_dispatch(FibDispatch::kScalar), FibDispatch::kScalar);
}

TEST(FibSimdDispatch, AutoAndSimdFollowCpuSupport) {
  const FibDispatch want =
      fib_simd_supported() ? FibDispatch::kSimd : FibDispatch::kScalar;
  EXPECT_EQ(fib_resolve_dispatch(FibDispatch::kAuto), want);
  EXPECT_EQ(fib_resolve_dispatch(FibDispatch::kSimd), want);
}

// Failure-mode batches are pinned to the scalar path no matter what the
// caller requested: the pin used to be an implementation detail buried
// in forward_batch's dispatch expression, now it is the documented
// contract of fib_resolve_batch_dispatch (and asserted in the engine).
// The differential failure suites rely on it — they compare against the
// step-by-step scalar oracle.
TEST(FibSimdDispatch, EdgeDownBatchesArePinnedToScalar) {
  const std::vector<bool> down;
  for (const FibDispatch req :
       {FibDispatch::kAuto, FibDispatch::kScalar, FibDispatch::kSimd}) {
    FibBatchOptions opt;
    opt.dispatch = req;
    EXPECT_EQ(fib_resolve_batch_dispatch(opt), fib_resolve_dispatch(req));
    opt.edge_down = &down;
    EXPECT_EQ(fib_resolve_batch_dispatch(opt), FibDispatch::kScalar)
        << "edge_down batches must resolve to the scalar path";
  }
}

// ---- Long Cowen rows: deep Eytzinger descents ----

// At n = 600 the landmark/cluster rows run to dozens of entries, so the
// row search descends many levels (and spans cache lines, where its
// prefetch matters) instead of resolving within one line. The premise
// is asserted, not assumed.
TEST(FibSimdLargeRows, CowenEytzingerPathDispatchIdentical) {
  const ShortestPath alg{1024};
  const std::size_t n = 600;
  Rng rng(97);
  const Graph g = erdos_renyi_connected(n, 6.0 / static_cast<double>(n - 1),
                                        rng);
  const auto w = test::sampled_weights(alg, g, rng);
  const auto scheme = CowenScheme<ShortestPath>::build(alg, g, w, rng);
  const FlatFib fib = compile_fib(scheme, g);

  const auto& cowen = fib.cowen();
  std::uint32_t longest = 0;
  for (NodeId v = 0; v < n; ++v) {
    longest = std::max(longest, cowen.row_len[v]);
  }
  ASSERT_GT(longest, 32u) << "instance too small for deep row descents";

  // Uniform pairs plus a Zipf draw (skew concentrates destinations on a
  // few hot rows).
  Rng qrng(1234);
  std::vector<std::pair<NodeId, NodeId>> queries;
  for (std::size_t i = 0; i < 2000; ++i) {
    const NodeId s = static_cast<NodeId>(qrng.index(n));
    NodeId t = static_cast<NodeId>(qrng.index(n));
    if (t == s) t = static_cast<NodeId>((t + 1) % n);
    queries.push_back({s, t});
  }
  WorkloadGenerator zipf(WorkloadGenerator::Kind::kZipf, g, qrng);
  for (std::size_t i = 0; i < 2000; ++i) {
    const Demand d = zipf.next();
    queries.push_back({d.source, d.target});
  }
  check_dispatch_identical(scheme, g, queries, "cowen-large");
}

// Same large instance through the TZ layer: label-keyed rows of the same
// lengths, so the row search (shared with Cowen) runs deep against label
// keys, after a dictionary resolve per query.
TEST(FibSimdLargeRows, TzEytzingerPathDispatchIdentical) {
  const ShortestPath alg{1024};
  const std::size_t n = 600;
  Rng rng(97);
  const Graph g = erdos_renyi_connected(n, 6.0 / static_cast<double>(n - 1),
                                        rng);
  const auto w = test::sampled_weights(alg, g, rng);
  const auto scheme =
      TzNameIndependentScheme<ShortestPath>::build(alg, g, w, rng);
  const FlatFib fib = compile_fib(scheme, g);

  const auto& cowen = fib.cowen();
  std::uint32_t longest = 0;
  for (NodeId v = 0; v < n; ++v) {
    longest = std::max(longest, cowen.row_len[v]);
  }
  ASSERT_GT(longest, 32u) << "instance too small for deep row descents";

  Rng qrng(1234);
  std::vector<std::pair<NodeId, NodeId>> queries;
  for (std::size_t i = 0; i < 2000; ++i) {
    const NodeId s = static_cast<NodeId>(qrng.index(n));
    NodeId t = static_cast<NodeId>(qrng.index(n));
    if (t == s) t = static_cast<NodeId>((t + 1) % n);
    queries.push_back({s, t});
  }
  WorkloadGenerator zipf(WorkloadGenerator::Kind::kZipf, g, qrng);
  for (std::size_t i = 0; i < 2000; ++i) {
    const Demand d = zipf.next();
    queries.push_back({d.source, d.target});
  }
  check_dispatch_identical(scheme, g, queries, "tz-large");
}

// ---- The one row search, exhaustively on short rows ----

// Every row length from empty to several cache lines, each laid out in
// Eytzinger order inside a capacity with zeroed slack behind it: probing
// every present key, the gaps between them, key 0 (which must not match
// the zeroed slack) and 0xffffffff must agree with std::find on the
// sorted source, in both load flavours.
TEST(FibRowLayout, RowFindAgreesWithFindOnSortedSource) {
  for (std::uint32_t len = 0; len <= 70; ++len) {
    SCOPED_TRACE(len);
    // Keys 3, 6, 9, ... leave a gap on both sides of every key. Ports
    // cycle through 0 (the entry equals the probe pack(key, 0)), the
    // all-ones port (the entry sits just below the next key's probe) and
    // a distinct value.
    std::vector<std::uint64_t> sorted;
    for (std::uint32_t i = 0; i < len; ++i) {
      const std::uint32_t port =
          i % 3 == 0 ? 0 : i % 3 == 1 ? 0xffffffffu : i;
      sorted.push_back(fib_pack_entry(3 * (i + 1), port));
    }
    std::vector<std::uint64_t> row(len + 5, 0);  // five slots of slack
    fib_eytzinger_inorder(len, [&](std::uint64_t k, std::uint64_t i) {
      row[k] = sorted[i];
    });
    std::vector<std::uint32_t> probes = {0, 1, 0xffffffffu, 3 * len + 3};
    for (std::uint32_t i = 0; i < len; ++i) {
      probes.push_back(3 * (i + 1));
      probes.push_back(3 * (i + 1) + 1);
    }
    for (const std::uint32_t key : probes) {
      const auto hit =
          std::find_if(sorted.begin(), sorted.end(), [&](std::uint64_t e) {
            return fib_entry_key(e) == key;
          });
      std::uint32_t seq_port = kInvalidPort, plain_port = kInvalidPort;
      const bool seq_found = fib_row_find<true>(row.data(), len, key, &seq_port);
      const bool plain_found =
          fib_row_find<false>(row.data(), len, key, &plain_port);
      ASSERT_EQ(seq_found, hit != sorted.end()) << "key " << key;
      ASSERT_EQ(plain_found, seq_found) << "key " << key;
      if (hit != sorted.end()) {
        EXPECT_EQ(seq_port, fib_entry_port(*hit)) << "key " << key;
        EXPECT_EQ(plain_port, seq_port) << "key " << key;
      }
    }
  }
}

// ---- Row layout validation (byte surgery) ----

// Re-seals the header's payload checksum after byte surgery, so only the
// deep validators can object to the corruption.
void reseal_checksum(std::vector<std::uint8_t>& bytes) {
  std::uint64_t payload_bytes = 0;
  std::memcpy(&payload_bytes, bytes.data() + 24, 8);
  const std::size_t payload_begin = bytes.size() - payload_bytes;
  const std::uint64_t h =
      fib_payload_checksum(bytes.data() + payload_begin, payload_bytes);
  std::memcpy(bytes.data() + 32, &h, 8);
}

// The loader must reject `bytes`, and for the reason named by `why` — a
// stale seal would be rejected too, by the checksum, proving nothing.
void expect_rejected_for(const std::vector<std::uint8_t>& bytes,
                         const std::string& why) {
  try {
    FlatFib::from_blob(bytes);
    ADD_FAILURE() << "corrupted blob accepted (expected: " << why << ")";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << "rejected for the wrong reason: " << e.what();
  }
}

struct SectionSpan {
  std::uint64_t off = 0;
  std::uint64_t bytes = 0;
};

// Header: magic[8], kind u32, node_count u32, section_count u32,
// reserved u32, payload_bytes u64, checksum u64 (offset 32). Directory
// entries (24B each from offset 40): id u32, pad u32, offset u64,
// bytes u64.
SectionSpan locate_section(const std::vector<std::uint8_t>& bytes,
                           std::uint32_t want) {
  std::uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 16, 4);
  SectionSpan s;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint8_t* e = bytes.data() + 40 + i * 24;
    std::uint32_t id = 0;
    std::memcpy(&id, e, 4);
    if (id == want) {
      std::memcpy(&s.off, e + 8, 8);
      std::memcpy(&s.bytes, e + 16, 8);
    }
  }
  return s;
}

// Swapping two live entries of one Eytzinger row (checksum re-sealed)
// keeps the row's key multiset but breaks its order, so the search
// would miss keys; the loader's in-order walk must catch it.
TEST(FibRowLayout, SwappedRowEntriesAreRejected) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 11, kN, kP);
  const auto scheme = CowenScheme<ShortestPath>::build(alg, inst.graph,
                                                       inst.weights, inst.rng);
  const FlatFib fib = compile_fib(scheme, inst.graph);
  const auto& cowen = fib.cowen();
  NodeId v = 0;
  while (v < fib.node_count() && cowen.row_len[v] < 2) ++v;
  ASSERT_LT(v, fib.node_count()) << "no row with two entries to swap";
  const auto blob = fib.blob();
  std::vector<std::uint8_t> bytes(blob.begin(), blob.end());

  const SectionSpan rows = locate_section(bytes, fib_section::kCowenRows);
  ASSERT_GT(rows.bytes, 0u) << "row section missing";
  auto* row = reinterpret_cast<std::uint64_t*>(bytes.data() + rows.off) +
              cowen.row_off[v];
  std::swap(row[0], row[1]);

  reseal_checksum(bytes);
  EXPECT_THROW(FlatFib::from_blob(bytes), std::runtime_error);
  expect_rejected_for(bytes, "row keys not in Eytzinger order");
}

// ---- Label layer validation (byte surgery) ----
//
// Like the row-order test above, these corrupt a *semantic* invariant and
// re-seal the payload checksum, so only the deep validators can object: a
// label map that silently stopped being a permutation, or a dictionary
// slot that disagrees with it, would misdeliver every packet whose name
// resolves through the broken entry — to a plausible-looking wrong node.

std::vector<std::uint8_t> tz_blob_bytes() {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 11, kN, kP);
  const auto scheme = TzNameIndependentScheme<ShortestPath>::build(
      alg, inst.graph, inst.weights, inst.rng);
  const FlatFib fib = compile_fib(scheme, inst.graph);
  const auto blob = fib.blob();
  return {blob.begin(), blob.end()};
}

TEST(FibTzValidation, DuplicatedLabelInMapIsRejected) {
  std::vector<std::uint8_t> bytes = tz_blob_bytes();
  const SectionSpan lm = locate_section(bytes, fib_section::kLabelMap);
  ASSERT_GE(lm.bytes, 8u) << "label map section missing";
  auto* labels = reinterpret_cast<std::uint32_t*>(bytes.data() + lm.off);
  labels[0] = labels[1];  // two nodes claim one label: not a permutation
  reseal_checksum(bytes);
  EXPECT_THROW(FlatFib::from_blob(bytes), std::runtime_error);
  expect_rejected_for(bytes, "label map is not a permutation");
}

TEST(FibTzValidation, DictionarySlotDisagreeingWithLabelMapIsRejected) {
  std::vector<std::uint8_t> bytes = tz_blob_bytes();
  std::uint32_t n = 0;
  std::memcpy(&n, bytes.data() + 12, 4);
  ASSERT_GT(n, 1u);
  const SectionSpan ds = locate_section(bytes, fib_section::kDictionary);
  ASSERT_GE(ds.bytes, 24u) << "dictionary section missing";
  auto* dict = reinterpret_cast<std::uint64_t*>(bytes.data() + ds.off);
  const std::uint64_t slots = ds.bytes / 8 - 2;
  std::size_t at = slots;
  for (std::size_t i = 0; i < slots; ++i) {
    if (dict[2 + i] != kFibDictEmpty) {
      at = i;
      break;
    }
  }
  ASSERT_LT(at, slots) << "no live dictionary slot";
  const std::uint32_t name = fib_entry_key(dict[2 + at]);
  const std::uint32_t label = fib_entry_port(dict[2 + at]);
  // Still a well-formed (name, label) pair — label in range, bucket and
  // order untouched — but it now resolves the name to the *wrong* label.
  dict[2 + at] = fib_pack_entry(name, (label + 1) % n);
  reseal_checksum(bytes);
  EXPECT_THROW(FlatFib::from_blob(bytes), std::runtime_error);
  expect_rejected_for(bytes, "dictionary disagrees with label map");
}

}  // namespace
}  // namespace cpr
