// Concurrency proof for the seqlock serving plane (run under the tsan
// preset in CI): forward_batch readers racing a live apply_delta patcher
// must only ever return batches bit-identical to a fresh compile of some
// scheme state they could legally have observed — never a torn mixture —
// and a writer crash mid-patch (injected via the test hook) must leave
// readers retrying/refusing and the next writer refusing the odd parity,
// with recovery through MaintainedFib compaction.
//
// Legality window: the patcher publishes two atomic counters around each
// absorbed event — `started` before apply_event/absorb, `finished`
// after. A reader samples lo = finished before its batch and
// hi = started after it; any coherent snapshot it can have walked is one
// of the scheme states lo..hi, so its batch hash must equal one of the
// precomputed fresh-compile hashes in that range. Every hash is computed
// from the full output (delivered + loop flags + hop-by-hop paths), so
// "legal" really means bit-identical serving.
//
// Half the readers force the lockstep walk (kSimd) and half the scalar
// one, so both load flavours of the row search race the patcher; the
// race runs over a Cowen plane and over a TZ plane.
#include "algebra/primitives.hpp"
#include "fib/compile.hpp"
#include "fib/fib_delta.hpp"
#include "fib/forward_engine.hpp"
#include "scheme/cowen.hpp"
#include "scheme/tz_name_independent.hpp"
#include "sim/churn.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace cpr {
namespace {

constexpr std::size_t kCorpusSeeds = 50;
constexpr std::size_t kN = 18;
constexpr double kP = 0.25;
constexpr std::size_t kEvents = 12;
constexpr std::size_t kReaderThreads = 8;

using test::all_pairs;
using test::batch_hash;

class ServingSeeds : public ::testing::TestWithParam<std::uint64_t> {};

// 1 patcher thread driving the churn trace against 8 reader threads;
// every completed batch must be bit-identical to a fresh compile of some
// legally observable generation. `Scheme` is a landmark scheme built by
// Scheme::build(alg, g, w, rng) and repaired by apply_event.
template <typename Scheme>
void race_live_patcher(std::uint64_t seed) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, seed, kN, kP);
  const Graph& g = inst.graph;
  Rng trace_rng(seed ^ 0x5e41ull);
  const auto trace =
      random_churn_trace(alg, g, inst.weights, kEvents, trace_rng);
  const auto queries = all_pairs(g.node_count());

  // Precompute the oracle hash of every event prefix: expected[j] is a
  // fresh compile of the scheme after events 0..j-1. This replays the
  // trace on a scratch scheme/engine so the serving run below starts
  // from the same initial state.
  std::vector<std::uint64_t> expected;
  {
    auto inst2 = test::seeded_instance(alg, seed, kN, kP);
    ChurnEngine<ShortestPath> engine(alg, inst2.graph, inst2.weights);
    auto scheme =
        Scheme::build(alg, inst2.graph, inst2.weights, inst2.rng);
    expected.push_back(
        batch_hash(forward_batch(compile_fib(scheme, inst2.graph), queries)));
    for (const auto& ev : trace) {
      const auto applied = engine.apply(ev);
      scheme.apply_event(applied.edge, applied.old_weight, applied.new_weight,
                         engine.weights(), /*rebuild_dirty_fraction=*/2.0);
      expected.push_back(batch_hash(
          forward_batch(compile_fib(scheme, inst2.graph), queries)));
    }
  }

  ChurnEngine<ShortestPath> engine(alg, g, inst.weights);
  auto scheme = Scheme::build(alg, g, inst.weights, inst.rng);
  // Force the in-place seqlock path (as the delta corpus tests do): on
  // these small graphs the natural thresholds would compact away the
  // very races this test exists to provoke.
  FibMaintainOptions mopt = fib_churn_maintain_options();
  mopt.compaction_fraction = 2.0;
  MaintainedFib<Scheme> plane(scheme, g, mopt);

  std::atomic<std::size_t> started{0};   // events whose absorb began
  std::atomic<std::size_t> finished{0};  // events whose absorb completed
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> illegal{0};
  std::atomic<std::size_t> batches{0};
  std::atomic<std::uint64_t> retries{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (std::size_t r = 0; r < kReaderThreads; ++r) {
    // kAuto would resolve these small arenas to scalar, so pin half the
    // readers to the lockstep walk (scalar itself under TSan).
    const FibDispatch dispatch =
        r % 2 == 0 ? FibDispatch::kSimd : FibDispatch::kScalar;
    readers.emplace_back([&, dispatch] {
      ThreadPool pool(1);
      FibBatchOptions opt;
      opt.pool = &pool;
      opt.seqlock_max_retries = 1u << 20;
      opt.dispatch = dispatch;
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t lo = finished.load(std::memory_order_acquire);
        const auto arena = plane.arena();
        const FibBatchOutput out = forward_batch(*arena, queries, opt);
        const std::size_t hi = started.load(std::memory_order_acquire);
        retries.fetch_add(out.seqlock_retries, std::memory_order_relaxed);
        batches.fetch_add(1, std::memory_order_relaxed);
        if (!test::hash_in_window(expected, batch_hash(out), lo, hi)) {
          illegal.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Hold the first event until a reader has finished a batch: on a
  // loaded host the 12 events can otherwise all land before any reader
  // thread is first scheduled, leaving the race unexercised.
  while (batches.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  // The patcher: one thread, the single-writer contract.
  for (const auto& ev : trace) {
    started.fetch_add(1, std::memory_order_release);
    const auto applied = engine.apply(ev);
    const auto repair =
        scheme.apply_event(applied.edge, applied.old_weight,
                           applied.new_weight, engine.weights(),
                           /*rebuild_dirty_fraction=*/2.0);
    plane.absorb(repair.fib_delta, scheme);
    finished.fetch_add(1, std::memory_order_release);
    std::this_thread::yield();  // give batches a chance to interleave
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(illegal.load(), 0u)
      << "a reader served a batch matching NO legally observable "
         "generation (torn serving) out of "
      << batches.load() << " batches";
  EXPECT_GT(batches.load(), 0u);
  EXPECT_GT(plane.stats().patched, 0u)
      << "trace never exercised the seqlock patch path";
}

TEST_P(ServingSeeds, ConcurrentBatchesMatchSomeLegalGeneration) {
  race_live_patcher<CowenScheme<ShortestPath>>(GetParam());
}

TEST_P(ServingSeeds, TzConcurrentBatchesMatchSomeLegalGeneration) {
  race_live_patcher<TzNameIndependentScheme<ShortestPath>>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Corpus, ServingSeeds,
                         ::testing::Range<std::uint64_t>(0, kCorpusSeeds));

// ---- Writer-crash regression (the apply_delta parity re-verify) ----

struct CowenFixture {
  Graph g;
  CowenScheme<ShortestPath> scheme;
  static CowenFixture make(std::uint64_t seed) {
    const ShortestPath alg{16};
    auto inst = test::seeded_instance(alg, seed, kN, kP);
    auto scheme = CowenScheme<ShortestPath>::build(alg, inst.graph,
                                                   inst.weights, inst.rng);
    return {inst.graph, std::move(scheme)};
  }
};

// A two-slot delta any slacked Cowen arena accepts.
FibDelta two_slot_delta() {
  FibDelta d;
  d.touched_nodes = 2;
  d.patches.push_back(
      fib_patch_u32(fib_section::kCowenLandmarkPort, 0, kInvalidPort));
  d.patches.push_back(
      fib_patch_u32(fib_section::kCowenLandmarkPort, 1, kInvalidPort));
  return d;
}

TEST(SeqlockCrash, MidPatchCrashLeavesReadersRefusingNeverTorn) {
  auto fx = CowenFixture::make(7);
  FlatFib fib =
      compile_fib(fx.scheme, fx.g, fib_churn_maintain_options().compile);
  const auto queries = all_pairs(fx.g.node_count());

  // Writer dies after the first of two patches: generation stays odd.
  fib.simulate_writer_crash_after_for_test(1);
  EXPECT_TRUE(fib.apply_delta(two_slot_delta()));
  ASSERT_EQ(fib.generation() % 2, 1u)
      << "crash hook must leave the patch window open";

  // Strict readers refuse immediately...
  FibBatchOptions opt;
  EXPECT_THROW(forward_batch(fib, queries, opt), std::runtime_error);
  // ...and retrying readers keep retrying, then refuse — they never
  // return a result from the torn window.
  opt.seqlock_max_retries = 4;
  try {
    forward_batch(fib, queries, opt);
    FAIL() << "a batch was served off a torn arena";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("patch in progress"),
              std::string::npos)
        << e.what();
  }

  // The parity re-verify: a next writer must refuse to compound the
  // torn window, even though every patch in its delta is valid.
  EXPECT_FALSE(fib.apply_delta(two_slot_delta()))
      << "apply_delta compounded a crashed writer's odd generation";
}

TEST(SeqlockCrash, MaintainerRecoversByCompaction) {
  auto fx = CowenFixture::make(7);
  FibMaintainOptions mopt = fib_churn_maintain_options();
  mopt.compaction_fraction = 2.0;
  MaintainedFib<CowenScheme<ShortestPath>> plane(fx.scheme, fx.g, mopt);
  const auto queries = all_pairs(fx.g.node_count());

  // A reader pins the arena that is about to be torn.
  const auto torn = plane.arena();
  plane.fib_for_test().simulate_writer_crash_after_for_test(1);
  plane.absorb(two_slot_delta(), fx.scheme);
  ASSERT_EQ(torn->generation() % 2, 1u);

  // The next absorb finds the odd parity, refuses to patch, and
  // recovers by compacting into a fresh arena readers can adopt.
  plane.absorb(two_slot_delta(), fx.scheme);
  EXPECT_GT(plane.stats().compactions, 0u)
      << "recovery from a crashed writer must compact";
  const auto fresh = plane.arena();
  EXPECT_NE(fresh.get(), torn.get());
  EXPECT_EQ(fresh->generation() % 2, 0u);
  EXPECT_NO_THROW(forward_batch(*fresh, queries));
  // The torn arena stays refused for as long as anyone still holds it.
  EXPECT_THROW(forward_batch(*torn, queries), std::runtime_error);
}

// The retrying read path also rides out *completed* patches: a batch
// spanning an apply_delta re-runs and returns the settled state.
TEST(SeqlockRetry, BatchSpanningAPatchRetriesToTheSettledState) {
  auto fx = CowenFixture::make(11);
  FlatFib fib =
      compile_fib(fx.scheme, fx.g, fib_churn_maintain_options().compile);
  const auto queries = all_pairs(fx.g.node_count());

  std::atomic<bool> stop{false};
  std::thread patcher([&] {
    // Flip one landmark-port slot back and forth; each flip is a full
    // seqlock write cycle.
    const Port orig = fx.scheme.port_at_landmark(0);
    bool flip = false;
    while (!stop.load(std::memory_order_acquire)) {
      FibDelta d;
      d.touched_nodes = 1;
      d.patches.push_back(fib_patch_u32(fib_section::kCowenLandmarkPort, 0,
                                        flip ? kInvalidPort : orig));
      ASSERT_TRUE(fib.apply_delta(d));
      flip = !flip;
      std::this_thread::yield();
    }
  });

  ThreadPool pool(2);
  FibBatchOptions opt;
  opt.pool = &pool;
  opt.seqlock_max_retries = 1u << 20;
  for (int i = 0; i < 200; ++i) {
    const FibBatchOutput out = forward_batch(fib, queries, opt);
    // Every result is from a coherent snapshot: sources deliver to
    // themselves and paths start at their sources — cheap invariants a
    // torn walk breaks loudly.
    for (std::size_t q = 0; q < queries.size(); ++q) {
      if (queries[q].first == queries[q].second) {
        ASSERT_TRUE(out.results[q].delivered);
      }
      ASSERT_EQ(out.path(q).front(), queries[q].first);
    }
  }
  stop.store(true, std::memory_order_release);
  patcher.join();
}

}  // namespace
}  // namespace cpr
