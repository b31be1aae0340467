// Lifecycle coverage for the multi-process serving plane (ArenaStore):
// publish/rename crash-consistency, checksum rejection of corrupt
// publications with fallback to the newest valid generation, RCU unmap
// discipline (snapshots outlive prune), and — the satellite headliner —
// a forked child reader that watches the writer publish three
// generations (one deliberately corrupted) and die between temp-write
// and rename, asserting it only ever served validated generations.
//
// The fork test is skipped under TSan (fork + sanitizer runtimes do not
// mix); every single-process test runs under every preset, so the same
// store logic is still sanitizer-covered.
#include "algebra/primitives.hpp"
#include "fib/arena_store.hpp"
#include "fib/compile.hpp"
#include "fib/forward_engine.hpp"
#include "scheme/cowen.hpp"
#include "scheme/tz_name_independent.hpp"
#include "sim/churn.hpp"
#include "sim/serving.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

namespace cpr {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kN = 18;
constexpr double kP = 0.25;

// Fresh store directory per test, removed on scope exit.
struct StoreDir {
  fs::path path;
  explicit StoreDir(const char* tag)
      : path(fs::temp_directory_path() /
             (std::string("cpr_arena_") + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~StoreDir() { fs::remove_all(path); }
};

using test::all_pairs;
using test::batch_hash;

// A compiled Cowen arena; different seeds give structurally different
// arenas, so distinct generations serve distinguishably.
FlatFib make_fib(std::uint64_t seed) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, seed, kN, kP);
  auto scheme = CowenScheme<ShortestPath>::build(alg, inst.graph,
                                                 inst.weights, inst.rng);
  return compile_fib(scheme, inst.graph,
                     fib_churn_maintain_options().compile);
}

std::vector<std::uint8_t> corrupted_copy(const FlatFib& fib) {
  const auto blob = fib.blob();
  std::vector<std::uint8_t> bytes(blob.begin(), blob.end());
  bytes[bytes.size() / 2] ^= 0x5a;  // payload flip: checksum must catch it
  return bytes;
}

TEST(ArenaStore, PublishRoundTripsThroughMmap) {
  StoreDir dir("roundtrip");
  const FlatFib fib = make_fib(3);
  const auto queries = all_pairs(fib.node_count());
  const std::uint64_t want = batch_hash(forward_batch(fib, queries));

  ArenaStore writer(dir.path);
  EXPECT_EQ(writer.publish(fib), 1u);

  ArenaStore reader(dir.path);
  const auto arena = reader.current();
  ASSERT_NE(arena, nullptr);
  EXPECT_EQ(arena->generation(), 1u);
  EXPECT_FALSE(arena->fib().writable())
      << "mmap'd arenas must be immutable";
  EXPECT_EQ(arena->byte_size(), fib.blob().size());
  EXPECT_EQ(batch_hash(forward_batch(arena->fib(), queries)), want)
      << "the mapped generation must serve bit-identically to its source";
}

// kTz arenas flow through the same publish → mmap → serve pipeline:
// the store is format-agnostic bytes, but the validating open on the
// reader side must accept the label sections and serve name-addressed
// queries bit-identically to the in-process arena.
TEST(ArenaStore, TzArenaPublishRoundTripsThroughMmap) {
  StoreDir dir("tz_roundtrip");
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 3, kN, kP);
  auto scheme = TzNameIndependentScheme<ShortestPath>::build(
      alg, inst.graph, inst.weights, inst.rng);
  const FlatFib fib = compile_fib(scheme, inst.graph,
                                  fib_churn_maintain_options().compile);
  ASSERT_EQ(fib.blob_version(), 6u);
  const auto queries = all_pairs(fib.node_count());
  const std::uint64_t want = batch_hash(forward_batch(fib, queries));

  ArenaStore writer(dir.path);
  EXPECT_EQ(writer.publish(fib), 1u);

  ArenaStore reader(dir.path);
  const auto arena = reader.current();
  ASSERT_NE(arena, nullptr);
  EXPECT_EQ(arena->fib().kind(), FibKind::kTz);
  EXPECT_EQ(arena->fib().blob_version(), 6u);
  EXPECT_EQ(batch_hash(forward_batch(arena->fib(), queries)), want)
      << "the mapped kTz generation must serve bit-identically";
}

TEST(ArenaStore, WriterCrashBeforeRenameLeavesOldGenerationCurrent) {
  StoreDir dir("crash_rename");
  const FlatFib a = make_fib(3);
  const FlatFib b = make_fib(4);

  ArenaStore writer(dir.path);
  writer.publish(a);
  // The writer dies after writing + fsyncing the temp, before rename:
  // the new generation must be invisible.
  writer.publish(b, PublishStop::kBeforeRename);

  ArenaStore reader(dir.path);
  const auto arena = reader.current();
  ASSERT_NE(arena, nullptr);
  EXPECT_EQ(arena->generation(), 1u);

  // A restarted writer sweeps the abandoned temp and republishes; only
  // then does the new generation appear. The crashed publish never
  // became visible, so its number (2) is free for reuse.
  ArenaStore restarted(dir.path);
  EXPECT_EQ(restarted.remove_stale_temps(), 1u);
  restarted.publish(b);
  EXPECT_EQ(reader.current()->generation(), 2u);
}

TEST(ArenaStore, WriterCrashBeforeCurrentKeepsServingOldGeneration) {
  StoreDir dir("crash_current");
  const FlatFib a = make_fib(3);
  const FlatFib b = make_fib(4);

  ArenaStore writer(dir.path);
  writer.publish(a);
  // Dies between the arena rename and the CURRENT update: the file
  // exists but was never published, so readers stay on generation 1.
  writer.publish(b, PublishStop::kBeforeCurrent);

  ArenaStore reader(dir.path);
  ASSERT_NE(reader.current(), nullptr);
  EXPECT_EQ(reader.current()->generation(), 1u);
}

TEST(ArenaStore, CorruptPublicationIsRejectedAndFallsBack) {
  StoreDir dir("corrupt");
  const FlatFib fib = make_fib(3);
  const auto queries = all_pairs(fib.node_count());
  const std::uint64_t want = batch_hash(forward_batch(fib, queries));

  ArenaStore writer(dir.path);
  writer.publish(fib);
  // Generation 2 publishes completely — CURRENT names it — but its
  // payload is corrupt: the checksum must reject it and the reader must
  // fall back to generation 1.
  const auto bad = corrupted_copy(fib);
  writer.publish_blob({bad.data(), bad.size()});

  ArenaStore reader(dir.path);
  const auto arena = reader.current();
  ASSERT_NE(arena, nullptr);
  EXPECT_EQ(arena->generation(), 1u)
      << "an unvalidated arena must never be served";
  EXPECT_EQ(batch_hash(forward_batch(arena->fib(), queries)), want);

  // The next valid publication supersedes both.
  writer.publish(fib);
  EXPECT_EQ(reader.current()->generation(), 3u);
}

TEST(ArenaStore, GarbledCurrentFallsBackToNewestValidGeneration) {
  StoreDir dir("garbled");
  const FlatFib fib = make_fib(3);
  ArenaStore writer(dir.path);
  writer.publish(fib);
  writer.publish(fib);
  {
    std::ofstream out(dir.path / "CURRENT", std::ios::trunc);
    out << "not-an-arena-name\n";
  }
  ArenaStore reader(dir.path);
  const auto arena = reader.current();
  ASSERT_NE(arena, nullptr);
  EXPECT_EQ(arena->generation(), 2u);
}

TEST(ArenaStore, EmptyStoreServesNothing) {
  StoreDir dir("empty");
  ArenaStore reader(dir.path);
  EXPECT_EQ(reader.current(), nullptr);
}

TEST(ArenaStore, SnapshotsSurvivePruneAndNewerPublishes) {
  StoreDir dir("prune");
  const FlatFib fib = make_fib(3);
  const auto queries = all_pairs(fib.node_count());
  const std::uint64_t want = batch_hash(forward_batch(fib, queries));

  ArenaStore writer(dir.path);
  ArenaStore reader(dir.path);
  writer.publish(fib);
  // Pin generation 1, then bury it under newer generations and unlink
  // its file: the RCU contract says the held mapping keeps serving.
  const auto pinned = reader.current();
  ASSERT_NE(pinned, nullptr);
  writer.publish(fib);
  writer.publish(fib);
  EXPECT_EQ(writer.prune(3), 2u);
  EXPECT_FALSE(fs::exists(pinned->path()));
  EXPECT_EQ(batch_hash(forward_batch(pinned->fib(), queries)), want)
      << "a pinned snapshot must outlive its file";
  // A fresh resolve moves to the newest generation.
  EXPECT_EQ(reader.current()->generation(), 3u);
}

TEST(ArenaStore, RestartedWriterContinuesGenerationSequence) {
  StoreDir dir("restart");
  const FlatFib fib = make_fib(3);
  {
    ArenaStore writer(dir.path);
    writer.publish(fib);
    writer.publish(fib);
  }
  ArenaStore writer(dir.path);
  EXPECT_EQ(writer.next_generation(), 3u)
      << "generation numbers must never be reused";
}

// ---- The fork test: a real reader process watching a live writer ----

// Child protocol: poll the store until the DONE marker appears, checking
// on every poll that the served arena is one of the two valid
// generations and serves bit-identically to it; after DONE, the final
// resolve must land on generation 2 (3 is corrupt, 4 was abandoned).
// Exit codes make the failure mode readable in the parent's assert.
constexpr int kChildOk = 0;
constexpr int kChildSawInvalidGeneration = 10;
constexpr int kChildSawWrongBytes = 11;
constexpr int kChildFinalGenerationWrong = 12;
constexpr int kChildNeverSawArena = 13;

int child_reader_main(const fs::path& dir, std::uint64_t hash_gen1,
                      std::uint64_t hash_gen2,
                      const std::vector<std::pair<NodeId, NodeId>>& queries) {
  ArenaStore store(dir);
  ThreadPool pool(2);
  FibBatchOptions opt;
  opt.pool = &pool;
  bool saw_any = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!fs::exists(dir / "DONE")) {
    if (std::chrono::steady_clock::now() > deadline) break;
    if (const auto arena = store.current()) {
      saw_any = true;
      const std::uint64_t gen = arena->generation();
      if (gen != 1 && gen != 2) return kChildSawInvalidGeneration;
      const std::uint64_t h =
          batch_hash(forward_batch(arena->fib(), queries, opt));
      if (h != (gen == 1 ? hash_gen1 : hash_gen2)) return kChildSawWrongBytes;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!saw_any) return kChildNeverSawArena;
  const auto final_arena = store.current();
  if (!final_arena || final_arena->generation() != 2) {
    return kChildFinalGenerationWrong;
  }
  const std::uint64_t h =
      batch_hash(forward_batch(final_arena->fib(), queries, opt));
  return h == hash_gen2 ? kChildOk : kChildSawWrongBytes;
}

TEST(ArenaStoreMultiProcess, ChildReaderOnlyServesValidatedGenerations) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "fork-based test is not reliable under TSan; the "
                  "single-process lifecycle tests above cover the store";
#else
  StoreDir dir("fork");
  const FlatFib gen1 = make_fib(3);
  const FlatFib gen2 = make_fib(4);
  const auto queries = all_pairs(gen1.node_count());
  const std::uint64_t hash1 = batch_hash(forward_batch(gen1, queries));
  const std::uint64_t hash2 = batch_hash(forward_batch(gen2, queries));

  ArenaStore writer(dir.path);
  writer.publish(gen1);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // In the child: never return into gtest, never run atexit handlers.
    ::_exit(child_reader_main(dir.path, hash1, hash2, queries));
  }

  const auto breathe = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  breathe();
  writer.publish(gen2);
  breathe();
  // Generation 3: published all the way — CURRENT names it — but the
  // payload is corrupt. The child must keep serving generation 2.
  const auto bad = corrupted_copy(gen2);
  writer.publish_blob({bad.data(), bad.size()});
  breathe();
  // Generation 4: the writer is killed between temp-write and rename.
  writer.publish(gen2, PublishStop::kBeforeRename);
  breathe();
  {
    std::ofstream out(dir.path / "DONE");
    out << "done\n";
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child reader crashed";
  EXPECT_EQ(WEXITSTATUS(status), kChildOk)
      << "10=invalid generation served, 11=torn/wrong bytes served, "
         "12=wrong final generation, 13=never saw an arena";
#endif
}

// ---- The sim layer end to end (writer role + reader role in-process) --

TEST(ServingSim, ChurnServedThroughStore) {
  StoreDir dir("sim");
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 9, 64, 0.1);
  Rng trace_rng(0xfeedull);
  const auto trace =
      random_churn_trace(alg, inst.graph, inst.weights, 10, trace_rng);
  ChurnEngine<ShortestPath> engine(alg, inst.graph, inst.weights);
  auto scheme = CowenScheme<ShortestPath>::build(alg, inst.graph,
                                                 inst.weights, inst.rng);
  Rng pair_rng(7);
  const StoreServeReport report = serve_churn_through_store(
      scheme, engine, trace, dir.path, /*pairs_per_event=*/40, pair_rng,
      /*publish_every=*/2);
  EXPECT_EQ(report.events, trace.size());
  // Initial publish + one per two events (trace length is even).
  EXPECT_EQ(report.published, 1 + trace.size() / 2);
  EXPECT_GT(report.generations_seen, 1u)
      << "the reader never picked up a newer generation";
  EXPECT_EQ(report.queries, trace.size() * 40);
  EXPECT_GT(report.delivery_fraction(), 0.5);
  EXPECT_GT(report.maintain.patched, 0u)
      << "the writer role never exercised the seqlock patch path";
}

// The channel-driven sibling: the same churn trace served through the
// MAP_SHARED patch segment. One publish up front; every in-place delta
// must reach the reader with zero further publishes, and the reader must
// actually be on the live segment (via_channel), not the .fib fallback.
TEST(ServingSim, ChurnServedThroughChannel) {
  StoreDir dir("simch");
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 9, 64, 0.1);
  Rng trace_rng(0xfeedull);
  const auto trace =
      random_churn_trace(alg, inst.graph, inst.weights, 10, trace_rng);
  ChurnEngine<ShortestPath> engine(alg, inst.graph, inst.weights);
  auto scheme = CowenScheme<ShortestPath>::build(alg, inst.graph,
                                                 inst.weights, inst.rng);
  Rng pair_rng(7);
  const ChannelServeReport report = serve_churn_through_channel(
      scheme, engine, trace, dir.path, /*pairs_per_event=*/40, pair_rng);
  EXPECT_EQ(report.events, trace.size());
  EXPECT_EQ(report.patched + report.refused, trace.size());
  EXPECT_GT(report.patched, 0u)
      << "no delta ever travelled through the live segment";
  // Every publish is accounted for: the initial one plus one per
  // refused (recompile-demanding) delta — nothing per patched delta.
  EXPECT_EQ(report.published, 1 + report.refused);
  EXPECT_EQ(report.generations_seen, report.published)
      << "the reader missed (or double-counted) a generation";
  EXPECT_GT(report.channel_batches, 0u)
      << "the reader never served through the live segment";
  EXPECT_EQ(report.queries, trace.size() * 40);
  EXPECT_GT(report.delivery_fraction(), 0.5);
  if (report.refused == 0) {
    EXPECT_EQ(report.patches_visible, report.patched)
        << "the final snapshot's header disagrees with the patch count";
  }
}

}  // namespace
}  // namespace cpr
