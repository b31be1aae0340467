// Fault-injection harness for the cross-process live patch channel
// (fib/patch_channel.hpp) — real child processes, real SIGKILLs.
//
// The tentpole differential forks a writer process that streams the
// 50-seed churn corpus through a MAP_SHARED "CPRPCH01" segment while two
// reader processes (one polling PatchChannelReader, one StoreWatcher)
// run forward_batch against their own mappings. Every completed reader
// batch must be bit-identical to a fresh compile of some generation the
// reader could legally have observed — the legality window is the
// segment's seqlock word sampled before/after the batch, the same
// contract test_serving_seqlock.cpp proves in-process — and the store
// must end the run with exactly ONE published generation: every row the
// readers saw move arrived through the live segment, zero republishes.
//
// The crash matrix SIGKILLs the writer child at each protocol step
// (mid-patch with the seqlock window open, post-patch before the
// checksum fold, mid-publish between arena rename and CURRENT) and
// asserts the parent-visible state: readers never serve a torn row, a
// standby writer's flock acquire succeeds over the corpse, and
// recover() either adopts the sealed segment in place or republishes.
//
// Fork tests are skipped under TSan (fork + sanitizer runtimes do not
// mix); the in-process concurrency leg at the bottom points readers and
// patch_channel_snapshot at the WRITER's own mapping — same virtual
// addresses, so TSan can see both sides of every race — and runs under
// every preset.
#include "algebra/primitives.hpp"
#include "fib/arena_store.hpp"
#include "fib/compile.hpp"
#include "fib/fib_delta.hpp"
#include "fib/forward_engine.hpp"
#include "fib/patch_channel.hpp"
#include "scheme/cowen.hpp"
#include "scheme/tz_name_independent.hpp"
#include "sim/churn.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace cpr {
namespace {

namespace fs = std::filesystem;
using test::all_pairs;
using test::batch_hash;

constexpr std::size_t kCorpusSeeds = 50;
constexpr std::size_t kN = 18;
constexpr double kP = 0.25;
constexpr std::size_t kEvents = 12;

// Fresh store directory per test, removed on scope exit.
struct StoreDir {
  fs::path path;
  explicit StoreDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("cpr_pch_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~StoreDir() { fs::remove_all(path); }
};

// A churn-compiled Cowen arena (slack baked in, so deltas patch in
// place); different seeds give structurally different arenas.
FlatFib make_fib(std::uint64_t seed) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, seed, kN, kP);
  auto scheme = CowenScheme<ShortestPath>::build(alg, inst.graph,
                                                 inst.weights, inst.rng);
  return compile_fib(scheme, inst.graph, fib_churn_maintain_options().compile);
}

// An owned, writable byte-copy — the "what should the segment serve
// after these deltas" oracle the differentials patch offline.
FlatFib writable_copy(const FlatFib& fib) {
  return FlatFib::from_blob(fib.blob());
}

// A two-slot delta any slacked Cowen arena accepts (and that changes
// serving: two landmark ports go dark).
FibDelta two_slot_delta() {
  FibDelta d;
  d.touched_nodes = 2;
  d.patches.push_back(
      fib_patch_u32(fib_section::kCowenLandmarkPort, 0, kInvalidPort));
  d.patches.push_back(
      fib_patch_u32(fib_section::kCowenLandmarkPort, 1, kInvalidPort));
  return d;
}

// Retry-tolerant serve hash: the arena may be a live segment a writer is
// patching, so ride out seqlock windows instead of throwing.
std::uint64_t serve_hash(const FlatFib& fib,
                         const std::vector<std::pair<NodeId, NodeId>>& queries,
                         ThreadPool* pool = nullptr) {
  FibBatchOptions opt;
  opt.pool = pool;
  opt.seqlock_max_retries = 1u << 20;
  return batch_hash(forward_batch(fib, queries, opt));
}

// Header of an on-disk segment file, read through a private copy of the
// bytes (the crash matrix inspects segments whose writer is dead).
bool read_segment_header_file(const fs::path& path, PatchSegmentHeader* h) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return patch_channel_read_header(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size(), h);
}

template <typename T>
T read_le(std::span<const std::uint8_t> bytes, std::size_t offset) {
  T v{};
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  return v;
}

// ---------------------------------------------------------------------------
// Wire format: the "CPRPCH01" segment header, pinned byte for byte.

#ifndef CPR_GOLDEN_DIR
#error "CPR_GOLDEN_DIR must point at tests/golden"
#endif

const std::string kGoldenPath =
    std::string(CPR_GOLDEN_DIR) + "/patch_channel_v1.hex";

// The golden arena of test_blob_layout.cpp: a 3-node path 0-1-2 with
// fully hand-written Cowen sections — every byte of the embedded blob is
// determined by the builder and the format, no RNG — so the golden file
// pins exactly the segment serialization layer. Rows are in Eytzinger
// order (node 1's two-entry row stores its larger key first).
FlatFib build_golden_fib() {
  Graph g(3);
  g.add_edge(0, 1);  // edge 0: port 0 at both ends
  g.add_edge(1, 2);  // edge 1: port 1 at node 1, port 0 at node 2
  FibBuilder b(FibKind::kCowen, 3);
  b.add_topology(g);
  const std::vector<std::uint32_t> row_off = {0, 2, 4, 6};  // capacity CSR
  const std::vector<std::uint32_t> row_len = {1, 2, 1};
  const std::vector<std::uint64_t> rows = {
      fib_pack_entry(1, 0), 0,                     // node 0 (+slack)
      fib_pack_entry(2, 1), fib_pack_entry(0, 0),  // node 1
      fib_pack_entry(1, 0), 0,                     // node 2 (+slack)
  };
  const std::vector<std::uint32_t> landmark = {1, 1, 1};
  const std::vector<std::uint32_t> landmark_port = {0, kInvalidPort, 0};
  b.add_array(fib_section::kCowenRowOff, row_off);
  b.add_array(fib_section::kCowenRowLen, row_len);
  b.add_array(fib_section::kCowenRows, rows);
  b.add_array(fib_section::kCowenLandmark, landmark);
  b.add_array(fib_section::kCowenLandmarkPort, landmark_port);
  return b.finish();
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2 + bytes.size() / 32 + 1);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (i > 0 && i % 32 == 0) out.push_back('\n');
    out.push_back(digits[bytes[i] >> 4]);
    out.push_back(digits[bytes[i] & 0xf]);
  }
  out.push_back('\n');
  return out;
}

std::vector<std::uint8_t> from_hex(const std::string& text) {
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::vector<std::uint8_t> bytes;
  int hi = -1;
  for (const char c : text) {
    const int v = nibble(c);
    if (v < 0) continue;  // whitespace/newlines
    if (hi < 0) {
      hi = v;
    } else {
      bytes.push_back(static_cast<std::uint8_t>((hi << 4) | v));
      hi = -1;
    }
  }
  return bytes;
}

TEST(PatchSegmentWire, GoldenFileMatchesByteForByte) {
  const FlatFib fib = build_golden_fib();
  const auto blob = fib.blob();
  const auto segment = patch_channel_segment_bytes(blob, 1, 0);

  if (std::getenv("CPR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
    out << to_hex(segment);
    GTEST_SKIP() << "golden file regenerated at " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenPath
                  << " (generate with CPR_UPDATE_GOLDEN=1)";
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::vector<std::uint8_t> golden = from_hex(text);

  ASSERT_EQ(segment.size(), golden.size())
      << "CPRPCH01 segment size changed — this is a wire-format break; "
         "bump the version and regenerate the golden file deliberately";
  for (std::size_t i = 0; i < golden.size(); ++i) {
    ASSERT_EQ(segment[i], golden[i])
        << "CPRPCH01 byte " << i << " changed — wire-format break; bump "
           "the version and regenerate the golden file deliberately";
  }
}

// The layout promises, stated as offsets — the documentation of record
// for anyone parsing arena-<gen>.pch outside this codebase.
TEST(PatchSegmentWire, HeaderOffsetsArePinned) {
  const FlatFib fib = build_golden_fib();
  const auto blob = fib.blob();
  const auto segment = patch_channel_segment_bytes(blob, 7, 0);
  const std::span<const std::uint8_t> bytes(segment);

  ASSERT_EQ(segment.size(), kPatchSegmentHeaderBytes + blob.size());
  EXPECT_EQ(std::memcmp(segment.data(), "CPRPCH01", 8), 0);
  EXPECT_EQ(read_le<std::uint64_t>(bytes, patch_segment::kArenaGeneration),
            7u);
  EXPECT_EQ(read_le<std::uint64_t>(bytes, patch_segment::kSeq), 0u)
      << "a fresh segment must publish with the patch window closed";
  EXPECT_EQ(read_le<std::uint64_t>(bytes, patch_segment::kPatchesApplied), 0u);
  EXPECT_EQ(read_le<std::uint64_t>(bytes, patch_segment::kWriterFence), 0u)
      << "fence 0 = unowned";
  EXPECT_EQ(read_le<std::uint64_t>(bytes, patch_segment::kPayloadBytes),
            blob.size());
  ASSERT_EQ(blob.size() % 8, 0u);
  EXPECT_EQ(read_le<std::uint64_t>(bytes, patch_segment::kChecksum),
            patch_channel_checksum(
                reinterpret_cast<const std::uint64_t*>(blob.data()),
                blob.size() / 8));
  EXPECT_EQ(read_le<std::uint64_t>(bytes, patch_segment::kReserved), 0u);
  EXPECT_EQ(std::memcmp(segment.data() + kPatchSegmentHeaderBytes, blob.data(),
                        blob.size()),
            0)
      << "the embedded blob must be byte-identical to the arena";

  PatchSegmentHeader h;
  ASSERT_TRUE(patch_channel_read_header(segment.data(), segment.size(), &h));
  EXPECT_EQ(h.arena_generation, 7u);
  EXPECT_EQ(h.payload_bytes, blob.size());
}

TEST(PatchSegmentWire, EncoderRejectsUnalignedBlobs) {
  const std::vector<std::uint8_t> garbage(7, 0xab);
  EXPECT_THROW(patch_channel_segment_bytes({garbage.data(), garbage.size()},
                                           1, 0),
               std::runtime_error);
}

TEST(PatchSegmentWire, ChecksumIsPositionWeighted) {
  const std::uint64_t words[3] = {1, 2, 3};    // 1*1 + 2*3 + 3*5 = 22
  EXPECT_EQ(patch_channel_checksum(words, 3), 22u);
  const std::uint64_t swapped[3] = {2, 1, 3};  // 2*1 + 1*3 + 3*5 = 20
  EXPECT_NE(patch_channel_checksum(swapped, 3),
            patch_channel_checksum(words, 3))
      << "a plain sum would miss word transpositions";
}

// ---------------------------------------------------------------------------
// Writer fencing: flock(2) keeps two live writers out of one segment.

TEST(WriterFence, SecondLiveWriterIsRefusedUntilTheOwnerDies) {
  StoreDir dir("fence");
  const FlatFib fib0 = make_fib(3);
  const auto blob0 = fib0.blob();
  {
    auto owner = PatchChannelWriter::acquire(dir.path, 1);
    EXPECT_THROW(PatchChannelWriter::acquire(dir.path, 2),
                 std::runtime_error)
        << "two live writers must never both own one store";
    EXPECT_EQ(owner.publish(fib0), 1u);
    PatchSegmentHeader h;
    ASSERT_TRUE(patch_channel_read_header(owner.segment_for_test(),
                                          owner.segment_bytes_for_test(), &h));
    EXPECT_EQ(h.writer_fence, 1u) << "the owner stamps its token on attach";
  }
  // The owner released the lock (here by destruction; the kernel does
  // the same on SIGKILL — the fork matrix proves that path). A standby
  // now gets in and adopts the sealed head, restamping the fence.
  auto standby = PatchChannelWriter::acquire(dir.path, 3);
  EXPECT_EQ(standby.recover({blob0.data(), blob0.size()}), 1u);
  EXPECT_EQ(standby.last_takeover(), TakeoverOutcome::kAdoptedSealed);
  PatchSegmentHeader h;
  ASSERT_TRUE(patch_channel_read_header(standby.segment_for_test(),
                                        standby.segment_bytes_for_test(), &h));
  EXPECT_EQ(h.writer_fence, 3u);
}

// ---------------------------------------------------------------------------
// Live patches through the channel, single process: zero republishes.

TEST(PatchChannelLive, ReaderServesPatchedRowsWithZeroRepublishes) {
  StoreDir dir("live");
  const FlatFib fib0 = make_fib(7);
  const auto queries = all_pairs(fib0.node_count());
  const std::uint64_t h0 = batch_hash(forward_batch(fib0, queries));
  FlatFib patched = writable_copy(fib0);
  ASSERT_TRUE(patched.apply_delta(two_slot_delta()));
  const std::uint64_t h1 = batch_hash(forward_batch(patched, queries));
  ASSERT_NE(h0, h1) << "the probe delta must change serving";

  auto writer = PatchChannelWriter::acquire(dir.path, 42);
  EXPECT_EQ(writer.publish(fib0), 1u);
  EXPECT_EQ(writer.fence_token(), 42u);

  PatchChannelReader reader(dir.path);
  const auto arena = reader.current();
  ASSERT_NE(arena, nullptr);
  EXPECT_TRUE(arena->via_channel());
  EXPECT_EQ(arena->arena_generation(), 1u);
  EXPECT_EQ(arena->seq(), 0u);
  EXPECT_EQ(arena->patches_applied(), 0u);
  EXPECT_EQ(arena->byte_size(),
            kPatchSegmentHeaderBytes + fib0.blob().size());
  EXPECT_EQ(serve_hash(arena->fib(), queries), h0);

  // The writer patches; the reader's EXISTING mapping serves the new
  // rows — same generation, same mmap, no publish anywhere.
  ASSERT_TRUE(writer.apply(two_slot_delta()));
  const auto arena2 = reader.current();
  EXPECT_EQ(arena2.get(), arena.get())
      << "a live patch must not force a re-adoption";
  EXPECT_EQ(arena2->arena_generation(), 1u);
  EXPECT_EQ(arena2->seq(), 2u);
  EXPECT_EQ(arena2->patches_applied(), 1u);
  EXPECT_EQ(serve_hash(arena2->fib(), queries), h1)
      << "the patched row must be visible across the mapping";

  // Zero-republish proof: the store still holds exactly one generation.
  ArenaStore probe(dir.path);
  EXPECT_EQ(probe.generations(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(probe.current_generation(), 1u);
}

TEST(PatchChannelLive, ReaderFallsBackToPlainStores) {
  StoreDir dir("plain");
  const FlatFib fib0 = make_fib(3);
  const auto queries = all_pairs(fib0.node_count());
  const std::uint64_t h0 = batch_hash(forward_batch(fib0, queries));

  // A PR-6 store: no patch channel, no segment files.
  ArenaStore writer(dir.path);
  writer.publish(fib0);

  PatchChannelReader reader(dir.path);
  const auto arena = reader.current();
  ASSERT_NE(arena, nullptr);
  EXPECT_FALSE(arena->via_channel());
  EXPECT_EQ(arena->arena_generation(), 1u);
  EXPECT_EQ(arena->seq(), 0u);
  EXPECT_EQ(arena->patches_applied(), 0u);
  EXPECT_EQ(serve_hash(arena->fib(), queries), h0);
}

// A consistent relabeling of names a and b on a kTz arena: both label
// map slots swapped, and every dictionary bucket holding either name
// rewritten to match (one patch when they share a bucket).
FibDelta label_swap_delta(const FlatFib& fib, NodeId a, NodeId b) {
  const auto& tz = fib.tz();
  std::vector<std::uint32_t> label(tz.label_of, tz.label_of + fib.node_count());
  std::swap(label[a], label[b]);
  FibDelta d;
  d.touched_nodes = 2;
  d.patches.push_back(fib_patch_u32(fib_section::kLabelMap, a, label[a]));
  d.patches.push_back(fib_patch_u32(fib_section::kLabelMap, b, label[b]));
  const std::set<std::uint64_t> buckets = {
      fib_dict_bucket(a, tz.dict_bucket_count),
      fib_dict_bucket(b, tz.dict_bucket_count)};
  for (const std::uint64_t bkt : buckets) {
    std::vector<std::uint64_t> slots;
    for (std::uint64_t i = 0; i < tz.dict_bucket_cap; ++i) {
      const std::uint64_t e = tz.dict[bkt * tz.dict_bucket_cap + i];
      if (e == kFibDictEmpty) break;
      const std::uint32_t name = fib_entry_key(e);
      slots.push_back(fib_pack_entry(name, label[name]));
    }
    d.patches.push_back(fib_patch_row_u64(fib_section::kDictionary,
                                          static_cast<std::uint32_t>(bkt),
                                          slots));
  }
  return d;
}

// Label-map and dictionary patches go through the channel like row
// patches: the writer must fold their words into the segment checksum,
// or the sealed segment reads as checksum-stale and every reader falls
// back to the pristine file, losing the patch.
TEST(PatchChannelLive, TzLabelSwapIsSealedAndAdopted) {
  StoreDir dir("tz_label_swap");
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 5, kN, kP);
  const auto scheme = TzNameIndependentScheme<ShortestPath>::build(
      alg, inst.graph, inst.weights, inst.rng);
  const FlatFib fib0 = compile_fib(scheme, inst.graph,
                                   fib_churn_maintain_options().compile);
  const auto queries = all_pairs(fib0.node_count());
  const FibDelta swap = label_swap_delta(fib0, 0, 1);
  FlatFib patched = writable_copy(fib0);
  ASSERT_TRUE(patched.apply_delta(swap));
  const auto blob = patched.blob();
  ASSERT_NO_THROW(FlatFib::from_blob({blob.data(), blob.size()}))
      << "the swap must be a consistent label layer";
  const std::uint64_t h1 = batch_hash(forward_batch(patched, queries));
  ASSERT_NE(batch_hash(forward_batch(fib0, queries)), h1)
      << "the probe swap must change serving";

  auto writer = PatchChannelWriter::acquire(dir.path, 11);
  EXPECT_EQ(writer.publish(fib0), 1u);
  ASSERT_TRUE(writer.apply(swap));

  PatchChannelReader reader(dir.path);
  const auto arena = reader.current();
  ASSERT_NE(arena, nullptr);
  EXPECT_TRUE(arena->via_channel())
      << "the sealed segment must validate, not fall back to the file";
  EXPECT_EQ(arena->patches_applied(), 1u);
  EXPECT_EQ(serve_hash(arena->fib(), queries), h1);
}

TEST(PatchChannelLive, WatcherAdoptsPatchesInPlaceAndCutsOverOnPublish) {
  StoreDir dir("watcher");
  const FlatFib fib0 = make_fib(7);
  const FlatFib next = make_fib(8);
  const auto queries = all_pairs(fib0.node_count());
  const std::uint64_t h0 = batch_hash(forward_batch(fib0, queries));
  FlatFib patched = writable_copy(fib0);
  ASSERT_TRUE(patched.apply_delta(two_slot_delta()));
  const std::uint64_t h1 = batch_hash(forward_batch(patched, queries));
  const std::uint64_t h2 = batch_hash(forward_batch(next, queries));

  auto writer = PatchChannelWriter::acquire(dir.path, 7);
  writer.publish(fib0);

  StoreWatcher watcher(dir.path);
  ASSERT_TRUE(watcher.wait_for_generation(1, std::chrono::seconds(10)));
  const auto snap = watcher.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->via_channel());
  EXPECT_EQ(watcher.cutovers(), 1u);
  EXPECT_EQ(serve_hash(snap->fib(), queries), h0);

  // A live patch needs NO cutover: the published snapshot's mapping
  // already serves the new rows.
  ASSERT_TRUE(writer.apply(two_slot_delta()));
  const auto snap2 = watcher.snapshot();
  EXPECT_EQ(snap2.get(), snap.get());
  EXPECT_EQ(snap2->patches_applied(), 1u);
  EXPECT_EQ(serve_hash(snap2->fib(), queries), h1);
  EXPECT_EQ(watcher.cutovers(), 1u);

  // A whole new generation DOES cut over, between batches.
  writer.publish(next);
  ASSERT_TRUE(watcher.wait_for_generation(2, std::chrono::seconds(10)));
  EXPECT_EQ(watcher.cutovers(), 2u);
  const auto snap3 = watcher.snapshot();
  ASSERT_NE(snap3, nullptr);
  EXPECT_EQ(snap3->arena_generation(), 2u);
  EXPECT_EQ(serve_hash(snap3->fib(), queries), h2);
}

// ---------------------------------------------------------------------------
// Takeover outcomes, in-process (these run under every sanitizer; the
// fork matrix below proves the same transitions with a genuinely dead
// writer).

TEST(PatchChannelTakeover, OddParityHeadIsRepublished) {
  StoreDir dir("tk_odd");
  const FlatFib fib0 = make_fib(7);
  const auto blob0 = fib0.blob();
  {
    auto w = PatchChannelWriter::acquire(dir.path, 1);
    w.publish(fib0);
    // Dies inside the seqlock window: seq left odd in the segment.
    ASSERT_TRUE(w.apply(two_slot_delta(), PatchStop::kMidPatch));
  }
  PatchSegmentHeader h;
  ArenaStore probe(dir.path);
  ASSERT_TRUE(read_segment_header_file(probe.segment_file(1), &h));
  ASSERT_EQ(h.seq % 2, 1u) << "crash hook must leave the window open";

  auto standby = PatchChannelWriter::acquire(dir.path, 2);
  EXPECT_EQ(standby.recover({blob0.data(), blob0.size()}), 2u);
  EXPECT_EQ(standby.last_takeover(), TakeoverOutcome::kRepublished)
      << "an open patch window must never be adopted";
  EXPECT_EQ(standby.patches_applied(), 0u);
}

TEST(PatchChannelTakeover, StaleChecksumHeadIsRepublished) {
  StoreDir dir("tk_sum");
  const FlatFib fib0 = make_fib(7);
  const auto blob0 = fib0.blob();
  {
    auto w = PatchChannelWriter::acquire(dir.path, 1);
    w.publish(fib0);
    // Dies after the window closed but before the checksum fold: seq is
    // even, the sum disagrees with the bytes forever.
    ASSERT_TRUE(w.apply(two_slot_delta(), PatchStop::kBeforeChecksum));
  }
  PatchSegmentHeader h;
  ArenaStore probe(dir.path);
  ASSERT_TRUE(read_segment_header_file(probe.segment_file(1), &h));
  ASSERT_EQ(h.seq % 2, 0u);

  auto standby = PatchChannelWriter::acquire(dir.path, 2);
  EXPECT_EQ(standby.recover({blob0.data(), blob0.size()}), 2u);
  EXPECT_EQ(standby.last_takeover(), TakeoverOutcome::kRepublished)
      << "bytes nothing vouches for must never be adopted";
}

TEST(PatchChannelTakeover, SealedHeadIsAdoptedInPlaceWithPatchesIntact) {
  StoreDir dir("tk_sealed");
  const FlatFib fib0 = make_fib(7);
  const auto blob0 = fib0.blob();
  const auto queries = all_pairs(fib0.node_count());
  FlatFib patched = writable_copy(fib0);
  ASSERT_TRUE(patched.apply_delta(two_slot_delta()));
  const std::uint64_t h1 = batch_hash(forward_batch(patched, queries));

  PatchChannelReader reader(dir.path);
  {
    auto w = PatchChannelWriter::acquire(dir.path, 1);
    w.publish(fib0);
    ASSERT_TRUE(w.apply(two_slot_delta()));  // fully sealed
    // A reader adopts the live segment while the first writer owns it...
    const auto arena = reader.current();
    ASSERT_NE(arena, nullptr);
    ASSERT_TRUE(arena->via_channel());
  }
  // ...the writer dies; the standby adopts the SAME segment in place:
  // no republish, the delivered patch survives the failover, and the
  // reader's mapping never went away.
  auto standby = PatchChannelWriter::acquire(dir.path, 2);
  EXPECT_EQ(standby.recover({blob0.data(), blob0.size()}), 1u);
  EXPECT_EQ(standby.last_takeover(), TakeoverOutcome::kAdoptedSealed);
  EXPECT_EQ(standby.patches_applied(), 1u)
      << "adoption must preserve already-delivered patches";
  EXPECT_EQ(serve_hash(standby.fib(), queries), h1);

  const auto arena = reader.current();
  ASSERT_NE(arena, nullptr);
  EXPECT_TRUE(arena->via_channel());
  EXPECT_EQ(arena->arena_generation(), 1u);
  EXPECT_EQ(serve_hash(arena->fib(), queries), h1);

  // The standby keeps patching where the dead writer stopped, and the
  // reader sees it live — failover is invisible to the serving path.
  ASSERT_TRUE(standby.apply(two_slot_delta()));
  EXPECT_EQ(arena->patches_applied(), 2u);
  EXPECT_EQ(serve_hash(reader.current()->fib(), queries), h1)
      << "re-darkening dark ports must be a serving no-op";
  ArenaStore probe(dir.path);
  EXPECT_EQ(probe.generations(), (std::vector<std::uint64_t>{1}));
}

// ---------------------------------------------------------------------------
// The fork-based crash matrix: SIGKILL the writer at every protocol
// step; the parent inspects what a genuinely dead process left behind.

#if !defined(__SANITIZE_THREAD__)

// Forks `child`, which must never return into gtest. The parent asserts
// the child died by the signal it raised (SIGKILL — nothing ran after).
template <typename Child>
void fork_and_expect_sigkill(Child child) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    child();
    ::_exit(97);  // unreachable: child() ends in raise(SIGKILL)
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "writer child exited instead of dying";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

TEST(PatchChannelCrashMatrix, WriterKilledMidPatchNeverTearsReaders) {
  StoreDir dir("kill_mid");
  const FlatFib fib0 = make_fib(7);
  const auto blob0 = fib0.blob();
  const auto queries = all_pairs(fib0.node_count());
  const std::uint64_t h0 = batch_hash(forward_batch(fib0, queries));
  FlatFib patched = writable_copy(fib0);
  ASSERT_TRUE(patched.apply_delta(two_slot_delta()));
  const std::uint64_t h1 = batch_hash(forward_batch(patched, queries));
  ASSERT_NE(h0, h1);

  fork_and_expect_sigkill([&] {
    auto writer = PatchChannelWriter::acquire(dir.path, 111);
    writer.publish(fib0);
    writer.apply(two_slot_delta(), PatchStop::kMidPatch);
    ::raise(SIGKILL);
  });

  // The corpse left the seqlock window open in the shared segment.
  ArenaStore probe(dir.path);
  PatchSegmentHeader h;
  ASSERT_TRUE(read_segment_header_file(probe.segment_file(1), &h));
  EXPECT_EQ(h.arena_generation, 1u);
  EXPECT_EQ(h.seq % 2, 1u);
  EXPECT_EQ(h.writer_fence, 111u);

  // A fresh reader refuses the torn segment (bounded snapshot retries,
  // then abandon) and serves the pristine arena file instead — never a
  // torn row, never the half-applied delta.
  PatchChannelReader reader(dir.path);
  auto arena = reader.current();
  ASSERT_NE(arena, nullptr);
  EXPECT_FALSE(arena->via_channel());
  EXPECT_EQ(arena->arena_generation(), 1u);
  EXPECT_EQ(batch_hash(forward_batch(arena->fib(), queries)), h0);

  // The kernel released the dead writer's flock: the standby gets in,
  // refuses the open window, and republishes the fallback.
  auto standby = PatchChannelWriter::acquire(dir.path, 222);
  EXPECT_EQ(standby.recover({blob0.data(), blob0.size()}), 2u);
  EXPECT_EQ(standby.last_takeover(), TakeoverOutcome::kRepublished);

  arena = reader.current();
  ASSERT_NE(arena, nullptr);
  EXPECT_TRUE(arena->via_channel());
  EXPECT_EQ(arena->arena_generation(), 2u);
  EXPECT_EQ(serve_hash(arena->fib(), queries), h0);

  // Failover complete: the standby patches and the reader sees it live.
  ASSERT_TRUE(standby.apply(two_slot_delta()));
  EXPECT_EQ(serve_hash(reader.current()->fib(), queries), h1);
}

TEST(PatchChannelCrashMatrix, WriterKilledBeforeChecksumFoldIsDetected) {
  StoreDir dir("kill_sum");
  const FlatFib fib0 = make_fib(7);
  const auto blob0 = fib0.blob();
  const auto queries = all_pairs(fib0.node_count());
  const std::uint64_t h0 = batch_hash(forward_batch(fib0, queries));

  fork_and_expect_sigkill([&] {
    auto writer = PatchChannelWriter::acquire(dir.path, 111);
    writer.publish(fib0);
    writer.apply(two_slot_delta(), PatchStop::kBeforeChecksum);
    ::raise(SIGKILL);
  });

  // Even parity, but the checksum never caught up with the patched
  // bytes: the one crash a seqlock alone cannot flag.
  ArenaStore probe(dir.path);
  PatchSegmentHeader h;
  ASSERT_TRUE(read_segment_header_file(probe.segment_file(1), &h));
  EXPECT_EQ(h.seq, 2u);
  EXPECT_EQ(h.patches_applied, 0u);

  // Readers must treat it as a dead writer, not a sealed segment.
  PatchChannelReader reader(dir.path);
  const auto arena = reader.current();
  ASSERT_NE(arena, nullptr);
  EXPECT_FALSE(arena->via_channel())
      << "a checksum-stale segment was adopted";
  EXPECT_EQ(batch_hash(forward_batch(arena->fib(), queries)), h0);

  auto standby = PatchChannelWriter::acquire(dir.path, 222);
  EXPECT_EQ(standby.recover({blob0.data(), blob0.size()}), 2u);
  EXPECT_EQ(standby.last_takeover(), TakeoverOutcome::kRepublished);
  EXPECT_EQ(serve_hash(reader.current()->fib(), queries), h0);
}

TEST(PatchChannelCrashMatrix, WriterKilledMidPublishKeepsSealedHead) {
  StoreDir dir("kill_pub");
  const FlatFib fib0 = make_fib(7);
  const FlatFib next = make_fib(8);
  const auto blob0 = fib0.blob();
  const auto next_blob = next.blob();
  const auto queries = all_pairs(fib0.node_count());
  FlatFib patched = writable_copy(fib0);
  ASSERT_TRUE(patched.apply_delta(two_slot_delta()));
  const std::uint64_t h1 = batch_hash(forward_batch(patched, queries));

  fork_and_expect_sigkill([&] {
    auto writer = PatchChannelWriter::acquire(dir.path, 111);
    writer.publish(fib0);
    if (!writer.apply(two_slot_delta())) ::_exit(96);
    // Dies mid-publish of generation 2: arena renamed into place, no
    // segment, CURRENT still naming generation 1.
    writer.store().publish_blob({next_blob.data(), next_blob.size()},
                                PublishStop::kBeforeCurrent);
    ::raise(SIGKILL);
  });

  ArenaStore probe(dir.path);
  EXPECT_EQ(probe.current_generation(), 1u);
  EXPECT_TRUE(fs::exists(probe.arena_file(2)));
  EXPECT_FALSE(fs::exists(probe.segment_file(2)));

  // The standby adopts the sealed generation-1 segment in place: the
  // patch delivered before the crash survives, nothing republishes.
  auto standby = PatchChannelWriter::acquire(dir.path, 222);
  EXPECT_EQ(standby.recover({blob0.data(), blob0.size()}), 1u);
  EXPECT_EQ(standby.last_takeover(), TakeoverOutcome::kAdoptedSealed);
  EXPECT_EQ(standby.patches_applied(), 1u);
  EXPECT_EQ(standby.generation_now(), 1u);

  PatchChannelReader reader(dir.path);
  const auto arena = reader.current();
  ASSERT_NE(arena, nullptr);
  EXPECT_TRUE(arena->via_channel());
  EXPECT_EQ(arena->arena_generation(), 1u);
  EXPECT_EQ(serve_hash(arena->fib(), queries), h1)
      << "the pre-crash patch must survive the failover";
}

// ---------------------------------------------------------------------------
// The tentpole: a forked writer streams the churn corpus through the
// shared segment; two forked readers legality-check every batch.

// Child exit codes, so a failing matrix names its failure mode.
constexpr int kChildOk = 0;
constexpr int kReaderIllegalBatch = 20;       // batch matched NO legal state
constexpr int kReaderWrongGeneration = 21;    // a republish happened
constexpr int kReaderNeverAdopted = 22;
constexpr int kReaderNeverSawFinal = 23;
constexpr int kReaderWrongFinalBytes = 24;
constexpr int kWriterApplyRefused = 30;
constexpr int kWriterHandshakeTimeout = 31;

bool wait_for_file(const fs::path& p,
                   std::chrono::steady_clock::time_point deadline) {
  while (!fs::exists(p)) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void touch(const fs::path& p) {
  std::ofstream out(p);
  out << "x\n";
}

// Writer child: publish ONCE, then stream every delta through the live
// segment. Any republish would show up as generation 2 on disk — the
// parent and both readers assert there never is one.
int child_writer_main(const fs::path& dir, const FlatFib& fib0,
                      const std::vector<FibDelta>& deltas) {
  auto writer = PatchChannelWriter::acquire(
      dir, static_cast<std::uint64_t>(::getpid()));
  writer.publish(fib0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  // Both readers must observe the pre-patch state before churn starts.
  if (!wait_for_file(dir / "READY.polling", deadline) ||
      !wait_for_file(dir / "READY.watcher", deadline)) {
    return kWriterHandshakeTimeout;
  }
  for (const FibDelta& d : deltas) {
    if (!writer.apply(d)) return kWriterApplyRefused;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  touch(dir / "DONE");
  return kChildOk;
}

// The shared reader loop: `take` yields the current arena snapshot
// (polling reader or store watcher). Every batch is bracketed by the
// segment's seqlock word: lo = seq/2 before (completed patch windows),
// hi = (seq+1)/2 after (a window the batch may have overlapped), and the
// batch hash must equal expected[j] for some j in [lo, hi]. File-backed
// fallbacks read seq() == 0 and must therefore serve expected[0] — the
// pristine publish — exactly.
template <typename Take>
int reader_loop(const fs::path& dir, const std::vector<std::uint64_t>& expected,
                const std::vector<std::pair<NodeId, NodeId>>& queries,
                const char* ready_name, Take take) {
  const std::size_t patches_expected = expected.size() - 1;
  ThreadPool pool(2);
  FibBatchOptions opt;
  opt.pool = &pool;
  opt.seqlock_max_retries = 1u << 20;
  bool ready = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::shared_ptr<const ChannelArena> arena = take();
    if (arena == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (!ready) {
      touch(dir / ready_name);
      ready = true;
    }
    if (arena->arena_generation() != 1) return kReaderWrongGeneration;
    const std::uint64_t lo = arena->seq() >> 1;
    const FibBatchOutput out = forward_batch(arena->fib(), queries, opt);
    const std::uint64_t hi = (arena->seq() + 1) >> 1;
    if (!test::hash_in_window(expected, batch_hash(out), lo, hi)) {
      return kReaderIllegalBatch;
    }
    if (fs::exists(dir / "DONE") && arena->via_channel() &&
        arena->patches_applied() == patches_expected) {
      // Quiesced: the final bytes must be exactly the last churn state.
      const std::uint64_t h =
          batch_hash(forward_batch(arena->fib(), queries, opt));
      return h == expected.back() ? kChildOk : kReaderWrongFinalBytes;
    }
  }
  return ready ? kReaderNeverSawFinal : kReaderNeverAdopted;
}

int child_polling_reader_main(
    const fs::path& dir, const std::vector<std::uint64_t>& expected,
    const std::vector<std::pair<NodeId, NodeId>>& queries) {
  PatchChannelReader reader(dir);
  return reader_loop(dir, expected, queries, "READY.polling",
                     [&] { return reader.current(); });
}

int child_watcher_reader_main(
    const fs::path& dir, const std::vector<std::uint64_t>& expected,
    const std::vector<std::pair<NodeId, NodeId>>& queries) {
  StoreWatcher watcher(dir);
  return reader_loop(dir, expected, queries, "READY.watcher",
                     [&] { return watcher.snapshot(); });
}

class PatchChannelSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PatchChannelSeeds, CrossProcessBatchesMatchSomeLegalGeneration) {
  const std::uint64_t seed = GetParam();
  StoreDir dir("fork_" + std::to_string(seed));
  const ShortestPath alg{16};

  // Build the scheme and its churn-compiled arena, then replay the churn
  // trace OFFLINE: expected[j] is the serve hash after deltas 0..j-1,
  // computed on a private copy AND anchored against a fresh compile of
  // the evolved scheme — "legal" really means bit-identical to a fresh
  // compile of that state. The prefix stops at the first delta the
  // in-place protocol would refuse (recompile, slack exhausted), which
  // is deterministic per seed, so writer and oracle agree exactly.
  auto inst = test::seeded_instance(alg, seed, kN, kP);
  const Graph& g = inst.graph;
  auto scheme =
      CowenScheme<ShortestPath>::build(alg, g, inst.weights, inst.rng);
  const FlatFib fib0 =
      compile_fib(scheme, g, fib_churn_maintain_options().compile);
  const auto queries = all_pairs(g.node_count());

  Rng trace_rng(seed ^ 0x5e41ull);
  const auto trace =
      random_churn_trace(alg, g, inst.weights, kEvents, trace_rng);

  FlatFib replay = writable_copy(fib0);
  std::vector<FibDelta> deltas;
  std::vector<std::uint64_t> expected;
  expected.push_back(batch_hash(forward_batch(replay, queries)));
  {
    ChurnEngine<ShortestPath> engine(alg, g, inst.weights);
    for (const auto& ev : trace) {
      const auto applied = engine.apply(ev);
      const auto repair = scheme.apply_event(
          applied.edge, applied.old_weight, applied.new_weight,
          engine.weights(), /*rebuild_dirty_fraction=*/2.0);
      const FibDelta& delta = repair.fib_delta;
      if (delta.recompile) break;
      if (delta.empty()) continue;
      if (!replay.apply_delta(delta)) break;
      const std::uint64_t h = batch_hash(forward_batch(replay, queries));
      if (h != batch_hash(forward_batch(compile_fib(scheme, g), queries))) {
        break;  // patched state drifted from a fresh compile: not legal
      }
      deltas.push_back(delta);
      expected.push_back(h);
    }
  }
  if (deltas.empty()) {
    // A quiet trace still must exercise the channel: fall back to the
    // synthetic two-slot delta every slacked Cowen arena accepts.
    FibDelta d = two_slot_delta();
    ASSERT_TRUE(replay.apply_delta(d));
    deltas.push_back(std::move(d));
    expected.push_back(batch_hash(forward_batch(replay, queries)));
  }

  const pid_t writer_pid = ::fork();
  ASSERT_GE(writer_pid, 0);
  if (writer_pid == 0) ::_exit(child_writer_main(dir.path, fib0, deltas));
  const pid_t poll_pid = ::fork();
  ASSERT_GE(poll_pid, 0);
  if (poll_pid == 0) {
    ::_exit(child_polling_reader_main(dir.path, expected, queries));
  }
  const pid_t watch_pid = ::fork();
  ASSERT_GE(watch_pid, 0);
  if (watch_pid == 0) {
    ::_exit(child_watcher_reader_main(dir.path, expected, queries));
  }

  const auto reap = [](pid_t pid, const char* who) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid) << who;
    ASSERT_TRUE(WIFEXITED(status)) << who << " crashed";
    EXPECT_EQ(WEXITSTATUS(status), kChildOk)
        << who << ": 20=batch matched no legal generation (torn serving), "
                  "21=saw a republished generation, 22=never adopted, "
                  "23=never saw the final state, 24=wrong final bytes, "
                  "30=writer refused a delta the oracle accepted, "
                  "31=reader handshake timed out";
  };
  reap(writer_pid, "writer");
  reap(poll_pid, "polling reader");
  reap(watch_pid, "watcher reader");

  // The zero-republish counter proof, from the store itself: every one
  // of the deltas.size() patches the readers just legality-checked
  // traveled through generation 1's live segment.
  ArenaStore probe(dir.path);
  EXPECT_EQ(probe.generations(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(probe.current_generation(), 1u);
  PatchSegmentHeader h;
  ASSERT_TRUE(read_segment_header_file(probe.segment_file(1), &h));
  EXPECT_EQ(h.patches_applied, deltas.size());
  EXPECT_EQ(h.seq, 2 * deltas.size());
}

INSTANTIATE_TEST_SUITE_P(Corpus, PatchChannelSeeds,
                         ::testing::Range<std::uint64_t>(0, kCorpusSeeds));

#endif  // !defined(__SANITIZE_THREAD__)

// ---------------------------------------------------------------------------
// In-process concurrency leg (runs under EVERY preset, TSan included):
// reader threads and snapshot adopters race a live patcher over the
// writer's own mapping — same virtual addresses, so TSan watches both
// sides of the seqlock and the checksum fold.

TEST(PatchChannelConcurrency, SnapshotsAndBatchesRaceALivePatcher) {
  StoreDir dir("race");
  const FlatFib fib0 = make_fib(11);
  const auto queries = all_pairs(fib0.node_count());
  const std::uint64_t h0 = batch_hash(forward_batch(fib0, queries));
  FlatFib flipped = writable_copy(fib0);
  FibDelta dark;
  dark.touched_nodes = 1;
  dark.patches.push_back(
      fib_patch_u32(fib_section::kCowenLandmarkPort, 0, kInvalidPort));
  ASSERT_TRUE(flipped.apply_delta(dark));
  const std::uint64_t h1 = batch_hash(forward_batch(flipped, queries));

  auto writer = PatchChannelWriter::acquire(dir.path, 9);
  writer.publish(fib0);
  const Port orig = [&] {
    // Recover the original port value straight from the pristine arena.
    return static_cast<Port>(
        fib0.cowen().landmark_port[0]);
  }();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> illegal{0};
  std::atomic<std::size_t> batches{0};
  std::atomic<std::size_t> snapshots_ok{0};

  std::vector<std::thread> workers;
  for (int r = 0; r < 2; ++r) {
    workers.emplace_back([&] {
      ThreadPool pool(1);
      FibBatchOptions opt;
      opt.pool = &pool;
      opt.seqlock_max_retries = 1u << 20;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t h =
            batch_hash(forward_batch(writer.fib(), queries, opt));
        batches.fetch_add(1, std::memory_order_relaxed);
        if (h != h0 && h != h1) {
          illegal.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  workers.emplace_back([&] {
    // The adopter's view: seqlock-stable snapshots of the same mapping.
    // Transient failures (a fold in flight) are allowed; successes must
    // carry a header that vouches for generation 1.
    while (!stop.load(std::memory_order_acquire)) {
      PatchSegmentHeader h;
      const auto copy = patch_channel_snapshot(
          writer.segment_for_test(), writer.segment_bytes_for_test(), 4096,
          &h);
      if (!copy.empty() && h.arena_generation == 1) {
        snapshots_ok.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });

  // Hold the first flip until both reader roles have completed at least
  // one pass against the pristine mapping: on a loaded host the 64 flips
  // can otherwise finish before a reader thread is first scheduled,
  // leaving the race unexercised and the counters below at zero.
  while (batches.load(std::memory_order_relaxed) == 0 ||
         snapshots_ok.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  // The patcher: 64 alternating flips of one landmark-port slot, each a
  // full cross-process patch (seqlock window + checksum fold).
  constexpr std::size_t kFlips = 64;
  for (std::size_t i = 0; i < kFlips; ++i) {
    FibDelta d;
    d.touched_nodes = 1;
    d.patches.push_back(fib_patch_u32(fib_section::kCowenLandmarkPort, 0,
                                      i % 2 == 0 ? kInvalidPort : orig));
    ASSERT_TRUE(writer.apply(d));
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();

  EXPECT_EQ(illegal.load(), 0u)
      << "a batch matched neither reachable state (torn serving) out of "
      << batches.load();
  EXPECT_GT(batches.load(), 0u);
  EXPECT_GT(snapshots_ok.load(), 0u)
      << "no snapshot ever validated against the live patcher";
  EXPECT_EQ(writer.patches_applied(), kFlips);
  // kFlips is even: the last flip restored the original port.
  EXPECT_EQ(serve_hash(writer.fib(), queries), h0);
}

}  // namespace
}  // namespace cpr
