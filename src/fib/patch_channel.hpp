// Cross-process live patch channel over an ArenaStore directory.
//
// ArenaStore (arena_store.hpp) made the serving plane multi-process, but
// its freshness unit is a whole generation: a single-row churn repair
// rides a full temp/fsync/rename publish before any other process can
// observe it. The patch channel closes that gap. Beside every published
// arena-<gen>.fib the writer emits arena-<gen>.pch — a MAP_SHARED
// read-write *segment* holding a 64-byte "CPRPCH01" header followed by a
// byte-identical copy of the arena blob:
//
//   offset  field             discipline
//   ------  ----------------  ------------------------------------------
//        0  magic             "CPRPCH01", immutable
//        8  arena_generation  the store generation this segment carries
//       16  seq               the seqlock word (odd = patch in flight)
//       24  patches_applied   deltas fully applied, checksum included
//       32  writer_fence      owning writer's token; 0 = unowned
//       40  payload_bytes     size of the embedded blob, immutable
//       48  payload_checksum  position-weighted sum over the blob words
//       56  reserved          0
//
// The embedded blob starts at offset 64 and is patched IN PLACE: the
// writer opens the segment with FlatFib::from_shared, which routes the
// in-process seqlock protocol (flat_fib.hpp) through the `seq` header
// word, so apply_delta's odd/even window is visible to reader
// *processes*, not just reader threads. Readers map the same file, run
// forward_batch against the shared bytes through the same relaxed-atomic
// loads, and retry batches that overlap a window — a patched row is
// served everywhere the moment the window closes, with zero republishes.
//
// Checksum discipline: the arena's own XXH64 payload checksum goes
// lazily stale under in-place patches (by design — see flat_fib.hpp), so
// the segment header carries its own: sum over the blob's u64 words of
// word[i] * (2*i + 1) (mod 2^64). The odd weights make it position-
// sensitive, and additivity makes it incrementally maintainable — the
// writer folds in (new - old) * weight for exactly the words a delta
// touched, O(patch) not O(arena). It is a crash/torn-write detector, not
// a cryptographic digest; the immutable .fib files keep the full XXH64.
// The checksum is updated AFTER the seqlock window closes, which turns
// "writer died post-patch, pre-checksum" into a detectable state: seq is
// even but the sum disagrees, so adopters discard the segment and fall
// back to the pristine .fib — they never serve bytes nothing vouches for.
//
// Adoption (readers and standby writers alike) is seqlock-stable
// snapshot validation: copy the blob through relaxed atomic word loads
// bracketed by two reads of `seq` (retry unless even and unchanged),
// verify the header checksum against the copy, re-seal the copy's inner
// payload checksum, and run FlatFib's full structural validation on the
// private bytes. Only then is the *live* mapping served, via from_shared — which
// skips content checks precisely because this snapshot already ran them.
//
// Failover: writers are fenced by flock(2) on <dir>/writer.lock — the
// kernel drops the lock when the owner dies, even by SIGKILL, so a
// standby's acquire() blocks out a live writer but succeeds over a dead
// one; the fence token in the header records the owner for audit. A
// standby's recover() removes stale temps (the existing restart
// discipline), then either adopts a sealed head segment in place
// (snapshot-validated, fence restamped) or — on odd parity or a checksum
// mismatch — abandons the torn segment and republishes a fresh
// generation, which watchers cut readers over to.
#pragma once

#include "fib/arena_store.hpp"
#include "fib/flat_fib.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace cpr {

struct FibDelta;  // fib/fib_delta.hpp

inline constexpr char kPatchSegmentMagic[8] = {'C', 'P', 'R', 'P', 'C',
                                               'H', '0', '1'};
inline constexpr std::size_t kPatchSegmentHeaderBytes = 64;

// Header field byte offsets (all u64 except the magic).
namespace patch_segment {
inline constexpr std::size_t kArenaGeneration = 8;
inline constexpr std::size_t kSeq = 16;
inline constexpr std::size_t kPatchesApplied = 24;
inline constexpr std::size_t kWriterFence = 32;
inline constexpr std::size_t kPayloadBytes = 40;
inline constexpr std::size_t kChecksum = 48;
inline constexpr std::size_t kReserved = 56;
}  // namespace patch_segment

// Position-weighted additive checksum over `words` (see file comment):
// sum of words[i] * (2*i + 1) mod 2^64. Plain loads — call it on private
// buffers only; the writer's incremental update and the snapshot copy
// read live mappings through fib_seq_load_u64 instead.
std::uint64_t patch_channel_checksum(const std::uint64_t* words,
                                     std::size_t count);

// Pure segment encoder: the exact bytes of a fresh arena-<gen>.pch for
// this blob, generation and fence token. Deterministic — the golden
// wire-format test pins its output byte for byte (fence 0 = unowned).
// Throws if the blob size is not a multiple of 8 (FibBuilder blobs are
// 64-byte multiples; only hand-made garbage is not).
std::vector<std::uint8_t> patch_channel_segment_bytes(
    std::span<const std::uint8_t> blob, std::uint64_t arena_generation,
    std::uint64_t writer_fence);

// Atomic (relaxed) view of a mapped segment's header. False when the
// mapping is too small or the magic does not match.
struct PatchSegmentHeader {
  std::uint64_t arena_generation = 0;
  std::uint64_t seq = 0;
  std::uint64_t patches_applied = 0;
  std::uint64_t writer_fence = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
};
bool patch_channel_read_header(const std::uint8_t* segment,
                               std::size_t segment_bytes,
                               PatchSegmentHeader* header);

// Seqlock-stable snapshot of a mapped segment's blob: copies the blob
// words through relaxed atomic loads bracketed by two reads of `seq`,
// retrying up to `max_retries` times while a patch window is open or the
// generation moves, then checks the header checksum against the copy.
// Returns the copied words (empty on failure) and, when `header` is
// non-null, the header observed inside the stable window. This is the
// one routine every adopter trusts — readers, standby takeover, and the
// TSan harness (which points it at the writer's own mapping so the race
// detector can see both sides).
std::vector<std::uint64_t> patch_channel_snapshot(
    const std::uint8_t* segment, std::size_t segment_bytes,
    std::size_t max_retries, PatchSegmentHeader* header);

// Crash injection for the fault matrix: abandon an apply() at a chosen
// protocol step, exactly as a writer SIGKILLed there would. The fork
// harness has the child raise(SIGKILL) right after the truncated apply,
// so the parent-visible state is produced by a genuinely dead process.
enum class PatchStop {
  kNone,            // run to completion
  kMidPatch,        // die inside the seqlock window: seq left odd
  kBeforeChecksum,  // patches landed, window closed, checksum stale
};

// What a standby's recover() found and did.
enum class TakeoverOutcome {
  kNone,          // recover() not run (fresh writer)
  kAdoptedSealed, // head segment was sealed + checksum-valid: adopted live
  kRepublished,   // torn/odd/unverifiable head: fresh generation published
};

// One validated adoption: the mapping plus a FlatFib serving it. Either
// channel-backed (from_shared over the live segment, seqlock word in the
// header — rows move under live patches) or file-backed (read-only
// from_memory over arena-<gen>.fib, the fallback when no segment
// validates). Immutable handle; destroys (munmaps) with the last owner.
class ChannelArena {
 public:
  ~ChannelArena();
  ChannelArena(const ChannelArena&) = delete;
  ChannelArena& operator=(const ChannelArena&) = delete;

  const FlatFib& fib() const { return fib_; }
  std::uint64_t arena_generation() const { return generation_; }
  // True when served through the live segment (patches visible in
  // place); false for the read-only .fib fallback.
  bool via_channel() const { return via_channel_; }
  // Live header counters (relaxed atomic reads); 0 when file-backed.
  std::uint64_t patches_applied() const;
  std::uint64_t seq() const;
  std::size_t byte_size() const { return bytes_; }
  // Raw mapped bytes (segment or file) — the watcher prefaults through
  // this; walk it with fib_seq_load_* only, the segment may be live.
  const void* map_base() const { return map_; }

 private:
  friend class PatchChannelReader;
  ChannelArena() = default;

  std::uint64_t generation_ = 0;
  bool via_channel_ = false;
  void* map_ = nullptr;
  std::size_t bytes_ = 0;
  FlatFib fib_;
};

// Reader side: maps and snapshot-validates the head segment of a store
// directory, falling back through older generations and then to the
// pristine .fib files. Any number of reader processes may run one.
class PatchChannelReader {
 public:
  explicit PatchChannelReader(std::filesystem::path dir);

  // Newest generation that adopts (segment preferred, file fallback);
  // nullptr when nothing in the directory validates. Re-reads CURRENT
  // every call; the returned snapshot stays valid as long as it is held.
  std::shared_ptr<const ChannelArena> current();

  // The last snapshot current() returned, without touching the disk.
  std::shared_ptr<const ChannelArena> cached() const { return cached_; }

  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::shared_ptr<const ChannelArena> try_adopt(std::uint64_t gen) const;

  std::filesystem::path dir_;
  std::shared_ptr<const ChannelArena> cached_;
};

// Store watcher: a reader-side thread that notices new generations
// (inotify on the store directory where available, bounded polling
// everywhere), adopts them through PatchChannelReader, prefaults the
// incoming mapping so the first batch against it takes no major-fault
// storm, and swaps the published snapshot — serving loops pick it up
// *between* batches, so a batch never changes arenas mid-flight.
class StoreWatcher {
 public:
  struct Options {
    std::chrono::milliseconds poll{20};  // fallback/backstop cadence
    bool prefault = true;
  };

  explicit StoreWatcher(std::filesystem::path dir);
  StoreWatcher(std::filesystem::path dir, Options opt);
  ~StoreWatcher();
  StoreWatcher(const StoreWatcher&) = delete;
  StoreWatcher& operator=(const StoreWatcher&) = delete;

  // Latest adopted snapshot (nullptr until the first adoption lands).
  std::shared_ptr<const ChannelArena> snapshot() const;

  // Generations adopted so far (0 before the first).
  std::uint64_t cutovers() const;

  // Blocks until a snapshot with arena_generation >= gen is published or
  // the timeout elapses; true on success. Test/benchmark helper.
  bool wait_for_generation(std::uint64_t gen,
                           std::chrono::milliseconds timeout);

  void stop();

 private:
  void run();
  void adopt_head();

  std::filesystem::path dir_;
  Options opt_;
  PatchChannelReader reader_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<const ChannelArena> snapshot_;
  std::uint64_t cutovers_ = 0;
  bool stop_ = false;
  int inotify_fd_ = -1;
  std::thread thread_;
};

// Writer side: the fenced owner of a store directory's patch channel.
// acquire() takes flock(LOCK_EX | LOCK_NB) on <dir>/writer.lock and
// throws if a live writer holds it — two live writers can never both
// patch one segment, and a SIGKILLed owner's lock is released by the
// kernel, so a standby's acquire() succeeds exactly when the owner is
// dead. Single-process, single-owner: not thread-safe.
class PatchChannelWriter {
 public:
  // Throws std::runtime_error when another live writer owns the store.
  static PatchChannelWriter acquire(const std::filesystem::path& dir,
                                    std::uint64_t fence_token);
  ~PatchChannelWriter();
  PatchChannelWriter(PatchChannelWriter&&) noexcept;
  PatchChannelWriter& operator=(PatchChannelWriter&&) noexcept;
  PatchChannelWriter(const PatchChannelWriter&) = delete;
  PatchChannelWriter& operator=(const PatchChannelWriter&) = delete;

  // Publishes the blob as the next store generation — arena file AND
  // fence-stamped segment, CURRENT last — then maps the fresh segment
  // read-write and serves/patches through it. Returns the generation.
  std::uint64_t publish(const FlatFib& fib);
  std::uint64_t publish_blob(std::span<const std::uint8_t> blob);

  // Standby takeover: stale-temp cleanup, then adopt the sealed head
  // segment in place (snapshot-validated, fence restamped) or republish
  // `fallback_blob` as a fresh generation when the head is torn (odd
  // seq), checksum-stale, or absent. Returns the generation now served.
  std::uint64_t recover(std::span<const std::uint8_t> fallback_blob);
  TakeoverOutcome last_takeover() const { return takeover_; }

  // Applies a churn delta to the live segment: seqlock-bracketed row
  // stores through the shared word, then the incremental checksum fold
  // and the patches_applied bump. False when apply_delta refuses
  // (recompile demanded, slack exhausted, odd parity) — the caller
  // compacts by publishing a fresh generation instead. `stop` injects
  // the crash matrix's truncations (the caller then SIGKILLs itself).
  bool apply(const FibDelta& delta, PatchStop stop = PatchStop::kNone);

  // The segment-backed arena (writable; seqlock word = header's `seq`).
  FlatFib& fib() { return fib_; }
  const FlatFib& fib() const { return fib_; }
  bool attached() const { return map_ != nullptr; }

  // Live header counters of the mapped segment.
  std::uint64_t patches_applied() const;
  std::uint64_t generation_now() const { return arena_generation_; }
  std::uint64_t fence_token() const { return fence_token_; }

  // Test hook forwarded to the shared arena: the next apply() abandons
  // the segment mid-window after `patches` row patches (seq left odd).
  void simulate_crash_after_for_test(std::size_t patches) {
    fib_.simulate_writer_crash_after_for_test(patches);
  }

  ArenaStore& store() { return store_; }
  const std::uint8_t* segment_for_test() const {
    return static_cast<const std::uint8_t*>(map_);
  }
  std::size_t segment_bytes_for_test() const { return map_bytes_; }

 private:
  PatchChannelWriter(std::filesystem::path dir, std::uint64_t fence_token,
                     int lock_fd);

  // Maps arena-<gen>.pch read-write and wires the shared arena over it.
  void attach_segment(std::uint64_t gen);
  void detach_segment();
  // Sorted, deduplicated blob-word indices a delta will touch.
  std::vector<std::size_t> touched_words(const FibDelta& delta) const;
  std::uint64_t weighted_sum_live(const std::vector<std::size_t>& words) const;

  std::filesystem::path dir_;
  std::uint64_t fence_token_ = 0;
  int lock_fd_ = -1;
  ArenaStore store_;
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::uint64_t arena_generation_ = 0;
  FlatFib fib_;
  TakeoverOutcome takeover_ = TakeoverOutcome::kNone;
  // Blob-relative byte offsets of the patchable sections in the mapped
  // segment (parsed once per attach; the directory is immutable). The
  // label map and dictionary exist on kTz arenas only.
  std::uint64_t rows_off_ = 0;
  std::uint64_t row_len_off_ = 0;
  std::uint64_t landmark_off_ = 0;
  std::uint64_t landmark_port_off_ = 0;
  std::uint64_t label_map_off_ = 0;
  std::uint64_t dict_off_ = 0;
};

}  // namespace cpr
