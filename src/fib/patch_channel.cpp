#include "fib/patch_channel.hpp"

#include "fib/fib_delta.hpp"
#include "util/hugepage.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/inotify.h>
#endif

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace cpr {
namespace fs = std::filesystem;
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("PatchChannel: " + what + " (" +
                           std::strerror(errno) + ")");
}

std::uint64_t atomic_load_u64(const std::uint8_t* p) {
  return fib_seq_load_u64(reinterpret_cast<const std::uint64_t*>(p));
}

void atomic_store_u64(std::uint8_t* p, std::uint64_t v) {
  fib_seq_store_u64(reinterpret_cast<std::uint64_t*>(p), v);
}

// Validates a snapshot copy end to end: segment checksum already held,
// now the blob itself — re-seal the payload checksum and run FlatFib's full
// structural open against the private bytes. The re-seal is needed
// because a snapshot taken mid-churn carries patched rows but the
// pre-patch payload sum (FlatFib refreshes it lazily, never through the
// channel); the segment's own checksum has already vouched for the bytes.
bool validate_blob_copy(std::vector<std::uint64_t>& words,
                        std::size_t payload_bytes) {
  auto* bytes = reinterpret_cast<std::uint8_t*>(words.data());
  if (!fib_reseal_payload_checksum(bytes, payload_bytes)) return false;
  try {
    FlatFib::from_memory(bytes, payload_bytes);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

struct Mapping {
  void* base = nullptr;
  std::size_t bytes = 0;
};

// mmap of a whole file; prot selects the reader/writer role. Empty
// mapping (base == nullptr) on any failure.
Mapping map_file(const fs::path& path, int open_flags, int prot) {
  const int fd = ::open(path.c_str(), open_flags);
  if (fd < 0) return {};
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return {};
  }
  const auto bytes = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, bytes, prot, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return {};
  advise_huge_pages(map, bytes);
  return {map, bytes};
}

}  // namespace

std::uint64_t patch_channel_checksum(const std::uint64_t* words,
                                     std::size_t count) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < count; ++i) {
    sum += words[i] * (2 * static_cast<std::uint64_t>(i) + 1);
  }
  return sum;
}

std::vector<std::uint8_t> patch_channel_segment_bytes(
    std::span<const std::uint8_t> blob, std::uint64_t arena_generation,
    std::uint64_t writer_fence) {
  if (blob.size() % 8 != 0) {
    throw std::runtime_error(
        "PatchChannel: blob size is not a multiple of 8");
  }
  std::vector<std::uint8_t> out(kPatchSegmentHeaderBytes + blob.size(), 0);
  std::memcpy(out.data(), kPatchSegmentMagic, sizeof(kPatchSegmentMagic));
  std::memcpy(out.data() + kPatchSegmentHeaderBytes, blob.data(), blob.size());
  const std::uint64_t seq = 0;
  const std::uint64_t patches = 0;
  const std::uint64_t payload_bytes = blob.size();
  const std::uint64_t checksum = patch_channel_checksum(
      reinterpret_cast<const std::uint64_t*>(out.data() +
                                             kPatchSegmentHeaderBytes),
      blob.size() / 8);
  const std::uint64_t reserved = 0;
  namespace ps = patch_segment;
  std::memcpy(out.data() + ps::kArenaGeneration, &arena_generation, 8);
  std::memcpy(out.data() + ps::kSeq, &seq, 8);
  std::memcpy(out.data() + ps::kPatchesApplied, &patches, 8);
  std::memcpy(out.data() + ps::kWriterFence, &writer_fence, 8);
  std::memcpy(out.data() + ps::kPayloadBytes, &payload_bytes, 8);
  std::memcpy(out.data() + ps::kChecksum, &checksum, 8);
  std::memcpy(out.data() + ps::kReserved, &reserved, 8);
  return out;
}

bool patch_channel_read_header(const std::uint8_t* segment,
                               std::size_t segment_bytes,
                               PatchSegmentHeader* header) {
  if (segment == nullptr || segment_bytes < kPatchSegmentHeaderBytes) {
    return false;
  }
  if (std::memcmp(segment, kPatchSegmentMagic, sizeof(kPatchSegmentMagic)) !=
      0) {
    return false;
  }
  namespace ps = patch_segment;
  header->arena_generation = atomic_load_u64(segment + ps::kArenaGeneration);
  header->seq = atomic_load_u64(segment + ps::kSeq);
  header->patches_applied = atomic_load_u64(segment + ps::kPatchesApplied);
  header->writer_fence = atomic_load_u64(segment + ps::kWriterFence);
  header->payload_bytes = atomic_load_u64(segment + ps::kPayloadBytes);
  header->checksum = atomic_load_u64(segment + ps::kChecksum);
  return true;
}

std::vector<std::uint64_t> patch_channel_snapshot(
    const std::uint8_t* segment, std::size_t segment_bytes,
    std::size_t max_retries, PatchSegmentHeader* header) {
  PatchSegmentHeader h;
  if (!patch_channel_read_header(segment, segment_bytes, &h)) return {};
  if (h.payload_bytes == 0 || h.payload_bytes % 8 != 0 ||
      h.payload_bytes > segment_bytes - kPatchSegmentHeaderBytes) {
    return {};
  }
  const std::size_t count = h.payload_bytes / 8;
  const auto* words = reinterpret_cast<const std::uint64_t*>(
      segment + kPatchSegmentHeaderBytes);
  const auto* seq_word =
      reinterpret_cast<const std::uint64_t*>(segment + patch_segment::kSeq);
  std::vector<std::uint64_t> copy(count);
  for (std::size_t attempt = 0; attempt <= max_retries; ++attempt) {
    if (attempt != 0) std::this_thread::yield();
    const std::uint64_t s1 =
        std::atomic_ref<std::uint64_t>(*const_cast<std::uint64_t*>(seq_word))
            .load(std::memory_order_acquire);
    if ((s1 & 1) != 0) continue;  // patch window open: wait it out
    for (std::size_t i = 0; i < count; ++i) {
      copy[i] = fib_seq_load_u64(words + i);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t s2 =
        std::atomic_ref<std::uint64_t>(*const_cast<std::uint64_t*>(seq_word))
            .load(std::memory_order_relaxed);
    if (s1 != s2) continue;  // a patch landed mid-copy: go again
    // The checksum fold runs *after* the window closes (that ordering is
    // what makes "died pre-checksum" detectable), so a copy can observe
    // a sum one fold behind its bytes: a mismatch here is retry, not
    // corruption — unless the writer is dead, in which case it never
    // converges and the caller falls back to the pristine arena file.
    const std::uint64_t sum =
        atomic_load_u64(segment + patch_segment::kChecksum);
    if (patch_channel_checksum(copy.data(), count) != sum) continue;
    if (header != nullptr) {
      patch_channel_read_header(segment, segment_bytes, header);
      header->seq = s2;
      header->checksum = sum;
    }
    return copy;
  }
  return {};
}

// ---------------------------------------------------------------------------
// ChannelArena

ChannelArena::~ChannelArena() {
  fib_ = FlatFib();  // drop the views before the mapping goes away
  if (map_ != nullptr) ::munmap(map_, bytes_);
}

std::uint64_t ChannelArena::patches_applied() const {
  if (!via_channel_) return 0;
  return atomic_load_u64(static_cast<const std::uint8_t*>(map_) +
                         patch_segment::kPatchesApplied);
}

std::uint64_t ChannelArena::seq() const {
  if (!via_channel_) return 0;
  return atomic_load_u64(static_cast<const std::uint8_t*>(map_) +
                         patch_segment::kSeq);
}

// ---------------------------------------------------------------------------
// PatchChannelReader

namespace {
// Adoption re-tries the snapshot this many times (yields, no sleeps):
// enough to ride out any in-flight patch or a checksum fold in progress,
// small enough that a dead-writer segment is abandoned in microseconds.
constexpr std::size_t kAdoptSnapshotRetries = 4096;
}  // namespace

PatchChannelReader::PatchChannelReader(fs::path dir) : dir_(std::move(dir)) {
  fs::create_directories(dir_);
}

std::shared_ptr<const ChannelArena> PatchChannelReader::try_adopt(
    std::uint64_t gen) const {
  ArenaStore store(dir_);
  // Segment first: live patches, zero republish latency.
  Mapping seg = map_file(store.segment_file(gen), O_RDONLY, PROT_READ);
  if (seg.base != nullptr) {
    const auto* base = static_cast<const std::uint8_t*>(seg.base);
    PatchSegmentHeader h;
    auto copy = patch_channel_snapshot(base, seg.bytes, kAdoptSnapshotRetries,
                                       &h);
    if (!copy.empty() && h.arena_generation == gen &&
        validate_blob_copy(copy, h.payload_bytes)) {
      std::shared_ptr<ChannelArena> arena(new ChannelArena());
      arena->generation_ = gen;
      arena->via_channel_ = true;
      arena->map_ = seg.base;
      arena->bytes_ = seg.bytes;
      // Serve the LIVE mapping: the snapshot vouched for the protocol
      // and the structure; future patches arrive through the seqlock.
      auto* mut = static_cast<std::uint8_t*>(seg.base);
      auto* seq_word =
          reinterpret_cast<std::uint64_t*>(mut + patch_segment::kSeq);
      try {
        arena->fib_ = FlatFib::from_shared(mut + kPatchSegmentHeaderBytes,
                                           h.payload_bytes, seq_word,
                                           /*writable=*/false);
        return arena;
      } catch (const std::exception&) {
        // header/directory bounds failed: fall through to the file
      }
    }
    ::munmap(seg.base, seg.bytes);
  }
  // Pristine arena file: the patch-less fallback (torn or absent
  // segment). Readers here never see in-place patches — only whole new
  // generations — which is the PR-6 contract.
  Mapping file = map_file(store.arena_file(gen), O_RDONLY, PROT_READ);
  if (file.base == nullptr) return nullptr;
  std::shared_ptr<ChannelArena> arena(new ChannelArena());
  arena->generation_ = gen;
  arena->via_channel_ = false;
  arena->map_ = file.base;
  arena->bytes_ = file.bytes;
  try {
    arena->fib_ = FlatFib::from_memory(file.base, file.bytes);
  } catch (const std::exception&) {
    return nullptr;  // ~ChannelArena unmaps
  }
  return arena;
}

std::shared_ptr<const ChannelArena> PatchChannelReader::current() {
  ArenaStore store(dir_);
  const std::uint64_t want = store.current_generation();
  if (want != 0) {
    if (cached_ && cached_->arena_generation() == want) {
      // Upgrade a file-backed adoption once the segment appears (e.g. a
      // standby republished the arena before its segment was visible).
      if (cached_->via_channel() || !fs::exists(store.segment_file(want))) {
        return cached_;
      }
    }
    if (auto arena = try_adopt(want)) {
      cached_ = std::move(arena);
      return cached_;
    }
  }
  for (const std::uint64_t g : store.generations()) {
    if (g == want) continue;  // already rejected above
    if (cached_ && cached_->arena_generation() == g) return cached_;
    if (auto arena = try_adopt(g)) {
      cached_ = std::move(arena);
      return cached_;
    }
  }
  return cached_;  // possibly stale, but alive — beats nothing
}

// ---------------------------------------------------------------------------
// StoreWatcher

StoreWatcher::StoreWatcher(fs::path dir)
    : StoreWatcher(std::move(dir), Options()) {}

StoreWatcher::StoreWatcher(fs::path dir, Options opt)
    : dir_(std::move(dir)), opt_(opt), reader_(dir_) {
#if defined(__linux__)
  inotify_fd_ = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
  if (inotify_fd_ >= 0) {
    // Publishes and cutovers land via rename(2) (IN_MOVED_TO); CURRENT
    // rewrites too. Failure just means we poll at the backstop cadence.
    if (::inotify_add_watch(inotify_fd_, dir_.c_str(),
                            IN_MOVED_TO | IN_CLOSE_WRITE) < 0) {
      ::close(inotify_fd_);
      inotify_fd_ = -1;
    }
  }
#endif
  thread_ = std::thread([this] { run(); });
}

StoreWatcher::~StoreWatcher() {
  stop();
  if (thread_.joinable()) thread_.join();
  if (inotify_fd_ >= 0) ::close(inotify_fd_);
}

void StoreWatcher::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
}

std::shared_ptr<const ChannelArena> StoreWatcher::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

std::uint64_t StoreWatcher::cutovers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cutovers_;
}

bool StoreWatcher::wait_for_generation(std::uint64_t gen,
                                       std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, timeout, [&] {
    return stop_ || (snapshot_ && snapshot_->arena_generation() >= gen);
  }) && snapshot_ && snapshot_->arena_generation() >= gen;
}

void StoreWatcher::adopt_head() {
  auto cur = reader_.current();
  if (!cur) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (snapshot_ == cur) return;  // reader caches per generation
  }
  if (opt_.prefault) {
    // Touch one word per page through the seqlock loads (the mapping may
    // be live under a patcher), so the first batch against the incoming
    // arena pays no major-fault storm mid-walk.
    const auto* words = static_cast<const std::uint64_t*>(cur->map_base());
    const std::size_t count = cur->byte_size() / 8;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < count; i += 4096 / 8) {
      sink += fib_seq_load_u64(words + i);
    }
    asm volatile("" : : "r"(sink) : "memory");  // keep the loads
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_ = std::move(cur);
    ++cutovers_;
  }
  cv_.notify_all();
}

void StoreWatcher::run() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
    }
    adopt_head();
    if (inotify_fd_ >= 0) {
      struct pollfd pfd{};
      pfd.fd = inotify_fd_;
      pfd.events = POLLIN;
      const int timeout_ms = static_cast<int>(opt_.poll.count());
      (void)::poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : 1);
      // Drain whatever queued; the adopt_head() above-next-iteration
      // re-reads CURRENT regardless of what the events said.
      char buf[4096];
      while (::read(inotify_fd_, buf, sizeof(buf)) > 0) {
      }
    } else {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, opt_.poll, [&] { return stop_; });
      if (stop_) return;
    }
  }
}

// ---------------------------------------------------------------------------
// PatchChannelWriter

PatchChannelWriter PatchChannelWriter::acquire(const fs::path& dir,
                                               std::uint64_t fence_token) {
  fs::create_directories(dir);
  const fs::path lock_path = dir / "writer.lock";
  const int fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) fail("cannot open " + lock_path.string());
  // The fence: LOCK_EX is held for the writer's lifetime and released by
  // the kernel when the process dies — SIGKILL included — so a standby
  // gets in exactly when the owner cannot possibly issue another store.
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    throw std::runtime_error(
        "PatchChannelWriter: another live writer owns " + dir.string());
  }
  return PatchChannelWriter(dir, fence_token, fd);
}

PatchChannelWriter::PatchChannelWriter(fs::path dir, std::uint64_t fence_token,
                                       int lock_fd)
    : dir_(std::move(dir)),
      fence_token_(fence_token),
      lock_fd_(lock_fd),
      store_(dir_) {
  store_.enable_patch_channel(fence_token_);
}

PatchChannelWriter::~PatchChannelWriter() {
  detach_segment();
  if (lock_fd_ >= 0) {
    ::flock(lock_fd_, LOCK_UN);
    ::close(lock_fd_);
  }
}

PatchChannelWriter::PatchChannelWriter(PatchChannelWriter&& other) noexcept
    : dir_(std::move(other.dir_)),
      fence_token_(other.fence_token_),
      lock_fd_(other.lock_fd_),
      store_(std::move(other.store_)),
      map_(other.map_),
      map_bytes_(other.map_bytes_),
      arena_generation_(other.arena_generation_),
      fib_(std::move(other.fib_)),
      takeover_(other.takeover_),
      writes_(std::move(other.writes_)) {
  other.lock_fd_ = -1;
  other.map_ = nullptr;
  other.map_bytes_ = 0;
}

PatchChannelWriter& PatchChannelWriter::operator=(
    PatchChannelWriter&& other) noexcept {
  if (this != &other) {
    detach_segment();
    if (lock_fd_ >= 0) {
      ::flock(lock_fd_, LOCK_UN);
      ::close(lock_fd_);
    }
    dir_ = std::move(other.dir_);
    fence_token_ = other.fence_token_;
    lock_fd_ = other.lock_fd_;
    store_ = std::move(other.store_);
    map_ = other.map_;
    map_bytes_ = other.map_bytes_;
    arena_generation_ = other.arena_generation_;
    fib_ = std::move(other.fib_);
    takeover_ = other.takeover_;
    writes_ = std::move(other.writes_);
    other.lock_fd_ = -1;
    other.map_ = nullptr;
    other.map_bytes_ = 0;
  }
  return *this;
}

void PatchChannelWriter::detach_segment() {
  fib_ = FlatFib();  // drop views + the shared seq pointer first
  if (map_ != nullptr) {
    ::munmap(map_, map_bytes_);
    map_ = nullptr;
    map_bytes_ = 0;
  }
}

void PatchChannelWriter::attach_segment(std::uint64_t gen) {
  detach_segment();
  Mapping m =
      map_file(store_.segment_file(gen), O_RDWR, PROT_READ | PROT_WRITE);
  if (m.base == nullptr) {
    fail("cannot map segment for generation " + std::to_string(gen));
  }
  auto* base = static_cast<std::uint8_t*>(m.base);
  PatchSegmentHeader h;
  if (!patch_channel_read_header(base, m.bytes, &h) || h.payload_bytes == 0 ||
      h.payload_bytes > m.bytes - kPatchSegmentHeaderBytes) {
    ::munmap(m.base, m.bytes);
    errno = EINVAL;
    fail("segment header rejected for generation " + std::to_string(gen));
  }
  map_ = m.base;
  map_bytes_ = m.bytes;
  arena_generation_ = gen;
  // Stamp ownership. flock already fences live writers; the header token
  // records who owns the bytes for audits and the crash-matrix asserts.
  atomic_store_u64(base + patch_segment::kWriterFence, fence_token_);
  auto* seq_word = reinterpret_cast<std::uint64_t*>(base + patch_segment::kSeq);
  fib_ = FlatFib::from_shared(base + kPatchSegmentHeaderBytes, h.payload_bytes,
                              seq_word, /*writable=*/true);
}

std::uint64_t PatchChannelWriter::publish(const FlatFib& fib) {
  return publish_blob(fib.blob());
}

std::uint64_t PatchChannelWriter::publish_blob(
    std::span<const std::uint8_t> blob) {
  detach_segment();  // never patch a superseded mapping by accident
  const std::uint64_t gen = store_.publish_blob(blob);
  attach_segment(gen);
  return gen;
}

std::uint64_t PatchChannelWriter::recover(
    std::span<const std::uint8_t> fallback_blob) {
  store_.remove_stale_temps();
  std::uint64_t head = store_.current_generation();
  if (head == 0) {
    const auto gens = store_.generations();
    if (!gens.empty()) head = gens.front();
  }
  if (head != 0) {
    Mapping m =
        map_file(store_.segment_file(head), O_RDWR, PROT_READ | PROT_WRITE);
    if (m.base != nullptr) {
      auto* base = static_cast<std::uint8_t*>(m.base);
      PatchSegmentHeader h;
      auto copy =
          patch_channel_snapshot(base, m.bytes, kAdoptSnapshotRetries, &h);
      // Sealed (even seq, checksum matches its bytes) AND structurally
      // whole: adopt the live segment so readers keep their mappings and
      // every already-delivered patch survives the failover. attach_
      // segment remaps the same inode and restamps the fence; nothing
      // can change in between — we hold the flock.
      const bool sealed = !copy.empty() && h.arena_generation == head &&
                          validate_blob_copy(copy, h.payload_bytes);
      ::munmap(m.base, m.bytes);
      if (sealed) {
        attach_segment(head);
        takeover_ = TakeoverOutcome::kAdoptedSealed;
        return head;
      }
      // Torn (odd parity — the dead writer's open window) or checksum-
      // stale: never compound it. The segment is abandoned where it
      // lies; readers on it are already refusing batches.
    }
  }
  takeover_ = TakeoverOutcome::kRepublished;
  return publish_blob(fallback_blob);
}

bool PatchChannelWriter::apply(const FibDelta& delta, PatchStop stop) {
  if (map_ == nullptr) return false;
  if (delta.recompile) return false;
  if (delta.empty()) return true;

  if (stop == PatchStop::kMidPatch) {
    // Die inside the window: some patches land, seq stays odd. The fork
    // harness raises SIGKILL right after we return.
    fib_.simulate_writer_crash_after_for_test(delta.patches.size() / 2);
  }
  if (!fib_.apply_delta(delta, &writes_)) return false;
  if (stop == PatchStop::kMidPatch || stop == PatchStop::kBeforeChecksum) {
    return true;  // truncated on purpose: checksum fold never runs
  }

  // Incremental checksum fold over the words apply_delta reports having
  // changed: additivity means only their contribution moves — O(patch),
  // not O(arena) — and a word changed twice telescopes. Runs after the
  // window closes; adopters treat a transient mismatch as retry (see
  // patch_channel_snapshot) and a permanent one as a dead writer.
  std::uint64_t fold = 0;
  for (const FibWordWrite& w : writes_) {
    fold += (w.after - w.before) * (2 * w.index + 1);
  }
  auto* base = static_cast<std::uint8_t*>(map_);
  const std::uint64_t cur =
      atomic_load_u64(base + patch_segment::kChecksum);
  atomic_store_u64(base + patch_segment::kChecksum, cur + fold);
  const std::uint64_t patches =
      atomic_load_u64(base + patch_segment::kPatchesApplied);
  atomic_store_u64(base + patch_segment::kPatchesApplied, patches + 1);
  return true;
}

std::uint64_t PatchChannelWriter::patches_applied() const {
  if (map_ == nullptr) return 0;
  return atomic_load_u64(static_cast<const std::uint8_t*>(map_) +
                         patch_segment::kPatchesApplied);
}

}  // namespace cpr
