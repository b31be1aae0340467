// Multi-process serving plane: FlatFib generations published as files.
//
// One ArenaStore directory is the unit of deployment — a single writer
// (the route compiler / compactor) publishes whole FIB arenas into it,
// and any number of reader processes mmap the current arena read-only
// and serve forward_batch from it. The on-disk protocol is the classic
// CURRENT-file discipline:
//
//   arena-<gen>.fib.tmp   full blob written, fsync'd      (invisible)
//   arena-<gen>.fib       rename(2) of the temp           (atomic)
//   CURRENT.tmp           "arena-<gen>.fib\n", fsync'd
//   CURRENT               rename(2) of CURRENT.tmp        (atomic)
//   fsync(directory)      both renames made durable
//
// A writer crash at any point leaves either the old CURRENT intact (the
// half-written temp is garbage readers never look at) or the new arena
// fully published — never a partially visible generation. Readers load
// CURRENT between batches, and every arena they adopt re-runs FlatFib's
// total validation (magic, directory bounds, XXH64 payload checksum,
// structural checks) against the mapped bytes; a corrupt or truncated
// publication is rejected and the reader falls back to the newest
// earlier generation that validates, so an unvalidated arena is never
// served. Published arena files are immutable — churn deltas are
// patched into the *writer's* in-process arena (flat_fib.hpp seqlock)
// and published as whole new generations — so cross-process torn reads
// are structurally impossible.
//
// Reclamation is RCU-shaped on both levels: in-process, current()
// hands out shared_ptr<const ServedArena> snapshots and the mapping is
// munmap'd only when the last batch holding it drops its reference
// (the grace period is the refcount reaching zero); on disk, prune()
// unlinks superseded arena files, which POSIX keeps alive for any
// process still mapping them — the kernel's own grace period.
#pragma once

#include "fib/flat_fib.hpp"

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace cpr {

// Crash injection for the lifecycle tests: abandon a publish at a
// chosen point, exactly as a writer dying there would.
enum class PublishStop {
  kNone,         // run to completion
  kBeforeRename, // temp written + fsync'd; arena-<gen>.fib never appears
  kBeforeCurrent // arena renamed into place; CURRENT still names the old one
};

// One mmap'd, validated generation. Immutable; destroys (munmaps) when
// the last shared_ptr holding it drops — batches in flight keep the
// mapping alive past any number of newer publications.
class ServedArena {
 public:
  ~ServedArena();
  ServedArena(const ServedArena&) = delete;
  ServedArena& operator=(const ServedArena&) = delete;

  std::uint64_t generation() const { return generation_; }
  const FlatFib& fib() const { return fib_; }
  const std::filesystem::path& path() const { return path_; }
  std::size_t byte_size() const { return bytes_; }

 private:
  friend class ArenaStore;
  ServedArena() = default;

  std::filesystem::path path_;
  std::uint64_t generation_ = 0;
  void* map_ = nullptr;  // nullptr when the blob is heap-copied (fallback)
  std::size_t bytes_ = 0;
  FlatFib fib_;
};

class ArenaStore {
 public:
  // Opens (creating if needed) a store directory. Scans existing
  // arena-*.fib files so a restarted writer continues the generation
  // sequence instead of reusing numbers.
  explicit ArenaStore(std::filesystem::path dir);

  const std::filesystem::path& dir() const { return dir_; }

  // ---- Writer side (single writer per directory) ----

  // Publishes the arena as the next generation and returns its number.
  // Refreshes the blob checksum first, so the file always re-validates.
  std::uint64_t publish(const FlatFib& fib,
                        PublishStop stop = PublishStop::kNone);

  // Raw-bytes variant; the bytes are NOT validated here (readers do
  // that), which is exactly what the corruption tests need.
  std::uint64_t publish_blob(std::span<const std::uint8_t> blob,
                             PublishStop stop = PublishStop::kNone);

  // Patch-channel opt-in (fib/patch_channel.hpp): every publish also
  // emits the "CPRPCH01" segment arena-<gen>.pch beside the arena file —
  // fence-stamped with `writer_fence`, written and renamed *before*
  // CURRENT moves, so by the time a generation is named current its
  // live-patch segment is already adoptable. Off by default: plain
  // stores keep the PR-6 files-only protocol byte for byte.
  void enable_patch_channel(std::uint64_t writer_fence) {
    patch_channel_ = true;
    patch_fence_ = writer_fence;
  }

  // The generation the next publish will be assigned.
  std::uint64_t next_generation() const { return next_generation_; }

  // ---- Naming & introspection (patch channel + tests) ----

  // arena-<gen>.fib and its arena-<gen>.pch sidecar.
  std::filesystem::path arena_file(std::uint64_t gen) const;
  std::filesystem::path segment_file(std::uint64_t gen) const;

  // The generation CURRENT names, or 0 when CURRENT is missing/garbled
  // (generation numbers start at 1).
  std::uint64_t current_generation() const;

  // All published generations in the directory, descending.
  std::vector<std::uint64_t> generations() const;

  // Removes abandoned *.tmp files — a restarted writer's first act.
  std::size_t remove_stale_temps();

  // Unlinks published arena files below `keep_from`, except the one
  // CURRENT names. Mapped readers are unaffected (POSIX keeps unlinked
  // inodes alive until the last mapping goes away).
  std::size_t prune(std::uint64_t keep_from);

  // ---- Reader side (any number of processes) ----

  // Re-reads CURRENT and returns the newest arena that validates,
  // mmap'ing it on first sight. If CURRENT is missing or names a blob
  // that fails validation, falls back to the newest earlier generation
  // that validates; returns nullptr only when nothing in the directory
  // does. The returned snapshot stays valid (mapped) for as long as the
  // caller holds the pointer, across any number of newer publishes.
  std::shared_ptr<const ServedArena> current();

  // The last snapshot current() returned, without touching the disk.
  std::shared_ptr<const ServedArena> cached() const { return cached_; }

 private:
  std::filesystem::path arena_path(std::uint64_t gen) const;
  std::shared_ptr<const ServedArena> try_open(std::uint64_t gen) const;

  std::filesystem::path dir_;
  std::uint64_t next_generation_ = 1;
  bool patch_channel_ = false;
  std::uint64_t patch_fence_ = 0;
  std::shared_ptr<const ServedArena> cached_;
};

}  // namespace cpr
