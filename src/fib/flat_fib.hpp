// Compiled forwarding plane: one flat, relocatable FIB arena per scheme.
//
// The schemes in src/scheme are *construction* objects: they carry the
// algebra, the preferred-path trees, per-node vectors — everything needed
// to build and account for routing state, none of it laid out for serving
// queries. This module compiles a built scheme into a FlatFib: a single
// contiguous arena of offset-addressed sections (64-byte aligned within
// the blob) holding exactly the bytes a forwarding decision reads —
//
//   topology   : CSR port rows {neighbor, edge} shared by every kind,
//   tree       : packed per-node records (intervals + resolved tree-edge
//                ports) plus the per-target light-label sequences in CSR
//                form (Theorem 1's O(log n)-bit state, flattened),
//   interval   : per-node records plus child interval boundaries + ports,
//   cowen      : per-node (target, port) rows packed as one u64 per
//                entry in Eytzinger order, plus landmark and
//                port-at-landmark arrays (Theorem 3's Õ(√n) tables,
//                flattened),
//   mesh       : the SVFC peer-mesh plane (src/bgp): per-component
//                heavy-path tree records with ports pre-resolved into the
//                shadow graph, a component-id array, and the root-to-root
//                peering port matrix.
//
// The arena IS its serialized form: compile lays the blob out once and
// writes header, directory and sections straight into the final buffer,
// then opens it with the same validating loader a reload uses, so a FIB
// built once can be dumped with blob(), stored, and later re-opened
// zero-copy — from_blob adopts the buffer and points typed views into it
// without re-parsing a single element. No algebra, weights, or scheme
// object is needed to serve queries (fib/forward_engine.hpp).
//
// Validation is total: magic/kind, section directory bounds, an XXH64
// checksum over the payload (fib_payload_checksum), and structural
// checks (monotone offset arrays, neighbor/port ranges), so truncated or
// corrupted blobs are rejected with std::runtime_error instead of
// misrouting packets.
//
// Blob format "CPRFIB06" is the only one this build writes or reads;
// blobs carrying an older CPRFIB02/03/04/05 magic are rejected with an
// error naming the magic (recompile and republish them). Its properties:
//
//   * Patchable in place: Cowen row offsets describe per-row capacity
//     (compile-time slack, FibCompileOptions) with a separate
//     kCowenRowLen live-length array, apply_delta() rewrites changed rows
//     from a FibDelta without recompiling, a generation counter (odd
//     while a patch is in flight) lets readers detect torn reads, and the
//     payload checksum is refreshed lazily on the next blob() call rather
//     than per patch.
//   * One row image: kCowenRows stores each row's live prefix once, in
//     Eytzinger (BFS) order (fib_eytzinger_inorder), so the one row
//     search (fib_row_find) walks a branchless implicit tree whose first
//     levels stay resident in L1 across queries. The compile adapters
//     write rows straight into that order, apply_delta re-lays a patched
//     row in place, and the loader checks every row's in-order walk.
//     Large arenas get transparent-huge-page backing (util/hugepage.hpp)
//     so random row probes stop paying dTLB misses.
//   * Label layer (routing/label.hpp): kLabelMap (node→label permutation)
//     and kDictionary (hash-partitioned name→label buckets) sections,
//     required for kTz arenas — Thorup–Zwick name-independent tables
//     whose rows are keyed by *scheme-assigned labels* while queries
//     arrive on external *names*. The walkers resolve a name through the
//     dictionary once per query and then forward on labels; every other
//     kind has no label sections and keeps its identity name==label fast
//     path.
//
// Concurrency (the serving plane, docs/forwarding_plane.md "Serving from
// shared arenas"): the generation counter is a real seqlock. One writer
// at a time may call apply_delta while forward_batch readers are in
// flight on other threads; the writer makes the generation odd, rewrites
// the patched slots with relaxed atomic stores, and publishes the even
// successor with release ordering. Scalar readers load the mutable Cowen
// sections through the same relaxed atomics (fib_load<true>; free on
// x86-64 — an aligned mov either way), the lockstep readers through
// plain loads of the same bytes, and both revalidate the generation
// after the walk, retrying instead of serving a torn view. The protocol
// is single-writer: concurrent apply_delta calls must be serialized by
// the caller (MaintainedFib does). Arenas opened over foreign read-only
// memory (from_memory — mmap'd blobs published by ArenaStore) are
// immutable: apply_delta refuses and the generation never moves, so
// cross-process readers of those files never see a torn row by
// construction — new generations arrive as whole new files.
//
// Cross-process patching (fib/patch_channel.hpp) lifts the same seqlock
// across processes: from_shared opens an arena inside a MAP_SHARED
// patch-channel segment whose seqlock word lives in the segment header
// (outside the blob), so a writer process patching through its mapping
// and reader processes walking theirs observe one generation counter.
// from_shared skips content validation — the live mapping may be
// mid-patch while it is opened — so the caller must have validated a
// seqlock-stable snapshot of the same bytes first (the patch-channel
// reader does exactly that before every cutover).
#pragma once

#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

namespace cpr {

struct FibDelta;  // fib/fib_delta.hpp

enum class FibKind : std::uint32_t {
  kTree = 1,      // heavy-path TreeRouter / SpanningTreeScheme
  kInterval = 2,  // classic interval routing
  kCowen = 3,     // landmark scheme tables
  // 4 is retired (RLE destination tables): the loader rejects it by
  // name, and the value is never reused.
  kMesh = 5,      // SVFC peer mesh (per-component trees + peering matrix)
  kTz = 6,        // Thorup–Zwick name-independent landmark tables:
                  // Cowen-shaped rows keyed by *label*, plus a node→label
                  // map and a hash-partitioned name dictionary
};

// Per-node record of the tree plane; two records per cache line. The
// heavy-child interval is stored denormalized ([in > out] when there is
// no heavy child) so the descend test is two compares with no branch on
// existence.
struct FibTreeNode {
  std::uint32_t dfs_in = 0;
  std::uint32_t dfs_out = 0;
  std::uint32_t heavy_in = 1;   // empty interval when no heavy child
  std::uint32_t heavy_out = 0;
  std::uint32_t port_up = kInvalidPort;
  std::uint32_t heavy_port = kInvalidPort;  // port_down of the heavy child
  std::uint32_t light_depth = 0;
  std::uint32_t light_off = 0;  // lights of u: light_ports[[u].light_off, [u+1].light_off)
};
static_assert(sizeof(FibTreeNode) == 32);

struct FibIntervalNode {
  std::uint32_t dfs_in = 0;
  std::uint32_t dfs_out = 0;
  std::uint32_t parent_port = kInvalidPort;
  std::uint32_t child_off = 0;  // children of u: child_*[[u].child_off, [u+1].child_off)
};
static_assert(sizeof(FibIntervalNode) == 16);

// One (key, port) row entry packed into a u64: key in the high 32 bits,
// port in the low 32. Rows ordered by key search with plain integer
// compares (keys are unique per row, so the port bits never decide).
inline std::uint64_t fib_pack_entry(std::uint32_t key, std::uint32_t port) {
  return (std::uint64_t{key} << 32) | port;
}
inline std::uint32_t fib_entry_key(std::uint64_t e) {
  return static_cast<std::uint32_t>(e >> 32);
}
inline std::uint32_t fib_entry_port(std::uint64_t e) {
  return static_cast<std::uint32_t>(e);
}

// --- Name dictionary (label layer) -----------------------------------
//
// A kTz arena carries the scheme's name→label resolution state so the
// walkers can serve *names* (external node ids) without the scheme
// object. Two sections:
//
//   kLabelMap (60):   u32[n], node → label; a permutation of [0, n).
//   kDictionary (61): [u64 bucket_count][u64 bucket_cap] followed by
//                     bucket_count × bucket_cap u64 slots. Slot value is
//                     fib_pack_entry(name, label); empty slots are
//                     kFibDictEmpty. Each bucket holds its live entries
//                     as a strictly-increasing prefix (sorted by name)
//                     followed by empty fill — fixed-capacity buckets
//                     make dictionary churn a uniform row patch keyed by
//                     bucket index, applied inside the same seqlock
//                     window as the routing rows.
//
// The bucket of a name is a Lemire range reduction of a Fibonacci-mixed
// hash — any bucket_count works, no power-of-two requirement — and the
// one definition below is shared by the compile adapter, the loader's
// validator and the walkers, so the three can never disagree on where a
// name lives.
inline constexpr std::uint64_t kFibDictEmpty = ~std::uint64_t{0};

inline std::uint64_t fib_dict_bucket(std::uint32_t name,
                                     std::uint64_t bucket_count) {
  const std::uint32_t h = name * 0x9e3779b9u;  // Fibonacci mix
  return (static_cast<std::uint64_t>(h) * bucket_count) >> 32;
}

// Dictionary sizing used by compile_fib: ~4 names per bucket keeps the
// resolve scan short while leaving per-bucket slack for churn patches.
inline std::uint64_t fib_dict_bucket_count(std::size_t node_count) {
  return std::max<std::uint64_t>(1, (node_count + 3) / 4);
}

// Blob format version written and accepted: magic "CPRFIB06".
inline constexpr std::uint32_t kFibBlobVersion = 6;

// XXH64 (seed 0) of `bytes` bytes at `data`: the blob's payload checksum.
// Every producer (FibBuilder::finish, blob()'s lazy refresh, the patch
// channel's snapshot re-seal) and verifier (the loader) calls this one
// function. Four independent 64-bit lanes over memcpy'd (unaligned-safe)
// word loads run at memory bandwidth, where the byte-serial FNV-1a it
// replaced was a dependent multiply chain.
std::uint64_t fib_payload_checksum(const void* data, std::size_t bytes);

// Recomputes the payload checksum of the blob at `blob` (`bytes` long)
// over the payload region its own header names, and writes it into the
// header. False, with nothing written, when the header or that region
// does not fit in `bytes`. FlatFib's lazy refresh and the patch channel's
// snapshot re-seal both call it, so the region rule lives here only.
bool fib_reseal_payload_checksum(std::uint8_t* blob, std::size_t bytes);

// One u64 blob word a patch store changed: its index from the blob start
// and its value before and after the store. A u32 store is reported as
// the u64 word that contains it. apply_delta fills these.
struct FibWordWrite {
  std::uint64_t index = 0;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
};

// Seqlock-protected loads/stores of the mutable arena sections. The
// patched slots (Cowen rows, row lengths, landmark labels) are written
// by apply_delta while reader threads walk them; both sides go through
// relaxed atomics so a torn window is a stale-or-new *value*, never a
// data race — the generation recheck after the batch discards any
// incoherent view. Sections are 64-byte aligned and the arrays are
// naturally aligned, so atomic_ref's alignment requirement holds. On
// x86-64 these compile to the same plain movs as the direct access.
inline std::uint64_t fib_seq_load_u64(const std::uint64_t* p) {
  return std::atomic_ref<std::uint64_t>(*const_cast<std::uint64_t*>(p))
      .load(std::memory_order_relaxed);
}
inline std::uint32_t fib_seq_load_u32(const std::uint32_t* p) {
  return std::atomic_ref<std::uint32_t>(*const_cast<std::uint32_t*>(p))
      .load(std::memory_order_relaxed);
}
inline void fib_seq_store_u64(std::uint64_t* p, std::uint64_t v) {
  std::atomic_ref<std::uint64_t>(*p).store(v, std::memory_order_relaxed);
}
inline void fib_seq_store_u32(std::uint32_t* p, std::uint32_t v) {
  std::atomic_ref<std::uint32_t>(*p).store(v, std::memory_order_relaxed);
}

// Load flavour of the forwarding walkers: kSeqlock = true goes through
// the relaxed atomics above (the scalar path, the one TSan checks),
// false is a plain load (the lockstep path, which TSan builds compile
// out — there the compiler is free to schedule the loads of eight lanes
// together). Both read the same bytes; a torn value is discarded by the
// generation recheck either way.
template <bool kSeqlock, typename T>
inline T fib_load(const T* p) {
  if constexpr (kSeqlock) {
    return std::atomic_ref<T>(*const_cast<T*>(p))
        .load(std::memory_order_relaxed);
  } else {
    return *p;
  }
}

// --- Row layout (kCowenRows) ----------------------------------------
//
// Each Cowen/TZ row's live prefix of len entries is stored in Eytzinger
// order: slot 0 holds the median, the children of slot k sit at 2k+1
// and 2k+2, and an in-order walk of that implicit tree meets the keys in
// strictly increasing order. The slack past len is zero.
//
// fib_eytzinger_inorder visits every slot k with its sorted rank i, in
// rank order — descending left first meets the slots in sorted-key
// order, so row[k] = sorted[i] lays a sorted row out. It is the only
// layout code: the compile adapters, apply_delta and the loader's row
// check all walk it, so a patched arena stays byte-identical to a fresh
// compile of the same tables. Iterative over 1-based slot numbers: the
// successor is the leftmost slot of the right subtree, or else the
// ancestor reached by climbing past the trail of right-child links.
template <typename Visit>
void fib_eytzinger_inorder(std::uint64_t len, Visit&& visit) {
  if (len == 0) return;
  std::uint64_t k = 1;
  while (2 * k <= len) k *= 2;
  for (std::uint64_t i = 0; i < len; ++i) {
    visit(k - 1, i);
    if (2 * k + 1 <= len) {
      k = 2 * k + 1;
      while (2 * k <= len) k *= 2;
    } else {
      k >>= __builtin_ctzll(~k) + 1;
    }
  }
}

// The one row search: exact match of `key` in a row of `len` live
// entries in Eytzinger order; writes the entry's port and returns true
// on a hit. The probe pack(key, 0) sorts before every entry with that
// key (ports occupy the low half), so the lower-bound slot is the exact
// match when one exists. The descent is one compare-add per level with
// no data-dependent branch, prefetching two levels ahead; the ffs trick
// recovers the lower bound's 1-based slot from the trail of right
// turns. Only slots below len are read, so the zeroed slack can never
// match key 0, and a torn len (any value a writer stored is within the
// row's capacity) cannot leave the row.
template <bool kSeqlock>
inline bool fib_row_find(const std::uint64_t* row, std::uint32_t len,
                         std::uint32_t key, std::uint32_t* port_out) {
  const std::uint64_t probe = fib_pack_entry(key, 0);
  std::uint64_t k = 1;
  while (k <= len) {
    __builtin_prefetch(row + std::min<std::uint64_t>(4 * k - 1, len - 1), 0,
                       1);
    k = 2 * k + (fib_load<kSeqlock>(row + k - 1) < probe);
  }
  k >>= __builtin_ffsll(static_cast<long long>(~k));
  if (k == 0) return false;
  const std::uint64_t e = fib_load<kSeqlock>(row + k - 1);
  if (fib_entry_key(e) != key) return false;
  *port_out = fib_entry_port(e);
  return true;
}

class FlatFib {
 public:
  // Typed views into the arena. Pointers alias the owned blob; they are
  // valid as long as the FlatFib is alive and survive moves (the heap
  // buffer does not reallocate).
  struct TopoView {
    const std::uint32_t* offsets = nullptr;   // n + 1
    const std::uint32_t* neighbor = nullptr;  // offsets[n] slots, port order
    const std::uint32_t* edge = nullptr;      // edge id per slot
    std::size_t degree(NodeId v) const { return offsets[v + 1] - offsets[v]; }
  };
  struct TreeView {
    const FibTreeNode* nodes = nullptr;        // n + 1 (sentinel for light_off)
    const std::uint32_t* light_ports = nullptr;
    const std::uint32_t* label_off = nullptr;  // n + 1
    const std::uint32_t* label_seq = nullptr;  // concatenated light sequences
  };
  struct IntervalView {
    const FibIntervalNode* nodes = nullptr;  // n + 1 (sentinel for child_off)
    const std::uint32_t* child_in = nullptr;  // dfs_in per child, ascending
    const std::uint32_t* child_port = nullptr;
  };
  struct CowenView {
    // row_off is the *capacity* CSR: node v owns slots
    // [row_off[v], row_off[v+1]), of which the first row_len[v] are live
    // entries and the rest are zeroed slack reserved for apply_delta.
    const std::uint32_t* row_off = nullptr;  // n + 1
    const std::uint32_t* row_len = nullptr;  // n (live entries per row)
    const std::uint64_t* rows = nullptr;     // packed (target, port), Eytzinger
    const std::uint32_t* landmark = nullptr;       // landmark_of per node
    const std::uint32_t* landmark_port = nullptr;  // port_at_landmark per node
  };
  struct TzView {
    // Label layer of a kTz arena. The routing rows themselves live in
    // the CowenView (same capacity-CSR sections, keys are *labels*);
    // this view adds the resolution state. `dict` points past the
    // 16-byte [bucket_count][bucket_cap] header, at the first slot of
    // bucket 0; bucket b occupies slots [b*cap, (b+1)*cap).
    const std::uint32_t* label_of = nullptr;  // node → label permutation
    const std::uint64_t* dict = nullptr;      // packed (name, label) slots
    std::uint64_t dict_bucket_count = 0;
    std::uint64_t dict_bucket_cap = 0;
  };
  struct MeshView {
    // Per-node tree records exactly like TreeView, except dfs numbers are
    // local to each component's preorder (the local root has dfs_in == 0)
    // and every port field is already resolved into the *shadow* graph.
    const FibTreeNode* nodes = nullptr;  // n + 1 (sentinel for light_off)
    const std::uint32_t* light_ports = nullptr;
    const std::uint32_t* label_off = nullptr;  // n + 1
    const std::uint32_t* label_seq = nullptr;  // concatenated light sequences
    const std::uint32_t* comp = nullptr;       // component id per node
    // k × k root-to-root shadow ports (A1/SVFC: roots are fully peered);
    // peer_port[a * k + b] routes component a's root toward b's root.
    const std::uint32_t* peer_port = nullptr;
    std::uint32_t component_count = 0;  // k
  };

  FlatFib() = default;
  FlatFib(const FlatFib&) = delete;
  FlatFib& operator=(const FlatFib&) = delete;
  // Moves are hand-written because of the atomic generation counter; the
  // views survive a move (they point into the heap buffer, which the
  // vector move transfers without reallocating).
  FlatFib(FlatFib&& other) noexcept;
  FlatFib& operator=(FlatFib&& other) noexcept;

  // Validating zero-copy open of a serialized FIB: adopts `words` as the
  // backing store (8-byte aligned by construction; sections are 64-byte
  // aligned within it) and points the views into it. Throws
  // std::runtime_error on any malformed, truncated or corrupted input.
  static FlatFib from_words(std::vector<std::uint64_t> words);

  // Byte-stream variant for blobs read back from files/sockets: copies
  // into an aligned word buffer once, then opens it with from_words.
  static FlatFib from_blob(std::span<const std::uint8_t> bytes);

  // Non-owning read-only open over foreign memory — the mmap'd blob
  // files ArenaStore publishes. Runs the exact same total validation,
  // but the arena stays immutable (apply_delta refuses, the generation
  // never moves) and the caller guarantees `data` outlives the FlatFib
  // and is 8-byte aligned (mmap regions are page-aligned).
  static FlatFib from_memory(const void* data, std::size_t bytes);

  // Open over a foreign MAP_SHARED mapping whose seqlock word lives
  // outside the blob — the patch-channel segment header
  // (fib/patch_channel.hpp). `writable` selects the writer role
  // (apply_delta patches the mapping in place, bracketing the shared
  // word) or the reader role (apply_delta refuses; forward_batch reads
  // the shared word through generation()). Structural/content checks
  // are SKIPPED — the live mapping may be mid-patch while it is
  // mapped — so callers must validate a seqlock-stable snapshot of the
  // same bytes first; only header/directory bounds are enforced here.
  // `data` and `shared_seq` must outlive the FlatFib; `data` must be
  // 8-byte aligned (mmap regions are page-aligned).
  static FlatFib from_shared(void* data, std::size_t bytes,
                             std::uint64_t* shared_seq, bool writable);

  // False for from_memory arenas: the backing store is foreign read-only
  // memory, so in-place patching is structurally impossible.
  bool writable() const { return writable_; }

  // The serialized form (the arena itself, header + directory included).
  // apply_delta defers the payload re-checksum; this refreshes it first,
  // so a dumped blob always re-validates on from_blob.
  std::span<const std::uint8_t> blob() const {
    if (checksum_stale_) refresh_checksum();
    return {base_, bytes_};
  }

  // Patches the arena in place from a churn delta. Returns false — with
  // the arena untouched — when the delta demands a recompile, targets a
  // kind this arena is not, the arena is read-only or sits on an odd
  // generation (a crashed writer's torn patch window: never compound
  // it), or any row patch cannot be applied (slack exhausted, malformed
  // bytes); the caller then falls back to a full compile_fib. All
  // patches are validated before the first byte moves, so a false
  // return never leaves a half-applied arena. Single writer: concurrent
  // apply_delta calls must be serialized by the caller; concurrent
  // forward_batch readers are safe (seqlock).
  //
  // When `writes` is non-null it is cleared and then receives one entry
  // per store that changed a blob word, in store order (a word stored
  // twice appears twice, each with the value it held at that store).
  // This footprint is the one account of which bytes a delta moves: the
  // patch channel folds it into its segment checksum instead of
  // re-deriving the layout.
  bool apply_delta(const FibDelta& delta,
                   std::vector<FibWordWrite>* writes = nullptr);

  // Even while the arena is stable, odd while apply_delta is rewriting
  // it; bumped by two per applied delta. forward_batch samples it on
  // entry and exit and retries (or refuses) torn reads. For from_shared
  // arenas the counter is the MAP_SHARED segment word, so the parity
  // protocol holds across processes, not just threads.
  std::uint64_t generation() const {
    if (shared_gen_ != nullptr) {
      return std::atomic_ref<std::uint64_t>(*shared_gen_)
          .load(std::memory_order_acquire);
    }
    return generation_.load(std::memory_order_acquire);
  }

  // Test-only crash injection: the next apply_delta abandons the arena
  // mid-write after `patches` row patches land — generation left odd,
  // remaining patches unapplied — exactly what a writer dying inside
  // the seqlock window leaves behind. Readers must retry/refuse, and a
  // later apply_delta must refuse the odd parity (the maintainer then
  // recovers by compaction). One-shot; normal operation never sets it.
  void simulate_writer_crash_after_for_test(std::size_t patches) {
    crash_after_patches_ = patches;
  }

  FibKind kind() const { return kind_; }
  std::size_t node_count() const { return node_count_; }
  std::size_t byte_size() const { return bytes_; }
  // Every arena this build opens is format version 6 ("CPRFIB06"); the
  // loader rejects older magics.
  std::uint32_t blob_version() const { return kFibBlobVersion; }

  const TopoView& topo() const { return topo_; }
  const TreeView& tree() const { return tree_; }
  const IntervalView& interval() const { return interval_; }
  const CowenView& cowen() const { return cowen_; }
  const TzView& tz() const { return tz_; }
  const MeshView& mesh() const { return mesh_; }

 private:
  friend class FibBuilder;

  struct SectionEntry {
    std::uint32_t id = 0;
    std::uint64_t offset = 0;  // from blob start
    std::uint64_t bytes = 0;
  };

  // Mutable bytes of a section, or nullptr when absent or read-only.
  std::uint8_t* section_ptr(std::uint32_t id);
  // Seqlock word accessors routing to the shared segment word when one
  // is wired (from_shared) and the member atomic otherwise.
  std::uint64_t gen_load(std::memory_order order) const {
    if (shared_gen_ != nullptr) {
      return std::atomic_ref<std::uint64_t>(*shared_gen_).load(order);
    }
    return generation_.load(order);
  }
  void gen_store(std::uint64_t v, std::memory_order order) {
    if (shared_gen_ != nullptr) {
      std::atomic_ref<std::uint64_t>(*shared_gen_).store(v, order);
    } else {
      generation_.store(v, order);
    }
  }
  void refresh_checksum() const;
  // Validates the blob at base_/writable_ and points the views into it.
  static FlatFib open(FlatFib fib, std::size_t avail);

  std::vector<std::uint64_t> words_;  // owned blob (empty when non-owning)
  const std::uint8_t* base_ = nullptr;  // words_.data() or foreign memory
  // Writable image of base_: words_.data() for owned arenas, the mapping
  // itself for from_shared writers, nullptr for read-only opens.
  std::uint8_t* mutable_base_ = nullptr;
  // Seqlock word when it lives outside the blob (patch-channel segment
  // header); nullptr means generation_ below is authoritative.
  std::uint64_t* shared_gen_ = nullptr;
  bool deep_validate_ = true;         // from_shared: bounds checks only
  bool writable_ = false;             // false: mmap'd/foreign, never patched
  std::size_t bytes_ = 0;             // meaningful prefix of the backing
  FibKind kind_ = FibKind::kTree;
  std::size_t node_count_ = 0;
  std::vector<SectionEntry> sections_;
  std::atomic<std::uint64_t> generation_{0};
  std::size_t crash_after_patches_ = static_cast<std::size_t>(-1);
  mutable bool checksum_stale_ = false;
  TopoView topo_;
  TreeView tree_;
  IntervalView interval_;
  CowenView cowen_;
  TzView tz_;
  MeshView mesh_;
};

// Assembles a blob section by section; compile adapters (fib/compile.hpp)
// drive it. Sections are recorded as (size, writer) pairs: finish() lays
// the whole blob out first, allocates the final word buffer once, lets
// every writer fill its section in place, writes header and directory
// around them, checksums the payload where it lies, and opens the result
// with the validating loader — so every FlatFib in the process, freshly
// compiled or reloaded, went through the same checks. kCowenRows bytes
// must already be in Eytzinger order (fib_eytzinger_inorder); the loader
// rejects a row whose in-order walk is not strictly increasing.
class FibBuilder {
 public:
  // Fills one section's bytes at `dst` (zeroed, 64-byte aligned blob
  // memory).
  using SectionWriter = std::function<void(std::uint8_t* dst)>;

  FibBuilder(FibKind kind, std::size_t node_count);

  // Graph topology sections (CSR port rows), shared by every kind.
  void add_topology(const Graph& g);

  // Takes the array by value: pass an rvalue to move it in uncopied.
  template <typename T>
  void add_array(std::uint32_t id, std::vector<T> v) {
    const std::size_t nbytes = v.size() * sizeof(T);
    add_section_writer(id, nbytes, [v = std::move(v)](std::uint8_t* dst) {
      if (!v.empty()) std::memcpy(dst, v.data(), v.size() * sizeof(T));
    });
  }

  // Section whose bytes `write` produces straight into the blob during
  // finish() — no staging copy. `write` runs before finish() returns, so
  // it may capture the caller's locals by reference.
  void add_section_writer(std::uint32_t id, std::size_t nbytes,
                          SectionWriter write);

  FlatFib finish();

 private:
  FibKind kind_;
  std::size_t node_count_;
  struct Section {
    std::uint32_t id;
    std::size_t bytes;
    SectionWriter write;
  };
  std::vector<Section> sections_;
};

// Section ids of the blob directory (stable across versions).
namespace fib_section {
inline constexpr std::uint32_t kTopoOffsets = 1;
inline constexpr std::uint32_t kTopoNeighbor = 2;
inline constexpr std::uint32_t kTopoEdge = 3;
inline constexpr std::uint32_t kTreeNodes = 10;
inline constexpr std::uint32_t kTreeLightPorts = 11;
inline constexpr std::uint32_t kTreeLabelOff = 12;
inline constexpr std::uint32_t kTreeLabelSeq = 13;
inline constexpr std::uint32_t kIntervalNodes = 20;
inline constexpr std::uint32_t kIntervalChildIn = 21;
inline constexpr std::uint32_t kIntervalChildPort = 22;
inline constexpr std::uint32_t kCowenRowOff = 30;
inline constexpr std::uint32_t kCowenRows = 31;  // Eytzinger-order rows
inline constexpr std::uint32_t kCowenLandmark = 32;
inline constexpr std::uint32_t kCowenLandmarkPort = 33;
inline constexpr std::uint32_t kCowenRowLen = 34;  // live entries per row
inline constexpr std::uint32_t kMeshInfo = 50;       // [component_count]
inline constexpr std::uint32_t kMeshComp = 51;       // component id per node
inline constexpr std::uint32_t kMeshPeerPort = 52;   // k × k root peering ports
inline constexpr std::uint32_t kMeshNodes = 53;      // FibTreeNode × (n + 1)
inline constexpr std::uint32_t kMeshLightPorts = 54;
inline constexpr std::uint32_t kMeshLabelOff = 55;   // n + 1
inline constexpr std::uint32_t kMeshLabelSeq = 56;
// Label layer (kTz; optional for future labeled kinds).
inline constexpr std::uint32_t kLabelMap = 60;     // u32[n] node → label
inline constexpr std::uint32_t kDictionary = 61;   // bucketed name → label
}  // namespace fib_section

}  // namespace cpr
