#include "fib/forward_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <stdexcept>
#include <thread>
#include <type_traits>

// TSan cannot see that the SIMD path's plain vector loads race benignly
// with apply_delta's relaxed atomic stores (the generation recheck
// discards any in-window value, and row_off — the only thing that could
// send a load out of bounds — is immutable), so under TSan the SIMD path
// is compiled out and every dispatch resolves to scalar.
#if defined(__SANITIZE_THREAD__)
#define CPR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CPR_TSAN 1
#endif
#endif
#ifndef CPR_TSAN
#define CPR_TSAN 0
#endif

#if !CPR_TSAN && defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CPR_SIMD 1
#include <immintrin.h>
#else
#define CPR_SIMD 0
#endif

namespace cpr {
namespace {

#if defined(__GNUC__) || defined(__clang__)
#define CPR_PREFETCH(addr) __builtin_prefetch((addr), 0, 1)
#else
#define CPR_PREFETCH(addr) ((void)0)
#endif

// Last entry in [begin, end) whose key is <= key, or nullptr. Rows are
// strictly increasing by key, so this is the containing-run / exact-match
// primitive for both row kinds.
inline const std::uint64_t* row_search(const std::uint64_t* begin,
                                       const std::uint64_t* end,
                                       std::uint32_t key) {
  // upper_bound on (key, max-port): everything <= key precedes it.
  const std::uint64_t probe = fib_pack_entry(key, 0xffffffffu);
  const std::uint64_t* it = std::upper_bound(begin, end, probe);
  return it == begin ? nullptr : it - 1;
}

struct StepResult {
  bool deliver = false;
  Port port = kInvalidPort;
};

// One walker per FIB kind: resolve(target) precomputes the immutable
// header once per query; step(u) is the per-hop decision, mirroring the
// object scheme's forward() exactly; prefetch(v) pulls the rows step(v)
// will read. Templating the walk over the walker keeps the hop loop free
// of any per-kind dispatch.
struct TreeWalker {
  const FlatFib::TreeView& t;
  std::uint32_t x = 0;                  // target's DFS number
  const std::uint32_t* seq = nullptr;   // target's light sequence
  std::uint32_t seq_len = 0;

  explicit TreeWalker(const FlatFib& fib) : t(fib.tree()) {}
  void resolve(NodeId target) {
    x = t.nodes[target].dfs_in;
    seq = t.label_seq + t.label_off[target];
    seq_len = t.label_off[target + 1] - t.label_off[target];
  }
  StepResult step(NodeId u) const {
    const FibTreeNode& r = t.nodes[u];
    if (x == r.dfs_in) return {true, kInvalidPort};
    if (x < r.dfs_in || x > r.dfs_out) return {false, r.port_up};
    if (x >= r.heavy_in && x <= r.heavy_out) return {false, r.heavy_port};
    const std::uint32_t idx = r.light_depth;
    const std::uint32_t lights = t.nodes[u + 1].light_off - r.light_off;
    if (idx >= seq_len || seq[idx] >= lights) return {false, kInvalidPort};
    return {false, t.light_ports[r.light_off + seq[idx]]};
  }
  void prefetch(NodeId v) const { CPR_PREFETCH(&t.nodes[v]); }
};

struct IntervalWalker {
  const FlatFib::IntervalView& t;
  std::uint32_t h = 0;

  explicit IntervalWalker(const FlatFib& fib) : t(fib.interval()) {}
  void resolve(NodeId target) { h = t.nodes[target].dfs_in; }
  StepResult step(NodeId u) const {
    const FibIntervalNode& r = t.nodes[u];
    if (h == r.dfs_in) return {true, kInvalidPort};
    if (h < r.dfs_in || h > r.dfs_out) return {false, r.parent_port};
    const std::uint32_t begin = r.child_off;
    const std::uint32_t count = t.nodes[u + 1].child_off - begin;
    if (count == 0) return {false, kInvalidPort};
    // Same last-child-with-dfs_in<=h search as the object router.
    std::uint32_t lo = 0, hi = count;
    while (lo + 1 < hi) {
      const std::uint32_t mid = (lo + hi) / 2;
      if (t.child_in[begin + mid] <= h) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return {false, t.child_port[begin + lo]};
  }
  void prefetch(NodeId v) const { CPR_PREFETCH(&t.nodes[v]); }
};

// Last live entry with key <= `key`, loaded atomically; returns false
// when the row has no such entry. Same contract as row_search. Shared by
// the Cowen walker and the TZ walker (whose keys are labels).
inline bool seq_row_search(const std::uint64_t* row, std::uint32_t len,
                           std::uint32_t key, std::uint64_t* out) {
  const std::uint64_t probe = fib_pack_entry(key, 0xffffffffu);
  std::uint32_t lo = 0, hi = len;
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    if (fib_seq_load_u64(row + mid) <= probe) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return false;
  *out = fib_seq_load_u64(row + lo - 1);
  return true;
}

// Cowen and TZ are the kinds apply_delta patches, so their walkers are
// the only ones that read the arena through the seqlock load helpers:
// every probe of rows / row_len / landmark / landmark_port is a relaxed
// atomic load racing benignly with a concurrent writer. A torn window
// can hand back a stale-or-new mixture of values — never out-of-bounds,
// since row_off is the immutable capacity CSR and any stored row_len is
// within it — and the generation recheck after the batch discards the
// whole result.
struct CowenWalker {
  const FlatFib::CowenView& t;
  NodeId target = kInvalidNode;
  NodeId landmark = kInvalidNode;
  Port port_at_landmark = kInvalidPort;

  explicit CowenWalker(const FlatFib& fib) : t(fib.cowen()) {}
  void resolve(NodeId tgt) {
    target = tgt;
    landmark = fib_seq_load_u32(t.landmark + tgt);
    port_at_landmark = fib_seq_load_u32(t.landmark_port + tgt);
  }
  bool search(const std::uint64_t* row, std::uint32_t len, std::uint32_t key,
              std::uint64_t* out) const {
    return seq_row_search(row, len, key, out);
  }
  StepResult step(NodeId u) const {
    if (u == target) return {true, kInvalidPort};
    // row_off[u] is the row's *capacity* base; only the live prefix
    // (row_len[u] entries) holds data, the rest is patching slack.
    const std::uint64_t* row = t.rows + t.row_off[u];
    const std::uint32_t len = fib_seq_load_u32(t.row_len + u);
    // Same precedence as CowenScheme::forward: direct entry, the
    // landmark's own hop, then the entry toward the landmark.
    std::uint64_t e;
    if (search(row, len, target, &e) && fib_entry_key(e) == target) {
      return {false, fib_entry_port(e)};
    }
    if (u == landmark) return {false, port_at_landmark};
    if (search(row, len, landmark, &e) && fib_entry_key(e) == landmark) {
      return {false, fib_entry_port(e)};
    }
    return {false, kInvalidPort};
  }
  void prefetch(NodeId v) const { CPR_PREFETCH(&t.rows[t.row_off[v]]); }
};

// Thorup–Zwick name-independent walker: the Cowen decision procedure
// lifted into label space, preceded by a per-query name resolution. The
// packet is addressed to a *name* (the external node id); resolve()
// looks the name up once in the arena's hash-partitioned dictionary to
// get the scheme-assigned target label, and every hop after that
// compares and searches labels exclusively — the deliver test is
// label_of[u] == target_label, which (labels being a bijection) fires
// exactly at the named node. This is the two-phase lookup of the label
// layer; labeled kinds skip phase one entirely because their arenas
// carry no dictionary and their keys *are* node ids. kTz arenas are
// patched like kCowen ones (label map and dictionary included), so every
// mutable-section probe goes through the seqlock load helpers.
struct TzWalker {
  const FlatFib::CowenView& t;  // rows/landmark arrays, label-keyed
  const FlatFib::TzView& z;     // label map + name dictionary
  std::uint32_t node_count = 0;
  std::uint32_t target_label = kInvalidNode;
  std::uint32_t landmark_label = kInvalidNode;
  Port port_at_landmark = kInvalidPort;

  explicit TzWalker(const FlatFib& fib)
      : t(fib.cowen()),
        z(fib.tz()),
        node_count(static_cast<std::uint32_t>(fib.node_count())) {}

  // Bucketed dictionary probe: scan the bucket's live prefix (strictly
  // increasing by name, kFibDictEmpty fill) for the name. Unknown names
  // return kInvalidNode — the walk then never delivers and drops at the
  // first router, the honest fate of an unroutable destination.
  std::uint32_t dict_resolve(std::uint32_t name) const {
    const std::uint64_t b = fib_dict_bucket(name, z.dict_bucket_count);
    const std::uint64_t* slot = z.dict + b * z.dict_bucket_cap;
    for (std::uint64_t i = 0; i < z.dict_bucket_cap; ++i) {
      const std::uint64_t e = fib_seq_load_u64(slot + i);
      if (e == kFibDictEmpty) break;  // end of the live prefix
      const std::uint32_t key = fib_entry_key(e);
      if (key == name) return fib_entry_port(e);
      if (key > name) break;  // sorted prefix: the name is not here
    }
    return kInvalidNode;
  }

  void resolve(NodeId name) {
    target_label = dict_resolve(name);
    if (target_label < node_count) {
      landmark_label = fib_seq_load_u32(t.landmark + target_label);
      port_at_landmark = fib_seq_load_u32(t.landmark_port + target_label);
    } else {
      landmark_label = kInvalidNode;
      port_at_landmark = kInvalidPort;
    }
  }
  StepResult step(NodeId u) const {
    const std::uint32_t ul = fib_seq_load_u32(z.label_of + u);
    if (ul == target_label) return {true, kInvalidPort};
    const std::uint64_t* row = t.rows + t.row_off[u];
    const std::uint32_t len = fib_seq_load_u32(t.row_len + u);
    // Same precedence as the Cowen walker, in label space: direct entry,
    // the landmark's own hop, then the entry toward the landmark. Row
    // keys are labels < n, so an invalid target/landmark label (unknown
    // name) can never match a key and the packet drops.
    std::uint64_t e;
    if (seq_row_search(row, len, target_label, &e) &&
        fib_entry_key(e) == target_label) {
      return {false, fib_entry_port(e)};
    }
    if (ul == landmark_label) return {false, port_at_landmark};
    if (seq_row_search(row, len, landmark_label, &e) &&
        fib_entry_key(e) == landmark_label) {
      return {false, fib_entry_port(e)};
    }
    return {false, kInvalidPort};
  }
  void prefetch(NodeId v) const { CPR_PREFETCH(&t.rows[t.row_off[v]]); }
};

// SVFC peer mesh (Theorem 7): in the target's component this is exactly
// the tree walker over per-component DFS numbers; in a foreign component
// the local root (preorder 0) crosses the peer mesh toward the target
// component's root, and everyone else climbs via port_up — the same
// decisions SvfcPeerMeshScheme::forward makes with its zero climb header,
// with every port already resolved into the shadow graph.
struct MeshWalker {
  const FlatFib::MeshView& t;
  std::uint32_t x = 0;                 // target's component-local DFS number
  std::uint32_t tc = 0;                // target's component
  const std::uint32_t* seq = nullptr;  // target's light sequence
  std::uint32_t seq_len = 0;

  explicit MeshWalker(const FlatFib& fib) : t(fib.mesh()) {}
  void resolve(NodeId target) {
    x = t.nodes[target].dfs_in;
    tc = t.comp[target];
    seq = t.label_seq + t.label_off[target];
    seq_len = t.label_off[target + 1] - t.label_off[target];
  }
  StepResult step(NodeId u) const {
    const FibTreeNode& r = t.nodes[u];
    const std::uint32_t cu = t.comp[u];
    if (cu != tc) {
      if (r.dfs_in == 0) {
        return {false, t.peer_port[cu * t.component_count + tc]};
      }
      return {false, r.port_up};
    }
    if (x == r.dfs_in) return {true, kInvalidPort};
    if (x < r.dfs_in || x > r.dfs_out) return {false, r.port_up};
    if (x >= r.heavy_in && x <= r.heavy_out) return {false, r.heavy_port};
    const std::uint32_t idx = r.light_depth;
    const std::uint32_t lights = t.nodes[u + 1].light_off - r.light_off;
    if (idx >= seq_len || seq[idx] >= lights) return {false, kInvalidPort};
    return {false, t.light_ports[r.light_off + seq[idx]]};
  }
  void prefetch(NodeId v) const { CPR_PREFETCH(&t.nodes[v]); }
};

struct TableWalker {
  const FlatFib::TableView& t;
  std::uint32_t label = 0;

  explicit TableWalker(const FlatFib& fib) : t(fib.table()) {}
  void resolve(NodeId target) { label = t.relabel[target]; }
  StepResult step(NodeId u) const {
    if (t.relabel[u] == label) return {true, kInvalidPort};
    const std::uint64_t* begin = t.runs + t.row_off[u];
    const std::uint64_t* end = t.runs + t.row_off[u + 1];
    const std::uint64_t* run = row_search(begin, end, label);
    if (run == nullptr) return {false, kInvalidPort};
    return {false, fib_entry_port(*run)};  // may be "no route"
  }
  void prefetch(NodeId v) const { CPR_PREFETCH(&t.runs[t.row_off[v]]); }
};

// Per-shard hot-cache telemetry: the probe verdict plus lifetime
// lookup/hit counters, flushed once per shard walk. Each worker owns
// exactly one slot, so the sums are race-free and thread-count-invariant.
struct HotCacheShardStats {
  std::uint8_t off = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
};

// Per-shard direct-mapped (node, target) -> decision cache. Safe because
// step() is a pure function of (node, target) for one arena generation:
// the cache is constructed per shard walk of one seqlock attempt and a
// generation change discards the whole attempt, so a hit can never
// resurrect a pre-patch decision. Under a skewed (Zipf) workload the hot
// targets' hop decisions collapse into ~kSlots cache lines that stay L2
// resident, replacing a row search per hop; under a uniform workload it
// is pure overhead — which is why it is opt-in and measured, not default.
struct HotDestCache {
  // 4096 slots * 16B = 64 KiB per shard: big enough that the ~hundred
  // hot (node, target) pairs of a Zipf(1.1) batch rarely collide, small
  // enough not to evict the arena's own hot rows from L2.
  static constexpr std::size_t kSlots = 4096;

  struct Entry {
    std::uint64_t key = ~std::uint64_t{0};  // unreachable: u is a valid node
    std::uint32_t port = 0;
    std::uint32_t deliver = 0;
  };
  std::vector<Entry> slots{kSlots};

  static std::uint64_t pack(NodeId u, NodeId target) {
    return (std::uint64_t{u} << 32) | target;
  }
  // Xor-fold the two 32-bit halves, then a 32-bit Fibonacci multiply,
  // top 12 bits. One 32-bit imul instead of the previous full 64-bit
  // multiply on the per-hop path; the fold keeps both node and target
  // entropy in the product, so Zipf hit rates match the 64-bit hash
  // (pinned by test_fib_simd.cpp's hit-rate floor).
  static std::size_t slot_of(std::uint64_t key) {
    const std::uint32_t folded =
        static_cast<std::uint32_t>(key >> 32) ^
        static_cast<std::uint32_t>(key);
    return (folded * 0x9e3779b9u) >> 20;  // top 12 bits: kSlots = 2^12
  }
  bool lookup(NodeId u, NodeId target, StepResult* out) const {
    const std::uint64_t key = pack(u, target);
    const Entry& e = slots[slot_of(key)];
    if (e.key != key) return false;
    out->deliver = e.deliver != 0;
    out->port = e.port;
    return true;
  }
  void insert(NodeId u, NodeId target, StepResult d) {
    const std::uint64_t key = pack(u, target);
    Entry& e = slots[slot_of(key)];
    e.key = key;
    e.port = d.port;
    e.deliver = d.deliver ? 1 : 0;
  }

  // Early hit-rate probe (kHotCacheProbeLookups): the first window of
  // step lookups votes on whether this shard's workload is skewed. A
  // cold cache misses its opening lookups no matter what, so the
  // threshold (1/8) is set well below any Zipf shard's steady-state hit
  // rate but above what a uniform shard ever reaches inside the window.
  // Once failed, active() pins false for the shard remainder and the
  // walk skips lookup+insert entirely.
  std::uint32_t probe_lookups = 0;
  std::uint32_t probe_hits = 0;
  bool enabled = true;

  // Lifetime counters over every lookup while active (probe window
  // included), aggregated per shard into FibBatchOutput.
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;

  bool active() const { return enabled; }
  void note(bool hit) {
    if (probe_lookups >= kHotCacheProbeLookups) return;
    ++probe_lookups;
    probe_hits += hit ? 1u : 0u;
    if (probe_lookups == kHotCacheProbeLookups &&
        probe_hits < kHotCacheProbeMinHits) {
      enabled = false;
    }
  }
};
static_assert(HotDestCache::kSlots == (std::size_t{1} << 12));

// kCache=false instantiations carry this instead of a HotDestCache so
// the hot serving path never pays the 64 KiB per-shard allocation+zero.
struct NoCache {};
template <bool kCache>
using ShardCache = std::conditional_t<kCache, HotDestCache, NoCache>;

// One probed step through the cache: lookup (feeding the probe), step on
// miss, insert. Falls through to a bare step once the probe has switched
// the shard's cache off.
template <typename Walker>
inline StepResult cached_step(HotDestCache& cache, const Walker& w, NodeId u,
                              NodeId target) {
  StepResult d;
  if (!cache.active()) return w.step(u);
  const bool hit = cache.lookup(u, target, &d);
  ++cache.lookups;
  cache.hits += hit ? 1u : 0u;
  cache.note(hit);
  if (!hit) {
    d = w.step(u);
    cache.insert(u, target, d);
  }
  return d;
}

// Per-shard scratch for exact loop detection without per-query clears:
// a node counts as visited when its stamp equals the current query's.
struct LoopStamps {
  std::vector<std::uint32_t> stamp;
  std::uint32_t current = 0;

  explicit LoopStamps(std::size_t n) : stamp(n, 0) {}
  void next_query() { ++current; }
  bool revisit(NodeId v) {
    if (stamp[v] == current) return true;
    stamp[v] = current;
    return false;
  }
};

template <typename Walker, bool kFailures, bool kRecord, bool kCache>
void walk_shard(const FlatFib& fib,
                std::span<const std::pair<NodeId, NodeId>> queries,
                std::span<const std::uint32_t> indices,
                const FibBatchOptions& opt, std::size_t max_hops,
                std::vector<FibRouteResult>& results,
                std::vector<NodeId>& shard_paths,
                HotCacheShardStats& cache_stats) {
  const FlatFib::TopoView& topo = fib.topo();
  Walker walker(fib);
  LoopStamps stamps(kFailures ? fib.node_count() : 0);
  ShardCache<kCache> cache;  // empty type when kCache is off
  for (const std::uint32_t qi : indices) {
    const auto [source, target] = queries[qi];
    FibRouteResult& r = results[qi];
    r.path_begin = shard_paths.size();  // shard-relative, rebased later
    if constexpr (kRecord) shard_paths.push_back(source);
    r.path_len = 1;
    if constexpr (kFailures) stamps.next_query();
    walker.resolve(target);
    NodeId current = source;
    for (std::size_t step = 0; step <= max_hops; ++step) {
      if constexpr (kFailures) {
        if (stamps.revisit(current)) {
          r.looped = 1;
          break;
        }
      }
      StepResult d;
      if constexpr (kCache) {
        d = cached_step(cache, walker, current, target);
      } else {
        d = walker.step(current);
      }
      if (d.deliver) {
        r.delivered = current == target ? 1 : 0;
        break;
      }
      if (d.port == kInvalidPort || d.port >= topo.degree(current)) break;
      const std::uint32_t slot = topo.offsets[current] + d.port;
      if constexpr (kFailures) {
        if ((*opt.edge_down)[topo.edge[slot]]) break;  // dead link: drop
      }
      current = topo.neighbor[slot];
      walker.prefetch(current);
      if constexpr (kRecord) shard_paths.push_back(current);
      ++r.path_len;
    }
  }
  if constexpr (kCache) {
    if (!cache.active()) cache_stats.off = 1;
    cache_stats.lookups += cache.lookups;
    cache_stats.hits += cache.hits;
  }
}

template <typename Walker>
void dispatch_shard(const FlatFib& fib,
                    std::span<const std::pair<NodeId, NodeId>> queries,
                    std::span<const std::uint32_t> indices,
                    const FibBatchOptions& opt, std::size_t max_hops,
                    std::vector<FibRouteResult>& results,
                    std::vector<NodeId>& shard_paths,
                    HotCacheShardStats& cache_stats) {
  const bool failures = opt.edge_down != nullptr;
  // The failures path never caches: drops and loop stamps are already the
  // slow diagnostic mode, and fewer instantiations keep the hop loop hot.
  if (failures && opt.record_paths) {
    walk_shard<Walker, true, true, false>(fib, queries, indices, opt,
                                          max_hops, results, shard_paths,
                                          cache_stats);
  } else if (failures) {
    walk_shard<Walker, true, false, false>(fib, queries, indices, opt,
                                           max_hops, results, shard_paths,
                                           cache_stats);
  } else if (opt.record_paths && opt.hot_dest_cache) {
    walk_shard<Walker, false, true, true>(fib, queries, indices, opt,
                                          max_hops, results, shard_paths,
                                          cache_stats);
  } else if (opt.record_paths) {
    walk_shard<Walker, false, true, false>(fib, queries, indices, opt,
                                           max_hops, results, shard_paths,
                                           cache_stats);
  } else if (opt.hot_dest_cache) {
    walk_shard<Walker, false, false, true>(fib, queries, indices, opt,
                                           max_hops, results, shard_paths,
                                           cache_stats);
  } else {
    walk_shard<Walker, false, false, false>(fib, queries, indices, opt,
                                            max_hops, results, shard_paths,
                                            cache_stats);
  }
}

#if CPR_SIMD

// ---- SIMD / lockstep path -------------------------------------------
//
// Only compiled on x86-64 non-TSan builds and only entered when
// fib_resolve_dispatch said the machine has AVX2, so the target("avx2")
// kernels below never execute on a machine that lacks them.

// Exact-match scan of a short sorted row, four packed entries per
// compare: shift the ports away, compare the keys against the probe in
// all lanes, and read the port out of the (unique) hit. Only full
// four-entry chunks inside the *live* length are touched — the tail and
// the zeroed slack are never loaded, so a key of 0 cannot false-match
// slack and ASan stays quiet about the last partially-filled chunk.
__attribute__((target("avx2"))) bool cowen_scan_avx2(
    const std::uint64_t* row, std::uint32_t len, std::uint32_t key,
    std::uint32_t* port_out) {
  const __m256i vkey = _mm256_set1_epi64x(static_cast<long long>(key));
  std::uint32_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    const __m256i keys = _mm256_srli_epi64(v, 32);
    const int hit = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(keys, vkey)));
    if (hit != 0) {
      *port_out = fib_entry_port(row[i + __builtin_ctz(hit)]);
      return true;
    }
  }
  for (; i < len; ++i) {
    if (fib_entry_key(row[i]) == key) {
      *port_out = fib_entry_port(row[i]);
      return true;
    }
  }
  return false;
}

// Branchless exact-match search of one row's Eytzinger mirror. The probe
// pack(key, 0) sorts before every entry with that key (ports occupy the
// low half), so the lower-bound slot is the exact match when one exists.
// The descend is one fused compare-add per level with no data-dependent
// branch; the ffs trick recovers the lower-bound's 1-based slot from the
// trail of right-turns.
inline bool cowen_eyt_search(const std::uint64_t* eyt, std::uint32_t len,
                             std::uint32_t key, std::uint32_t* port_out) {
  const std::uint64_t probe = fib_pack_entry(key, 0);
  std::uint64_t k = 1;
  while (k <= len) {
    CPR_PREFETCH(&eyt[std::min<std::uint64_t>(4 * k - 1, len - 1)]);
    k = 2 * k + (eyt[k - 1] < probe);
  }
  k >>= __builtin_ffsll(static_cast<long long>(~k));
  if (k == 0) return false;
  const std::uint64_t e = eyt[k - 1];
  if (fib_entry_key(e) != key) return false;
  *port_out = fib_entry_port(e);
  return true;
}

// Cowen walker for the lockstep path: same decision procedure as
// CowenWalker (direct entry, the landmark's own hop, entry toward the
// landmark) with the row probe selected per row length — vectorized scan
// of the sorted image at or under kRowSearchLinearCutoff, branchless
// Eytzinger search of the mirror above it. Keys are unique per row, so
// every probe flavor agrees with the scalar walker's search bit for bit.
// Loads are plain (not atomic_ref): benign under the seqlock because
// row_off is immutable and torn values are discarded by the generation
// recheck; TSan builds never reach this type.
struct CowenSimdWalker {
  const FlatFib::CowenView& t;
  NodeId target = kInvalidNode;
  NodeId landmark = kInvalidNode;
  Port port_at_landmark = kInvalidPort;

  explicit CowenSimdWalker(const FlatFib& fib) : t(fib.cowen()) {}
  void resolve(NodeId tgt) {
    target = tgt;
    landmark = fib_seq_load_u32(t.landmark + tgt);
    port_at_landmark = fib_seq_load_u32(t.landmark_port + tgt);
  }
  bool find(std::uint32_t off, std::uint32_t len, std::uint32_t key,
            std::uint32_t* port_out) const {
    if (len <= kRowSearchLinearCutoff) {
      return cowen_scan_avx2(t.rows + off, len, key, port_out);
    }
    return cowen_eyt_search(t.eyt + off, len, key, port_out);
  }
  StepResult step(NodeId u) const {
    if (u == target) return {true, kInvalidPort};
    const std::uint32_t off = t.row_off[u];
    const std::uint32_t len = fib_seq_load_u32(t.row_len + u);
    std::uint32_t port;
    if (find(off, len, target, &port)) return {false, port};
    if (u == landmark) return {false, port_at_landmark};
    if (find(off, len, landmark, &port)) return {false, port};
    return {false, kInvalidPort};
  }
  void prefetch(NodeId v) const {
    const std::uint32_t off = t.row_off[v];
    CPR_PREFETCH(&t.rows[off]);
    CPR_PREFETCH(&t.eyt[off]);
  }
};

// TZ walker for the lockstep path: TzWalker's label-space decision
// procedure with CowenSimdWalker's per-row probe selection (vectorized
// scan under the cutoff, Eytzinger mirror above it). The dictionary
// probe stays scalar — buckets average four entries, shorter than any
// vector ramp-up — and runs once per query, not per hop. Loads are plain
// for the same reason as CowenSimdWalker's: benign under the seqlock,
// discarded by the generation recheck, and TSan builds never reach this
// type.
struct TzSimdWalker {
  const FlatFib::CowenView& t;
  const FlatFib::TzView& z;
  std::uint32_t node_count = 0;
  std::uint32_t target_label = kInvalidNode;
  std::uint32_t landmark_label = kInvalidNode;
  Port port_at_landmark = kInvalidPort;

  explicit TzSimdWalker(const FlatFib& fib)
      : t(fib.cowen()),
        z(fib.tz()),
        node_count(static_cast<std::uint32_t>(fib.node_count())) {}

  std::uint32_t dict_resolve(std::uint32_t name) const {
    const std::uint64_t b = fib_dict_bucket(name, z.dict_bucket_count);
    const std::uint64_t* slot = z.dict + b * z.dict_bucket_cap;
    for (std::uint64_t i = 0; i < z.dict_bucket_cap; ++i) {
      const std::uint64_t e = slot[i];
      if (e == kFibDictEmpty) break;
      const std::uint32_t key = fib_entry_key(e);
      if (key == name) return fib_entry_port(e);
      if (key > name) break;
    }
    return kInvalidNode;
  }

  void resolve(NodeId name) {
    target_label = dict_resolve(name);
    if (target_label < node_count) {
      landmark_label = fib_seq_load_u32(t.landmark + target_label);
      port_at_landmark = fib_seq_load_u32(t.landmark_port + target_label);
    } else {
      landmark_label = kInvalidNode;
      port_at_landmark = kInvalidPort;
    }
  }
  bool find(std::uint32_t off, std::uint32_t len, std::uint32_t key,
            std::uint32_t* port_out) const {
    if (len <= kRowSearchLinearCutoff) {
      return cowen_scan_avx2(t.rows + off, len, key, port_out);
    }
    return cowen_eyt_search(t.eyt + off, len, key, port_out);
  }
  StepResult step(NodeId u) const {
    if (z.label_of[u] == target_label) return {true, kInvalidPort};
    const std::uint32_t off = t.row_off[u];
    const std::uint32_t len = fib_seq_load_u32(t.row_len + u);
    std::uint32_t port;
    if (find(off, len, target_label, &port)) return {false, port};
    if (z.label_of[u] == landmark_label) return {false, port_at_landmark};
    if (find(off, len, landmark_label, &port)) return {false, port};
    return {false, kInvalidPort};
  }
  void prefetch(NodeId v) const {
    const std::uint32_t off = t.row_off[v];
    CPR_PREFETCH(&t.rows[off]);
    CPR_PREFETCH(&t.eyt[off]);
  }
};

// Lane classification out of the batched tree kernel.
inline constexpr std::uint32_t kLaneDeliver = 0;  // x == dfs_in: arrived
inline constexpr std::uint32_t kLanePort = 1;     // port[] holds the hop
inline constexpr std::uint32_t kLaneScalar = 2;   // light label: rederive

// Classifies up to eight tree-walker lanes in one shot: gather the six
// decision fields of every lane's current record, then compare the
// lane's target DFS number against the intervals in all lanes at once.
// The three vector-resolvable outcomes (deliver, climb via port_up,
// descend into the heavy child) cover almost every hop; lanes that need
// the light-label sequence fall back to the scalar step, which re-derives
// the same decision. DFS numbers are < n < 2^31, so the signed compares
// are exact.
__attribute__((target("avx2"))) void tree_step_lanes_avx2(
    const FibTreeNode* nodes, const std::uint32_t* xs, const NodeId* cur,
    const bool* active, std::size_t m, std::uint32_t* klass,
    std::uint32_t* port) {
  alignas(32) std::int32_t idx[8];
  alignas(32) std::int32_t tx[8];
  for (std::size_t i = 0; i < 8; ++i) {
    // Inactive / absent lanes gather record 0 (always mapped) and are
    // classified as kLaneScalar so nothing reads their outputs.
    // cur[i] * 8 must stay within int32: forward_batch routes graphs
    // above kSimdMaxNodeCount (2^28 nodes) to the scalar path.
    idx[i] = (i < m && active[i])
                 ? static_cast<std::int32_t>(cur[i] * 8u)
                 : 0;
    tx[i] = (i < m && active[i]) ? static_cast<std::int32_t>(xs[i]) : 0;
  }
  const auto* base = reinterpret_cast<const int*>(nodes);
  const __m256i vidx = _mm256_load_si256(reinterpret_cast<__m256i*>(idx));
  const __m256i vx = _mm256_load_si256(reinterpret_cast<__m256i*>(tx));
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i vin = _mm256_i32gather_epi32(base, vidx, 4);
  const __m256i vout =
      _mm256_i32gather_epi32(base, _mm256_add_epi32(vidx, one), 4);
  const __m256i vhin = _mm256_i32gather_epi32(
      base, _mm256_add_epi32(vidx, _mm256_set1_epi32(2)), 4);
  const __m256i vhout = _mm256_i32gather_epi32(
      base, _mm256_add_epi32(vidx, _mm256_set1_epi32(3)), 4);
  const __m256i vup = _mm256_i32gather_epi32(
      base, _mm256_add_epi32(vidx, _mm256_set1_epi32(4)), 4);
  const __m256i vhp = _mm256_i32gather_epi32(
      base, _mm256_add_epi32(vidx, _mm256_set1_epi32(5)), 4);

  const __m256i deliver = _mm256_cmpeq_epi32(vx, vin);
  const __m256i outside = _mm256_or_si256(_mm256_cmpgt_epi32(vin, vx),
                                          _mm256_cmpgt_epi32(vx, vout));
  // x in [heavy_in, heavy_out]  <=>  !(heavy_in > x) && !(x > heavy_out)
  const __m256i heavy = _mm256_andnot_si256(
      _mm256_or_si256(_mm256_cmpgt_epi32(vhin, vx),
                      _mm256_cmpgt_epi32(vx, vhout)),
      _mm256_set1_epi32(-1));

  alignas(32) std::uint32_t up_arr[8], hp_arr[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(up_arr), vup);
  _mm256_store_si256(reinterpret_cast<__m256i*>(hp_arr), vhp);
  const int dmask = _mm256_movemask_ps(_mm256_castsi256_ps(deliver));
  const int omask = _mm256_movemask_ps(_mm256_castsi256_ps(outside));
  const int hmask = _mm256_movemask_ps(_mm256_castsi256_ps(heavy));
  for (std::size_t i = 0; i < m; ++i) {
    if (!active[i]) continue;
    const int bit = 1 << i;
    if (dmask & bit) {
      klass[i] = kLaneDeliver;
    } else if (omask & bit) {
      klass[i] = kLanePort;
      port[i] = up_arr[i];
    } else if (hmask & bit) {
      klass[i] = kLanePort;
      port[i] = hp_arr[i];
    } else {
      klass[i] = kLaneScalar;  // light-label lane: scalar re-derivation
    }
  }
}

// One batched decision round over the live lanes. The generic form is a
// scalar loop — the lockstep win there is purely the eight overlapped
// load chains — with per-walker batched kernels layered on top.
template <typename Walker, bool kCache>
void step_lanes(Walker* w, const NodeId* cur, const NodeId* tgt,
                const bool* active, std::size_t m, StepResult* d,
                ShardCache<kCache>& cache) {
  for (std::size_t i = 0; i < m; ++i) {
    if (!active[i]) continue;
    if constexpr (kCache) {
      d[i] = cached_step(cache, w[i], cur[i], tgt[i]);
    } else {
      d[i] = w[i].step(cur[i]);
    }
  }
}

template <bool kCache>
void step_lanes_tree(TreeWalker* w, const NodeId* cur, const NodeId* tgt,
                     const bool* active, std::size_t m, StepResult* d,
                     ShardCache<kCache>& cache) {
  std::uint32_t xs[8];
  for (std::size_t i = 0; i < m; ++i) xs[i] = w[i].x;
  std::uint32_t klass[8] = {};
  std::uint32_t port[8] = {};
  bool live[8];
  std::size_t pending = 0;
  for (std::size_t i = 0; i < m; ++i) {
    live[i] = active[i];
    if constexpr (kCache) {
      if (live[i] && cache.active()) {
        const bool hit = cache.lookup(cur[i], tgt[i], &d[i]);
        cache.note(hit);
        if (hit) live[i] = false;
      }
    }
    pending += live[i] ? 1 : 0;
  }
  if (pending != 0) {
    tree_step_lanes_avx2(&w[0].t.nodes[0], xs, cur, live, m, klass, port);
    for (std::size_t i = 0; i < m; ++i) {
      if (!live[i]) continue;
      switch (klass[i]) {
        case kLaneDeliver:
          d[i] = {true, kInvalidPort};
          break;
        case kLanePort:
          d[i] = {false, static_cast<Port>(port[i])};
          break;
        default:
          d[i] = w[i].step(cur[i]);
          break;
      }
      if constexpr (kCache) {
        if (cache.active()) cache.insert(cur[i], tgt[i], d[i]);
      }
    }
  }
}

// Lockstep walk of one shard: groups of up to eight consecutive shard
// queries advance together, one hop per round. Results and path layout
// are bit-identical to walk_shard because lanes are flushed in shard
// query order and every lane runs the exact scalar decision procedure —
// only the interleaving (and with it the number of in-flight cache
// misses) differs. No failures mode here: edge_down batches stay scalar.
template <typename Walker, bool kRecord, bool kCache>
void walk_shard_lockstep(const FlatFib& fib,
                         std::span<const std::pair<NodeId, NodeId>> queries,
                         std::span<const std::uint32_t> indices,
                         std::size_t max_hops,
                         std::vector<FibRouteResult>& results,
                         std::vector<NodeId>& shard_paths,
                         HotCacheShardStats& cache_stats) {
  constexpr std::size_t kLanes = 8;
  const FlatFib::TopoView& topo = fib.topo();
  std::vector<Walker> w;
  w.reserve(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) w.emplace_back(fib);
  ShardCache<kCache> cache;
  std::array<std::vector<NodeId>, kLanes> lane_path;

  NodeId cur[kLanes], tgt[kLanes];
  bool active[kLanes];
  std::uint32_t plen[kLanes];
  std::uint8_t delivered[kLanes];
  StepResult d[kLanes];

  for (std::size_t g = 0; g < indices.size(); g += kLanes) {
    const std::size_t m = std::min(kLanes, indices.size() - g);
    std::size_t remaining = m;
    for (std::size_t i = 0; i < m; ++i) {
      const auto [source, target] = queries[indices[g + i]];
      cur[i] = source;
      tgt[i] = target;
      active[i] = true;
      delivered[i] = 0;
      plen[i] = 1;
      w[i].resolve(target);
      lane_path[i].clear();
      if constexpr (kRecord) lane_path[i].push_back(source);
      w[i].prefetch(source);
    }
    for (std::size_t step = 0; remaining > 0 && step <= max_hops; ++step) {
      if constexpr (std::is_same_v<Walker, TreeWalker>) {
        step_lanes_tree<kCache>(w.data(), cur, tgt, active, m, d, cache);
      } else {
        step_lanes<Walker, kCache>(w.data(), cur, tgt, active, m, d, cache);
      }
      for (std::size_t i = 0; i < m; ++i) {
        if (!active[i]) continue;
        if (d[i].deliver) {
          delivered[i] = cur[i] == tgt[i] ? 1 : 0;
          active[i] = false;
          --remaining;
          continue;
        }
        if (d[i].port == kInvalidPort || d[i].port >= topo.degree(cur[i])) {
          active[i] = false;
          --remaining;
          continue;
        }
        cur[i] = topo.neighbor[topo.offsets[cur[i]] + d[i].port];
        w[i].prefetch(cur[i]);
        if constexpr (kRecord) lane_path[i].push_back(cur[i]);
        ++plen[i];
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      FibRouteResult& r = results[indices[g + i]];
      r.path_begin = shard_paths.size();
      r.path_len = plen[i];
      r.delivered = delivered[i];
      r.looped = 0;
      if constexpr (kRecord) {
        shard_paths.insert(shard_paths.end(), lane_path[i].begin(),
                           lane_path[i].end());
      }
    }
  }
  if constexpr (kCache) {
    if (!cache.active()) cache_stats.off = 1;
    cache_stats.lookups += cache.lookups;
    cache_stats.hits += cache.hits;
  }
}

// Stats-only lockstep walk with continuous lane refill: the moment a
// lane's query retires, the next shard query is loaded into it, so the
// number of in-flight dependent-load chains stays pinned at kLanes
// instead of draining toward one on every group's tail (path lengths are
// skewed, so the grouped walk spends many rounds nearly empty). Without
// path recording the per-query outputs are written to results[qidx]
// directly and are order-independent — bit-identical to walk_shard.
// kLanes can exceed the 8-wide tree kernel; it then runs per 8-chunk.
template <typename Walker, bool kCache, std::size_t kLanes>
void walk_shard_lockstep_refill(
    const FlatFib& fib, std::span<const std::pair<NodeId, NodeId>> queries,
    std::span<const std::uint32_t> indices, std::size_t max_hops,
    std::vector<FibRouteResult>& results, std::vector<NodeId>& shard_paths,
    HotCacheShardStats& cache_stats) {
  static_assert(kLanes % 8 == 0);
  const FlatFib::TopoView& topo = fib.topo();
  std::vector<Walker> w;
  w.reserve(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) w.emplace_back(fib);
  ShardCache<kCache> cache;

  NodeId cur[kLanes], tgt[kLanes];
  std::uint32_t qidx[kLanes];
  std::uint32_t steps[kLanes];
  std::uint32_t plen[kLanes];
  bool active[kLanes] = {};
  StepResult d[kLanes];

  std::size_t filled = 0, live = 0;
  const auto load = [&](std::size_t i) {
    if (filled >= indices.size()) return;
    const std::uint32_t qi = indices[filled++];
    const auto [source, target] = queries[qi];
    qidx[i] = qi;
    cur[i] = source;
    tgt[i] = target;
    steps[i] = 0;
    plen[i] = 1;
    active[i] = true;
    ++live;
    w[i].resolve(target);
    w[i].prefetch(source);
  };
  const auto retire = [&](std::size_t i, std::uint8_t delivered) {
    FibRouteResult& r = results[qidx[i]];
    r.path_begin = shard_paths.size();  // constant: nothing is recorded
    r.path_len = plen[i];
    r.delivered = delivered;
    r.looped = 0;
    active[i] = false;
    --live;
    load(i);
  };
  for (std::size_t i = 0; i < kLanes; ++i) load(i);
  while (live > 0) {
    if constexpr (std::is_same_v<Walker, TreeWalker>) {
      for (std::size_t c = 0; c < kLanes; c += 8) {
        step_lanes_tree<kCache>(w.data() + c, cur + c, tgt + c, active + c, 8,
                                d + c, cache);
      }
    } else {
      step_lanes<Walker, kCache>(w.data(), cur, tgt, active, kLanes, d, cache);
    }
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (!active[i]) continue;
      if (d[i].deliver) {
        retire(i, cur[i] == tgt[i] ? 1 : 0);
        continue;
      }
      if (d[i].port == kInvalidPort || d[i].port >= topo.degree(cur[i])) {
        retire(i, 0);
        continue;
      }
      cur[i] = topo.neighbor[topo.offsets[cur[i]] + d[i].port];
      w[i].prefetch(cur[i]);
      ++plen[i];
      // Same call budget as the scalar loop: max_hops+1 step() calls.
      if (++steps[i] > max_hops) retire(i, 0);
    }
  }
  if constexpr (kCache) {
    if (!cache.active()) cache_stats.off = 1;
    cache_stats.lookups += cache.lookups;
    cache_stats.hits += cache.hits;
  }
}

template <typename Walker>
void dispatch_shard_lockstep(const FlatFib& fib,
                             std::span<const std::pair<NodeId, NodeId>> queries,
                             std::span<const std::uint32_t> indices,
                             const FibBatchOptions& opt, std::size_t max_hops,
                             std::vector<FibRouteResult>& results,
                             std::vector<NodeId>& shard_paths,
                             HotCacheShardStats& cache_stats) {
  // Path recording needs shard_paths laid out in shard query order, so it
  // keeps the grouped walk; the stats-only serving mode takes the
  // refilling walk, which sustains full lane occupancy.
  constexpr std::size_t kRefillLanes = 16;
  if (opt.record_paths && opt.hot_dest_cache) {
    walk_shard_lockstep<Walker, true, true>(fib, queries, indices, max_hops,
                                            results, shard_paths, cache_stats);
  } else if (opt.record_paths) {
    walk_shard_lockstep<Walker, true, false>(fib, queries, indices, max_hops,
                                             results, shard_paths, cache_stats);
  } else if (opt.hot_dest_cache) {
    walk_shard_lockstep_refill<Walker, true, kRefillLanes>(
        fib, queries, indices, max_hops, results, shard_paths, cache_stats);
  } else {
    walk_shard_lockstep_refill<Walker, false, kRefillLanes>(
        fib, queries, indices, max_hops, results, shard_paths, cache_stats);
  }
}

#endif  // CPR_SIMD

}  // namespace

bool fib_simd_supported() {
#if CPR_SIMD
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

FibDispatch fib_resolve_dispatch(FibDispatch requested) {
  if (requested == FibDispatch::kScalar) return FibDispatch::kScalar;
  return fib_simd_supported() ? FibDispatch::kSimd : FibDispatch::kScalar;
}

FibDispatch fib_resolve_batch_dispatch(const FibBatchOptions& opt) {
  // Failure-mode pin: see the declaration comment. Everything else
  // resolves exactly as fib_resolve_dispatch.
  if (opt.edge_down != nullptr) return FibDispatch::kScalar;
  return fib_resolve_dispatch(opt.dispatch);
}

FibBatchOutput forward_batch(const FlatFib& fib,
                             std::span<const std::pair<NodeId, NodeId>> queries,
                             const FibBatchOptions& opt) {
  FibBatchOutput out;
  out.results.resize(queries.size());
  if (queries.empty() || fib.node_count() == 0) return out;

  const std::size_t n = fib.node_count();
  const std::size_t max_hops =
      opt.max_hops != 0 ? opt.max_hops : 4 * n + 16;

  // Bucket query indices by source shard (counting sort, stable within a
  // shard so per-shard walk order is the input order).
  const std::size_t shards = std::min(kFibShards, n);
  const auto shard_of = [&](NodeId source) {
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(source) * shards / n);
  };
  std::vector<std::uint32_t> shard_begin(shards + 1, 0);
  for (const auto& [source, target] : queries) {
    ++shard_begin[shard_of(source) + 1];
  }
  for (std::size_t s = 0; s < shards; ++s) {
    shard_begin[s + 1] += shard_begin[s];
  }
  std::vector<std::uint32_t> order(queries.size());
  {
    std::vector<std::uint32_t> cursor(shard_begin.begin(),
                                      shard_begin.end() - 1);
    for (std::uint32_t qi = 0; qi < queries.size(); ++qi) {
      order[cursor[shard_of(queries[qi].first)]++] = qi;
    }
  }

  // Resolve the hop-resolution path once per batch; failure-mode batches
  // (edge_down) are pinned scalar — see the header comment. kAuto also
  // consults the arena size: results are bit-identical either way, and
  // below kSimdAutoMinArenaBytes the walk is cache-resident, where the
  // single-chain scalar loop beats the lockstep lane overhead.
  // byte_size() — never blob() here: blob() refreshes the arena checksum,
  // a non-atomic write that must not run on the concurrent reader path.
  // The AVX2 tree kernel's 32-bit gather indices cap the node count; a
  // larger graph (beyond any current target) walks scalar, bit-identical.
  const bool simd =
      fib_resolve_batch_dispatch(opt) == FibDispatch::kSimd &&
      fib.node_count() <= kSimdMaxNodeCount &&
      (opt.dispatch != FibDispatch::kAuto ||
       fib.byte_size() >= kSimdAutoMinArenaBytes);
  // The failure-mode scalar pin is part of the engine's contract, not an
  // accident of the expression above.
  assert(opt.edge_down == nullptr || !simd);
  (void)simd;  // non-SIMD builds resolve every dispatch to scalar

  // Seqlock read side. Sample the generation, walk, issue an acquire
  // fence at the end of every shard (so each worker's data loads are
  // sequenced before its fence — the fence pairs with apply_delta's
  // release fence), then revalidate after the join. Odd entry or a
  // mismatch means a writer was active: discard everything and re-run
  // up to seqlock_max_retries times, then throw. The sharding above is a
  // pure function of the queries, so only the walk itself repeats.
  ThreadPool& pool = opt.pool ? *opt.pool : ThreadPool::global();
  std::vector<std::vector<NodeId>> shard_paths(shards);
  // Per-shard hot-cache probe verdicts and hit counters; each worker
  // writes only its own slot, summed into the output after the delivered
  // attempt.
  std::vector<HotCacheShardStats> cache_stats(shards);
  std::uint64_t gen = 0;
  for (std::size_t attempt = 0;; ++attempt) {
    gen = fib.generation();
    if ((gen & 1) == 0) {
      parallel_for(pool, 0, shards, [&](std::size_t s) {
        const std::span<const std::uint32_t> indices{
            order.data() + shard_begin[s],
            shard_begin[s + 1] - shard_begin[s]};
        if (indices.empty()) return;
#if CPR_SIMD
        if (simd) {
          switch (fib.kind()) {
            case FibKind::kTree:
              dispatch_shard_lockstep<TreeWalker>(fib, queries, indices, opt,
                                                  max_hops, out.results,
                                                  shard_paths[s],
                                                  cache_stats[s]);
              break;
            case FibKind::kInterval:
              dispatch_shard_lockstep<IntervalWalker>(fib, queries, indices,
                                                      opt, max_hops,
                                                      out.results,
                                                      shard_paths[s],
                                                      cache_stats[s]);
              break;
            case FibKind::kCowen:
              dispatch_shard_lockstep<CowenSimdWalker>(fib, queries, indices,
                                                       opt, max_hops,
                                                       out.results,
                                                       shard_paths[s],
                                                       cache_stats[s]);
              break;
            case FibKind::kTable:
              dispatch_shard_lockstep<TableWalker>(fib, queries, indices,
                                                   opt, max_hops, out.results,
                                                   shard_paths[s],
                                                   cache_stats[s]);
              break;
            case FibKind::kMesh:
              dispatch_shard_lockstep<MeshWalker>(fib, queries, indices, opt,
                                                  max_hops, out.results,
                                                  shard_paths[s],
                                                  cache_stats[s]);
              break;
            case FibKind::kTz:
              dispatch_shard_lockstep<TzSimdWalker>(fib, queries, indices,
                                                    opt, max_hops,
                                                    out.results,
                                                    shard_paths[s],
                                                    cache_stats[s]);
              break;
          }
          std::atomic_thread_fence(std::memory_order_acquire);
          return;
        }
#endif
        switch (fib.kind()) {
          case FibKind::kTree:
            dispatch_shard<TreeWalker>(fib, queries, indices, opt, max_hops,
                                       out.results, shard_paths[s],
                                       cache_stats[s]);
            break;
          case FibKind::kInterval:
            dispatch_shard<IntervalWalker>(fib, queries, indices, opt,
                                           max_hops, out.results,
                                           shard_paths[s], cache_stats[s]);
            break;
          case FibKind::kCowen:
            dispatch_shard<CowenWalker>(fib, queries, indices, opt, max_hops,
                                        out.results, shard_paths[s],
                                        cache_stats[s]);
            break;
          case FibKind::kTable:
            dispatch_shard<TableWalker>(fib, queries, indices, opt, max_hops,
                                        out.results, shard_paths[s],
                                        cache_stats[s]);
            break;
          case FibKind::kMesh:
            dispatch_shard<MeshWalker>(fib, queries, indices, opt, max_hops,
                                       out.results, shard_paths[s],
                                       cache_stats[s]);
            break;
          case FibKind::kTz:
            dispatch_shard<TzWalker>(fib, queries, indices, opt, max_hops,
                                     out.results, shard_paths[s],
                                     cache_stats[s]);
            break;
        }
        std::atomic_thread_fence(std::memory_order_acquire);
      });
      if (fib.generation() == gen) break;  // coherent snapshot
    }
    if (attempt >= opt.seqlock_max_retries) {
      throw std::runtime_error(
          (gen & 1) ? "forward_batch: FIB patch in progress"
                    : "forward_batch: FIB patched during batch");
    }
    // Discard the torn attempt entirely — partial results (a looped flag,
    // a recorded path) must never leak into the coherent re-run.
    ++out.seqlock_retries;
    std::fill(out.results.begin(), out.results.end(), FibRouteResult{});
    for (auto& p : shard_paths) p.clear();
    std::fill(cache_stats.begin(), cache_stats.end(), HotCacheShardStats{});
    std::this_thread::yield();
  }
  for (const HotCacheShardStats& cs : cache_stats) {
    out.hot_cache_disabled_shards += cs.off;
    out.hot_cache_lookups += cs.lookups;
    out.hot_cache_hits += cs.hits;
  }

  // Stitch the per-shard path buffers in shard order and rebase each
  // query's path_begin — layout depends only on the (fixed) sharding.
  if (opt.record_paths) {
    std::size_t total = 0;
    for (const auto& p : shard_paths) total += p.size();
    out.paths.reserve(total);
    std::vector<std::uint64_t> shard_base(shards, 0);
    for (std::size_t s = 0; s < shards; ++s) {
      shard_base[s] = out.paths.size();
      out.paths.insert(out.paths.end(), shard_paths[s].begin(),
                       shard_paths[s].end());
    }
    for (std::size_t s = 0; s < shards; ++s) {
      for (std::uint32_t i = shard_begin[s]; i < shard_begin[s + 1]; ++i) {
        out.results[order[i]].path_begin += shard_base[s];
      }
    }
  }
  return out;
}

}  // namespace cpr
