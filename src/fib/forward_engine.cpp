#include "fib/forward_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <stdexcept>
#include <thread>
#include <type_traits>

// TSan cannot see that the lockstep path's plain loads race benignly
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

// Cowen and TZ are the kinds apply_delta patches, so their walkers read
// rows / row_len / landmark / landmark_port (and, for TZ, the label map
// and dictionary) through fib_load, racing benignly with a concurrent
// writer. The scalar path instantiates them with seqlock loads
// (kSeqlock = true, what TSan checks), the lockstep path with plain
// loads (TSan builds compile it out). A torn window can hand back a
// stale-or-new mixture of values — never out-of-bounds, since row_off
// is the immutable capacity CSR and any stored row_len is within it —
// and the generation recheck after the batch discards the whole result.
// Both flavours run the one row search, fib_row_find.
template <bool kSeqlock>
struct CowenWalker {
  const FlatFib::CowenView& t;
  NodeId target = kInvalidNode;
  NodeId landmark = kInvalidNode;
  Port port_at_landmark = kInvalidPort;

  explicit CowenWalker(const FlatFib& fib) : t(fib.cowen()) {}
  void resolve(NodeId tgt) {
    target = tgt;
    landmark = fib_load<kSeqlock>(t.landmark + tgt);
    port_at_landmark = fib_load<kSeqlock>(t.landmark_port + tgt);
  }
  StepResult step(NodeId u) const {
    if (u == target) return {true, kInvalidPort};
    // row_off[u] is the row's *capacity* base; only the live prefix
    // (row_len[u] entries) holds data, the rest is patching slack.
    const std::uint64_t* row = t.rows + t.row_off[u];
    const std::uint32_t len = fib_load<kSeqlock>(t.row_len + u);
    // Same precedence as CowenScheme::forward: direct entry, the
    // landmark's own hop, then the entry toward the landmark.
    std::uint32_t port;
    if (fib_row_find<kSeqlock>(row, len, target, &port)) return {false, port};
    if (u == landmark) return {false, port_at_landmark};
    if (fib_row_find<kSeqlock>(row, len, landmark, &port)) {
      return {false, port};
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
// mutable-section probe goes through fib_load, as in CowenWalker.
template <bool kSeqlock>
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
      const std::uint64_t e = fib_load<kSeqlock>(slot + i);
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
      landmark_label = fib_load<kSeqlock>(t.landmark + target_label);
      port_at_landmark = fib_load<kSeqlock>(t.landmark_port + target_label);
    } else {
      landmark_label = kInvalidNode;
      port_at_landmark = kInvalidPort;
    }
  }
  StepResult step(NodeId u) const {
    const std::uint32_t ul = fib_load<kSeqlock>(z.label_of + u);
    if (ul == target_label) return {true, kInvalidPort};
    const std::uint64_t* row = t.rows + t.row_off[u];
    const std::uint32_t len = fib_load<kSeqlock>(t.row_len + u);
    // Same precedence as the Cowen walker, in label space: direct entry,
    // the landmark's own hop, then the entry toward the landmark. Row
    // keys are labels < n, so an invalid target/landmark label (unknown
    // name) can never match a key and the packet drops.
    std::uint32_t port;
    if (fib_row_find<kSeqlock>(row, len, target_label, &port)) {
      return {false, port};
    }
    if (ul == landmark_label) return {false, port_at_landmark};
    if (fib_row_find<kSeqlock>(row, len, landmark_label, &port)) {
      return {false, port};
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

// One shard's share of a batch: its queries (indices into `queries`, in
// input order) and where its results and recorded path go. Each worker
// writes only its own results[qi] slots and its own `paths` buffer.
struct ShardJob {
  const FlatFib& fib;
  std::span<const std::pair<NodeId, NodeId>> queries;
  std::span<const std::uint32_t> indices;
  const FibBatchOptions& opt;
  std::size_t max_hops;
  std::vector<FibRouteResult>& results;
  std::vector<NodeId>& paths;  // shard-relative, stitched afterwards
};

template <typename Walker, bool kFailures, bool kRecord>
void walk_shard(const ShardJob& job) {
  const FlatFib::TopoView& topo = job.fib.topo();
  Walker walker(job.fib);
  LoopStamps stamps(kFailures ? job.fib.node_count() : 0);
  for (const std::uint32_t qi : job.indices) {
    const auto [source, target] = job.queries[qi];
    FibRouteResult& r = job.results[qi];
    r.path_begin = job.paths.size();  // shard-relative, rebased later
    if constexpr (kRecord) job.paths.push_back(source);
    r.path_len = 1;
    if constexpr (kFailures) stamps.next_query();
    walker.resolve(target);
    NodeId current = source;
    for (std::size_t step = 0; step <= job.max_hops; ++step) {
      if constexpr (kFailures) {
        if (stamps.revisit(current)) {
          r.looped = 1;
          break;
        }
      }
      const StepResult d = walker.step(current);
      if (d.deliver) {
        r.delivered = current == target ? 1 : 0;
        break;
      }
      if (d.port == kInvalidPort || d.port >= topo.degree(current)) break;
      const std::uint32_t slot = topo.offsets[current] + d.port;
      if constexpr (kFailures) {
        if ((*job.opt.edge_down)[topo.edge[slot]]) break;  // dead link: drop
      }
      current = topo.neighbor[slot];
      walker.prefetch(current);
      if constexpr (kRecord) job.paths.push_back(current);
      ++r.path_len;
    }
  }
}

#if CPR_SIMD

// ---- SIMD / lockstep path -------------------------------------------
//
// Only compiled on x86-64 non-TSan builds and only entered when
// fib_resolve_dispatch said the machine has AVX2, so the target("avx2")
// kernel below never executes on a machine that lacks it.

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

// One batched decision round over up to eight tree lanes: the AVX2
// kernel resolves deliver / climb / heavy-descend, light-label lanes
// re-derive the same decision through the scalar step.
inline void step_lanes_tree(TreeWalker* w, const NodeId* cur,
                            const bool* active, std::size_t m,
                            StepResult* d) {
  std::uint32_t xs[8];
  bool any = false;
  for (std::size_t i = 0; i < m; ++i) {
    xs[i] = w[i].x;
    any |= active[i];
  }
  if (!any) return;
  std::uint32_t klass[8] = {};
  std::uint32_t port[8] = {};
  tree_step_lanes_avx2(&w[0].t.nodes[0], xs, cur, active, m, klass, port);
  for (std::size_t i = 0; i < m; ++i) {
    if (!active[i]) continue;
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
  }
}

// One decision round over up to eight live lanes. The generic form is a
// scalar loop — the lockstep win there is purely the overlapped load
// chains — and the tree family runs the lanes through the kernel.
template <typename Walker>
void step_lanes(Walker* w, const NodeId* cur, const bool* active,
                std::size_t m, StepResult* d) {
  if constexpr (std::is_same_v<Walker, TreeWalker>) {
    step_lanes_tree(w, cur, active, m, d);
  } else {
    for (std::size_t i = 0; i < m; ++i) {
      if (active[i]) d[i] = w[i].step(cur[i]);
    }
  }
}

// Lockstep walk of one shard with path recording: groups of up to eight
// consecutive shard queries advance together, one hop per round. Results
// and path layout are bit-identical to walk_shard because lanes are
// flushed in shard query order and every lane runs the exact scalar
// decision procedure — only the interleaving (and with it the number of
// in-flight cache misses) differs. No failures mode here: edge_down
// batches stay scalar.
template <typename Walker>
void walk_shard_lockstep(const ShardJob& job) {
  constexpr std::size_t kLanes = 8;
  const FlatFib::TopoView& topo = job.fib.topo();
  std::vector<Walker> w;
  w.reserve(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) w.emplace_back(job.fib);
  std::array<std::vector<NodeId>, kLanes> lane_path;

  NodeId cur[kLanes], tgt[kLanes];
  bool active[kLanes];
  std::uint32_t plen[kLanes];
  std::uint8_t delivered[kLanes];
  StepResult d[kLanes];

  const auto& indices = job.indices;
  for (std::size_t g = 0; g < indices.size(); g += kLanes) {
    const std::size_t m = std::min(kLanes, indices.size() - g);
    std::size_t remaining = m;
    for (std::size_t i = 0; i < m; ++i) {
      const auto [source, target] = job.queries[indices[g + i]];
      cur[i] = source;
      tgt[i] = target;
      active[i] = true;
      delivered[i] = 0;
      plen[i] = 1;
      w[i].resolve(target);
      lane_path[i].assign(1, source);
      w[i].prefetch(source);
    }
    for (std::size_t step = 0; remaining > 0 && step <= job.max_hops; ++step) {
      step_lanes(w.data(), cur, active, m, d);
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
        lane_path[i].push_back(cur[i]);
        ++plen[i];
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      FibRouteResult& r = job.results[indices[g + i]];
      r.path_begin = job.paths.size();
      r.path_len = plen[i];
      r.delivered = delivered[i];
      r.looped = 0;
      job.paths.insert(job.paths.end(), lane_path[i].begin(),
                       lane_path[i].end());
    }
  }
}

// Stats-only lockstep walk with continuous lane refill: the moment a
// lane's query retires, the next shard query is loaded into it, so the
// number of in-flight dependent-load chains stays pinned at kLanes
// instead of draining toward one on every group's tail (path lengths are
// skewed, so the grouped walk spends many rounds nearly empty). Without
// path recording the per-query outputs are written to results[qidx]
// directly and are order-independent — bit-identical to walk_shard.
// kLanes exceeds the 8-wide tree kernel, so rounds step in 8-lane chunks
// (a constant width the compiler specializes the kernel for).
template <typename Walker>
void walk_shard_lockstep_refill(const ShardJob& job) {
  constexpr std::size_t kLanes = 16;
  const FlatFib::TopoView& topo = job.fib.topo();
  std::vector<Walker> w;
  w.reserve(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) w.emplace_back(job.fib);

  NodeId cur[kLanes], tgt[kLanes];
  std::uint32_t qidx[kLanes];
  std::uint32_t steps[kLanes];
  std::uint32_t plen[kLanes];
  bool active[kLanes] = {};
  StepResult d[kLanes];

  std::size_t filled = 0, live = 0;
  const auto load = [&](std::size_t i) {
    if (filled >= job.indices.size()) return;
    const std::uint32_t qi = job.indices[filled++];
    const auto [source, target] = job.queries[qi];
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
    FibRouteResult& r = job.results[qidx[i]];
    r.path_begin = job.paths.size();  // constant: nothing is recorded
    r.path_len = plen[i];
    r.delivered = delivered;
    r.looped = 0;
    active[i] = false;
    --live;
    load(i);
  };
  for (std::size_t i = 0; i < kLanes; ++i) load(i);
  while (live > 0) {
    for (std::size_t c = 0; c < kLanes; c += 8) {
      step_lanes(w.data() + c, cur + c, active + c, 8, d + c);
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
      if (++steps[i] > job.max_hops) retire(i, 0);
    }
  }
}

#endif  // CPR_SIMD

// Walks one shard with the kind's walker: the lockstep flavour when the
// batch resolved to SIMD (path recording needs shard_paths laid out in
// shard query order, so it keeps the grouped walk; the stats-only
// serving mode takes the refilling walk, which sustains full lane
// occupancy), the scalar reference otherwise.
template <typename Scalar, typename Lockstep>
void walk_kind(const ShardJob& job, bool simd) {
#if CPR_SIMD
  if (simd) {
    if (job.opt.record_paths) {
      walk_shard_lockstep<Lockstep>(job);
    } else {
      walk_shard_lockstep_refill<Lockstep>(job);
    }
    return;
  }
#endif
  (void)simd;  // non-SIMD builds resolve every dispatch to scalar
  const bool failures = job.opt.edge_down != nullptr;
  if (failures && job.opt.record_paths) {
    walk_shard<Scalar, true, true>(job);
  } else if (failures) {
    walk_shard<Scalar, true, false>(job);
  } else if (job.opt.record_paths) {
    walk_shard<Scalar, false, true>(job);
  } else {
    walk_shard<Scalar, false, false>(job);
  }
}

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

  // Seqlock read side. Sample the generation, walk, issue an acquire
  // fence at the end of every shard (so each worker's data loads are
  // sequenced before its fence — the fence pairs with apply_delta's
  // release fence), then revalidate after the join. Odd entry or a
  // mismatch means a writer was active: discard everything and re-run
  // up to seqlock_max_retries times, then throw. The sharding above is a
  // pure function of the queries, so only the walk itself repeats.
  ThreadPool& pool = opt.pool ? *opt.pool : ThreadPool::global();
  std::vector<std::vector<NodeId>> shard_paths(shards);
  std::uint64_t gen = 0;
  for (std::size_t attempt = 0;; ++attempt) {
    gen = fib.generation();
    if ((gen & 1) == 0) {
      parallel_for(pool, 0, shards, [&](std::size_t s) {
        const ShardJob job{fib,
                           queries,
                           {order.data() + shard_begin[s],
                            shard_begin[s + 1] - shard_begin[s]},
                           opt,
                           max_hops,
                           out.results,
                           shard_paths[s]};
        if (job.indices.empty()) return;
        switch (fib.kind()) {
          case FibKind::kTree:
            walk_kind<TreeWalker, TreeWalker>(job, simd);
            break;
          case FibKind::kInterval:
            walk_kind<IntervalWalker, IntervalWalker>(job, simd);
            break;
          case FibKind::kCowen:
            walk_kind<CowenWalker<true>, CowenWalker<false>>(job, simd);
            break;
          case FibKind::kMesh:
            walk_kind<MeshWalker, MeshWalker>(job, simd);
            break;
          case FibKind::kTz:
            walk_kind<TzWalker<true>, TzWalker<false>>(job, simd);
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
    std::this_thread::yield();
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
