// Generalized Cowen stretch-3 compact routing (Theorem 3).
//
// For a delimited *regular* algebra, Cowen's landmark scheme carries over
// verbatim: pick a landmark set L, associate with each node u its
// ⪯-closest landmark l_u, define the ball
//     B(u) = { v : w(p*_uv) ≺ w(p*_u,l_u) }
// and the cluster C(u) = { v : u ∈ B(v) }. The label of v is the triplet
// (v, l_v, port_{l_v,v}); node u keeps a (target, port) entry for every
// v ∈ C(u) ∪ L. In-cluster packets follow preferred paths; everything
// else detours via the target's landmark, and Lemma 4 (triangle
// inequality + isotonicity) bounds the detour by algebraic stretch 3:
//     w(p*_u,l_v) ⊕ w(p*_l_v,v) ⪯ (w(p*_u,v))³.
//
// Ball strictness: for strictly monotone algebras the strict ball above is
// the right choice (proper subpaths of preferred paths strictly improve,
// so Lemma 3's "the next hop also stores the entry" holds — Cowen's
// original argument). For weakly monotone algebras correctness needs the
// non-strict ball w(p*_uv) ⪯ w(p*_u,l_u); with heavily tied weight sets
// (selective algebras) the non-strict balls and hence the tables can grow
// toward Θ(n) — which is exactly the paper's message in Section 4.1 that
// for selective algebras the *tree* scheme, not the landmark scheme, is
// the right tool (stretch-3 paths coincide with preferred paths there).
// The constructor picks strictness from the algebra's SM flag; tests pin
// both behaviours.
//
// Landmark sizing follows Thorup–Zwick's refinement of Cowen's analysis:
// an initial random sample of ~sqrt(n ln n) landmarks, then any node whose
// cluster exceeds the cap is promoted to a landmark and balls are
// recomputed, which terminates and keeps max |C(u)| bounded.
//
// Parallel construction: the heavy phases — per-root preferred-path trees,
// nearest-landmark assignment, ball/cluster scans, table fill — are
// independent per node, so they fan out over a ThreadPool. All randomness
// (the landmark sample) is drawn sequentially before any parallel region,
// every parallel loop writes only the slot of its own index, and the
// promotion reduction runs on the calling thread in node order, so the
// resulting scheme is bit-identical for every thread count (pinned by
// tests/test_parallel_determinism.cpp).
#pragma once

#include "algebra/algebra.hpp"
#include "fib/fib_delta.hpp"
#include "graph/csr_graph.hpp"
#include "routing/dijkstra.hpp"
#include "scheme/scheme.hpp"
#include "util/bitstream.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cpr {

struct CowenOptions {
  // 0 = automatic: ceil(sqrt(n * max(1, ln n))).
  std::size_t initial_landmarks = 0;
  // 0 = automatic: 4 * ceil(sqrt(n * max(1, ln n))). Nodes with bigger
  // clusters get promoted to landmarks.
  std::size_t cluster_cap = 0;
  // Force strict/non-strict balls; by default follows the SM flag.
  enum class Balls { kAuto, kStrict, kNonStrict } balls = Balls::kAuto;
  // Pool for the parallel construction phases; nullptr = process-global
  // pool. The built scheme does not depend on the pool's thread count.
  ThreadPool* pool = nullptr;
  // Construction strategy. kStreaming (default) runs full SSSP trees only
  // for the ~√(n ln n) landmarks and enumerates every other node's ball
  // with a truncated Dijkstra stopped at its nearest-landmark radius, so
  // peak memory is Θ(n·|L|) (the size of the output tables) instead of
  // the Θ(n²) of materializing all_pairs_trees. kMaterialized is the
  // original path, kept as the exhaustive differential oracle and for
  // churn-heavy workloads that want every tree resident before the first
  // apply_event. Both produce bit-identical schemes for every thread
  // count (tests/test_cowen_streaming.cpp).
  enum class Construction { kStreaming, kMaterialized };
  Construction construction = Construction::kStreaming;
  // Measurement-only escape hatch for the very largest streaming sweeps
  // (n ~ 10⁶, where the Θ(n·|L|) tables themselves are tens of GB):
  // false skips materializing tables_ — landmark assignment, cluster
  // sizes, promotion decisions and labels stay exact, but forward() has
  // no entries to route by. bench_json's 1M stretch-goal leg uses this.
  bool materialize_tables = true;
  // Landmark SSSP batch size for the streaming construction — bounds how
  // many full trees are resident at once during the nearest-landmark
  // fold. 0 = default (32).
  std::size_t landmark_batch = 0;
};

// What CowenScheme::apply_event did for one churn event.
struct CowenRepairStats {
  std::size_t dirty_trees = 0;       // |D|: roots whose tree was recomputed
  std::size_t reassigned_nodes = 0;  // nodes whose nearest landmark was redone
  std::size_t patched_targets = 0;   // |D ∪ R|: targets merged into tables
  bool full_rebuild = false;         // dirty fraction exceeded the threshold
  // Footprint on the compiled plane: one row patch per table that
  // actually changed, slot patches for moved landmark labels, recompile
  // on full_rebuild. Empty when forwarding is provably unchanged.
  FibDelta fib_delta;
};

template <RoutingAlgebra A>
class CowenScheme {
 public:
  using W = typename A::Weight;

  struct Header {
    NodeId target = kInvalidNode;
    NodeId landmark = kInvalidNode;
    Port port_at_landmark = kInvalidPort;

    // (node, header) pairs determine forwarding steps; equality feeds the
    // simulator's loop detection.
    bool operator==(const Header&) const = default;
  };

  static CowenScheme build(const A& alg, const Graph& g,
                           const EdgeMap<W>& w, Rng& rng,
                           CowenOptions opt = {}) {
    CowenScheme s(alg, g);
    const std::size_t n = g.node_count();
    const double lg = std::max(1.0, std::log(static_cast<double>(std::max<std::size_t>(n, 2))));
    const std::size_t init =
        opt.initial_landmarks > 0
            ? opt.initial_landmarks
            : static_cast<std::size_t>(
                  std::ceil(std::sqrt(static_cast<double>(n) * lg)));
    s.cluster_cap_ =
        opt.cluster_cap > 0 ? opt.cluster_cap : 4 * std::max<std::size_t>(init, 1);
    switch (opt.balls) {
      case CowenOptions::Balls::kStrict:
        s.strict_balls_ = true;
        break;
      case CowenOptions::Balls::kNonStrict:
        s.strict_balls_ = false;
        break;
      case CowenOptions::Balls::kAuto:
        s.strict_balls_ = alg.properties().strictly_monotone;
        break;
    }

    s.pool_ = opt.pool ? opt.pool : &ThreadPool::global();

    // Flat CSR snapshot: every later phase (tree fan-out, ball/cluster
    // scans, table fill with its O(log deg) port lookups) reads it.
    s.csr_ = CsrGraph(g);

    // The landmark sample is the only randomness; drawing it at the same
    // point in both constructions keeps the rng stream — and hence the
    // landmark set — identical between them.
    s.is_landmark_.assign(n, false);
    const std::size_t sample = std::min(init, n);
    for (std::size_t i : rng.sample_without_replacement(n, sample)) {
      s.is_landmark_[i] = true;
    }
    s.initial_landmark_count_ = sample;

    if (opt.construction == CowenOptions::Construction::kMaterialized) {
      // Preferred-path trees from every root; tree[t] gives both
      // w(p*_t,u) and u's next hop toward t (undirected + commutative).
      // One policy-Dijkstra per root, fanned out across the pool.
      s.trees_ = all_pairs_trees(alg, s.csr_, w, s.pool_);
      s.recompute_until_stable();
      if (opt.materialize_tables) {
        s.build_tables();
      } else {
        s.port_at_landmark_.assign(n, kInvalidPort);
        parallel_for(
            *s.pool_, 0, n,
            [&s](std::size_t i) {
              s.port_at_landmark_[i] =
                  s.compute_port_at_landmark(static_cast<NodeId>(i));
            },
            /*grain=*/64);
        s.tables_.assign(n, {});
      }
    } else {
      s.build_streaming(w, opt.materialize_tables,
                        opt.landmark_batch ? opt.landmark_batch : 32);
    }
    return s;
  }

  // Pinned-landmark full rebuild on the weight map `w`: recomputes every
  // tree, assignment, ball, cluster count and table, but keeps the
  // landmark *set* fixed (no promotion). This is both the bounded-
  // staleness fallback of apply_event and the differential oracle the
  // incremental path is tested against. Landmarks stay pinned under
  // churn so repair is a pure function of the event — the price is that
  // clusters may grow past cluster_cap_ until the operator rebuilds with
  // promotion (`build`); cluster_size() exposes the drift
  // (docs/dynamic_topology.md derives the staleness bound).
  void rebuild_from(const EdgeMap<W>& w) {
    trees_ = all_pairs_trees(alg_, csr_, w, pool_);
    assign_landmarks();
    refresh_cluster_sizes(ball_radii());
    build_tables();
  }

  // Incremental repair for one churn event on edge e. old_w/new_w use
  // the φ encoding (φ = down); `w` is the post-event weight map. The
  // repaired scheme is byte-identical to rebuild_from(w) — pinned per
  // event by tests/test_churn_differential.cpp. When more than
  // rebuild_dirty_fraction of the per-root trees are dirty, repair
  // degenerates to the parallel full rebuild (tracking beats patching
  // only while the dirty set is small).
  CowenRepairStats apply_event(EdgeId e, const W& old_w, const W& new_w,
                               const EdgeMap<W>& w,
                               double rebuild_dirty_fraction = 0.25) {
    CowenRepairStats stats;
    const std::size_t n = graph_->node_count();
    if (n == 0 || e >= graph_->edge_count()) return stats;

    // Streamed builds keep no resident trees, but every phase below —
    // dirty detection, landmark reassignment, the table patch — reads
    // them. Materialize once, from the *pre-event* weights: the event
    // moved exactly one edge, so the pre-event map is w with e rolled
    // back to old_w. From here on the scheme is byte-identical to one
    // built with Construction::kMaterialized, at a one-time Θ(n²) cost —
    // churn-heavy callers should build materialized up front instead of
    // paying it inside their first event.
    if (trees_.size() != n) {
      EdgeMap<W> pre = w;
      pre[e] = old_w;
      trees_ = all_pairs_trees(alg_, csr_, pre, pool_);
    }

    const NodeId ea = graph_->edge(e).u;
    const NodeId eb = graph_->edge(e).v;

    // Phase 1 — dirty-tree detection, O(1) per root: tree t must be
    // recomputed iff it uses e, or the event creates a candidate through
    // e that ties-or-beats t's current entry at e's far endpoint (ties
    // included: first-arrival and hop tie-breaks can flip on a tie; a
    // conservative recompute of a tied tree is still byte-exact).
    std::vector<std::uint8_t> dirty(n, 0);
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t t) {
          dirty[t] = tree_dirty(static_cast<NodeId>(t), e, ea, eb, new_w) ? 1 : 0;
        },
        /*grain=*/256);
    std::vector<NodeId> dirty_roots;
    for (NodeId t = 0; t < n; ++t) {
      if (dirty[t]) dirty_roots.push_back(t);
    }
    stats.dirty_trees = dirty_roots.size();
    if (dirty_roots.empty()) return stats;  // forwarding provably unchanged

    if (static_cast<double>(dirty_roots.size()) >
        rebuild_dirty_fraction * static_cast<double>(n)) {
      rebuild_from(w);
      stats.full_rebuild = true;
      stats.fib_delta.recompile = true;
      stats.fib_delta.touched_nodes = n;
      return stats;
    }

    // Snapshots the repair needs for deltas: pre-event radii, pre-event
    // rows of every dirty *landmark* tree (assignment depends on them),
    // and the pre-event assignment itself.
    const BallRadii old_radii = ball_radii();
    std::vector<std::pair<NodeId, PathTree<W>>> saved_landmark_trees;
    for (NodeId t : dirty_roots) {
      if (is_landmark_[t]) saved_landmark_trees.emplace_back(t, trees_[t]);
    }
    const std::vector<NodeId> old_landmark_of = landmark_of_;

    // Phase 2 — recompute the dirty trees (same per-root sweep
    // all_pairs_trees fans out, so results are bitwise identical to the
    // full-rebuild oracle's). The slot weights, and with them the choice
    // between the BFS lane and the heap, are redone from the post-event
    // map on every event: a weight change that breaks uniformity falls
    // back to the heap.
    const SlotWeights<W> slots = gather_slot_weights(alg_, csr_, w);
    parallel_for(*pool_, 0, dirty_roots.size(), [&](std::size_t i) {
      detail::tree_into(alg_, csr_, slots, dirty_roots[i],
                        trees_[dirty_roots[i]]);
    });

    // Phase 3 — landmark reassignment, only where a dirty landmark's row
    // changed in a way landmark_better can see: every pairwise comparison
    // at u reads (presence, weight order, hops) of landmark rows, and
    // only dirty trees moved.
    std::vector<std::uint8_t> reassess(n, 0);
    for (const auto& [l, old_tree] : saved_landmark_trees) {
      const PathTree<W>& now = trees_[l];
      parallel_for(
          *pool_, 0, n,
          [&](std::size_t u) {
            if (reassess[u]) return;
            if (row_changed(old_tree, now, static_cast<NodeId>(u))) {
              reassess[u] = 1;
            }
          },
          /*grain=*/512);
    }
    std::vector<NodeId> landmarks;
    for (NodeId l = 0; l < n; ++l) {
      if (is_landmark_[l]) landmarks.push_back(l);
    }
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t i) {
          if (!reassess[i]) return;
          landmark_of_[i] = nearest_landmark(static_cast<NodeId>(i), landmarks);
        },
        /*grain=*/64);
    for (NodeId u = 0; u < n; ++u) {
      stats.reassigned_nodes += reassess[u] ? 1 : 0;
    }

    // Phase 4 — new radii; R = targets whose ball radius changed at the
    // order level (order-equal radii keep every ball predicate intact).
    const BallRadii new_radii = ball_radii();
    std::vector<std::uint8_t> radius_changed(n, 0);
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t v) {
          if (old_radii.present[v] != new_radii.present[v]) {
            radius_changed[v] = 1;
          } else if (new_radii.present[v] &&
                     !order_equal(alg_, old_radii.value[v],
                                  new_radii.value[v])) {
            radius_changed[v] = 1;
          }
        },
        /*grain=*/512);

    // Patch targets V* = D ∪ R, ascending (merged in id order below).
    std::vector<NodeId> patch;
    for (NodeId v = 0; v < n; ++v) {
      if (dirty[v] || radius_changed[v]) patch.push_back(v);
    }
    stats.patched_targets = patch.size();

    // Phase 5 — tables: nodes whose own tree moved refill from scratch;
    // everyone else merges recomputed entries for V* into their sorted
    // flat table (all other entries are provably byte-identical). Each
    // task flags only its own slot, so change tracking is race-free.
    std::vector<std::uint8_t> table_changed(n, 0);
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t i) {
          const NodeId u = static_cast<NodeId>(i);
          if (dirty[u]) {
            const std::vector<std::pair<NodeId, Port>> before =
                std::move(tables_[u]);
            fill_table(u, new_radii);
            table_changed[u] = before != tables_[u] ? 1 : 0;
          } else {
            table_changed[u] = patch_table(u, patch, new_radii) ? 1 : 0;
          }
        },
        /*grain=*/8);

    // Phase 6 — cluster sizes: full recount where u's tree moved, exact
    // delta over the radius-changed targets elsewhere (for v ∉ R both
    // ball predicates at an unchanged tree_u row are unchanged).
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t i) {
          const NodeId u = static_cast<NodeId>(i);
          if (dirty[u]) {
            cluster_sizes_[u] = count_cluster(u, new_radii);
            return;
          }
          const PathTree<W>& tree_u = trees_[u];
          std::size_t c = cluster_sizes_[u];
          for (NodeId v : patch) {
            if (v == u || !radius_changed[v]) continue;
            const bool was = in_ball(tree_u, v, old_radii);
            const bool is = in_ball(tree_u, v, new_radii);
            if (was && !is) --c;
            if (!was && is) ++c;
          }
          cluster_sizes_[u] = c;
        },
        /*grain=*/8);

    // Phase 7 — labels: the first-hop-at-landmark port moves only when
    // v's landmark changed or that landmark's tree was recomputed.
    std::vector<std::uint8_t> lport_changed(n, 0);
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t i) {
          const NodeId v = static_cast<NodeId>(i);
          const NodeId lv = landmark_of_[v];
          const bool need = lv != old_landmark_of[v] ||
                            (lv != kInvalidNode && dirty[lv]);
          if (need) {
            const Port before = port_at_landmark_[v];
            port_at_landmark_[v] = compute_port_at_landmark(v);
            if (port_at_landmark_[v] != before) lport_changed[v] = 1;
          }
        },
        /*grain=*/64);

    // Emit the FIB delta: one full-row patch per table that moved plus
    // 4-byte slot patches for landmark / port-at-landmark changes, in
    // node-id order so the arena's patcher streams forward.
    std::vector<std::uint64_t> row;
    for (NodeId v = 0; v < n; ++v) {
      const bool lm_moved = landmark_of_[v] != old_landmark_of[v];
      if (!(table_changed[v] || lm_moved || lport_changed[v])) continue;
      ++stats.fib_delta.touched_nodes;
      if (table_changed[v]) {
        row.clear();
        for (const auto& [target, port] : tables_[v]) {
          row.push_back(fib_pack_entry(target, port));
        }
        stats.fib_delta.patches.push_back(
            fib_patch_row_u64(fib_section::kCowenRows, v, row));
      }
      if (lm_moved) {
        stats.fib_delta.patches.push_back(
            fib_patch_u32(fib_section::kCowenLandmark, v, landmark_of_[v]));
      }
      if (lport_changed[v]) {
        stats.fib_delta.patches.push_back(fib_patch_u32(
            fib_section::kCowenLandmarkPort, v, port_at_landmark_[v]));
      }
    }
    return stats;
  }

  Header make_header(NodeId target) const {
    Header h;
    h.target = target;
    h.landmark = landmark_of_[target];
    h.port_at_landmark = port_at_landmark_[target];
    return h;
  }

  Decision forward(NodeId u, Header& h) const {
    if (u == h.target) return Decision::delivered();
    if (const Port* direct = table_lookup(u, h.target)) {
      return Decision::via(*direct);
    }
    if (u == h.landmark) return Decision::via(h.port_at_landmark);
    if (const Port* toward = table_lookup(u, h.landmark)) {
      return Decision::via(*toward);
    }
    return Decision::via(kInvalidPort);
  }

  std::size_t local_memory_bits(NodeId u) const {
    BitWriter bits;
    const std::size_t n = graph_->node_count();
    bits.write_varint(tables_[u].size());
    for (const auto& [target, port] : tables_[u]) {
      bits.write_bounded(target, n);
      bits.write_bounded(port, std::max<std::size_t>(graph_->degree(u), 1));
    }
    return bits.bit_count();
  }

  std::size_t label_bits(NodeId v) const {
    return encode_header(make_header(v)).second;
  }

  // Bit-exact label codec for the (target, landmark, port-at-landmark)
  // triplet; round-tripped in the tests so the reported label sizes are
  // decodable, like the tree router's.
  std::pair<std::vector<std::uint8_t>, std::size_t> encode_header(
      const Header& h) const {
    BitWriter bits;
    const std::size_t n = graph_->node_count();
    bits.write_bounded(h.target, n);
    bits.write_bounded(h.landmark, n);
    bits.write_bit(h.port_at_landmark != kInvalidPort);
    if (h.port_at_landmark != kInvalidPort) {
      bits.write_bounded(
          h.port_at_landmark,
          std::max<std::size_t>(graph_->degree(h.landmark), 1));
    }
    return {bits.bytes(), bits.bit_count()};
  }

  Header decode_header(const std::vector<std::uint8_t>& bytes) const {
    BitReader reader(bytes);
    const std::size_t n = graph_->node_count();
    Header h;
    h.target = static_cast<NodeId>(reader.read_bounded(n));
    h.landmark = static_cast<NodeId>(reader.read_bounded(n));
    if (reader.read_bit()) {
      h.port_at_landmark = static_cast<Port>(reader.read_bounded(
          std::max<std::size_t>(graph_->degree(h.landmark), 1)));
    }
    return h;
  }

  std::size_t landmark_count() const {
    std::size_t c = 0;
    for (bool b : is_landmark_) c += b ? 1 : 0;
    return c;
  }
  std::size_t cluster_size(NodeId u) const {
    return cluster_sizes_.empty() ? 0 : cluster_sizes_[u];
  }
  bool strict_balls() const { return strict_balls_; }
  // The graph the scheme was built over. Wrapping schemes (the TZ
  // name-independent layer) route their size accounting through it.
  const Graph& graph() const { return *graph_; }
  NodeId landmark_of(NodeId v) const { return landmark_of_[v]; }
  bool is_landmark(NodeId v) const { return is_landmark_[v]; }
  // Construction counters for the bench trajectory: how many landmarks
  // the initial √(n ln n) sample drew, and how many the cluster-cap
  // promotion rounds added on top.
  std::size_t initial_landmark_count() const { return initial_landmark_count_; }
  std::size_t promoted_landmark_count() const {
    return promoted_landmark_count_;
  }
  // Whether all n preferred-path trees are resident: true after a
  // kMaterialized build, rebuild_from, or the first apply_event on a
  // streamed scheme; false right after a streaming build.
  bool trees_materialized() const {
    return trees_.size() == graph_->node_count();
  }
  const PathTree<W>& tree(NodeId t) const {
    if (!trees_materialized()) {
      throw std::logic_error(
          "CowenScheme::tree: trees not resident after a streaming build "
          "(use CowenOptions::Construction::kMaterialized or rebuild_from)");
    }
    return trees_[t];
  }
  // The raw (target, port) table of node u — sorted by target, flat so
  // the fill phase is a single allocation-free append stream — exposed so
  // the determinism tests can compare parallel builds entry-by-entry.
  const std::vector<std::pair<NodeId, Port>>& table(NodeId u) const {
    return tables_[u];
  }
  Port port_at_landmark(NodeId v) const { return port_at_landmark_[v]; }

 private:
  CowenScheme(const A& alg, const Graph& g) : alg_(alg), graph_(&g) {}

  // Binary search into u's flat sorted table; nullptr when target has no
  // entry (forwarding then falls back to the landmark route).
  const Port* table_lookup(NodeId u, NodeId target) const {
    const auto& t = tables_[u];
    const auto it = std::lower_bound(
        t.begin(), t.end(), target,
        [](const std::pair<NodeId, Port>& e, NodeId v) { return e.first < v; });
    return (it != t.end() && it->first == target) ? &it->second : nullptr;
  }

  // ⪯-distance from u to node x, read off tree(x)'s flat arrays.
  bool has_dist(NodeId u, NodeId x) const { return trees_[x].has_weight(u); }
  const W& dist_at(NodeId u, NodeId x) const { return trees_[x].weights[u]; }

  // Deterministic "closer landmark" comparison: algebra order, then hops,
  // then id.
  bool landmark_better(NodeId u, NodeId a, NodeId b) const {
    const bool ha = has_dist(u, a);
    const bool hb = has_dist(u, b);
    if (ha != hb) return ha;
    if (!ha) return a < b;
    const W& wa = dist_at(u, a);
    const W& wb = dist_at(u, b);
    if (alg_.less(wa, wb)) return true;
    if (alg_.less(wb, wa)) return false;
    if (trees_[a].hops[u] != trees_[b].hops[u]) {
      return trees_[a].hops[u] < trees_[b].hops[u];
    }
    return a < b;
  }

  // Ball radius of v (⪯-distance to its landmark); absent for landmarks
  // and disconnected nodes. Shared by the cluster scan and the table fill;
  // flat value array + presence flags so the O(n²) scans stream it.
  struct BallRadii {
    std::vector<W> value;
    std::vector<std::uint8_t> present;
    bool has(NodeId v) const { return present[v] != 0; }
  };
  BallRadii ball_radii() const {
    const std::size_t n = graph_->node_count();
    BallRadii radius;
    radius.value.assign(n, alg_.phi());
    radius.present.assign(n, 0);
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t v) {
          if (is_landmark_[v]) return;  // B(landmark) = ∅
          const NodeId lv = landmark_of_[v];
          if (lv == kInvalidNode) return;
          if (!has_dist(static_cast<NodeId>(v), lv)) return;
          radius.value[v] = dist_at(static_cast<NodeId>(v), lv);
          radius.present[v] = 1;
        },
        /*grain=*/64);
    return radius;
  }

  // Nearest landmark per node; each u scans the landmarks in ascending
  // id order, so the deterministic tie-break is schedule-independent.
  void assign_landmarks() {
    const std::size_t n = graph_->node_count();
    std::vector<NodeId> landmarks;
    for (NodeId l = 0; l < n; ++l) {
      if (is_landmark_[l]) landmarks.push_back(l);
    }
    landmark_of_.assign(n, kInvalidNode);
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t i) {
          const NodeId u = static_cast<NodeId>(i);
          landmark_of_[u] = nearest_landmark(u, landmarks);
        },
        /*grain=*/16);
  }

  NodeId nearest_landmark(NodeId u, const std::vector<NodeId>& landmarks) const {
    if (is_landmark_[u]) return u;
    NodeId best = kInvalidNode;
    for (NodeId l : landmarks) {
      if (best == kInvalidNode || landmark_better(u, l, best)) best = l;
    }
    return best;
  }

  // u ∈ B(v) under the current radius row?
  bool in_ball(const PathTree<W>& tree_u, NodeId v, const BallRadii& radius) const {
    if (!radius.has(v) || !tree_u.has_weight(v)) return false;
    const W& d = tree_u.weights[v];
    return strict_balls_ ? alg_.less(d, radius.value[v])
                         : leq(alg_, d, radius.value[v]);
  }

  std::size_t count_cluster(NodeId u, const BallRadii& radius) const {
    // dist(v, u) for all v is tree u's flat weight row — the whole scan
    // streams two arrays plus the radius row.
    const PathTree<W>& tree_u = trees_[u];
    const std::size_t n = graph_->node_count();
    std::size_t count = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (v != u && in_ball(tree_u, v, radius)) ++count;
    }
    return count;
  }

  // Cluster sizes: C(u) = { v : u ∈ B(v) }, counted from u's side so each
  // task owns exactly one counter slot (no shared accumulators).
  void refresh_cluster_sizes(const BallRadii& radius) {
    const std::size_t n = graph_->node_count();
    cluster_sizes_.assign(n, 0);
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t i) {
          cluster_sizes_[i] = count_cluster(static_cast<NodeId>(i), radius);
        },
        /*grain=*/8);
  }

  // A candidate x --e--> y at weight w_e would tie or beat tree t's
  // current record at y (using only t's pre-event rows): the exact
  // single-edge condition under which t's Dijkstra result can move.
  bool candidate_matters(const PathTree<W>& tree, NodeId t, NodeId x,
                         NodeId y, const W& w_e) const {
    if (!tree.reachable(x)) return false;
    if (y == t) return false;  // the source never gets relaxed
    const W cand = x == t ? w_e : alg_.combine(tree.weights[x], w_e);
    if (alg_.is_phi(cand)) return false;
    if (!tree.has_weight(y)) return true;  // y may become reachable/better
    return !alg_.less(tree.weights[y], cand);  // cand ties or beats
  }

  // Does tree t need recomputing after edge e (endpoints ea/eb) moved to
  // new_w (φ = down)? Exact for downs of unused edges (a tree avoiding e
  // is bitwise invariant under its removal); conservative on ties
  // otherwise, which recomputation resolves exactly.
  bool tree_dirty(NodeId t, EdgeId e, NodeId ea, NodeId eb,
                  const W& new_w) const {
    const PathTree<W>& tree = trees_[t];
    if (ea != t && tree.parent_edge[ea] == e) return true;  // e in tree t
    if (eb != t && tree.parent_edge[eb] == e) return true;
    if (alg_.is_phi(new_w)) return false;  // down + unused: invariant
    return candidate_matters(tree, t, ea, eb, new_w) ||
           candidate_matters(tree, t, eb, ea, new_w);
  }

  // Did l's row at u change in a way landmark_better can observe?
  // (parent/parent_edge are included so the port-bearing consumers can
  // share the same predicate — conservative for assignment, exact cost.)
  bool row_changed(const PathTree<W>& before, const PathTree<W>& after,
                   NodeId u) const {
    if (before.has_weight(u) != after.has_weight(u)) return true;
    if (before.parent[u] != after.parent[u]) return true;
    if (before.parent_edge[u] != after.parent_edge[u]) return true;
    if (before.hops[u] != after.hops[u]) return true;
    return before.has_weight(u) &&
           !order_equal(alg_, before.weights[u], after.weights[u]);
  }

  // Merge freshly computed entries for the ascending target list `patch`
  // into u's sorted flat table; entries for targets outside `patch` are
  // byte-identical by construction and stream through untouched. Returns
  // whether any entry actually changed (added, dropped, or re-ported), so
  // apply_event emits FIB row patches only for rows that moved.
  bool patch_table(NodeId u, const std::vector<NodeId>& patch,
                   const BallRadii& radius) {
    auto& table = tables_[u];
    std::vector<std::pair<NodeId, Port>> merged;
    merged.reserve(table.size() + patch.size());
    bool changed = false;
    std::size_t ti = 0;
    for (NodeId v : patch) {
      while (ti < table.size() && table[ti].first < v) {
        merged.push_back(table[ti++]);
      }
      bool had = false;
      Port old_p = kInvalidPort;
      if (ti < table.size() && table[ti].first == v) {  // drop stale
        had = true;
        old_p = table[ti].second;
        ++ti;
      }
      Port p;
      const bool has = entry_port(u, v, radius, &p);
      if (has) merged.emplace_back(v, p);
      if (has != had || (has && p != old_p)) changed = true;
    }
    while (ti < table.size()) merged.push_back(table[ti++]);
    table = std::move(merged);
    return changed;
  }

  void recompute_until_stable() {
    const std::size_t n = graph_->node_count();
    for (int round = 0;; ++round) {
      assign_landmarks();
      refresh_cluster_sizes(ball_radii());
      // Ordered promotion reduction on the calling thread.
      bool promoted = false;
      for (NodeId u = 0; u < n; ++u) {
        if (!is_landmark_[u] && cluster_sizes_[u] > cluster_cap_) {
          is_landmark_[u] = true;
          ++promoted_landmark_count_;
          promoted = true;
        }
      }
      if (!promoted) break;
    }
  }

  // Streaming construction (CowenOptions::Construction::kStreaming). The
  // memory-bound phases of the materialized path — all_pairs_trees and
  // the Θ(n²) ball/cluster scans over it — are replaced by:
  //
  //   1. Full SSSP trees for *landmarks only*, swept in fixed-size
  //      batches (bounding resident trees to `batch`) and folded into a
  //      per-node nearest-landmark record. The fold implements exactly
  //      landmark_better's tie-break (reachability, ⪯, hops, id); its
  //      argmin is unique under that strict order, so folding promoted
  //      landmarks after the initial sample — any order at all — yields
  //      the same assignment nearest_landmark's ascending scan does.
  //      Only the parent arrays are retained (Θ(n·|L|), the same order
  //      as the tables they feed): they carry the landmark-entry ports
  //      and the port-at-landmark labels. Weights/hops die with the
  //      batch once folded.
  //
  //   2. Per-source truncated Dijkstras (truncated_ball, dijkstra.hpp)
  //      that stop at the source's nearest-landmark radius and hence
  //      enumerate exactly its ball. Ball membership of u in B(v) is an
  //      order-level predicate, so testing it at d(v,u) — what the
  //      truncated run measures — instead of the materialized path's
  //      d(u,v) changes nothing: with an undirected graph and the
  //      commutative combine the per-root trees already rely on, the
  //      two are order-equal. Cluster sizes accumulate through relaxed
  //      atomic increments — a commutative integer sum, so the counts
  //      are thread-count-independent — and promotion stays the same
  //      ordered scan on the calling thread.
  //
  //   3. After the landmark set stabilizes, one more ball sweep emits
  //      (member u, source v, port) triples into per-block buffers whose
  //      concatenation order is fixed (blocks are indexed, sources
  //      ascending within a block, settle order deterministic); a
  //      counting sort by member — sized exactly by the final cluster
  //      counts — then a per-member sort by source and a merge with the
  //      ascending landmark entries reproduce fill_table's flat tables
  //      byte for byte.
  //
  // Equivalence with the materialized oracle at 1 and 8 threads is
  // pinned by tests/test_cowen_streaming.cpp.
  void build_streaming(const EdgeMap<W>& w, bool materialize_tables,
                       std::size_t batch) {
    constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
    const std::size_t n = graph_->node_count();

    // CSR-slot-aligned weights, shared read-only by every sweep (same
    // gather all_pairs_trees does); landmark trees go through tree_into,
    // truncated balls read the slots directly.
    const SlotWeights<W> slots = gather_slot_weights(alg_, csr_, w);
    const auto slot_weight = [this, &slots](NodeId u, std::size_t port,
                                            const Graph::Adjacency&)
        -> const W& { return slots.w[csr_.row_begin(u) + port]; };

    // Per-node nearest-landmark fold state; `weight` is bit-identical to
    // the materialized radius (both copy the landmark tree's row).
    std::vector<std::uint8_t> best_has(n, 0);
    std::vector<W> best_w(n, alg_.phi());
    std::vector<std::uint32_t> best_hops(n, 0);
    std::vector<NodeId> best_id(n, kInvalidNode);
    const auto fold = [&](NodeId u, NodeId l, const PathTree<W>& t) {
      const bool has = t.has_weight(u);
      bool take;
      if (best_id[u] == kInvalidNode) {
        take = true;
      } else if (has != (best_has[u] != 0)) {
        take = has;
      } else if (!has) {
        take = l < best_id[u];
      } else if (alg_.less(t.weights[u], best_w[u])) {
        take = true;
      } else if (alg_.less(best_w[u], t.weights[u])) {
        take = false;
      } else if (t.hops[u] != best_hops[u]) {
        take = t.hops[u] < best_hops[u];
      } else {
        take = l < best_id[u];
      }
      if (take) {
        best_has[u] = has ? 1 : 0;
        best_w[u] = t.weights[u];
        best_hops[u] = t.hops[u];
        best_id[u] = l;
      }
    };

    // Retained landmark parent arrays (materialize_tables mode), indexed
    // by insertion order through landmark_slot.
    std::vector<std::vector<NodeId>> landmark_parent;
    std::vector<std::uint32_t> landmark_slot(n, kNoSlot);
    std::vector<PathTree<W>> batch_trees;
    const auto sweep_landmarks = [&](const std::vector<NodeId>& fresh) {
      for (std::size_t b0 = 0; b0 < fresh.size(); b0 += batch) {
        const std::size_t b1 = std::min(fresh.size(), b0 + batch);
        batch_trees.resize(b1 - b0);
        parallel_for(*pool_, 0, b1 - b0, [&](std::size_t i) {
          detail::tree_into(alg_, csr_, slots, fresh[b0 + i], batch_trees[i]);
        });
        parallel_for(
            *pool_, 0, n,
            [&](std::size_t ui) {
              const NodeId u = static_cast<NodeId>(ui);
              for (std::size_t i = 0; i < b1 - b0; ++i) {
                if (u == fresh[b0 + i]) continue;
                fold(u, fresh[b0 + i], batch_trees[i]);
              }
            },
            /*grain=*/256);
        if (materialize_tables) {
          for (std::size_t i = 0; i < b1 - b0; ++i) {
            landmark_slot[fresh[b0 + i]] =
                static_cast<std::uint32_t>(landmark_parent.size());
            landmark_parent.push_back(std::move(batch_trees[i].parent));
          }
        }
      }
    };

    // One counting/emitting pass over every eligible source's ball. The
    // visitor sees (member, member's parent toward the source).
    const auto for_each_ball = [&](auto&& visit_source_member,
                                   std::size_t grain) {
      parallel_for(
          *pool_, 0, n,
          [&](std::size_t vi) {
            const NodeId v = static_cast<NodeId>(vi);
            // Mirrors ball_radii: landmarks carry no ball, nor do nodes
            // no landmark reaches.
            if (is_landmark_[v]) return;
            if (best_id[v] == kInvalidNode || !best_has[v]) return;
            auto& scratch = detail::ball_scratch<W>();
            truncated_ball(alg_, csr_, v, best_w[v], strict_balls_, scratch,
                           slot_weight,
                           [&](NodeId u, NodeId parent, const W&,
                               std::uint32_t) {
                             visit_source_member(v, u, parent);
                           });
          },
          grain);
    };

    // Promotion rounds, mirroring recompute_until_stable: fold fresh
    // landmark trees → assignment → ball sweep for cluster counts →
    // ordered promotion scan.
    std::vector<NodeId> fresh;
    for (NodeId l = 0; l < n; ++l) {
      if (is_landmark_[l]) fresh.push_back(l);
    }
    std::vector<std::uint32_t> counts(n, 0);
    for (;;) {
      sweep_landmarks(fresh);
      fresh.clear();
      landmark_of_.assign(n, kInvalidNode);
      parallel_for(
          *pool_, 0, n,
          [&](std::size_t u) {
            landmark_of_[u] =
                is_landmark_[u] ? static_cast<NodeId>(u) : best_id[u];
          },
          /*grain=*/512);
      std::fill(counts.begin(), counts.end(), 0);
      for_each_ball(
          [&](NodeId, NodeId u, NodeId) {
            std::atomic_ref<std::uint32_t>(counts[u])
                .fetch_add(1, std::memory_order_relaxed);
          },
          /*grain=*/16);
      bool promoted = false;
      for (NodeId u = 0; u < n; ++u) {
        if (!is_landmark_[u] && counts[u] > cluster_cap_) {
          is_landmark_[u] = true;
          ++promoted_landmark_count_;
          fresh.push_back(u);
          promoted = true;
        }
      }
      if (!promoted) break;
    }
    cluster_sizes_.assign(counts.begin(), counts.end());

    // Final landmark list, ascending — the merge below interleaves these
    // with the (disjoint: only non-landmarks have balls) ball targets.
    std::vector<NodeId> landmarks;
    for (NodeId l = 0; l < n; ++l) {
      if (is_landmark_[l]) landmarks.push_back(l);
    }

    // First hop out of l_v toward v, walking v's parent chain in l_v's
    // tree — compute_port_at_landmark verbatim, against a parent array.
    const auto chain_port = [&](NodeId v, NodeId lv,
                                const std::vector<NodeId>& par) -> Port {
      NodeId x = v;
      while (par[x] != lv) {
        x = par[x];
        if (x == kInvalidNode) break;
      }
      return x != kInvalidNode ? csr_.port_to(lv, x) : kInvalidPort;
    };

    port_at_landmark_.assign(n, kInvalidPort);
    tables_.assign(n, {});
    if (materialize_tables) {
      parallel_for(
          *pool_, 0, n,
          [&](std::size_t vi) {
            const NodeId v = static_cast<NodeId>(vi);
            const NodeId lv = landmark_of_[v];
            if (lv == kInvalidNode || lv == v) return;
            port_at_landmark_[v] =
                chain_port(v, lv, landmark_parent[landmark_slot[lv]]);
          },
          /*grain=*/64);

      // Ball entries: one more sweep, into per-block buffers whose
      // concatenation order is schedule-independent.
      struct BallEntry {
        NodeId owner;
        NodeId target;
        Port port;
      };
      constexpr std::size_t kBlock = 256;
      const std::size_t nblocks = (n + kBlock - 1) / kBlock;
      std::vector<std::vector<BallEntry>> block_entries(nblocks);
      parallel_for(*pool_, 0, nblocks, [&](std::size_t bi) {
        auto& out = block_entries[bi];
        const std::size_t lo = bi * kBlock;
        const std::size_t hi = std::min(n, lo + kBlock);
        for (std::size_t vi = lo; vi < hi; ++vi) {
          const NodeId v = static_cast<NodeId>(vi);
          if (is_landmark_[v]) continue;
          if (best_id[v] == kInvalidNode || !best_has[v]) continue;
          auto& scratch = detail::ball_scratch<W>();
          truncated_ball(alg_, csr_, v, best_w[v], strict_balls_, scratch,
                         slot_weight,
                         [&](NodeId u, NodeId parent, const W&,
                             std::uint32_t) {
                           out.push_back({u, v, csr_.port_to(u, parent)});
                         });
        }
      });

      // Counting sort by owner; the final cluster counts size each
      // owner's segment exactly (same sweep, same members).
      std::vector<std::size_t> offset(n + 1, 0);
      for (std::size_t u = 0; u < n; ++u) {
        offset[u + 1] = offset[u] + cluster_sizes_[u];
      }
      std::vector<std::pair<NodeId, Port>> ball_sorted(offset[n]);
      {
        std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
        for (const auto& blk : block_entries) {
          for (const BallEntry& e : blk) {
            ball_sorted[cursor[e.owner]++] = {e.target, e.port};
          }
        }
      }
      block_entries.clear();
      block_entries.shrink_to_fit();

      // Per-owner: sort the ball segment by target and merge with the
      // ascending landmark entries — the same ascending-target stream
      // fill_table's scan appends.
      parallel_for(
          *pool_, 0, n,
          [&](std::size_t ui) {
            const NodeId u = static_cast<NodeId>(ui);
            const auto seg0 = ball_sorted.begin() + offset[u];
            const auto seg1 = ball_sorted.begin() + offset[u + 1];
            std::sort(seg0, seg1);  // targets unique within a segment
            auto& table = tables_[u];
            table.reserve(static_cast<std::size_t>(seg1 - seg0) +
                          landmarks.size());
            auto it = seg0;
            for (const NodeId l : landmarks) {
              while (it != seg1 && it->first < l) table.push_back(*it++);
              if (l == u) continue;
              const std::vector<NodeId>& par =
                  landmark_parent[landmark_slot[l]];
              if (par[u] == kInvalidNode) continue;  // unreachable
              table.emplace_back(l, csr_.port_to(u, par[u]));
            }
            while (it != seg1) table.push_back(*it++);
          },
          /*grain=*/8);
    } else {
      // Stats-only mode: tables are skipped, but labels stay exact — a
      // second batched landmark sweep recomputes each tree transiently
      // for the port-at-landmark chain walks.
      std::vector<std::uint32_t> in_batch(n, kNoSlot);
      for (std::size_t b0 = 0; b0 < landmarks.size(); b0 += batch) {
        const std::size_t b1 = std::min(landmarks.size(), b0 + batch);
        batch_trees.resize(b1 - b0);
        parallel_for(*pool_, 0, b1 - b0, [&](std::size_t i) {
          detail::tree_into(alg_, csr_, slots, landmarks[b0 + i],
                            batch_trees[i]);
        });
        for (std::size_t i = 0; i < b1 - b0; ++i) {
          in_batch[landmarks[b0 + i]] = static_cast<std::uint32_t>(i);
        }
        parallel_for(
            *pool_, 0, n,
            [&](std::size_t vi) {
              const NodeId v = static_cast<NodeId>(vi);
              const NodeId lv = landmark_of_[v];
              if (lv == kInvalidNode || lv == v) return;
              const std::uint32_t i = in_batch[lv];
              if (i == kNoSlot) return;
              port_at_landmark_[v] = chain_port(v, lv, batch_trees[i].parent);
            },
            /*grain=*/64);
        for (std::size_t i = 0; i < b1 - b0; ++i) {
          in_batch[landmarks[b0 + i]] = kNoSlot;
        }
      }
    }
  }

  // The (target v, port) entry of node u's table, if any: landmarks
  // contribute wherever they are reachable (they carry no ball, so the
  // two entry kinds are disjoint), non-landmarks where u ∈ B(v).
  bool entry_port(NodeId u, NodeId v, const BallRadii& radius,
                  Port* out) const {
    if (v == u) return false;
    if (is_landmark_[v]) {
      if (!trees_[v].reachable(u)) return false;
      *out = csr_.port_to(u, trees_[v].parent[u]);
      return true;
    }
    if (!in_ball(trees_[u], v, radius)) return false;
    if (!trees_[v].reachable(u)) return false;
    *out = csr_.port_to(u, trees_[v].parent[u]);
    return true;
  }

  // One node's table in a single ascending scan over the targets.
  // Scanning targets in id order appends the flat table already sorted —
  // no per-entry allocation, no rebalancing — and the encoded tables stay
  // schedule-independent. Port lookups go through the CSR view.
  void fill_table(NodeId u, const BallRadii& radius) {
    const std::size_t n = graph_->node_count();
    auto& table = tables_[u];
    table.clear();
    for (NodeId v = 0; v < n; ++v) {
      Port p;
      if (entry_port(u, v, radius, &p)) table.emplace_back(v, p);
    }
  }

  // Label ingredient: first hop out of l_v on the preferred l_v→v path,
  // found by walking v's parent chain in tree(l_v).
  Port compute_port_at_landmark(NodeId v) const {
    const NodeId lv = landmark_of_[v];
    if (lv == kInvalidNode || lv == v) return kInvalidPort;
    NodeId x = v;
    while (trees_[lv].parent[x] != lv) {
      x = trees_[lv].parent[x];
      if (x == kInvalidNode) break;
    }
    return x != kInvalidNode ? csr_.port_to(lv, x) : kInvalidPort;
  }

  void build_tables() {
    const std::size_t n = graph_->node_count();
    const auto radius = ball_radii();
    tables_.assign(n, {});
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t i) { fill_table(static_cast<NodeId>(i), radius); },
        /*grain=*/8);
    port_at_landmark_.assign(n, kInvalidPort);
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t i) {
          port_at_landmark_[i] = compute_port_at_landmark(static_cast<NodeId>(i));
        },
        /*grain=*/64);
  }

  const A alg_;
  const Graph* graph_;
  CsrGraph csr_;
  ThreadPool* pool_ = nullptr;
  std::vector<PathTree<W>> trees_;
  std::vector<bool> is_landmark_;
  std::vector<NodeId> landmark_of_;
  std::vector<std::size_t> cluster_sizes_;
  std::vector<std::vector<std::pair<NodeId, Port>>> tables_;
  std::vector<Port> port_at_landmark_;
  std::size_t cluster_cap_ = 0;
  std::size_t initial_landmark_count_ = 0;
  std::size_t promoted_landmark_count_ = 0;
  bool strict_balls_ = true;
};

}  // namespace cpr
