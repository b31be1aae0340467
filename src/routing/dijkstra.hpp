// Generalized Dijkstra (Sobrinho's lexicographic-lightest-path algorithm).
//
// For *regular* algebras — monotone and isotone (Definition 1) — the
// classic greedy settles nodes in non-decreasing weight order and the
// resulting preferred paths from a source form a tree (Proposition 2's
// premise). For non-isotone algebras such as shortest-widest path the
// greedy is unsound; callers must check `properties().regular()` and fall
// back to the exhaustive or specialized solvers. The unit tests include a
// demonstration that running this on SW produces suboptimal answers.
//
// Ties in ⪯ are broken by hop count and then node id, giving a
// deterministic tree without affecting algebraic optimality.
//
// Hot-path layout. The sweep is built for the all-pairs fan-outs the
// schemes run (n sources over one topology):
//   - the frontier is an indexed 4-ary heap with decrease-key
//     (indexed_heap.hpp) instead of a lazy-duplicate priority queue, so
//     each node is pushed/popped once; entries carry their {weight, hops,
//     node} key so sift comparisons never gather from the tree arrays —
//     and for order-keyed algebras (OrderKeyedAlgebra) the whole key
//     packs into one 128-bit integer, making each sift step a single
//     compare;
//   - the result tree stores weights in a flat array plus a reached
//     bitmap instead of std::optional<W> per node, halving the memory the
//     O(n²) scheme scans walk;
//   - the heap's buffers live in a per-thread scratch slot and are reused
//     across runs on the same worker (ThreadPool workers are long-lived),
//     so a sweep allocates only its output trees;
//   - the algorithm is generic over GraphTopology: pass the CsrGraph
//     snapshot (all_pairs_trees does this internally) to read adjacency
//     from packed rows.
//
// Unit-weight lane. When every non-φ edge of a sweep carries the same
// weight c and the algebra is monotone, detail::tree_into replaces the
// heap with a breadth-first search (detail::bfs_tree) whose PathTree is
// byte-identical to the heap's. The proof:
//   1. Every weight the heap records is a left fold W_1 = c,
//      W_k = W_{k-1} ⊕ c: the source relaxes with the slot weight
//      itself, every later relaxation with weights[u] ⊕ slot. So a
//      recorded weight is a function of the recorded hop count alone.
//   2. The monotone flag says w1 ⪯ w2 ⊕ w1: it covers the accumulated
//      weight on the *right* of ⊕, while the fold puts it on the left.
//      The commutative combine that the per-root trees already assume
//      (a tree rooted at t encodes every path *to* t) swaps the sides, so
//      W_{k-1} ⪯ c ⊕ W_{k-1} = W_k and the chain W_1 ⪯ W_2 ⪯ … never
//      improves. Algebras flagged right_associative_only (BGP) make no
//      such promise and stay on the heap.
//   3. Hence (W_a, a, x) settles before (W_b, b, y) exactly when
//      (a, x) < (b, y): a < b gives W_a ⪯ W_b, so the weight either
//      decides for a or ties and the hop count does. Likewise a
//      candidate "improves" (strictly better weight, or order-equal
//      weight and fewer hops) exactly when it has fewer hops. The heap is
//      a breadth-first search that settles layer by layer, ascending id
//      within a layer, and each node keeps the parent that first reached
//      it: the lowest-id node of the previous layer adjacent to it.
//      Graph::add_edge forbids parallel edges, so that parent's port, and
//      hence parent_edge, is unique.
//   4. φ edges never relax (w ⊕ φ = φ), and once W_k is φ (a
//      CappedAlgebra budget) every longer fold is φ too, so both kernels
//      stop at the same layer.
// The lane is picked from the weights and the algebra's flags alone
// (gather_slot_weights); there is no switch, and the heap remains the
// only lane for non-uniform weights. tests/test_dijkstra.cpp compares
// the two kernels field by field.
#pragma once

#include "algebra/algebra.hpp"
#include "graph/csr_graph.hpp"
#include "routing/indexed_heap.hpp"
#include "routing/path.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <bit>
#include <concepts>
#include <optional>
#include <utility>
#include <vector>

namespace cpr {

template <typename W>
struct PathTree;

// Optional-like view of one node's weight in a PathTree; what
// `tree.weight(v)` returns now that the storage is a flat array + bitmap
// rather than std::optional<W>. Valid as long as the tree is alive.
template <typename W>
class PathWeightRef {
 public:
  PathWeightRef(const PathTree<W>* tree, NodeId v) : tree_(tree), v_(v) {}

  bool has_value() const { return tree_->has_weight(v_); }
  explicit operator bool() const { return has_value(); }
  const W& operator*() const { return tree_->weights[v_]; }
  const W* operator->() const { return &tree_->weights[v_]; }
  const W& value() const { return tree_->weights[v_]; }

 private:
  const PathTree<W>* tree_;
  NodeId v_;
};

// Preferred-path tree rooted at `source`: parent pointers lead back toward
// the source; weight(v) is the weight of the preferred source→v path
// (absent: unreachable or v == source, where the empty path has no
// weight). Weights live in a flat `weights` array whose entries are
// meaningful only where the `reached` bitmap is set (unreached slots hold
// the φ fill value); `weight(v)` wraps the pair in an optional-like view.
template <typename W>
struct PathTree {
  NodeId source = kInvalidNode;
  std::vector<NodeId> parent;
  std::vector<EdgeId> parent_edge;
  std::vector<W> weights;            // flat; meaningful iff has_weight(v)
  std::vector<std::uint32_t> hops;
  std::vector<std::uint64_t> reached;  // bitmap over non-source reached nodes

  // Sizes every array for n nodes and clears previous state; `fill` (the
  // algebra's φ) pads the unreached weight slots.
  void reset(std::size_t n, NodeId src, const W& fill) {
    source = src;
    parent.assign(n, kInvalidNode);
    parent_edge.assign(n, kInvalidEdge);
    weights.assign(n, fill);
    hops.assign(n, 0);
    reached.assign((n + 63) / 64, 0);
    parent[src] = src;
  }

  // v was reached on a non-empty path (true for every node but the source
  // in a connected component).
  bool has_weight(NodeId v) const {
    return (reached[v >> 6] >> (v & 63)) & 1;
  }
  bool reachable(NodeId v) const { return v == source || has_weight(v); }

  // The weight slot itself; caller must have checked has_weight(v).
  const W& weight_at(NodeId v) const { return weights[v]; }

  // Optional-like view (has_value / * / ->) of v's weight.
  PathWeightRef<W> weight(NodeId v) const { return {this, v}; }

  // Installs/overwrites v's tentative entry.
  void record(NodeId v, NodeId from, EdgeId via, W w, std::uint32_t h) {
    parent[v] = from;
    parent_edge[v] = via;
    weights[v] = std::move(w);
    hops[v] = h;
    reached[v >> 6] |= std::uint64_t{1} << (v & 63);
  }

  // The source→v node sequence (empty if unreachable).
  NodePath extract_path(NodeId v) const {
    if (!reachable(v)) return {};
    NodePath p;
    for (NodeId x = v; x != source; x = parent[x]) p.push_back(x);
    p.push_back(source);
    std::reverse(p.begin(), p.end());
    return p;
  }
};

namespace detail {

// Per-thread scratch heap for weight type W: ThreadPool workers (and the
// calling thread) are long-lived, so the frontier buffers of repeated
// single-source runs are reused instead of reallocated. State never leaks
// across runs — every sweep starts with reset(n) — so results are
// independent of which worker executes which source (pinned by the
// determinism tests).
template <typename W>
inline IndexedDaryHeap<W>& dijkstra_scratch_heap() {
  thread_local IndexedDaryHeap<W> heap;
  return heap;
}

inline KeyedDaryHeap& dijkstra_scratch_keyed_heap() {
  thread_local KeyedDaryHeap heap;
  return heap;
}

// The sweep itself, generic over how an out-edge's weight is fetched:
// `weight_at(u, p, adj)` returns the weight of port p's edge at u. The
// EdgeMap entry points pass w[adj.edge]; all_pairs_trees instead passes a
// CSR-slot-aligned copy so the inner loop streams neighbor and weight
// from parallel arrays rather than dereferencing a random edge id per
// relaxation.
template <RoutingAlgebra A, GraphTopology G, typename WeightAt>
void dijkstra_run(const A& alg, const G& g, NodeId source,
                  PathTree<typename A::Weight>& tree,
                  IndexedDaryHeap<typename A::Weight>& heap,
                  const WeightAt& weight_at) {
  using W = typename A::Weight;
  using Entry = typename IndexedDaryHeap<W>::Entry;
  const std::size_t n = g.node_count();
  tree.reset(n, source, alg.phi());
  heap.reset(n);

  // Strict "a settles before b" order: algebra preference, then hop
  // count, then node id — identical to the lazy-queue tie-break. Entries
  // carry the whole key, so sift comparisons stay inside the heap array.
  const auto better = [&alg](const Entry& a, const Entry& b) {
    if (alg.less(a.weight, b.weight)) return true;
    if (alg.less(b.weight, a.weight)) return false;
    if (a.hops != b.hops) return a.hops < b.hops;
    return a.node < b.node;
  };

  const auto relax = [&](NodeId from, const Graph::Adjacency& adj, W cand,
                         std::uint32_t hops) {
    const NodeId v = adj.neighbor;
    if (heap.settled(v)) return;  // includes the source
    if (alg.is_phi(cand)) return;
    if (heap.never_seen(v)) {
      heap.push(Entry{cand, hops, v}, better);
      tree.record(v, from, adj.edge, std::move(cand), hops);
      return;
    }
    const bool improves =
        alg.less(cand, tree.weights[v]) ||
        (order_equal(alg, cand, tree.weights[v]) && hops < tree.hops[v]);
    if (improves) {
      heap.update(Entry{cand, hops, v}, better);  // decrease-key
      tree.record(v, from, adj.edge, std::move(cand), hops);
    }
  };

  heap.mark_settled(source);
  {
    const auto row = g.neighbors(source);
    for (std::size_t p = 0; p < row.size(); ++p) {
      relax(source, row[p], weight_at(source, p, row[p]), 1);
    }
  }
  while (!heap.empty()) {
    const Entry top = heap.pop(better);
    const std::uint32_t hu = top.hops + 1;
    const auto row = g.neighbors(top.node);
    for (std::size_t p = 0; p < row.size(); ++p) {
      relax(top.node, row[p], alg.combine(top.weight, weight_at(top.node, p, row[p])),
            hu);
    }
  }
}

// Same sweep over the flat-key frontier: for order-keyed algebras the
// settle-order tuple lives in one 128-bit integer (KeyedDaryHeap), the
// relax decisions are unchanged, and the popped key hands back node, hops
// and (via the exact inverse embedding) the weight. Settles in exactly
// the same order as dijkstra_run — pinned by the differential tests.
template <OrderKeyedAlgebra A, GraphTopology G, typename WeightAt>
void dijkstra_run_keyed(const A& alg, const G& g, NodeId source,
                        PathTree<typename A::Weight>& tree,
                        KeyedDaryHeap& heap, const WeightAt& weight_at) {
  using W = typename A::Weight;
  const std::size_t n = g.node_count();
  tree.reset(n, source, alg.phi());
  heap.reset(n);

  const auto relax = [&](NodeId from, const Graph::Adjacency& adj, W cand,
                         std::uint32_t hops) {
    const NodeId v = adj.neighbor;
    if (heap.settled(v)) return;  // includes the source
    if (alg.is_phi(cand)) return;
    if (heap.never_seen(v)) {
      heap.push(KeyedDaryHeap::make_key(alg.order_key(cand), hops, v));
      tree.record(v, from, adj.edge, std::move(cand), hops);
      return;
    }
    const bool improves =
        alg.less(cand, tree.weights[v]) ||
        (order_equal(alg, cand, tree.weights[v]) && hops < tree.hops[v]);
    if (improves) {
      heap.update(KeyedDaryHeap::make_key(alg.order_key(cand), hops, v));
      tree.record(v, from, adj.edge, std::move(cand), hops);
    }
  };

  heap.mark_settled(source);
  {
    const auto row = g.neighbors(source);
    for (std::size_t p = 0; p < row.size(); ++p) {
      relax(source, row[p], weight_at(source, p, row[p]), 1);
    }
  }
  while (!heap.empty()) {
    const KeyedDaryHeap::Key top = heap.pop();
    const NodeId u = KeyedDaryHeap::node_of(top);
    const W wu = alg.weight_from_order_key(KeyedDaryHeap::order_of(top));
    const std::uint32_t hu = KeyedDaryHeap::hops_of(top) + 1;
    const auto row = g.neighbors(u);
    for (std::size_t p = 0; p < row.size(); ++p) {
      relax(u, row[p], alg.combine(wu, weight_at(u, p, row[p])), hu);
    }
  }
}

// Picks the frontier for the algebra — flat 128-bit keys when the order
// embeds, the generic comparator heap otherwise — using the calling
// thread's scratch buffers.
template <RoutingAlgebra A, GraphTopology G, typename WeightAt>
void dijkstra_dispatch(const A& alg, const G& g, NodeId source,
                       PathTree<typename A::Weight>& tree,
                       const WeightAt& weight_at) {
  if constexpr (OrderKeyedAlgebra<A>) {
    dijkstra_run_keyed(alg, g, source, tree, dijkstra_scratch_keyed_heap(),
                       weight_at);
  } else {
    dijkstra_run(alg, g, source, tree,
                 dijkstra_scratch_heap<typename A::Weight>(), weight_at);
  }
}

}  // namespace detail

// Reusable scratch for repeated truncated-ball runs (truncated_ball
// below). The arrays are sized once per n and never cleared between
// runs: tentative weights/hops/parents are only ever read for nodes the
// current run has already pushed (the heap's never-seen state gates
// every access), and the heap itself uses the sparse prepare()/forget()
// pair driven by the `touched` list. A full per-source clear would cost
// O(n) — across a sweep of n sources that is O(n²) of memset, more than
// the truncated searches themselves.
template <typename W>
struct BallScratch {
  IndexedDaryHeap<W> heap;
  KeyedDaryHeap keyed_heap;
  std::vector<NodeId> parent;
  std::vector<W> weights;
  std::vector<std::uint32_t> hops;
  std::vector<NodeId> touched;

  void ensure(std::size_t n, const W& fill) {
    if (parent.size() != n) {
      parent.assign(n, kInvalidNode);
      weights.assign(n, fill);
      hops.assign(n, 0);
    }
  }
};

namespace detail {

// Per-thread truncated-ball scratch, sibling of dijkstra_scratch_heap.
template <typename W>
inline BallScratch<W>& ball_scratch() {
  thread_local BallScratch<W> scratch;
  return scratch;
}

// Truncated Dijkstra from `source`: settles exactly the ball
//     { u : d(source, u) ≺ limit }        (strict)
//     { u : d(source, u) ⪯ limit }        (non-strict)
// and calls visit(u, parent_of_u, weight, hops) at each settle, in
// settle order. Exactness rests on two facts. First, Dijkstra settles in
// non-decreasing ⪯ order, so the ball predicate is monotone over the
// settle sequence: every in-ball entry pops before any out-of-ball entry
// (a ≺/⪯ limit and ¬(b ≺/⪯ limit) imply a ≺ b in the total preorder).
// Second, candidates failing the predicate are pruned at relax time
// without affecting members: a member's final order class passes the
// predicate, so every candidate of that class — including the ones the
// hop/id tie-breaks choose between — survives pruning, and the relax
// sequence restricted to members is identical to the full run's. Hence
// visited members, their parents, weights and hops are bit-identical to
// the corresponding rows of the full tree dijkstra would build, which is
// what lets CowenScheme's streaming construction reproduce the
// materialized tables exactly (tests/test_cowen_streaming.cpp).
template <RoutingAlgebra A, GraphTopology G, typename WeightAt,
          typename Visit>
void truncated_ball_run(const A& alg, const G& g, NodeId source,
                        const typename A::Weight& limit, bool strict,
                        BallScratch<typename A::Weight>& scratch,
                        const WeightAt& weight_at, const Visit& visit) {
  using W = typename A::Weight;
  using Entry = typename IndexedDaryHeap<W>::Entry;
  const std::size_t n = g.node_count();
  scratch.ensure(n, alg.phi());
  auto& heap = scratch.heap;
  heap.prepare(n);

  const auto better = [&alg](const Entry& a, const Entry& b) {
    if (alg.less(a.weight, b.weight)) return true;
    if (alg.less(b.weight, a.weight)) return false;
    if (a.hops != b.hops) return a.hops < b.hops;
    return a.node < b.node;
  };

  const auto relax = [&](NodeId from, const Graph::Adjacency& adj, W cand,
                         std::uint32_t hops) {
    const NodeId v = adj.neighbor;
    if (heap.settled(v)) return;
    if (alg.is_phi(cand)) return;
    // Ball cutoff: a candidate outside the predicate can never become a
    // member (any later improvement arrives through a settled member and
    // is re-offered then), so pruning here keeps the frontier at the
    // ball boundary instead of one full expansion ring beyond it.
    if (!(strict ? alg.less(cand, limit) : leq(alg, cand, limit))) return;
    if (heap.never_seen(v)) {
      scratch.touched.push_back(v);
      heap.push(Entry{cand, hops, v}, better);
      scratch.parent[v] = from;
      scratch.weights[v] = std::move(cand);
      scratch.hops[v] = hops;
      return;
    }
    const bool improves =
        alg.less(cand, scratch.weights[v]) ||
        (order_equal(alg, cand, scratch.weights[v]) &&
         hops < scratch.hops[v]);
    if (improves) {
      heap.update(Entry{cand, hops, v}, better);
      scratch.parent[v] = from;
      scratch.weights[v] = std::move(cand);
      scratch.hops[v] = hops;
    }
  };

  heap.mark_settled(source);
  scratch.touched.push_back(source);
  {
    const auto row = g.neighbors(source);
    for (std::size_t p = 0; p < row.size(); ++p) {
      relax(source, row[p], weight_at(source, p, row[p]), 1);
    }
  }
  while (!heap.empty()) {
    const Entry top = heap.pop(better);
    visit(top.node, scratch.parent[top.node], top.weight, top.hops);
    const std::uint32_t hu = top.hops + 1;
    const auto row = g.neighbors(top.node);
    for (std::size_t p = 0; p < row.size(); ++p) {
      relax(top.node, row[p],
            alg.combine(top.weight, weight_at(top.node, p, row[p])), hu);
    }
  }
  for (const NodeId v : scratch.touched) heap.forget(v);
  scratch.touched.clear();
}

// Flat-key sibling (mirrors dijkstra_run_keyed): same pruning, same
// settle order, weight recovered from the popped 128-bit key.
template <OrderKeyedAlgebra A, GraphTopology G, typename WeightAt,
          typename Visit>
void truncated_ball_run_keyed(const A& alg, const G& g, NodeId source,
                              const typename A::Weight& limit, bool strict,
                              BallScratch<typename A::Weight>& scratch,
                              const WeightAt& weight_at, const Visit& visit) {
  using W = typename A::Weight;
  const std::size_t n = g.node_count();
  scratch.ensure(n, alg.phi());
  auto& heap = scratch.keyed_heap;
  heap.prepare(n);

  const auto relax = [&](NodeId from, const Graph::Adjacency& adj, W cand,
                         std::uint32_t hops) {
    const NodeId v = adj.neighbor;
    if (heap.settled(v)) return;
    if (alg.is_phi(cand)) return;
    if (!(strict ? alg.less(cand, limit) : leq(alg, cand, limit))) return;
    if (heap.never_seen(v)) {
      scratch.touched.push_back(v);
      heap.push(KeyedDaryHeap::make_key(alg.order_key(cand), hops, v));
      scratch.parent[v] = from;
      scratch.weights[v] = std::move(cand);
      scratch.hops[v] = hops;
      return;
    }
    const bool improves =
        alg.less(cand, scratch.weights[v]) ||
        (order_equal(alg, cand, scratch.weights[v]) &&
         hops < scratch.hops[v]);
    if (improves) {
      heap.update(KeyedDaryHeap::make_key(alg.order_key(cand), hops, v));
      scratch.parent[v] = from;
      scratch.weights[v] = std::move(cand);
      scratch.hops[v] = hops;
    }
  };

  heap.mark_settled(source);
  scratch.touched.push_back(source);
  {
    const auto row = g.neighbors(source);
    for (std::size_t p = 0; p < row.size(); ++p) {
      relax(source, row[p], weight_at(source, p, row[p]), 1);
    }
  }
  while (!heap.empty()) {
    const KeyedDaryHeap::Key top = heap.pop();
    const NodeId u = KeyedDaryHeap::node_of(top);
    const W wu = alg.weight_from_order_key(KeyedDaryHeap::order_of(top));
    visit(u, scratch.parent[u], wu, KeyedDaryHeap::hops_of(top));
    const std::uint32_t hu = KeyedDaryHeap::hops_of(top) + 1;
    const auto row = g.neighbors(u);
    for (std::size_t p = 0; p < row.size(); ++p) {
      relax(u, row[p], alg.combine(wu, weight_at(u, p, row[p])), hu);
    }
  }
  for (const NodeId v : scratch.touched) heap.forget(v);
  scratch.touched.clear();
}

}  // namespace detail

// Dispatching entry point for one truncated-ball enumeration; see
// truncated_ball_run. `weight_at` follows dijkstra_dispatch's contract.
template <RoutingAlgebra A, GraphTopology G, typename WeightAt,
          typename Visit>
void truncated_ball(const A& alg, const G& g, NodeId source,
                    const typename A::Weight& limit, bool strict,
                    BallScratch<typename A::Weight>& scratch,
                    const WeightAt& weight_at, const Visit& visit) {
  if constexpr (OrderKeyedAlgebra<A>) {
    detail::truncated_ball_run_keyed(alg, g, source, limit, strict, scratch,
                                     weight_at, visit);
  } else {
    detail::truncated_ball_run(alg, g, source, limit, strict, scratch,
                               weight_at, visit);
  }
}

// Edge weights gathered into CSR slot order for a batch of sweeps, plus
// the unit-weight lane's trigger. Every run of the batch then reads the
// weight of port p at u from the slot next to the adjacency record it is
// scanning (w[g.row_begin(u) + p]) instead of chasing w[edge] at a random
// index per relaxation. `uniform` holds the one weight every non-φ slot
// carries when the algebra is monotone (and commutative), i.e. exactly
// when detail::bfs_tree reproduces the heap (see the header comment);
// it is empty otherwise, and also when no slot is traversable.
template <typename W>
struct SlotWeights {
  std::vector<W> w;
  std::optional<W> uniform;
};

template <RoutingAlgebra A>
SlotWeights<typename A::Weight> gather_slot_weights(
    const A& alg, const CsrGraph& g, const EdgeMap<typename A::Weight>& w) {
  using W = typename A::Weight;
  SlotWeights<W> slots;
  slots.w.reserve(2 * g.edge_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const auto& adj : g.neighbors(v)) slots.w.push_back(w[adj.edge]);
  }
  if constexpr (std::equality_comparable<W>) {
    const AlgebraProperties props = alg.properties();
    if (!props.monotone || props.right_associative_only) return slots;
    const W* first = nullptr;
    for (const W& x : slots.w) {
      if (alg.is_phi(x)) continue;
      if (first == nullptr) {
        first = &x;
      } else if (!(x == *first)) {
        return slots;
      }
    }
    if (first != nullptr) slots.uniform = *first;
  }
  return slots;
}

namespace detail {

// Per-thread BFS buffers, reused across runs like the heap scratch. The
// bitmap is all-zero between runs (each dense layer clears the words it
// scans), so a run pays only for the layers it touches.
struct BfsScratch {
  std::vector<std::uint64_t> bits;  // next layer as an n-bit set
  std::vector<NodeId> layer;        // current layer, ascending id
  std::vector<NodeId> next;         // next layer, discovery order
};

inline BfsScratch& bfs_scratch() {
  thread_local BfsScratch scratch;
  return scratch;
}

// The unit-weight lane: a top-down breadth-first search over the slot
// weights `slot_w`, every non-φ entry of which equals `c`. Produces the
// PathTree dijkstra_dispatch would (proof in the header comment) for a
// monotone commutative algebra. Layers are visited in ascending id, so
// the first node to reach v — tree.reached doubles as the visited set —
// is the lowest-id adjacent node of the previous layer, the heap's
// parent. Each node of layer h records W_h = W_{h-1} ⊕ c, which is
// combine(weights[u], slot) for any parent u, as the heap computes it
// (layer 1 records the slot weight itself); the search stops at the first
// layer whose weight is φ. The next layer is put in id order either by
// sorting it (sparse layers, a few ids against n/64 bitmap words) or by
// setting it in an n-bit bitmap and scanning that in id order (dense
// layers), so long-diameter graphs do not pay n/64 words per layer.
template <RoutingAlgebra A>
void bfs_tree(const A& alg, const CsrGraph& g,
              const std::vector<typename A::Weight>& slot_w,
              const typename A::Weight& c, NodeId source,
              PathTree<typename A::Weight>& tree) {
  using W = typename A::Weight;
  const std::size_t n = g.node_count();
  tree.reset(n, source, alg.phi());
  BfsScratch& s = bfs_scratch();
  const std::size_t words = (n + 63) / 64;
  if (s.bits.size() < words) s.bits.resize(words, 0);
  std::vector<std::uint64_t>& seen = tree.reached;
  const auto bit = [](NodeId v) { return std::uint64_t{1} << (v & 63); };

  seen[source >> 6] |= bit(source);  // visited, but not a reached node
  s.layer.assign(1, source);
  W layer_w = c;
  for (std::uint32_t h = 1; !s.layer.empty(); ++h) {
    if (h > 1) layer_w = alg.combine(layer_w, c);
    if (alg.is_phi(layer_w)) break;
    s.next.clear();
    for (const NodeId u : s.layer) {
      const std::size_t base = g.row_begin(u);
      const auto row = g.neighbors(u);
      for (std::size_t p = 0; p < row.size(); ++p) {
        const NodeId v = row[p].neighbor;
        if ((seen[v >> 6] & bit(v)) || alg.is_phi(slot_w[base + p])) continue;
        tree.record(v, u, row[p].edge, layer_w, h);
        s.next.push_back(v);
      }
    }
    const std::size_t k = s.next.size();
    if (k * std::bit_width(k) < words) {
      std::sort(s.next.begin(), s.next.end());
    } else {
      for (const NodeId v : s.next) s.bits[v >> 6] |= bit(v);
      s.next.clear();
      for (std::size_t i = 0; i < words; ++i) {
        for (std::uint64_t m = s.bits[i]; m != 0; m &= m - 1) {
          s.next.push_back(static_cast<NodeId>(64 * i + std::countr_zero(m)));
        }
        s.bits[i] = 0;
      }
    }
    std::swap(s.layer, s.next);
  }
  seen[source >> 6] &= ~bit(source);
}

// One preferred-path tree over gathered slot weights: the BFS kernel when
// the gather found a uniform weight, the keyed or generic heap otherwise.
template <RoutingAlgebra A>
void tree_into(const A& alg, const CsrGraph& g,
               const SlotWeights<typename A::Weight>& slots, NodeId source,
               PathTree<typename A::Weight>& tree) {
  using W = typename A::Weight;
  if (slots.uniform) {
    bfs_tree(alg, g, slots.w, *slots.uniform, source, tree);
    return;
  }
  dijkstra_dispatch(alg, g, source, tree,
                    [&slots, &g](NodeId u, std::size_t port,
                                 const Graph::Adjacency&) -> const W& {
                      return slots.w[g.row_begin(u) + port];
                    });
}

}  // namespace detail

// Runs the sweep into a caller-provided output tree (scratch frontier
// buffers are per-thread and reused); the building block behind
// `dijkstra` for callers that manage output reuse themselves.
template <RoutingAlgebra A, GraphTopology G>
void dijkstra_into(const A& alg, const G& g,
                   const EdgeMap<typename A::Weight>& w, NodeId source,
                   PathTree<typename A::Weight>& tree) {
  using W = typename A::Weight;
  detail::dijkstra_dispatch(alg, g, source, tree,
                            [&w](NodeId, std::size_t,
                                 const Graph::Adjacency& adj) -> const W& {
                              return w[adj.edge];
                            });
}

template <RoutingAlgebra A, GraphTopology G>
PathTree<typename A::Weight> dijkstra(const A& alg, const G& g,
                                      const EdgeMap<typename A::Weight>& w,
                                      NodeId source) {
  PathTree<typename A::Weight> tree;
  dijkstra_into(alg, g, w, source, tree);
  return tree;
}

// All-source trees (n single-source runs through detail::tree_into, so
// unit-weight sweeps take the BFS lane). In an undirected graph with a
// commutative algebra, the tree rooted at t also encodes every node's
// preferred path *to* t, which is how destination-based routing tables are
// filled (Observation 1). The runs are independent, so they fan out over
// the pool; each root writes only its own pre-sized slot, making the
// result bit-identical to the sequential loop for any thread count. Pass
// nullptr to use the process-global pool.
template <RoutingAlgebra A>
std::vector<PathTree<typename A::Weight>> all_pairs_trees(
    const A& alg, const CsrGraph& g, const EdgeMap<typename A::Weight>& w,
    ThreadPool* pool = nullptr) {
  using W = typename A::Weight;
  ThreadPool& p = pool ? *pool : ThreadPool::global();
  const std::size_t n = g.node_count();
  // Gathered once for the whole batch and shared read-only by the workers.
  const SlotWeights<W> slots = gather_slot_weights(alg, g, w);
  std::vector<PathTree<W>> trees(n);
  parallel_for(p, 0, n, [&](std::size_t s) {
    detail::tree_into(alg, g, slots, static_cast<NodeId>(s), trees[s]);
  });
  return trees;
}

// Graph entry point: snapshots the topology into CSR once (O(n + m),
// negligible next to n sweeps) and fans out over it.
template <RoutingAlgebra A>
std::vector<PathTree<typename A::Weight>> all_pairs_trees(
    const A& alg, const Graph& g, const EdgeMap<typename A::Weight>& w,
    ThreadPool* pool = nullptr) {
  const CsrGraph csr(g);
  return all_pairs_trees(alg, csr, w, pool);
}

}  // namespace cpr
