// Scheme → FlatFib compilation adapters.
//
// Each adapter reads the construction products of a built scheme (DFS
// labelings, resolved tree-edge ports, landmark tables) and flattens
// them into the arena layout of fib/flat_fib.hpp, resolving
// every per-hop lookup the object path performs lazily — port_to calls,
// header construction, light-index scans — at compile time. The
// compiled plane is then served by fib/forward_engine.hpp with
// bit-identical results to the object path (pinned by tests/test_fib.cpp).
//
// Overload set: the concrete routers get non-template overloads (defined
// in compile.cpp); the algebra-templated schemes get constrained
// templates here, matched structurally so evaluate_workload's
// `if constexpr (requires { compile_fib(scheme, g); })` dispatch can
// probe for compilability without a closed kind list. The BGP planes
// compile too (ProviderTreeScheme through the tree-backed template,
// SvfcPeerMeshScheme as the kMesh kind). The destination-table
// baselines (CompressedTableScheme, DestinationTableScheme) have no
// adapter: local_memory_bits already counts them in bits per node, and
// their O(1) object lookup beat the compiled RLE arena, so they route
// on the object path.
//
// MaintainedFib keeps a compiled arena synchronized with a scheme under
// churn: apply_event's FibDelta patches the arena in place when it can
// (slack reserved by FibCompileOptions), and compaction — a full
// recompile — absorbs tree swaps, slack exhaustion and deltas touching
// more than compaction_fraction of the nodes.
#pragma once

#include "fib/fib_delta.hpp"
#include "fib/flat_fib.hpp"
#include "graph/graph.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

namespace cpr {

class TreeRouter;
class IntervalRouter;
class SvfcPeerMeshScheme;

// Per-row slack reserved at compile time so apply_delta can grow a row
// without relayout: capacity(v) = len(v) + row_slack_min +
// floor(row_slack_frac * len(v)). The defaults reserve nothing — a
// static compile carries no slack at all.
struct FibCompileOptions {
  std::uint32_t row_slack_min = 0;
  double row_slack_frac = 0.0;
};

FlatFib compile_fib(const TreeRouter& router, const Graph& g);
FlatFib compile_fib(const IntervalRouter& router, const Graph& g);
// The mesh compiles against the *shadow* graph (scheme.shadow()) — the
// undirected view its ports are expressed in.
FlatFib compile_fib(const SvfcPeerMeshScheme& scheme, const Graph& shadow);

// Narrows a CSR offset or count to the arena's u32 width. A value past
// UINT32_MAX throws std::length_error naming the section, instead of
// wrapping into offsets that index the wrong rows.
inline std::uint32_t fib_u32_offset(std::uint64_t v, const char* section) {
  if (v > UINT32_MAX) {
    throw std::length_error(std::string("compile_fib: ") + section +
                            " exceed the arena's u32 offsets");
  }
  return static_cast<std::uint32_t>(v);
}

// Capacity CSR shared by the Cowen and TZ adapters: row u holds
// len_of(u) live entries plus the options' slack, row_off[u + 1] =
// row_off[u] + len + slack, and row_len carries the live lengths so
// apply_delta can grow or shrink a row inside its capacity without
// relayout. Capacities are summed in u64: the arena stores u32 offsets,
// so a total past UINT32_MAX (n ≈ 10^6 tables with churn slack reach
// it) throws std::length_error here, before a single row slot exists.
template <typename LenOf>
void fib_capacity_csr(std::size_t n, const FibCompileOptions& opt,
                      LenOf&& len_of, std::vector<std::uint32_t>& row_off,
                      std::vector<std::uint32_t>& row_len) {
  row_off.assign(n + 1, 0);
  row_len.assign(n, 0);
  std::uint64_t total = 0;
  for (NodeId u = 0; u < n; ++u) {
    const std::uint64_t len = len_of(u);
    const std::uint64_t slack =
        opt.row_slack_min +
        static_cast<std::uint64_t>(opt.row_slack_frac *
                                   static_cast<double>(len));
    total += len + slack;
    if (total > UINT32_MAX) {
      throw std::length_error(
          "compile_fib: row capacities exceed the arena's u32 offsets");
    }
    row_len[u] = static_cast<std::uint32_t>(len);
    row_off[u + 1] = static_cast<std::uint32_t>(total);
  }
}

// Packs every row of `table_of(u)` — a sorted range of (key, port)
// pairs — into the capacity CSR in Eytzinger order, straight into the
// blob (the slack stays zeroed there). The in-order walk visits ranks
// in increasing order, so one forward pass over the table fills it.
// Shared by the Cowen and TZ adapters; `row_off` and whatever
// `table_of` references must outlive b.finish(), which runs the writer.
template <typename TableOf>
void fib_add_rows(FibBuilder& b, std::size_t n,
                  const std::vector<std::uint32_t>& row_off,
                  TableOf table_of) {
  b.add_section_writer(
      fib_section::kCowenRows, std::size_t{row_off[n]} * 8,
      [n, &row_off, table_of](std::uint8_t* dst) {
        auto* rows = reinterpret_cast<std::uint64_t*>(dst);
        for (NodeId u = 0; u < n; ++u) {
          const auto& table = table_of(u);
          std::uint64_t* row = rows + row_off[u];
          auto it = table.begin();
          fib_eytzinger_inorder(table.size(), [&](std::uint64_t k,
                                                  std::uint64_t) {
            row[k] = fib_pack_entry(it->first, it->second);
            ++it;
          });
        }
      });
}

// Cowen-shaped schemes: anything exposing the landmark-scheme surface
// (sorted flat (target, port) tables plus the landmark label fields).
template <typename S>
  requires requires(const S& s, NodeId v) {
    { s.table(v).size() } -> std::convertible_to<std::size_t>;
    { s.landmark_of(v) } -> std::convertible_to<NodeId>;
    { s.port_at_landmark(v) } -> std::convertible_to<Port>;
  }
FlatFib compile_fib(const S& scheme, const Graph& g,
                    const FibCompileOptions& opt = {}) {
  const std::size_t n = g.node_count();
  std::vector<std::uint32_t> row_off, row_len;
  fib_capacity_csr(
      n, opt, [&](NodeId u) { return scheme.table(u).size(); }, row_off,
      row_len);
  FibBuilder b(FibKind::kCowen, n);
  b.add_topology(g);
  std::vector<std::uint32_t> landmark(n), landmark_port(n);
  for (NodeId v = 0; v < n; ++v) {
    landmark[v] = scheme.landmark_of(v);
    landmark_port[v] = scheme.port_at_landmark(v);
  }
  b.add_array(fib_section::kCowenRowOff, row_off);
  b.add_array(fib_section::kCowenRowLen, std::move(row_len));
  fib_add_rows(b, n, row_off, [&](NodeId u) -> decltype(auto) {
    return scheme.table(u);
  });
  b.add_array(fib_section::kCowenLandmark, std::move(landmark));
  b.add_array(fib_section::kCowenLandmarkPort, std::move(landmark_port));
  return b.finish();
}

// Name-independent label-keyed schemes (TzNameIndependentScheme):
// anything exposing the labeled-table surface. The accessor names are
// deliberately disjoint from the Cowen-shaped constraint above — a TZ
// scheme must *not* also match it, or overload resolution would be
// ambiguous and the label layer could be silently flattened away.
//
// The emitted arena is FibKind::kTz: the Cowen row/landmark sections
// reused with label-space semantics (row entries keyed by target label;
// kCowenLandmark/kCowenLandmarkPort indexed *by label*), plus the two
// label sections — kLabelMap (node → label permutation) and kDictionary
// (the bucketed name → label table, rebuilt here from the label map with
// the shared fib_dict_* helpers so the arena's resolution is
// layout-identical to the scheme's own).
template <typename S>
  requires requires(const S& s, NodeId v, std::uint32_t lbl) {
    { s.labeled_table(v).size() } -> std::convertible_to<std::size_t>;
    { s.label_of_node(v) } -> std::convertible_to<std::uint32_t>;
    { s.landmark_label_at(lbl) } -> std::convertible_to<std::uint32_t>;
    { s.port_at_landmark_at(lbl) } -> std::convertible_to<Port>;
  }
FlatFib compile_fib(const S& scheme, const Graph& g,
                    const FibCompileOptions& opt = {}) {
  const std::size_t n = g.node_count();
  // Same capacity-CSR layout as the Cowen adapter: live length + slack
  // per row, slack zeroed, so apply_delta can grow rows in place.
  std::vector<std::uint32_t> row_off, row_len;
  fib_capacity_csr(
      n, opt, [&](NodeId u) { return scheme.labeled_table(u).size(); },
      row_off, row_len);
  FibBuilder b(FibKind::kTz, n);
  b.add_topology(g);
  // Landmark state indexed by label — the walker resolves a header to a
  // target label and reads these slots with that label directly.
  std::vector<std::uint32_t> landmark(n), landmark_port(n);
  for (std::uint32_t lbl = 0; lbl < n; ++lbl) {
    landmark[lbl] = scheme.landmark_label_at(lbl);
    landmark_port[lbl] = scheme.port_at_landmark_at(lbl);
  }
  std::vector<std::uint32_t> label_of(n);
  for (NodeId v = 0; v < n; ++v) label_of[v] = scheme.label_of_node(v);
  // Dictionary: fixed bucket geometry from the shared sizing helper, one
  // slot of slack past the deepest bucket so kDictionary patches can
  // grow a bucket without relayout. Names are inserted in ascending
  // order, so every bucket's live prefix is already sorted.
  const std::uint64_t bucket_count = fib_dict_bucket_count(n);
  std::vector<std::vector<std::uint64_t>> buckets(bucket_count);
  for (std::uint32_t name = 0; name < n; ++name) {
    buckets[fib_dict_bucket(name, bucket_count)].push_back(
        fib_pack_entry(name, label_of[name]));
  }
  std::uint64_t bucket_cap = 1;
  for (const auto& bkt : buckets) {
    bucket_cap = std::max<std::uint64_t>(bucket_cap, bkt.size() + 1);
  }
  std::vector<std::uint64_t> dict(2 + bucket_count * bucket_cap,
                                  kFibDictEmpty);
  dict[0] = bucket_count;
  dict[1] = bucket_cap;
  for (std::uint64_t bkt = 0; bkt < bucket_count; ++bkt) {
    std::copy(buckets[bkt].begin(), buckets[bkt].end(),
              dict.begin() + 2 + static_cast<std::size_t>(bkt * bucket_cap));
  }
  b.add_array(fib_section::kCowenRowOff, row_off);
  b.add_array(fib_section::kCowenRowLen, std::move(row_len));
  fib_add_rows(b, n, row_off, [&](NodeId u) -> decltype(auto) {
    return scheme.labeled_table(u);
  });
  b.add_array(fib_section::kCowenLandmark, std::move(landmark));
  b.add_array(fib_section::kCowenLandmarkPort, std::move(landmark_port));
  b.add_array(fib_section::kLabelMap, std::move(label_of));
  b.add_array(fib_section::kDictionary, std::move(dict));
  return b.finish();
}

// Tree-backed dynamic schemes (SpanningTreeScheme): compile the current
// heavy-path router. The FIB is a snapshot — churn events that swap the
// tree require recompiling.
template <typename S>
  requires requires(const S& s) {
    { s.router() } -> std::convertible_to<const TreeRouter&>;
  }
FlatFib compile_fib(const S& scheme, const Graph& g) {
  return compile_fib(scheme.router(), g);
}

struct FibMaintainOptions {
  FibCompileOptions compile;
  // A delta touching more than this fraction of nodes compacts (full
  // recompile) instead of patching — beyond it the patch loop costs as
  // much as the compile and fragments slack for nothing.
  double compaction_fraction = 0.25;
};

struct FibMaintainStats {
  std::size_t events = 0;       // absorb() calls
  std::size_t noops = 0;        // empty deltas: arena untouched
  std::size_t patched = 0;      // applied in place
  std::size_t compactions = 0;  // full recompiles
  std::size_t slack_exhausted = 0;  // compactions forced by apply_delta
};

// Slack profile for churn service: enough headroom that single-edge
// Cowen repairs patch in place for long event runs before compacting.
inline FibMaintainOptions fib_churn_maintain_options() {
  FibMaintainOptions o;
  o.compile.row_slack_min = 8;
  o.compile.row_slack_frac = 0.25;
  return o;
}

// Keeps one compiled arena synchronized with a scheme across churn
// events: construct once, then absorb() each apply_event's FibDelta.
// The class itself is unconstrained so std::optional<MaintainedFib<S>>
// is well-formed for any S; the methods require compile_fib(S, Graph)
// when instantiated.
//
// Concurrent serving: reader threads snapshot the arena with arena()
// and run forward_batch on it while absorb() keeps patching. Patches
// land in place behind the seqlock (readers retry, flat_fib.hpp);
// compactions build a *fresh* arena and swap the shared pointer, and
// the superseded arena is destroyed only when the last in-flight batch
// drops its snapshot — the RCU grace period is the refcount reaching
// zero, so a walk never dangles across a recompile. absorb() itself is
// single-writer: calls must come from one thread (or be serialized).
template <typename S>
class MaintainedFib {
 public:
  MaintainedFib(const S& scheme, const Graph& g,
                const FibMaintainOptions& opt = fib_churn_maintain_options())
      : graph_(&g),
        opt_(opt),
        fib_(std::make_shared<FlatFib>(recompile(scheme))) {}

  // Single-threaded convenience: valid until the next absorb().
  const FlatFib& fib() const { return *fib_; }

  // Pins the current arena for a batch. The snapshot stays alive (and
  // internally coherent, via the seqlock) for as long as the caller
  // holds it, no matter how many compactions happen meanwhile.
  std::shared_ptr<const FlatFib> arena() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fib_;
  }

  const FibMaintainStats& stats() const { return stats_; }

  // Test-only: the crash-injection hook (simulate_writer_crash_after_
  // for_test) needs mutable access to the writer's arena.
  FlatFib& fib_for_test() { return *fib_; }

  // Absorbs one event. Returns true when the arena was patched in place
  // (or provably unchanged), false when it was recompiled. A patch that
  // apply_delta refuses — slack exhausted, malformed, or an odd
  // generation left by a crashed writer — falls through to compaction,
  // which is also how a torn arena is recovered: the fresh arena starts
  // at generation zero and the readers move to it on their next batch.
  bool absorb(const FibDelta& d, const S& scheme) {
    ++stats_.events;
    if (d.empty()) {
      ++stats_.noops;
      return true;
    }
    const std::size_t n = graph_->node_count();
    const bool too_wide =
        n > 0 && static_cast<double>(d.touched_nodes) >
                     opt_.compaction_fraction * static_cast<double>(n);
    if (!d.recompile && !too_wide) {
      if (fib_->apply_delta(d)) {
        ++stats_.patched;
        return true;
      }
      ++stats_.slack_exhausted;
    }
    auto fresh = std::make_shared<FlatFib>(recompile(scheme));
    {
      std::lock_guard<std::mutex> lock(mu_);
      fib_.swap(fresh);
    }
    // `fresh` (the old arena) dies here unless a batch still holds it.
    ++stats_.compactions;
    return false;
  }

 private:
  FlatFib recompile(const S& scheme) {
    if constexpr (requires(const S& s, const Graph& gg,
                           const FibCompileOptions& o) {
                    compile_fib(s, gg, o);
                  }) {
      return compile_fib(scheme, *graph_, opt_.compile);
    } else {
      return compile_fib(scheme, *graph_);
    }
  }

  const Graph* graph_;
  FibMaintainOptions opt_;
  FibMaintainStats stats_;
  mutable std::mutex mu_;  // guards the fib_ pointer swap, not the arena
  std::shared_ptr<FlatFib> fib_;
};

}  // namespace cpr
