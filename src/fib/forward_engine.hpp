// Batch query engine over compiled FIB arenas.
//
// forward_batch answers (source, target) queries against a FlatFib with
// no virtual dispatch and no per-query allocation on the walk itself:
// headers are resolved straight from the arena (two array reads instead
// of make_header's per-target work), every hop is a handful of loads
// over the flat sections — direct port fields for tree edges, one
// branchless Eytzinger search (fib_row_find) over packed (key, port)
// rows — and the next node's row is software-prefetched while the
// current hop finishes.
//
// Sharding: queries are bucketed by source node into kFibShards fixed
// shards (contiguous source ranges), and shards fan out over the
// ThreadPool. The shard composition does not depend on the thread count,
// each query writes only its own result slot, and the per-shard path
// buffers are stitched in shard order afterwards — so the output is
// bit-identical for every thread count and schedule, which is what lets
// the differential tests compare it against the sequential object path.
//
// Failure mode: with `edge_down` set, a packet directed onto a dead edge
// is dropped *before* moving, and exact (node, header) loop detection is
// on — every compiled kind keeps its header immutable across hops, so a
// revisited node under an unchanged header is a proven forwarding loop.
// Both match simulate_route_with_failures (sim/resilience.hpp) step for
// step; without `edge_down` the walk matches route_batch/simulate_route.
//
// Concurrent churn: the arena's generation counter is a seqlock
// (flat_fib.hpp). The batch samples it on entry, walks with relaxed
// atomic loads over the mutable Cowen sections, issues an acquire fence
// at the end of every shard, and revalidates the generation after the
// join. A mismatch means apply_delta rewrote rows mid-batch; with
// seqlock_max_retries > 0 the whole batch re-runs against the settled
// arena (results are discarded, never mixed), otherwise it throws —
// the historical single-threaded semantics. A delivered batch is
// therefore always the output of *one* generation, bit-identical to a
// fresh compile of that snapshot.
//
// Dispatch (docs/forwarding_plane.md "Memory layout & SIMD"): the
// per-query walk above is the *scalar* reference path. The SIMD path
// walks up to eight same-shard queries in lockstep — every live lane
// takes its next hop before any lane takes the one after — so eight
// independent dependent-load chains are in flight per step instead of
// one; the tree family additionally classifies eight lanes per step with
// one gathered AVX2 compare. Both paths run the same walker type per
// kind — Cowen and TZ rows go through the one row search either way; the
// lockstep instantiation only swaps the seqlock loads for plain ones.
// Lane grouping follows shard query order, so paths, results and their
// layout are bit-identical to the scalar path by construction; the
// differential suite (tests/test_fib_simd.cpp) holds both paths and the
// object walk to the same bytes. Failure-mode batches (edge_down) always
// take the scalar path: drop/loop bookkeeping is branch-heavy and cold.
#pragma once

#include "fib/flat_fib.hpp"
#include "util/thread_pool.hpp"

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace cpr {

// Fixed shard count, deliberately independent of the pool size: shard
// composition (and with it the stitched output layout) must not change
// with the machine's parallelism.
inline constexpr std::size_t kFibShards = 64;

// How forward_batch resolves each hop. kAuto probes the CPU once per
// batch; kSimd requests the lockstep/AVX2 path and silently degrades to
// scalar where it cannot run (no AVX2, or a TSan build — the lockstep
// walkers' plain loads bypass the seqlock's atomic_ref loads, benign in
// production x86-64 but indistinguishable from a real race to TSan).
// kScalar pins the reference path; the differential tests force it so
// non-AVX machines still exercise the full suite.
enum class FibDispatch : std::uint8_t {
  kAuto = 0,
  kScalar = 1,
  kSimd = 2,
};

// True when the lockstep/AVX2 path can run on this build and machine
// (x86-64 with AVX2 at runtime, not a TSan build).
bool fib_simd_supported();

// The path a request actually takes: kScalar stays scalar; kSimd and
// kAuto resolve to kSimd exactly when fib_simd_supported().
FibDispatch fib_resolve_dispatch(FibDispatch requested);

struct FibBatchOptions;

// The path a whole *batch* takes, which additionally accounts for the
// failure mode: batches with `edge_down` set are pinned to the scalar
// path regardless of the requested dispatch — the drop-at-dead-link and
// exact (node, header) loop bookkeeping is branch-heavy, per-lane
// divergent, and cold, so a lockstep variant would be all bookkeeping
// and no overlapped misses. forward_batch asserts this resolution, so
// the pin can never silently regress (it is load-bearing for the
// differential suites, which compare the failure walk against
// simulate_route_with_failures step for step). Declared here so tests
// and benches can predict the engine's choice instead of inferring it.
FibDispatch fib_resolve_batch_dispatch(const FibBatchOptions& opt);

// kAuto additionally falls back to scalar for arenas below this size:
// the lockstep walk buys overlapped cache misses, and an arena that fits
// in cache has few to overlap — measured on the bench sweep, the scalar
// chain wins ~2x at tree n=1000 (96 KiB) while lockstep wins ~30% at
// n=50k (5 MiB), crossing over around the LLC-resident sizes. Forced
// kSimd ignores this (the bench measures the lockstep path at every
// size; results are bit-identical regardless).
inline constexpr std::size_t kSimdAutoMinArenaBytes = 2u << 20;

// Hard node-count ceiling for every SIMD dispatch flavor (kAuto *and*
// forced kSimd): the batched tree kernel gathers with 32-bit indices of
// node_id * 8 u32 fields, so a node id at or above 2^28 would wrap
// negative and gather out of bounds. Graphs past the ceiling resolve to
// the scalar path, which is bit-identical.
inline constexpr std::size_t kSimdMaxNodeCount = std::size_t{1} << 28;

struct FibBatchOptions {
  ThreadPool* pool = nullptr;     // nullptr = process-global pool
  std::size_t max_hops = 0;       // 0 = the simulator default, 4n + 16
  // Record the traversed node sequence per query into the paths arena.
  // Stats-only callers turn this off and skip the stores entirely.
  bool record_paths = true;
  // Dead-edge mask (by edge id). Non-null switches on drop-at-dead-link
  // and exact loop detection, mirroring simulate_route_with_failures.
  const std::vector<bool>* edge_down = nullptr;
  // How many times to re-run the batch when the seqlock detects a
  // concurrent apply_delta (odd generation on entry, or a generation
  // change across the walk). 0 keeps the strict semantics: throw on any
  // torn window. Serving planes that patch concurrently set this high
  // enough to ride out a patch burst (patches are microseconds; batches
  // are the long side of the race).
  std::size_t seqlock_max_retries = 0;
  // Hop-resolution path; see FibDispatch. Ignored (always scalar) when
  // edge_down is set — fib_resolve_batch_dispatch is the authoritative
  // resolution, asserted inside forward_batch.
  FibDispatch dispatch = FibDispatch::kAuto;
};

struct FibRouteResult {
  std::uint64_t path_begin = 0;  // offset into FibBatchOutput::paths
  std::uint32_t path_len = 0;    // nodes visited incl. source (hops + 1)
  std::uint8_t delivered = 0;
  std::uint8_t looped = 0;       // only with edge_down (loop detection on)

  std::size_t hops() const { return path_len == 0 ? 0 : path_len - 1; }
};

struct FibBatchOutput {
  std::vector<FibRouteResult> results;  // one per query, input order
  std::vector<NodeId> paths;            // concatenated walks (record_paths)
  // Batch re-runs forced by a concurrent patch (0 on the fast path).
  std::uint32_t seqlock_retries = 0;

  std::span<const NodeId> path(std::size_t query) const {
    const FibRouteResult& r = results[query];
    return {paths.data() + r.path_begin, r.path_len};
  }
};

FibBatchOutput forward_batch(const FlatFib& fib,
                             std::span<const std::pair<NodeId, NodeId>> queries,
                             const FibBatchOptions& opt = {});

}  // namespace cpr
