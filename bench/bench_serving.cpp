// Serving-plane latency under concurrent churn (BENCH_serving.json).
//
// bench_churn times the *writer* side of the compiled plane: how fast
// apply_event deltas patch the arena. This bench times the *reader*
// side — forward_batch latency percentiles for a serving process — in
// the three situations a deployment actually sees:
//
//   serving_cowen_idle
//     512-query batches against a quiescent arena. The baseline the
//     churn suite is compared to: pure walk cost, no seqlock traffic.
//   serving_cowen_churn
//     The same batches while a patcher thread drives a seeded churn
//     trace through MaintainedFib::absorb on the *same* arena. Batches
//     ride the seqlock (seqlock_max_retries high, retries counted) and
//     pin compaction survivors via the RCU arena() snapshot. Reported
//     as p50/p99/p999 µs per batch — the p99 here is the number the CI
//     bench-smoke gate holds against the committed baseline.
//   serving_store_publish
//     The multi-process handoff: writer publishes a generation into an
//     ArenaStore (temp + fsync + rename + CURRENT), a second store
//     instance re-resolves and mmaps it, and one batch is served from
//     the fresh mapping. Timed per publish-adopt-serve cycle.
//   serving_channel_staleness
//     The cross-process patch channel, measured for real: a forked
//     writer process streams single-row deltas through the MAP_SHARED
//     segment while this process serves as a PatchChannelReader. Each
//     patch is stamped (CLOCK_MONOTONIC, shared anonymous page) when
//     the writer starts applying it; the reader records when the
//     patches_applied header counter first covers it. Reported as
//     patch-visibility p50/p99/p999 µs plus how many patches behind
//     the writer's head the reader was at each observation
//     (generations-behind-head mean/max). Zero ArenaStore publishes
//     happen after the initial one — the latency is pure seqlock +
//     cache-coherence, no fsync/rename in the loop.
//
// Usage: bench_serving [--quick] [--filter=substr] [--out=path]
//                      [--baseline=path]
// Schema "cpr-bench-serving-v1". With --baseline, the run exits
// nonzero when the churn suite's batch p99 — or the staleness suite's
// patch-visibility p99 — regresses more than 25% against the committed
// file (the CI bench-smoke guard).
#include "bench_util.hpp"

#include "algebra/primitives.hpp"
#include "fib/arena_store.hpp"
#include "fib/compile.hpp"
#include "fib/fib_delta.hpp"
#include "fib/patch_channel.hpp"
#include "scheme/cowen.hpp"
#include "sim/churn.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

namespace cpr {
namespace {

using bench::now_seconds;
using bench::peak_rss_bytes;

constexpr std::size_t kBatchQueries = 512;
// Percentiles need support even when the churn window closes early on a
// small instance; the batch loop keeps serving (now idle) until it has
// at least this many samples, and reports how many ran under churn.
constexpr std::size_t kMinBatches = 64;
constexpr std::size_t kMaxBatches = 4096;

struct SuiteResult {
  std::string name;
  std::string algebra;
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t runs = 0;  // batches (or publish cycles) timed
  double wall_s = 0;
  double ops_per_s = 0;  // queries/sec across the timed batches
  double p50_us = -1;    // per-batch (per-cycle) latency percentiles
  double p99_us = -1;
  double p999_us = -1;
  // Churn-suite extras; -1 elsewhere.
  long long churn_batches = -1;     // batches that ran while patching
  long long seqlock_retries = -1;   // batch re-runs forced by patches
  long long patch_events = -1;      // writer-side absorption mix
  long long compaction_events = -1;
  long long published = -1;         // store suite: generations published
  // Staleness-suite extras; -1 elsewhere. The percentiles above hold
  // per-patch visibility latency for this suite, not batch latency.
  long long patches_observed = -1;  // cross-process patches measured
  double gen_behind_mean = -1;      // patches behind the writer's head
  long long gen_behind_max = -1;
};

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return -1;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

struct ServingInstance {
  Graph g;
  EdgeMap<std::uint64_t> w;
  std::vector<ChurnEvent<std::uint64_t>> trace;
};

ServingInstance make_instance(std::size_t n, std::size_t events) {
  ServingInstance inst;
  auto base = bench::sweep_instance(n);
  inst.g = std::move(base.g);
  inst.w = std::move(base.w);
  Rng trace_rng(n * 131 + 9);
  inst.trace = random_churn_trace(ShortestPath{1024}, inst.g, inst.w, events,
                                  trace_rng);
  return inst;
}

std::vector<std::pair<NodeId, NodeId>> make_batch(const Graph& g, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(kBatchQueries);
  while (pairs.size() < kBatchQueries) {
    const NodeId s = static_cast<NodeId>(rng.index(g.node_count()));
    const NodeId t = static_cast<NodeId>(rng.index(g.node_count()));
    if (s != t) pairs.emplace_back(s, t);
  }
  return pairs;
}

void fill_percentiles(SuiteResult& r, const std::vector<double>& us) {
  r.p50_us = percentile(us, 0.50);
  r.p99_us = percentile(us, 0.99);
  r.p999_us = percentile(us, 0.999);
}

// ---- Idle suite ----

SuiteResult idle_suite(const ServingInstance& inst, std::size_t batches,
                       ThreadPool& pool) {
  const ShortestPath alg{1024};
  SuiteResult r{"serving_cowen_idle", alg.name(), inst.g.node_count(),
                inst.g.edge_count()};
  Rng build_rng(42);
  CowenOptions copt;
  copt.pool = &pool;
  const auto scheme =
      CowenScheme<ShortestPath>::build(alg, inst.g, inst.w, build_rng, copt);
  MaintainedFib<CowenScheme<ShortestPath>> plane(scheme, inst.g);
  const auto arena = plane.arena();

  FibBatchOptions opt;
  opt.pool = &pool;
  opt.record_paths = false;
  Rng query_rng(inst.g.node_count() * 7 + 1);
  std::vector<double> us;
  us.reserve(batches);
  std::size_t delivered = 0;
  const double t0 = now_seconds();
  for (std::size_t b = 0; b < batches; ++b) {
    const auto pairs = make_batch(inst.g, query_rng);
    const double b0 = now_seconds();
    const FibBatchOutput out = forward_batch(*arena, pairs, opt);
    us.push_back((now_seconds() - b0) * 1e6);
    for (const FibRouteResult& q : out.results) delivered += q.delivered;
  }
  r.wall_s = now_seconds() - t0;
  r.runs = us.size();
  r.ops_per_s = static_cast<double>(r.runs * kBatchQueries) / r.wall_s;
  fill_percentiles(r, us);
  if (delivered == 0) {
    std::cerr << "serving_cowen_idle n=" << r.n << ": nothing delivered?\n";
  }
  return r;
}

// ---- Churn suite ----

// One patcher thread replays the event trace through apply_event +
// absorb (seqlock patches on the live arena, occasional compactions
// swapping the RCU pointer) while this thread serves timed batches from
// arena() snapshots. Traces are single-use (the engine throws on
// replayed events), so the trace is sized to keep the patcher busy for
// the bulk of the batch loop; batches that run after it drains are
// counted but separated out as runs - churn_batches.
SuiteResult churn_suite(const ServingInstance& inst, ThreadPool& pool) {
  const ShortestPath alg{1024};
  SuiteResult r{"serving_cowen_churn", alg.name(), inst.g.node_count(),
                inst.g.edge_count()};
  ChurnEngine<ShortestPath> engine(alg, inst.g, inst.w);
  Rng build_rng(42);
  CowenOptions copt;
  copt.pool = &pool;
  // Materialized: churn events run inside the timed window, and a
  // streamed scheme would lazily rebuild all trees inside the first one.
  copt.construction = CowenOptions::Construction::kMaterialized;
  auto scheme =
      CowenScheme<ShortestPath>::build(alg, inst.g, inst.w, build_rng, copt);
  MaintainedFib<CowenScheme<ShortestPath>> plane(scheme, inst.g);

  std::atomic<bool> churning{true};
  std::thread patcher([&] {
    for (const auto& ev : inst.trace) {
      const auto applied = engine.apply(ev);
      const CowenRepairStats stats = scheme.apply_event(
          applied.edge, applied.old_weight, applied.new_weight,
          engine.weights());  // production dirty-fraction threshold
      plane.absorb(stats.fib_delta, scheme);
    }
    churning.store(false, std::memory_order_release);
  });

  FibBatchOptions opt;
  opt.pool = &pool;
  opt.record_paths = false;
  // Ride out any patch burst; a starved batch would throw instead of
  // silently serving torn rows, failing the bench loudly.
  opt.seqlock_max_retries = 1u << 20;
  Rng query_rng(inst.g.node_count() * 7 + 1);
  std::vector<double> us;
  std::size_t under_churn = 0;
  long long retries = 0;
  const double t0 = now_seconds();
  while (us.size() < kMaxBatches) {
    const bool live = churning.load(std::memory_order_acquire);
    if (!live && us.size() >= kMinBatches) break;
    const auto pairs = make_batch(inst.g, query_rng);
    const auto arena = plane.arena();  // RCU pin across the batch
    const double b0 = now_seconds();
    const FibBatchOutput out = forward_batch(*arena, pairs, opt);
    us.push_back((now_seconds() - b0) * 1e6);
    under_churn += live ? 1 : 0;
    retries += out.seqlock_retries;
  }
  r.wall_s = now_seconds() - t0;
  patcher.join();

  r.runs = us.size();
  r.ops_per_s = static_cast<double>(r.runs * kBatchQueries) / r.wall_s;
  fill_percentiles(r, us);
  r.churn_batches = static_cast<long long>(under_churn);
  r.seqlock_retries = retries;
  const FibMaintainStats& st = plane.stats();
  r.patch_events = static_cast<long long>(st.patched);
  r.compaction_events = static_cast<long long>(st.compactions);
  return r;
}

// ---- Store publish suite ----

SuiteResult store_suite(const ServingInstance& inst, std::size_t cycles,
                        ThreadPool& pool) {
  const ShortestPath alg{1024};
  SuiteResult r{"serving_store_publish", alg.name(), inst.g.node_count(),
                inst.g.edge_count()};
  ChurnEngine<ShortestPath> engine(alg, inst.g, inst.w);
  Rng build_rng(42);
  CowenOptions copt;
  copt.pool = &pool;
  // Materialized: churn events run inside the timed window, and a
  // streamed scheme would lazily rebuild all trees inside the first one.
  copt.construction = CowenOptions::Construction::kMaterialized;
  auto scheme =
      CowenScheme<ShortestPath>::build(alg, inst.g, inst.w, build_rng, copt);
  MaintainedFib<CowenScheme<ShortestPath>> plane(scheme, inst.g);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cpr_bench_serving_" + std::to_string(::getpid()) + "_" +
       std::to_string(inst.g.node_count()));
  std::filesystem::create_directories(dir);
  ArenaStore writer(dir);
  ArenaStore reader(dir);

  FibBatchOptions opt;
  opt.pool = &pool;
  opt.record_paths = false;
  Rng query_rng(inst.g.node_count() * 7 + 1);
  std::vector<double> us;
  us.reserve(cycles);
  const std::size_t count = std::min(cycles, inst.trace.size());
  const double t0 = now_seconds();
  for (std::size_t i = 0; i < count; ++i) {
    const auto applied = engine.apply(inst.trace[i]);
    const CowenRepairStats stats = scheme.apply_event(
        applied.edge, applied.old_weight, applied.new_weight,
        engine.weights());
    plane.absorb(stats.fib_delta, scheme);
    const auto pairs = make_batch(inst.g, query_rng);

    const double c0 = now_seconds();
    writer.publish(plane.fib());
    const auto arena = reader.current();
    if (!arena) {
      std::cerr << "serving_store_publish n=" << r.n
                << ": reader lost the current generation\n";
      break;
    }
    forward_batch(arena->fib(), pairs, opt);
    us.push_back((now_seconds() - c0) * 1e6);
  }
  r.wall_s = now_seconds() - t0;
  r.runs = us.size();
  r.ops_per_s = static_cast<double>(r.runs * kBatchQueries) / r.wall_s;
  fill_percentiles(r, us);
  r.published = static_cast<long long>(r.runs);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return r;
}

// ---- Cross-process staleness suite ----

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Shared-page layout: word 0 is the writer's head patch index, words
// kStampBase.. are the per-patch apply-start stamps (CLOCK_MONOTONIC ns,
// comparable across processes). One 4 KiB page bounds the patch count.
constexpr std::size_t kStampBase = 8;
constexpr std::size_t kStalenessPageBytes = 4096;
constexpr std::size_t kMaxStalenessPatches =
    kStalenessPageBytes / sizeof(std::uint64_t) - kStampBase;

// Child side: acquire the channel, publish the one-and-only generation,
// wait for the parent to adopt, then stream alternating landmark-port
// flips — stamping each patch just before apply() and bumping the head
// word just after. Exit codes surface the failure mode to the parent.
[[noreturn]] void staleness_writer_child(const ServingInstance& inst,
                                         const std::filesystem::path& dir,
                                         std::atomic<std::uint64_t>* words,
                                         std::size_t patches) {
  try {
    const ShortestPath alg{1024};
    PatchChannelWriter writer =
        PatchChannelWriter::acquire(dir, static_cast<std::uint64_t>(getpid()));
    Rng build_rng(42);
    // No pool: the parent's worker threads do not survive the fork.
    // Materialized: this writer applies churn events in its serve loop.
    CowenOptions copt;
    copt.construction = CowenOptions::Construction::kMaterialized;
    auto scheme =
        CowenScheme<ShortestPath>::build(alg, inst.g, inst.w, build_rng, copt);
    writer.publish(
        compile_fib(scheme, inst.g, fib_churn_maintain_options().compile));

    const std::uint64_t deadline = mono_ns() + 30ull * 1000 * 1000 * 1000;
    while (!std::filesystem::exists(dir / "READY")) {
      if (mono_ns() > deadline) ::_exit(3);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const Port orig = static_cast<Port>(writer.fib().cowen().landmark_port[0]);
    for (std::size_t k = 1; k <= patches; ++k) {
      FibDelta d;
      d.touched_nodes = 1;
      d.patches.push_back(fib_patch_u32(fib_section::kCowenLandmarkPort, 0,
                                        (k & 1) ? kInvalidPort : orig));
      words[kStampBase + k - 1].store(mono_ns(), std::memory_order_release);
      if (!writer.apply(d)) ::_exit(4);
      words[0].store(k, std::memory_order_release);
      // Space the stream out so observations are distinct events, not
      // one burst the reader digests after the fact.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ::_exit(0);
  } catch (...) {
    ::_exit(5);
  }
}

SuiteResult staleness_suite(const ServingInstance& inst, std::size_t patches) {
  const ShortestPath alg{1024};
  SuiteResult r{"serving_channel_staleness", alg.name(), inst.g.node_count(),
                inst.g.edge_count()};
  patches = std::min(patches, kMaxStalenessPatches);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cpr_bench_staleness_" + std::to_string(::getpid()) + "_" +
       std::to_string(inst.g.node_count()));
  std::filesystem::create_directories(dir);

  void* page = ::mmap(nullptr, kStalenessPageBytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (page == MAP_FAILED) {
    std::cerr << "serving_channel_staleness: mmap failed\n";
    return r;
  }
  auto* words = new (page) std::atomic<std::uint64_t>[kStalenessPageBytes /
                                                      sizeof(std::uint64_t)]();

  const pid_t pid = ::fork();
  if (pid == 0) staleness_writer_child(inst, dir, words, patches);
  if (pid < 0) {
    std::cerr << "serving_channel_staleness: fork failed\n";
    ::munmap(page, kStalenessPageBytes);
    return r;
  }

  // Adopt the writer's one generation through the live segment.
  PatchChannelReader reader(dir);
  std::shared_ptr<const ChannelArena> arena;
  const std::uint64_t adopt_deadline = mono_ns() + 30ull * 1000 * 1000 * 1000;
  while (mono_ns() < adopt_deadline) {
    arena = reader.current();
    if (arena && arena->via_channel()) break;
    arena = nullptr;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<double> vis_us;
  std::vector<std::uint64_t> behind;
  if (arena) {
    {
      std::ofstream out(dir / "READY");
      out << "ready\n";
    }
    const double t0 = now_seconds();
    std::uint64_t seen = 0;
    const std::uint64_t deadline = mono_ns() + 60ull * 1000 * 1000 * 1000;
    while (seen < patches && mono_ns() < deadline) {
      const std::uint64_t cur = arena->patches_applied();
      if (cur == seen) continue;  // busy poll: latency is the product here
      const std::uint64_t t = mono_ns();
      const std::uint64_t head = words[0].load(std::memory_order_acquire);
      for (std::uint64_t k = seen + 1; k <= cur; ++k) {
        std::uint64_t stamp =
            words[kStampBase + k - 1].load(std::memory_order_acquire);
        // The counter bump races the head-word store, never the stamp —
        // but be safe against a torn first read.
        while (stamp == 0) {
          stamp = words[kStampBase + k - 1].load(std::memory_order_acquire);
        }
        vis_us.push_back(t > stamp ? static_cast<double>(t - stamp) / 1e3
                                   : 0.0);
        behind.push_back(head > k ? head - k : 0);
      }
      seen = cur;
    }
    r.wall_s = now_seconds() - t0;
  } else {
    std::cerr << "serving_channel_staleness n=" << r.n
              << ": reader never adopted the segment\n";
  }

  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::cerr << "serving_channel_staleness n=" << r.n
              << ": writer child failed (status " << status << ")\n";
  }
  arena.reset();
  ::munmap(page, kStalenessPageBytes);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  r.runs = vis_us.size();
  r.ops_per_s = r.wall_s > 0 ? static_cast<double>(r.runs) / r.wall_s : 0;
  fill_percentiles(r, vis_us);
  r.patches_observed = static_cast<long long>(vis_us.size());
  if (!behind.empty()) {
    std::uint64_t sum = 0, mx = 0;
    for (const std::uint64_t b : behind) {
      sum += b;
      mx = std::max(mx, b);
    }
    r.gen_behind_mean =
        static_cast<double>(sum) / static_cast<double>(behind.size());
    r.gen_behind_max = static_cast<long long>(mx);
  }
  return r;
}

// ---- Baseline guard (CI bench-smoke) ----

// Gates the churn suite's batch p99 and the staleness suite's
// patch-visibility p99 — the two latency promises the seqlock protocol
// (in-process and cross-process) exists to keep. The idle and store
// suites are reported but not gated: fsync and build cost drift too much
// across machines for a hard gate. Batch p99 under a competing patcher
// carries scheduler jitter on ~100 µs quick-mode batches (200 µs
// cushion); cross-process visibility rides the wakeups of two processes
// (500 µs).
int check_baseline(const std::string& path,
                   const std::vector<SuiteResult>& suites) {
  std::vector<bench::GateEntry> live;
  for (const SuiteResult& s : suites) {
    if (s.p99_us < 0) continue;
    if (s.name == "serving_cowen_churn") {
      live.push_back({s.name, s.n, 0, s.p99_us, 200.0});
    } else if (s.name == "serving_channel_staleness") {
      live.push_back({s.name, s.n, 0, s.p99_us, 500.0});
    }
  }
  return bench::check_baseline(path, {"name", "p99_us"}, live);
}

// ---- JSON output ----

using bench::json_escape;

void write_json(std::ostream& os, const std::vector<SuiteResult>& suites,
                bool quick) {
  os << std::setprecision(6) << std::fixed;
  os << "{\n";
  os << "  \"schema\": \"cpr-bench-serving-v1\",\n";
  bench::write_json_meta(os, bench::BenchMeta::collect());
  os << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  os << "  \"queries_per_batch\": " << kBatchQueries << ",\n";
  os << "  \"suites\": [\n";
  for (std::size_t i = 0; i < suites.size(); ++i) {
    const SuiteResult& s = suites[i];
    os << "    {\n";
    os << "      \"name\": \"" << json_escape(s.name) << "\",\n";
    os << "      \"algebra\": \"" << json_escape(s.algebra) << "\",\n";
    os << "      \"n\": " << s.n << ",\n";
    os << "      \"m\": " << s.m << ",\n";
    os << "      \"runs\": " << s.runs << ",\n";
    os << "      \"wall_s\": " << s.wall_s << ",\n";
    os << "      \"ops_per_s\": " << s.ops_per_s;
    if (s.p50_us >= 0) {
      os << ",\n      \"p50_us\": " << s.p50_us;
      os << ",\n      \"p99_us\": " << s.p99_us;
      os << ",\n      \"p999_us\": " << s.p999_us;
    }
    if (s.churn_batches >= 0) {
      os << ",\n      \"churn_batches\": " << s.churn_batches;
      os << ",\n      \"seqlock_retries\": " << s.seqlock_retries;
      os << ",\n      \"patch_events\": " << s.patch_events;
      os << ",\n      \"compaction_events\": " << s.compaction_events;
    }
    if (s.published >= 0) {
      os << ",\n      \"published\": " << s.published;
    }
    if (s.patches_observed >= 0) {
      os << ",\n      \"patches_observed\": " << s.patches_observed;
      os << ",\n      \"gen_behind_mean\": " << s.gen_behind_mean;
      os << ",\n      \"gen_behind_max\": " << s.gen_behind_max;
    }
    os << "\n    }" << (i + 1 < suites.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"peak_rss_bytes\": " << peak_rss_bytes() << "\n";
  os << "}\n";
}

}  // namespace
}  // namespace cpr

int main(int argc, char** argv) {
  const cpr::bench::BenchArgs args = cpr::bench::parse_bench_args(
      argc, argv, "bench_serving", "BENCH_serving.json",
      /*accept_baseline=*/true);
  if (!args.ok) return 2;
  const bool quick = args.quick;
  const std::string& out_path = args.out_path;

  const auto want = [&](const char* name) {
    return cpr::bench::suite_wanted(args.filter, name);
  };

  std::vector<cpr::SuiteResult> suites;
  const auto run = [&](cpr::SuiteResult r) {
    std::cout << r.name << " n=" << r.n << ": " << r.runs << " runs, "
              << r.wall_s << " s, " << r.ops_per_s << " queries/s";
    if (r.p50_us >= 0) {
      std::cout << ", p50 " << r.p50_us << " us, p99 " << r.p99_us
                << " us, p999 " << r.p999_us << " us";
    }
    if (r.seqlock_retries >= 0) {
      std::cout << ", " << r.seqlock_retries << " seqlock retries";
    }
    if (r.patches_observed >= 0) {
      std::cout << ", " << r.patches_observed << " patches, behind mean "
                << r.gen_behind_mean << " max " << r.gen_behind_max;
    }
    std::cout << "\n";
    suites.push_back(std::move(r));
  };

  // The batch engine runs on one pool thread: the headline is per-core
  // serving latency, and the churn suite wants the patcher thread to be
  // the only concurrent actor so retries are attributable to patches.
  cpr::ThreadPool pool(1);

  // Quick sizes are a subset of full sizes so the CI quick run can
  // match the committed full-mode baseline by (name, n). The trace is
  // sized to keep the patcher busy across the bulk of the batch loop
  // (an n=10k Cowen repair costs far more per event than an n=1k one,
  // so fewer events cover the same wall-clock window).
  const std::vector<std::size_t> ns =
      quick ? std::vector<std::size_t>{1000}
            : std::vector<std::size_t>{1000, 10000};
  const std::size_t idle_batches = quick ? 64 : 256;
  const std::size_t store_cycles = quick ? 8 : 16;
  const std::size_t staleness_patches = quick ? 64 : 256;

  for (std::size_t n : ns) {
    const std::size_t events = n >= 10000 ? 40 : (quick ? 60 : 160);
    const cpr::ServingInstance inst = cpr::make_instance(n, events);
    if (want("serving_cowen_idle")) {
      run(cpr::idle_suite(inst, idle_batches, pool));
    }
    if (want("serving_cowen_churn")) {
      run(cpr::churn_suite(inst, pool));
    }
    if (want("serving_store_publish")) {
      run(cpr::store_suite(inst, store_cycles, pool));
    }
    if (want("serving_channel_staleness")) {
      run(cpr::staleness_suite(inst, staleness_patches));
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  cpr::write_json(out, suites, quick);
  std::cout << "wrote " << out_path << "\n";
  if (!args.baseline.empty()) {
    return cpr::check_baseline(args.baseline, suites);
  }
  return 0;
}
