// Machine-readable forwarding-plane trajectory (BENCH_forward.json).
//
// The compiled-plane claim is quantitative: serving a query batch from a
// FlatFib arena (fib/forward_engine.cpp) must beat the object-based
// route_batch oracle it is differentially tested against. Per scheme
// family (heavy-path tree, interval, Cowen landmarks, TZ) and sweep
// size, this bench times the same seeded query batch three ways —
// object oracle (per-query make_header + virtual-free but pointer-chasing
// forward()), compiled plane with path recording (what the rewired
// route_batch serves), and compiled plane stats-only (record_paths off,
// the production serving mode) — and reports queries/s and ns/hop for
// each, at pools of 1 and 8 threads. compile_s and blob_bytes record the
// one-time cost and footprint of the arena the batch runs amortize.
//
// Since the v3 layout work the trajectory is two-dimensional:
//
//   dispatch : every (family, n, threads) point is measured on the
//              lockstep/AVX2 path (native family name) AND the scalar
//              reference path ("_scalar" suffix), so a regression in
//              either shows up against its own baseline key. On a
//              machine without AVX2 the native flavor is skipped (with
//              a warning) rather than silently rebadging scalar numbers.
//   workload : the tree, cowen and tz families additionally run a
//              seeded Zipf(1.1) destination mix ("_zipf" families) next
//              to the uniform one — skew concentrates the walk on a few
//              hot rows, uniform spreads it over the whole arena.
//
// Usage: bench_forward [--quick] [--filter=substr] [--out=path]
//                      [--baseline=path] [--dispatch=auto|scalar|simd]
// --quick shrinks the sweep to n=1000 for CI smoke runs (entries keep
// keys the full baseline also has). --baseline= points at a committed
// BENCH_forward.json; the run fails (exit 1) if any matching
// (family, n, threads) entry regresses ns_per_hop by more than 25%.
// --dispatch=scalar emits only the "_scalar" suites (the forced-scalar
// CI leg); --dispatch=simd emits only the native suites, degrading to
// "_scalar" names + a warning when the machine lacks AVX2 so the
// baseline comparison stays apples-to-apples.
#include "bench_util.hpp"

#include "algebra/primitives.hpp"
#include "fib/compile.hpp"
#include "fib/forward_engine.hpp"
#include "scheme/cowen.hpp"
#include "scheme/interval_router.hpp"
#include "scheme/spanning_tree.hpp"
#include "scheme/tz_name_independent.hpp"
#include "sim/workload.hpp"
#include "util/thread_pool.hpp"

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

namespace cpr {
namespace {

using bench::now_seconds;

struct SuiteResult {
  std::string family;
  std::string workload;  // "uniform" | "zipf"
  std::string dispatch;  // "simd" | "scalar" (the resolved path)
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t threads = 0;
  std::size_t queries = 0;
  std::uint64_t hops = 0;          // total hops walked by the batch
  double compile_s = 0;            // one-time scheme -> arena cost
  std::size_t blob_bytes = 0;      // arena footprint
  double object_queries_per_s = 0;
  double queries_per_s_paths = 0;  // compiled, record_paths on
  double ns_per_hop_paths = 0;
  double queries_per_s = 0;        // compiled, record_paths off (headline)
  double ns_per_hop = 0;
  double speedup_vs_object = 0;    // paths-on compiled vs object oracle
};

std::vector<std::pair<NodeId, NodeId>> make_queries(std::size_t n,
                                                    std::size_t count) {
  Rng rng(n * 8009 + 11);
  std::vector<std::pair<NodeId, NodeId>> q;
  q.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId s = static_cast<NodeId>(rng.index(n));
    NodeId t = static_cast<NodeId>(rng.index(n));
    if (t == s) t = static_cast<NodeId>((t + 1) % n);
    q.push_back({s, t});
  }
  return q;
}

// Seeded Zipf(1.1) destination mix over a random rank→node permutation,
// uniform sources (sim/workload.hpp) — a pure function of n.
std::vector<std::pair<NodeId, NodeId>> make_zipf_queries(const Graph& g,
                                                         std::size_t count) {
  Rng rng(g.node_count() * 6007 + 13);
  WorkloadGenerator wl(WorkloadGenerator::Kind::kZipf, g, rng);
  std::vector<std::pair<NodeId, NodeId>> q;
  q.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Demand d = wl.next();
    q.push_back({d.source, d.target});
  }
  return q;
}

struct Flavor {
  const char* suffix;  // "" = native (lockstep/AVX2), "_scalar" = reference
  FibDispatch dispatch;
};

// Which dispatch flavors this invocation measures; warns (once) when a
// requested SIMD flavor cannot run here so the emitted "_scalar" keys
// are a deliberate fallback, never a silent rebadge.
std::vector<Flavor> dispatch_flavors(const std::string& arg) {
  const bool simd_ok = fib_simd_supported();
  std::vector<Flavor> f;
  if (arg == "scalar") {
    f.push_back({"_scalar", FibDispatch::kScalar});
    return f;
  }
  if (!simd_ok) {
    std::cerr << "warning: SIMD dispatch unavailable on this machine/build; "
                 "measuring the scalar path (\"_scalar\" suites) only\n";
    f.push_back({"_scalar", FibDispatch::kScalar});
    return f;
  }
  f.push_back({"", FibDispatch::kSimd});
  if (arg == "auto") f.push_back({"_scalar", FibDispatch::kScalar});
  return f;
}

template <typename S>
void run_family(const char* base, const S& scheme, const Graph& g,
                std::size_t n_queries, const std::vector<Flavor>& flavors,
                bool with_zipf, std::vector<SuiteResult>& out) {
  double t0 = now_seconds();
  const FlatFib fib = compile_fib(scheme, g);
  const double compile_s = now_seconds() - t0;
  const std::size_t blob_bytes = fib.blob().size();

  struct WorkloadSet {
    std::string family;
    const char* tag;
    std::vector<std::pair<NodeId, NodeId>> queries;
  };
  std::vector<WorkloadSet> workloads;
  workloads.push_back({base, "uniform", make_queries(g.node_count(),
                                                     n_queries)});
  if (with_zipf) {
    workloads.push_back({std::string(base) + "_zipf", "zipf",
                         make_zipf_queries(g, n_queries)});
  }

  for (const WorkloadSet& wl : workloads) {
    for (const std::size_t threads : {1, 8}) {
      ThreadPool pool(threads);
      // The object oracle doesn't depend on the dispatch flavor: time it
      // once per (workload, threads) and share it.
      t0 = now_seconds();
      const auto oracle = route_batch_object(scheme, g, wl.queries, &pool);
      const double object_wall = now_seconds() - t0;
      std::size_t object_delivered = 0;
      for (const auto& o : oracle) object_delivered += o.delivered ? 1 : 0;

      for (const Flavor& f : flavors) {
        SuiteResult r;
        r.family = wl.family + f.suffix;
        r.workload = wl.tag;
        r.dispatch =
            fib_resolve_dispatch(f.dispatch) == FibDispatch::kSimd ? "simd"
                                                                   : "scalar";
        r.n = g.node_count();
        r.m = g.edge_count();
        r.threads = threads;
        r.queries = wl.queries.size();
        r.compile_s = compile_s;
        r.blob_bytes = blob_bytes;
        r.object_queries_per_s =
            static_cast<double>(wl.queries.size()) / object_wall;

        FibBatchOptions opt;
        opt.pool = &pool;
        opt.dispatch = f.dispatch;
        t0 = now_seconds();
        const FibBatchOutput with_paths = forward_batch(fib, wl.queries, opt);
        const double paths_wall = now_seconds() - t0;
        (void)with_paths;

        opt.record_paths = false;
        t0 = now_seconds();
        const FibBatchOutput stats_only = forward_batch(fib, wl.queries, opt);
        const double nopaths_wall = now_seconds() - t0;

        std::size_t delivered = 0;
        for (const auto& res : stats_only.results) {
          r.hops += res.hops();
          delivered += res.delivered;
        }
        if (delivered != object_delivered) {
          std::cerr << r.family << " n=" << r.n
                    << ": compiled delivered count diverges from oracle ("
                    << delivered << " vs " << object_delivered << ")\n";
        }

        const double hops = static_cast<double>(r.hops);
        const double nq = static_cast<double>(wl.queries.size());
        r.queries_per_s_paths = nq / paths_wall;
        r.ns_per_hop_paths = 1e9 * paths_wall / hops;
        r.queries_per_s = nq / nopaths_wall;
        r.ns_per_hop = 1e9 * nopaths_wall / hops;
        r.speedup_vs_object = r.queries_per_s_paths / r.object_queries_per_s;
        out.push_back(std::move(r));
      }
    }
  }
}

// ---- Families ----

void run_tree(std::size_t n, std::size_t n_queries,
              const std::vector<Flavor>& flavors,
              std::vector<SuiteResult>& out) {
  const auto [g, w] = bench::sweep_instance(n);
  const ShortestPath alg{1024};
  const auto scheme = SpanningTreeScheme<ShortestPath>::build(alg, g, w);
  run_family("tree", scheme, g, n_queries, flavors, /*with_zipf=*/true, out);
}

void run_interval(std::size_t n, std::size_t n_queries,
                  const std::vector<Flavor>& flavors,
                  std::vector<SuiteResult>& out) {
  const auto [g, w] = bench::sweep_instance(n);
  const ShortestPath alg{1024};
  const IntervalRouter router(g, preferred_spanning_tree(alg, g, w));
  run_family("interval", router, g, n_queries, flavors, /*with_zipf=*/false,
             out);
}

void run_cowen(std::size_t n, std::size_t n_queries,
               const std::vector<Flavor>& flavors,
               std::vector<SuiteResult>& out) {
  const auto [g, w] = bench::sweep_instance(n);
  const ShortestPath alg{1024};
  Rng build_rng(42);
  const auto scheme =
      CowenScheme<ShortestPath>::build(alg, g, w, build_rng);
  run_family("cowen", scheme, g, n_queries, flavors, /*with_zipf=*/true, out);
}

// The name-independent TZ plane: Cowen underneath, plus the label
// permutation and the per-query dictionary resolve — its ns/hop next to
// "cowen" prices the label layer itself.
void run_tz(std::size_t n, std::size_t n_queries,
            const std::vector<Flavor>& flavors,
            std::vector<SuiteResult>& out) {
  const auto [g, w] = bench::sweep_instance(n);
  const ShortestPath alg{1024};
  Rng build_rng(42);
  const auto scheme =
      TzNameIndependentScheme<ShortestPath>::build(alg, g, w, build_rng);
  run_family("tz", scheme, g, n_queries, flavors, /*with_zipf=*/true, out);
}

// ---- JSON output ----

void write_json(std::ostream& os, const std::vector<SuiteResult>& suites,
                bool quick) {
  os << std::setprecision(6) << std::fixed;
  os << "{\n";
  os << "  \"schema\": \"cpr-bench-forward-v2\",\n";
  bench::write_json_meta(os, bench::BenchMeta::collect());
  os << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  os << "  \"suites\": [\n";
  for (std::size_t i = 0; i < suites.size(); ++i) {
    const SuiteResult& s = suites[i];
    os << "    {\n";
    os << "      \"family\": \"" << bench::json_escape(s.family) << "\",\n";
    os << "      \"workload\": \"" << bench::json_escape(s.workload)
       << "\",\n";
    os << "      \"dispatch\": \"" << bench::json_escape(s.dispatch)
       << "\",\n";
    os << "      \"n\": " << s.n << ",\n";
    os << "      \"m\": " << s.m << ",\n";
    os << "      \"threads\": " << s.threads << ",\n";
    os << "      \"queries\": " << s.queries << ",\n";
    os << "      \"hops\": " << s.hops << ",\n";
    os << "      \"compile_s\": " << s.compile_s << ",\n";
    os << "      \"blob_bytes\": " << s.blob_bytes << ",\n";
    os << "      \"object_queries_per_s\": " << s.object_queries_per_s
       << ",\n";
    os << "      \"queries_per_s_paths\": " << s.queries_per_s_paths << ",\n";
    os << "      \"ns_per_hop_paths\": " << s.ns_per_hop_paths << ",\n";
    os << "      \"queries_per_s\": " << s.queries_per_s << ",\n";
    os << "      \"ns_per_hop\": " << s.ns_per_hop << ",\n";
    os << "      \"speedup_vs_object\": " << s.speedup_vs_object << "\n";
    os << "    }" << (i + 1 < suites.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"peak_rss_bytes\": " << bench::peak_rss_bytes() << "\n";
  os << "}\n";
}

// ---- Baseline regression guard ----
//
// Every suite is gated on ns_per_hop by (family, n, threads), with no
// cushion: family names are distinct per (workload, dispatch) flavor, so
// a v2 file self-compares cleanly and a v1 baseline still matches its
// surviving native keys.
int check_baseline(const std::string& path,
                   const std::vector<SuiteResult>& suites) {
  std::vector<bench::GateEntry> live;
  for (const SuiteResult& s : suites) {
    live.push_back({s.family, s.n, s.threads, s.ns_per_hop, 0});
  }
  return bench::check_baseline(path, {"family", "ns_per_hop", true}, live);
}

}  // namespace
}  // namespace cpr

int main(int argc, char** argv) {
  const cpr::bench::BenchArgs args = cpr::bench::parse_bench_args(
      argc, argv, "bench_forward", "BENCH_forward.json",
      /*accept_baseline=*/true, /*accept_dispatch=*/true);
  if (!args.ok) return 2;

  const auto want = [&](const char* name) {
    return cpr::bench::suite_wanted(args.filter, name);
  };
  const std::vector<cpr::Flavor> flavors = cpr::dispatch_flavors(args.dispatch);

  // Quick mode keeps every family at n=1000 — keys a full-mode committed
  // baseline also carries, so the CI smoke run can diff against it.
  // cowen stops at 10k for the same reason as bench_json's cowen_build
  // suite.
  const std::vector<std::size_t> tree_ns =
      args.quick ? std::vector<std::size_t>{1000}
                 : std::vector<std::size_t>{1000, 10000, 50000};
  const std::vector<std::size_t> cowen_ns =
      args.quick ? std::vector<std::size_t>{1000}
                 : std::vector<std::size_t>{1000, 10000};
  const std::size_t n_queries = args.quick ? 20000 : 200000;

  std::vector<cpr::SuiteResult> suites;
  if (want("tree")) {
    for (const std::size_t n : tree_ns) {
      cpr::run_tree(n, n_queries, flavors, suites);
    }
  }
  if (want("interval")) {
    for (const std::size_t n : tree_ns) {
      cpr::run_interval(n, n_queries, flavors, suites);
    }
  }
  if (want("cowen")) {
    for (const std::size_t n : cowen_ns) {
      cpr::run_cowen(n, n_queries, flavors, suites);
    }
  }
  if (want("tz")) {
    for (const std::size_t n : cowen_ns) {
      cpr::run_tz(n, n_queries, flavors, suites);
    }
  }
  for (const auto& s : suites) {
    std::cout << s.family << " n=" << s.n << " threads=" << s.threads
              << ": " << s.ns_per_hop << " ns/hop, " << s.queries_per_s
              << " q/s (object " << s.object_queries_per_s << " q/s, "
              << s.speedup_vs_object << "x)\n";
  }

  std::ofstream out(args.out_path);
  if (!out) {
    std::cerr << "cannot open " << args.out_path << "\n";
    return 1;
  }
  cpr::write_json(out, suites, args.quick);
  std::cout << "wrote " << args.out_path << "\n";

  if (!args.baseline.empty()) {
    return cpr::check_baseline(args.baseline, suites);
  }
  return 0;
}
