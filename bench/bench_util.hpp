// Shared helpers for the reproduction benches: fixed-seed instance
// generation, wall-clock/RSS probes, CLI parsing, and the JSON metadata
// header every machine-readable BENCH_*.json carries. Every bench prints
// its report from main() with deterministic seeds so runs are comparable,
// and then runs any registered google-benchmark microbenchmarks.
#pragma once

#include "algebra/algebra.hpp"
#include "graph/generators.hpp"
#include "util/hugepage.hpp"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

namespace cpr::bench {

// ---- Seeded instances ----

template <RoutingAlgebra A>
EdgeMap<typename A::Weight> sampled_weights(const A& alg, const Graph& g,
                                            Rng& rng) {
  EdgeMap<typename A::Weight> w(g.edge_count());
  for (auto& x : w) x = alg.sample(rng);
  return w;
}

inline std::vector<std::size_t> default_sweep() {
  return {32, 64, 128, 256, 512};
}

// Connected Erdős–Rényi instance with mean degree ~6, fixed per (n, seed).
inline Graph sweep_graph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed * 7919 + n);
  const double p = std::min(1.0, 6.0 / static_cast<double>(n - 1));
  return erdos_renyi_connected(n, p, rng);
}

// Sweep graph plus uniform integer weights in [1, cap] — the instance the
// JSON trajectory benches (bench_json, bench_forward) and bench_cowen
// time against, fixed per n.
struct SweepInstance {
  Graph g;
  EdgeMap<std::uint64_t> w;
};

inline SweepInstance sweep_instance(std::size_t n, std::uint64_t cap = 1024) {
  SweepInstance inst;
  inst.g = sweep_graph(n, 3);
  Rng rng(n);
  inst.w = random_integer_weights(inst.g, 1, cap, rng);
  return inst;
}

// Sweep graph plus algebra-sampled weights — the common prologue of the
// report benches. The returned rng is in the state the weight sampling
// left it, so callers keep drawing from it (queries, scheme builds)
// exactly as before the helper existed; outputs stay bit-identical.
template <RoutingAlgebra A>
struct AlgebraInstance {
  Rng rng;
  Graph g;
  EdgeMap<typename A::Weight> w;
};

template <RoutingAlgebra A>
AlgebraInstance<A> algebra_instance(const A& alg, std::size_t n,
                                    std::uint64_t graph_seed,
                                    std::uint64_t rng_seed) {
  AlgebraInstance<A> inst{Rng(rng_seed), sweep_graph(n, graph_seed), {}};
  inst.w = sampled_weights(alg, inst.g, inst.rng);
  return inst;
}

// ---- Timing / process probes ----

inline double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

inline std::size_t peak_rss_bytes() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // Linux: KiB
}

// Instantaneous resident set (VmRSS) in bytes. getrusage's ru_maxrss is a
// process-lifetime high-water mark, so a cheap early suite can hide an
// expensive later one behind it; per-suite memory attribution samples the
// live value instead.
inline std::size_t current_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

// Samples VmRSS on a background thread while a measured phase runs and
// reports the highest value seen. The construction benches allocate and
// free their transient state inside one timed call, so before/after
// deltas alone would miss the in-flight peak entirely. Sampling cadence
// is 2 ms — coarse, but construction peaks are plateaus (per-source state
// lives for the whole sweep), not microsecond spikes. Measurement only:
// the sampled phase's outputs are unaffected.
class RssPeakSampler {
 public:
  RssPeakSampler()
      : baseline_(current_rss_bytes()), peak_(baseline_), worker_([this] {
          while (!stop_.load(std::memory_order_relaxed)) {
            const std::size_t rss = current_rss_bytes();
            if (rss > peak_) peak_ = rss;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }) {}

  // Joins the sampler and returns the peak growth over the construction,
  // max(samples, final) - baseline, clamped at 0.
  std::size_t stop_delta() {
    stop_.store(true, std::memory_order_relaxed);
    worker_.join();
    const std::size_t final_rss = current_rss_bytes();
    if (final_rss > peak_) peak_ = final_rss;
    return peak_ > baseline_ ? peak_ - baseline_ : 0;
  }

  ~RssPeakSampler() {
    if (worker_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      worker_.join();
    }
  }

 private:
  std::size_t baseline_;
  std::size_t peak_;
  std::atomic<bool> stop_{false};
  std::thread worker_;
};

// ---- JSON report plumbing ----

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// Build provenance recorded in every BENCH_*.json: which commit and build
// flavor produced the numbers, and on what silicon. The SHA and build
// type are baked in at configure time (bench/CMakeLists.txt); the CPU
// model and feature set are read at runtime so a binary copied between
// hosts stays honest. The cpu_features block is what makes forward-path
// baselines comparable across machines: a number measured with AVX2 +
// huge pages is not a regression bar for a machine without them.
struct BenchMeta {
  std::string git_sha;
  std::string build_type;
  std::string cpu_model;
  bool avx2 = false;
  bool avx512f = false;
  std::string thp_mode;  // transparent_hugepage: always|madvise|never|unavailable

  static BenchMeta collect() {
    BenchMeta m;
#ifdef CPR_GIT_SHA
    m.git_sha = CPR_GIT_SHA;
#else
    m.git_sha = "unknown";
#endif
#ifdef CPR_BUILD_TYPE
    m.build_type = CPR_BUILD_TYPE;
#else
    m.build_type = "unspecified";
#endif
    if (m.build_type.empty()) m.build_type = "unspecified";
    m.cpu_model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      if (line.rfind("model name", 0) == 0) {
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) {
          std::size_t start = colon + 1;
          while (start < line.size() && line[start] == ' ') ++start;
          m.cpu_model = line.substr(start);
        }
        break;
      }
    }
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    m.avx2 = __builtin_cpu_supports("avx2") != 0;
    m.avx512f = __builtin_cpu_supports("avx512f") != 0;
#endif
    m.thp_mode = transparent_hugepage_mode();
    return m;
  }
};

// Emits the shared metadata header fields (with a trailing comma); the
// caller has printed "{" and follows with its own schema-specific fields.
inline void write_json_meta(std::ostream& os, const BenchMeta& meta) {
  os << "  \"meta\": {\n";
  os << "    \"git_sha\": \"" << json_escape(meta.git_sha) << "\",\n";
  os << "    \"build_type\": \"" << json_escape(meta.build_type) << "\",\n";
  os << "    \"cpu_model\": \"" << json_escape(meta.cpu_model) << "\",\n";
  os << "    \"cpu_features\": {\n";
  os << "      \"avx2\": " << (meta.avx2 ? "true" : "false") << ",\n";
  os << "      \"avx512f\": " << (meta.avx512f ? "true" : "false") << ",\n";
  os << "      \"transparent_hugepage\": \"" << json_escape(meta.thp_mode)
     << "\"\n";
  os << "    }\n";
  os << "  },\n";
}

// ---- CLI parsing shared by the JSON trajectory benches ----

struct BenchArgs {
  bool ok = true;            // false: unknown argument, usage printed
  bool quick = false;        // shrink sweeps for CI smoke runs
  std::string filter;        // keep suites whose name contains this
  std::string out_path;      // JSON output path
  std::string baseline;      // committed baseline to regress against
  std::string dispatch;      // forward-path dispatch: auto|scalar|simd
};

inline BenchArgs parse_bench_args(int argc, char** argv,
                                  const char* bench_name,
                                  std::string default_out,
                                  bool accept_dispatch = false) {
  BenchArgs a;
  a.out_path = std::move(default_out);
  a.dispatch = "auto";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      a.quick = true;
    } else if (arg.rfind("--filter=", 0) == 0) {
      a.filter = arg.substr(9);
    } else if (arg.rfind("--out=", 0) == 0) {
      a.out_path = arg.substr(6);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      a.baseline = arg.substr(11);
    } else if (accept_dispatch && arg.rfind("--dispatch=", 0) == 0) {
      a.dispatch = arg.substr(11);
      if (a.dispatch != "auto" && a.dispatch != "scalar" &&
          a.dispatch != "simd") {
        std::cerr << "bad --dispatch value: " << a.dispatch
                  << " (want auto|scalar|simd)\n";
        a.ok = false;
        return a;
      }
    } else {
      std::cerr << "unknown argument: " << arg << "\n"
                << "usage: " << bench_name
                << " [--quick] [--filter=substr] [--out=path] [--baseline=path]"
                << (accept_dispatch ? " [--dispatch=auto|scalar|simd]" : "")
                << "\n";
      a.ok = false;
      return a;
    }
  }
  return a;
}

// Suite-name filter predicate: empty filter keeps everything.
inline bool suite_wanted(const std::string& filter, const char* name) {
  return filter.empty() ||
         std::string(name).find(filter) != std::string::npos;
}

// ---- Baseline regression gate (CI bench-smoke) ----
//
// The JSON benches gate chosen suites against a committed BENCH_*.json
// by self-parsing it: every writer emits one object per suite with its
// fields in a fixed order, so a forward scan from each occurrence of the
// key field up to the next one recovers the fields without a JSON
// library. Needles are exact: "\"ns_per_hop\":" does not match
// "ns_per_hop_paths".

struct BaselineSpec {
  std::string key_field;    // "name", or "family" in BENCH_forward.json
  std::string metric;       // gated field; lower is better
  bool by_threads = false;  // match on "threads" as well as (key, n)
};

// One gated suite: a parsed baseline entry, or a live measurement
// carrying the absolute cushion it gets on top of the ratio (timer and
// scheduler jitter dominate small quick-mode numbers).
struct GateEntry {
  std::string key;
  std::size_t n = 0;
  std::size_t threads = 0;
  double value = 0;
  double noise_floor = 0;
};

inline bool scan_number(const std::string& text, std::size_t from,
                        std::size_t until, const std::string& key,
                        double* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos || at >= until) return false;
  *out = std::strtod(text.c_str() + at + needle.size(), nullptr);
  return true;
}

// Every suite object of `path` carrying n (and threads) and the metric;
// empty when the file is missing or carries none.
inline std::vector<GateEntry> parse_baseline(const std::string& path,
                                             const BaselineSpec& spec) {
  std::vector<GateEntry> entries;
  std::ifstream in(path);
  if (!in) return entries;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string key = "\"" + spec.key_field + "\":";
  std::size_t at = text.find(key);
  while (at != std::string::npos) {
    const std::size_t next = text.find(key, at + key.size());
    const std::size_t until = next == std::string::npos ? text.size() : next;
    const std::size_t q0 = text.find('"', at + key.size());
    const std::size_t q1 =
        q0 == std::string::npos ? std::string::npos : text.find('"', q0 + 1);
    double n = 0, threads = 0, value = 0;
    if (q1 != std::string::npos && q1 < until &&
        scan_number(text, q1, until, "n", &n) &&
        (!spec.by_threads ||
         scan_number(text, q1, until, "threads", &threads)) &&
        scan_number(text, q1, until, spec.metric, &value)) {
      entries.push_back({text.substr(q0 + 1, q1 - q0 - 1),
                         static_cast<std::size_t>(n),
                         static_cast<std::size_t>(threads), value, 0});
    }
    at = next;
  }
  return entries;
}

// Compares each live entry with the baseline entry of the same key, n
// (and threads): it regresses when value > baseline * 1.25 + its noise
// floor. Returns the exit code — 1 on any regression, on a missing or
// empty baseline, and when no live entry matched at all.
inline int check_baseline(const std::string& path, const BaselineSpec& spec,
                          const std::vector<GateEntry>& live) {
  constexpr double kMaxRegression = 1.25;  // fail beyond +25%
  const std::vector<GateEntry> base = parse_baseline(path, spec);
  if (base.empty()) {
    std::cerr << "baseline " << path << " is missing or carries no \""
              << spec.metric << "\" entries\n";
    return 1;
  }
  std::size_t matched = 0, regressed = 0;
  for (const GateEntry& s : live) {
    for (const GateEntry& b : base) {
      if (b.key != s.key || b.n != s.n || b.threads != s.threads ||
          b.value <= 0) {
        continue;
      }
      ++matched;
      const double limit = b.value * kMaxRegression + s.noise_floor;
      const bool bad = s.value > limit;
      regressed += bad ? 1 : 0;
      std::ostream& os = bad ? std::cerr : std::cout;
      os << (bad ? "REGRESSION " : "baseline ok ") << s.key << " n=" << s.n;
      if (spec.by_threads) os << " threads=" << s.threads;
      os << ": " << spec.metric << " " << s.value << " vs baseline " << b.value
         << " (limit " << limit << ")\n";
      break;
    }
  }
  if (matched == 0) {
    std::cerr << "baseline " << path << ": no entry matches this run\n";
    return 1;
  }
  std::cout << "baseline check: " << matched << " entries compared, "
            << regressed << " regressed\n";
  return regressed == 0 ? 0 : 1;
}

}  // namespace cpr::bench
