// mimd_e2e — end-to-end and per-layer benchmark of the mimdd request path.
//
//   mimd_e2e --workload <cold-compile|warm-serve|mixed-n> --seed <n>
//            --seconds <s> --trace <0|1> [--run-dir <dir>]
//
// Drives an in-process PlanServer on a Unix socket under --run-dir with a
// real PlanClient (closed loop), in rounds: after an untimed warm-up
// round, each round starts a fresh server and measures a window of
// seconds/rounds on an input stream of its own.  Set-up is timed apart,
// over many back-to-back set-ups.
// Every reply is checked bit for bit against the sequential reference
// before it counts; failures of any kind are counted and make the exit
// status 1.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 runs each round
// twice, untraced and traced, on the same input stream (at half the
// length), then replays the traced rounds' inputs through the
// server-side layers, and prints the per-layer metrics plus the tracing
// overhead.  The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/jit_compiler.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace {

using perfbench::now_ns;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string run_dir = ".bench_build/run";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "mimd_e2e: " << why
            << "\nusage: mimd_e2e --workload <cold-compile|warm-serve|mixed-n>"
               " --seed <n> --seconds <s> --trace <0|1> [--run-dir <dir>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value);
      } else if (flag == "--run-dir") {
        a.run_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

/// Nearest-rank percentile (q in (0, 1]) of `v`; 0 for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Make glibc return free heap promptly, so that peak_rss_mb follows the
/// memory the program holds.  By default each per-thread arena keeps its
/// free top up to a trim threshold that grows with the largest block
/// freed, and every round's fresh server threads pick up arenas other
/// threads grew: the resident set then climbed by a seed-dependent amount
/// round after round (one cold-compile run: 12 to 49 MiB after
/// malloc_trim, with 0.3 MiB in use).  The trim threshold is pinned at
/// glibc's initial 128 KiB; the mmap threshold at the 32 MiB its dynamic
/// growth stops at, so large blocks still come from the arenas.
void pin_heap_trimming() {
#ifdef __GLIBC__
  ::mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  ::mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
#endif
}

/// Hand freed heap back to the OS between rounds, so that what one
/// round's server left fragmented does not count in the next round's
/// resident set (peak_rss_mb measures the rounds, not their history).
void release_free_heap() {
#ifdef __GLIBC__
  ::malloc_trim(0);
#endif
}

/// Start a new peak-resident-set interval: on Linux, writing 5 to
/// clear_refs resets VmHWM.  Elsewhere peak_rss_mib() stays cumulative.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// The process's peak resident set since reset_peak_rss() (VmHWM), or
/// getrusage's lifetime maximum where /proc/self/status is missing.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit});
    if (!std::isfinite(value)) finite_ = false;
  }
  /// `<name>.p50`, `<name>.p99` and `<name>.samples`.
  void add_timing(const std::string& name, const std::vector<double>& v,
                  const std::string& unit) {
    add(name + ".p50", percentile(v, 0.50), unit);
    add(name + ".p99", percentile(v, 0.99), unit);
    add(name + ".samples", static_cast<double>(v.size()), "count");
  }
  [[nodiscard]] bool finite() const { return finite_; }

  void print_table() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
  bool finite_ = true;
};

std::uint64_t quota_trips(const mimd::wire::StatsReply& s) {
  return s.frame_quota_trips + s.registry_quota_trips + s.quota_disconnects;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_failures(const std::vector<std::string>& messages) {
  for (const std::string& m : messages) std::printf("  failure: %s\n", m.c_str());
}

/// Stats-frame counters over the timed windows (sums of per-window deltas).
struct Counters {
  double hits = 0.0;
  double misses = 0.0;
  double evictions = 0.0;
  double gangs = 0.0;
  double jit_compiles = 0.0;
  double runs = 0.0;
  double native_runs = 0.0;

  void add(const mimd::wire::StatsReply& a, const mimd::wire::StatsReply& b) {
    const auto d = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(y - x);
    };
    hits += d(a.cache.hits, b.cache.hits);
    misses += d(a.cache.misses, b.cache.misses);
    evictions += d(a.cache.evictions, b.cache.evictions);
    gangs += d(a.pool_gangs, b.pool_gangs);
    jit_compiles += d(a.jit_compiles, b.jit_compiles);
    runs += d(a.runs_executed, b.runs_executed);
    native_runs += d(a.jit_native_runs, b.jit_native_runs);
  }
};

/// Everything the rounds of one pass (untraced or traced) add up to.
struct Rounds {
  std::vector<double> throughput;  ///< per round
  std::vector<double> p50_us;      ///< per round
  std::vector<double> peak_rss_mib;  ///< per round, set-up to teardown
  std::vector<double> latency_us;  ///< every round's samples
  double log_cycles = 0.0;
  std::uint64_t programs = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t repeats = 0;
  std::uint64_t quota_trips = 0;
  bool self_test_ok = true;
  Counters counters;
  std::vector<double> opt_rewrites;
  std::vector<double> opt_strands;
  /// Replay inputs, one per request and program (merge_inputs() merges
  /// equal ones).
  std::vector<perfbench::ReplayInput> inputs;
};

/// One input per distinct program (by structural hash), first use first,
/// each with the uses of all its copies.
std::vector<perfbench::ReplayInput> merge_inputs(
    std::vector<perfbench::ReplayInput> inputs) {
  std::vector<perfbench::ReplayInput> out;
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (perfbench::ReplayInput& in : inputs) {
    const auto [it, fresh] = index_of.try_emplace(in.hash, out.size());
    if (fresh) {
      out.push_back(std::move(in));
    } else {
      out[it->second].uses += in.uses;
    }
  }
  return out;
}

/// The per-layer report of a traced run; `untraced` ran the same rounds
/// on the same input streams without tracing.
void add_layer_metrics(Report& r, const perfbench::Tracer& t,
                       const Rounds& untraced, const Rounds& traced,
                       const perfbench::ReplayResult& rep) {
  using perfbench::span_values;
  struct Timed {
    const char* span;
    const char* metric;
    const char* unit;
    double scale;   // from µs (durations) or ns (per unit of work)
    bool per_work;  // ns per iteration instead of a duration
  };
  static constexpr Timed kTimed[] = {
      {"ir.parse", "ir.parse_us", "us", 1.0, false},
      {"ir.if_convert", "ir.if_convert_us", "us", 1.0, false},
      {"ir.dependence", "ir.dependence_us", "us", 1.0, false},
      {"opt.optimize", "opt.optimize_us", "us", 1.0, false},
      {"core.parallelize", "core.parallelize_us", "us", 1.0, false},
      {"graph.normalize", "graph.normalize_us", "us", 1.0, false},
      {"schedule.full_sched", "schedule.full_sched_us", "us", 1.0, false},
      {"partition.lower", "partition.lower_us", "us", 1.0, false},
      {"partition.compile", "partition.compile_us", "us", 1.0, false},
      {"partition.hash", "partition.hash_us", "us", 1.0, false},
      {"wire.encode", "wire.encode_us", "us", 1.0, false},
      {"plan_client.submit", "plan_client.submit_rtt_us", "us", 1.0, false},
      {"plan_client.run", "plan_client.run_rtt_us", "us", 1.0, false},
      {"plan_client.drop", "plan_client.drop_rtt_us", "us", 1.0, false},
      {"plan_client.stats", "plan_client.stats_rtt_us", "us", 1.0, false},
      {"executor.run", "executor.ns_per_iter", "ns", 1.0, true},
      {"jit_compiler.compile", "jit_compiler.compile_ms", "ms", 1e-3, false},
      {"jit_compiler.run", "jit_compiler.native_ns_per_iter", "ns", 1.0, true},
  };
  for (const Timed& m : kTimed) {
    std::vector<double> v = span_values(t, m.span, m.per_work);
    for (double& x : v) x *= m.scale;
    r.add_timing(m.metric, v, m.unit);
  }
  r.add_timing("request.self_us", perfbench::self_times_us(t, "request"), "us");

  r.add("opt.rewrites", mean(traced.opt_rewrites), "count");
  r.add("opt.strands", mean(traced.opt_strands), "count");
  r.add("schedule.pattern_ratio", mean(rep.pattern_found), "ratio");
  r.add("partition.ops", mean(rep.ops), "count");
  r.add("wire.submit_bytes", mean(rep.submit_bytes), "bytes");
  r.add("wire.reply_bytes", mean(rep.reply_bytes), "bytes");

  const Counters& c = traced.counters;
  r.add("plan_cache.hit_ratio", ratio(c.hits, c.hits + c.misses), "ratio");
  r.add("plan_cache.evictions", c.evictions, "count");
  r.add("worker_pool.gangs", c.gangs, "count");
  r.add("jit_compiler.compiles", c.jit_compiles, "count");
  r.add("jit_compiler.native_run_ratio", ratio(c.native_runs, c.runs), "ratio");

  // Service overhead: the run round trip minus an in-process run of the
  // same plans on the tier the server mostly used.
  const bool server_native = ratio(c.native_runs, c.runs) >= 0.5;
  const std::vector<double> inproc = span_values(
      t, server_native ? "jit_compiler.run" : "executor.run", false);
  r.add("plan_server.overhead_us",
        inproc.empty() ? 0.0
                       : percentile(span_values(t, "plan_client.run", false),
                                    0.5) -
                             percentile(inproc, 0.5),
        "us");

  static constexpr const char* kLayers[] = {
      "ir",        "opt",  "core",        "graph",    "schedule",
      "partition", "wire", "plan_client", "executor", "jit_compiler"};
  for (const char* layer : kLayers) {
    const auto it = t.errors().find(layer);
    r.add(std::string(layer) + ".errors",
          it == t.errors().end() ? 0.0 : static_cast<double>(it->second),
          "count");
  }

  // Tracing overhead from the paired rounds: round r ran untraced, then
  // traced, on the same input stream, each on a fresh server.
  std::vector<double> diff_us;
  std::vector<double> diff_ratio;
  for (std::size_t k = 0;
       k < std::min(untraced.p50_us.size(), traced.p50_us.size()); ++k) {
    diff_us.push_back(traced.p50_us[k] - untraced.p50_us[k]);
    diff_ratio.push_back(ratio(diff_us.back(), untraced.p50_us[k]));
  }
  r.add("trace.untraced_latency_p50_us", percentile(untraced.p50_us, 0.5), "us");
  r.add("trace.traced_latency_p50_us", percentile(traced.p50_us, 0.5), "us");
  r.add("trace.overhead_us", percentile(diff_us, 0.5), "us");
  r.add("trace.overhead_ratio", percentile(diff_ratio, 0.5), "ratio");
  r.add("trace.spans", static_cast<double>(t.spans().size()), "count");
  r.add("trace.inputs", static_cast<double>(traced.inputs.size()), "count");
  r.add("trace.replayed", static_cast<double>(rep.replayed), "count");
  r.add("trace.fidelity_mismatches",
        static_cast<double>(rep.fidelity_mismatches), "count");
}

/// One round: a fresh service, then a window of `seconds` on input
/// stream `stream`, added to `out`.  Traced rounds also time 40 Stats
/// round trips.
void run_round(perfbench::Workload& workload, perfbench::Tracer& tracer,
               double seconds, std::uint64_t stream, const char* label,
               const std::string& socket, Rounds& out) {
  perfbench::WindowResult w;
  reset_peak_rss();
  {
    perfbench::Service svc(socket);
    workload.warm(svc);
    w = workload.run_window(svc, tracer, seconds, stream);
    if (tracer.enabled()) {
      // A protocol-only round trip: Stats does no plan work server-side.
      for (int k = 0; k < 40; ++k) {
        perfbench::Tracer::Scope s(tracer, "plan_client.stats");
        (void)svc.client().stats();
      }
    }
    out.quota_trips += quota_trips(svc.client().stats());
  }
  out.peak_rss_mib.push_back(peak_rss_mib());
  release_free_heap();
  const auto completed = static_cast<double>(w.latency_us.size());
  out.throughput.push_back(ratio(completed, w.seconds));
  out.p50_us.push_back(percentile(w.latency_us, 0.50));
  std::printf("%sround %llu: %zu replies in %.3f s, %.3f req/s, p50 %.1f us, "
              "p99 %.1f us, peak RSS %.1f MiB, %llu repeats; oracle "
              "self-test: %s (%s)\n",
              label, static_cast<unsigned long long>(stream),
              w.latency_us.size(), w.seconds, out.throughput.back(),
              out.p50_us.back(), percentile(w.latency_us, 0.99),
              out.peak_rss_mib.back(),
              static_cast<unsigned long long>(w.repeats),
              w.self_test.passed ? "pass" : "FAIL", w.self_test.detail.c_str());
  print_failures(w.failure_messages);
  out.latency_us.insert(out.latency_us.end(), w.latency_us.begin(),
                        w.latency_us.end());
  out.log_cycles += w.log_cycles;
  out.programs += w.programs;
  out.attempted += w.attempted;
  out.failed += w.failed;
  out.repeats += w.repeats;
  out.self_test_ok = out.self_test_ok && w.self_test.passed;
  out.counters.add(w.before, w.after);
  out.opt_rewrites.insert(out.opt_rewrites.end(), w.opt_rewrites.begin(),
                          w.opt_rewrites.end());
  out.opt_strands.insert(out.opt_strands.end(), w.opt_strands.begin(),
                         w.opt_strands.end());
  std::move(w.inputs.begin(), w.inputs.end(), std::back_inserter(out.inputs));
}

/// A burst of back-to-back set-ups (server start, connect and v2
/// negotiation, the workload's warm-up), each timed alone and appended to
/// `out`.  All are taken the same way: an untimed server start leads the
/// burst, so what precedes every timed set-up is a service's teardown,
/// never a round's.  At least one (warm-serve's set-up waits for six JIT
/// compiles), then more until `max_count` or until `budget_s` has gone by.
void time_setups(perfbench::Workload& workload,
                 const std::function<std::string()>& socket,
                 std::size_t max_count, double budget_s,
                 std::vector<double>& out) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  { perfbench::Service leader(socket()); }
  for (std::size_t k = 0; k < max_count && (k == 0 || now_ns() < end); ++k) {
    const std::int64_t t0 = now_ns();
    perfbench::Service svc(socket());
    workload.warm(svc);
    out.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
}

int run(const Args& args) {
  auto workload = perfbench::make_workload(args.workload, args.seed);
  if (!workload) usage("unknown workload " + args.workload);
  std::filesystem::create_directories(args.run_dir);

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  // Probing the toolchain is host metadata, not set-up: a daemon pays it
  // once per process, and every set-up below would share one probe.
  const std::string jit = mimd::jit_available()
                              ? std::string("available")
                              : "unavailable (" +
                                    mimd::jit_unavailable_reason() + ")";
  std::printf("host: nproc=%u compiler=\"%s\" flags=\"%s\" jit=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_FLAGS, jit.c_str());
  std::printf("server: %s\n", perfbench::Service::describe().c_str());
  std::fflush(stdout);

  workload->prepare();
  int sockets = 0;
  const auto socket = [&] {
    return args.run_dir + "/e2e-" + std::to_string(::getpid()) + "-" +
           std::to_string(sockets++) + ".sock";
  };

  // An untimed warm-up round first (input stream 0): the process's
  // one-time costs (page faults, the C compiler's first start) are not
  // the service's.  Its requests are checked and counted like every other.
  constexpr int kRounds = 7;
  perfbench::Tracer untraced(false);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t trips = 0;
  bool self_test_ok = true;
  const auto tally = [&](const Rounds& r) {
    attempted += r.attempted;
    failed += r.failed;
    trips += r.quota_trips;
    self_test_ok = self_test_ok && r.self_test_ok;
  };
  Rounds warm_up;
  run_round(*workload, untraced, args.seconds / 10, 0, "warm-up ", socket(),
            warm_up);
  tally(warm_up);

  Report report;
  if (args.trace == 0) {
    // setup_s is the median of the bursts of set-ups timed before each
    // round: spread over the run like the rounds, so a slow moment of the
    // host moves it no more than it moves them.
    std::vector<double> setups;
    double setups_wall_s = 0.0;
    Rounds base;
    for (int r = 1; r <= kRounds; ++r) {
      const std::int64_t t0 = now_ns();
      time_setups(*workload, socket, 60, args.seconds / (10 * kRounds), setups);
      setups_wall_s += static_cast<double>(now_ns() - t0) / 1e9;
      run_round(*workload, untraced, args.seconds / kRounds, r, "", socket(),
                base);
    }
    tally(base);
    const Counters& c = base.counters;
    std::printf("set-up: median of %zu in %.3f s (p10 %.6f s, p90 %.6f s); "
                "latency: %zu samples; failure_ratio %.6f fraction (%llu/%llu)\n",
                setups.size(), setups_wall_s, percentile(setups, 0.1),
                percentile(setups, 0.9), base.latency_us.size(),
                ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::printf("plan cache: hit ratio %.4f (%.0f of %.0f lookups), repeat "
                "share %.4f; jit: %.0f compiles, %.0f of %.0f runs native\n",
                ratio(c.hits, c.hits + c.misses), c.hits, c.hits + c.misses,
                ratio(static_cast<double>(base.repeats),
                      static_cast<double>(base.attempted)),
                c.jit_compiles, c.native_runs, c.runs);
    report.add("setup_s", percentile(setups, 0.5), "s");
    report.add("latency_p50_us", percentile(base.p50_us, 0.5), "us");
    report.add("latency_p99_us", percentile(base.latency_us, 0.99), "us");
    report.add("throughput_rps", percentile(base.throughput, 0.5), "req/s");
    report.add("predicted_cycles_per_iter",
               base.programs == 0
                   ? 0.0
                   : std::exp(base.log_cycles /
                              static_cast<double>(base.programs)),
               "cycles");
    report.add("peak_rss_mb", percentile(base.peak_rss_mib, 0.5), "MiB");
  } else {
    // Each round runs untraced and traced on the same input stream, each
    // on a fresh server, at half the length (the pairs give the tracing
    // overhead; which of the two goes first alternates, so an order effect
    // cancels out); the replay gets a quarter of the run's seconds.
    perfbench::Tracer tracer(true);
    Rounds base;
    Rounds traced;
    const double half = args.seconds / (2 * kRounds);
    for (int r = 1; r <= kRounds; ++r) {
      if (r % 2 == 1) {
        run_round(*workload, untraced, half, r, "", socket(), base);
      }
      run_round(*workload, tracer, half, r, "traced ", socket(), traced);
      if (r % 2 == 0) {
        run_round(*workload, untraced, half, r, "", socket(), base);
      }
    }
    tally(base);
    tally(traced);
    traced.inputs = merge_inputs(std::move(traced.inputs));
    const std::size_t jit_samples = args.workload == "warm-serve" ? 6 : 3;
    const perfbench::ReplayResult rep =
        perfbench::replay(traced.inputs, tracer, jit_samples, args.seconds / 4);
    attempted += rep.attempted;
    failed += rep.failed;
    print_failures(rep.failure_messages);
    std::printf("replay: %zu inputs, %zu of them through the server-side "
                "layers, %zu fidelity mismatches\n",
                traced.inputs.size(), rep.replayed, rep.fidelity_mismatches);
    add_layer_metrics(report, tracer, base, traced, rep);
  }
  std::printf("oracle self-test: %s in every round; quota trips: %llu\n",
              self_test_ok ? "pass" : "FAIL",
              static_cast<unsigned long long>(trips));
  report.print_table();
  const bool correct =
      failed == 0 && self_test_ok && trips == 0 && report.finite();
  report.print_json(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  pin_heap_trimming();
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "mimd_e2e: " << e.what() << "\n";
    return 1;
  }
}
