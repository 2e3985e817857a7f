// mimdc — the command-line front end: loop source in, parallelized MIMD
// program out.
//
//   mimdc [options] <loop-file | ->
//     -p <N>      processors                     (default 4)
//     -k <N>      communication cost estimate    (default 1)
//     -n <N>      iterations to materialize      (default 64)
//     --fold      use the Section-3 folding heuristic for non-Cyclic nodes
//     --dot       print the dependence graph (Graphviz, classified colors)
//     --schedule  print the first cycles of the combined schedule
//     --code      print the PARBEGIN pseudo-code        (default)
//     --c         print a compilable C11+pthreads program: the native
//                 kernel the JIT loads (slot arrays + single-use SPSC
//                 buffers, lowered from the same CompiledProgram --run
//                 executes) plus a main() that runs one pthread per
//                 compiled thread and self-checks against a sequential
//                 recompute (compiled stats go to stderr)
//     --compare   print the comparison against DOACROSS
//     --run       execute the partitioned program on real threads and
//                 validate bit-for-bit against sequential execution
//     --batch <dir>
//                 parse every *.loop file in <dir>, push all loops through
//                 ONE shared plan cache and persistent worker pool (the
//                 plan service), validate each bit-for-bit against
//                 sequential, and report cache hits/misses + throughput.
//                 Standalone mode: replaces the per-loop output modes.
//                 Exits with an error if the directory holds no .loop
//                 files.
//     --connect <endpoint>
//                 route execution through a running mimdd daemon instead
//                 of compiling in-process: programs are submitted over the
//                 daemon's socket (a Unix path, unix:<path>, host:port, or
//                 tcp:host:port) and run on its shared plan cache + worker
//                 pool, so repeated invocations amortize compilation
//                 across processes.  Applies to --run (implied when no
//                 other mode is requested) and to --batch, where it is a
//                 one-shard --fleet (same report); results are still
//                 validated bit-for-bit against local sequential
//                 execution.
//     --fleet <shards.txt>
//                 like --connect, but across a FLEET of daemons: the file
//                 lists one endpoint per line ('#' comments allowed) and
//                 each loop is consistent-hashed to a shard by structural
//                 hash (runtime/shard_router.hpp), so identical structures
//                 always hit the same shard's warm cache and the fleet
//                 compiles each unique structure exactly once.  Batch mode
//                 only.  After the run, prints per-shard occupancy, hit
//                 rates, and hostile-tenant quota counters plus fleet
//                 totals.
//     --pin       run on a gang (one pool worker per compiled thread)
//                 instead of round-robin on one thread, and pin compiled
//                 thread i to CPU (slice + i mod cores) during
//                 --run/--batch execution (Linux; no-op elsewhere).
//                 Pinning is a run-time knob with no meaning for emitted
//                 C, so outside --batch it always implies --run

//     --no-check  with --c: skip the emitted sequential self-validation;
//                 the artifact becomes a standalone timing benchmark
//     --opt=<off|O1>
//                 rewrite mid-end (src/opt) between parsing and
//                 partitioning: O1 (the default) folds constants,
//                 strength-reduces, removes dead code (loops with an
//                 `out` clause) and fissions independent strands into
//                 separately scheduled loops; off hands the parsed
//                 program straight to the partitioner.  The level is
//                 part of the plan-cache key, locally and daemon-side.
//                 --c emits one artifact per source file, so it refuses
//                 a loop that fission splits into several strands.
//     --dump-passes
//                 print per-pass rewrite stats (rounds to fixed point,
//                 rewrites per pass, strands) to stderr
//     --jit       with --run: compile the plan to a native shared-object
//                 kernel (runtime/jit_compiler.hpp) and execute that in
//                 place of the interpreter, still validated bit-for-bit
//                 against sequential; falls back to interpreted execution
//                 (with a note) when no C toolchain is available.  With
//                 --batch: pre-warm every loop's kernel through the
//                 background compiler before the timed run.  With
//                 --connect/--fleet the *daemon* decides (mimdd --jit:
//                 a plan's compile is queued once its interpreted runs
//                 have taken as long as a compile); mimdc surfaces its
//                 native/interpreted counters.
//
// Example:
//   echo 'for i:
//     S[i] = S[i-1] + X[i]
//     if S[i] > 10 { T[i] = S[i] * 2 }' | mimdc -p 2 -k 1 --compare -
//   mimdc -p 2 --batch examples/loops
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <chrono>

#include "core/mimd.hpp"
#include "ir/dependence.hpp"
#include "ir/ifconvert.hpp"
#include "ir/parser.hpp"
#include "opt/pipeline.hpp"
#include "partition/c_codegen.hpp"
#include "runtime/executor.hpp"
#include "runtime/jit_compiler.hpp"
#include "runtime/plan_client.hpp"
#include "runtime/plan_service.hpp"
#include "runtime/shard_router.hpp"

namespace {

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::cerr << "mimdc: " << msg << "\n";
  std::cerr << "usage: mimdc [-p N] [-k N] [-n N] [--fold] [--dot] "
               "[--schedule] [--code] [--c] [--no-check] [--compare] "
               "[--run] [--jit] [--pin] [--connect <endpoint>] "
               "[--opt=<off|O1>] [--dump-passes] <file|->\n"
               "       mimdc [-p N] [-k N] [-n N] [--fold] [--jit] [--pin] "
               "[--connect <endpoint> | --fleet <shards.txt>] "
               "[--opt=<off|O1>] [--dump-passes] --batch <dir>\n";
  std::exit(2);
}

std::string read_all(const std::string& path) {
  std::ostringstream buf;
  if (path == "-") {
    buf << std::cin.rdbuf();
  } else {
    std::ifstream f(path);
    if (!f) usage(("cannot open " + path).c_str());
    buf << f.rdbuf();
  }
  return buf.str();
}

/// The front half of the pipeline, shared by --batch and the single-file
/// path: parse, if-convert, run the rewrite mid-end (opt/pipeline.hpp).
/// Fission can split one source into several independent strands; each
/// strand is then analyzed and parallelized on its own.
struct FrontEndResult {
  std::vector<mimd::ir::Loop> strands;
  mimd::opt::PipelineResult pipe;  ///< per-pass stats for --dump-passes
};

FrontEndResult front_end(const std::string& source, mimd::OptLevel level) {
  using namespace mimd;
  const ir::Loop raw = ir::parse_loop(source);
  const ir::Loop loop = raw.has_control_flow() ? ir::if_convert(raw) : raw;
  FrontEndResult fe;
  fe.pipe = opt::optimize(loop, opt::OptOptions{level});
  fe.strands = fe.pipe.loops;
  return fe;
}

/// --batch's back end for one strand: analyze + parallelize, no
/// pseudo-code rendering.  The single-file path keeps its own inline
/// copy of this pipeline because it also reports the intermediate
/// classification/schedule stats on stderr.
mimd::ParallelizeResult parallelize_strand(const mimd::ir::Loop& loop,
                                           int procs, int k, std::int64_t n,
                                           bool fold) {
  using namespace mimd;
  const ir::DependenceResult dep = ir::analyze_dependences(loop);
  ParallelizeOptions opts;
  opts.machine = Machine{procs, k};
  opts.iterations = n;
  opts.schedule.flow_strategy =
      fold ? FlowStrategy::Fold : FlowStrategy::SeparateProcessors;
  opts.emit_code = false;
  return parallelize(dep.graph, opts);
}

/// --fleet's endpoint list: one wire endpoint per line, '#' comments and
/// blank lines skipped.
std::vector<std::string> read_shards_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) usage(("cannot open shards file " + path).c_str());
  std::vector<std::string> endpoints;
  std::string line;
  while (std::getline(f, line)) {
    const std::size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos || line[b] == '#') continue;
    const std::size_t e = line.find_last_not_of(" \t\r");
    endpoints.push_back(line.substr(b, e - b + 1));
  }
  if (endpoints.empty()) {
    usage(("no endpoints in shards file " + path).c_str());
  }
  return endpoints;
}

/// --batch <dir>: every *.loop file in the directory is one loop; all of
/// them go through one PlanCache + WorkerPool concurrently (the plan
/// service), each validated bit-for-bit against sequential execution —
/// the same oracle --run applies per loop.  With `endpoints` (--fleet's
/// shards, or the one --connect daemon) the caches and pools are those
/// daemons' instead of in-process ones — each loop consistent-hashed to
/// its shard.
int run_batch_mode(const std::string& dir, int procs, int k, std::int64_t n,
                   bool fold, bool pin, bool jit,
                   const mimd::CompileOptions& copts, bool dump_passes,
                   const std::vector<std::string>& endpoints) {
  using namespace mimd;
  namespace fs = std::filesystem;

  std::vector<std::string> files;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file() && e.path().extension() == ".loop") {
      files.push_back(e.path().string());
    }
  }
  if (ec) usage(("cannot read directory " + dir).c_str());
  if (files.empty()) {
    // A batch over nothing is almost always a mistyped directory; fail
    // loudly instead of printing an empty report that looks like success.
    std::cerr << "mimdc: no .loop files in " << dir << "\n";
    return 1;
  }
  std::sort(files.begin(), files.end());

  // One job per strand: fission (opt/fission.hpp) may split a source
  // file into several independently scheduled loops, each validated
  // against its own sequential reference below.
  std::vector<BatchJob> jobs;
  std::vector<std::string> labels;
  jobs.reserve(files.size());
  for (const std::string& f : files) {
    const FrontEndResult fe = front_end(read_all(f), copts.opt);
    if (dump_passes) {
      std::cerr << fs::path(f).filename().string() << ":\n"
                << mimd::opt::format_stats(fe.pipe);
    }
    for (std::size_t si = 0; si < fe.strands.size(); ++si) {
      const ParallelizeResult r =
          parallelize_strand(fe.strands[si], procs, k, n, fold);
      BatchJob job;
      job.program = r.program;
      job.graph = r.normalized.graph;
      job.iterations = r.normalized_iterations;
      job.copts = copts;
      job.ropts.pin_threads = pin;
      jobs.push_back(std::move(job));
      std::string label = fs::path(f).filename().string();
      if (fe.strands.size() > 1) {
        label += "[" + std::to_string(si + 1) + "/" +
                 std::to_string(fe.strands.size()) + "]";
      }
      labels.push_back(std::move(label));
    }
  }

  std::vector<ExecutionResult> results;
  PlanCache::Stats cache_stats;
  double wall_seconds = 0.0;
  std::string workers_note;
  std::string jit_note;
  std::string fleet_report;
  const bool remote = !endpoints.empty();
  if (remote) {
    ShardRouterOptions shard_opts;
    shard_opts.endpoints = endpoints;
    shard_opts.timeout_ms = 30000;
    ShardRouter router(shard_opts);
    std::vector<ShardJob> shard_jobs;
    shard_jobs.reserve(jobs.size());
    for (const BatchJob& job : jobs) {
      ShardJob sj;
      sj.program = job.program;
      sj.graph = job.graph;
      sj.copts = job.copts;
      sj.iterations = job.iterations;
      sj.run_opts.pin_threads = pin;
      shard_jobs.push_back(std::move(sj));
    }
    const auto t0 = std::chrono::steady_clock::now();
    results = router.run_jobs(shard_jobs);
    wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    // Fleet observability: per-shard occupancy / hit rates / quota trips,
    // then fleet totals folded into the standard summary line.
    std::size_t pool_workers_total = 0, shards_alive = 0;
    std::uint64_t quota_trips = 0, quota_disconnects = 0, backoffs = 0;
    std::uint64_t jit_native = 0, jit_interp = 0, jit_kernels = 0,
                  jit_dropped = 0, one_thread = 0, gang = 0;
    bool any_jit = false;
    std::ostringstream fleet;
    const std::vector<ShardStatsRow> rows = router.fleet_stats();
    for (std::size_t s = 0; s < rows.size(); ++s) {
      const ShardStatsRow& row = rows[s];
      fleet << "shard " << s << "  : " << row.endpoint;
      if (!row.alive) {
        fleet << "  DEAD\n";
        continue;
      }
      ++shards_alive;
      const auto& st = row.stats;
      const std::uint64_t lookups = st.cache.hits + st.cache.misses;
      fleet << "  " << st.cache.entries << "/" << st.cache.capacity
            << " plans, " << st.cache.hits << "/" << lookups << " hits";
      if (lookups > 0) {
        fleet << " (" << (100.0 * static_cast<double>(st.cache.hits) /
                          static_cast<double>(lookups))
              << "%)";
      }
      fleet << ", " << st.runs_executed << " runs (" << st.one_thread_runs
            << " one-thread, " << st.gang_runs << " gang), "
            << (st.frame_quota_trips + st.registry_quota_trips)
            << " quota trips, " << st.quota_disconnects << " disconnects";
      if (st.jit_enabled != 0) {
        any_jit = true;
        jit_native += st.jit_native_runs;
        jit_interp += st.jit_interpreted_runs;
        jit_kernels += st.jit_compiles;
        jit_dropped += st.jit_dropped_kernels;
        fleet << ", " << st.jit_native_runs << " jit-native runs, "
              << st.jit_dropped_kernels << " kernels dropped";
      }
      one_thread += st.one_thread_runs;
      gang += st.gang_runs;
      fleet << "\n";
      cache_stats.hits += st.cache.hits;
      cache_stats.misses += st.cache.misses;
      cache_stats.evictions += st.cache.evictions;
      cache_stats.entries += st.cache.entries;
      cache_stats.capacity += st.cache.capacity;
      pool_workers_total += st.pool_workers;
      quota_trips += st.frame_quota_trips + st.registry_quota_trips;
      quota_disconnects += st.quota_disconnects;
      backoffs += st.accept_backoffs;
    }
    fleet << "fleet    : " << shards_alive << "/" << rows.size()
          << " shards alive, " << cache_stats.entries << " plans resident, "
          << quota_trips << " quota trips, " << quota_disconnects
          << " quota disconnects, " << backoffs << " accept backoffs, "
          << one_thread << " one-thread / " << gang << " gang runs\n";
    fleet_report = fleet.str();
    workers_note = std::to_string(pool_workers_total) + " fleet workers on " +
                   std::to_string(shards_alive) + " shard(s)";
    if (any_jit) {
      jit_note = std::to_string(jit_native) + " native / " +
                 std::to_string(jit_interp) +
                 " interpreted runs fleet-wide (" +
                 std::to_string(jit_kernels) + " kernel compiles, " +
                 std::to_string(jit_dropped) + " dropped)";
    }
  } else {
    PlanCache::JitConfig jit_cfg;
    jit_cfg.enabled = jit;
    PlanCache cache(PlanCache::kDefaultCapacity, jit_cfg);
    WorkerPool pool;
    if (jit) {
      if (cache.jit_available()) {
        // Pre-warm: queue every unique structure's native compile and
        // drain the background worker, so the timed batch below measures
        // warm kernels rather than compile latency.  Explicit, because a
        // lookup or a first run never queues one.
        for (const BatchJob& job : jobs) {
          cache.prewarm(
              cache.get_or_compile_jit(job.program, job.graph, job.copts));
        }
        cache.wait_jit_idle();
      } else {
        std::cerr << "mimdc: jit unavailable ("
                  << cache.jit_unavailable_reason()
                  << "); running interpreted\n";
      }
    }
    BatchReport report = run_batch(jobs, cache, pool);
    results = std::move(report.results);
    cache_stats = report.cache_stats;
    wall_seconds = report.wall_seconds;
    workers_note = std::to_string(pool.num_workers()) + " pooled workers";
    if (jit && cache.jit_available()) {
      const PlanCache::Stats js = cache.stats();
      jit_note = std::to_string(report.jit_native_runs) + "/" +
                 std::to_string(jobs.size()) + " loops ran native (" +
                 std::to_string(js.jit_compiles) + " kernel compiles, " +
                 std::to_string(js.jit_failures) + " failed)";
    }
  }

  bool all_ok = true;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ExecutionResult reference =
        run_reference(jobs[i].graph, jobs[i].iterations);
    const bool ok = values_match(results[i], reference, jobs[i].iterations);
    all_ok = all_ok && ok;
    std::cout << "batch    : " << labels[i]
              << "  " << jobs[i].iterations << " iterations, "
              << results[i].wall_seconds << " s, "
              << (ok ? "bitwise match vs sequential" : "MISMATCH") << "\n";
  }
  std::cout << "batch    : " << jobs.size() << " loops through "
            << cache_stats.misses << " compiled plan(s) ("
            << cache_stats.hits << " cache hit"
            << (cache_stats.hits == 1 ? "" : "s")
            << (remote ? ", fleet-wide" : "")
            << "), " << workers_note << (pin ? " (pinned)" : "") << ", "
            << wall_seconds << " s total, "
            << static_cast<double>(jobs.size()) / wall_seconds
            << " loops/s\n";
  if (!jit_note.empty()) std::cout << "jit      : " << jit_note << "\n";
  std::cout << fleet_report;
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mimd;
  int procs = 4, k = 1;
  std::int64_t n = 64;
  bool fold = false, want_dot = false, want_sched = false, want_code = false,
       want_c = false, want_compare = false, want_run = false, pin = false,
       no_check = false, jit = false, dump_passes = false;
  CompileOptions copts;
  copts.opt = OptLevel::O1;  // the mid-end is on by default; --opt=off
  std::string path;
  std::string batch_dir;
  std::string connect_path;
  std::string fleet_file;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next_int = [&](const char* what) {
      if (i + 1 >= argc) usage(what);
      return std::atoll(argv[++i]);
    };
    if (a == "-p") {
      procs = static_cast<int>(next_int("-p needs a value"));
    } else if (a == "-k") {
      k = static_cast<int>(next_int("-k needs a value"));
    } else if (a == "-n") {
      n = next_int("-n needs a value");
    } else if (a == "--fold") {
      fold = true;
    } else if (a == "--dot") {
      want_dot = true;
    } else if (a == "--schedule") {
      want_sched = true;
    } else if (a == "--code") {
      want_code = true;
    } else if (a == "--c") {
      want_c = true;
    } else if (a == "--compare") {
      want_compare = true;
    } else if (a == "--run") {
      want_run = true;
    } else if (a == "--batch") {
      if (i + 1 >= argc) usage("--batch needs a directory");
      batch_dir = argv[++i];
    } else if (a == "--connect") {
      if (i + 1 >= argc) usage("--connect needs an endpoint");
      connect_path = argv[++i];
    } else if (a == "--fleet") {
      if (i + 1 >= argc) usage("--fleet needs a shards file");
      fleet_file = argv[++i];
    } else if (a == "--pin") {
      pin = true;
    } else if (a == "--jit") {
      jit = true;
    } else if (a == "--no-check") {
      no_check = true;
    } else if (a == "--dump-passes") {
      dump_passes = true;
    } else if (a.rfind("--opt=", 0) == 0) {
      const std::optional<OptLevel> level = parse_opt_level(a.substr(6));
      if (!level) usage("--opt must be off or O1");
      copts.opt = *level;
    } else if (a == "--help" || a == "-h") {
      usage(nullptr);
    } else if (!a.empty() && a[0] == '-' && a != "-") {
      usage(("unknown option " + a).c_str());
    } else if (path.empty()) {
      path = a;
    } else {
      usage("multiple input files");
    }
  }
  if (procs < 1 || k < 0 || n < 1) usage("bad -p/-k/-n value");
  if (no_check && !want_c) usage("--no-check only applies to --c");
  if (!connect_path.empty() && want_c) {
    usage("--connect routes execution through a daemon; --c emits locally");
  }
  if (!fleet_file.empty() && !connect_path.empty()) {
    usage("--fleet and --connect are mutually exclusive");
  }
  if (!fleet_file.empty() && batch_dir.empty()) {
    usage("--fleet applies to --batch only");
  }
  if (!batch_dir.empty()) {
    // Batch mode is the whole program: a directory of loops through one
    // plan cache and worker pool, each validated like --run.
    if (!path.empty() || want_dot || want_sched || want_code || want_c ||
        want_compare || want_run) {
      usage("--batch is standalone (no input file or other modes)");
    }
    // --connect E is a fleet of one: the same router, reply deadline and
    // report, with E as the only shard.
    const std::vector<std::string> endpoints =
        !fleet_file.empty()     ? read_shards_file(fleet_file)
        : !connect_path.empty() ? std::vector<std::string>{connect_path}
                                : std::vector<std::string>{};
    try {
      return run_batch_mode(batch_dir, procs, k, n, fold, pin, jit, copts,
                            dump_passes, endpoints);
    } catch (const ir::ParseError& e) {
      std::cerr << "mimdc: " << e.what() << "\n";
      return 1;
    } catch (const ContractViolation& e) {
      std::cerr << "mimdc: " << e.what() << "\n";
      return 1;
    } catch (const std::runtime_error& e) {
      // wire::WireError / RemoteError from the daemon path.
      std::cerr << "mimdc: " << e.what() << "\n";
      return 1;
    }
  }
  if (path.empty()) usage("no input");
  // --pin and --jit configure only execution (emitted C has neither), so
  // they demand a run even next to --c — never silently dropped.
  // --connect exists only to execute remotely, so it implies --run too.
  if (pin || jit || !connect_path.empty()) want_run = true;
  if (!want_dot && !want_sched && !want_code && !want_c && !want_compare &&
      !want_run) {
    want_code = true;
  }

  try {
    // --c emits exactly one compilable artifact, so a loop that fission
    // (or DCE cutting a bridge) splits into independent strands cannot
    // be emitted as C: fail with a diagnostic rather than tripping the
    // scheduler's connected-graph precondition.  Every other mode
    // handles strands (each is scheduled, run and validated separately).
    const FrontEndResult fe = front_end(read_all(path), copts.opt);
    if (dump_passes) std::cerr << opt::format_stats(fe.pipe);
    if (want_c && fe.strands.size() > 1) {
      std::cerr << "mimdc: --c emits one program, but optimization split "
                   "this loop into "
                << fe.strands.size()
                << " independent strands; rerun with --opt=off for a "
                   "single artifact, or drop --c to schedule each strand "
                   "separately\n";
      return 1;
    }
    const Machine machine{procs, k};

    for (std::size_t si = 0; si < fe.strands.size(); ++si) {
    const ir::Loop& loop = fe.strands[si];
    const ir::DependenceResult dep = ir::analyze_dependences(loop);
    if (fe.strands.size() > 1) {
      std::cerr << "mimdc: strand " << (si + 1) << "/" << fe.strands.size()
                << ":\n";
    }

    const Classification cls = classify(dep.graph);
    std::cerr << "mimdc: " << dep.graph.num_nodes() << " ops ("
              << cls.flow_in.size() << " Flow-in, " << cls.cyclic.size()
              << " Cyclic, " << cls.flow_out.size() << " Flow-out), body "
              << dep.graph.body_latency() << " cycles, recurrence bound "
              << max_cycle_ratio(dep.graph) << "\n";

    ParallelizeOptions opts;
    opts.machine = machine;
    opts.iterations = n;
    opts.schedule.flow_strategy =
        fold ? FlowStrategy::Fold : FlowStrategy::SeparateProcessors;
    opts.emit_code = want_code;
    const ParallelizeResult r = parallelize(dep.graph, opts);
    std::cerr << "mimdc: steady state " << r.cycles_per_iteration
              << " cycles/iteration, Sp " << r.percentage_parallelism
              << "%\n";

    if (want_dot) std::cout << to_dot(r.normalized.graph, classify(r.normalized.graph));
    if (want_sched) {
      std::cout << render(r.sched.schedule, r.normalized.graph, 0,
                          std::min<std::int64_t>(40, r.sched.schedule.makespan()));
    }
    if (want_code) std::cout << r.parbegin_code;
    if (want_run && !connect_path.empty()) {
      // Remote execution: the daemon compiles (or serves from its shared
      // cache) and runs on its persistent pool; validation against the
      // local sequential reference stays client-side, so a daemon bug can
      // never vouch for itself.
      PlanClient client = PlanClient::connect(connect_path);
      const wire::SubmitProgramReply sub =
          client.submit_program(r.program, r.normalized.graph, copts);
      std::cerr << "mimdc: daemon compiled " << sub.threads << " threads, "
                << sub.channels << " channels, " << sub.slots
                << " slots (program id " << sub.program_id << ")\n";
      wire::RemoteRunOptions ropts;
      ropts.pin_threads = pin;
      // The daemon picks the tier; its tier counters around the run name
      // it, unless another client's run landed in between.
      const wire::StatsReply before = client.stats();
      const ExecutionResult par =
          client.run(sub.program_id, r.normalized_iterations, ropts);
      const wire::StatsReply stats = client.stats();
      const std::uint64_t one_thread =
          stats.one_thread_runs - before.one_thread_runs;
      const std::uint64_t gang = stats.gang_runs - before.gang_runs;
      const std::uint64_t native =
          stats.jit_native_runs - before.jit_native_runs;
      const char* tier = one_thread + gang + native != 1
                             ? "tier unknown (other runs interleaved)"
                         : one_thread == 1 ? "interpreted on one thread"
                         : gang == 1       ? "interpreted on a gang"
                                           : "jit-native kernel on a gang";
      const ExecutionResult reference =
          run_reference(r.normalized.graph, r.normalized_iterations);
      const bool ok = values_match(par, reference, r.normalized_iterations);
      std::cout << "run      : via daemon " << connect_path << ", " << tier
                << ", " << sub.threads << " threads, " << sub.channels
                << " channels, " << par.wall_seconds << " s, "
                << (ok ? "bitwise match vs sequential" : "MISMATCH") << "\n";
      if (jit) {
        // The daemon owns the JIT decision; surface its counters so the
        // caller can tell whether this run (or a future warm one) is
        // native.
        if (stats.jit_enabled != 0) {
          std::cout << "jit      : " << stats.jit_native_runs << " native / "
                    << stats.jit_interpreted_runs
                    << " interpreted runs daemon-wide ("
                    << stats.jit_ineligible_runs << " ineligible, "
                    << stats.jit_compiles << " kernel compiles, "
                    << stats.jit_in_flight << " in flight)\n";
        } else {
          std::cout << "jit      : daemon has jit disabled\n";
        }
      }
      if (!ok) return 1;
    } else if (want_c || want_run) {
      // One lowering pipeline: the emitted C and the threaded run both
      // consume this plan.
      const ExecutorPlan plan = compile(r.program, r.normalized.graph, copts);
      const CompiledProgram& cp = plan.program();
      std::cerr << "mimdc: compiled " << cp.threads.size() << " threads, "
                << cp.channels.size() << " channels, " << cp.total_slots()
                << " slots (" << cp.total_slots_ssa()
                << " before liveness reuse)\n";
      if (want_c) {
        const CEmitOptions eopts{no_check ? CArtifact::TimingProgram
                                          : CArtifact::CheckedProgram};
        std::cout << emit_c_program(cp, r.normalized.graph, eopts);
      }
      if (want_run) {
        RunOptions ropts;
        ropts.pin_threads = pin;
        ExecutionResult par;
        bool native = false;
        if (jit) {
          // Synchronous JIT: compile the plan to a shared-object kernel
          // and run that.  Any failure (no toolchain, bad ABI) degrades
          // to the interpreter with a note — same answer, same oracle.
          try {
            const std::shared_ptr<const JitKernel> kernel = jit_compile(plan);
            // The kernel runs on caller-provided threads, so --pin applies
            // to a native run exactly as to an interpreted one.
            par = kernel->run_pooled(r.normalized_iterations, nullptr, pin);
            native = true;
          } catch (const JitError& e) {
            std::cerr << "mimdc: jit unavailable (" << e.what()
                      << "); running interpreted\n";
          }
        }
        if (!native) par = plan.run(r.normalized_iterations, ropts);
        const ExecutionResult reference =
            run_reference(r.normalized.graph, r.normalized_iterations);
        const bool ok =
            values_match(par, reference, r.normalized_iterations);
        std::cout << "run      : "
                  << (native ? "jit-native kernel on a gang"
                      : run_tier(ropts) == RunTier::OneThread
                          ? "interpreted on one thread"
                          : "interpreted on a gang")
                  << ", "
                  << cp.threads.size() << " threads, "
                  << cp.channels.size() << " channels, " << par.wall_seconds
                  << " s, "
                  << (ok ? "bitwise match vs sequential" : "MISMATCH")
                  << "\n";
        if (!ok) return 1;
      }
    }
    if (want_compare) {
      const FigureComparison cmp = compare_on(dep.graph, machine, n);
      std::cout << "ours     : II " << cmp.ii_ours << "  Sp " << cmp.sp_ours
                << "%" << (cmp.ours_degenerated ? "  (sequential fallback)" : "")
                << "\n"
                << "DOACROSS : II " << cmp.ii_doacross << "  Sp "
                << cmp.sp_doacross << "%"
                << (cmp.doacross_degenerated ? "  (degenerate -> sequential)"
                                             : "")
                << "\n";
    }
    }  // strand loop
  } catch (const ir::ParseError& e) {
    std::cerr << "mimdc: " << e.what() << "\n";
    return 1;
  } catch (const ContractViolation& e) {
    std::cerr << "mimdc: " << e.what() << "\n";
    return 1;
  } catch (const std::runtime_error& e) {
    // wire::WireError / RemoteError from the --connect path.
    std::cerr << "mimdc: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
