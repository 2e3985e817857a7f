#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <numeric>
#include <random>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "graph/unwind.hpp"
#include "ir/dependence.hpp"
#include "ir/ifconvert.hpp"
#include "ir/parser.hpp"
#include "loop_source.hpp"
#include "opt/pipeline.hpp"
#include "partition/lowering.hpp"
#include "runtime/jit_compiler.hpp"
#include "runtime/wire.hpp"
#include "runtime/worker_pool.hpp"
#include "schedule/full_sched.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"

namespace perfbench {

namespace {

/// Reply deadline on every client call: a hung server becomes a
/// WireError (a counted failure), never a hang.
constexpr int kClientTimeoutMs = 60000;
/// Requests kept in flight by warm-serve.
constexpr std::size_t kInFlight = 8;
/// Executor / native runs replayed per input, at most.
constexpr std::size_t kMaxReplayRuns = 300;
/// Failure messages kept for the report.
constexpr std::size_t kKeptMessages = 5;

mimd::PlanServerOptions server_options(const std::string& socket_path) {
  mimd::PlanServerOptions o;  // the daemon's defaults, except:
  o.socket_path = socket_path;
  o.remove_existing = true;
  o.max_frames_per_second = 0.0;       // frame-rate quota off
  o.max_programs_per_connection = 0;   // registry cap off
  return o;
}

/// A window never runs past this much wall time, whatever its pauses.
std::int64_t wall_cap_ns(double seconds) {
  return static_cast<std::int64_t>((3.0 * seconds + 30.0) * 1e9);
}

/// The six hot structures of warm-serve and mixed-n: fig7, cytron86,
/// elliptic, LL18, LL6, LL20.
std::vector<mimd::Ddg> hot_structures() {
  using namespace mimd::workloads;
  return {fig7_loop(),         cytron86_loop(),         elliptic_filter_loop(),
          livermore18_loop(),  ll6_linear_recurrence(), ll20_discrete_ordinates()};
}

mimd::ParallelizeOptions parallelize_options(int procs, std::int64_t n) {
  mimd::ParallelizeOptions o;
  o.machine = mimd::Machine{procs, 1};
  o.iterations = n;
  o.emit_code = false;  // nothing renders the pseudo-code
  return o;
}

/// The seed of input stream `stream` of a run seeded `seed`.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL ^ (stream + 1) * 0xD1B54A32D192ED03ULL;
}

/// Seeded draws without replacement from 0..n-1, reshuffled every n
/// draws: every window sends the same mix, each in its own order, so the
/// mix does not move the figures from seed to seed.
class Deck {
 public:
  Deck(std::size_t n, std::uint64_t seed) : order_(n), rng_(seed) {
    std::iota(order_.begin(), order_.end(), std::size_t{0});
  }

  std::size_t next() {
    if (pos_ == 0) std::shuffle(order_.begin(), order_.end(), rng_);
    const std::size_t v = order_[pos_];
    pos_ = (pos_ + 1) % order_.size();
    return v;
  }

 private:
  std::vector<std::size_t> order_;
  std::mt19937_64 rng_;
  std::size_t pos_ = 0;
};

/// One program's trip through the service, kept until its reply is
/// checked (outside the timed interval).
struct Executed {
  mimd::Ddg graph;  ///< normalized
  std::int64_t n = 0;  ///< normalized iterations
  double cycles = 0.0;
  /// Kept, traced or not, so that its destruction falls outside the
  /// timed interval in both modes (the replay needs it when tracing).
  mimd::PartitionedProgram program;
  mimd::ExecutionResult reply;
};

/// parallelize -> submit -> run -> drop, one blocking call each.
Executed compile_and_run(const mimd::Ddg& g,
                         const mimd::ParallelizeOptions& popts,
                         const mimd::CompileOptions& copts,
                         mimd::PlanClient& client, Tracer& tracer) {
  mimd::ParallelizeResult r;
  {
    Tracer::Scope s(tracer, "core.parallelize");
    r = mimd::parallelize(g, popts);
  }
  mimd::wire::SubmitProgramReply sub;
  {
    Tracer::Scope s(tracer, "plan_client.submit");
    sub = client.submit_program(r.program, r.normalized.graph, copts);
  }
  Executed e;
  try {
    Tracer::Scope s(tracer, "plan_client.run");
    e.reply = client.run(sub.program_id, r.normalized_iterations);
  } catch (...) {
    try {
      client.drop_program(sub.program_id);
    } catch (const std::exception&) {
      // The run's own failure is the one reported.
    }
    throw;
  }
  {
    Tracer::Scope s(tracer, "plan_client.drop");
    client.drop_program(sub.program_id);
  }
  e.graph = std::move(r.normalized.graph);
  e.n = r.normalized_iterations;
  e.cycles = r.cycles_per_iteration;
  e.program = std::move(r.program);
  return e;
}

/// Check every reply of one request against its sequential reference.
/// The first checked reply of a window also runs the oracle self-test.
bool check_replies(WindowResult& w, const std::vector<Executed>& done) {
  for (const Executed& e : done) {
    const mimd::ExecutionResult ref = mimd::run_reference(e.graph, e.n);
    if (!reply_matches(e.reply, ref, e.n)) {
      w.fail("oracle: reply differs from the sequential reference");
      return false;
    }
    if (w.self_test.flips_tried == 0) {
      w.self_test = oracle_self_test(e.reply, ref, e.n);
    }
  }
  return true;
}

/// One failed request: count it, and replace the connection when the
/// transport broke (the failure is the request's, not the window's).
void record_failure(WindowResult& w, Service& svc, const std::exception& e) {
  w.fail(e.what());
  if (dynamic_cast<const mimd::wire::WireError*>(&e) != nullptr) {
    svc.reconnect();
  }
}

// ---------------------------------------------------------------------------

class ColdCompile final : public Workload {
 public:
  explicit ColdCompile(std::uint64_t seed) : seed_(seed) {
    copts_.opt = mimd::OptLevel::O1;
  }

  WindowResult run_window(Service& svc, Tracer& tracer, double seconds,
                          std::uint64_t stream) override {
    WindowResult w;
    Deck sizes(statement_counts_.size(), stream_seed(seed_, stream));
    w.before = svc.client().stats();
    const std::int64_t wall_end = now_ns() + wall_cap_ns(seconds);
    double active = 0.0;
    for (std::uint64_t k = 0; active < seconds && now_ns() < wall_end; ++k) {
      const std::uint64_t i = stream << 32 | k;
      const std::string source =
          generate_loop_source(seed_, i, statement_counts_[sizes.next()]);
      tracer.set_request(i);
      ++w.attempted;
      std::vector<Executed> done;
      std::vector<mimd::Ddg> graphs;
      int rewrites = 0;
      std::size_t strands = 0;
      const std::int64_t t0 = now_ns();
      try {
        Tracer::Scope request(tracer, "request");
        mimd::ir::Loop loop;
        {
          Tracer::Scope s(tracer, "ir.parse");
          loop = mimd::ir::parse_loop(source);
        }
        if (loop.has_control_flow()) {
          Tracer::Scope s(tracer, "ir.if_convert");
          loop = mimd::ir::if_convert(loop);
        }
        mimd::opt::PipelineResult pipe;
        {
          Tracer::Scope s(tracer, "opt.optimize");
          pipe = mimd::opt::optimize(loop, oopts_);
        }
        for (const mimd::opt::PassStats& p : pipe.stats) rewrites += p.rewrites;
        strands = pipe.loops.size();
        for (const mimd::ir::Loop& strand : pipe.loops) {
          mimd::ir::DependenceResult dep;
          {
            Tracer::Scope s(tracer, "ir.dependence");
            dep = mimd::ir::analyze_dependences(strand);
          }
          done.push_back(
              compile_and_run(dep.graph, popts_, copts_, svc.client(), tracer));
          graphs.push_back(std::move(dep.graph));  // as Executed::program
        }
      } catch (const std::exception& e) {
        active += static_cast<double>(now_ns() - t0) / 1e9;
        record_failure(w, svc, e);
        continue;
      }
      const std::int64_t t1 = now_ns();
      active += static_cast<double>(t1 - t0) / 1e9;
      if (!check_replies(w, done)) continue;
      w.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      for (std::size_t k = 0; k < done.size(); ++k) {
        w.add_program(done[k].cycles);
        if (!tracer.enabled()) continue;
        w.inputs.push_back(ReplayInput{
            std::move(graphs[k]), popts_, copts_,
            mimd::structural_hash(done[k].program, done[k].graph, copts_), 1});
      }
      if (tracer.enabled()) {
        w.opt_rewrites.push_back(rewrites);
        w.opt_strands.push_back(static_cast<double>(strands));
      }
    }
    w.seconds = active;
    w.after = svc.client().stats();
    return w;
  }

 private:
  std::uint64_t seed_;
  std::vector<int> statement_counts_ = statement_counts();
  // mimdc's defaults: p=4, k=1, n=64, O1 with fission.
  mimd::ParallelizeOptions popts_ = parallelize_options(4, 64);
  mimd::opt::OptOptions oopts_{};
  mimd::CompileOptions copts_{};
};

// ---------------------------------------------------------------------------

class MixedN final : public Workload {
  static constexpr std::size_t kTripCounts = 32;

 public:
  explicit MixedN(std::uint64_t seed) : seed_(seed) {
    // Trip counts log-spaced from 16 to 2048.
    for (std::size_t j = 0; j < kTripCounts; ++j) {
      trip_counts_.push_back(static_cast<std::int64_t>(std::lround(
          16.0 * std::pow(128.0, static_cast<double>(j) / (kTripCounts - 1)))));
    }
  }

  WindowResult run_window(Service& svc, Tracer& tracer, double seconds,
                          std::uint64_t stream) override {
    WindowResult w;
    std::mt19937_64 rng(stream_seed(seed_, stream));
    std::uniform_int_distribution<std::size_t> structure(
        0, structures_.size() - 1);
    std::uniform_int_distribution<std::size_t> trip(0, kTripCounts - 1);
    std::unordered_set<std::size_t> sent;  // pairs this server has seen
    w.before = svc.client().stats();
    const std::int64_t wall_end = now_ns() + wall_cap_ns(seconds);
    double active = 0.0;
    for (std::uint64_t k = 0; active < seconds && now_ns() < wall_end; ++k) {
      const std::size_t s = structure(rng);
      const std::size_t t = trip(rng);
      const std::int64_t n = trip_counts_[t];
      const mimd::ParallelizeOptions popts = parallelize_options(2, n);
      if (!sent.insert(s * kTripCounts + t).second) ++w.repeats;
      tracer.set_request(stream << 32 | k);
      ++w.attempted;
      std::vector<Executed> done;
      const std::int64_t t0 = now_ns();
      try {
        Tracer::Scope request(tracer, "request");
        done.push_back(compile_and_run(structures_[s], popts, copts_,
                                       svc.client(), tracer));
      } catch (const std::exception& e) {
        active += static_cast<double>(now_ns() - t0) / 1e9;
        record_failure(w, svc, e);
        continue;
      }
      const std::int64_t t1 = now_ns();
      active += static_cast<double>(t1 - t0) / 1e9;
      if (!check_replies(w, done)) continue;
      w.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      w.add_program(done[0].cycles);
      if (!tracer.enabled()) continue;
      w.inputs.push_back(ReplayInput{
          structures_[s], popts, copts_,
          mimd::structural_hash(done[0].program, done[0].graph, copts_), 1});
    }
    w.seconds = active;
    w.after = svc.client().stats();
    return w;
  }

 private:
  std::uint64_t seed_;
  std::vector<mimd::Ddg> structures_ = hot_structures();
  std::vector<std::int64_t> trip_counts_;
  mimd::CompileOptions copts_{};  // no mid-end ran on these graphs
};

// ---------------------------------------------------------------------------

class WarmServe final : public Workload {
 public:
  explicit WarmServe(std::uint64_t seed) : seed_(seed) {}

  void prepare() override {
    for (const mimd::Ddg& graph : hot_structures()) {
      Hot h;
      h.input = ReplayInput{graph, parallelize_options(2, 64), copts_, 0, 0};
      const mimd::ParallelizeResult r = mimd::parallelize(graph, h.input.popts);
      h.program = r.program;
      h.graph = r.normalized.graph;
      h.n = r.normalized_iterations;
      h.cycles = r.cycles_per_iteration;
      h.input.hash = mimd::structural_hash(h.program, h.graph, copts_);
      h.reference = mimd::run_reference(h.graph, h.n);
      hot_.push_back(std::move(h));
    }
  }

  /// Register the six programs, wait for their native kernels, and run
  /// each once so the pool's workers exist before the window.
  void warm(Service& svc) override {
    for (Hot& h : hot_) {
      h.id = svc.client().submit_program(h.program, h.graph, copts_).program_id;
    }
    svc.server().cache().wait_jit_idle();
    for (const Hot& h : hot_) {
      if (!reply_matches(svc.client().run(h.id, h.n), h.reference, h.n)) {
        throw std::runtime_error("warm-up run differs from the reference");
      }
    }
  }

  WindowResult run_window(Service& svc, Tracer& tracer, double seconds,
                          std::uint64_t stream) override {
    struct InFlight {
      std::future<mimd::ExecutionResult> reply;
      std::int64_t sent_ns = 0;
      std::size_t hot = 0;
      std::uint64_t id = 0;
    };
    WindowResult w;
    Deck structures(hot_.size(), stream_seed(seed_, stream));
    w.before = svc.client().stats();
    std::vector<std::size_t> uses(hot_.size(), 0);
    std::deque<InFlight> in_flight;
    bool transport_ok = true;
    const std::int64_t start = now_ns();
    const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
    const auto send = [&] {
      const std::size_t k = structures.next();
      in_flight.push_back(InFlight{svc.client().run_async(hot_[k].id, hot_[k].n),
                                   now_ns(), k, stream << 32 | w.attempted++});
    };
    std::int64_t last = start;
    while (!in_flight.empty() || (transport_ok && now_ns() < stop)) {
      while (transport_ok && in_flight.size() < kInFlight && now_ns() < stop) {
        send();
      }
      if (in_flight.empty()) break;
      // Replies are taken in send order: latency runs from the send to the
      // moment the reply is taken, so a reply that overtook an older one
      // waits for it.
      InFlight f = std::move(in_flight.front());
      in_flight.pop_front();
      mimd::ExecutionResult reply;
      try {
        reply = f.reply.get();
      } catch (const std::exception& e) {
        w.fail(e.what());
        // A broken transport fails every reply behind it too.
        if (dynamic_cast<const mimd::wire::WireError*>(&e) != nullptr) {
          transport_ok = false;
        }
        continue;
      }
      last = now_ns();
      // Refill before checking, so the check never lowers the depth.
      if (transport_ok && now_ns() < stop) send();
      const Hot& h = hot_[f.hot];
      if (!reply_matches(reply, h.reference, h.n)) {
        w.fail("oracle: reply differs from the sequential reference");
        continue;
      }
      if (w.self_test.flips_tried == 0) {
        w.self_test = oracle_self_test(reply, h.reference, h.n);
      }
      w.latency_us.push_back(static_cast<double>(last - f.sent_ns) / 1e3);
      w.add_program(h.cycles);
      tracer.record("plan_client.run", f.sent_ns, last, f.id);
      ++uses[f.hot];
    }
    w.seconds = static_cast<double>(last - start) / 1e9;
    w.after = svc.client().stats();
    if (tracer.enabled()) {
      for (std::size_t k = 0; k < hot_.size(); ++k) {
        w.inputs.push_back(hot_[k].input);
        w.inputs.back().uses = uses[k];
      }
    }
    return w;
  }

 private:
  struct Hot {
    ReplayInput input;
    mimd::PartitionedProgram program;
    mimd::Ddg graph;  ///< normalized
    std::int64_t n = 0;
    double cycles = 0.0;
    mimd::ExecutionResult reference;
    std::uint64_t id = 0;  ///< on the current service's connection
  };

  std::uint64_t seed_;
  std::vector<Hot> hot_;
  mimd::CompileOptions copts_{};  // no mid-end ran on these graphs
};

std::size_t count_ops(const mimd::PartitionedProgram& p) {
  std::size_t ops = 0;
  for (const auto& proc : p.programs) ops += proc.ops.size();
  return ops;
}

}  // namespace

// ---------------------------------------------------------------------------

Service::Service(std::string socket_path)
    : socket_path_(std::move(socket_path)),
      server_(std::make_unique<mimd::PlanServer>(server_options(socket_path_))) {
  server_->start();
  reconnect();
}

Service::~Service() {
  client_.close();
  server_->stop();
}

void Service::reconnect() {
  client_ = mimd::PlanClient::connect("unix:" + socket_path_, kClientTimeoutMs);
  client_.negotiate();
}

std::string Service::describe() {
  const mimd::PlanServerOptions o = server_options("");
  std::ostringstream s;
  s << "jit=" << (o.enable_jit ? "on" : "off")
    << " cache_capacity=" << o.cache_capacity << " handler_threads="
    << (o.handler_threads == 0 ? std::string("auto")
                               : std::to_string(o.handler_threads))
    << " initial_workers=" << o.initial_workers
    << " max_pipeline_depth=" << o.max_pipeline_depth
    << " max_frames_per_second=" << o.max_frames_per_second
    << " max_programs_per_connection=" << o.max_programs_per_connection
    << " client_timeout_ms=" << kClientTimeoutMs;
  return s.str();
}

void WindowResult::add_program(double cycles_per_iteration) {
  log_cycles += std::log(cycles_per_iteration);
  ++programs;
}

void WindowResult::fail(const std::string& what) {
  ++failed;
  if (failure_messages.size() < kKeptMessages) {
    failure_messages.push_back(what);
  }
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "cold-compile") return std::make_unique<ColdCompile>(seed);
  if (name == "warm-serve") return std::make_unique<WarmServe>(seed);
  if (name == "mixed-n") return std::make_unique<MixedN>(seed);
  return nullptr;
}

ReplayResult replay(const std::vector<ReplayInput>& inputs, Tracer& tracer,
                    std::size_t jit_samples, double budget_s) {
  ReplayResult out;
  const auto fail = [&out](const std::string& what) {
    ++out.failed;
    if (out.failure_messages.size() < kKeptMessages) {
      out.failure_messages.push_back(what);
    }
  };
  mimd::WorkerPool pool;
  mimd::RunOptions ropts;
  ropts.pool = &pool;
  const bool jit = mimd::jit_available();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const ReplayInput& in = inputs[k];
    tracer.set_request(k);
    ++out.attempted;
    try {
      Tracer::Scope root(tracer, "replay");
      mimd::Unrolled u;
      {
        Tracer::Scope s(tracer, "graph.normalize");
        u = mimd::normalize_distances(in.graph);
      }
      const std::int64_t n = (in.popts.iterations + u.factor - 1) / u.factor;
      mimd::FullSchedResult fs;
      {
        Tracer::Scope s(tracer, "schedule.full_sched");
        fs = mimd::full_sched(u.graph, in.popts.machine, n, in.popts.schedule);
      }
      mimd::PartitionedProgram prog;
      {
        Tracer::Scope s(tracer, "partition.lower");
        prog = mimd::lower(fs.schedule, u.graph);
      }
      std::uint64_t hash = 0;
      {
        Tracer::Scope s(tracer, "partition.hash");
        hash = mimd::structural_hash(prog, u.graph, in.copts);
      }
      out.pattern_found.push_back(fs.pattern.has_value() ? 1.0 : 0.0);
      out.ops.push_back(static_cast<double>(count_ops(prog)));
      if (hash != in.hash) {
        ++out.fidelity_mismatches;
        fail("trace fidelity: replayed steps built a different program than "
             "parallelize()");
        continue;
      }
      if (now_ns() >= deadline) continue;
      ++out.replayed;
      std::vector<std::uint8_t> payload;
      {
        Tracer::Scope s(tracer, "wire.encode");
        payload = mimd::wire::encode_submit_program({prog, u.graph, in.copts});
      }
      out.submit_bytes.push_back(static_cast<double>(payload.size()));
      mimd::ExecutorPlan plan;
      {
        Tracer::Scope s(tracer, "partition.compile");
        plan = mimd::compile(prog, u.graph, in.copts);
      }
      const mimd::ExecutionResult ref = mimd::run_reference(u.graph, n);
      const double work = static_cast<double>(n * u.factor);
      const std::size_t runs = std::clamp<std::size_t>(in.uses, 1, kMaxReplayRuns);
      for (std::size_t r = 0; r < runs; ++r) {
        mimd::ExecutionResult res;
        {
          Tracer::Scope s(tracer, "executor.run");
          res = plan.run(n, ropts);
          s.set_work(work);
        }
        if (r > 0) continue;
        if (!reply_matches(res, ref, n)) {
          fail("oracle: in-process run differs from the sequential reference");
        }
        out.reply_bytes.push_back(
            static_cast<double>(mimd::wire::encode_run_reply(res).size()));
      }
      if (!jit || k >= jit_samples) continue;
      std::shared_ptr<const mimd::JitKernel> kernel;
      {
        Tracer::Scope s(tracer, "jit_compiler.compile");
        kernel = mimd::jit_compile(plan);
      }
      for (std::size_t r = 0; r < runs; ++r) {
        mimd::ExecutionResult res;
        {
          Tracer::Scope s(tracer, "jit_compiler.run");
          res = kernel->run_pooled(n, &pool);
          s.set_work(work);
        }
        if (r == 0 && !reply_matches(res, ref, n)) {
          fail("oracle: native run differs from the sequential reference");
        }
      }
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }
  return out;
}

}  // namespace perfbench
