// mimdd — the plan-service daemon: a long-lived server that accepts
// loop-parallelization requests over a Unix domain socket and/or TCP and
// serves them all from ONE shared PlanCache and ONE persistent
// WorkerPool, so compilation and thread startup amortize across every
// client process (runtime/plan_server.hpp holds the server core;
// runtime/wire.hpp the protocol).  N TCP daemons form a fleet that
// `mimdc --fleet` consistent-hashes programs across
// (runtime/shard_router.hpp).
//
//   mimdd [--socket <path>] [--listen <host:port>] [options]
//                                        serve until SIGINT/SIGTERM or a
//                                        client Shutdown frame; at least
//                                        one listener is required
//     --listen host:port TCP listener; port 0 lets the kernel pick (pair
//                        with --port-file so clients can find it)
//     --port-file <path> write the bound TCP port once listening
//     --daemonize        fork into the background; the parent exits 0
//                        only after the child is bound and listening, so
//                        `mimdd --daemonize && mimdc --connect` cannot
//                        race the bind
//     --pidfile <path>   write the serving process's pid (with
//                        --daemonize: the child's)
//     --force            replace a pre-existing socket file (e.g. after a
//                        crash left a stale one)
//     --cache-capacity N LRU plan-cache capacity       (default 64)
//     --workers N        pre-warm N pool workers       (default 0: grown
//                        on demand to the widest gang)
//     --handlers N       request-handler pool size      (default 0: a
//                        small auto-sized pool; the epoll event loop
//                        plus these handlers is the whole thread bill,
//                        regardless of connection count)
//     --max-programs N   per-connection registry quota  (0 = unlimited)
//     --max-frame-rate F per-connection sustained frames/s (0 = unlimited)
//     --frame-burst F    token-bucket burst for --max-frame-rate
//     --quota-strikes N  over-quota replies before disconnect (0 = never)
//     --jit[=on|off]     background-compile a registered plan to a
//                        dlopen'd native kernel (runtime/jit_compiler.hpp)
//                        once its interpreted runs, from any connection,
//                        have together taken as long as a compile (the
//                        measured compile-time estimate --stats prints);
//                        a plan run once never starts the compiler.  ON by
//                        default — degrades to interpreted-only when the
//                        host has no usable toolchain.  --jit=off
//                        restores pure interpreted serving exactly.
//
//   mimdd --stop <endpoint>              graceful remote shutdown: sends
//                                        the Shutdown frame, waits for the
//                                        ack, then for the endpoint to
//                                        stop answering (i.e. the drain to
//                                        finish)
//   mimdd --stats <endpoint>             print daemon-wide cache / pool /
//                                        connection / quota counters
//
// <endpoint> is any wire::parse_endpoint form: a bare path, unix:<path>,
// host:port, or tcp:host:port.
//
// Typical pairing:
//   mimdd --socket /tmp/mimdd.sock &
//   mimdc --connect /tmp/mimdd.sock --run examples/loops/recurrence.loop
//   mimdc --connect /tmp/mimdd.sock -p 2 --batch examples/loops
//   mimdd --stop /tmp/mimdd.sock
//
// Fleet pairing:
//   mimdd --listen 127.0.0.1:7070 --daemonize
//   mimdd --listen 127.0.0.1:7071 --daemonize
//   printf '127.0.0.1:7070\n127.0.0.1:7071\n' > shards.txt
//   mimdc --fleet shards.txt -p 2 --batch examples/loops
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>

#include "runtime/plan_client.hpp"
#include "runtime/plan_server.hpp"

namespace {

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::cerr << "mimdd: " << msg << "\n";
  std::cerr << "usage: mimdd [--socket <path>] [--listen <host:port>]\n"
               "             [--port-file <path>] [--daemonize]"
               " [--pidfile <path>] [--force]\n"
               "             [--cache-capacity N] [--workers N]"
               " [--handlers N]\n"
               "             [--max-programs N] [--max-frame-rate F]"
               " [--frame-burst F] [--quota-strikes N]\n"
               "             [--jit[=on|off]]\n"
               "       mimdd --stop <endpoint>\n"
               "       mimdd --stats <endpoint>\n";
  std::exit(2);
}

void write_pidfile(const std::string& path, pid_t pid) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::cerr << "mimdd: cannot write pidfile " << path << "\n";
    return;
  }
  f << pid << "\n";
}

/// The serving body shared by the foreground and daemonized paths: block
/// SIGINT/SIGTERM, construct the server, start it, report readiness, then
/// wait for a Shutdown frame or a signal and drain.  Signals are handled
/// the thread-safe way: blocked in every thread, then sigwait()ed on a
/// dedicated watcher thread that simply calls request_stop() — no
/// async-signal-safety gymnastics.
///
/// The PlanServer (and with it the WorkerPool, which may pre-spawn
/// threads for --workers) is constructed HERE, in the process that will
/// serve — never before a fork().  Threads do not survive fork(): a pool
/// built in the parent would report num_workers() == N in the child while
/// owning zero live workers, and every run would block forever.  The
/// process pool (runtime/worker_pool.hpp) is never built here at all:
/// every run the server executes names the server's own pool.
int run_server(const mimd::PlanServerOptions& opts, const std::string& pidfile,
               const std::string& port_file,
               const std::function<void(bool ok)>& on_ready, bool verbose) {
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  mimd::PlanServer server(opts);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "mimdd: " << e.what() << "\n";
    on_ready(false);
    return 1;
  }
  if (!pidfile.empty()) write_pidfile(pidfile, ::getpid());
  if (!port_file.empty()) {
    // The ":0" answer: the kernel-assigned port, written ONLY once bound,
    // so a fixture that polls the file cannot read a stale port.
    std::ofstream f(port_file, std::ios::trunc);
    if (f) f << server.tcp_port() << "\n";
  }
  if (verbose) {
    std::cerr << "mimdd: listening on";
    if (!server.socket_path().empty()) std::cerr << " " << server.socket_path();
    if (server.tcp_port() != 0) std::cerr << " tcp:" << server.tcp_port();
    std::cerr << " (pid " << ::getpid() << ")\n";
  }
  on_ready(true);

  // `waking` marks the deliberate self-signal below, so a wire-initiated
  // shutdown does not log a phantom "caught SIGTERM".
  std::atomic<bool> waking{false};
  std::thread watcher([sigs, verbose, &server, &waking]() mutable {
    int sig = 0;
    if (sigwait(&sigs, &sig) == 0 && !waking.load()) {
      if (verbose) {
        std::cerr << "mimdd: caught "
                  << (sig == SIGINT ? "SIGINT" : "SIGTERM") << ", draining\n";
      }
      server.request_stop();
    }
  });

  server.wait();
  // Unblock the watcher if the shutdown arrived over the wire instead of
  // as a signal, and JOIN it before the server leaves scope — a detached
  // watcher could otherwise call request_stop() on a destroyed server if
  // a late signal landed during teardown.  (A joinable thread's id stays
  // valid for pthread_kill until joined; if a real signal already woke
  // the watcher, the extra directed signal stays blocked and dies with
  // the process.)
  waking.store(true);
  pthread_kill(watcher.native_handle(), SIGTERM);
  watcher.join();
  server.stop();
  if (verbose) {
    const mimd::wire::StatsReply s = server.stats();
    std::cerr << "mimdd: stopped after " << s.connections_accepted
              << " connection(s), " << s.runs_executed << " run(s), "
              << s.cache.hits << " cache hit(s) / " << s.cache.misses
              << " miss(es)\n";
  }
  return 0;
}

/// --daemonize: fork; the child serves, the parent exits only once the
/// child reports (over a pipe) that the socket is bound and listening.
int serve_daemonized(const mimd::PlanServerOptions& opts,
                     const std::string& pidfile,
                     const std::string& port_file) {
  int ready[2];
  if (pipe(ready) != 0) {
    std::cerr << "mimdd: pipe failed: " << std::strerror(errno) << "\n";
    return 1;
  }
  const pid_t child = fork();
  if (child < 0) {
    std::cerr << "mimdd: fork failed: " << std::strerror(errno) << "\n";
    return 1;
  }

  if (child == 0) {
    ::close(ready[0]);
    ::setsid();
    // Detach the standard fds: a daemon holding the parent's inherited
    // stdout/stderr pipes keeps e.g. ctest waiting for EOF forever after
    // the parent exits.
    const int devnull = ::open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
      if (devnull > STDERR_FILENO) ::close(devnull);
    }
    const int rc = run_server(opts, pidfile, port_file,
                              [&ready](bool ok) {
                                const char status = ok ? 'R' : 'E';
                                (void)!::write(ready[1], &status, 1);
                                ::close(ready[1]);
                              },
                              /*verbose=*/false);
    std::_Exit(rc);
  }

  ::close(ready[1]);
  char status = 'E';
  const ssize_t n = ::read(ready[0], &status, 1);
  ::close(ready[0]);
  if (n == 1 && status == 'R') {
    std::cerr << "mimdd: daemon pid " << child << " listening on "
              << (!opts.socket_path.empty() ? opts.socket_path
                                            : opts.tcp_address)
              << "\n";
    return 0;
  }
  std::cerr << "mimdd: daemon failed to start\n";
  return 1;
}

int stop_daemon(const std::string& endpoint) {
  const mimd::wire::Endpoint ep = mimd::wire::parse_endpoint(endpoint);
  try {
    mimd::PlanClient client =
        mimd::PlanClient::connect(endpoint, /*timeout_ms=*/30000);
    client.shutdown_server();
  } catch (const std::exception& e) {
    std::cerr << "mimdd: stop failed: " << e.what() << "\n";
    return 1;
  }
  // The ack precedes the drain; wait for the endpoint to actually go away
  // so callers (ctest fixtures) can immediately reuse it.  Unix: the
  // unlink that ends stop().  TCP: the listener refusing connections.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    bool gone = false;
    if (ep.kind == mimd::wire::Endpoint::Kind::Unix) {
      struct stat st{};
      gone = ::stat(ep.path.c_str(), &st) != 0;
    } else {
      try {
        ::close(mimd::wire::connect_endpoint(ep));
      } catch (const mimd::wire::WireError&) {
        gone = true;
      }
    }
    if (gone) break;
    if (std::chrono::steady_clock::now() > deadline) {
      std::cerr << "mimdd: daemon acked shutdown but " << endpoint
                << " is still up\n";
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::cout << "mimdd: stopped daemon on " << endpoint << "\n";
  return 0;
}

int print_stats(const std::string& endpoint) {
  try {
    mimd::PlanClient client =
        mimd::PlanClient::connect(endpoint, /*timeout_ms=*/30000);
    const mimd::wire::StatsReply s = client.stats();
    std::cout << "cache    : " << s.cache.hits << " hits, " << s.cache.misses
              << " misses, " << s.cache.evictions << " evictions, "
              << s.cache.entries << "/" << s.cache.capacity << " entries\n"
              << "pool     : " << s.pool_workers << " workers, "
              << s.pool_gangs << " gangs run\n"
              << "server   : " << s.connections_accepted
              << " connections accepted (" << s.connections_active
              << " active), " << s.programs_registered << " programs, "
              << s.runs_executed << " runs\n"
              << "tiers    : " << s.one_thread_runs << " one-thread, "
              << s.gang_runs << " gang, " << s.jit_native_runs
              << " native runs\n"
              << "quotas   : " << s.frame_quota_trips << " frame-rate trips, "
              << s.registry_quota_trips << " registry trips, "
              << s.quota_disconnects << " disconnects, " << s.accept_backoffs
              << " accept backoffs\n";
    if (s.jit_enabled != 0) {
      std::cout << "jit      : enabled, " << s.jit_native_runs
                << " native runs, " << s.jit_interpreted_runs << " interpreted runs ("
                << s.jit_ineligible_runs << " had a kernel but were "
                << "ineligible, " << s.jit_deferred_runs
                << " deferred until their plan's runs paid for a compile), "
                << s.jit_compiles << " compiles ("
                << s.jit_failures << " failed, " << s.jit_in_flight
                << " in flight, " << s.jit_dropped_kernels
                << " dropped as slower than interpreted), compile estimate "
                << s.jit_compile_estimate_us << " us\n";
    } else {
      std::cout << "jit      : disabled\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "mimdd: stats failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, listen_address, stop_ep, stats_ep, pidfile,
      port_file;
  bool daemonize = false, force = false;
  std::size_t cache_capacity = mimd::PlanCache::kDefaultCapacity;
  std::size_t workers = 0;
  std::size_t handlers = 0;
  mimd::PlanServerOptions defaults;
  std::size_t max_programs = defaults.max_programs_per_connection;
  double max_frame_rate = defaults.max_frames_per_second;
  double frame_burst = defaults.frame_burst;
  int quota_strikes = defaults.max_quota_strikes;
  bool enable_jit = defaults.enable_jit;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) usage(what);
      return argv[++i];
    };
    if (a == "--socket") {
      socket_path = next("--socket needs a path");
    } else if (a == "--listen") {
      listen_address = next("--listen needs host:port");
    } else if (a == "--port-file") {
      port_file = next("--port-file needs a path");
    } else if (a == "--stop") {
      stop_ep = next("--stop needs an endpoint");
    } else if (a == "--stats") {
      stats_ep = next("--stats needs an endpoint");
    } else if (a == "--pidfile") {
      pidfile = next("--pidfile needs a path");
    } else if (a == "--daemonize") {
      daemonize = true;
    } else if (a == "--force") {
      force = true;
    } else if (a == "--cache-capacity") {
      const long v = std::atol(next("--cache-capacity needs a value").c_str());
      if (v < 1) usage("--cache-capacity must be >= 1");
      cache_capacity = static_cast<std::size_t>(v);
    } else if (a == "--workers") {
      const long v = std::atol(next("--workers needs a value").c_str());
      if (v < 0) usage("--workers must be >= 0");
      workers = static_cast<std::size_t>(v);
    } else if (a == "--handlers") {
      const long v = std::atol(next("--handlers needs a value").c_str());
      if (v < 0) usage("--handlers must be >= 0");
      handlers = static_cast<std::size_t>(v);
    } else if (a == "--max-programs") {
      const long v = std::atol(next("--max-programs needs a value").c_str());
      if (v < 0) usage("--max-programs must be >= 0");
      max_programs = static_cast<std::size_t>(v);
    } else if (a == "--max-frame-rate") {
      max_frame_rate = std::atof(next("--max-frame-rate needs a value").c_str());
      if (max_frame_rate < 0) usage("--max-frame-rate must be >= 0");
    } else if (a == "--frame-burst") {
      frame_burst = std::atof(next("--frame-burst needs a value").c_str());
      if (frame_burst < 0) usage("--frame-burst must be >= 0");
    } else if (a == "--quota-strikes") {
      quota_strikes = std::atoi(next("--quota-strikes needs a value").c_str());
      if (quota_strikes < 0) usage("--quota-strikes must be >= 0");
    } else if (a == "--jit" || a == "--jit=on") {
      enable_jit = true;
    } else if (a == "--jit=off") {
      enable_jit = false;
    } else if (a == "--help" || a == "-h") {
      usage(nullptr);
    } else {
      usage(("unknown option " + a).c_str());
    }
  }

  const bool serving = !socket_path.empty() || !listen_address.empty();
  const int modes = (serving ? 1 : 0) + (!stop_ep.empty() ? 1 : 0) +
                    (!stats_ep.empty() ? 1 : 0);
  if (modes != 1) {
    usage("exactly one of --socket/--listen, --stop, --stats required");
  }
  if (!stop_ep.empty()) return stop_daemon(stop_ep);
  if (!stats_ep.empty()) return print_stats(stats_ep);

  mimd::PlanServerOptions opts;
  opts.socket_path = socket_path;
  opts.tcp_address = listen_address;
  opts.cache_capacity = cache_capacity;
  opts.initial_workers = workers;
  opts.handler_threads = handlers;
  opts.remove_existing = force;
  opts.max_programs_per_connection = max_programs;
  opts.max_frames_per_second = max_frame_rate;
  opts.frame_burst = frame_burst;
  opts.max_quota_strikes = quota_strikes;
  opts.enable_jit = enable_jit;

  if (daemonize) return serve_daemonized(opts, pidfile, port_file);
  return run_server(opts, pidfile, port_file, [](bool) {}, /*verbose=*/true);
}
