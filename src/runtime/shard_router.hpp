// ShardRouter — the client half of a mimdd *fleet*: N plan-service
// daemons (each with its own PlanCache + WorkerPool) behind one routing
// object that consistent-hashes programs across them by structural hash.
//
// Why hash by structure: the fleet's whole point is cache amortization at
// a scale one daemon's memory cannot hold.  Routing on
// structural_hash(program, graph, copts) — the exact key PlanCache uses —
// guarantees every structurally identical loop lands on the SAME shard's
// warm cache, so fleet-wide there is still exactly one compile per unique
// structure (bench/bench_plan_service.cpp's A/B proves this with the
// shards' miss counters).
//
// The ring: each shard contributes 64 points (vnodes — enough to keep
// the max/mean shard load under ~1.3x for small fleets), hashed from
// its *endpoint string* (not its index), so the placement of every
// existing shard's points is independent of list order and of shards
// added later.  Adding one shard to an N-shard fleet therefore remaps
// only ~1/(N+1) of the keyspace (tests/test_shard_router.cpp pins this).
// A key routes to the first point at or after it on the ring; walking
// further yields the failover preference order.
//
// Health and failover: each shard has one lazily connected PlanClient.
// Connect failures are retried with doubling backoff; when retries are
// exhausted — or an established connection dies mid-conversation
// (wire::WireError) — the shard is marked dead for `dead_cooldown_ms` and
// the affected jobs are rerouted to the next live shard in their ring
// order.  Re-running is safe: submit+run is idempotent and bit-exact, so
// a job that may have executed on a dying shard just executes again on
// its successor.  A RemoteError (the server *replied*, rejecting the
// request) is the caller's problem and is rethrown — it is not a health
// event.  Only when every shard is dead does run_jobs throw WireError,
// quoting each shard's last failure (e.g. the connect error).
//
// Threading: none of its own.  run_jobs issues every shard's submits,
// then every shard's Run frames, from the caller's thread — each shard's
// PlanClient pipelines them by request id — and only then gathers the
// futures, so the shards execute concurrently without a thread per
// shard.  A ShardRouter is single-caller: nothing in it is locked.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/plan_client.hpp"

namespace mimd {

struct ShardRouterOptions {
  /// One entry per shard, any wire::parse_endpoint form ("unix:/run/a",
  /// "127.0.0.1:7070", ...).  Order does not affect routing.
  std::vector<std::string> endpoints;
  /// Per-operation socket timeout (SO_RCVTIMEO/SO_SNDTIMEO), 0 = none.
  /// A fleet over real networks should set this: it turns a hung shard
  /// into a WireError, which is a failover, not a hang.
  int timeout_ms = 0;
  /// Connect attempts per shard before it is declared dead.
  int connect_attempts = 3;
  /// Backoff between connect attempts, doubling from this up to 200 ms.
  int connect_backoff_initial_ms = 10;
  /// How long a dead shard is skipped before the router probes it again.
  int dead_cooldown_ms = 1000;
};

/// One routed unit of work: a program to (re)submit plus how to run it.
struct ShardJob {
  PartitionedProgram program;
  Ddg graph;
  CompileOptions copts;
  /// 0 = the program's own compiled iteration count; any other value
  /// must equal it.
  std::int64_t iterations = 0;
  wire::RemoteRunOptions run_opts;
};

/// fleet_stats() row: one shard's identity, reachability, and counters.
struct ShardStatsRow {
  std::string endpoint;
  bool alive = false;
  wire::StatsReply stats;  ///< valid only when alive
};

class ShardRouter {
 public:
  explicit ShardRouter(ShardRouterOptions opts);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return endpoints_.size(); }
  [[nodiscard]] const std::vector<std::string>& endpoints() const {
    return endpoints_;
  }

  /// The routing key for a job: structural_hash(program, graph, copts),
  /// i.e. the shard-local PlanCache key.
  [[nodiscard]] static std::uint64_t route_key(const PartitionedProgram& p,
                                               const Ddg& g,
                                               const CompileOptions& copts);

  /// Pure ring lookup (health ignored): the shard index `key` maps to.
  /// Deterministic across router instances built from the same endpoint
  /// strings — the same-hash-same-shard invariant the tests pin.
  [[nodiscard]] std::size_t shard_for(std::uint64_t key) const;

  /// Failover preference order for `key`: every shard index exactly once,
  /// starting at shard_for(key), in ring-walk order.
  [[nodiscard]] std::vector<std::size_t> preference_order(
      std::uint64_t key) const;

  /// Route and execute `jobs` across the fleet; results in job order.
  /// Shards run concurrently: one Run frame per job, pipelined (see the
  /// class comment).  Dead shards fail over per the class comment;
  /// throws wire::WireError once every shard is dead, and rethrows
  /// RemoteError untouched.
  [[nodiscard]] std::vector<ExecutionResult> run_jobs(
      const std::vector<ShardJob>& jobs);

  /// Single-job convenience over run_jobs.
  [[nodiscard]] ExecutionResult run_one(const ShardJob& job);

  /// Release a program this router previously submitted: sends
  /// DropProgram to every shard whose submitted-id cache holds the
  /// program's routing key and invalidates the cache entry on ack, so
  /// the next run_jobs with the same program re-submits cleanly.
  /// Returns true if any shard held (and dropped) it.  A shard that
  /// already forgot the id — registry turnover or a dead connection —
  /// counts as dropped: both sides have forgotten it.
  bool drop_program(const PartitionedProgram& program, const Ddg& graph,
                    const CompileOptions& copts = {});

  /// Stats from every shard (rows in endpoint order).  A shard that
  /// cannot be reached right now reports alive=false instead of throwing.
  [[nodiscard]] std::vector<ShardStatsRow> fleet_stats();

  /// Send Shutdown to every reachable shard; unreachable shards are
  /// skipped (they are already down).
  void shutdown_fleet();

  /// Test hook: force a shard into the dead state (as if its connection
  /// had just failed) so failover paths can be exercised without a
  /// network fault.
  void mark_dead(std::size_t shard);

  /// Test hook: true while `shard` is inside its dead cooldown.
  [[nodiscard]] bool is_dead(std::size_t shard) const;

 private:
  struct Shard;  // client + health; defined in shard_router.cpp

  /// Connected client for `shard`, dialing (with retry/backoff) if
  /// needed.  Throws wire::WireError after the last attempt fails.
  PlanClient& ensure_connected(std::size_t shard);
  /// Record why `shard` failed, then mark_dead it.
  void note_failure(std::size_t shard, const std::exception& e);
  /// The every-shard-is-dead error, naming each shard's last failure.
  [[nodiscard]] wire::WireError all_dead_error() const;

  ShardRouterOptions opts_;
  std::vector<std::string> endpoints_;
  /// Sorted ring of (point, shard index).
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mimd
