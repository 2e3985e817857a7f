#include "runtime/shard_router.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "partition/compiled_program.hpp"

namespace mimd {

namespace {

/// Ring points per shard.  More vnodes = smoother key distribution; 64
/// keeps the max/mean shard load under ~1.3x for small fleets.
constexpr std::size_t kVnodesPerShard = 64;
/// Ceiling of the doubling connect backoff.
constexpr int kConnectBackoffMaxMs = 200;

/// SplitMix64's output mixer (support/random.hpp's generator;
/// structural_hash ends with the same avalanche) — ring points must be
/// uniform even though endpoint strings and vnode indices are anything
/// but.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a over the endpoint string: the shard's ring identity.  Hashing
/// the *string* (not the index) is what makes the ring stable under
/// shard-list reordering and growth.
std::uint64_t hash_endpoint(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

/// Per-shard client + health.  Only the caller's thread touches a Shard
/// (run_jobs pipelines from it rather than spawning per-shard threads),
/// so nothing here is locked.
struct ShardRouter::Shard {
  PlanClient client;
  bool connected = false;
  bool dead = false;
  std::chrono::steady_clock::time_point dead_until{};
  /// Why the shard last failed (connect error, torn stream), quoted when
  /// the whole fleet is dead so the caller sees the cause, not just the
  /// count.
  std::string last_error;
  /// route_key -> program_id on *this* connection: repeat jobs skip
  /// submit_program entirely, so a long-lived router stops growing the
  /// daemon's per-connection registry (and re-serializing the program).
  /// Ids are connection-scoped, so the map is cleared whenever the
  /// connection turns over (reconnect or death).  Keyed by the same
  /// 64-bit structural hash the ring routes on; unlike PlanCache there is
  /// no full-equality guard behind it, so a 2^-64 collision would reuse
  /// the wrong id — the same odds the consistent-hash ring already
  /// accepts for routing.
  std::unordered_map<std::uint64_t, std::uint64_t> submitted;
};

ShardRouter::ShardRouter(ShardRouterOptions opts) : opts_(std::move(opts)) {
  endpoints_ = opts_.endpoints;
  if (endpoints_.empty()) {
    throw std::invalid_argument("ShardRouter: no endpoints configured");
  }
  ring_.reserve(endpoints_.size() * kVnodesPerShard);
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    const std::uint64_t id = hash_endpoint(endpoints_[i]);
    for (std::size_t v = 0; v < kVnodesPerShard; ++v) {
      ring_.emplace_back(mix64(id ^ mix64(v)), i);
    }
    shards_.push_back(std::make_unique<Shard>());
  }
  std::sort(ring_.begin(), ring_.end());
}

ShardRouter::~ShardRouter() = default;

std::uint64_t ShardRouter::route_key(const PartitionedProgram& p, const Ddg& g,
                                     const CompileOptions& copts) {
  return structural_hash(p, g, copts);
}

std::size_t ShardRouter::shard_for(std::uint64_t key) const {
  auto it = std::upper_bound(
      ring_.begin(), ring_.end(), key,
      [](std::uint64_t k, const auto& pt) { return k < pt.first; });
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

std::vector<std::size_t> ShardRouter::preference_order(
    std::uint64_t key) const {
  std::vector<std::size_t> order;
  order.reserve(endpoints_.size());
  std::vector<bool> seen(endpoints_.size(), false);
  auto it = std::upper_bound(
      ring_.begin(), ring_.end(), key,
      [](std::uint64_t k, const auto& pt) { return k < pt.first; });
  for (std::size_t step = 0; step < ring_.size() && order.size() < endpoints_.size();
       ++step, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    if (!seen[it->second]) {
      seen[it->second] = true;
      order.push_back(it->second);
    }
  }
  // Ring walk visits every point, so every shard; but keep the invariant
  // explicit for the degenerate single-vnode case.
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (!seen[i]) order.push_back(i);
  }
  return order;
}

void ShardRouter::mark_dead(std::size_t shard) {
  Shard& s = *shards_.at(shard);
  s.dead = true;
  s.dead_until = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(opts_.dead_cooldown_ms);
  s.submitted.clear();  // ids died with the connection
  if (s.connected) {
    s.client.close();
    s.connected = false;
  }
}

bool ShardRouter::is_dead(std::size_t shard) const {
  Shard& s = *shards_.at(shard);
  if (!s.dead) return false;
  if (std::chrono::steady_clock::now() >= s.dead_until) {
    s.dead = false;  // cooldown over: eligible for a reconnect probe
    return false;
  }
  return true;
}

void ShardRouter::note_failure(std::size_t shard, const std::exception& e) {
  shards_.at(shard)->last_error = e.what();
  mark_dead(shard);
}

PlanClient& ShardRouter::ensure_connected(std::size_t shard) {
  Shard& s = *shards_.at(shard);
  if (s.connected) return s.client;
  const int attempts = std::max(opts_.connect_attempts, 1);
  int backoff_ms = std::max(opts_.connect_backoff_initial_ms, 1);
  for (int attempt = 0;; ++attempt) {
    try {
      s.client = PlanClient::connect(endpoints_[shard], opts_.timeout_ms);
      s.connected = true;
      s.dead = false;
      s.submitted.clear();  // fresh connection, fresh id space
      return s.client;
    } catch (const wire::WireError&) {
      if (attempt + 1 >= attempts) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, kConnectBackoffMaxMs);
    }
  }
}

std::vector<ExecutionResult> ShardRouter::run_jobs(
    const std::vector<ShardJob>& jobs) {
  std::vector<ExecutionResult> results(jobs.size());
  if (jobs.empty()) return results;

  // Precompute each job's structural key (reused below for the
  // submitted-id cache) and failover preference order once.
  std::vector<std::uint64_t> keys(jobs.size());
  std::vector<std::vector<std::size_t>> prefs(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    keys[i] = route_key(jobs[i].program, jobs[i].graph, jobs[i].copts);
    prefs[i] = preference_order(keys[i]);
  }

  std::vector<std::size_t> pending(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) pending[i] = i;

  // One shard's share of a round.  Every request is issued from this
  // thread and pipelined on the shard's connection; the shards overlap
  // because each wait for replies comes only after every shard has the
  // requests they answer in flight.
  struct Flight {
    std::size_t shard = 0;
    std::vector<std::size_t> group;  ///< job indexes
    std::vector<std::uint64_t> ids;  ///< per group position
    std::vector<std::pair<std::size_t, std::future<wire::SubmitProgramReply>>>
        submits;
    std::vector<std::future<ExecutionResult>> runs;
    bool failed = false;
  };

  // Each round assigns every pending job to its first live shard and
  // drives the per-shard groups in three phases: submit, run, gather.  A
  // group whose shard dies mid-round stays pending and reroutes next
  // round; at most one round per shard can fail, so shard_count()+1
  // rounds always suffice.
  for (std::size_t round = 0; round <= shard_count() && !pending.empty();
       ++round) {
    std::vector<Flight> flights(shard_count());
    for (std::size_t i = 0; i < flights.size(); ++i) flights[i].shard = i;
    for (const std::size_t j : pending) {
      std::size_t target = prefs[j].size();  // sentinel: none live
      for (const std::size_t cand : prefs[j]) {
        if (!is_dead(cand)) {
          target = cand;
          break;
        }
      }
      if (target == prefs[j].size()) throw all_dead_error();
      flights[target].group.push_back(j);
    }
    pending.clear();
    std::erase_if(flights, [](const Flight& f) { return f.group.empty(); });

    std::exception_ptr remote_error;  // first RemoteError wins, rethrown
    // Runs one phase of a flight; a failure parks the flight for the rest
    // of the round.
    const auto step = [&](Flight& f, const auto& phase) {
      if (f.failed) return;
      try {
        phase();
      } catch (const RemoteError&) {
        // The shard is healthy and said no: the caller's problem.
        if (!remote_error) remote_error = std::current_exception();
        f.failed = true;
      } catch (const wire::WireError& e) {
        // Transport death: bury the shard, reroute the whole group
        // (idempotent — rerunning on the successor is bit-identical).
        note_failure(f.shard, e);
        pending.insert(pending.end(), f.group.begin(), f.group.end());
        f.failed = true;
      }
    };

    // Submit every job the shard's id cache misses, back-to-back: the
    // shard overlaps the compiles across its handler pool.  A duplicate
    // key inside one group may submit twice (both missed the id cache
    // when sent); the daemon's shared cache still compiles once and the
    // extra registry id is harmless.
    for (Flight& f : flights) {
      step(f, [&] {
        PlanClient& client = ensure_connected(f.shard);
        const Shard& s = *shards_[f.shard];
        f.ids.resize(f.group.size());
        for (std::size_t k = 0; k < f.group.size(); ++k) {
          const std::size_t j = f.group[k];
          const auto it = s.submitted.find(keys[j]);
          if (it != s.submitted.end()) {
            f.ids[k] = it->second;
          } else {
            f.submits.emplace_back(
                k, client.submit_program_async(jobs[j].program,
                                               jobs[j].graph, jobs[j].copts));
          }
        }
      });
    }
    // Gather the ids, then pipeline one Run frame per job.
    for (Flight& f : flights) {
      step(f, [&] {
        Shard& s = *shards_[f.shard];
        for (auto& [k, fut] : f.submits) {
          f.ids[k] = fut.get().program_id;
          s.submitted.emplace(keys[f.group[k]], f.ids[k]);
        }
        for (std::size_t k = 0; k < f.group.size(); ++k) {
          const ShardJob& job = jobs[f.group[k]];
          f.runs.push_back(
              s.client.run_async(f.ids[k], job.iterations, job.run_opts));
        }
      });
    }
    for (Flight& f : flights) {
      step(f, [&] {
        for (std::size_t k = 0; k < f.group.size(); ++k) {
          results[f.group[k]] = f.runs[k].get();
        }
      });
    }
    if (remote_error) std::rethrow_exception(remote_error);
  }

  if (!pending.empty()) {
    throw wire::WireError("ShardRouter: jobs still unrouted after " +
                          std::to_string(shard_count() + 1) +
                          " rounds (fleet unhealthy)");
  }
  return results;
}

wire::WireError ShardRouter::all_dead_error() const {
  std::string msg = "ShardRouter: all " + std::to_string(shard_count()) +
                    " shards are dead; cannot route jobs";
  for (std::size_t i = 0; i < shard_count(); ++i) {
    const std::string& why = shards_[i]->last_error;
    msg += (i == 0 ? " (" : "; ") + endpoints_[i] + ": " +
           (why.empty() ? "marked dead" : why);
  }
  return wire::WireError(msg + ")");
}

ExecutionResult ShardRouter::run_one(const ShardJob& job) {
  std::vector<ExecutionResult> r = run_jobs({job});
  return std::move(r.front());
}

bool ShardRouter::drop_program(const PartitionedProgram& program,
                               const Ddg& graph, const CompileOptions& copts) {
  const std::uint64_t key = route_key(program, graph, copts);
  // The program can only be registered on shards this router submitted it
  // to — walk the preference order and drop wherever the submitted-id
  // cache has an entry (normally just the primary; failover may have
  // left copies on successors).
  bool dropped = false;
  for (const std::size_t shard : preference_order(key)) {
    Shard& s = *shards_[shard];
    const auto it = s.submitted.find(key);
    if (it == s.submitted.end()) continue;
    const std::uint64_t id = it->second;
    try {
      ensure_connected(shard).drop_program(id);
    } catch (const RemoteError&) {
      // The shard no longer knows the id (restart, registry turnover):
      // the local cache entry is stale either way — fall through and
      // invalidate it.
    } catch (const wire::WireError& e) {
      // Connection death: the per-connection registry died with it
      // server-side, and mark_dead just cleared this shard's whole
      // submitted cache — both sides already forgot the id.
      note_failure(shard, e);
      dropped = true;
      continue;
    }
    // Invalidate only on ack (or a stale id): the next run_jobs with
    // this program re-submits instead of using a dangling id.
    s.submitted.erase(key);
    dropped = true;
  }
  return dropped;
}

std::vector<ShardStatsRow> ShardRouter::fleet_stats() {
  std::vector<ShardStatsRow> rows;
  rows.reserve(endpoints_.size());
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    ShardStatsRow row;
    row.endpoint = endpoints_[i];
    try {
      row.stats = ensure_connected(i).stats();
      row.alive = true;
    } catch (const std::exception& e) {
      note_failure(i, e);
      row.alive = false;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void ShardRouter::shutdown_fleet() {
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    try {
      ensure_connected(i).shutdown_server();
    } catch (const std::exception&) {
      // Already down (or dying): that is the goal state.
    }
    Shard& s = *shards_[i];
    if (s.connected) {
      s.client.close();
      s.connected = false;
    }
  }
}

}  // namespace mimd
