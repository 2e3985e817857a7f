#include "support/loop_gen.hpp"

#include <random>
#include <sstream>
#include <vector>

#include "core/parallelizer.hpp"
#include "partition/compiled_program.hpp"
#include "partition/lowering.hpp"
#include "schedule/cyclic_sched.hpp"
#include "schedule/full_sched.hpp"
#include "schedule/pattern.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_loops.hpp"

namespace mimd::testsupport {

GeneratedLoop generate_loop(std::uint64_t seed, const LoopGenOptions& opts) {
  // One RNG drives every choice, seeded independently of the graph
  // generator's internal stream so adding a knob here never perturbs the
  // graphs themselves.
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  const auto pick_int = [&rng](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };

  GeneratedLoop out;
  out.machine.processors =
      static_cast<int>(pick_int(opts.min_procs, opts.max_procs));
  out.machine.comm_estimate = static_cast<int>(pick_int(opts.min_k, opts.max_k));
  const std::int64_t n = pick_int(opts.min_iterations, opts.max_iterations);
  out.graph = workloads::random_connected_cyclic_loop(seed);

  // Prefer the paper's main pipeline (cyclic pattern -> materialize);
  // fall back to — and sometimes deliberately choose — the full-schedule
  // path so both lowerings stay under differential test.
  const bool force_full = opts.mix_schedule_paths && rng() % 4 == 0;
  const CyclicSchedResult cyc = cyclic_sched(out.graph, out.machine);
  bool used_full = true;
  if (cyc.pattern.has_value() && !force_full) {
    out.program =
        lower(materialize(*cyc.pattern, out.machine.processors, n), out.graph);
    used_full = false;
  } else {
    const FullSchedResult full = full_sched(out.graph, out.machine, n);
    out.program = lower(full.schedule, out.graph);
  }

  // Validate now (compile_program runs find_program_violation) and record
  // the compiled iteration count — the exact n every executor must cover.
  out.iterations = compile_program(out.program, out.graph).iterations;

  out.tag = "rand" + std::to_string(seed) + "_p" +
            std::to_string(out.machine.processors) + "k" +
            std::to_string(out.machine.comm_estimate) +
            (used_full ? "f" : "");
  return out;
}

namespace {

/// One random edit; false (and `p` untouched) when the drawn edit does
/// not apply.
bool mutate_program(PartitionedProgram& p, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::vector<std::size_t> nonempty;
  for (std::size_t i = 0; i < p.programs.size(); ++i) {
    if (!p.programs[i].ops.empty()) nonempty.push_back(i);
  }
  if (nonempty.empty()) return false;
  std::vector<Op>& ops = p.programs[nonempty[pick(nonempty.size())]].ops;
  const std::size_t at = pick(ops.size());
  switch (rng() % 6) {
    case 0:  // drop an op
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(at));
      return true;
    case 1:  // duplicate an op in place
      ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(at), ops[at]);
      return true;
    case 2:  // swap two adjacent ops
      if (at + 1 == ops.size()) return false;
      std::swap(ops[at], ops[at + 1]);
      return true;
    case 3: {  // retarget a message, possibly to a processor that is absent
      std::vector<std::size_t> messages;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].kind != Op::Kind::Compute) messages.push_back(i);
      }
      if (messages.empty()) return false;
      Op& op = ops[messages[pick(messages.size())]];
      const int peer = static_cast<int>(pick(
                           static_cast<std::size_t>(p.processors) + 2)) - 1;
      if (peer == op.peer) return false;
      op.peer = peer;
      return true;
    }
    case 4: {  // shift an iteration, possibly below zero
      const std::int64_t delta = static_cast<std::int64_t>(pick(7)) - 3;
      if (delta == 0) return false;
      ops[at].inst.iter += delta;
      return true;
    }
    default: {  // reorder the receives of one channel
      const Op& probe = ops[at];
      if (probe.kind != Op::Kind::Receive) return false;
      std::vector<std::size_t> same;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].kind == Op::Kind::Receive && ops[i].edge == probe.edge &&
            ops[i].peer == probe.peer) {
          same.push_back(i);
        }
      }
      if (same.size() < 2) return false;
      const std::size_t a = same[pick(same.size())];
      const std::size_t b = same[pick(same.size())];
      if (ops[a] == ops[b]) return false;
      std::swap(ops[a], ops[b]);
      return true;
    }
  }
}

}  // namespace

PartitionedProgram mutated_program(const PartitionedProgram& p,
                                   std::mt19937_64& rng) {
  PartitionedProgram out = p;
  // Failed draws just draw again, within a bound.
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int done = 0, tries = 0; done < edits && tries < 50; ++tries) {
    done += mutate_program(out, rng) ? 1 : 0;
  }
  return out;
}

PartitionedProgram cross_wait_mutant(const PartitionedProgram& p,
                                     std::mt19937_64& rng) {
  PartitionedProgram out = p;
  // Each receive that can move: (program, op, the place it moves to).
  struct Move {
    std::size_t program, from, to;
  };
  std::vector<Move> moves;
  for (std::size_t i = 0; i < out.programs.size(); ++i) {
    const std::vector<Op>& ops = out.programs[i].ops;
    for (std::size_t j = 0; j < ops.size(); ++j) {
      if (ops[j].kind != Op::Kind::Receive) continue;
      std::size_t to = 0;
      for (std::size_t k = j; k-- > 0;) {
        if (ops[k].kind == Op::Kind::Receive && ops[k].edge == ops[j].edge &&
            ops[k].peer == ops[j].peer) {
          to = k + 1;
          break;
        }
      }
      if (to < j) moves.push_back({i, j, to});
    }
  }
  if (moves.empty()) return out;
  const Move m = moves[rng() % moves.size()];
  std::vector<Op>& ops = out.programs[m.program].ops;
  const Op receive = ops[m.from];
  ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(m.from));
  ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(m.to), receive);
  return out;
}

PartitionedProgram circular_forward_mutant(const PartitionedProgram& p,
                                           std::mt19937_64& rng) {
  PartitionedProgram out = p;
  std::vector<const Op*> sends;
  for (const ProcessorProgram& prog : p.programs) {
    for (const Op& op : prog.ops) {
      if (op.kind == Op::Kind::Send) sends.push_back(&op);
    }
  }
  if (out.programs.size() < 2 || sends.empty()) return out;
  const Op& value = *sends[rng() % sends.size()];
  const std::size_t a = rng() % out.programs.size();
  const std::size_t b =
      (a + 1 + rng() % (out.programs.size() - 1)) % out.programs.size();
  const auto forward = [&](std::size_t self, std::size_t peer) {
    std::vector<Op>& ops = out.programs[self].ops;
    const int from = out.programs[peer].proc;
    ops.insert(ops.begin(),
               {Op{Op::Kind::Receive, value.inst, value.edge, from},
                Op{Op::Kind::Send, value.inst, value.edge, from}});
  };
  forward(a, b);
  forward(b, a);
  return out;
}

HandBuiltLoop two_node_cross_wait() {
  HandBuiltLoop l;
  const NodeId a = l.graph.add_node("A");
  const NodeId b = l.graph.add_node("B");
  const EdgeId ab = l.graph.add_edge(a, b, 1);
  const EdgeId ba = l.graph.add_edge(b, a, 1);
  l.program.processors = 2;
  l.program.programs.resize(2);
  l.program.programs[0].proc = 0;
  l.program.programs[1].proc = 1;
  l.program.programs[0].ops = {
      Op{Op::Kind::Receive, Inst{b, 1}, ba, 1},
      Op{Op::Kind::Compute, Inst{a, 2}, 0, -1},
      Op{Op::Kind::Compute, Inst{a, 0}, 0, -1},
      Op{Op::Kind::Send, Inst{a, 0}, ab, 1},
  };
  l.program.programs[1].ops = {
      Op{Op::Kind::Receive, Inst{a, 0}, ab, 0},
      Op{Op::Kind::Compute, Inst{b, 1}, 0, -1},
      Op{Op::Kind::Send, Inst{b, 1}, ba, 0},
  };
  return l;
}

std::string tiers_off_reference(const ExecutorPlan& plan, WorkerPool* pool) {
  const std::int64_t n = plan.program().iterations;
  const ExecutionResult reference = run_reference(plan.graph(), n);
  RunOptions gang;
  gang.pool = pool;
  std::string off;
  if (!values_match(plan.run_one_thread(n), reference, n)) off = "one-thread";
  if (!values_match(plan.run_gang(n, gang), reference, n)) {
    off += off.empty() ? "gang" : ", gang";
  }
  return off;
}

Ddg renamed_copy(const Ddg& g, const std::string& prefix) {
  Ddg copy;
  for (const Node& n : g.nodes()) {
    copy.add_node(prefix + n.name, n.latency);
  }
  for (const Edge& e : g.edges()) {
    copy.add_edge(e.src, e.dst, e.distance, e.comm_cost);
  }
  return copy;
}

std::vector<std::pair<std::string, Ddg>> hot_structures() {
  using namespace workloads;
  return {{"fig7", fig7_loop()},
          {"cytron86", cytron86_loop()},
          {"elliptic", elliptic_filter_loop()},
          {"LL18", livermore18_loop()},
          {"LL6", ll6_linear_recurrence()},
          {"LL20", ll20_discrete_ordinates()}};
}

HotProgram hot_program(const Ddg& g, int p, std::int64_t n) {
  ParallelizeOptions popts;
  popts.machine = Machine{p, 1};
  popts.iterations = n;
  popts.emit_code = false;
  ParallelizeResult r = parallelize(g, popts);
  return {std::move(r.program), std::move(r.normalized.graph)};
}

namespace {

/// Expression text for strand `j`, recursing at most `depth` more levels.
/// Leaves are strand-local array reads, external inputs, scalars and
/// constants; inner nodes are salted with fold/identity/strength bait.
std::string rand_expr(std::mt19937_64& rng, int j, int depth) {
  const std::string js = std::to_string(j);
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  if (depth <= 0 || pick(3) == 0) {
    switch (pick(6)) {
      case 0: return "A" + js + "[i-1]";
      case 1: return "X" + js + "[i]";
      case 2: return "X" + js + "[i-2]";  // old-time-step input
      case 3: return "s" + js;            // loop-invariant scalar
      case 4: return std::to_string(1 + pick(5));
      default: return "0.5";
    }
  }
  const std::string a = rand_expr(rng, j, depth - 1);
  switch (pick(10)) {
    case 0: return "(" + a + " + " + rand_expr(rng, j, depth - 1) + ")";
    case 1: return "(" + a + " - " + rand_expr(rng, j, depth - 1) + ")";
    case 2: return "(" + a + " * " + rand_expr(rng, j, depth - 1) + ")";
    case 3: return "(" + a + " * 1)";   // exact identity
    case 4: return "(" + a + " / 1)";   // exact identity
    case 5: return "(" + a + " - 0)";   // exact identity
    case 6: return "(- - " + a + ")";   // exact identity
    case 7: return "(" + a + " * 2)";   // strength-reduction bait
    case 8: return "(" + a + " / 2)";   // exact-reciprocal bait
    default:
      return "(" + std::to_string(1 + pick(4)) + " + " +
             std::to_string(1 + pick(4)) + ")";  // constant fold bait
  }
}

}  // namespace

GeneratedIrLoop random_ir_loop(std::uint64_t seed,
                               const IrLoopGenOptions& opts) {
  std::mt19937_64 rng(seed * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL);
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };

  GeneratedIrLoop out;
  out.strands = 1 + static_cast<int>(pick(3));

  std::ostringstream body;
  std::vector<std::string> outputs;
  body << "for i:\n";
  for (int j = 0; j < out.strands; ++j) {
    const std::string js = std::to_string(j);
    // Base recurrence: keeps the strand cyclic.  By default a distance-2
    // self-dep always rides with a distance-1 term: a recurrence whose
    // only distance is 2 makes normalize_distances unroll x2, and the
    // unrolled graph splits into two parity components the pipeline
    // rejects (ParitySplitError).  allow_parity_splits opts into exactly
    // that shape so the diagnostic itself gets fuzz coverage.
    std::string base = pick(4) == 0
                           ? "(A" + js + "[i-1] + A" + js + "[i-2])"
                           : "A" + js + "[i-1]";
    if (opts.allow_parity_splits && pick(3) == 0) base = "A" + js + "[i-2]";
    body << "  A" << js << "[i] = " << base << " "
         << (pick(2) == 0 ? "+" : "-") << " " << rand_expr(rng, j, 2)
         << "\n";
    // Optional secondary recurrence, chained to the base one so the
    // strand's cyclic subset stays connected after fission.
    if (pick(2) == 0) {
      body << "  D" << js << "[i] = D" << js << "[i-1] + A" << js
           << "[i-1]" << (pick(2) == 0 ? " @2" : "") << "\n";
    }
    // Feeder and consumer chain (Flow-out material).
    body << "  B" << js << "[i] = " << rand_expr(rng, j, 2) << "\n";
    if (pick(3) == 0) {
      body << "  if A" << js << "[i-1] > " << (1 + pick(3)) << " {\n"
           << "    C" << js << "[i] = B" << js << "[i] * 2\n"
           << "  } else {\n"
           << "    C" << js << "[i] = " << rand_expr(rng, j, 1) << "\n"
           << "  }\n";
    } else {
      // C always reads A so the strand's recurrence stays live whenever
      // C is an output — the generator never produces an acyclic strand.
      body << "  C" << js << "[i] = (B" << js << "[i] + A" << js
           << "[i-1]) + " << rand_expr(rng, j, 1) << "\n";
    }
    // Dead-code bait: a private recurrence nothing downstream reads —
    // removable exactly when an `out` clause excludes it.
    if (pick(2) == 0) {
      body << "  E" << js << "[i] = E" << js << "[i-1] + A" << js
           << "[i-1]\n";
    }
    if (pick(2) == 0) outputs.push_back("A" + js);
    outputs.push_back("C" + js);
  }

  std::ostringstream src;
  // About half the programs declare observability (DCE armed); the rest
  // leave everything observable (DCE must be a no-op).
  if (pick(2) == 0) {
    src << "out ";
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      if (i > 0) src << ", ";
      src << outputs[i];
    }
    src << "\n";
  }
  src << body.str();

  out.source = src.str();
  out.tag = "irloop" + std::to_string(seed) + "_s" + std::to_string(out.strands);
  return out;
}

}  // namespace mimd::testsupport
