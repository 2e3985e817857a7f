#include "support/reference_validator.hpp"

#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

namespace mimd::testsupport {

std::optional<std::string> reference_program_violation(
    const PartitionedProgram& p, const Ddg& g) {
  using MsgKey = std::tuple<EdgeId, NodeId, std::int64_t, int, int>;
  std::map<MsgKey, int> sends, receives;  // key -> count
  // Per-channel iteration sequences, for the FIFO check.
  using Chan = std::tuple<EdgeId, int, int>;
  std::map<Chan, std::vector<std::int64_t>> send_seq, recv_seq;
  // Added: every compute instance -> the PE that computed it first.
  std::map<std::pair<NodeId, std::int64_t>, int> computed_on;

  // Added: one program per processor id, checked before any op.
  std::set<int> procs;
  for (const ProcessorProgram& prog : p.programs) {
    if (!procs.insert(prog.proc).second) {
      std::ostringstream msg;
      msg << "PE" << prog.proc
          << ": two processor programs share this processor id";
      return msg.str();
    }
  }

  for (const ProcessorProgram& prog : p.programs) {
    // Program-order tracking of what this processor has available locally:
    // values it computed and values it received.
    std::map<std::pair<NodeId, std::int64_t>, bool> local;
    for (const Op& op : prog.ops) {
      // Added: no op names a negative iteration.
      if (op.inst.iter < 0) {
        std::ostringstream msg;
        msg << "PE" << prog.proc << ": "
            << (op.kind == Op::Kind::Compute ? "compute "
                : op.kind == Op::Kind::Send  ? "send of "
                                             : "receive of ")
            << g.node(op.inst.node).name << "@" << op.inst.iter
            << " has a negative iteration";
        return msg.str();
      }
      switch (op.kind) {
        case Op::Kind::Compute: {
          // Added: each compute instance appears once in the program.
          const auto [first, fresh] =
              computed_on.try_emplace({op.inst.node, op.inst.iter}, prog.proc);
          if (!fresh) {
            std::ostringstream msg;
            msg << "PE" << prog.proc << ": compute "
                << g.node(op.inst.node).name << "@" << op.inst.iter
                << " duplicates the instance computed on PE" << first->second;
            return msg.str();
          }
          for (const EdgeId eid : g.in_edges(op.inst.node)) {
            const Edge& e = g.edge(eid);
            const std::int64_t src_iter = op.inst.iter - e.distance;
            if (src_iter < 0) continue;
            if (!local.contains({e.src, src_iter})) {
              std::ostringstream msg;
              msg << "PE" << prog.proc << ": compute "
                  << g.node(op.inst.node).name << "@" << op.inst.iter
                  << " before operand " << g.node(e.src).name << "@"
                  << src_iter << " is available";
              return msg.str();
            }
          }
          local[{op.inst.node, op.inst.iter}] = true;
          break;
        }
        case Op::Kind::Send: {
          if (!local.contains({op.inst.node, op.inst.iter})) {
            std::ostringstream msg;
            msg << "PE" << prog.proc << ": send of "
                << g.node(op.inst.node).name << "@" << op.inst.iter
                << " before it is computed/received";
            return msg.str();
          }
          ++sends[{op.edge, op.inst.node, op.inst.iter, prog.proc, op.peer}];
          send_seq[{op.edge, prog.proc, op.peer}].push_back(op.inst.iter);
          break;
        }
        case Op::Kind::Receive: {
          local[{op.inst.node, op.inst.iter}] = true;
          ++receives[{op.edge, op.inst.node, op.inst.iter, op.peer, prog.proc}];
          recv_seq[{op.edge, op.peer, prog.proc}].push_back(op.inst.iter);
          break;
        }
      }
    }
  }

  if (sends != receives) {
    return "send/receive multisets differ (unmatched message)";
  }
  for (const auto& [chan, seq] : send_seq) {
    const auto it = recv_seq.find(chan);
    if (it == recv_seq.end() || it->second != seq) {
      std::ostringstream msg;
      msg << "channel (edge " << std::get<0>(chan) << ", PE"
          << std::get<1>(chan) << " -> PE" << std::get<2>(chan)
          << ") violates FIFO order";
      return msg.str();
    }
  }

  // Added: no deadlock.  Passes over the processors in program order, each
  // advancing until a receive finds its channel empty; the run is over
  // when a pass makes no progress, and whatever is left waits forever.
  std::map<Chan, int> in_flight;
  std::vector<std::size_t> pc(p.programs.size(), 0);
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (std::size_t q = 0; q < p.programs.size(); ++q) {
      const ProcessorProgram& prog = p.programs[q];
      for (; pc[q] < prog.ops.size(); ++pc[q], progressed = true) {
        const Op& op = prog.ops[pc[q]];
        if (op.kind == Op::Kind::Send) {
          ++in_flight[{op.edge, prog.proc, op.peer}];
        } else if (op.kind == Op::Kind::Receive) {
          int& queued = in_flight[{op.edge, op.peer, prog.proc}];
          if (queued == 0) break;
          --queued;
        }
      }
    }
  }
  std::ostringstream stuck;
  for (std::size_t q = 0; q < p.programs.size(); ++q) {
    const ProcessorProgram& prog = p.programs[q];
    if (pc[q] == prog.ops.size()) continue;
    const Op& op = prog.ops[pc[q]];
    stuck << (stuck.tellp() == 0 ? "deadlock: PE" : ", PE") << prog.proc
          << " waits at receive of " << g.node(op.inst.node).name << "@"
          << op.inst.iter << " from PE" << op.peer;
  }
  if (stuck.tellp() > 0) return stuck.str();
  return std::nullopt;
}

}  // namespace mimd::testsupport
