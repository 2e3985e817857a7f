#include "partition/partitioned_loop.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <vector>

#include "partition/flat_map.hpp"

namespace mimd {

std::size_t PartitionedProgram::total_ops() const {
  std::size_t n = 0;
  for (const ProcessorProgram& p : programs) n += p.ops.size();
  return n;
}

std::size_t PartitionedProgram::count(Op::Kind k) const {
  std::size_t n = 0;
  for (const ProcessorProgram& p : programs) {
    for (const Op& op : p.ops) {
      if (op.kind == k) ++n;
    }
  }
  return n;
}

namespace {

/// One Send or Receive as the message checks see it: the channel
/// (edge, src -> dst) and the producing instance it carries.
struct Message {
  EdgeId edge = 0;
  int src = -1;
  int dst = -1;
  Inst inst;
};

bool same_channel(const Message& a, const Message& b) {
  return a.edge == b.edge && a.src == b.src && a.dst == b.dst;
}

bool channel_less(const Message& a, const Message& b) {
  return std::tie(a.edge, a.src, a.dst) < std::tie(b.edge, b.src, b.dst);
}

std::string describe(const Op& op, const Ddg& g) {
  std::ostringstream s;
  s << (op.kind == Op::Kind::Compute ? "compute "
        : op.kind == Op::Kind::Send  ? "send of "
                                     : "receive of ")
    << g.node(op.inst.node).name << "@" << op.inst.iter;
  return s.str();
}

/// The multiset and FIFO checks over every message of the program.
/// Sorting by channel (stably, so each channel keeps program order) puts
/// every channel's sends and receives side by side: equal multisets mean
/// the two sorted arrays agree channel by channel, and FIFO means each
/// channel's iteration sequence is the same on both sides.
std::optional<std::string> find_message_violation(
    std::vector<Message>& sends, std::vector<Message>& receives) {
  static constexpr const char* kUnmatched =
      "send/receive multisets differ (unmatched message)";
  if (sends.size() != receives.size()) return kUnmatched;
  std::stable_sort(sends.begin(), sends.end(), channel_less);
  std::stable_sort(receives.begin(), receives.end(), channel_less);

  // Every channel must pass the multiset check before any FIFO verdict
  // counts: remember the first out-of-order channel, keep checking.
  const Message* out_of_order = nullptr;
  std::vector<Inst> sent, received;
  for (std::size_t i = 0; i < sends.size();) {
    std::size_t end = i;
    while (end < sends.size() && same_channel(sends[end], sends[i])) ++end;
    for (std::size_t k = i; k < end; ++k) {
      if (!same_channel(receives[k], sends[i])) return kUnmatched;
    }
    if (end < receives.size() && same_channel(receives[end], sends[i])) {
      return kUnmatched;
    }
    bool in_order = true;
    for (std::size_t k = i; k < end && in_order; ++k) {
      in_order = sends[k].inst == receives[k].inst;
    }
    if (!in_order) {
      sent.clear();
      received.clear();
      for (std::size_t k = i; k < end; ++k) {
        sent.push_back(sends[k].inst);
        received.push_back(receives[k].inst);
      }
      std::sort(sent.begin(), sent.end());
      std::sort(received.begin(), received.end());
      if (sent != received) return kUnmatched;
      for (std::size_t k = i; k < end && out_of_order == nullptr; ++k) {
        if (sends[k].inst.iter != receives[k].inst.iter) {
          out_of_order = &sends[i];
        }
      }
    }
    i = end;
  }
  if (out_of_order != nullptr) {
    std::ostringstream msg;
    msg << "channel (edge " << out_of_order->edge << ", PE"
        << out_of_order->src << " -> PE" << out_of_order->dst
        << ") violates FIFO order";
    return msg.str();
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> find_program_violation(const PartitionedProgram& p,
                                                  const Ddg& g) {
  std::size_t computes = 0;
  std::size_t messages = 0;
  for (const ProcessorProgram& prog : p.programs) {
    for (const Op& op : prog.ops) {
      if (op.kind == Op::Kind::Compute) {
        ++computes;
      } else {
        ++messages;
      }
    }
  }
  // Every compute instance -> the index (into p.programs) of the one
  // program allowed to compute it.
  detail::InstMap computed_by(computes);
  std::vector<Message> sends, receives;
  sends.reserve(messages);
  receives.reserve(messages);

  for (std::uint32_t pi = 0; pi < p.programs.size(); ++pi) {
    const ProcessorProgram& prog = p.programs[pi];
    std::size_t recv_ops = 0;
    for (const Op& op : prog.ops) recv_ops += op.kind == Op::Kind::Receive;
    // What this processor has received so far; together with the
    // instances it computed, what it holds locally in program order.
    detail::InstMap received(recv_ops);
    const auto available = [&](const Inst& v) {
      const std::uint32_t* owner = computed_by.find(v);
      return (owner != nullptr && *owner == pi) ||
             received.find(v) != nullptr;
    };
    for (const Op& op : prog.ops) {
      if (op.inst.iter < 0) {
        return "PE" + std::to_string(prog.proc) + ": " + describe(op, g) +
               " has a negative iteration";
      }
      switch (op.kind) {
        case Op::Kind::Compute: {
          const auto [owner, fresh] = computed_by.try_emplace(op.inst, pi);
          if (!fresh) {
            return "PE" + std::to_string(prog.proc) + ": " +
                   describe(op, g) + " duplicates the instance computed on PE" +
                   std::to_string(p.programs[*owner].proc);
          }
          for (const EdgeId eid : g.in_edges(op.inst.node)) {
            const Edge& e = g.edge(eid);
            const std::int64_t src_iter = op.inst.iter - e.distance;
            if (src_iter < 0) continue;
            if (!available(Inst{e.src, src_iter})) {
              std::ostringstream msg;
              msg << "PE" << prog.proc << ": compute "
                  << g.node(op.inst.node).name << "@" << op.inst.iter
                  << " before operand " << g.node(e.src).name << "@"
                  << src_iter << " is available";
              return msg.str();
            }
          }
          break;
        }
        case Op::Kind::Send: {
          if (!available(op.inst)) {
            std::ostringstream msg;
            msg << "PE" << prog.proc << ": send of "
                << g.node(op.inst.node).name << "@" << op.inst.iter
                << " before it is computed/received";
            return msg.str();
          }
          sends.push_back(Message{op.edge, prog.proc, op.peer, op.inst});
          break;
        }
        case Op::Kind::Receive: {
          (void)received.try_emplace(op.inst, 1);
          receives.push_back(Message{op.edge, op.peer, prog.proc, op.inst});
          break;
        }
      }
    }
  }
  return find_message_violation(sends, receives);
}

}  // namespace mimd
