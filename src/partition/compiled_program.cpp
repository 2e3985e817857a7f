#include "partition/compiled_program.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "partition/flat_map.hpp"

namespace mimd {

namespace {

struct ChanKey {
  EdgeId edge = 0;
  int src = -1;
  int dst = -1;

  friend bool operator==(const ChanKey&, const ChanKey&) = default;
};

struct ChanKeyHash {
  std::uint64_t operator()(const ChanKey& k) const {
    return detail::hash_words(k.edge, static_cast<std::uint32_t>(k.src),
                              static_cast<std::uint32_t>(k.dst));
  }
};

using ChannelIds = detail::FlatMap<ChanKey, ChannelId, ChanKeyHash>;

struct ProcHash {
  std::uint64_t operator()(int proc) const {
    return detail::hash_words(static_cast<std::uint32_t>(proc), 0);
  }
};

/// The channel of a receive that no send feeds.  Rule 2 rejects every
/// program holding one, so no compiled program returned keeps this id.
constexpr ChannelId kNoChannel = std::numeric_limits<ChannelId>::max();

std::string describe(const Op& op, const Ddg& g) {
  std::ostringstream s;
  s << (op.kind == Op::Kind::Compute ? "compute "
        : op.kind == Op::Kind::Send  ? "send of "
                                     : "receive of ")
    << g.node(op.inst.node).name << "@" << op.inst.iter;
  return s.str();
}

/// Rules 2-3's view of the program's messages: each side's producing
/// instances, bucketed by channel id as the walk meets them (a counting
/// sort whose counts are the send counts), so channel c's sends and its
/// receives both sit at [start[c], start[c + 1]) in program order.
class MessageBuckets {
 public:
  explicit MessageBuckets(const std::vector<ChannelDesc>& channels)
      : start_(channels.size() + 1, 0) {
    for (std::size_t c = 0; c < channels.size(); ++c) {
      start_[c + 1] =
          start_[c] + static_cast<std::size_t>(channels[c].messages);
    }
    next_send_.assign(start_.begin(), start_.end() - 1);
    next_receive_ = next_send_;
    sent_.resize(start_.back());
    received_.resize(start_.back());
  }

  void send(ChannelId c, const Inst& v) { sent_[next_send_[c]++] = v; }

  /// The program's send count, over every channel.
  [[nodiscard]] std::size_t sends() const { return start_.back(); }

  void receive(ChannelId c, const Inst& v) {
    ++receives_;
    // No send on this channel, or more receives than sends: the multisets
    // differ whatever else holds.
    if (c == kNoChannel || next_receive_[c] == start_[c + 1]) {
      overflow_ = true;
      return;
    }
    received_[next_receive_[c]++] = v;
  }

  /// The multiset and FIFO checks.  Equal totals and no overflowing
  /// channel mean every channel received exactly as many values as it
  /// was sent; then equal multisets mean equal sorted buckets, and FIFO
  /// means each channel's iteration sequence is the same on both sides.
  /// The FIFO verdict names the out-of-order channel first in (edge, src,
  /// dst) order, and counts only once every channel passed the multiset
  /// check.
  std::optional<std::string> find_violation(
      const std::vector<ChannelDesc>& channels) {
    static constexpr const char* kUnmatched =
        "send/receive multisets differ (unmatched message)";
    if (overflow_ || receives_ != sent_.size()) return kUnmatched;
    const auto key = [](const ChannelDesc& d) {
      return std::tie(d.edge, d.src_proc, d.dst_proc);
    };
    const ChannelDesc* out_of_order = nullptr;
    for (std::size_t c = 0; c < channels.size(); ++c) {
      const auto s0 = sent_.begin() + static_cast<std::ptrdiff_t>(start_[c]);
      const auto s1 =
          sent_.begin() + static_cast<std::ptrdiff_t>(start_[c + 1]);
      const auto r0 =
          received_.begin() + static_cast<std::ptrdiff_t>(start_[c]);
      const auto r1 =
          received_.begin() + static_cast<std::ptrdiff_t>(start_[c + 1]);
      if (std::equal(s0, s1, r0)) continue;
      const bool fifo = std::equal(
          s0, s1, r0,
          [](const Inst& a, const Inst& b) { return a.iter == b.iter; });
      std::sort(s0, s1);
      std::sort(r0, r1);
      if (!std::equal(s0, s1, r0)) return kUnmatched;
      if (!fifo &&
          (out_of_order == nullptr || key(channels[c]) < key(*out_of_order))) {
        out_of_order = &channels[c];
      }
    }
    if (out_of_order != nullptr) {
      std::ostringstream msg;
      msg << "channel (edge " << out_of_order->edge << ", PE"
          << out_of_order->src_proc << " -> PE" << out_of_order->dst_proc
          << ") violates FIFO order";
      return msg.str();
    }
    return std::nullopt;
  }

 private:
  std::vector<std::size_t> start_;
  std::vector<std::size_t> next_send_, next_receive_;
  std::vector<Inst> sent_, received_;
  std::size_t receives_ = 0;
  bool overflow_ = false;
};

/// A Send or Receive of one compiled thread, as rule 4 replays it: its kind
/// and channel, and its place among the thread's ops.  Computes never
/// wait, so rule 4 reads these alone, 12 bytes a message instead of a
/// 32-byte op each.
struct MessageOp {
  CompiledOp::Kind kind = CompiledOp::Kind::Send;
  ChannelId chan = 0;
  std::uint32_t op = 0;
};

/// The one walk behind find_program_violation and compile_program: checks
/// the rules in their documented order (partitioned_loop.hpp) and compiles
/// every op of `prog` into `cp` as it passes.  Returns the first violation;
/// `cp` is complete, apart from slot reuse, only when there is none.
std::optional<std::string> check_and_compile(const PartitionedProgram& prog,
                                             const Ddg& g,
                                             CompiledProgram& cp) {
  // Rule 0: one program per processor id.  Two programs with one id would
  // share that processor's channels — two producers or two consumers on a
  // single-producer single-consumer buffer.
  detail::FlatMap<int, char, ProcHash> procs(prog.programs.size());
  for (const ProcessorProgram& p : prog.programs) {
    if (!procs.try_emplace(p.proc, 0).second) {
      return "PE" + std::to_string(p.proc) +
             ": two processor programs share this processor id";
    }
  }

  // Dense channel ids, assigned in Send first-appearance order (processor
  // order, then program order) so compilation is deterministic.  The same
  // pass sizes the walk's tables.
  cp.processors = prog.processors;
  ChannelIds chan_ids(prog.programs.size());
  std::size_t computes = 0;
  for (const ProcessorProgram& p : prog.programs) {
    for (const Op& op : p.ops) {
      if (op.kind == Op::Kind::Compute) ++computes;
      if (op.kind != Op::Kind::Send) continue;
      const auto [id, fresh] =
          chan_ids.try_emplace(ChanKey{op.edge, p.proc, op.peer},
                               static_cast<ChannelId>(cp.channels.size()));
      if (fresh) {
        cp.channels.push_back(ChannelDesc{op.edge, p.proc, op.peer, 0});
      }
      ++cp.channels[*id].messages;
    }
  }

  // Rule 1, op by op in processor then program order.  Every compute
  // instance -> the index (into prog.programs) of the one program allowed
  // to compute it.
  detail::InstMap computed_by(computes);
  MessageBuckets messages(cp.channels);
  // Every compiled thread's sends and receives, thread after thread:
  // thread t's are [message_start[t], message_start[t + 1]).  A program
  // that passes rule 2 has as many receives as sends.
  std::vector<MessageOp> message_ops;
  message_ops.reserve(2 * messages.sends());
  std::vector<std::size_t> message_start{0};
  for (std::uint32_t pi = 0; pi < prog.programs.size(); ++pi) {
    const ProcessorProgram& p = prog.programs[pi];
    CompiledThread t;
    t.proc = p.proc;
    t.ops.reserve(p.ops.size());
    // (node, iteration) -> the slot holding that value: exactly what this
    // processor has computed or received so far, the set an operand or a
    // sent value must be in.
    detail::InstMap provider(p.ops.size());
    const auto provide = [&](const Inst& v, SlotId slot) {
      *provider.try_emplace(v, slot).first = slot;
    };
    for (const Op& op : p.ops) {
      const auto violation = [&](const std::string& what) {
        return "PE" + std::to_string(p.proc) + ": " + describe(op, g) + what;
      };
      if (op.inst.iter < 0) return violation(" has a negative iteration");
      CompiledOp c;
      c.node = op.inst.node;
      c.iter = op.inst.iter;
      switch (op.kind) {
        case Op::Kind::Compute: {
          const auto [owner, fresh] = computed_by.try_emplace(op.inst, pi);
          if (!fresh) {
            return violation(" duplicates the instance computed on PE" +
                             std::to_string(prog.programs[*owner].proc));
          }
          c.kind = CompiledOp::Kind::Compute;
          c.first_operand = static_cast<std::uint32_t>(t.operands.size());
          for (const EdgeId eid : g.in_edges(op.inst.node)) {
            const Edge& e = g.edge(eid);
            const std::int64_t src_iter = op.inst.iter - e.distance;
            if (src_iter < 0) {
              t.operands.push_back({OperandRef::Kind::InitialValue, e.src});
              continue;
            }
            const SlotId* slot = provider.find(Inst{e.src, src_iter});
            if (slot == nullptr) {
              return violation(" before operand " + g.node(e.src).name + "@" +
                               std::to_string(src_iter) + " is available");
            }
            t.operands.push_back({OperandRef::Kind::LocalSlot, *slot});
          }
          c.num_operands =
              static_cast<std::uint32_t>(t.operands.size()) - c.first_operand;
          c.slot = t.num_slots++;
          provide(op.inst, c.slot);
          // Any iteration >= 0 is admitted; saturate instead of
          // overflowing on INT64_MAX (such a plan can never be run).
          cp.iterations = std::max(
              cp.iterations,
              op.inst.iter == std::numeric_limits<std::int64_t>::max()
                  ? op.inst.iter
                  : op.inst.iter + 1);
          break;
        }
        case Op::Kind::Send: {
          const SlotId* slot = provider.find(op.inst);
          if (slot == nullptr) {
            return violation(" before it is computed/received");
          }
          c.kind = CompiledOp::Kind::Send;
          c.slot = *slot;
          c.chan = *chan_ids.find(ChanKey{op.edge, p.proc, op.peer});
          messages.send(c.chan, op.inst);
          message_ops.push_back(
              {c.kind, c.chan, static_cast<std::uint32_t>(t.ops.size())});
          break;
        }
        case Op::Kind::Receive: {
          const ChannelId* chan =
              chan_ids.find(ChanKey{op.edge, op.peer, p.proc});
          c.kind = CompiledOp::Kind::Receive;
          c.chan = chan != nullptr ? *chan : kNoChannel;
          c.slot = t.num_slots++;
          provide(op.inst, c.slot);
          messages.receive(c.chan, op.inst);
          message_ops.push_back(
              {c.kind, c.chan, static_cast<std::uint32_t>(t.ops.size())});
          break;
        }
      }
      t.ops.push_back(c);
    }
    if (!t.ops.empty()) {
      cp.threads.push_back(std::move(t));
      message_start.push_back(message_ops.size());
    }
  }
  // Rules 2 and 3, once every processor has passed rule 1.
  if (auto violation = messages.find_violation(cp.channels)) return violation;
  // Rule 4, on channels now known to carry matched, FIFO-ordered messages.
  const auto messages_of = [&](std::size_t t) {
    return std::span<const MessageOp>(message_ops.data() + message_start[t],
                                      message_ops.data() +
                                          message_start[t + 1]);
  };
  std::vector<std::size_t> stopped =
      run_round_robin(cp.threads.size(), cp.channels.size(), messages_of,
                      [](std::size_t, const MessageOp&) {});
  for (std::size_t t = 0; t < stopped.size(); ++t) {
    // A thread past its last message finishes: a compute never waits.
    stopped[t] = stopped[t] == messages_of(t).size()
                     ? cp.threads[t].ops.size()
                     : messages_of(t)[stopped[t]].op;
  }
  return stuck_receives(cp, g, stopped);
}

/// Liveness-based slot reassignment over one thread's straight-line op
/// stream.  check_and_compile assigned SSA slots (each compute/receive writes
/// a fresh one); here every slot is returned to a free list at its last
/// read, and writes draw from that list, so num_slots shrinks from one per
/// value instance to the thread's maximum number of simultaneously live
/// values.
///
/// Within one Compute, operand reads happen before the destination write
/// (both the executor and the generated C gather operands into locals
/// first), so a slot whose last read is op i may be reused as op i's own
/// destination.  A slot never read at all (a compute kept only for the
/// result array, or a drain receive) is freed immediately after its write.
/// The free list is LIFO: the most recently dead slot is reused first,
/// which keeps the working set cache-resident and the steady-state
/// assignment periodic (so c_codegen's period detector still rolls it).
void reuse_slots(CompiledThread& t) {
  constexpr std::size_t kNever = static_cast<std::size_t>(-1);
  std::vector<std::size_t> last_read(t.num_slots, kNever);
  for (std::size_t i = 0; i < t.ops.size(); ++i) {
    const CompiledOp& op = t.ops[i];
    if (op.kind == CompiledOp::Kind::Send) {
      last_read[op.slot] = i;
    } else if (op.kind == CompiledOp::Kind::Compute) {
      for (std::uint32_t j = 0; j < op.num_operands; ++j) {
        const OperandRef& r = t.operands[op.first_operand + j];
        if (r.kind == OperandRef::Kind::LocalSlot) last_read[r.index] = i;
      }
    }
  }
  // The SSA slots whose last read is op i, in slot order, are
  // dying[start(i) .. ends[i]) with start(i) = i > 0 ? ends[i - 1] : 0:
  // one flat array bucketed by a counting sort on last_read.
  std::vector<std::uint32_t> ends(t.ops.size() + 1, 0);
  for (SlotId s = 0; s < t.num_slots; ++s) {
    if (last_read[s] != kNever) ++ends[last_read[s] + 1];
  }
  for (std::size_t i = 1; i < ends.size(); ++i) ends[i] += ends[i - 1];
  std::vector<SlotId> dying(ends.back());
  for (SlotId s = 0; s < t.num_slots; ++s) {
    if (last_read[s] != kNever) dying[ends[last_read[s]]++] = s;
  }

  std::vector<SlotId> remap(t.num_slots, 0);
  std::vector<SlotId> free_list;
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < t.ops.size(); ++i) {
    CompiledOp& op = t.ops[i];
    // Reads first: rewrite through the current mapping.
    if (op.kind == CompiledOp::Kind::Send) {
      op.slot = remap[op.slot];
    } else if (op.kind == CompiledOp::Kind::Compute) {
      for (std::uint32_t j = 0; j < op.num_operands; ++j) {
        OperandRef& r = t.operands[op.first_operand + j];
        if (r.kind == OperandRef::Kind::LocalSlot) r.index = remap[r.index];
      }
    }
    // Slots dead after this op's reads become available — including for
    // this op's own write.
    for (std::uint32_t d = i > 0 ? ends[i - 1] : 0; d < ends[i]; ++d) {
      free_list.push_back(remap[dying[d]]);
    }
    // The write draws from the free list.
    if (op.kind != CompiledOp::Kind::Send) {
      SlotId ns;
      if (free_list.empty()) {
        ns = next++;
      } else {
        ns = free_list.back();
        free_list.pop_back();
      }
      const SlotId old = op.slot;
      remap[old] = ns;
      op.slot = ns;
      if (last_read[old] == kNever) free_list.push_back(ns);  // dead write
    }
  }
  MIMD_ENSURES(next <= t.num_slots);  // reuse never allocates more
  t.num_slots = next;
}

/// The 128-bit product of `a` and `b` folded to 64 bits (high half xor
/// low half): every output bit depends on every bit of both factors.
std::uint64_t mul_fold(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
}

/// The structural hash's fold (DESIGN.md, "Cache keying").  Each record
/// (an op, an edge, a node, a header) is packed into three 64-bit words.
/// The first two meet in one multiply-fold that does not depend on the
/// state, so consecutive records overlap; the third word and that product
/// enter the state through a second, chained one, which makes the fold
/// order-sensitive.  One SplitMix64 finalizer avalanches the result.
class StructuralHasher {
 public:
  void fold(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    state_ = mul_fold(c ^ mul_fold(a ^ kA, b ^ kB), state_ ^ kC);
  }

  [[nodiscard]] std::uint64_t finish() const {
    std::uint64_t x = state_;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

 private:
  // Odd constants with dense, irregular bit patterns (the first is the
  // golden ratio's), so a small packed word never makes a factor sparse.
  static constexpr std::uint64_t kA = 0x9E3779B97F4A7C15ULL;
  static constexpr std::uint64_t kB = 0xD1B54A32D192ED03ULL;
  static constexpr std::uint64_t kC = 0x8BB84B93962EACC9ULL;
  std::uint64_t state_ = 0x2545F4914F6CDD1DULL;
};

/// Two 32-bit fields in one word, `hi` above `lo`.
constexpr std::uint64_t pack(std::uint32_t lo, std::uint32_t hi) {
  return lo | static_cast<std::uint64_t>(hi) << 32;
}

}  // namespace

std::uint64_t structural_hash(const Ddg& g) {
  StructuralHasher h;
  // Node/edge id order is stable: the graph is append-only.
  h.fold(g.num_nodes(), g.num_edges(), 0);
  for (const Node& n : g.nodes()) {
    h.fold(static_cast<std::uint32_t>(n.latency), 0, 0);
  }
  for (const Edge& e : g.edges()) {
    h.fold(pack(e.src, e.dst),
           pack(static_cast<std::uint32_t>(e.distance),
                static_cast<std::uint32_t>(e.comm_cost)),
           0);
  }
  return h.finish();
}

bool structurally_equivalent(const Ddg& a, const Ddg& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    if (a.node(v).latency != b.node(v).latency) return false;
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    const Edge& ea = a.edge(e);
    const Edge& eb = b.edge(e);
    if (ea.src != eb.src || ea.dst != eb.dst ||
        ea.distance != eb.distance || ea.comm_cost != eb.comm_cost) {
      return false;
    }
  }
  return true;
}

std::uint64_t structural_hash(const PartitionedProgram& prog, const Ddg& g,
                              const CompileOptions& opts) {
  return structural_hash(prog, structural_hash(g), opts);
}

std::uint64_t structural_hash(const PartitionedProgram& prog,
                              std::uint64_t graph_hash,
                              const CompileOptions& opts) {
  StructuralHasher h;
  h.fold(graph_hash,
         pack(static_cast<std::uint32_t>(prog.processors),
              static_cast<std::uint32_t>(prog.programs.size())),
         static_cast<std::uint64_t>(opts.opt));
  // The partitioned program, in processor then program order.  Each
  // program's op count goes in front of its ops, so the word stream
  // names exactly one program.
  for (const ProcessorProgram& p : prog.programs) {
    h.fold(pack(static_cast<std::uint32_t>(p.proc),
                static_cast<std::uint32_t>(p.ops.size())),
           0, 0);
    for (const Op& op : p.ops) {
      h.fold(pack(op.inst.node, static_cast<std::uint32_t>(op.peer)),
             static_cast<std::uint64_t>(op.inst.iter),
             pack(op.edge, static_cast<std::uint32_t>(op.kind)));
    }
  }
  return h.finish();
}

std::size_t CompiledProgram::count(CompiledOp::Kind k) const {
  std::size_t n = 0;
  for (const CompiledThread& t : threads) {
    for (const CompiledOp& op : t.ops) {
      if (op.kind == k) ++n;
    }
  }
  return n;
}

std::size_t CompiledProgram::total_slots() const {
  std::size_t n = 0;
  for (const CompiledThread& t : threads) n += t.num_slots;
  return n;
}

std::size_t CompiledProgram::total_slots_ssa() const {
  std::size_t n = 0;
  for (const CompiledThread& t : threads) n += t.num_slots_ssa;
  return n;
}

std::optional<std::string> stuck_receives(
    const CompiledProgram& cp, const Ddg& g,
    const std::vector<std::size_t>& stopped) {
  std::string stuck;
  for (std::size_t t = 0; t < cp.threads.size(); ++t) {
    const CompiledThread& thread = cp.threads[t];
    if (stopped[t] == thread.ops.size()) continue;
    const CompiledOp& op = thread.ops[stopped[t]];
    stuck += (stuck.empty() ? "deadlock: PE" : ", PE") +
             std::to_string(thread.proc) + " waits at receive of " +
             g.node(op.node).name + "@" + std::to_string(op.iter) +
             " from PE" + std::to_string(cp.channels[op.chan].src_proc);
  }
  if (stuck.empty()) return std::nullopt;
  return stuck;
}

std::optional<std::string> find_program_violation(const PartitionedProgram& p,
                                                  const Ddg& g) {
  CompiledProgram discarded;
  return check_and_compile(p, g, discarded);
}

CompiledProgram compile_program(const PartitionedProgram& prog,
                                const Ddg& g) {
  CompiledProgram cp;
  if (const auto violation = check_and_compile(prog, g, cp)) {
    detail::contract_fail("compiled lowering", violation->c_str());
  }
  for (CompiledThread& t : cp.threads) {
    t.num_slots_ssa = t.num_slots;
    reuse_slots(t);
  }
  return cp;
}

}  // namespace mimd
