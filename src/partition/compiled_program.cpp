#include "partition/compiled_program.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "runtime/kernels.hpp"

namespace mimd {

namespace {

using ChanKey = std::tuple<EdgeId, int, int>;  // edge, src proc, dst proc

/// Dense channel ids, assigned in Send first-appearance order (processor
/// order, then program order) so compilation is deterministic.
struct ChannelTable {
  std::map<ChanKey, ChannelId> ids;
  std::vector<ChannelDesc> descs;

  [[nodiscard]] ChannelId at(EdgeId e, int src, int dst) const {
    const auto it = ids.find({e, src, dst});
    MIMD_ENSURES(it != ids.end());
    return it->second;
  }
};

ChannelTable build_channel_table(const PartitionedProgram& prog) {
  ChannelTable t;
  for (const ProcessorProgram& p : prog.programs) {
    for (const Op& op : p.ops) {
      if (op.kind != Op::Kind::Send) continue;
      const auto [it, fresh] = t.ids.try_emplace(
          ChanKey{op.edge, p.proc, op.peer},
          static_cast<ChannelId>(t.descs.size()));
      if (fresh) t.descs.push_back(ChannelDesc{op.edge, p.proc, op.peer, 0});
      ++t.descs[it->second].messages;
    }
  }
  return t;
}

/// A receive waiting to be fused into the Compute operand that consumes it.
struct PendingRecv {
  EdgeId edge;
  NodeId node;
  std::int64_t iter;
  ChannelId chan;
};

/// Compile one processor program.  With `fuse`, receives become ChannelRecv
/// operands of their consuming Compute; returns false when fusion cannot be
/// proven order-safe, in which case the caller retries without fusion
/// (standalone Receive ops into slots — always possible for a validated
/// program).
bool compile_thread(const ProcessorProgram& p, const Ddg& g,
                    const ChannelTable& chans, bool fuse,
                    CompiledThread& out) {
  out = CompiledThread{};
  out.proc = p.proc;
  std::map<std::pair<NodeId, std::int64_t>, SlotId> provider;
  std::vector<PendingRecv> pending;  // fuse mode only

  for (const Op& op : p.ops) {
    switch (op.kind) {
      case Op::Kind::Compute: {
        CompiledOp c;
        c.kind = CompiledOp::Kind::Compute;
        c.node = op.inst.node;
        c.iter = op.inst.iter;
        c.first_operand = static_cast<std::uint32_t>(out.operands.size());
        for (const EdgeId eid : g.in_edges(op.inst.node)) {
          const Edge& e = g.edge(eid);
          const std::int64_t src_iter = op.inst.iter - e.distance;
          OperandRef ref;
          if (src_iter < 0) {
            ref.kind = OperandRef::Kind::InitialValue;
            ref.initial = initial_value(e.src);
          } else if (auto it = provider.find({e.src, src_iter});
                     it != provider.end()) {
            ref.kind = OperandRef::Kind::LocalSlot;
            ref.index = it->second;
          } else if (fuse) {
            // Consume the earliest pending receive carrying this value.
            auto r = pending.begin();
            for (; r != pending.end(); ++r) {
              if (r->edge == eid && r->node == e.src && r->iter == src_iter)
                break;
            }
            if (r == pending.end()) return false;  // value has no source
            ref.kind = OperandRef::Kind::ChannelRecv;
            ref.index = r->chan;
            ref.iter = src_iter;
            pending.erase(r);
          } else {
            // find_program_violation guarantees availability; in non-fused
            // mode every receive materialized a slot.
            MIMD_UNREACHABLE("validated operand has no local provider");
          }
          out.operands.push_back(ref);
        }
        c.num_operands = static_cast<std::uint32_t>(out.operands.size()) -
                         c.first_operand;
        c.slot = out.num_slots++;
        provider[{op.inst.node, op.inst.iter}] = c.slot;
        out.ops.push_back(c);
        break;
      }
      case Op::Kind::Send: {
        const auto it = provider.find({op.inst.node, op.inst.iter});
        // A send of a value that only exists as a pending fused receive
        // (receive-then-forward) needs the value in a slot: retry unfused.
        if (it == provider.end()) return false;
        CompiledOp s;
        s.kind = CompiledOp::Kind::Send;
        s.node = op.inst.node;
        s.iter = op.inst.iter;
        s.slot = it->second;
        s.chan = chans.at(op.edge, p.proc, op.peer);
        out.ops.push_back(s);
        break;
      }
      case Op::Kind::Receive: {
        const ChannelId chan = chans.at(op.edge, op.peer, p.proc);
        if (fuse) {
          pending.push_back(
              PendingRecv{op.edge, op.inst.node, op.inst.iter, chan});
        } else {
          CompiledOp r;
          r.kind = CompiledOp::Kind::Receive;
          r.node = op.inst.node;
          r.iter = op.inst.iter;
          r.chan = chan;
          r.slot = out.num_slots++;
          provider[{op.inst.node, op.inst.iter}] = r.slot;
          out.ops.push_back(r);
        }
        break;
      }
    }
  }
  // A receive nothing consumes cannot be fused away: it must still pop its
  // message or later tags on the channel would misalign.
  return pending.empty();
}

/// Per-channel pop sequence (iteration tags) the compiled thread will
/// execute, in execution order.
std::map<ChannelId, std::vector<std::int64_t>> compiled_pop_sequences(
    const CompiledThread& t) {
  std::map<ChannelId, std::vector<std::int64_t>> seq;
  for (const CompiledOp& op : t.ops) {
    if (op.kind == CompiledOp::Kind::Receive) {
      seq[op.chan].push_back(op.iter);
    } else if (op.kind == CompiledOp::Kind::Compute) {
      for (std::uint32_t i = 0; i < op.num_operands; ++i) {
        const OperandRef& r = t.operands[op.first_operand + i];
        if (r.kind == OperandRef::Kind::ChannelRecv) {
          seq[r.index].push_back(r.iter);
        }
      }
    }
  }
  return seq;
}

/// Pop sequence the interpreted program performs (its Receive order).
std::map<ChannelId, std::vector<std::int64_t>> interpreted_pop_sequences(
    const ProcessorProgram& p, const ChannelTable& chans) {
  std::map<ChannelId, std::vector<std::int64_t>> seq;
  for (const Op& op : p.ops) {
    if (op.kind == Op::Kind::Receive) {
      seq[chans.at(op.edge, op.peer, p.proc)].push_back(op.inst.iter);
    }
  }
  return seq;
}

/// Liveness-based slot reassignment over one thread's straight-line op
/// stream.  compile_thread assigned SSA slots (each compute/receive writes
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
  // dies_at[i]: SSA slots whose last read is op i.
  std::vector<std::vector<SlotId>> dies_at(t.ops.size());
  for (SlotId s = 0; s < t.num_slots; ++s) {
    if (last_read[s] != kNever) {
      dies_at[last_read[s]].push_back(s);
    }
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
    for (const SlotId s : dies_at[i]) free_list.push_back(remap[s]);
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

/// SplitMix64 finalizer — the same mixer support/random.cpp builds on.
/// Each field is mixed before being folded so nearby integers (node ids,
/// iterations) don't cancel; the fold itself is order-sensitive.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct StructuralHasher {
  std::uint64_t state = 0x2545F4914F6CDD1DULL;
  void fold(std::uint64_t v) { state = mix64(state ^ mix64(v)); }
  void fold_signed(std::int64_t v) { fold(static_cast<std::uint64_t>(v)); }
};

}  // namespace

std::uint64_t structural_hash(const Ddg& g) {
  StructuralHasher h;
  // Node/edge id order is stable: the graph is append-only.
  h.fold(g.num_nodes());
  for (const Node& n : g.nodes()) h.fold_signed(n.latency);
  h.fold(g.num_edges());
  for (const Edge& e : g.edges()) {
    h.fold(e.src);
    h.fold(e.dst);
    h.fold_signed(e.distance);
    h.fold_signed(e.comm_cost);
  }
  return h.state;
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
  h.fold(graph_hash);
  // The partitioned program, in processor then program order.
  h.fold_signed(prog.processors);
  h.fold(prog.programs.size());
  for (const ProcessorProgram& p : prog.programs) {
    h.fold_signed(p.proc);
    h.fold(p.ops.size());
    for (const Op& op : p.ops) {
      h.fold(static_cast<std::uint64_t>(op.kind));
      h.fold(op.inst.node);
      h.fold_signed(op.inst.iter);
      h.fold(op.edge);
      h.fold_signed(op.peer);
    }
  }
  h.fold(static_cast<std::uint64_t>(opts.opt));
  return h.state;
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

CompiledProgram compile_program(const PartitionedProgram& prog,
                                const Ddg& g) {
  if (const auto violation = find_program_violation(prog, g)) {
    detail::contract_fail("compiled lowering", violation->c_str());
  }

  CompiledProgram cp;
  cp.processors = prog.processors;
  const ChannelTable chans = build_channel_table(prog);
  cp.channels = chans.descs;

  for (const ProcessorProgram& p : prog.programs) {
    if (p.ops.empty()) continue;
    CompiledThread t;
    // Fused receives must preserve each channel's pop order; lowering's
    // receive-immediately-before-consumer placement always does, but a
    // hand-built program may not — verify, and fall back to standalone
    // receives when fusion would reorder a channel.
    const bool fused = compile_thread(p, g, chans, /*fuse=*/true, t) &&
                       compiled_pop_sequences(t) ==
                           interpreted_pop_sequences(p, chans);
    if (!fused) {
      const bool ok = compile_thread(p, g, chans, /*fuse=*/false, t);
      MIMD_ENSURES(ok);
    }
    t.num_slots_ssa = t.num_slots;
    reuse_slots(t);
    for (const CompiledOp& op : t.ops) {
      if (op.kind == CompiledOp::Kind::Compute) {
        cp.iterations = std::max(cp.iterations, op.iter + 1);
      }
    }
    cp.threads.push_back(std::move(t));
  }
  return cp;
}

}  // namespace mimd
