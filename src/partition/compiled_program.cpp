#include "partition/compiled_program.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "partition/flat_map.hpp"
#include "runtime/kernels.hpp"

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

/// Dense channel ids, assigned in Send first-appearance order (processor
/// order, then program order) so compilation is deterministic.
struct ChannelTable {
  detail::FlatMap<ChanKey, ChannelId, ChanKeyHash> ids;
  std::vector<ChannelDesc> descs;

  [[nodiscard]] ChannelId at(EdgeId e, int src, int dst) {
    const ChannelId* id = ids.find(ChanKey{e, src, dst});
    MIMD_ENSURES(id != nullptr);
    return *id;
  }
};

ChannelTable build_channel_table(const PartitionedProgram& prog) {
  ChannelTable t{detail::FlatMap<ChanKey, ChannelId, ChanKeyHash>(
                     prog.count(Op::Kind::Send)),
                 {}};
  for (const ProcessorProgram& p : prog.programs) {
    for (const Op& op : p.ops) {
      if (op.kind != Op::Kind::Send) continue;
      const auto [id, fresh] =
          t.ids.try_emplace(ChanKey{op.edge, p.proc, op.peer},
                            static_cast<ChannelId>(t.descs.size()));
      if (fresh) t.descs.push_back(ChannelDesc{op.edge, p.proc, op.peer, 0});
      ++t.descs[*id].messages;
    }
  }
  return t;
}

/// The channel of every Send/Receive op of one processor program (unused
/// for Computes), resolved once and shared by both compile attempts and
/// the pop-order check.
std::vector<ChannelId> resolve_channels(const ProcessorProgram& p,
                                        ChannelTable& chans) {
  std::vector<ChannelId> chan(p.ops.size(), 0);
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    const Op& op = p.ops[i];
    if (op.kind == Op::Kind::Send) {
      chan[i] = chans.at(op.edge, p.proc, op.peer);
    } else if (op.kind == Op::Kind::Receive) {
      chan[i] = chans.at(op.edge, op.peer, p.proc);
    }
  }
  return chan;
}

/// Identifies a receive waiting to be fused into the Compute operand that
/// consumes it.
struct PendingKey {
  EdgeId edge = 0;
  Inst inst;

  friend bool operator==(const PendingKey&, const PendingKey&) = default;
};

struct PendingKeyHash {
  std::uint64_t operator()(const PendingKey& k) const {
    return detail::hash_words(k.edge, k.inst.node,
                              static_cast<std::uint64_t>(k.inst.iter));
  }
};

/// Compile one processor program.  With `fuse`, receives become ChannelRecv
/// operands of their consuming Compute; returns false when fusion cannot be
/// proven order-safe, in which case the caller retries without fusion
/// (standalone Receive ops into slots — always possible for a validated
/// program).
bool compile_thread(const ProcessorProgram& p, const Ddg& g,
                    const std::vector<ChannelId>& chan, bool fuse,
                    CompiledThread& out) {
  out = CompiledThread{};
  out.proc = p.proc;
  std::size_t receives = 0;
  std::size_t operands = 0;
  for (const Op& op : p.ops) {
    if (op.kind == Op::Kind::Receive) ++receives;
    if (op.kind == Op::Kind::Compute) {
      operands += g.in_edges(op.inst.node).size();
    }
  }
  out.ops.reserve(fuse ? p.ops.size() - receives : p.ops.size());
  out.operands.reserve(operands);
  // (node, iteration) -> the slot holding that value on this thread.
  detail::InstMap provider(p.ops.size());
  const auto provide = [&](const Inst& v, SlotId slot) {
    *provider.try_emplace(v, slot).first = slot;
  };
  // Fuse mode: per (edge, producing instance), the channel of the
  // earliest receive no operand has consumed yet.  Compute instances are
  // unique, so each key has exactly one consuming operand; a later
  // receive of a key already present can only stay unconsumed.
  detail::FlatMap<PendingKey, std::optional<ChannelId>, PendingKeyHash>
      pending(fuse ? receives : 0);
  std::size_t unconsumed = 0;

  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    const Op& op = p.ops[i];
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
          } else if (const SlotId* slot = provider.find(Inst{e.src, src_iter});
                     slot != nullptr) {
            ref.kind = OperandRef::Kind::LocalSlot;
            ref.index = *slot;
          } else if (fuse) {
            // Consume the earliest pending receive carrying this value.
            std::optional<ChannelId>* recv =
                pending.find(PendingKey{eid, Inst{e.src, src_iter}});
            if (recv == nullptr || !*recv) return false;  // no source
            ref.kind = OperandRef::Kind::ChannelRecv;
            ref.index = **recv;
            ref.iter = src_iter;
            recv->reset();
            --unconsumed;
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
        provide(op.inst, c.slot);
        out.ops.push_back(c);
        break;
      }
      case Op::Kind::Send: {
        const SlotId* slot = provider.find(op.inst);
        // A send of a value that only exists as a pending fused receive
        // (receive-then-forward) needs the value in a slot: retry unfused.
        if (slot == nullptr) return false;
        CompiledOp s;
        s.kind = CompiledOp::Kind::Send;
        s.node = op.inst.node;
        s.iter = op.inst.iter;
        s.slot = *slot;
        s.chan = chan[i];
        out.ops.push_back(s);
        break;
      }
      case Op::Kind::Receive: {
        if (fuse) {
          (void)pending.try_emplace(PendingKey{op.edge, op.inst}, chan[i]);
          ++unconsumed;
        } else {
          CompiledOp r;
          r.kind = CompiledOp::Kind::Receive;
          r.node = op.inst.node;
          r.iter = op.inst.iter;
          r.chan = chan[i];
          r.slot = out.num_slots++;
          provide(op.inst, r.slot);
          out.ops.push_back(r);
        }
        break;
      }
    }
  }
  // A receive nothing consumes cannot be fused away: it must still pop its
  // message or later tags on the channel would misalign.
  return unconsumed == 0;
}

/// Per-channel pop sequences (iteration tags), indexed by ChannelId.
using PopSequences = std::vector<std::vector<std::int64_t>>;

/// The pop sequences the compiled thread will execute, in execution order.
PopSequences compiled_pop_sequences(const CompiledThread& t,
                                    std::size_t channels) {
  PopSequences seq(channels);
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

/// The pop sequences the interpreted program performs (its Receive order).
PopSequences interpreted_pop_sequences(const ProcessorProgram& p,
                                       const std::vector<ChannelId>& chan,
                                       std::size_t channels) {
  PopSequences seq(channels);
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    if (p.ops[i].kind == Op::Kind::Receive) {
      seq[chan[i]].push_back(p.ops[i].inst.iter);
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
  ChannelTable chans = build_channel_table(prog);
  cp.channels = std::move(chans.descs);
  const std::size_t channels = cp.channels.size();

  for (const ProcessorProgram& p : prog.programs) {
    if (p.ops.empty()) continue;
    const std::vector<ChannelId> chan = resolve_channels(p, chans);
    CompiledThread t;
    // Fused receives must preserve each channel's pop order; lowering's
    // receive-immediately-before-consumer placement always does, but a
    // hand-built program may not — verify, and fall back to standalone
    // receives when fusion would reorder a channel.
    const bool fused = compile_thread(p, g, chan, /*fuse=*/true, t) &&
                       compiled_pop_sequences(t, channels) ==
                           interpreted_pop_sequences(p, chan, channels);
    if (!fused) {
      const bool ok = compile_thread(p, g, chan, /*fuse=*/false, t);
      MIMD_ENSURES(ok);
    }
    t.num_slots_ssa = t.num_slots;
    reuse_slots(t);
    for (const CompiledOp& op : t.ops) {
      // The validator admits any iteration >= 0; saturate instead of
      // overflowing on INT64_MAX (such a plan can never be run).
      if (op.kind == CompiledOp::Kind::Compute) {
        cp.iterations = std::max(
            cp.iterations,
            op.iter == std::numeric_limits<std::int64_t>::max() ? op.iter
                                                                : op.iter + 1);
      }
    }
    cp.threads.push_back(std::move(t));
  }
  return cp;
}

}  // namespace mimd
