#include "partition/c_codegen.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "runtime/kernels.hpp"
#include "runtime/spsc_ring.hpp"

namespace mimd {

namespace {

/// A double literal that round-trips bit-for-bit through the C compiler.
std::string fmt_double(double x) {
  std::ostringstream out;
  out.precision(17);
  out << x;
  return out.str();
}

/// Detected periodic structure of one thread's compiled op stream: ops
/// [0, prologue) straight-line, then `reps` repetitions of ops
/// [prologue, prologue + period) with iteration shift `iter_shift` per
/// repetition, then the remainder straight-line.
struct RolledShape {
  std::size_t prologue = 0;
  std::size_t period = 0;
  std::int64_t reps = 0;
  std::int64_t iter_shift = 0;
};

/// Two compiled ops are a periodic pair iff they touch the same slots and
/// channels and differ only by the iteration shift `di`.  Boundary
/// instances (whose operands were resolved to InitialValue, or whose sends
/// are absent because the consumer falls beyond N) never pair with
/// steady-state ones, so they stay in the prologue/epilogue automatically.
bool ops_equal_shifted(const CompiledThread& t, std::size_t ia,
                       std::size_t ib, std::int64_t di) {
  const CompiledOp& a = t.ops[ia];
  const CompiledOp& b = t.ops[ib];
  if (a.kind != b.kind || a.node != b.node || a.slot != b.slot ||
      a.chan != b.chan || a.num_operands != b.num_operands ||
      b.iter - a.iter != di) {
    return false;
  }
  return std::equal(t.operands.begin() + a.first_operand,
                    t.operands.begin() + a.first_operand + a.num_operands,
                    t.operands.begin() + b.first_operand);
}

/// Find the smallest period p whose repetitions cover the longest window
/// around the middle of the stream with at least three full repetitions.
/// The stream's head (greedy warm-up) and tail are not periodic; they stay
/// straight-line as prologue/epilogue.
std::optional<RolledShape> detect_period(const CompiledThread& t) {
  const std::size_t len = t.ops.size();
  if (len < 6) return std::nullopt;
  const std::size_t anchor = len / 2;
  for (std::size_t p = 1; p * 3 <= len && anchor + p < len; ++p) {
    const std::int64_t di = t.ops[anchor + p].iter - t.ops[anchor].iter;
    if (di <= 0) continue;
    // Expand the pairwise-equal zone around the anchor.
    std::size_t s = anchor;
    while (s > 0 && ops_equal_shifted(t, s - 1, s - 1 + p, di)) --s;
    std::size_t e = anchor;
    while (e + p < len && ops_equal_shifted(t, e, e + p, di)) ++e;
    if (e < anchor || !ops_equal_shifted(t, anchor, anchor + p, di)) {
      continue;
    }
    // [s, e + p) tiles with period p: ops_equal_shifted holds for every
    // pair (i, i + p) with i in [s, e), which covers every whole
    // repetition started at s itself.  Start-align the repetitions there
    // — the prologue is exactly the non-periodic warm-up [0, s), and the
    // leftover (run % p) ops fall to the epilogue.  (End-aligning, as
    // this used to, padded the prologue with up to period-1 already-
    // periodic ops per thread.)
    const std::size_t run = e + p - s;
    const std::int64_t reps = static_cast<std::int64_t>(run / p);
    if (reps < 3) continue;
    RolledShape shape;
    shape.prologue = s;
    shape.period = p;
    shape.reps = reps;
    shape.iter_shift = di;
    return shape;
  }
  return std::nullopt;
}

/// Emit the channel type + send/recv functions: a double-carrying
/// single-use buffer of exactly the channel's message count
/// (ring_capacity), so a send is never refused and never waits.
void emit_channel_runtime(std::ostringstream& out) {
  out << "/* Single-use SPSC value buffer — the C11 mirror of the in-process\n"
         " * executor's runtime/spsc_ring.hpp, holding exactly the values\n"
         " * the channel carries in one run: a send is one store plus a\n"
         " * release-publish and never waits; a receive acquire-loads the\n"
         " * producer's cursor, cached on its own cache line, and waits\n"
         " * spin-then-yield. */\n"
      << "typedef struct {\n"
      << "  double* buf;\n"
      << "  _Alignas(64) _Atomic long long head; /* producer line */\n"
      << "  _Alignas(64) long long tail;         /* consumer line */\n"
      << "  long long cached_head;\n"
      << "  _Alignas(64) char pad_;\n"
      << "} chan_t;\n"
      << "static void chan_send(chan_t* c, double v) {\n"
      << "  long long head = atomic_load_explicit(&c->head, "
         "memory_order_relaxed);\n"
      << "  c->buf[head] = v;\n"
      << "  atomic_store_explicit(&c->head, head + 1, "
         "memory_order_release);\n"
      << "}\n"
      << "static double chan_recv(chan_t* c) {\n"
      << "  if (c->cached_head == c->tail) { /* looks drained: refresh, "
         "wait */\n"
      << "    long long spin = 0;\n"
      << "    do {\n"
      << "      if ((++spin & 63) == 0) sched_yield();\n"
      << "      c->cached_head = atomic_load_explicit(&c->head, "
         "memory_order_acquire);\n"
      << "    } while (c->cached_head == c->tail);\n"
      << "  }\n"
      << "  return c->buf[c->tail++];\n"
      << "}\n\n";
}

/// The synthetic-kernel combine as C — the single point of truth for the
/// exact translation of runtime/kernels.hpp's synthetic_value (work knob
/// 0), shared by the per-thread emission and the sequential reference:
/// seeds `acc`, folds one `operand_exprs` entry per in-edge in order,
/// wraps at 4.0.  The caller stores `acc` wherever its values live.
void emit_kernel_combine(std::ostringstream& out, const Ddg& g, NodeId v,
                         const char* iter_var, const char* indent,
                         const std::vector<std::string>& operand_exprs) {
  out << indent << "double acc = " << g.node(v).latency << ".0 + 0.001 * "
      << v << ".0 + 1e-6 * (double)(" << iter_var << " % 1024);\n";
  for (const std::string& e : operand_exprs) {
    out << indent << "acc = 0.5 * acc + 0.25 * " << e << " + 0.125;\n";
  }
  out << indent << "if (acc > 4.0) acc -= 4.0;\n";
}

/// One compiled op as C.  `iter_expr` is the op's iteration as a C
/// expression — a literal in straight-line code, `(base + r * shift)` in a
/// rolled steady state.  Computed values go to the caller's row-major
/// matrix through the per-call context; an InitialValue operand is the
/// literal initial_value(node).
void emit_op(std::ostringstream& out, const CompiledThread& t,
             const CompiledOp& op, const Ddg& g,
             const std::string& iter_expr, const char* note) {
  switch (op.kind) {
    case CompiledOp::Kind::Compute: {
      out << "  { /* " << g.node(op.node).name << "[" << iter_expr << "]"
          << note << " -> s[" << op.slot << "] */\n"
          << "    long long i = " << iter_expr << ";\n";
      // Gather operands into locals first: a reused slot may die at this
      // op's reads and serve as its own destination.
      std::vector<std::string> operand_exprs;
      for (std::uint32_t j = 0; j < op.num_operands; ++j) {
        const OperandRef& r = t.operands[op.first_operand + j];
        out << "    double a" << j << " = ";
        if (r.kind == OperandRef::Kind::LocalSlot) {
          out << "s[" << r.index << "];\n";
        } else {
          out << fmt_double(initial_value(r.index)) << ";\n";
        }
        operand_exprs.push_back("a" + std::to_string(j));
      }
      emit_kernel_combine(out, g, op.node, "i", "    ", operand_exprs);
      out << "    s[" << op.slot << "] = acc;\n"
          << "    k->R[" << op.node << "LL * N + i] = acc;\n  }\n";
      break;
    }
    case CompiledOp::Kind::Send:
      out << "  chan_send(&chans[" << op.chan << "], s[" << op.slot
          << "]); /* " << g.node(op.node).name << "[" << iter_expr
          << "]" << note << " */\n";
      break;
    case CompiledOp::Kind::Receive:
      out << "  s[" << op.slot << "] = chan_recv(&chans[" << op.chan
          << "]); /* " << g.node(op.node).name << "[" << iter_expr << "]"
          << note << " */\n";
      break;
  }
}

/// One PE function per compiled thread, each with its fixed slot array;
/// the periodic steady state rolled into a real loop where detect_period
/// finds one, straight-line code otherwise.  The function is named by the
/// thread's index (the value mimd_kernel_run_on switches on), never by its
/// processor id, which a client may choose freely (negative ids included).
void emit_pe_function(std::ostringstream& out, std::size_t index,
                      const CompiledThread& t, const Ddg& g) {
  out << "/* PE" << t.proc << " */\n"
      << "static void* pe" << index << "_main(void* arg) {\n"
      << "  kctx_t* k = (kctx_t*)arg;\n"
      << "  chan_t* chans = k->chans;\n"
      << "  (void)chans;\n"
      << "  double s[" << (t.num_slots == 0 ? 1 : t.num_slots) << "]; /* "
      << t.num_slots_ssa << " values, " << t.num_slots
      << " after liveness reuse */\n";
  const auto shape = detect_period(t);
  const auto straight = [&](std::size_t from, std::size_t to) {
    for (std::size_t j = from; j < to; ++j) {
      emit_op(out, t, t.ops[j], g, std::to_string(t.ops[j].iter), "");
    }
  };
  if (!shape.has_value()) {
    straight(0, t.ops.size());
  } else {
    straight(0, shape->prologue);
    // Steady state, rolled: the paper's per-processor subloop.
    out << "  for (long long r = 0; r < " << shape->reps
        << "; ++r) { /* steady state: " << shape->period << " ops, +"
        << shape->iter_shift << " iteration(s) per trip */\n";
    for (std::size_t j = shape->prologue;
         j < shape->prologue + shape->period; ++j) {
      const CompiledOp& op = t.ops[j];
      const std::string expr = "(" + std::to_string(op.iter) + " + r * " +
                               std::to_string(shape->iter_shift) + ")";
      emit_op(out, t, op, g, expr, " (rolled)");
    }
    out << "  }\n";
    // Epilogue, straight-line (empty when the run divides evenly).
    straight(shape->prologue +
                 static_cast<std::size_t>(shape->reps) * shape->period,
             t.ops.size());
  }
  out << "  return 0;\n}\n\n";
}

/// The kernel: constants, channel runtime, per-call context, PE
/// functions, and the four exported entries.  Every artifact contains
/// exactly this text.
void emit_kernel(std::ostringstream& out, const CompiledProgram& cp,
                 const Ddg& g) {
  const std::size_t nchans = cp.channels.size();
  const std::size_t nthreads = cp.threads.size();
  out << "\n#define N " << cp.iterations << "LL\n"
      << "#define NODES " << g.num_nodes() << "\n\n";
  emit_channel_runtime(out);

  // Per-call context: channel buffers (storage + cursors) and the
  // caller's buffers.  calloc-zeroed state is exactly the valid empty-
  // channel state, and heap-allocating it per call makes one loaded
  // kernel reentrant.
  out << "/* Per-call context: every piece of mutable state, so one\n"
      << " * loaded kernel can serve concurrent invocations. */\n"
      << "typedef struct {\n";
  for (std::size_t c = 0; c < nchans; ++c) {
    const ChannelDesc& d = cp.channels[c];
    out << "  double chan" << c << "_buf[" << ring_capacity(d.messages)
        << "]; /* edge " << d.edge << ", PE" << d.src_proc << " -> PE"
        << d.dst_proc << ", " << d.messages << " messages */\n";
  }
  out << "  chan_t chans[" << (nchans == 0 ? 1 : nchans) << "];\n"
      << "  double* R; /* caller's NODES x N row-major matrix */\n"
      << "} kctx_t;\n\n";

  for (std::size_t i = 0; i < nthreads; ++i) {
    emit_pe_function(out, i, cp.threads[i], g);
  }

  // The ABI handshake constant and the entry functions a loader dlsym()s.
  // Symbols are exported by default in a plain -shared build; the file is
  // C, so no mangling.  The host allocates one context per run, enters
  // run_on once per compiled thread on its own (pooled) workers — all ids
  // concurrently, the PE bodies rendezvous through the ctx's channels —
  // then destroys the context.
  out << "/* ABI handshake for the loader: version, result rows,\n"
      << " * compiled iteration count, thread count. */\n"
      << "typedef struct {\n"
      << "  long long abi_version;\n"
      << "  long long nodes;\n"
      << "  long long iterations;\n"
      << "  long long threads;\n"
      << "} mimd_kernel_info_t;\n"
      << "const mimd_kernel_info_t mimd_kernel_info = {" << kKernelAbiVersion
      << ", NODES, N, " << nthreads << "};\n\n"
      << "void* mimd_kernel_ctx_create(double* R) {\n"
      << "  if (!R) return 0;\n"
      << "  kctx_t* k = (kctx_t*)calloc(1, sizeof(kctx_t));\n"
      << "  if (!k) return 0; /* zeroed = valid empty-channel state */\n";
  for (std::size_t c = 0; c < nchans; ++c) {
    out << "  k->chans[" << c << "].buf = k->chan" << c << "_buf;\n";
  }
  out << "  k->R = R;\n"
      << "  return k;\n}\n\n"
      << "int mimd_kernel_run_on(void* ctx, long long thread_id) {\n"
      << "  kctx_t* k = (kctx_t*)ctx;\n"
      << "  if (!k || thread_id < 0 || thread_id >= " << nthreads
      << ") return 1;\n"
      << "  switch (thread_id) {\n";
  for (std::size_t i = 0; i < nthreads; ++i) {
    out << "  case " << i << ": pe" << i << "_main(k); break; /* PE"
        << cp.threads[i].proc << " */\n";
  }
  out << "  default: return 1;\n  }\n  return 0;\n}\n\n"
      << "void mimd_kernel_ctx_destroy(void* ctx) {\n"
      << "  free(ctx);\n"
      << "}\n";
}

/// A program's driver: one pthread per compiled thread entering
/// mimd_kernel_run_on, then the self-check (`checked`) or the timing
/// report.
void emit_driver(std::ostringstream& out, const CompiledProgram& cp,
                 const Ddg& g, bool checked) {
  const std::size_t nthreads = cp.threads.size();
  out << "\n/* ---- Driver: one thread per mimd_kernel_run_on entry ---- */\n";
  if (checked) {
    // Sequential reference: same combine, same fold order, node order
    // from the library's own intra-iteration topological sort.
    out << "static double SEQ[NODES][N];\n\n"
        << "static void sequential(void) {\n"
        << "  for (long long i = 0; i < N; ++i) {\n";
    for (const NodeId v : topo_order_intra(g)) {
      std::vector<std::string> operand_exprs;
      for (const EdgeId eid : g.in_edges(v)) {
        const Edge& e = g.edge(eid);
        std::ostringstream expr;
        expr << "(i - " << e.distance << " < 0 ? "
             << fmt_double(initial_value(e.src)) << " : SEQ[" << e.src
             << "][i - " << e.distance << "])";
        operand_exprs.push_back(expr.str());
      }
      out << "    {\n";
      emit_kernel_combine(out, g, v, "i", "      ", operand_exprs);
      out << "      SEQ[" << v << "][i] = acc;\n    }\n";
    }
    out << "  }\n}\n\n";
  }
  out << "typedef struct {\n"
      << "  void* ctx;\n"
      << "  long long id;\n"
      << "} pe_arg_t;\n\n"
      << "static void* pe_thread(void* p) {\n"
      << "  pe_arg_t* a = (pe_arg_t*)p;\n"
      << "  (void)mimd_kernel_run_on(a->ctx, a->id);\n"
      << "  return 0;\n}\n\n"
      << "int main(void) {\n"
      << "  double* R = (double*)calloc((size_t)NODES * (size_t)N, "
         "sizeof(double));\n"
      << "  void* ctx = R ? mimd_kernel_ctx_create(R) : 0;\n"
      << "  if (!ctx) { printf(\"OUT OF MEMORY\\n\"); return 1; }\n"
      << "  pthread_t th[" << nthreads << "];\n"
      << "  pe_arg_t arg[" << nthreads << "];\n";
  if (!checked) {
    out << "  struct timespec t0, t1;\n"
        << "  clock_gettime(CLOCK_MONOTONIC, &t0);\n";
  }
  out << "  for (long long t = 0; t < " << nthreads << "; ++t) {\n"
      << "    arg[t].ctx = ctx;\n"
      << "    arg[t].id = t;\n"
      << "    if (pthread_create(&th[t], 0, pe_thread, &arg[t]) != 0) {\n"
      << "      printf(\"pthread_create failed\\n\");\n"
      << "      return 1;\n"
      << "    }\n"
      << "  }\n"
      << "  for (long long t = 0; t < " << nthreads
      << "; ++t) pthread_join(th[t], 0);\n";
  if (checked) {
    out << "  mimd_kernel_ctx_destroy(ctx);\n\n"
        << "  sequential();\n"
        << "  long long bad = 0;\n"
        << "  for (int v = 0; v < NODES; ++v)\n"
        << "    for (long long i = 0; i < N; ++i)\n"
        << "      if (R[v * N + i] != SEQ[v][i]) ++bad;\n"
        << "  free(R);\n"
        << "  if (bad) { printf(\"MISMATCH %lld\\n\", bad); return 1; }\n"
        << "  printf(\"OK\\n\");\n  return 0;\n}\n";
  } else {
    // Timing epilogue: wall time around the parallel section plus a fold
    // of every computed value, so the compiler cannot discard the work
    // and two runs of one binary are comparable.
    out << "  clock_gettime(CLOCK_MONOTONIC, &t1);\n"
        << "  mimd_kernel_ctx_destroy(ctx);\n"
        << "  double secs = (double)(t1.tv_sec - t0.tv_sec) +\n"
        << "                1e-9 * (double)(t1.tv_nsec - t0.tv_nsec);\n"
        << "  double fold = 0.0;\n"
        << "  for (long long j = 0; j < (long long)NODES * N; ++j) "
           "fold += R[j];\n"
        << "  free(R);\n"
        << "  printf(\"PARALLEL %lld iterations  %.9f s  fold %.17g  "
           "(self-check skipped)\\n\",\n"
        << "         N, secs, fold);\n"
        << "  return 0;\n}\n";
  }
}

}  // namespace

std::string emit_c_program(const CompiledProgram& cp, const Ddg& g,
                           const CEmitOptions& opts) {
  // The self-check compares every (node, i < N) entry, so N is exactly
  // the compiled iteration count; a program computing nothing has no N.
  MIMD_EXPECTS(cp.iterations >= 1);
  const CArtifact artifact = opts.artifact;
  const bool kernel_only = artifact == CArtifact::Kernel;

  std::ostringstream out;
  out << "/* Generated by mimd-pattern-sched: partitioned MIMD loop"
      << (kernel_only ? " (loadable kernel)" : "") << ".\n"
      << " * Lowered from the same CompiledProgram the in-process executor\n"
      << " * runs: per-thread slot arrays (" << cp.total_slots()
      << " slots total, " << cp.total_slots_ssa()
      << " before liveness reuse)\n"
      << " * and single-use C11 SPSC value buffers.\n";
  switch (artifact) {
    case CArtifact::Kernel:
      out << " * Build: cc -O2 -std=c11 -shared -fPIC this_file.c\n"
          << " * Entries: mimd_kernel_ctx_create(R) wires a per-call\n"
          << " * context that runs the compiled iterations, writing node v,\n"
          << " * iteration i to R[v * N + i]; the caller enters\n"
          << " * mimd_kernel_run_on(ctx, t) once per thread t, all\n"
          << " * concurrently, then mimd_kernel_ctx_destroy(ctx).\n"
          << " * mimd_kernel_info is the loader's ABI handshake. */\n";
      break;
    case CArtifact::CheckedProgram:
      out << " * Build: cc -O2 -std=c11 -pthread this_file.c\n"
          << " * Exit status 0 and a final \"OK\" line mean the parallel\n"
          << " * execution matched sequential execution bit for bit. */\n";
      break;
    case CArtifact::TimingProgram:
      out << " * Build: cc -O2 -std=c11 -pthread this_file.c\n"
          << " * Self-check SKIPPED (--no-check): standalone benchmark\n"
          << " * artifact — prints parallel wall time and a result fold;\n"
          << " * validate the loop once with the checking emission first. "
             "*/\n";
      break;
  }
  out << "#include <sched.h>\n"
      << "#include <stdatomic.h>\n"
      << "#include <stdlib.h>\n";
  if (!kernel_only) {
    out << "#include <pthread.h>\n"
        << "#include <stdio.h>\n";
    if (artifact == CArtifact::TimingProgram) out << "#include <time.h>\n";
  }
  emit_kernel(out, cp, g);
  if (!kernel_only) {
    emit_driver(out, cp, g, artifact == CArtifact::CheckedProgram);
  }
  return out.str();
}

}  // namespace mimd
