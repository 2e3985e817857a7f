// C code generation, validated the only way that counts: generate the
// program, compile it with the system C compiler, run it, and let its
// built-in bitwise self-check (parallel vs sequential) decide.  The
// backend consumes the same CompiledProgram the in-process executor runs,
// so these tests also pin the unified lowering pipeline: slot arrays sized
// by the liveness pass, value-carrying C11-atomic single-use SPSC buffers,
// and one kernel emission shared by the programs and the JIT.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "baseline/doacross.hpp"
#include "partition/c_codegen.hpp"
#include "partition/lowering.hpp"
#include "runtime/spsc_ring.hpp"
#include "schedule/cyclic_sched.hpp"
#include "schedule/full_sched.hpp"
#include "support/loop_gen.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_loops.hpp"

namespace mimd {
namespace {

/// True iff a C11 toolchain is available (probed once with a trivial
/// program).  Checked up front so a *generated* program that fails to
/// compile counts as a test failure, never as a missing toolchain.  The
/// probe files are per process: CTest runs these tests as concurrent
/// processes sharing one TempDir, and a shared probe.c could be
/// truncated under another process's compile.
bool have_c_toolchain() {
  static const bool ok = [] {
    const std::string stem =
        ::testing::TempDir() + "/probe_" + std::to_string(::getpid());
    const std::string c_path = stem + ".c";
    {
      std::ofstream f(c_path);
      f << "int main(void) { return 0; }\n";
    }
    const std::string compile = "cc -O2 -std=c11 -pthread -o " + stem +
                                " " + c_path + " 2>/dev/null";
    return std::system(compile.c_str()) == 0;
  }();
  return ok;
}

/// Write `source`, compile it, run it; any non-zero return — including a
/// compile failure of the generated source — is a failure.  Call only
/// after have_c_toolchain().
int compile_and_run(const std::string& source, const std::string& tag) {
  const std::string dir = ::testing::TempDir();
  const std::string c_path = dir + "/gen_" + tag + ".c";
  const std::string bin_path = dir + "/gen_" + tag;
  const std::string err_path = dir + "/gen_" + tag + ".err";
  {
    std::ofstream f(c_path);
    f << source;
  }
  const std::string compile = "cc -O2 -std=c11 -pthread -o " + bin_path +
                              " " + c_path + " 2>" + err_path;
  if (std::system(compile.c_str()) != 0) {
    std::ifstream err(err_path);
    std::stringstream diagnostics;
    diagnostics << err.rdbuf();
    ADD_FAILURE() << "generated C for '" << tag << "' failed to compile ("
                  << c_path << "):\n"
                  << diagnostics.str();
    return -1;
  }
  return std::system(bin_path.c_str());
}

CompiledProgram pattern_compiled(const Ddg& g, const Machine& m,
                                 std::int64_t n) {
  const CyclicSchedResult r = cyclic_sched(g, m);
  EXPECT_TRUE(r.pattern.has_value());
  return compile_program(lower(materialize(*r.pattern, m.processors, n), g),
                         g);
}

TEST(CCodegen, EmitsCompleteTranslationUnit) {
  const Ddg g = workloads::fig7_loop();
  const std::string src =
      emit_c_program(pattern_compiled(g, Machine{2, 2}, 6), g);
  EXPECT_NE(src.find("#include <pthread.h>"), std::string::npos);
  EXPECT_NE(src.find("#include <stdatomic.h>"), std::string::npos);
  EXPECT_NE(src.find("chan_send"), std::string::npos);
  EXPECT_NE(src.find("chan_recv"), std::string::npos);
  EXPECT_NE(src.find("pe0_main"), std::string::npos);
  EXPECT_NE(src.find("pe1_main"), std::string::npos);
  EXPECT_NE(src.find("int main(void)"), std::string::npos);
  // The CompiledProgram layout, not the old per-node global arrays: fixed
  // per-thread slot arrays and per-channel ring buffers.
  EXPECT_NE(src.find("double s["), std::string::npos);
  EXPECT_NE(src.find("chan0_buf"), std::string::npos);
  EXPECT_EQ(src.find("V_A[N]"), std::string::npos);
}

TEST(CCodegen, NodeNamesNeverBecomeIdentifiers) {
  Ddg g;
  g.add_node("A#1");  // the unroller produces names like this
  g.add_node("B");
  g.add_edge(1u, 0u, 0);
  g.add_edge(0u, 1u, 1);
  const std::string src =
      emit_c_program(pattern_compiled(g, Machine{2, 1}, 4), g);
  // Names appear only inside comments; storage is slot- and ring-indexed,
  // so nothing derived from a node name reaches the C namespace.
  EXPECT_EQ(src.find("V_A"), std::string::npos);
  EXPECT_NE(src.find("A#1["), std::string::npos);  // comment, legal there
}

TEST(CCodegen, Fig7ProgramCompilesRunsAndSelfValidates) {
  if (!have_c_toolchain()) GTEST_SKIP() << "no C toolchain available";
  const Ddg g = workloads::fig7_loop();
  const std::string src =
      emit_c_program(pattern_compiled(g, Machine{2, 2}, 12), g);
  EXPECT_EQ(compile_and_run(src, "fig7"), 0);
}

TEST(CCodegen, CytronFullScheduleProgramSelfValidates) {
  if (!have_c_toolchain()) GTEST_SKIP() << "no C toolchain available";
  const Ddg g = workloads::cytron86_loop();
  const Machine m{8, 2};
  const FullSchedResult r = full_sched(g, m, 8);
  const std::string src =
      emit_c_program(compile_program(lower(r.schedule, g), g), g);
  EXPECT_EQ(compile_and_run(src, "cytron"), 0);
}

TEST(CCodegen, DoacrossProgramSelfValidates) {
  if (!have_c_toolchain()) GTEST_SKIP() << "no C toolchain available";
  const Ddg g = workloads::ll20_discrete_ordinates();
  const Machine m{3, 2};
  const DoacrossResult doa = doacross(g, m, 9);
  const std::string src =
      emit_c_program(compile_program(lower(doa.schedule, g), g), g);
  EXPECT_EQ(compile_and_run(src, "doacross"), 0);
}

// The differential test: random loop *programs* from the shared generator
// (tests/support/loop_gen.hpp — the same seeded pipeline the plan-server
// fuzz suite and the mimdd integration tests draw from), each emitted and
// each binary's internal recompute asserting the bitwise match.  Exercises channels, slot reuse, and steady-state rolling
// on irregular programs no hand-written case would cover.
TEST(CCodegen, RandomLoopsSelfValidate) {
  if (!have_c_toolchain()) GTEST_SKIP() << "no C toolchain available";
  for (const std::uint64_t seed : {3u, 7u, 19u}) {
    const testsupport::GeneratedLoop gl = testsupport::generate_loop(seed);
    const CompiledProgram cp = compile_program(gl.program, gl.graph);
    const std::string src = emit_c_program(cp, gl.graph);
    EXPECT_EQ(compile_and_run(src, gl.tag), 0) << gl.tag;
  }
}

/// Occurrences of `needle` in `src`.
std::size_t count_of(const std::string& src, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t p = src.find(needle); p != std::string::npos;
       p = src.find(needle, p + 1)) {
    ++n;
  }
  return n;
}

TEST(CCodegen, RollsTheSteadyStateIntoARealLoop) {
  const Ddg g = workloads::fig7_loop();
  const CompiledProgram cp = pattern_compiled(g, Machine{2, 2}, 40);
  const std::string src = emit_c_program(cp, g);
  EXPECT_NE(src.find("for (long long r = 0;"), std::string::npos);
  EXPECT_NE(src.find("steady state:"), std::string::npos);
  // Rolled output is dramatically smaller than one block per op: compute
  // blocks open with "{ /*" and sends are single chan_send lines.
  std::size_t ops = 0;
  for (const CompiledThread& t : cp.threads) ops += t.ops.size();
  const std::size_t emitted =
      count_of(src, "  { /*") + count_of(src, "  chan_send(&");
  EXPECT_LT(emitted, ops / 2) << emitted << " op blocks for " << ops
                              << " compiled ops";
}

// Start-aligned rolling: detect_period used to end-align the repetitions
// against the tail of the match window, which padded each thread's
// prologue with up to period-1 already-periodic ops (fig7 at n=40: 5 and
// 4 straight-line op blocks before the loop).  The prologue must be
// exactly the non-periodic warm-up — here a single op per thread, the
// rest rolled or in the epilogue.
TEST(CCodegen, RolledPrologueIsExactlyTheNonPeriodicWarmup) {
  const Ddg g = workloads::fig7_loop();
  const CompiledProgram cp = pattern_compiled(g, Machine{2, 2}, 40);
  const std::string src = emit_c_program(cp, g);
  const auto count_between = [&src](const std::string& needle,
                                    std::size_t from, std::size_t to) {
    std::size_t n = 0;
    for (std::size_t p = src.find(needle, from);
         p != std::string::npos && p < to; p = src.find(needle, p + 1)) {
      ++n;
    }
    return n;
  };
  int functions = 0;
  std::size_t pos = 0;
  while (true) {
    const std::size_t fn = src.find("_main(void* arg)", pos);
    if (fn == std::string::npos) break;
    const std::size_t loop = src.find("for (long long r = 0;", fn);
    ASSERT_NE(loop, std::string::npos);
    // Op blocks open with "{ /*"; sends are single chan_send lines.  The
    // slot declaration's own comment matches neither.
    const std::size_t prologue_ops = count_between("{ /*", fn, loop) +
                                     count_between("chan_send(&", fn, loop);
    EXPECT_EQ(prologue_ops, 1u) << "padded prologue in pe function at byte "
                                << fn;
    ++functions;
    pos = loop + 1;
  }
  EXPECT_EQ(functions, 2);
}

TEST(CCodegen, RolledProgramSelfValidates) {
  if (!have_c_toolchain()) GTEST_SKIP() << "no C toolchain available";
  const Ddg g = workloads::fig7_loop();
  const std::string src =
      emit_c_program(pattern_compiled(g, Machine{2, 2}, 48), g);
  EXPECT_EQ(compile_and_run(src, "fig7_rolled"), 0);
}

TEST(CCodegen, RolledLivermoreProgramSelfValidates) {
  if (!have_c_toolchain()) GTEST_SKIP() << "no C toolchain available";
  const Ddg g = workloads::livermore18_loop();
  const Machine m{4, 2};
  const FullSchedResult r = full_sched(g, m, 32);
  const CompiledProgram cp = compile_program(lower(r.schedule, g), g);
  const std::string src = emit_c_program(cp, g);
  EXPECT_NE(src.find("for (long long r = 0;"), std::string::npos);
  EXPECT_EQ(compile_and_run(src, "ll18"), 0);
}

TEST(CCodegen, RingCapacitiesFollowTheSharedPolicy) {
  // Every channel buffer in the per-call context holds exactly the
  // channel's message count — the size the executor's SpscChannel gets.
  const Ddg g = workloads::fig7_loop();
  const CompiledProgram cp = pattern_compiled(g, Machine{2, 2}, 24);
  const std::string src = emit_c_program(cp, g);
  ASSERT_FALSE(cp.channels.empty());
  const std::size_t ctx_begin = src.find("typedef struct {\n  double chan0");
  const std::size_t ctx_end = src.find("} kctx_t;");
  ASSERT_NE(ctx_begin, std::string::npos);
  ASSERT_NE(ctx_end, std::string::npos);
  const std::string ctx = src.substr(ctx_begin, ctx_end - ctx_begin);
  for (std::size_t c = 0; c < cp.channels.size(); ++c) {
    ASSERT_GE(cp.channels[c].messages, 1);
    const std::string decl =
        "  double chan" + std::to_string(c) + "_buf[" +
        std::to_string(cp.channels[c].messages) + "];";
    EXPECT_NE(ctx.find(decl), std::string::npos) << decl;
    EXPECT_EQ(ring_capacity(cp.channels[c].messages),
              static_cast<std::size_t>(cp.channels[c].messages));
  }
  EXPECT_EQ(src.find("static double chan0_buf"), std::string::npos);
}

// A send is one store plus a release-publish: no loop, no wait, no mask.
TEST(CCodegen, EmittedSendNeverWaits) {
  const Ddg g = workloads::fig7_loop();
  const std::string src =
      emit_c_program(pattern_compiled(g, Machine{2, 2}, 24), g);
  const std::size_t begin = src.find("static void chan_send(");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = src.find("\n}\n", begin);
  ASSERT_NE(end, std::string::npos);
  const std::string send = src.substr(begin, end - begin);
  EXPECT_EQ(send.find("while"), std::string::npos) << send;
  EXPECT_EQ(send.find("for"), std::string::npos) << send;
  EXPECT_EQ(send.find("sched_yield"), std::string::npos) << send;
  EXPECT_EQ(src.find("mask"), std::string::npos);
  EXPECT_NE(send.find("memory_order_release"), std::string::npos) << send;
}

// One kernel emission: both programs contain the JIT's kernel — channel
// runtime, per-call context, PE functions and the four exported entries —
// byte for byte, followed by their own driver.
TEST(CCodegen, ProgramsEmbedTheKernelByteForByte) {
  for (const std::uint64_t seed : {3u, 7u}) {
    const testsupport::GeneratedLoop gl = testsupport::generate_loop(seed);
    const CompiledProgram cp = compile_program(gl.program, gl.graph);
    const std::string kernel =
        emit_c_program(cp, gl.graph, CEmitOptions{CArtifact::Kernel});
    const std::size_t body = kernel.find("\n#define N ");
    ASSERT_NE(body, std::string::npos);
    const std::string kernel_body = kernel.substr(body);
    EXPECT_NE(kernel_body.find("static void* pe"), std::string::npos);
    EXPECT_NE(kernel_body.find("void mimd_kernel_ctx_destroy(void* ctx)"),
              std::string::npos);
    for (const CArtifact program :
         {CArtifact::CheckedProgram, CArtifact::TimingProgram}) {
      const std::string src =
          emit_c_program(cp, gl.graph, CEmitOptions{program});
      const std::size_t at = src.find(kernel_body);
      ASSERT_NE(at, std::string::npos) << gl.tag;
      // Exactly once, and everything after it is the driver.
      EXPECT_EQ(src.find(kernel_body, at + 1), std::string::npos);
      const std::string driver = src.substr(at + kernel_body.size());
      EXPECT_NE(driver.find("int main(void)"), std::string::npos);
      EXPECT_NE(driver.find("mimd_kernel_run_on(a->ctx, a->id)"),
                std::string::npos);
      EXPECT_EQ(driver.find("chan_send"), std::string::npos);
      EXPECT_EQ(driver.find("chan_recv"), std::string::npos);
    }
  }
}

TEST(CCodegen, NoCheckModeEmitsATimingHarnessInsteadOfTheRecompute) {
  const Ddg g = workloads::fig7_loop();
  const CompiledProgram cp = pattern_compiled(g, Machine{2, 2}, 24);
  const std::string src =
      emit_c_program(cp, g, CEmitOptions{CArtifact::TimingProgram});
  // No sequential recompute, no comparison storage...
  EXPECT_EQ(src.find("SEQ"), std::string::npos);
  EXPECT_EQ(src.find("sequential"), std::string::npos);
  EXPECT_EQ(src.find("MISMATCH"), std::string::npos);
  // ...but a monotonic-clock timing harness and a live result fold.
  EXPECT_NE(src.find("clock_gettime"), std::string::npos);
  EXPECT_NE(src.find("CLOCK_MONOTONIC"), std::string::npos);
  EXPECT_NE(src.find("PARALLEL"), std::string::npos);
  EXPECT_NE(src.find("fold"), std::string::npos);
  // The parallel section itself is unchanged (same threads, same rings).
  const std::string checked = emit_c_program(cp, g);
  EXPECT_NE(checked.find("SEQ"), std::string::npos);
  EXPECT_NE(src.find("pe0_main"), std::string::npos);
  EXPECT_NE(src.find("pe1_main"), std::string::npos);
}

TEST(CCodegen, NoCheckProgramCompilesAndRuns) {
  if (!have_c_toolchain()) GTEST_SKIP() << "no C toolchain available";
  const Ddg g = workloads::fig7_loop();
  const CompiledProgram cp = pattern_compiled(g, Machine{2, 2}, 24);
  EXPECT_EQ(compile_and_run(
                emit_c_program(cp, g, CEmitOptions{CArtifact::TimingProgram}),
                "nocheck"),
            0);
}

TEST(CCodegen, RejectsProgramComputingNothing) {
  // A compiled program with no compute ops has no iteration count for the
  // self-check to range over.
  const Ddg g = workloads::fig7_loop();
  PartitionedProgram empty;
  empty.processors = 2;
  empty.programs.resize(2);
  empty.programs[0].proc = 0;
  empty.programs[1].proc = 1;
  const CompiledProgram cp = compile_program(empty, g);
  EXPECT_EQ(cp.iterations, 0);
  EXPECT_THROW((void)emit_c_program(cp, g), ContractViolation);
}

}  // namespace
}  // namespace mimd
