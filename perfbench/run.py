#!/usr/bin/env python3
"""Build and run the mimdd end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form configures and builds perfbench/CMakeLists.txt (which
compiles the library from the sources one directory up) into
.bench_build/perfbench, then runs mimd_e2e.  Its standard output is the
benchmark's: human-readable lines, then one JSON object as the last line.
The exit status is the benchmark's (non-zero on any failed request, oracle
mismatch or quota trip); a failed build exits non-zero without a result.

--smoke runs every workload for one second, untraced and traced, and
checks that each run reports exactly the metrics BENCHMARK.json names,
with their units, with zero failures and a passing oracle self-test.

Everything the build and the runs write stays under .bench_build/ in the
checkout, including the JIT's and the C compiler's temporary files.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_build"
BUILD_DIR = OUT_DIR / "perfbench"
BINARY = BUILD_DIR / "mimd_e2e"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 600
# warm-serve runs and is smoke-tested, but BENCHMARK.json does not list it
# (see perfbench/README.md, "Workloads").
WORKLOADS = ("cold-compile", "warm-serve", "mixed-n")


def run_group(cmd, timeout, capture=False, **kwargs):
    """Run `cmd` in its own process group and wait for it; on timeout kill
    the whole group (the C compiler the JIT spawns included) and wait.
    Returns (exit status, or None on timeout; captured stdout or None)."""
    if capture:
        kwargs.update(stdout=subprocess.PIPE, text=True)
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out


def build():
    OUT_DIR.mkdir(exist_ok=True)
    log_path = OUT_DIR / "perfbench-build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "mimd_e2e", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            status, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=log,
                                  stderr=subprocess.STDOUT)
            if status != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
                return False
    return True


def bench_env():
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    return env


def bench_cmd(workload, seed, seconds, trace):
    return [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--run-dir", str(OUT_DIR / "run")]


def run_once(args):
    status, _ = run_group(bench_cmd(args.workload, args.seed, args.seconds,
                                    args.trace),
                          RUN_TIMEOUT_S, cwd=ROOT, env=bench_env())
    if status is None:
        sys.stderr.write("run.py: benchmark timed out\n")
        return 1
    return status


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s trace=%d" % (workload, trace)
            status, out = run_group(bench_cmd(workload, 1, 1, trace),
                                    RUN_TIMEOUT_S, capture=True, cwd=ROOT,
                                    env=bench_env())
            lines = (out or "").strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append("%s: no JSON result (exit %s)" % (label, status))
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got)
                               if want[k] != got[k])
                problems.append("%s: metrics differ: missing %s, extra %s, "
                                "wrong unit %s" % (label, missing, extra, wrong))
            if status != 0 or not result["correct"]:
                problems.append("%s: exit %s, correct=%s"
                                % (label, status, result["correct"]))
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: %d failed of %d attempted"
                                % (label, result["failed"], result["attempted"]))
            if not any(l.startswith("oracle self-test: pass") for l in lines):
                problems.append("%s: oracle self-test did not pass" % label)
            print("smoke %-24s %d metrics, %d attempted, %d failed"
                  % (label, len(got), result["attempted"], result["failed"]))
    for p in problems:
        print("smoke FAIL " + p)
    print("smoke: %s" % ("FAIL" if problems else "pass"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload or --smoke is required")
    if not build():
        return 1
    return smoke() if args.smoke else run_once(args)


if __name__ == "__main__":
    sys.exit(main())
