#!/usr/bin/env python3
"""Alternating A/B of two git revisions on one perfbench workload.

    tools/perf_ab.py PARENT CHANGE --workload mixed-n --seeds 9101-9110
                     [--trace 0] [--work DIR]
    tools/perf_ab.py --results DIR/mixed-n.jsonl [...]
    tools/perf_ab.py --self-test

The first form exports each revision with `git archive` into its own
directory under --work (default .bench_build/perf_ab; a directory that
already holds the same commit is reused), builds each once through its
own perfbench/run.py, then runs the seeds in order, each for
BENCHMARK.json's run_seconds, alternating which side goes first: the
parent runs first on odd seeds, the change on even ones.  Every run's
JSON result line is appended, with its side, seed, commit, the host's
CPU steal share over the run (from /proc/stat's `cpu` line, read before
and after) and the counters of perfbench's `plan cache:` summary line
(an untraced run's hits, lookups, repeat share, JIT compiles, native runs
and runs), to --work/<workload>.jsonl (<workload>-traced.jsonl with
--trace 1) as soon as it finishes, and the tables are printed at the end.

--results prints the same tables from such files without running
anything.  --self-test checks the statistics on canned results and
exits 0 on success.

Tables (markdown):
  * per seed, for BENCHMARK.json's end-to-end metrics: each side's value,
    failed/attempted, each side's steal share, and each side's JIT
    compiles and native runs of all runs ("n/a" for records made before
    these were stored, and for traced runs, which print no summary line).
    A pair is flagged when its two steal shares differ by more than 5
    percentage points (the host gave one side markedly less CPU than the
    other) or both exceed 5% (the host was slow for the whole pair, so
    neither side measured the program alone);
  * per metric: each side's median [first quartile, third quartile]
    (linear interpolation between order statistics), how many pairs the
    change won, of all pairs and of the unflagged ones, the median change,
    the parent's interquartile range over its median, the metric's
    BENCHMARK.json bound, and a verdict.  The verdict, over all pairs,
    reads "claim met" when at least ten pairs ran, the change won at least
    nine in ten and its median moved in the better direction by more than
    the parent's interquartile range; "worse > bound" when its median
    moved in the worse direction by more than the bound; otherwise
    "within bound" (or "-" for a metric without a bound).
"""

import argparse
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MIN_PAIRS = 10  # fewer pairs never support a claim
STEAL_GAP = 0.05  # a pair whose sides' steal shares differ by more is flagged
STEAL_HIGH = 0.05  # and so is a pair whose sides both ran above this share


def load_spec(root):
    return json.loads((root / "BENCHMARK.json").read_text())


def metric_specs(spec, trace):
    """[(name, unit, better, bound or None)] in BENCHMARK.json order: the
    end-to-end metrics of an untraced run, the per-layer ones of a traced
    run."""
    return [(m["name"], m["unit"], m["better"], m.get("bound"))
            for m in spec["per_layer" if trace else "end_to_end"]]


# ---- statistics -----------------------------------------------------------

def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def improves(better, parent, change):
    return change < parent if better == "lower" else change > parent


def compare(better, bound, pairs):
    """Statistics of one metric over [(parent value, change value)]."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    pq = quartiles(parent)
    cq = quartiles(change)
    wins = sum(1 for p, c in pairs if improves(better, p, c))
    delta = cq[1] - pq[1]
    rel = delta / pq[1] if pq[1] != 0 else (0.0 if delta == 0 else math.inf)
    iqr = pq[2] - pq[0]
    spread = iqr / pq[1] if pq[1] != 0 else 0.0
    gain = -delta if better == "lower" else delta
    worse = -rel if better == "higher" else rel
    if len(pairs) >= MIN_PAIRS and wins * 10 >= 9 * len(pairs) and gain > iqr:
        verdict = "claim met"
    elif bound is not None and worse > bound:
        verdict = "worse > bound"
    elif bound is not None:
        verdict = "within bound"
    else:
        verdict = "-"
    return {"parent": pq, "change": cq, "wins": wins, "pairs": len(pairs),
            "rel": rel, "spread": spread, "verdict": verdict}


def paired(records, workload):
    """{seed: {side: record}} for the seeds both sides ran."""
    by_seed = {}
    for r in records:
        if r["workload"] == workload:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r
    return {s: v for s, v in sorted(by_seed.items()) if len(v) == 2}


def steal_text(record):
    share = record.get("steal")
    return "n/a" if share is None else "{:.1f}%".format(100 * share)


def steal_flagged(sides):
    """True when both sides' steal shares are known and either differ by
    more than STEAL_GAP or both exceed STEAL_HIGH."""
    shares = [sides[side].get("steal") for side in SIDES]
    return None not in shares and (abs(shares[0] - shares[1]) > STEAL_GAP
                                   or min(shares) > STEAL_HIGH)


# perfbench's untraced summary line (perfbench/src/main.cpp).
PLAN_CACHE_LINE = re.compile(
    r"plan cache: hit ratio [0-9.]+ \((?P<hits>\d+) of (?P<lookups>\d+) "
    r"lookups\), repeat share (?P<repeat_share>[0-9.]+); jit: "
    r"(?P<jit_compiles>\d+) compiles, (?P<native_runs>\d+) of (?P<runs>\d+) "
    r"runs native")


def plan_cache_counters(stdout):
    """The counters of the `plan cache:` line in a run's output, or None."""
    for line in stdout.splitlines():
        m = PLAN_CACHE_LINE.search(line)
        if m:
            return {k: float(v) if k == "repeat_share" else int(v)
                    for k, v in m.groupdict().items()}
    return None


def jit_text(record):
    c = record.get("plan_cache")
    if c is None:
        return "n/a"
    return "%d, %d/%d" % (c["jit_compiles"], c["native_runs"], c["runs"])


def value(record, name):
    result = record["result"] or {}
    metric = result.get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


# ---- tables ---------------------------------------------------------------

def fmt(x):
    if x is None:
        return "n/a"
    if abs(x) >= 1000:
        return "{:,.0f}".format(x)
    if abs(x) >= 100:
        return "{:.1f}".format(x)
    if abs(x) >= 1 or x == 0:
        return "{:.3f}".format(x)
    return "{:.3g}".format(x)


def pct(x):
    return "n/a" if math.isinf(x) else "{:+.1f}%".format(100 * x)


def tables(records, workload, specs):
    seeds = paired(records, workload)
    lines = ["### `%s`: %d pair%s" % (workload, len(seeds),
                                       "" if len(seeds) == 1 else "s"), ""]
    e2e = [s for s in specs if s[3] is not None]  # the gated metrics
    head = ["seed", "first"]
    for name, _, _, _ in e2e:
        head += ["%s parent" % name, "%s change" % name]
    head.append("failed/attempted (parent, change)")
    head.append("steal (parent, change)")
    head.append("jit compiles, native/runs (parent; change)")
    lines.append("| " + " | ".join(head) + " |")
    lines.append("|" + "---|" * len(head))
    totals = {side: [0, 0] for side in SIDES}
    for seed, sides in seeds.items():
        first = min(SIDES, key=lambda side: sides[side]["order"])
        row = [str(seed), first]
        for name, _, _, _ in e2e:
            row += [fmt(value(sides["parent"], name)),
                    fmt(value(sides["change"], name))]
        counts = []
        for side in SIDES:
            res = sides[side]["result"] or {}
            failed, attempted = res.get("failed", 0), res.get("attempted", 0)
            totals[side][0] += failed
            totals[side][1] += attempted
            counts.append("%d/%d" % (failed, attempted))
        row.append(" , ".join(counts))
        steal = " , ".join(steal_text(sides[side]) for side in SIDES)
        row.append(steal + (" (flagged)" if steal_flagged(sides) else ""))
        row.append(" ; ".join(jit_text(sides[side]) for side in SIDES))
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append("| metric | better | parent median [quartiles] | "
                 "change median [quartiles] | change better | change better, "
                 "unflagged pairs | median change | parent IQR / median | "
                 "bound | verdict |")
    lines.append("|" + "---|" * 10)
    for name, unit, better, bound in specs:
        pairs = [(value(v["parent"], name), value(v["change"], name),
                  steal_flagged(v)) for v in seeds.values()]
        pairs = [t for t in pairs if t[0] is not None and t[1] is not None]
        if not pairs:
            continue
        s = compare(better, bound, [(p, c) for p, c, _ in pairs])
        unflagged = [(p, c) for p, c, flagged in pairs if not flagged]
        lines.append(
            "| `%s` (%s) | %s | %s [%s, %s] | %s [%s, %s] | %d/%d | %d/%d "
            "| %s | %s | %s | %s |" % (
                name, unit, better, fmt(s["parent"][1]), fmt(s["parent"][0]),
                fmt(s["parent"][2]), fmt(s["change"][1]), fmt(s["change"][0]),
                fmt(s["change"][2]), s["wins"], s["pairs"],
                sum(1 for p, c in unflagged if improves(better, p, c)),
                len(unflagged), pct(s["rel"]),
                "{:.1f}%".format(100 * s["spread"]),
                "-" if bound is None else "{:.0f}%".format(100 * bound),
                s["verdict"]))
    lines.append("")
    flagged = [str(seed) for seed, sides in seeds.items()
               if steal_flagged(sides)]
    lines.append("steal-flagged pairs (steal shares more than %.0f points "
                 "apart, or both above %.0f%%): %s" % (
                     100 * STEAL_GAP, 100 * STEAL_HIGH,
                     ", ".join(flagged) if flagged else "none"))
    for side in SIDES:
        failed, attempted = totals[side]
        lines.append("%s: %d of %d requests failed" % (side, failed, attempted))
    return "\n".join(lines)


# ---- running --------------------------------------------------------------

def git(*args):
    return subprocess.run(["git", "-C", str(ROOT)] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Export `rev` into `dest` with git archive; returns the commit."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    marker = dest / ".perf_ab_commit"
    if marker.exists() and marker.read_text().strip() == sha:
        return sha
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise SystemExit("perf_ab: git archive %s failed" % rev)
    marker.write_text(sha + "\n")
    return sha


def build(tree):
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "sys.exit(0 if run.build() else 1)")
    if subprocess.run([sys.executable, "-c", code], cwd=tree).returncode != 0:
        raise SystemExit("perf_ab: build failed in %s" % tree)


def run_once(tree, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, plan_cache_counters(proc.stdout)


def cpu_times():
    """/proc/stat's `cpu` line, user through steal, or None where the host
    has no such file or field."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return [int(x) for x in fields[1:9]]


def steal_share(before, after):
    """The share of all CPU time between two cpu_times() readings that the
    hypervisor gave to other guests (steal), or None."""
    if before is None or after is None:
        return None
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta)
    return delta[7] / total if total > 0 else None


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_ab(args, spec):
    work = Path(args.work).resolve()
    work.mkdir(parents=True, exist_ok=True)
    trees = {side: work / side for side in SIDES}
    revs = {side: export(rev, trees[side])
            for side, rev in zip(SIDES, (args.parent, args.change))}
    for side in SIDES:
        print("perf_ab: building %s %s" % (side, revs[side][:12]), flush=True)
        build(trees[side])
    log = work / ("%s%s.jsonl" % (args.workload, "-traced" if args.trace else ""))
    seconds = spec["run_seconds"]
    records = []
    for seed in parse_seeds(args.seeds):
        order = SIDES if seed % 2 == 1 else SIDES[::-1]
        for position, side in enumerate(order, 1):
            before = cpu_times()
            status, result, counters = run_once(
                trees[side], args.workload, seed, seconds, args.trace)
            record = {"workload": args.workload, "seed": seed, "side": side,
                      "commit": revs[side], "order": position,
                      "seconds": seconds, "trace": args.trace,
                      "exit": status, "result": result,
                      "steal": steal_share(before, cpu_times()),
                      "plan_cache": counters}
            with open(log, "a") as f:
                f.write(json.dumps(record, sort_keys=True) + "\n")
            records.append(record)
            print("perf_ab: seed %d %s exit %s" % (seed, side, status),
                  flush=True)
    return records


# ---- self-test ------------------------------------------------------------

def canned(seed, side, order, p99, rps, failed=0, steal=None,
           plan_cache=None):
    record = {"workload": "w", "seed": seed, "side": side, "order": order,
              "commit": side, "exit": 0,
              "result": {"correct": True, "attempted": 100, "failed": failed,
                         "metrics": {"latency_p99_us": {"value": p99,
                                                        "unit": "us"},
                                     "throughput_rps": {"value": rps,
                                                        "unit": "req/s"}}}}
    if steal is not None:
        record["steal"] = steal
    if plan_cache is not None:
        record["plan_cache"] = plan_cache
    return record


def self_test():
    specs = [("latency_p99_us", "us", "lower", 0.25),
             ("throughput_rps", "req/s", "higher", 0.25)]
    records = []
    # Ten pairs: the change lowers p99 on nine of them (seed 5 loses) and
    # throughput falls by a fifth on every pair.
    for seed in range(1, 11):
        parent_p99 = 100.0 + seed
        change_p99 = 200.0 if seed == 5 else 50.0 + seed
        first, second = ("parent", "change") if seed % 2 else ("change", "parent")
        order = {first: 1, second: 2}
        # Seed 2's records lack the steal share and the plan-cache
        # counters, as records made before they were stored do.
        steal = None if seed == 2 else 0.01 * seed
        counters = None if seed == 2 else {
            "hits": 30, "lookups": 100, "repeat_share": 0.3,
            "jit_compiles": seed, "native_runs": 2 * seed, "runs": 100}
        records.append(canned(seed, "parent", order["parent"], parent_p99, 10.0,
                              steal=steal, plan_cache=counters))
        # Seed 3's change side ran with 20% steal, and seed 9's sides both
        # ran above 5% (9% and 7%): both pairs are flagged.
        change_steal = (0.2 if seed == 3 else 0.07 if seed == 9
                        else None if steal is None else steal / 2)
        records.append(canned(seed, "change", order["change"], change_p99, 8.0,
                              steal=change_steal,
                              plan_cache=None if counters is None else
                              dict(counters, jit_compiles=0, native_runs=0)))
    records.append(canned(11, "parent", 1, 1.0, 1.0))  # unpaired: ignored
    seeds = paired(records, "w")
    assert list(seeds) == list(range(1, 11)), seeds
    assert seeds[1]["parent"]["order"] == 1 and seeds[2]["change"]["order"] == 1

    assert quartiles([1.0]) == (1.0, 1.0, 1.0)
    assert quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)

    pairs = [(value(v["parent"], "latency_p99_us"),
              value(v["change"], "latency_p99_us")) for v in seeds.values()]
    s = compare("lower", 0.25, pairs)
    assert s["wins"] == 9 and s["pairs"] == 10, s
    assert s["parent"] == (103.25, 105.5, 107.75), s["parent"]
    assert s["change"][1] == 56.5, s["change"]
    assert abs(s["rel"] - (56.5 - 105.5) / 105.5) < 1e-12
    assert abs(s["spread"] - 4.5 / 105.5) < 1e-12
    assert s["verdict"] == "claim met", s

    # Eight wins of ten is not a claim, even with a large median gain.
    s = compare("lower", 0.25, pairs[:4] + [(1.0, 2.0)] + pairs[5:9] + [(1.0, 2.0)])
    assert s["wins"] == 8 and s["verdict"] == "within bound", s
    # Nor are nine pairs, however clear.
    s = compare("lower", 0.25, pairs[:4] + pairs[5:])
    assert s["wins"] == 9 and s["verdict"] == "within bound", s
    # A median gain inside the parent's IQR is not a claim either.
    s = compare("lower", None, [(10.0, 9.9), (20.0, 19.9), (30.0, 29.9)])
    assert s["wins"] == 3 and s["verdict"] == "-", s

    pairs = [(value(v["parent"], "throughput_rps"),
              value(v["change"], "throughput_rps")) for v in seeds.values()]
    s = compare("higher", 0.25, pairs)
    assert s["wins"] == 0 and abs(s["rel"] + 0.2) < 1e-12
    assert s["verdict"] == "within bound", s
    s = compare("higher", 0.1, pairs)
    assert s["verdict"] == "worse > bound", s

    text = tables(records, "w", specs)
    assert "### `w`: 10 pairs" in text
    assert ("| 1 | parent | 101.0 | 51.000 | 10.000 | 8.000 | 0/100 , 0/100 "
            "| 1.0% , 0.5% | 1, 2/100 ; 0, 0/100 |") in text, text
    assert "| 2 | change |" in text
    assert "| 0/100 , 0/100 | n/a , n/a | n/a ; n/a |" in text, text
    assert ("| steal (parent, change) | jit compiles, native/runs "
            "(parent; change) |") in text, text
    # The flagged pairs are counted in the verdict and left out of the
    # unflagged win count; seed 2, whose shares are unknown, is not flagged.
    assert "| 9/10 | 7/8 | -46.4% | 4.3% | 25% | claim met |" in text, text
    assert "| 0/10 | 0/8 | -20.0% | 0.0% | 25% | within bound |" in text, text
    assert "| 3.0% , 20.0% (flagged) |" in text, text
    assert "| 9.0% , 7.0% (flagged) |" in text, text  # both above 5%
    # 5 points apart, and one side at exactly 5%: not flagged.
    assert "| 10.0% , 5.0% |" in text, text
    assert ("steal-flagged pairs (steal shares more than 5 points apart, or "
            "both above 5%): 3, 9") in text, text
    assert not steal_flagged({"parent": {"steal": 0.3}, "change": {}})
    assert steal_flagged({"parent": {"steal": 0.06}, "change": {"steal": 0.06}})
    assert not steal_flagged({"parent": {"steal": 0.05},
                              "change": {"steal": 0.05}})
    assert "parent: 0 of 1000 requests failed" in text
    assert [fmt(x) for x in (12345.6, 123.45, 1.5, 0.0, 0.000234)] == \
        ["12,346", "123.5", "1.500", "0.000", "0.000234"]
    # /proc/stat's cpu line: user nice system idle iowait irq softirq steal.
    assert steal_share([0] * 8, [10, 0, 10, 70, 0, 0, 0, 10]) == 0.1
    assert steal_share(None, [1] * 8) is None
    assert steal_share([5] * 8, [5] * 8) is None
    out = ("set-up: median of 60 in 0.5 s\n"
           "plan cache: hit ratio 0.2981 (3376 of 11325 lookups), repeat "
           "share 0.3011; jit: 137 compiles, 9 of 11325 runs native\n"
           '{"correct": true}\n')
    assert plan_cache_counters(out) == {
        "hits": 3376, "lookups": 11325, "repeat_share": 0.3011,
        "jit_compiles": 137, "native_runs": 9, "runs": 11325}
    assert plan_cache_counters('{"correct": true}\n') is None
    assert parse_seeds("9101-9103") == [9101, 9102, 9103]
    assert parse_seeds("7") == [7]
    print("perf_ab self-test: pass")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", help="first-last, e.g. 9101-9110")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", default=str(ROOT / ".bench_build" / "perf_ab"))
    parser.add_argument("--results", nargs="+", metavar="JSONL",
                        help="print the tables of recorded runs")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    spec = load_spec(ROOT)
    if args.results:
        records = [json.loads(line) for path in args.results
                   for line in Path(path).read_text().splitlines() if line]
        for workload in sorted({r["workload"] for r in records}):
            trace = any(r.get("trace") for r in records
                        if r["workload"] == workload)
            print(tables(records, workload, metric_specs(spec, trace)))
            print()
        return 0
    if not (args.parent and args.change and args.workload and args.seeds):
        parser.error("PARENT, CHANGE, --workload and --seeds are required")
    records = run_ab(args, spec)
    print(tables(records, args.workload, metric_specs(spec, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
