#!/usr/bin/env python3
"""Diff two BENCH_<name>.json snapshots.

A snapshot is a google-benchmark target's own JSON report:
    build/bench/bench_<name> --benchmark_format=json \\
        --benchmark_out=BENCH_bench_<name>.json

Each side is either a single BENCH_<name>.json file or a directory
containing any number of them (files are matched across sides by their
basename).  Prints a per-benchmark delta table and flags every benchmark
whose chosen metric regressed by more than the threshold.

Exit status: 0 when nothing regressed past the threshold (missing
counterparts are reported but don't fail), 1 otherwise.  Timings are a
trend record, not a pass/fail oracle: run both sides on one quiet
machine before trusting a small delta.

Usage:
    tools/bench_diff.py BASE NEW [--metric real_time|cpu_time]
                        [--threshold PCT] [--filter REGEX]
"""

import argparse
import json
import re
import sys
from pathlib import Path


def load_side(path: Path) -> dict:
    """{file_basename: {bench_name: row}} for one file or directory."""
    files = sorted(path.glob("BENCH_*.json")) if path.is_dir() else [path]
    side = {}
    for f in files:
        try:
            payload = json.loads(f.read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_diff: skipping unreadable {f}: {e}",
                  file=sys.stderr)
            continue
        rows = {}
        for row in payload.get("benchmarks", []):
            # Keep only the plain timing rows (no aggregates like _mean).
            if row.get("run_type", "iteration") == "iteration":
                rows[row["name"]] = row
        side[f.name] = rows
    return side


def fmt_time(value: float, unit: str) -> str:
    return f"{value:,.1f} {unit}"


# google-benchmark time units, normalized to nanoseconds so two snapshots
# recorded with different Unit() settings still diff correctly.
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def metric_ns(row: dict, metric: str):
    """(value in ns, display unit), or (None, unit) for an unknown unit."""
    unit = row.get("time_unit", "ns")
    factor = UNIT_NS.get(unit)
    return (row[metric] * factor if factor is not None else None, unit)


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", type=Path,
                    help="baseline BENCH_<name>.json file or directory")
    ap.add_argument("new", type=Path,
                    help="candidate BENCH_<name>.json file or directory")
    ap.add_argument("--metric", default="real_time",
                    choices=["real_time", "cpu_time"])
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    ap.add_argument("--filter", default="",
                    help="only diff benchmarks whose name matches this regex")
    args = ap.parse_args()

    for p in (args.base, args.new):
        if not p.exists():
            print(f"bench_diff: {p} does not exist", file=sys.stderr)
            return 2

    base = load_side(args.base)
    new = load_side(args.new)
    if not base or not new:
        print("bench_diff: no BENCH_*.json found on one side",
              file=sys.stderr)
        return 2
    # Two single files are an explicit pairing: match them to each other
    # even when the basenames differ (a renamed/archived baseline would
    # otherwise diff nothing and still report success).
    if args.base.is_file() and args.new.is_file():
        label = (args.base.name if args.base.name == args.new.name else
                 f"{args.base.name} vs {args.new.name}")
        base = {label: next(iter(base.values()))}
        new = {label: next(iter(new.values()))}

    name_re = re.compile(args.filter) if args.filter else None
    regressions = []
    missing = []
    width = 56
    header = (f"{'benchmark':<{width}} {'base':>14} {'new':>14} "
              f"{'delta':>8}")

    for fname in sorted(set(base) | set(new)):
        if fname not in base or fname not in new:
            missing.append(f"{fname} (only in "
                           f"{'base' if fname in base else 'new'})")
            continue
        b_rows, n_rows = base[fname], new[fname]
        shown = False
        for bench in sorted(set(b_rows) | set(n_rows)):
            if name_re and not name_re.search(bench):
                continue
            if not shown:
                print(f"\n== {fname} ==")
                print(header)
                shown = True
            if bench not in b_rows or bench not in n_rows:
                missing.append(f"{fname}:{bench} (only in "
                               f"{'base' if bench in b_rows else 'new'})")
                continue
            b, n = b_rows[bench], n_rows[bench]
            (bv_ns, b_unit) = metric_ns(b, args.metric)
            (nv_ns, n_unit) = metric_ns(n, args.metric)
            if bv_ns is None or nv_ns is None:
                missing.append(f"{fname}:{bench} (unknown time_unit "
                               f"{b_unit!r}/{n_unit!r})")
                continue
            delta = (nv_ns - bv_ns) / bv_ns * 100.0 if bv_ns else 0.0
            flag = ""
            if delta > args.threshold:
                flag = "  REGRESSION"
                regressions.append((fname, bench, delta))
            print(f"{bench:<{width}} "
                  f"{fmt_time(b[args.metric], b_unit):>14} "
                  f"{fmt_time(n[args.metric], n_unit):>14} "
                  f"{delta:>+7.1f}%{flag}")

    if missing:
        print("\nunmatched (not diffed):")
        for m in missing:
            print(f"  {m}")
    if regressions:
        print(f"\nbench_diff: {len(regressions)} regression(s) beyond "
              f"{args.threshold:.1f}% on {args.metric}:")
        for fname, bench, delta in regressions:
            print(f"  {fname}:{bench}  {delta:+.1f}%")
        return 1
    print(f"\nbench_diff: no regressions beyond {args.threshold:.1f}% "
          f"on {args.metric}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
