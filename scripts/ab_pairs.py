#!/usr/bin/env python3
"""Alternating pairs of benchmark runs on two checkouts, with the win count.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload surfaces --seed 0 --pairs 10 \
        [--json BENCH.json]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in the PARENT checkout and once in the CHANGE checkout, one after the
other; the change goes first in odd pairs, the parent in even ones (counting
from 0). T defaults to ``run_seconds`` of PARENT's BENCHMARK.json. For every
end-to-end metric listed there, the script prints each pair's two medians,
then each side's median and quartiles over the pairs, and the number of
pairs the change won (ties count for neither side). A gain holds when the
change wins at least nine pairs in ten and the medians differ by more than
the parent's interquartile range. Each metric also gets its no-regression
verdict against its ``bound`` in BENCHMARK.json, a share of the parent's
median: "worse by more than bound" when the change's median is worse by more
than that, else "unresolved" when the parent's own interquartile range
exceeds it, else "within bound". A run that reports a failed child, or
none at all, is printed and counted, and its pair is left out of the
statistics. With --json PATH the same numbers are also written to PATH as
one JSON object: every complete pair, each metric's per-side median and
quartiles, win count and verdict, both checkouts' ``git rev-parse HEAD``,
the seconds per run, and the host (CPU count, /proc/loadavg before the first
run and after the last, Python and numpy versions). The script only calls
the benchmark and writes that file; it edits nothing else.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One run.py call in checkout; its last stdout line, or None when it gave no result."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median, q3 as run.py computes them (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: tuple[float, float, float], change: float, bound: float,
            lower: bool) -> str:
    """The no-regression verdict of a change median against the parent's quartiles."""
    q1, med, q3 = parent
    if (change - med if lower else med - change) > bound * abs(med):
        return "worse by more than bound"
    if q3 - q1 > bound * abs(med):
        return "unresolved"
    return "within bound"


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: its pairs, each side's quartiles, the wins and the verdict."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        got = [(p["parent"][name], p["change"][name]) for p in pairs]
        if not got:
            continue
        q = {side: quartiles([g[k] for g in got]) for k, side in enumerate(SIDES)}
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "pairs": [{"parent": p, "change": c} for p, c in got],
            **{side: dict(zip(("q1", "median", "q3"), q[side])) for side in SIDES},
            "wins": sum((c < p) if lower else (c > p) for p, c in got),
            "median_gap": abs(q["change"][1] - q["parent"][1]),
            "parent_iqr": q["parent"][2] - q["parent"][0],
            "verdict": verdict(q["parent"], q["change"][1], m["bound"], lower)}
    return out


def show(stats: dict) -> None:
    for name, s in stats.items():
        print(f"{name} [{s['unit']}, {s['better']} is better]")
        for k, p in enumerate(s["pairs"]):
            print(f"  pair {k}: parent {p['parent']:.6g}  change {p['change']:.6g}")
        for side in SIDES:
            print(f"  {side:6s} median {s[side]['median']:.6g}  "
                  f"[q1 {s[side]['q1']:.6g}, q3 {s[side]['q3']:.6g}]")
        print(f"  change wins {s['wins']}/{len(s['pairs'])}; median gap {s['median_gap']:.6g} "
              f"vs parent IQR {s['parent_iqr']:.6g}")
        print(f"  verdict: {s['verdict']} (bound {s['bound']:g} of the parent median)")


def git_head(checkout: Path) -> str | None:
    """The checkout's commit; None for a tree that is not a git checkout (git archive)."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def loadavg() -> list[float] | None:
    """The 1, 5 and 15 minute load averages, where the system has /proc/loadavg."""
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--json", type=Path, default=None, metavar="PATH",
                    help="also write the pairs and statistics to PATH")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs, failed, load_before = [], 0, loadavg()
    for k in range(args.pairs):
        order = SIDES[::-1] if k % 2 else SIDES
        result = {}
        for side in order:
            out = run_bench(checkouts[side], args.workload, args.seed, seconds)
            if out is None or out["failed"] or not out["correct"]:
                failed += 1
                counts = out and {x: out[x] for x in ("correct", "attempted", "failed")}
                print(f"pair {k}: {side} run failed: {counts}")
                continue
            result[side] = {name: v["value"] for name, v in out["metrics"].items()}
        print(f"pair {k} ({order[0]} first): "
              + "  ".join(f"{s} wall_s {result[s].get('wall_s', float('nan')):.4g}"
                          for s in SIDES if s in result), flush=True)
        if len(result) == 2:
            pairs.append(result)
    load_after = loadavg()
    print(f"\n{args.workload} seed {args.seed}, {seconds:g} s per run, "
          f"{len(pairs)} complete pairs, {failed} failed runs")
    stats = summarize(pairs, bench["end_to_end"])
    show(stats)
    if args.json is not None:
        record = {
            "workload": args.workload, "seed": args.seed, "run_seconds": seconds,
            "pairs_run": args.pairs, "complete_pairs": len(pairs), "failed_runs": failed,
            "heads": {side: git_head(checkouts[side]) for side in SIDES},
            "host": {"cpu_count": os.cpu_count(), "loadavg_before": load_before,
                     "loadavg_after": load_after, "python": platform.python_version(),
                     "numpy": importlib.metadata.version("numpy")},
            "metrics": stats}
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if pairs and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
