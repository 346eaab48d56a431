#!/usr/bin/env python3
"""Alternating pairs of benchmark runs on two checkouts, with the win count.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload surfaces --seed 0 --pairs 10

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in the PARENT checkout and once in the CHANGE checkout, one after the
other; the change goes first in odd pairs, the parent in even ones (counting
from 0). T defaults to ``run_seconds`` of PARENT's BENCHMARK.json. For every
end-to-end metric listed there, the script prints each pair's two medians,
then each side's median and quartiles over the pairs, and the number of
pairs the change won (ties count for neither side). A gain holds when the
change wins at least nine pairs in ten and the medians differ by more than
the parent's interquartile range. A run that reports a failed child, or
none at all, is printed and counted, and its pair is left out of the
statistics. The script only calls the benchmark; it edits nothing.
"""
from __future__ import annotations

import argparse
import json
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


def summarize(pairs: list[dict], metrics: list[dict]) -> None:
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        got = [(p["parent"][name], p["change"][name]) for p in pairs]
        if not got:
            continue
        wins = sum((c < p) if lower else (c > p) for p, c in got)
        q = {side: quartiles([g[k] for g in got]) for k, side in enumerate(SIDES)}
        gap = abs(q["change"][1] - q["parent"][1])
        iqr = q["parent"][2] - q["parent"][0]
        print(f"{name} [{m['unit']}, {m['better']} is better]")
        for k, (p, c) in enumerate(got):
            print(f"  pair {k}: parent {p:.6g}  change {c:.6g}")
        for side in SIDES:
            q1, med, q3 = q[side]
            print(f"  {side:6s} median {med:.6g}  [q1 {q1:.6g}, q3 {q3:.6g}]")
        print(f"  change wins {wins}/{len(got)}; median gap {gap:.6g} vs parent IQR {iqr:.6g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs, failed = [], 0
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
    print(f"\n{args.workload} seed {args.seed}, {seconds:g} s per run, "
          f"{len(pairs)} complete pairs, {failed} failed runs")
    summarize(pairs, bench["end_to_end"])
    return 0 if pairs and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
