"""Benchmark runner for pmcsurf.

    python3 perfbench/run.py --workload family_pair --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 1

Runs one workload (or all three, one after another) from the root of a
checkout. Every measured run is its own child process (child.py), started one
at a time: children run until about --seconds have passed (at least one),
and set-up-only children then bring the set-up samples up to SETUP_SAMPLES.
End-to-end metrics are medians over the children. With --trace 1 one more
child runs traced for the per-layer metrics, and one runs at PMC_THREADS=1
for the single-thread reference; PMC_THREADS is otherwise left at its
default. The table goes to stdout; the last line of stdout is one JSON object
with correct, attempted, failed and the metrics (end-to-end with --trace 0,
per-layer with --trace 1). attempted and failed count the children that ran
the workload, not the set-up-only ones. The process exits non-zero without a
result when the checkout has no package to measure.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("family_pair", "surfaces", "cascade_points")
SCALES = ("toy", "bench")
SETUP_SAMPLES = 5
RUN_BUDGET_S = 165.0   # one call of this script must end within 180 s

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "nodes_per_s": "1/s",
}
TIME_LAYERS = (
    "jets.mul_s", "coeffs.cascade_s", "verify.verify_suite_s",
    "construct.construct_surface_s", "construct.build_alpha_s", "construct.omega_W_s",
    "construct.integrate_nu_s", "construct.gauss_curvature_s",
    "profile.solve_profile_s", "profile.build_potential_s",
    "family4.family_surface_s", "family4.family_potential_s",
    "fields.write_fields_s", "fields.read_fields_s", "cli.construct_s", "cli.family_s",
    "trace.overhead_s", "threads1.wall_s",
)
COUNT_LAYERS = (
    "jets.mul_calls", *(f"jets.mul_calls.o{k}" for k in range(4)), "jets.product_terms",
    "coeffs.caches_built", "coeffs.points_evaluated", "coeffs.get_calls",
    "verify.residual_tasks", "construct.mask_singular", "construct.mask_nupath",
    "construct.mask_domain",
)
PER_LAYER = {
    **{name: "s" for name in TIME_LAYERS},
    **{name: "count" for name in COUNT_LAYERS},
    "jets.product_terms_per_point": "count/point",
    "jets.bytes_moved_computed": "B",
    "jets.terms_per_s": "1/s",
    "coeffs.cascade_share": "ratio",
    "construct.masked_frac": "ratio",
    "fields.bytes_written": "B",
    "fields.write_MBps": "MB/s",
    "fields.read_MBps": "MB/s",
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """The children of one call of this script for one workload."""

    def __init__(self, workload: str, seed: int, scale: str, tamper: bool = False):
        self.workload, self.seed, self.scale, self.tamper = workload, seed, scale, tamper
        self.started = monotonic()
        self.records: list[dict] = []

    def left(self) -> float:
        return RUN_BUDGET_S - (monotonic() - self.started)

    def child(self, kind: str, trace: bool = False, setup_only: bool = False,
              env: dict | None = None) -> dict:
        tag = f"{os.getpid()}-{len(self.records)}"
        spec = {"workload": self.workload, "seed": self.seed, "scale": self.scale,
                "trace": trace, "setup_only": setup_only, "tamper": self.tamper,
                "workdir": str(OUT / "work" / tag), "pid_tag": tag}
        t0 = monotonic()
        spec["spawned"] = t0
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                  cwd=ROOT, env={**os.environ, **(env or {})},
                                  capture_output=True, text=True, timeout=max(self.left(), 1.0))
            lines = proc.stdout.strip().splitlines()
            rec = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not lines:
                rec = {"problems": [f"child exited {proc.returncode}: {proc.stderr[-2000:]}"]}
        except subprocess.TimeoutExpired:
            rec = {"problems": ["child killed at the run's time budget"]}
        except json.JSONDecodeError:
            rec = {"problems": ["child printed no record"]}
        rec["kind"] = kind
        rec["elapsed_s"] = monotonic() - t0
        shutil.rmtree(spec["workdir"], ignore_errors=True)   # left behind by a killed child
        self.records.append(rec)
        return rec

    def fits(self, kind: str) -> bool:
        """Whether another child like the last of this kind fits the budget."""
        past = [r["elapsed_s"] for r in self.records if r["kind"] == kind]
        return self.left() > 1.2 * (max(past) if past else 0.0) + 2.0

    def measure(self, seconds: float, trace: bool) -> None:
        # stop before a child that would end more than half a child past --seconds
        while True:
            rec = self.child("measured")
            if "wall_s" not in rec:
                break
            if monotonic() - self.started + 0.5 * rec["elapsed_s"] > seconds \
                    or not self.fits("measured"):
                break
        if trace:
            self.child("traced", trace=True)
            self.child("threads1", env={"PMC_THREADS": "1"})
        while (sum("setup_s" in r for r in self.records) < SETUP_SAMPLES
               and self.fits("setup")):
            self.child("setup", setup_only=True)

    def failed(self, rec: dict) -> bool:
        return bool(rec.get("problems")) or ("setup_s" not in rec)

    def summary(self, trace: bool) -> dict:
        measured = [r for r in self.records if r["kind"] == "measured" and "wall_s" in r]
        # set-up-only children never call the workload, so they are not runs
        runs = [r for r in self.records if r["kind"] != "setup"]
        attempted = len(runs)
        failed = sum(self.failed(r) for r in runs)
        samples = {
            "wall_s": [r["wall_s"] for r in measured],
            "setup_s": [r["setup_s"] for r in self.records if "setup_s" in r],
            "cpu_s": [r["cpu_s"] for r in measured],
            "peak_rss_mib": [r["peak_rss_mib"] for r in measured],
            "nodes_per_s": [r["nodes"] / r["wall_s"] for r in measured],
        }
        res = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "samples": samples, "metrics": None,
               "threads": next((r["threads"] for r in self.records if "threads" in r), None)}
        if not measured:
            return res
        if trace:
            traced = next((r for r in self.records if r["kind"] == "traced"), {})
            single = next((r for r in self.records if r["kind"] == "threads1"), {})
            if "layers" not in traced or "wall_s" not in single:
                return res
            layers = dict(traced["layers"])
            wall = statistics.median(samples["wall_s"])
            layers["trace.overhead_s"] = traced["wall_s"] - wall
            layers["threads1.wall_s"] = single["wall_s"]
            layers["coeffs.cascade_share"] = layers["coeffs.cascade_s"] / traced["wall_s"]
            metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        else:
            metrics = {k: {"value": statistics.median(samples[k]), "unit": u}
                       for k, u in END_TO_END.items()}
        res["metrics"] = metrics
        return res


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def table(workload: str, seed: int, scale: str, res: dict) -> str:
    lines = [f"{workload}  seed {seed}  scale {scale}  PMC_THREADS {res['threads']}  "
             f"runs {res['attempted']}  failed {res['failed']}  "
             f"failed_frac {res['failed'] / res['attempted']:.3f}",
             f"  {'metric':<32}{'median':>14}{'q1':>12}{'q3':>12}{'n':>4}  unit"]
    for name, m in res["metrics"].items():
        vals = res["samples"].get(name)
        q1, q3 = quartiles(vals) if vals else (m["value"], m["value"])
        n = len(vals) if vals else 1
        lines.append(f"  {name:<32}{m['value']:>14.6g}{q1:>12.6g}{q3:>12.6g}{n:>4}  {m['unit']}")
    return "\n".join(lines)


def bench(workload: str, seed: int, seconds: float, trace: bool, scale: str,
          tamper: bool = False) -> dict:
    run = Run(workload, seed, scale, tamper)
    run.measure(seconds, trace)
    res = run.summary(trace)
    if res["metrics"] is None:
        problems = [p for r in run.records for p in r.get("problems", [])]
        raise SystemExit(f"{workload}: no measurement to report; problems: {problems[-3:]}")
    print(table(workload, seed, scale, res), flush=True)
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="bench",
                    help="problem sizes; bench is what BENCHMARK.json measures")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pmcsurf" / "__init__.py").is_file():
        print(f"no pmcsurf package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: bench(w, args.seed, args.seconds, bool(args.trace), args.scale) for w in names}
    if args.workload == "all":
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": m for w, r in results.items()
                           for k, m in r["metrics"].items()}}
    else:
        r = results[args.workload]
        out = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
