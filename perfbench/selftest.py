"""Self-test of the benchmark at toy sizes (a 21/41 pair, 41^2 surfaces, 2x32 points).

    python3 perfbench/selftest.py

For every workload it checks that run.py emits each metric BENCHMARK.json
names, with its unit, on clean output; that layers a workload does not use
read zero; and that a corrupted output counts as a failed run: the 1e-3 field
perturbation of acceptance criterion 7 (family_pair), one altered CSV byte
(surfaces), a 1e-3 error in one cascade value (cascade_points). It also
checks that run.py fails without a result in a directory holding only
BENCHMARK.json and the benchmark. Takes about a minute; exits 1 on failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# layers a workload never reaches, which must read zero
UNUSED = {
    "family_pair": ("fields.bytes_written", "construct.construct_surface_s", "cli.family_s"),
    "surfaces": ("coeffs.cascade_s", "jets.mul_calls", "verify.residual_tasks"),
    "cascade_points": ("fields.bytes_written", "verify.verify_suite_s",
                       "family4.family_surface_s"),
}


def runner(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in run.WORKLOADS:
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = runner(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                          "--trace", trace, "--scale", "toy")
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{workload} trace {trace}: no result\n{proc.stderr[-2000:]}")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: clean run not correct\n{proc.stdout}")
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in listed}
            if emitted != expected:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(emitted.items()) ^ set(expected.items()))}")
            if trace == "1":
                problems += [f"{workload}: unused layer {k} reads {result['metrics'][k]['value']}"
                             for k in UNUSED[workload] if result["metrics"][k]["value"] != 0]

        bad = run.Run(workload, 0, "toy", tamper=True)
        bad.measure(0.0, trace=False)
        measured = [r for r in bad.records if r["kind"] == "measured"]
        summary = bad.summary(False)
        if not measured or not all(bad.failed(r) for r in measured) \
                or summary["failed"] != len(measured) or summary["attempted"] != len(measured):
            problems.append(f"{workload}: a corrupted output was not counted as a failed run")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = runner(bare, "--workload", "family_pair", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("run.py printed a result without the package")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAIL" if problems else "pass")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
