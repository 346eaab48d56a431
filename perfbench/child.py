"""One run of one workload in a fresh process; started by run.py.

    python3 perfbench/child.py '<spec as JSON>'

The spec names the workload, seed, scale and work directory, the monotonic
time at which the parent started this process (set-up time runs from there to
the first workload call), and whether to trace. The last line of stdout is
one JSON record: set-up, wall and CPU time, peak RSS, the problems the oracle
found and, when traced, the per-layer metrics.
"""
from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def monotonic() -> float:
    # the same clock in every process, so the parent's start stamp is comparable
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure(spec: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import pmcsurf
    if Path(pmcsurf.__file__).resolve().parent != ROOT / "src" / "pmcsurf":
        raise RuntimeError(f"imported pmcsurf from {pmcsurf.__file__}, not from this checkout")
    import workloads
    from pmcsurf.verify import default_workers

    wl = workloads.WORKLOADS[spec["workload"]]
    workdir = Path(spec["workdir"])
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer(f"{spec['workload']}:{spec['seed']}:{spec['pid_tag']}")
        tracer.install()
    rec = {"threads": default_workers()}
    try:
        st = wl.setup(spec["seed"], spec["scale"], workdir)
        rec["setup_s"] = monotonic() - spec["spawned"]
        if spec["setup_only"]:
            return rec
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        out = wl.run(st, tamper=wl.corrupt if spec["tamper"] else None)
        rec["wall_s"] = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        rec["cpu_s"] = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        rec["peak_rss_mib"] = ru1.ru_maxrss / 1024.0
        rec["nodes"] = st["nodes"]
        rec["problems"] = wl.check(st, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.uninstall()
        rec["layers"] = tracer.metrics()
        spans = ROOT / ".perfbench_out" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans / f"{spec['workload']}-seed{spec['seed']}-{spec['pid_tag']}.json")
    return rec


def main() -> int:
    spec = json.loads(sys.argv[1])
    try:
        rec = measure(spec)
    except Exception:  # the parent counts the run as failed and keeps going
        rec = {"problems": [traceback.format_exc()]}
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
