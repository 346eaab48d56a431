"""Record the reference outputs the workload oracles compare against.

    python3 perfbench/make_refs.py [cascade_points] [surfaces] [family_pair]

Writes perfbench/refs/: verify rows per family and scale, the sha256 of each
surface's fields.csv and meta.json per surface size, and a pool of cascade
points with their jets. References pin the program's outputs at the commit
that defined the benchmark; regenerate them only when a change is meant to
alter those outputs, and say so where the change is recorded.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from pmcsurf import coeffs  # noqa: E402

POOL = 512          # points per pool; batches draw without replacement
POOL_SEED = 20140606


def family_pair_refs() -> dict:
    wl = workloads.FamilyPair()
    refs = {}
    for scale in workloads.SCALES:
        refs[scale] = {}
        for seed, fam in enumerate(workloads.FAMILIES):
            st = wl.setup(seed, scale, HERE, ref=False)
            report = wl.run(st)
            refs[scale][workloads.family_key(*fam)] = [
                {"equation": r.equation, "variant": r.variant, "order": r.order,
                 "passed": r.passed} for r in report.rows]
            print(scale, fam, "passed" if report.passed else "FAILED", flush=True)
    return refs


def surface_refs(workdir: Path) -> dict:
    wl = workloads.Surfaces()
    refs = {}
    for scale in workloads.SCALES:
        n = str(workloads.SCALES[scale]["surface"])
        if n in refs:
            continue
        refs[n] = {"family": {}}
        for seed, fam in enumerate(workloads.FAMILIES):
            st = wl.setup(seed, scale, workdir, ref=False)
            out = wl.run(st)
            if out["codes"] != [2, 0]:
                raise SystemExit(f"surface commands exited {out['codes']}, expected [2, 0]")
            digests = [{f: workloads.sha256(d / f) for f in ("fields.csv", "meta.json")}
                       for d in st["outs"]]
            refs[n]["construct"] = digests[0]
            refs[n]["family"][workloads.family_key(*fam)] = digests[1]
            print("surface", n, fam, flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return refs


def cascade_pool() -> dict:
    rng = np.random.default_rng(POOL_SEED)
    model = workloads.CascadePoints.MODEL
    out = {}
    for kind in ("pair", "off"):
        alpha, a, abar = workloads.sample_points(rng, POOL, model.b, kind == "pair")
        cache = coeffs.CoeffCache(coeffs.EvalPoint(alpha, a, abar, params=model),
                                  t9_mode="alternate")
        jets = np.stack([cache.get(i, workloads.CASCADE_ORDER, conjugated=cj, branch=br).coeffs
                         for i, br, cj in workloads.CASCADE_KEYS])   # (key, slot, point)
        out.update({f"{kind}_alpha": alpha, f"{kind}_a": a, f"{kind}_abar": abar,
                    f"{kind}_ref": np.moveaxis(jets, -1, 0)})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("refs", nargs="*", default=["cascade_points", "surfaces", "family_pair"],
                    choices=["cascade_points", "surfaces", "family_pair"],
                    help="which references to record (default: all)")
    args = ap.parse_args(argv)
    refs = HERE / "refs"
    refs.mkdir(exist_ok=True)
    if "cascade_points" in args.refs:
        np.savez(refs / "cascade_pool.npz", **cascade_pool())
    work = HERE.parent / ".perfbench_out" / "make_refs"
    for name, make in (("surfaces", lambda: surface_refs(work)),
                       ("family_pair", family_pair_refs)):
        if name in args.refs:
            with open(refs / f"{name}.json", "w") as fh:
                json.dump(make(), fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
