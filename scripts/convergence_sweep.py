#!/usr/bin/env python3
"""Residual convergence across a ladder of grid resolutions.

Builds the same surface at every requested resolution and prints, for each
gated equation, the max residual per grid and the observed order between
consecutive grids. Useful when tuning stencils or tolerances: the acceptance
pair only sees two resolutions, this shows whether the decay is clean h^2
all the way down or just got lucky at one pair.

    python3 scripts/convergence_sweep.py --kind family --grids 41 81 161 321
    python3 scripts/convergence_sweep.py --kind generic --grids 41 81 161
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pmcsurf.coeffs import ModelParams
from pmcsurf.construct import construct_surface
from pmcsurf.family4 import FamilyParams, default_window, family_potential, family_surface
from pmcsurf.fields import Grid, HarmonicInput
from pmcsurf.profile import build_potential, solve_profile
from pmcsurf.verify import verify_suite


def family_fields(n: int, c1: float, tilt: float):
    harm = HarmonicInput.affine_window(*default_window(c1), (0.0, 1.0, 0.0, 1.0), tilt=tilt)
    grid = Grid(0.0, 1.0, 0.0, 1.0, n, n)
    return family_surface(harm, grid, FamilyParams(c1=c1)).fields


def generic_fields(n: int, tilt: float):
    params = ModelParams(rho=-3.0, b=1.0)
    prof = solve_profile(params, 0.6, 0.3 + 0.4j, (0.4, 1.2), tol=1e-10)
    pot = build_potential(prof)
    tlo, thi = pot.t_range
    span = thi - tlo
    harm = HarmonicInput.affine_window(tlo + 0.1 * span, thi - 0.1 * span,
                                       (0.0, 1.0, 0.0, 1.0), tilt=tilt)
    grid = Grid(0.0, 1.0, 0.0, 1.0, n, n)
    return construct_surface(prof, pot, harm, grid).fields


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=("family", "generic"), default="family")
    ap.add_argument("--c1", type=float, default=2.0)
    ap.add_argument("--tilt", type=float, default=0.5)
    ap.add_argument("--grids", nargs="+", type=int, default=[41, 81, 161, 321])
    args = ap.parse_args()

    build = (lambda n: family_fields(n, args.c1, args.tilt)) \
        if args.kind == "family" else (lambda n: generic_fields(n, args.tilt))
    surfaces = {n: build(n) for n in sorted(args.grids)}

    ns = sorted(surfaces)
    stats: dict[str, list] = {}
    for a, b in zip(ns, ns[1:]):
        rep = verify_suite(surfaces[a], surfaces[b])
        for row in rep.rows:
            key = row.equation + (f"[{row.variant}]" if row.variant else "")
            rec = stats.setdefault(key, [None] * (len(ns) - 1))
            rec[ns.index(a)] = (row.max_coarse, row.max_fine, row.order)

    head = f"{'equation':<22}" + "".join(f"{f'{a}->{b}':>18}" for a, b in zip(ns, ns[1:]))
    print(f"{args.kind} surface, grids {ns}")
    print(head)
    for key, recs in stats.items():
        cells = []
        for rec in recs:
            if rec is None or rec[2] is None:
                cells.append(f"{'-':>18}")
            else:
                cells.append(f"{rec[0]:>10.2e} {rec[2]:>5.2f} ")
        print(f"{key:<22}" + "".join(cells))
    print("cell format: max residual on the coarser grid, then observed order")


if __name__ == "__main__":
    main()
