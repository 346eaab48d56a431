#!/usr/bin/env python3
"""Regenerate the frozen oracle values under tests/data/.

Every number the test suite pins was produced here, by reference computations
run tighter than anything the library itself uses:

  * amplitude-profile endpoints from an independent integration at tol 1e-13,
    cross-checked against a halved-max-step rerun;
  * potential endpoints the same way;
  * the explicit-family phase integral at one fixed point by 30-digit
    adaptive quadrature (mpmath);
  * the explicit-family amplitude at t = pi/3, c1 = 2 from the exact
    rationals it reduces to;
  * a coarse warped-angle field from the full pipeline, cross-checked
    against a rerun at tol/10 with a doubled inversion table.

Vendored outputs are committed, so running this script is only needed when
the reference configuration changes. It must stay deterministic.
"""
from __future__ import annotations

import json
import os
import sys
from unittest import mock

import numpy as np
from scipy.integrate import solve_ivp

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pmcsurf.profile
from pmcsurf.coeffs import ModelParams
from pmcsurf.construct import construct_surface
from pmcsurf.fields import Grid, HarmonicInput
from pmcsurf.profile import build_potential, solve_profile

RHO, B = -3.0, 1.0
ALPHA0, A0 = 0.6, 0.3 + 0.4j
ALPHA_RANGE = (0.4, 1.2)
REF_TOL = 1e-13

OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                   "golden_profile.json")


def reference_profile(max_step: float):
    """Independent integration of the amplitude equation, both directions."""
    b, rho = B, RHO

    def rhs(alpha, y):
        a = y[0] + 1j * y[1]
        cot = np.cos(alpha) / np.sin(alpha)
        t2 = 2.0 * a * (np.conj(a) - b) * cot + 1.5 * rho * np.sin(alpha) * np.cos(alpha)
        da = t2 / (np.conj(a) + b)
        return [da.real, da.imag]

    y0 = [A0.real, A0.imag]
    lo, hi = ALPHA_RANGE
    down = solve_ivp(rhs, (ALPHA0, lo), y0, method="DOP853", rtol=REF_TOL,
                     atol=REF_TOL, max_step=max_step)
    up = solve_ivp(rhs, (ALPHA0, hi), y0, method="DOP853", rtol=REF_TOL,
                   atol=REF_TOL, max_step=max_step)
    assert down.status == 0 and up.status == 0
    return (down.y[0, -1] + 1j * down.y[1, -1], up.y[0, -1] + 1j * up.y[1, -1])


def reference_potential(profile, max_step: float):
    """Independent integration of g' = -F g, K' = g with K(alpha0)=0, g(alpha0)=1."""
    def rhs(alpha, y):
        F = profile.F(alpha)
        return [-F * y[0], y[0]]

    lo, hi = ALPHA_RANGE
    down = solve_ivp(rhs, (ALPHA0, lo), [1.0, 0.0], method="DOP853", rtol=REF_TOL,
                     atol=REF_TOL, max_step=max_step)
    up = solve_ivp(rhs, (ALPHA0, hi), [1.0, 0.0], method="DOP853", rtol=REF_TOL,
                   atol=REF_TOL, max_step=max_step)
    assert down.status == 0 and up.status == 0
    return {"g_lo": down.y[0, -1], "K_lo": down.y[1, -1],
            "g_hi": up.y[0, -1], "K_hi": up.y[1, -1]}


def xi_pin():
    """30-digit phase integral for c1 = 2 from the arc midpoint to t = 1.1."""
    import mpmath as mp
    mp.mp.dps = 40
    c1 = mp.mpf(2)
    t_ref = (mp.asin(mp.sqrt(mp.mpf(1) / 2)) + mp.asin(mp.sqrt(mp.mpf(8) / 9))) / 2

    def integrand(t):
        s2 = mp.sin(t) ** 2
        return 2 ** mp.mpf("2.5") / mp.tan(t) / mp.sqrt((8 - 9 * s2) * (-1 + c1 * s2))

    val = mp.quad(integrand, [t_ref, mp.mpf("1.1")])
    return {"c1": 2.0, "t": 1.1, "t_ref": float(t_ref),
            "xi": float(val), "xi_str": mp.nstr(val, 30)}


def amplitude_pin():
    """Exact rational/quadratic-surd value of the family amplitude at t = pi/3, c1 = 2.

    sin^2 = 3/4 there, so the radicand is 2*(8 - 27/4)*(-1 + 3/2) = 5/2 and
    the displayed quotient rationalizes to -16/21 + (5 sqrt 5 / 84) i.
    """
    import mpmath as mp
    mp.mp.dps = 40
    s2 = mp.mpf(3) / 4
    rt = mp.sqrt(2 * (8 - 9 * s2) * (-1 + 2 * s2))
    num = -4 + (9 + 8) * s2 - 18 * s2 * s2 + 1j * rt
    den = 4 * (-1 + 2 * s2) - 1j * rt
    v = num / den
    exact = mp.mpf(-16) / 21 + 1j * (5 * mp.sqrt(5) / 84)
    assert mp.fabs(v - exact) < mp.mpf(10) ** -35
    return {"c1": 2.0, "t": "pi/3",
            "re": float(exact.real), "im": float(exact.imag),
            "re_str": mp.nstr(exact.real, 30), "im_str": mp.nstr(exact.imag, 30)}


def alpha_field():
    """Coarse warped-angle field from the full pipeline, plus its rerun check."""
    params = ModelParams(rho=RHO, b=B)

    def run(tol, n_grid):
        prof = solve_profile(params, ALPHA0, A0, ALPHA_RANGE, tol=tol)
        # the inverse-warp table size is a module constant; the rerun doubles it
        with mock.patch.object(pmcsurf.profile, "_POTENTIAL_GRID", n_grid):
            pot = build_potential(prof, K0=0.0, Kprime0=1.0)
        tlo, thi = pot.t_range
        span = thi - tlo
        harm = HarmonicInput.affine_window(tlo + 0.1 * span, thi - 0.1 * span,
                                           (0.0, 1.0, 0.0, 1.0))
        grid = Grid(0.0, 1.0, 0.0, 1.0, 21, 21)
        return construct_surface(prof, pot, harm, grid).fields.alpha

    base = run(1e-10, 4001)
    check = run(1e-11, 8001)
    agree = float(np.max(np.abs(base - check)))
    assert agree <= 1e-8, f"pipeline rerun disagrees at {agree:.3e}"
    return {"rect": [0.0, 1.0, 0.0, 1.0], "grid": [21, 21],
            "window_fraction": 0.8, "tilt": 0.0, "tol": 1e-10,
            "rerun_agreement": agree,
            "values": [[float(v) for v in row] for row in base]}


def main():
    lo, hi = ALPHA_RANGE
    step = (hi - lo) / 256.0
    a_lo, a_hi = reference_profile(step)
    a_lo2, a_hi2 = reference_profile(step / 2.0)
    prof_agree = max(abs(a_lo - a_lo2), abs(a_hi - a_hi2))
    assert prof_agree < 1e-12, f"profile reference not converged: {prof_agree:.3e}"

    prof = solve_profile(ModelParams(rho=RHO, b=B), ALPHA0, A0, ALPHA_RANGE, tol=REF_TOL)
    pot = reference_potential(prof, step)
    pot2 = reference_potential(prof, step / 2.0)
    pot_agree = max(abs(pot[k] - pot2[k]) for k in pot)
    assert pot_agree < 1e-12, f"potential reference not converged: {pot_agree:.3e}"

    data = {
        "profile_endpoint": {
            "rho": RHO, "b": B, "alpha0": ALPHA0, "a0": [A0.real, A0.imag],
            "alpha_range": list(ALPHA_RANGE), "reference_tol": REF_TOL,
            "a_lo": [a_lo.real, a_lo.imag], "a_hi": [a_hi.real, a_hi.imag],
            "halfstep_agreement": float(prof_agree),
        },
        "potential_endpoint": {
            "K0": 0.0, "Kprime0": 1.0,
            **{k: float(v) for k, v in pot.items()},
            "halfstep_agreement": float(pot_agree),
        },
        "xi_pin": xi_pin(),
        "family_amplitude_pin": amplitude_pin(),
        "alpha_field": alpha_field(),
    }
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(OUT)}")
    print(f"  profile endpoints agree to {prof_agree:.3e}")
    print(f"  potential endpoints agree to {pot_agree:.3e}")
    print(f"  alpha field rerun agreement {data['alpha_field']['rerun_agreement']:.3e}")


if __name__ == "__main__":
    main()
