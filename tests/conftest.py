"""Shared fixtures and oracle helpers for the suite.

Expensive surface builds are session-scoped; everything else is cheap enough
to rebuild per test. Frozen reference numbers live in tests/data/ and are
regenerated only by scripts/make_golden.py.
"""
from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import settings

from pmcsurf.coeffs import EvalPoint, ModelParams
from pmcsurf.construct import construct_surface
from pmcsurf.family4 import FamilyParams, default_window, family_amplitude, family_surface
from pmcsurf.fields import Grid, HarmonicInput
from pmcsurf.profile import build_potential, solve_profile

settings.register_profile("suite", deadline=None, max_examples=50, derandomize=True)
settings.load_profile("suite")

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

MODEL = ModelParams(rho=-3.0, b=1.0)

# the generic reference run: everything downstream of the warp is untilted
# Re z scaled onto the middle 80% of the potential range
GENERIC_CONFIG = {
    "params": {"rho": -3.0, "b": 1.0},
    "profile": {"alpha0": 0.6, "a0_re": 0.3, "a0_im": 0.4,
                "alpha_min": 0.4, "alpha_max": 1.2, "tol": 1e-10},
    "harmonic": {"coeffs": [[-0.07528356245183787, 0.0],
                            [0.9346381185283102, 0.0]]},
    "grid": {"x0": 0.0, "x1": 1.0, "y0": 0.0, "y1": 1.0, "nx": 21, "ny": 21},
}


def generic_config(nx: int = 21, ny: int | None = None, **sections) -> dict:
    cfg = json.loads(json.dumps(GENERIC_CONFIG))
    cfg["grid"]["nx"] = nx
    cfg["grid"]["ny"] = ny if ny is not None else nx
    for key, val in sections.items():
        cfg[key] = val
    return cfg


@pytest.fixture(scope="session")
def golden() -> dict:
    with open(os.path.join(DATA_DIR, "golden_profile.json")) as fh:
        return json.load(fh)


def random_points(n: int, seed: int = 0, params: ModelParams = MODEL,
                  conjugate_pair: bool = True) -> EvalPoint:
    """Random cascade-evaluable points, comfortably clear of every guard."""
    rng = np.random.default_rng(seed)
    alpha = np.empty(0)
    a = np.empty(0, dtype=np.complex128)
    while alpha.size < n:
        al = rng.uniform(0.2, np.pi - 0.2, size=2 * n)
        re = rng.uniform(-2.0, 2.0, size=2 * n)
        im = rng.uniform(-2.0, 2.0, size=2 * n)
        cand = re + 1j * im
        s2 = np.sin(al) ** 2
        ok = (np.abs(3.0 * s2 - 2.0) > 5e-3) & (np.abs(cand + params.b) > 0.05) \
            & (np.abs(np.conj(cand) + params.b) > 0.05)
        alpha = np.concatenate([alpha, al[ok]])
        a = np.concatenate([a, cand[ok]])
    alpha, a = alpha[:n], a[:n]
    if conjugate_pair:
        return EvalPoint(alpha, a, params=params)
    abar = a + rng.uniform(-0.3, 0.3, size=n) + 1j * rng.uniform(-0.3, 0.3, size=n)
    return EvalPoint(alpha, a, abar, params=params)


def richardson_fd(f, x0: float, h: float = 1e-4):
    """Central difference with one Richardson level; f maps a real step to values."""
    d1 = (f(x0 + h) - f(x0 - h)) / (2.0 * h)
    d2 = (f(x0 + h / 2.0) - f(x0 - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def family_harmonic(c1: float = 2.0, tilt: float = 0.5) -> HarmonicInput:
    return HarmonicInput.affine_window(*default_window(c1), (0.0, 1.0, 0.0, 1.0), tilt=tilt)


def build_family(n: int, c1: float = 2.0, c2: float = 0.0, tilt: float = 0.5,
                 ny: int | None = None):
    grid = Grid(0.0, 1.0, 0.0, 1.0, n, n if ny is None else ny)
    return family_surface(family_harmonic(c1, tilt), grid, FamilyParams(c1=c1, c2=c2))


@pytest.fixture(scope="session")
def family_pair():
    """Explicit-family surface at 33 and 65 nodes per side (tilted input)."""
    return build_family(33).fields, build_family(65).fields


@pytest.fixture(scope="session")
def generic_profile():
    prof = solve_profile(MODEL, 0.6, 0.3 + 0.4j, (0.4, 1.2), tol=1e-10)
    return prof, build_potential(prof)


def generic_harmonic(pot, tilt: float = 0.0, window_frac: float = 0.8) -> HarmonicInput:
    """Affine input over the unit square onto the middle window_frac of the potential range."""
    tlo, thi = pot.t_range
    margin = 0.5 * (1.0 - window_frac) * (thi - tlo)
    return HarmonicInput.affine_window(tlo + margin, thi - margin,
                                       (0.0, 1.0, 0.0, 1.0), tilt=tilt)


def build_generic(n: int, generic_profile, tilt: float = 0.0, nu0: float = 0.0,
                  window_frac: float = 0.8):
    """Generic-pipeline surface; off the invariant amplitude locus on purpose."""
    prof, pot = generic_profile
    grid = Grid(0.0, 1.0, 0.0, 1.0, n, n)
    return construct_surface(prof, pot, generic_harmonic(pot, tilt, window_frac), grid, nu0=nu0)


@pytest.fixture(scope="session")
def locus_pipeline():
    """Generic pipeline started ON the explicit-family amplitude curve.

    Along this initial data the phase one-form is closed, so the full
    construct route (warp, two-path integration, amplitude reconstruction)
    runs guard-clean and every structure equation should hold.
    """
    alpha0 = 0.875
    a0 = complex(family_amplitude(alpha0, 2.0))
    prof = solve_profile(MODEL, alpha0, a0, (0.80, 0.95), tol=1e-11)
    pot = build_potential(prof)
    tlo, thi = pot.t_range
    margin = 0.1 * (thi - tlo)
    harm = HarmonicInput.affine_window(tlo + margin, thi - margin,
                                       (0.0, 1.0, 0.0, 1.0), tilt=0.5)

    def build(n: int, nu0: float = 0.0):
        return construct_surface(prof, pot, harm, Grid(0.0, 1.0, 0.0, 1.0, n, n), nu0=nu0)

    return build


@pytest.fixture(scope="session")
def locus_pair(locus_pipeline):
    return locus_pipeline(33).fields, locus_pipeline(65).fields
