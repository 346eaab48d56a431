"""Amplitude ODE and warp potential."""
from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from pmcsurf import _numerics
from pmcsurf._numerics import DenseMarch
from pmcsurf.coeffs import ModelParams
from pmcsurf.errors import ConfigError, GuardTripped, StepFailure
from pmcsurf.family4 import FAMILY_MODEL, family_amplitude, family_potential
from pmcsurf.profile import (MIN_TOL, F_eval, Potential, TwoSidedMarch, build_potential,
                             potential_from, solve_profile)

from conftest import MODEL, richardson_fd


def test_endpoints_match_the_frozen_reference(golden, generic_profile):
    ref = golden["profile_endpoint"]
    prof, _ = generic_profile
    lo, hi = ref["alpha_range"]
    assert prof.a(lo) == pytest.approx(complex(*ref["a_lo"]), abs=1e-8)
    assert prof.a(hi) == pytest.approx(complex(*ref["a_hi"]), abs=1e-8)
    assert ref["halfstep_agreement"] < 1e-12


def test_initial_condition_reproduced(generic_profile):
    prof, _ = generic_profile
    assert prof.a(0.6) == pytest.approx(0.3 + 0.4j, abs=1e-12)


def test_real_axis_is_invariant():
    with pytest.warns(UserWarning, match="real initial amplitude"):
        prof = solve_profile(MODEL, 0.6, 0.5 + 0.0j, (0.4, 1.2), tol=1e-10)
    al = np.linspace(0.4, 1.2, 500)
    assert float(np.max(np.abs(prof.a(al).imag))) <= 1e-9


def test_solution_is_queryable_only_inside_its_range(generic_profile):
    prof, _ = generic_profile
    with pytest.raises(ValueError):
        prof.a(0.39)
    with pytest.raises(ValueError):
        prof.a(np.array([0.5, 1.21]))


def test_config_validation():
    with pytest.raises(ConfigError):
        solve_profile(MODEL, 0.3, 0.3 + 0.4j, (0.4, 1.2))      # alpha0 outside
    with pytest.raises(ConfigError):
        solve_profile(MODEL, 0.6, 0.3 + 0.4j, (1.2, 0.4))      # reversed
    with pytest.raises(ConfigError):
        solve_profile(MODEL, 0.6, 0.3 + 0.4j, (-0.1, 1.2))     # leaves (0, pi)


def test_guard_floor_trips_immediately_with_achieved_interval():
    with pytest.raises(GuardTripped) as err:
        solve_profile(MODEL, 0.6, -1.0 + 0.0005j, (0.4, 1.2))
    assert err.value.achieved == (0.6, 0.6)


def test_cascade_singularity_is_recorded_not_fatal(generic_profile):
    prof, _ = generic_profile
    star = float(np.arcsin(np.sqrt(2.0 / 3.0)))
    assert prof.singular_alphas == pytest.approx([star])
    # the profile itself integrates straight through it
    assert np.isfinite(prof.a(star)).all()


def test_warp_coefficient_is_real_and_vanishes_at_the_right_angle(generic_profile):
    prof, _ = generic_profile
    assert abs(F_eval(np.pi / 2.0, 0.3 + 0.2j, params=MODEL)) <= 1e-15
    al = np.linspace(0.4, 1.2, 100)
    assert np.isreal(prof.F(al)).all()


def test_warp_coefficient_rejects_nonreal_output():
    # formally independent abar off the conjugate locus makes F complex
    with pytest.raises(ArithmeticError):
        F_eval(0.7, 0.5 + 0.2j, 0.1 - 0.8j, params=MODEL)


def test_potential_endpoints_match_the_frozen_reference(golden, generic_profile):
    ref = golden["potential_endpoint"]
    _, pot = generic_profile
    assert pot.K(0.4) == pytest.approx(ref["K_lo"], abs=1e-9)
    assert pot.K(1.2) == pytest.approx(ref["K_hi"], abs=1e-9)
    assert pot.g(0.4) == pytest.approx(ref["g_lo"], abs=1e-9)
    assert pot.g(1.2) == pytest.approx(ref["g_hi"], abs=1e-9)


def test_potential_is_strictly_monotone(generic_profile):
    _, pot = generic_profile
    al = np.linspace(0.4, 1.2, 2000)
    assert np.all(np.diff(pot.K(al)) > 0)
    assert np.all(pot.g(al) > 0)


def test_warp_inverse_round_trip(generic_profile):
    _, pot = generic_profile
    tlo, thi = pot.t_range
    t = np.linspace(tlo, thi, 1000)
    assert float(np.max(np.abs(pot.K(pot.psi(t)) - t))) <= 1e-8


def test_warp_inverse_rejects_out_of_range_input(generic_profile):
    _, pot = generic_profile
    tlo, thi = pot.t_range
    with pytest.raises(ValueError):
        pot.psi(thi + 1e-3)


def test_warp_equation_residual_along_the_inverse(generic_profile):
    # psi'' = F(psi) psi'^2, checked with central differences on the inverse
    prof, pot = generic_profile
    tlo, thi = pot.t_range
    t = np.linspace(tlo + 0.05 * (thi - tlo), thi - 0.05 * (thi - tlo), 200)
    h = 1e-4
    p0, pp, pm = pot.psi(t), pot.psi(t + h), pot.psi(t - h)
    d1 = (pp - pm) / (2.0 * h)
    d2 = (pp - 2.0 * p0 + pm) / (h * h)
    res = d2 - prof.F(p0) * d1 * d1
    assert float(np.max(np.abs(res))) <= 1e-6


def test_normalization_freedom_is_affine(generic_profile):
    # changing (K0, Kprime0) rescales and shifts the potential, nothing else
    prof, base = generic_profile
    other = build_potential(prof, K0=2.0, Kprime0=-0.5)
    al = np.linspace(0.4, 1.2, 400)
    np.testing.assert_allclose(other.K(al), 2.0 - 0.5 * base.K(al), atol=1e-8)
    np.testing.assert_allclose(other.g(al), -0.5 * base.g(al), atol=1e-8)
    # the reversed orientation still inverts cleanly
    np.testing.assert_allclose(other.psi(other.K(al)), al, atol=1e-8)


def test_flat_warp_gives_a_linear_potential():
    class _NoWarp:
        alpha_range = (0.4, 1.2)
        alpha0 = 0.6

        def F(self, alpha):
            return np.zeros_like(np.asarray(alpha, dtype=float))

    pot = build_potential(_NoWarp(), K0=1.0, Kprime0=2.0)
    al = np.linspace(0.4, 1.2, 50)
    np.testing.assert_allclose(pot.K(al), 1.0 + 2.0 * (al - 0.6), atol=1e-12)


def test_degenerate_normalization_rejected(generic_profile):
    prof, _ = generic_profile
    with pytest.raises(ConfigError):
        build_potential(prof, Kprime0=0.0)


def test_profile_ode_residual_by_differencing(generic_profile):
    # dense output must satisfy the equation it integrated, not just look smooth
    prof, _ = generic_profile
    al = np.linspace(0.45, 1.15, 60)
    lhs = richardson_fd(lambda h: prof.a(al + h), 0.0)
    a = prof.a(al)
    cot = np.cos(al) / np.sin(al)
    t2 = 2.0 * a * (np.conj(a) - 1.0) * cot - 4.5 * np.sin(al) * np.cos(al)
    rhs = t2 / (np.conj(a) + 1.0)
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-6


@pytest.mark.parametrize("anchor", [0.0, 1.0])
def test_march_from_an_anchor_at_one_end_of_the_range(anchor):
    # y' = y with y(anchor) = 1; only the side toward the far end has extent
    march = TwoSidedMarch(lambda x, y: y, anchor, (0.0, 1.0), [1.0], 1e-12)
    assert march.reached == (0.0, 1.0)
    x = np.linspace(0.0, 1.0, 41).reshape(1, 41)
    y = march(x)
    assert y.shape == (1, 1, 41)
    np.testing.assert_allclose(y[0], np.exp(x - anchor), rtol=1e-10)
    # the side without extent holds the initial state
    beyond = -0.5 if anchor == 0.0 else 1.5
    assert march(beyond)[0] == 1.0


@pytest.mark.parametrize("tol", [MIN_TOL / 2, 5e-324, 0.0, float("nan")])
def test_march_rejects_a_tolerance_below_the_solver_floor(tol):
    with pytest.raises(ConfigError, match="floor"):
        TwoSidedMarch(lambda x, y: y, 0.0, (0.0, 1.0), [1.0], tol)


def test_march_at_the_solver_floor_runs_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        march = TwoSidedMarch(lambda x, y: y, 0.0, (0.0, 1.0), [1.0], MIN_TOL)
    np.testing.assert_allclose(march(1.0)[0], np.e, rtol=1e-12)


def test_a_march_within_its_step_budget_is_unchanged_and_one_over_it_stops(monkeypatch):
    def march():   # y' = cos t over [0, 20], at least 400 steps
        return DenseMarch(lambda t, y: [np.cos(t)], 0.0, [0.0], 20.0, 1e-10, 0.05)

    full = march()
    n = len(full._records) // full._stride
    assert full.status == 0 and n >= 400
    monkeypatch.setattr(_numerics, "MAX_STEPS", n)   # just enough: the same march
    same = march()
    assert (same.status, same.t_end) == (0, 20.0)
    assert same._records.tobytes() == full._records.tobytes()
    monkeypatch.setattr(_numerics, "MAX_STEPS", n - 1)
    short = march()
    assert short.status == -1 and 0.0 < short.t_end < 20.0
    assert short.message == f"spent its budget of {n - 1} steps at {short.t_end!r}"
    monkeypatch.setattr(_numerics, "MAX_STEPS", 10)
    with pytest.raises(StepFailure, match="failed toward 20.0: spent its budget of 10 steps at"):
        TwoSidedMarch(lambda t, y: [np.cos(t)], 0.0, (0.0, 20.0), [0.0], 1e-10)


def _bits(values) -> bytes:
    return np.ascontiguousarray(values).tobytes()


def test_march_scalar_path_matches_the_array_path_bitwise(generic_profile):
    # the ODE right-hand sides evaluate one point per stage on the scalar path
    prof, pot = generic_profile
    for march in (prof._march, pot._march):
        for x in np.linspace(0.35, 1.25, 701).tolist() + [0.6]:
            assert _bits(march(x)) == _bits(march(np.array([x]))[:, 0]), x


# sha256 of the warp coefficient evaluated one float at a time at 701 points,
# the values the potential ODE consumes. numpy's complex product on arrays
# differs from its scalar product in the last bits, so a length-1 array is no
# oracle for these bits.
F_SCALAR_SHA256 = {
    "generic": "f6353e90f16773295aa935d5b0e9bc5a52f10589661fcdf4cb66132b84f26d64",
    2.0: "e6d0e4d12cecba9e6f382c89605f90c3d74fa1481f49dba1c5c919df8242f3ef",
    -1.0: "d4acf732967fdd07860430ad198f3676d5b4f80d2c246e5b48b19641732c678b",
}


def test_warp_coefficient_scalar_path_keeps_its_bits(generic_profile):
    prof, _ = generic_profile
    values = {"generic": [prof.F(x) for x in np.linspace(0.4, 1.2, 701).tolist()]}
    for c1 in (2.0, -1.0):
        lo, hi = family_potential(c1).alpha_range
        values[c1] = [F_eval(t, family_amplitude(t, c1), params=FAMILY_MODEL)
                      for t in np.linspace(lo, hi, 701).tolist()]
    for key, vals in values.items():
        digest = hashlib.sha256(_bits(np.array(vals, dtype=np.float64))).hexdigest()
        assert digest == F_SCALAR_SHA256[key], key


@pytest.mark.parametrize("K0,Kprime0,span", [
    (1e308, 1.0, (0.4, 1.2)),                     # K + increment rounds back to K
    (0.0, 1e-308, (0.4, 1.2)),                    # increments subnormal, slopes overflow
    (0.0, 1.0, (0.6, 0.6000000000000001)),        # one ulp of range, repeated knots
])
def test_potential_that_cannot_be_inverted_raises_step_failure(K0, Kprime0, span):
    with pytest.raises(StepFailure, match="cannot be inverted"):
        potential_from(lambda alpha: 0.0, 0.6, span, K0, Kprime0)
