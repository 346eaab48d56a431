"""The numpy-only DOP853, Brent, PCHIP and Simpson ports agree with SciPy bit for bit.

SciPy is the oracle here and nowhere at run time. The reference builds
swap SciPy in behind the names profile.py calls (ScipyMarch, ScipyPchip),
so each pipeline runs once on the port and once on SciPy, with the same
right-hand sides.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.integrate import cumulative_simpson as scipy_simpson, solve_ivp  # noqa: E402
from scipy.interpolate import PchipInterpolator  # noqa: E402
from scipy.optimize import brentq as scipy_brentq  # noqa: E402

import pmcsurf.family4 as fam  # noqa: E402
from pmcsurf import profile  # noqa: E402
from pmcsurf._numerics import EPS, DenseMarch, Pchip, brentq, cumulative_simpson  # noqa: E402
from pmcsurf.errors import GuardTripped  # noqa: E402

from conftest import MODEL  # noqa: E402

BENCH_C1 = (2.0, 3.0, 2.5, -1.0)   # the four families perfbench draws from


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class ScipyMarch:
    """DenseMarch's interface over solve_ivp, as profile.TwoSidedMarch used it."""

    def __init__(self, fun, t0, y0, t_bound, tol, max_step, event=None):
        if event is not None:
            event.terminal = True
        sol = solve_ivp(fun, (t0, t_bound), y0, method="DOP853", dense_output=True,
                        rtol=tol, atol=tol, max_step=max_step, events=event)
        self.status, self.message, self.t_end = sol.status, sol.message, float(sol.t[-1])
        self._sol = sol.sol
        self.ts = sol.sol.ts    # the step ends, where OdeSolution picks a side

    def __call__(self, t):
        return self._sol(t)


class ScipyPchip:
    def __init__(self, x, y):
        with np.errstate(all="ignore"):
            self._inv = PchipInterpolator(x, y, extrapolate=False)

    def __call__(self, t):
        return self._inv(t)


@pytest.fixture
def on_scipy(monkeypatch):
    """Run a build with SciPy behind profile.py's march and inverse table."""
    def run(build):
        with monkeypatch.context() as m:
            m.setattr(profile, "DenseMarch", ScipyMarch)
            m.setattr(profile, "Pchip", ScipyPchip)
            return build()
    return run


def assert_march_matches(march, ref, lo, hi, seed=0):
    assert march.reached == ref.reached
    x = np.concatenate([np.linspace(lo, hi, 3001),
                        np.random.default_rng(seed).uniform(lo, hi, 2000)])
    assert same_bits(march(x), ref(x))
    for p in x[::97]:    # the one-point path the right-hand sides take
        assert same_bits(march(float(p)), ref(float(p)))


def assert_potential_matches(pot, ref):
    lo, hi = pot.alpha_range
    assert pot.t_range == ref.t_range
    assert_march_matches(pot._march, ref._march, lo, hi)
    t = np.linspace(*pot.t_range, 4999)
    assert same_bits(pot.psi(t), ref.psi(t))


def test_generic_profile_and_potential_match_scipy(on_scipy):
    def build():
        prof = profile.solve_profile(MODEL, 0.6, 0.3 + 0.4j, (0.4, 1.2), tol=1e-10)
        return prof, profile.build_potential(prof)
    prof, pot = build()
    ref_prof, ref_pot = on_scipy(build)
    assert_march_matches(prof._march, ref_prof._march, 0.4, 1.2)
    assert_potential_matches(pot, ref_pot)


@pytest.mark.parametrize("c1", BENCH_C1)
def test_family_potential_and_phase_marches_match_scipy(c1, on_scipy):
    # __wrapped__ skips the per-process memo, so both builds really run
    pot = fam.family_potential.__wrapped__(c1)
    assert_potential_matches(pot, on_scipy(lambda: fam.family_potential.__wrapped__(c1)))
    window = pot.alpha_range                     # what family_surface's march spans
    for lo, hi in (fam._state_arc(c1), window):  # xi_of_t's march, a surface's march
        march = fam._phase_march.__wrapped__(c1, lo, hi, 1e-10)
        ref = on_scipy(lambda: fam._phase_march.__wrapped__(c1, lo, hi, 1e-10))
        assert_march_matches(march, ref, lo, hi)


def test_mid_range_guard_trip_matches_scipy_event_roots(on_scipy):
    # |a + b| falls to the guard floor on both sides, inside alpha_range
    def achieved():
        with pytest.raises(GuardTripped) as err:
            profile.solve_profile(MODEL, 2.0, -0.7 + 0.2j, (1.7, 2.6))
        return err.value.achieved
    got = achieved()
    assert 1.7 < got[0] < 2.0 < got[1] < 2.6
    assert same_bits(np.array(got), np.array(on_scipy(achieved)))


def random_problem(rng, k):
    """y' = M sin(y) cos(w t) + t/10 in one or two dimensions; every third one has an event."""
    n = 1 + k % 2
    M, w = rng.normal(size=(n, n)), rng.uniform(0.5, 3.0)

    def rhs(t, y):
        return list(M @ np.sin(y) * np.cos(w * t) + 0.1 * t)
    y0 = rng.normal(size=n)
    t0 = float(rng.uniform(-1.0, 1.0))
    t1 = t0 + (-1.0) ** (k // 4) * float(rng.uniform(0.1, 3.0))
    max_step = np.inf if k % 4 < 2 else abs(t1 - t0) / float(rng.uniform(2.0, 300.0))
    event = None
    if k % 3 == 0:
        level = y0[0] + 0.5 * rng.normal()

        def event(t, y):
            return y[0] - level
    return rhs, t0, y0, t1, float(10.0 ** rng.uniform(-13.0, -6.0)), max_step, event


def test_random_marches_match_scipy():
    rng = np.random.default_rng(20260412)
    outcomes = []
    for k in range(120):
        rhs, t0, y0, t1, tol, max_step, event = random_problem(rng, k)
        march = DenseMarch(rhs, t0, y0, t1, tol, max_step, event)
        ref = ScipyMarch(rhs, t0, y0, t1, tol, max_step, event)
        assert (march.status, march.t_end) == (ref.status, ref.t_end), k
        lo, hi = sorted((t0, march.t_end))
        x = np.concatenate([rng.uniform(lo, hi, 300), np.linspace(lo, hi, 41), ref.ts])
        assert same_bits(march(x), ref(x)), k
        assert all(same_bits(march(p), ref(p)) for p in x[::10]), k
        outcomes.append((march.status, t1 > t0, max_step < np.inf))
    assert {s for s, _, _ in outcomes} == {0, 1}        # some events fire, some do not
    assert {(up, capped) for _, up, capped in outcomes} == {(u, c) for u in (0, 1) for c in (0, 1)}


def probe_points(ends, lo, hi):
    """Every step end and its two neighbouring floats, points beyond the span, inf and NaN."""
    ends = np.asarray(ends, dtype=float)
    return np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
                           [lo - 1.0, hi + 1.0, -np.inf, np.inf, np.nan, -np.nan]])


def test_one_point_calls_match_scipy_at_every_step_end():
    # the float path picks a step by bisect, OdeSolution by searchsorted; they
    # must agree on the side of every breakpoint, beyond the ends and on NaN
    rng = np.random.default_rng(20260412)
    directions = set()
    for k in range(48):
        rhs, t0, y0, t1, tol, max_step, event = random_problem(rng, k)
        march = DenseMarch(rhs, t0, y0, t1, tol, max_step, event)
        ref = ScipyMarch(rhs, t0, y0, t1, tol, max_step, event)
        lo, hi = sorted((t0, march.t_end))
        with np.errstate(all="ignore"):
            for p in probe_points(ref.ts, lo, hi).tolist():
                # adjacent steps meet at a step end, mostly in every bit, so
                # the step index shows a wrong side where the values cannot
                assert march._step_of(p) == march._steps_of(np.array(p)), (k, p)
                got = march(p)
                assert isinstance(got, list) and all(type(v) is float for v in got)
                assert same_bits(got, ref(p)), (k, p)
        directions.add(t1 > t0)
    assert directions == {True, False}


def every_two_sided_march():
    prof = profile.solve_profile(MODEL, 0.6, 0.3 + 0.4j, (0.4, 1.2), tol=1e-10)
    yield "profile", prof._march
    yield "potential", profile.build_potential(prof)._march
    for c1 in BENCH_C1:
        pot = fam.family_potential.__wrapped__(c1)
        yield f"family potential {c1}", pot._march
        for lo, hi in (fam._state_arc(c1), pot.alpha_range):
            yield f"phase {c1} [{lo}, {hi}]", fam._phase_march.__wrapped__(c1, lo, hi, 1e-10)


def test_one_point_and_array_calls_agree_on_both_sides_of_every_march():
    for name, march in every_two_sided_march():
        sides = [side for side in march._sides if side is not None]
        ends = np.concatenate([side._inner for side in sides] + [[march.anchor]])
        x = probe_points(ends, *march.reached)
        with np.errstate(all="ignore"):
            rows = march(x)
            for i, p in enumerate(x.tolist()):
                got = march(p)
                assert same_bits(got, rows[:, i]), (name, p)
                assert same_bits(got, march(np.array([p]))[:, 0]), (name, p)
        below = x <= march.anchor
        assert below.any() and (~below).any(), name


@pytest.mark.parametrize("rhs", [lambda t, y: [y[0] * y[0]], lambda t, y: [1e300 * y[0] ** 3]],
                         ids=["blow-up-at-1", "overflow-at-once"])
def test_failed_march_reports_what_scipy_reports(rhs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        march = DenseMarch(rhs, 0.0, [1.0], 2.0, 1e-10, np.inf)
        ref = solve_ivp(rhs, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-10, atol=1e-10)
    assert ref.status == -1
    assert (march.status, march.message, march.t_end) == (ref.status, ref.message, ref.t[-1])


def test_brent_matches_scipy():
    rng = np.random.default_rng(7)
    for k in range(300):
        c, r = rng.normal(size=3), float(rng.uniform(-1.0, 1.0))

        def f(x):
            return (x - r) * (1.0 + c[0] * x * x) + c[1] * np.sin(3.0 * x) * (x - r) \
                + c[2] * (x - r) ** 3
        a, b = r - float(rng.uniform(0.01, 2.0)), r + float(rng.uniform(0.01, 2.0))
        try:
            want = scipy_brentq(f, a, b, xtol=4 * EPS, rtol=4 * EPS)
        except ValueError:
            with pytest.raises(ValueError):
                brentq(f, a, b)
            continue
        assert same_bits(np.float64(brentq(f, a, b)), np.float64(want)), k


def test_pchip_matches_scipy_at_knots_between_and_at_the_ends():
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.uniform(1e-3, 1.0, 4001))
    y = np.cumsum(rng.normal(size=4001))     # sign changes in the slopes
    y[100:110] = y[100]                      # and a flat run
    got, want = Pchip(x, y), PchipInterpolator(x, y)
    mids = 0.5 * (x[1:] + x[:-1])
    t = np.concatenate([x, mids, rng.uniform(x[0], x[-1], 20000),
                        [x[0], x[-1], np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf),
                         x[0] - 1.0, x[-1] + 1.0, np.nan]])
    assert same_bits(got.c, want.c)
    assert same_bits(got(t), want(t))


@pytest.mark.parametrize("x,y", [
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]),         # repeated knot
    ([0.0, 1.0, np.nan, 3.0], [0.0, 1.0, 2.0, 3.0]),      # non-finite knot
    ([0.0, 1e-300, 2e-300, 3e-300], [0.0, 1e300, 0.0, 1e300]),   # slopes overflow
], ids=["repeated-knot", "nan-knot", "slope-overflow"])
def test_pchip_rejects_what_scipy_rejects(x, y):
    with pytest.raises(ValueError), np.errstate(all="ignore"):
        PchipInterpolator(x, y, extrapolate=False)
    with pytest.raises(ValueError):
        Pchip(x, y)


@pytest.mark.parametrize("shape,axis", [((449,), 0), ((449, 449), 0), ((449, 449), 1),
                                        ((6, 5), 0), ((5, 6), 1), ((3,), 0)])
def test_cumulative_simpson_matches_scipy(shape, axis):
    rng = np.random.default_rng(11)
    y = rng.normal(size=shape)
    y.flat[::17] = -0.0
    y.flat[3::101] = np.nan
    y.flat[::53] = -y.flat[::53] * 0.0    # -0.0 next to +0.0 pieces
    np.moveaxis(y, axis, -1)[..., :3] = [-0.0, -0.0, 0.0]   # a first piece of -0.0
    dx = 0.0123
    assert same_bits(cumulative_simpson(y, dx, axis=axis),
                     scipy_simpson(y, dx=dx, initial=0.0, axis=axis))
