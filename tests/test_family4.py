"""Explicit two-parameter family: closed forms, arc admissibility, phase line."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import pmcsurf.family4 as fam
from pmcsurf import profile
from pmcsurf.coeffs import ModelParams
from pmcsurf.errors import ConfigError, InadmissibleC1, OutOfInterval, RangeMismatch, StepFailure
from pmcsurf.fields import Grid, SurfaceFields

from conftest import build_family, family_harmonic, richardson_fd


def test_admissible_arc_pins():
    lo, hi = fam.valid_interval(2.0)
    assert lo == pytest.approx(np.arcsin(np.sqrt(0.5)), abs=1e-15)
    assert hi == pytest.approx(np.arcsin(np.sqrt(8.0 / 9.0)), abs=1e-15)
    lo, hi = fam.valid_interval(-1.0)
    assert lo == pytest.approx(np.arcsin(np.sqrt(8.0 / 9.0)), abs=1e-15)
    assert hi == pytest.approx(np.pi / 2.0, abs=1e-15)


@pytest.mark.parametrize("c1", [0.0, 0.5, 1.0, 9.0 / 8.0, np.inf, -np.inf, np.nan])
def test_shape_parameter_gap_is_rejected(c1):
    with pytest.raises(InadmissibleC1):
        fam.valid_interval(c1)
    with pytest.raises(InadmissibleC1):
        fam.FamilyParams(c1=c1)


def test_phase_offset_must_be_finite():
    with pytest.raises(ConfigError):
        fam.FamilyParams(c1=2.0, c2=np.inf)


def test_amplitude_pin_at_pi_thirds(golden):
    ref = golden["family_amplitude_pin"]
    a = complex(fam.family_amplitude(np.pi / 3.0, 2.0))
    assert a.real == pytest.approx(ref["re"], rel=1e-12)
    assert a.imag == pytest.approx(ref["im"], rel=1e-12)
    # the exact surds behind the frozen digits
    assert a.real == pytest.approx(-16.0 / 21.0, rel=1e-12)
    assert a.imag == pytest.approx(5.0 * np.sqrt(5.0) / 84.0, rel=1e-12)


def test_modulus_identity_along_the_arc():
    lo, hi = fam.valid_interval(2.0)
    t = np.linspace(lo + 0.02, hi - 0.02, 100)
    a = fam.family_amplitude(t, 2.0)
    s2 = np.sin(t) ** 2
    cmag = fam._prefactor(2.0) * np.abs(8.0 - 9.0 * s2)
    res = cmag ** 2 - np.abs(a) ** 2 - (3.0 - 4.5 * s2)
    assert float(np.max(np.abs(res))) <= 1e-10


def test_amplitude_solves_the_profile_ode():
    lo, hi = fam.valid_interval(2.0)
    t = np.linspace(lo + 0.02, hi - 0.02, 200)
    assert float(np.max(np.abs(fam.family_ode_residual(t, 2.0)))) <= 1e-8


def test_amplitude_derivative_matches_differencing():
    t = np.linspace(0.85, 1.15, 50)
    fd = richardson_fd(lambda h: fam.family_amplitude(t + h, 2.0), 0.0)
    got = fam.family_amplitude_derivative(t, 2.0)
    assert float(np.max(np.abs(got - fd))) <= 1e-8


def test_phase_integral_pin(golden):
    ref = golden["xi_pin"]
    xi = fam.xi_of_t(ref["t"], fam.FamilyParams(c1=ref["c1"]))
    assert xi == pytest.approx(ref["xi"], abs=1e-9)


def test_phase_integral_anchor_and_offset():
    p0 = fam.FamilyParams(c1=2.0)
    tref = fam._t_ref(2.0)
    assert fam.xi_of_t(tref, p0) == pytest.approx(0.0, abs=1e-12)
    p1 = fam.FamilyParams(c1=2.0, c2=1.3)
    assert fam.xi_of_t(1.1, p1) - fam.xi_of_t(1.1, p0) == pytest.approx(1.3)


def test_phase_integral_memoization():
    # xi_of_t reads the phase march memo that family_surface uses
    p = fam.FamilyParams(c1=2.0)
    first = fam.xi_of_t(1.05, p)
    hits = fam._phase_march.cache_info().hits
    assert fam.xi_of_t(1.05, p) == first
    assert fam._phase_march.cache_info().hits == hits + 1


def test_point_reads_share_one_arc_wide_march():
    # any number of distinct t build one march over the state arc, and leave
    # the surface's own march in the memo
    params = fam.FamilyParams(c1=3.0)
    fam._phase_march.cache_clear()
    build_family(17, c1=3.0)
    before = fam._phase_march.cache_info().currsize
    lo, hi = fam._state_arc(3.0)
    for t in np.linspace(lo, hi, 50):
        fam.xi_of_t(float(t), params)
    info = fam._phase_march.cache_info()
    assert info.currsize <= before + 1
    build_family(17, c1=3.0)
    assert fam._phase_march.cache_info().hits > info.hits


def test_arc_guard():
    p = fam.FamilyParams(c1=2.0)
    lo, hi = fam.valid_interval(2.0)
    with pytest.raises(OutOfInterval):
        fam.xi_of_t(lo, p)                     # endpoint itself is excluded
    with pytest.raises(OutOfInterval):
        fam.family_state(hi + 0.01, p)
    # negative shape parameter keeps the regular right endpoint
    state = fam.family_state(np.pi / 2.0, fam.FamilyParams(c1=-1.0))
    assert np.isfinite(state[2])


def test_state_assembles_modulus_and_phase():
    p = fam.FamilyParams(c1=2.0, c2=0.4)
    a, xi, c = fam.family_state(1.0, p)
    s2 = np.sin(1.0) ** 2
    assert abs(c) == pytest.approx(fam._prefactor(2.0) * abs(8.0 - 9.0 * s2), rel=1e-12)
    assert np.angle(c) == pytest.approx(xi)
    assert a == pytest.approx(complex(fam.family_amplitude(1.0, 2.0)))


@pytest.mark.parametrize("c1", [2.0, -1.0])
def test_point_api_matches_the_surface_path(c1):
    params = fam.FamilyParams(c1=c1, c2=0.7)
    f = build_family(33, c1=c1, c2=params.c2).fields
    for i, j in [(0, 0), (0, 32), (16, 16), (32, 0), (32, 32), (5, 27)]:
        t = float(f.alpha[i, j])
        # nu excludes c2, so the phase integral is read with c2 = 0
        xi = fam.xi_of_t(t, fam.FamilyParams(c1=c1))
        assert xi == pytest.approx(f.nu[i, j], rel=0, abs=1e-12)
        assert fam.family_state(t, params)[2] == pytest.approx(f.c[i, j], rel=0, abs=1e-12)


def test_surface_fixes_the_model_constants():
    f = build_family(17).fields
    assert f.params == ModelParams(rho=-3.0, b=1.0)


def test_associated_family_is_isometric():
    base = build_family(33, c2=0.0).fields
    moved = build_family(33, c2=0.9).fields
    for name in ("alpha", "K_formula", "K_metric", "nu"):
        assert np.array_equal(getattr(base, name), getattr(moved, name),
                              equal_nan=True), name
    for name in ("a", "lam"):
        assert np.array_equal(getattr(base, name), getattr(moved, name)), name
    assert np.array_equal(base.mask, moved.mask)
    np.testing.assert_allclose(moved.c, base.c * np.exp(0.9j), rtol=1e-13)
    np.testing.assert_allclose(np.abs(moved.c), np.abs(base.c), rtol=1e-14)


def test_general_type_witness_on_the_family():
    f = build_family(17).fields
    w = fam.general_type_witness(f)
    assert w["max_abs_im_a"] > 0.01
    assert w["min_abs_c"] > 0.01


def test_surface_window_must_fit_the_warp():
    from pmcsurf.fields import HarmonicInput
    tlo, thi = fam.family_potential(2.0).t_range
    harm = HarmonicInput.affine_window(tlo - 0.1, thi, (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(RangeMismatch):
        fam.family_surface(harm, Grid(0.0, 1.0, 0.0, 1.0, 9, 9),
                           fam.FamilyParams(c1=2.0))


# ---- per-process memo of the warp potential and the phase march ----

MEMOS = (fam.family_potential, fam._phase_march)


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def test_a_resolution_pair_builds_each_march_once(monkeypatch):
    built = []
    init = profile.TwoSidedMarch.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("what", "integrator"))
        init(self, *args, **kwargs)

    _clear_memos()
    monkeypatch.setattr(profile.TwoSidedMarch, "__init__", counted)
    build_family(21)
    build_family(41)
    assert sorted(built) == ["phase integral ODE", "potential integration"]


@pytest.mark.parametrize("c1", [2.0, -1.0])
def test_memoised_builds_keep_every_bit(c1):
    cold = {}
    for n in (21, 41):
        _clear_memos()
        cold[n] = build_family(n, c1=c1).fields
    for n in (21, 41):   # both memos now hit: the pair shares its alpha extremes
        warm = build_family(n, c1=c1).fields
        for field in dataclasses.fields(SurfaceFields):
            value = getattr(warm, field.name)
            if isinstance(value, np.ndarray):
                assert value.tobytes() == getattr(cold[n], field.name).tobytes(), field.name
    assert fam.family_potential.cache_info().hits >= 2
    assert fam._phase_march.cache_info().hits >= 2


def test_memos_are_bounded():
    for memo in MEMOS:
        assert memo.cache_info().maxsize == fam._MEMO_SIZE


def test_memoised_potential_rejects_assignment():
    pot = fam.family_potential(2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pot.t_range = (0.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pot._inv = None
    assert fam.family_potential(2.0) is pot


def test_failed_potential_build_is_not_memoised(monkeypatch):
    _clear_memos()

    def fail(*args, **kwargs):
        raise StepFailure("potential integration failed")

    with monkeypatch.context() as patch:
        patch.setattr(fam, "potential_from", fail)
        with pytest.raises(StepFailure):
            fam.family_potential(3.0)
    assert fam.family_potential.cache_info().currsize == 0
    assert np.isfinite(fam.family_potential(3.0).t_range).all()
