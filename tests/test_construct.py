"""Field assembly: warp, frame factor, phase integration, masks, curvature."""
from __future__ import annotations

import numpy as np
import pytest

from pmcsurf.coeffs import phase_D
from pmcsurf.construct import (GAUSS_STEP, cascade_mask, gauss_curvature, integrate_nu,
                               omega_W, surface_columns)
from pmcsurf.errors import ConfigError, RangeMismatch
from pmcsurf.fields import (MAX_SIDE, Grid, HarmonicInput, MASK_DOMAIN, MASK_NUPATH,
                            MASK_SINGULAR, read_fields, write_fields, write_meta)
from pmcsurf.verify import dz, dzbar

from conftest import MODEL, build_generic, generic_harmonic


@pytest.mark.parametrize("side", [4, MAX_SIDE + 1, int("9" * 400), 9.0, "9", None])
def test_grid_sides_are_bounded_integers(side):
    with pytest.raises(ConfigError):
        Grid(0.0, 1.0, 0.0, 1.0, 9, side)
    with pytest.raises(ConfigError):
        Grid(0.0, 1.0, 0.0, 1.0, side, 9)


def test_grid_sides_up_to_the_cap_are_legal():
    for side in (5, 641, MAX_SIDE, np.int64(9)):
        assert Grid(0.0, 1.0, 0.0, 1.0, side, side).nx == side


def test_locus_construction_is_guard_clean(locus_pipeline):
    res = locus_pipeline(33)
    assert res.guard_events == []
    f = res.fields
    assert int(np.count_nonzero(f.mask)) == 0
    for col in (f.alpha, f.a, f.lam, f.nu, f.c):
        assert np.isfinite(col).all()


def test_two_path_integration_agrees_and_tightens(locus_pipeline):
    info33 = locus_pipeline(33).nu_info
    info65 = locus_pipeline(65).nu_info
    assert info33["max_path_mismatch"] <= info33["path_tolerance"]
    assert info65["max_path_mismatch"] <= info65["path_tolerance"]
    assert info33["nodes_violating"] == 0
    # the discrepancy is a stencil artifact, so refinement shrinks it
    assert info65["max_path_mismatch"] <= 0.5 * info33["max_path_mismatch"]


def test_amplitude_modulus_identity_holds_nodewise(locus_pipeline):
    f = locus_pipeline(33).fields
    E = 0.5 * MODEL.rho * (3.0 * np.sin(f.alpha) ** 2 - 2.0)
    res = np.abs(f.c) ** 2 - np.abs(f.a) ** 2 - E
    rel = np.abs(res) / (1.0 + np.abs(f.a) ** 2 + np.abs(f.c) ** 2)
    assert float(np.max(rel)) <= 1e-10


def test_alpha_and_amplitude_are_functionally_dependent(locus_pipeline):
    f = locus_pipeline(33).fields
    g = f.grid
    alc = f.alpha.astype(np.complex128)
    wedge = dz(alc, g.hx, g.hy) * dzbar(f.a, g.hx, g.hy) \
        - dzbar(alc, g.hx, g.hy) * dz(f.a, g.hx, g.hy)
    assert float(np.nanmax(np.abs(wedge))) <= 1e-5


def test_general_type_witness(locus_pipeline):
    f = locus_pipeline(33).fields
    assert float(np.min(np.abs(f.a - np.conj(f.a)))) > 0.0
    assert float(np.min(np.abs(f.c))) > 0.0
    gx, gy = np.gradient(f.alpha, f.grid.hx, f.grid.hy)
    assert float(np.min(np.hypot(gx, gy))) > 0.0


def test_phase_constant_moves_only_the_argument_of_c(locus_pipeline):
    base = locus_pipeline(33).fields
    turned = locus_pipeline(33, nu0=0.7).fields
    for name in ("alpha", "K_formula", "K_metric", "nu"):
        assert np.array_equal(getattr(base, name), getattr(turned, name),
                              equal_nan=True), name
    for name in ("a", "lam"):
        assert np.array_equal(getattr(base, name), getattr(turned, name)), name
    assert np.array_equal(base.mask, turned.mask)
    np.testing.assert_allclose(turned.c, base.c * np.exp(0.7j), rtol=1e-13)
    np.testing.assert_allclose(np.abs(turned.c), np.abs(base.c), rtol=1e-14)


def test_off_locus_construction_masks_and_reports(generic_profile):
    res = build_generic(21, generic_profile)
    names = sorted(ev["error"] for ev in res.guard_events)
    assert names == ["NonpositiveDenominator", "PathInconsistency"]
    f = res.fields
    # the angle layer survives untouched; only the phase stage is masked
    for col in (f.alpha, f.a, f.lam):
        assert np.isfinite(col).all()
    assert (f.mask & MASK_DOMAIN).any()
    assert (f.mask & MASK_NUPATH).any()
    masked = f.mask != 0
    assert np.isnan(f.c[masked]).all()
    assert np.isfinite(f.c[~masked]).all()
    dom = next(ev for ev in res.guard_events if ev["error"] == "NonpositiveDenominator")
    assert dom["nodes_inadmissible"] > 0
    assert 0.0 < dom["fraction_inadmissible"] < 1.0


def test_phase_stage_returns_its_guard_events(generic_profile):
    prof, pot = generic_profile
    grid = Grid(0.0, 1.0, 0.0, 1.0, 21, 21)
    cols = surface_columns(generic_harmonic(pot), grid, pot, prof.a, MODEL)
    W, mask, domain = omega_W(cols.alpha, cols.a, cols.lam, MODEL, cols.mask)
    D = phase_D(cols.alpha, cols.a, MODEL)
    open_nodes = np.isfinite(cols.alpha) & (cols.mask == 0)
    inadmissible = open_nodes & ~(D > 0)
    assert inadmissible.any() and not (cols.mask & MASK_DOMAIN).any()
    assert domain["error"] == "NonpositiveDenominator"
    assert domain["nodes_inadmissible"] == np.count_nonzero(inadmissible)
    assert np.array_equal((mask & MASK_DOMAIN) != 0, inadmissible)
    assert np.array_equal(mask & ~np.uint8(MASK_DOMAIN), cols.mask)
    # W is NaN on the masked nodes and exactly on the open ones where D <= 0
    assert np.array_equal(np.isnan(W), ~open_nodes | inadmissible)
    nu, mask_out, info, path = integrate_nu(W, grid, mask)    # returns, does not raise
    assert path["error"] == "PathInconsistency"
    assert {key: path[key] for key in info} == info
    assert info["nodes_violating"] > 0.5 * info["nodes_checkable"]
    assert np.isnan(nu[mask_out != 0]).all()


def test_field_bundle_round_trips_bitwise(generic_profile, tmp_path):
    f = build_generic(21, generic_profile).fields
    assert f.mask.any() and np.isnan(f.c).any()
    write_fields(f, str(tmp_path))
    write_meta({"config": {"params": {"rho": f.params.rho, "b": f.params.b}}}, str(tmp_path))
    back = read_fields(str(tmp_path))
    assert back.grid == f.grid and back.params == f.params
    for name in ("alpha", "a", "lam", "nu", "c", "K_formula", "K_metric", "mask"):
        x, y = getattr(f, name), getattr(back, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        if name == "mask":
            assert np.array_equal(x, y)
            continue
        # complex columns compare as interleaved (re, im) floats; NaN equals NaN
        x, y = np.ascontiguousarray(x).view(np.float64), np.ascontiguousarray(y).view(np.float64)
        nan = np.isnan(x)
        assert np.array_equal(nan, np.isnan(y)), name
        assert np.array_equal(x[~nan].view(np.int64), y[~nan].view(np.int64)), name


def test_harmonic_input_must_fit_the_warp_range(generic_profile):
    prof, pot = generic_profile
    tlo, thi = pot.t_range
    harm = HarmonicInput.affine_window(tlo - 0.1, thi, (0.0, 1.0, 0.0, 1.0))
    from pmcsurf.construct import construct_surface
    with pytest.raises(RangeMismatch):
        construct_surface(prof, pot, harm, Grid(0.0, 1.0, 0.0, 1.0, 9, 9))


def test_cascade_singularity_strip_is_masked():
    star = float(np.arcsin(np.sqrt(2.0 / 3.0)))
    alpha = np.array([[0.7, star], [star + 1e-9, 1.2]])
    mask = cascade_mask(alpha)
    assert mask[0, 0] == 0
    assert mask[0, 1] == MASK_SINGULAR
    assert mask[1, 0] == MASK_SINGULAR
    assert mask[1, 1] == 0
    assert cascade_mask(np.array([np.nan]))[0] == MASK_SINGULAR


def test_curvature_two_ways(locus_pipeline):
    f = locus_pipeline(33).fields
    m = GAUSS_STEP
    interior = (slice(m, -m), slice(m, -m))
    assert np.isnan(f.K_metric[:m, :]).all()
    assert np.isnan(f.K_metric[:, :m]).all()
    assert np.isfinite(f.K_metric[interior]).all()
    assert float(np.max(np.abs((f.K_formula - f.K_metric)[interior]))) <= 1e-2
    # the closed form needs no stencil and is everywhere finite
    assert np.isfinite(f.K_formula).all()


def test_curvature_formula_values(locus_pipeline):
    f = locus_pipeline(33).fields
    expect = -4.0 * (np.abs(f.a) ** 2 - 1.0) + 6.0 * MODEL.rho * np.cos(f.alpha) ** 2
    np.testing.assert_allclose(f.K_formula, expect, rtol=1e-12)


def test_gauss_stencil_clips_to_small_grids():
    alpha = np.full((7, 7), 0.9)
    a = np.full((7, 7), 0.3 + 0.4j)
    lam = np.full((7, 7), 0.5 + 0.1j)
    grid = Grid(0.0, 1.0, 0.0, 1.0, 7, 7)
    _, K_metric = gauss_curvature(alpha, a, lam, MODEL, grid)
    assert np.isfinite(K_metric[3, 3])
    assert np.isnan(K_metric[0, 0])
