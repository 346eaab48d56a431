"""Residual evaluation, convergence judgment, and mask-bit relevance."""
from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from pmcsurf import verify
from pmcsurf.coeffs import ModelParams, cascade_ok
from pmcsurf.errors import ConfigError
from pmcsurf.fields import Grid, MASK_DOMAIN, MASK_NUPATH, MASK_SINGULAR
from pmcsurf.verify import (EQUATIONS, EXPERIMENTAL, IDENTITY_CLASS, MARGIN,
                            MASK_RELEVANCE, Thresholds, _max_stat, default_workers,
                            dz, dzbar, dzdzbar, verify_suite)

from conftest import build_family


def _analytic_errors(n):
    g = Grid(0.0, 1.0, 0.0, 1.0, n, n)
    X, Y = g.mesh()
    F = np.sin(X) * np.cos(Y)
    fx = np.cos(X) * np.cos(Y)
    fy = -np.sin(X) * np.sin(Y)
    inner = (slice(1, -1), slice(1, -1))
    e1 = np.abs(dz(F.astype(complex), g.hx, g.hy) - 0.5 * (fx - 1j * fy))[inner]
    e2 = np.abs(dzbar(F.astype(complex), g.hx, g.hy) - 0.5 * (fx + 1j * fy))[inner]
    e3 = np.abs(dzdzbar(F.astype(complex), g.hx, g.hy) + 0.5 * F)[inner]
    return (float(np.max(e1)), float(np.max(e2)), float(np.max(e3)))


def test_wirtinger_stencils_against_analytic_derivatives():
    coarse = _analytic_errors(33)
    fine = _analytic_errors(65)
    for mc, mf in zip(coarse, fine):
        assert mc <= 1e-4
        order = np.log2(mc / mf)
        assert 1.8 <= order <= 2.2


def test_equation_registry_is_consistent():
    assert set(MASK_RELEVANCE) == set(EQUATIONS)
    assert IDENTITY_CLASS <= set(EQUATIONS)
    assert EXPERIMENTAL <= set(EQUATIONS)
    assert not (IDENTITY_CLASS & EXPERIMENTAL)
    assert MARGIN >= 1


def test_max_stat_respects_relevant_bits_only():
    res = np.ones((7, 7), dtype=complex)
    res[3, 3] = 5.0
    mask = np.zeros((7, 7), dtype=np.uint8)
    mask[3, 3] = MASK_NUPATH
    assert _max_stat(res, mask, 0) == 5.0
    assert _max_stat(res, mask, MASK_NUPATH) == 1.0
    assert _max_stat(res, mask, MASK_NUPATH | MASK_DOMAIN) == 1.0
    mask[:] = MASK_SINGULAR
    assert np.isnan(_max_stat(res, mask, MASK_SINGULAR))
    # the two-node frame never contributes
    res[0, 0] = 100.0
    mask[:] = 0
    assert _max_stat(res, mask, 0) == 5.0


def test_single_surface_mode_judges_identities_only(locus_pair):
    coarse, _ = locus_pair
    rep = verify_suite(coarse)
    assert rep.degraded
    assert rep.exit_code == 0
    by_eq = {(r.equation, r.variant): r for r in rep.rows}
    ricci = by_eq[("E2_6_ricci", None)]
    assert ricci.passed is True and ricci.kind == "identity"
    stencil = by_eq[("E2_1", None)]
    assert stencil.passed is None
    assert stencil.note == "order requires a grid pair"
    row = stencil.row()
    assert "order" not in row and "max_fine" not in row


def test_locus_pair_passes_every_gated_equation(locus_pair):
    rep = verify_suite(*locus_pair)
    assert rep.passed and rep.exit_code == 0
    for r in rep.rows:
        if r.kind == "stencil" and r.order is not None:
            assert 1.7 <= r.order <= 2.3, (r.equation, r.order)
        if r.kind == "experimental":
            assert r.passed is None
    variants = [r.variant for r in rep.rows if r.equation == "E2_13"]
    assert sorted(variants) == ["alternate", "as_printed"]


def test_tampered_amplitude_column_flags_its_equations(locus_pair):
    coarse, fine = locus_pair
    # constant scalings of c are exactly the associated-family freedom, so an
    # additive offset is the smallest tamper the equations can see
    bad_c, bad_f = (dataclasses.replace(s, c=s.c + 1e-3)
                    for s in (coarse, fine))
    rep = verify_suite(bad_c, bad_f)
    assert rep.exit_code == 1
    by_eq = {r.equation: r for r in rep.rows}
    assert by_eq["E2_6_ricci"].passed is False
    assert by_eq["E2_5_codazzi_c"].passed is False
    untouched = by_eq["E2_1"]
    assert untouched.passed is True


def test_exact_zero_residuals_pass_without_an_order():
    pair = (build_family(17, tilt=0.0).fields, build_family(33, tilt=0.0).fields)
    rep = verify_suite(*pair)
    wedge = next(r for r in rep.rows if r.equation == "LEMMA1_WEDGE")
    assert wedge.passed is True
    assert wedge.order is None
    assert wedge.note == "residual at rounding floor"


def test_grid_pair_validation(locus_pair):
    coarse, fine = locus_pair
    with pytest.raises(ConfigError, match="finer"):
        verify_suite(fine, coarse)
    shifted = dataclasses.replace(
        coarse, grid=dataclasses.replace(coarse.grid, x1=1.5))
    with pytest.raises(ConfigError, match="rectangles"):
        verify_suite(shifted, fine)
    other = dataclasses.replace(coarse, params=ModelParams(rho=-3.0, b=2.0))
    with pytest.raises(ConfigError, match="parameters"):
        verify_suite(other, fine)


def test_report_serialization_and_table(locus_pair):
    rep = verify_suite(*locus_pair, thresholds=Thresholds(identity_tol=1e-10,
                                                          order_band=(1.7, 2.3)))
    d = rep.to_dict()
    assert d["passed"] is True
    assert d["order_band"] == [1.7, 2.3]
    assert len(d["rows"]) == len(EQUATIONS) + 1   # one extra variant row
    text = rep.table()
    assert "pass" in text and "recorded" in text and "E2_13[alternate]" in text


def _chunk_sizes(fields):
    ok = cascade_ok(fields.alpha) & ((fields.mask & MASK_SINGULAR) == 0)
    n = int(np.count_nonzero(ok))
    return [min(verify.CHUNK, n - k) for k in range(0, n, verify.CHUNK)]


def test_one_coefficient_cache_per_grid(locus_pair, monkeypatch):
    # per chunk of each grid's evaluable nodes: one call of the generated
    # straight-line cascade, and one cache giving t1, t2, conj t1 from the jets at order 0
    calls, built, jets = [], [], []
    generated = verify.cascade_values

    def counting(alpha, *args):
        calls.append(alpha.size)
        return generated(alpha, *args)

    class Recording(verify.CoeffCache):
        def __init__(self, point, **kwargs):
            built.append((point.alpha.size, kwargs))
            super().__init__(point, **kwargs)

        def get(self, i, order=0, **kwargs):
            jets.append((self.point.alpha.size, i, order, kwargs))
            return super().get(i, order, **kwargs)

    monkeypatch.setattr(verify, "cascade_values", counting)
    monkeypatch.setattr(verify, "CoeffCache", Recording)
    rep = verify_suite(*locus_pair)
    sizes = [_chunk_sizes(f) for f in locus_pair]
    assert len(sizes[1]) > 1                      # the fine grid spans several chunks
    assert calls == sizes[0] + sizes[1]
    assert built == [(n, {}) for n in calls]
    assert jets == [(n, i, 0, kw) for n in calls
                    for i, kw in ((1, {}), (2, {}), (1, {"conjugated": True}))]
    assert sorted(r.variant for r in rep.rows if r.equation == "E2_13") == ["alternate", "as_printed"]
    assert "t9_mode" not in rep.to_dict()


def _same_bits(x, y) -> bool:
    """Bitwise equality; NaN equals NaN of the same payload."""
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same_bits(x[k], y[k]) for k in x)
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    return x is y or x == y


@pytest.mark.parametrize("grid", [1, 2])
def test_chunked_preparation_matches_one_chunk_bitwise(locus_pair, monkeypatch, grid):
    fields = locus_pair[grid - 1]
    monkeypatch.setattr(verify, "CHUNK", fields.alpha.size)
    whole = verify._prepare(fields)
    monkeypatch.setattr(verify, "CHUNK", 7)
    chunked = verify._prepare(fields)
    assert whole.keys() == chunked.keys()
    for key in whole:
        assert _same_bits(whole[key], chunked[key]), key


@pytest.mark.parametrize("grid", [1, 2])
def test_chunk_cascades_are_freed_without_the_collector(locus_pair, monkeypatch, grid):
    # the swap mirror points back weakly, so refcounting alone frees a chunk's jets
    alive = []

    class Recording(verify.CoeffCache):
        def __init__(self, point, **kwargs):
            super().__init__(point, **kwargs)
            alive.extend(weakref.ref(c) for c in (self._cascade, self._cascade.mirror()))

    monkeypatch.setattr(verify, "CoeffCache", Recording)
    enabled = gc.isenabled()
    gc.disable()
    try:
        fields = locus_pair[grid - 1]
        verify._prepare(fields)   # no gc.collect() to hide a cycle
        assert len(alive) == 2 * len(_chunk_sizes(fields))   # a cache and its mirror per chunk
        assert all(ref() is None for ref in alive)
        verify_suite(*locus_pair)
        assert all(ref() is None for ref in alive)
    finally:
        if enabled:
            gc.enable()


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("PMC_THREADS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("PMC_THREADS", "bogus")
    with pytest.raises(ConfigError):
        default_workers()
    monkeypatch.delenv("PMC_THREADS")
    assert default_workers() >= 1


def test_repeated_verify_runs_match_bitwise(locus_pair):
    rep1, rep2 = verify_suite(*locus_pair), verify_suite(*locus_pair)
    assert len(rep1.rows) == len(rep2.rows)
    for r1, r2 in zip(rep1.rows, rep2.rows):
        assert r1.equation == r2.equation and r1.variant == r2.variant
        assert r1.passed == r2.passed and r1.note == r2.note
        for x, y in ((r1.max_coarse, r2.max_coarse), (r1.max_fine, r2.max_fine),
                     (r1.order, r2.order)):
            assert (x is None and y is None) or np.float64(x).tobytes() == np.float64(y).tobytes()
