"""Residual evaluation, convergence judgment, and mask-bit relevance."""
from __future__ import annotations

import dataclasses
import gc
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from pmcsurf import verify
from pmcsurf.coeffs import T9_READINGS, ModelParams, cascade_ok
from pmcsurf.construct import construct_surface
from pmcsurf.errors import ConfigError
from pmcsurf.fields import (GAUSS_STEP, Grid, HarmonicInput, MASK_DOMAIN, MASK_NUPATH,
                            MASK_SINGULAR, dz, dzbar, dzdzbar, gauss_frame, laplacian)
from pmcsurf.profile import build_potential, solve_profile
from pmcsurf.verify import (EQUATIONS, MARGIN, Thresholds, _max_stat, default_workers,
                            verify_suite)

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
    m = GAUSS_STEP   # the metric curvature's spacing
    e4 = np.abs(laplacian(F, g.hx, g.hy, m) + 2.0 * F)[m:-m, m:-m]
    return tuple(float(np.max(e)) for e in (e1, e2, e3, e4))


def test_wirtinger_stencils_against_analytic_derivatives():
    coarse = _analytic_errors(33)
    fine = _analytic_errors(65)
    # the laplacian at GAUSS_STEP nodes has a GAUSS_STEP^2 larger truncation constant
    for mc, mf, bound in zip(coarse, fine, (1e-4, 1e-4, 1e-4, 2e-3)):
        assert mc <= bound
        order = np.log2(mc / mf)
        assert 1.8 <= order <= 2.2


def test_equation_registry_is_consistent():
    # one entry per report row, in report order; E2_13's two rows are
    # adjacent, one per t9 reading, and no other row has a variant
    rows = [(e.equation, e.variant) for e in EQUATIONS]
    at = rows.index(("E2_13", T9_READINGS[0]))
    assert rows[at:at + 2] == [("E2_13", m) for m in T9_READINGS]
    assert all(m is None for _, m in rows[:at] + rows[at + 2:])
    assert len({eq for eq, _ in rows}) == len(rows) - 1
    assert {e.kind for e in EQUATIONS} == {"identity", "stencil", "experimental"}
    assert [e.equation for e in EQUATIONS if e.kind == "identity"] == ["E2_6_ricci"]
    assert [e.equation for e in EQUATIONS if e.kind == "experimental"] == ["E2_12", "E2_13",
                                                                           "E2_13"]
    for e in EQUATIONS:
        assert callable(e.residual)
        assert e.mask & ~(MASK_DOMAIN | MASK_SINGULAR | MASK_NUPATH) == 0, e.equation
        assert not hasattr(e, "readings")
    # MARGIN is the reach of a stencil over a stencil's output, on which a
    # band's input and prepared blocks rely: exactly the nodes MARGIN in hold it
    F = np.ones((2 * MARGIN + 3, 2 * MARGIN + 3), dtype=complex)
    defined = np.isfinite(dzbar(dz(F, 1.0, 1.0), 1.0, 1.0))
    assert defined[MARGIN:-MARGIN, MARGIN:-MARGIN].all()
    assert defined.sum() == (len(F) - 2 * MARGIN) ** 2


def test_max_stat_respects_relevant_bits_only():
    # the largest |residual| at the judged nodes, the prepared block's inner
    # nodes; NaN when no judged node holds a number
    res = np.ones((7, 7), dtype=complex)
    res[3, 3] = 5.0
    mask = np.zeros((7, 7), dtype=np.uint8)
    mask[3, 3] = MASK_NUPATH
    assert _max_stat(res, mask, 0) == 5.0
    assert _max_stat(res, mask, MASK_NUPATH) == 1.0
    assert _max_stat(res, mask, MASK_NUPATH | MASK_DOMAIN) == 1.0
    mask[:] = MASK_SINGULAR
    assert np.isnan(_max_stat(res, mask, MASK_SINGULAR))
    # the block's outer ring, which no stencil of a residual fills, never contributes
    res[0, 3] = res[6, 3] = res[3, 0] = res[3, 6] = 100.0
    mask[:] = 0
    assert _max_stat(res, mask, 0) == 5.0
    # a band of one judged row, and one whose judged nodes are all masked
    band, nowhere = res[3:6], mask[3:6] | MASK_DOMAIN
    assert _max_stat(band, mask[3:6], 0) == 1.0
    assert np.isnan(_max_stat(band, nowhere, MASK_DOMAIN))
    # an infinite residual counts, also where every judged residual is infinite
    res[4, 1:6] = np.inf
    assert _max_stat(band, mask[3:6], 0) == np.inf
    assert _max_stat(res, mask, 0) == np.inf
    assert all(type(_max_stat(band, m, MASK_DOMAIN)) is float for m in (mask[3:6], nowhere))


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


def test_an_off_locus_pair_off_the_model_point_fails_only_its_locus_rows():
    # every other surface of the suite has rho = -3 and b = 1, where a formula
    # error such as b * b for b / b in the curvature is an identity
    params = ModelParams(rho=-2, b=0.5)
    prof = solve_profile(params, 0.6, 0.5 + 0.2j, (0.55, 0.7))
    pot = build_potential(prof)
    tlo, thi = pot.t_range
    span = thi - tlo
    harm = HarmonicInput.affine_window(tlo + 0.1 * span, thi - 0.1 * span,
                                       (0.0, 1.0, 0.0, 1.0), tilt=0.5)
    coarse, fine = (construct_surface(prof, pot, harm, Grid(0.0, 1.0, 0.0, 1.0, n, n)).fields
                    for n in (41, 81))
    assert not coarse.mask.any()
    rep = verify_suite(coarse, fine)
    rows = {r.equation: r for r in rep.rows}
    converging = ("E2_1", "E2_2", "E2_3_gauss", "E2_4_codazzi_a", "E3_2", "LEMMA1_WEDGE")
    locus_bound = ("E2_5_codazzi_c", "E2_8", "E2_10", "E2_11", "OMEGA_CLOSED")
    for eq in converging:
        assert rows[eq].passed is True and 1.9 <= rows[eq].order <= 2.1, (eq, rows[eq].order)
    assert rows["E2_6_ricci"].passed is True and rows["E2_6_ricci"].max_fine < 1e-14
    for eq in locus_bound:
        assert rows[eq].passed is False, eq
    assert set(rows) == {*converging, *locus_bound, "E2_6_ricci", "E2_12", "E2_13"}
    assert all(r.passed is None for r in rep.rows if r.kind == "experimental")
    assert not rep.passed and rep.exit_code == 1


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


@pytest.mark.parametrize("name,column", [
    ("alpha", "alpha"), ("a", "a_re"), ("a", "a_im"), ("lam", "lambda_re"),
    ("lam", "lambda_im"), ("K_formula", "K_formula"), ("nu", "nu"), ("c", "c_re"), ("c", "c_im"),
    ("K_metric", "K_metric")])
def test_a_non_finite_input_names_its_column_and_node(locus_pair, name, column):
    coarse, fine = locus_pair
    values = getattr(coarse, name).copy()
    v = values[5, 7]
    values[5, 7] = complex(v.real, np.inf) if column.endswith("_im") else v - np.inf
    with pytest.raises(ConfigError, match=rf"^column {column} holds -?inf at node \(5, 7\) "
                                          r"of the 33x33 grid \(x = 0.15625, y = 0.21875\)$"):
        verify_suite(dataclasses.replace(coarse, **{name: values}), fine)


def test_a_masked_node_may_leave_only_nu_and_c_non_finite(locus_pair):
    coarse, fine = locus_pair
    mask, nu, c, alpha = coarse.mask.copy(), coarse.nu.copy(), coarse.c.copy(), coarse.alpha.copy()
    mask[5, 7] = MASK_NUPATH
    nu[5, 7] = c[5, 7] = alpha[5, 7] = np.nan
    masked = dataclasses.replace(coarse, mask=mask, nu=nu, c=c)
    assert verify_suite(masked).rows   # K_metric is NaN on its frame as always
    with pytest.raises(ConfigError, match="^column alpha holds nan at node"):
        verify_suite(dataclasses.replace(masked, alpha=alpha))


@pytest.fixture(scope="module")
def pair_41_81():
    return build_family(41).fields, build_family(81).fields


def test_a_non_finite_metric_curvature_off_its_frame_is_refused(pair_41_81):
    # NaN blocks off the frame used to be skipped by the maxima: the pair
    # passed with E2_3_gauss bit for bit the clean pair's
    coarse, fine = pair_41_81
    kc, kf = coarse.K_metric.copy(), fine.K_metric.copy()
    kc[10:30, 10:30] = np.nan
    kf[20:60, 20:60] = np.nan
    with pytest.raises(ConfigError, match=r"^column K_metric holds nan at node \(10, 10\) "
                                          r"of the 41x41 grid \(x = 0.25, y = 0.25\)$"):
        verify_suite(dataclasses.replace(coarse, K_metric=kc),
                     dataclasses.replace(fine, K_metric=kf))
    # construct leaves it NaN on exactly its frame, which verify reads as such
    m = gauss_frame(coarse.grid)
    assert np.isnan(coarse.K_metric[m - 1, m:-m]).all()
    assert np.isfinite(coarse.K_metric[m:-m, m:-m]).all()
    kc = coarse.K_metric.copy()
    kc[m, m] = np.nan
    with pytest.raises(ConfigError, match=rf"^column K_metric holds nan at node \({m}, {m}\) "):
        verify_suite(dataclasses.replace(coarse, K_metric=kc))


def test_an_infinite_maximum_fails_as_a_non_finite_residual(pair_41_81):
    # used to read "no evaluable nodes", which is the note of a NaN maximum
    coarse, fine = pair_41_81
    a = coarse.a.copy()
    a[20, 20] = 1e200
    with np.errstate(all="ignore"):
        rep = verify_suite(dataclasses.replace(coarse, a=a), fine)
    rows = {r.equation: r for r in rep.rows}
    for eq in ("E2_8", "E2_10", "E2_11"):
        row = rows[eq]
        assert (row.max_coarse, row.order, row.passed, row.note) == \
            (np.inf, None, False, "non-finite residual"), eq
        assert np.isfinite(row.max_fine), eq
    assert rep.exit_code == 1
    assert not any(r.note == "no evaluable nodes" for r in rep.rows)


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
    assert [(r["equation"], r.get("variant")) for r in d["rows"]] == [
        (e.equation, e.variant) for e in EQUATIONS]
    text = rep.table()
    assert "pass" in text and "recorded" in text and "E2_13[alternate]" in text


def _evaluable(fields):
    return cascade_ok(fields.alpha) & ((fields.mask & MASK_SINGULAR) == 0)


def _bands(fields):
    """(lo, hi) of each band of judged rows that _maxima walks."""
    nx, width = fields.grid.nx, fields.grid.ny - 2 * MARGIN
    step = max(1, verify.CHUNK // width)
    return [(lo, min(lo + step, nx - MARGIN)) for lo in range(MARGIN, nx - MARGIN, step)]


def _prepared(fields, lo=MARGIN, hi=None):
    """verify._prepare of the judged rows lo..hi-1, every judged row by
    default, into an arena of the band's judged nodes."""
    hi = fields.grid.nx - MARGIN if hi is None else hi
    return verify._prepare(fields, lo, hi,
                           verify._arena((hi - lo) * (fields.grid.ny - 2 * MARGIN)))


def _band_counts(fields):
    """Per band, the evaluable nodes of its prepared block (the band and one
    row each side, every column but the outer two) and of its judged nodes."""
    ok = _evaluable(fields)
    block = [int(ok[lo - 1:hi + 1, 1:-1].sum()) for lo, hi in _bands(fields)]
    judged = [int(ok[lo:hi, MARGIN:-MARGIN].sum()) for lo, hi in _bands(fields)]
    return block, judged


def test_one_cascade_call_and_cache_per_band(locus_pair, monkeypatch):
    # per band of each grid: one cache giving t1 and t2 from the jets at order
    # 0 on its prepared block, and one call of the generated straight-line
    # cascade on its judged nodes, into the grid's one arena
    calls, built, jets, arenas = [], [], [], []
    generated = verify.cascade_values

    def counting(alpha, a, abar, rho, b, F, C):
        calls.append(alpha.size)
        arenas.append((F.base, C.base))
        return generated(alpha, a, abar, rho, b, F, C)

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
    counts = [_band_counts(f) for f in locus_pair]
    assert len(counts[1][1]) > 1                      # the fine grid spans several bands
    assert calls == counts[0][1] + counts[1][1]
    assert built == [(n, {}) for n in counts[0][0] + counts[1][0]]
    assert jets == [(n, i, 0, kw) for n, _ in built for i, kw in ((1, {}), (2, {}))]
    coarse = len(counts[0][1])
    for grid in (arenas[:coarse], arenas[coarse:]):
        assert all(F is grid[0][0] and C is grid[0][1] for F, C in grid)
    assert arenas[0][1] is not arenas[-1][1]
    assert sorted(r.variant for r in rep.rows if r.equation == "E2_13") == ["alternate", "as_printed"]
    assert "t9_mode" not in rep.to_dict()
    # every judged row as one band takes one of each, a band with no evaluable node too
    for fields in (locus_pair[1], _masked_rows(locus_pair[0], slice(None))):
        calls.clear()
        built.clear()
        _prepared(fields)
        ok = _evaluable(fields)
        assert [n for n, _ in built] == [int(ok[1:-1, 1:-1].sum())]
        assert calls == [int(ok[MARGIN:-MARGIN, MARGIN:-MARGIN].sum())]


def _same_bits(x, y) -> bool:
    """Bitwise equality; NaN equals NaN of the same payload."""
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same_bits(x[k], y[k]) for k in x)
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    return x is y or x == y


@pytest.mark.parametrize("grid", [1, 2])
def test_chunk_cascades_are_freed_without_the_collector(locus_pair, monkeypatch, grid):
    # the swap mirror points back weakly, so refcounting alone frees a band's jets
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
        _prepared(fields)   # no gc.collect() to hide a cycle
        assert len(alive) == 2   # a cache and its mirror for the one band
        assert all(ref() is None for ref in alive)
        verify_suite(*locus_pair)
        assert len(alive) == 2 * (1 + sum(len(_bands(f)) for f in locus_pair))
        assert all(ref() is None for ref in alive)
    finally:
        if enabled:
            gc.enable()


def _arrays(P):
    """Every array of a prepared band, those in its t and t9 rows included."""
    for v in P.values():
        if isinstance(v, dict):
            yield from _arrays(v)
        elif isinstance(v, np.ndarray):
            yield v


def test_one_prepared_band_is_alive_at_a_time(locus_pair, monkeypatch):
    # a band meets the next only through its maxima, so its arrays are freed,
    # by refcounting alone, before the next band or grid is prepared
    prepare, alive, bands = verify._prepare, [], []

    def recording(fields, lo, hi, arena):
        assert all(ref() is None for ref in alive)
        prep = prepare(fields, lo, hi, arena)
        alive.extend(weakref.ref(v) for v in _arrays(prep))
        bands.append((fields.grid.nx, lo, hi))
        return prep

    monkeypatch.setattr(verify, "_prepare", recording)
    enabled = gc.isenabled()
    gc.disable()
    try:
        verify_suite(*locus_pair)
    finally:
        if enabled:
            gc.enable()
    assert bands == [(f.grid.nx, lo, hi) for f in locus_pair for lo, hi in _bands(f)]
    assert len(alive) > len(bands) and all(ref() is None for ref in alive)


def _bits(values):
    return ["nan" if np.isnan(v) else np.float64(v).tobytes() for v in values]


def _whole_grid_maxima(fields):
    """Each row's maximum from every judged row as one band: the reference for the bands."""
    P = _prepared(fields)
    return [_max_stat(e.residual(P), P["mask"], e.mask) for e in EQUATIONS]


def _masked_rows(fields, rows):
    """fields with every mask bit set on the given rows."""
    mask = fields.mask.copy()
    mask[rows] |= MASK_SINGULAR | MASK_NUPATH | MASK_DOMAIN
    return dataclasses.replace(fields, mask=mask)


# judged rows per band of the 29 and 61 of the pair: one (bands on the
# first and last judged rows), two and five (short last bands), seven (a
# last band of one row) and 65 (one band per grid)
@pytest.mark.parametrize("rows", [1, 2, 5, 7, 65])
def test_banded_maxima_equal_the_whole_grid_bitwise(locus_pair, monkeypatch, rows):
    masked = _masked_rows(locus_pair[0], slice(8, 16))   # bands with every judged node masked
    for fields in (*locus_pair, masked):
        whole = _whole_grid_maxima(fields)
        monkeypatch.setattr(verify, "CHUNK", rows * (fields.grid.ny - 2 * MARGIN))
        assert [hi - lo for lo, hi in _bands(fields)][0] == min(rows, fields.grid.nx - 2 * MARGIN)
        assert _bits(verify._maxima(fields)) == _bits(whole)
    if rows < 8:   # a band inside the masked rows: every row with a mask bit is NaN there
        stats = verify._band_maxima(masked, 8, 8 + rows, verify._arena(rows * masked.grid.ny))
        assert [np.isnan(top) for top in stats] == [e.mask != 0 for e in EQUATIONS]
    # a row is NaN only when every band is
    nowhere = _masked_rows(locus_pair[0], slice(None))
    maxima = verify._maxima(nowhere)
    assert [np.isnan(m) for m in maxima] == [e.mask != 0 for e in EQUATIONS]
    assert _bits(maxima) == _bits(_whole_grid_maxima(nowhere))


def test_banded_reports_equal_the_whole_grid_bitwise(locus_pair, monkeypatch):
    # the pair and the single-grid (degraded) mode, row for row
    monkeypatch.setattr(verify, "CHUNK", 10 ** 6)   # one band per grid
    whole = [verify_suite(*locus_pair).to_dict(), verify_suite(locus_pair[0]).to_dict()]
    monkeypatch.setattr(verify, "CHUNK", 1)         # one row per band
    banded = [verify_suite(*locus_pair).to_dict(), verify_suite(locus_pair[0]).to_dict()]
    assert repr(banded) == repr(whole)
    assert whole[1]["degraded"] and any(r.get("note") for r in whole[1]["rows"])


def test_a_band_prepares_the_rows_of_the_whole_grid_bitwise(locus_pair):
    # a band's prepared block, its judged rows and one row each side, every
    # column but the outer two, holds the bits of every judged row prepared
    # as one band; the T_IDS and t9 values only at its judged nodes
    fields = locus_pair[1]
    nx, ny = fields.grid.nx, fields.grid.ny
    whole = _prepared(fields)   # the prepared block of rows 1..nx-2
    for lo, hi in ((2, 3), (2, 5), (3, 4), (20, 27), (nx - 5, nx - 2), (nx - 3, nx - 2)):
        band, block = _prepared(fields, lo, hi), slice(lo - 2, hi)   # its rows among whole's
        assert band.keys() == whole.keys()
        assert band["alpha"].shape == (hi - lo + 2, ny - 2)
        assert _same_bits(band["alpha"][1:-1, 1:-1], fields.alpha[lo:hi, MARGIN:-MARGIN])
        for key in whole.keys() - {"t", "t9"}:
            assert _same_bits(band[key], _rows(whole[key], block.start, block.stop)), (lo, key)
        rows = {**{(i, None): row for i, row in band["t"].items()},
                **{(9, m): row for m, row in band["t9"].items()}}
        for (i, m), row in rows.items():
            ref = (whole["t"][i] if m is None else whole["t9"][m])[block]
            if i in (1, 2):   # t1 and t2 on the whole block
                assert _same_bits(row, ref), (lo, i)
                continue
            inner = np.full(row.shape, np.nan, dtype=row.dtype)
            inner[1:-1, 1:-1] = ref[1:-1, 1:-1]
            assert _same_bits(row, inner), (lo, i, m)


def test_the_generated_cascade_takes_the_evaluable_judged_nodes_only(locus_pair, monkeypatch):
    # no residual differences the T_IDS or t9 values, so no frame node, nor
    # any node a residual stencil only reaches, goes to the generated call
    seen = []
    generated = verify.cascade_values

    def recording(alpha, a, abar, rho, b, F, C):
        seen.append((alpha.copy(), a.copy()))
        return generated(alpha, a, abar, rho, b, F, C)

    monkeypatch.setattr(verify, "cascade_values", recording)
    judged = (slice(MARGIN, -MARGIN), slice(MARGIN, -MARGIN))
    masked = _masked_rows(locus_pair[0], slice(8, 16))   # judged nodes that are not evaluable
    assert not _evaluable(masked)[judged].all()
    for fields in (*locus_pair, masked):
        seen.clear()
        verify._maxima(fields)
        assert len(seen) == len(_bands(fields))
        ok = _evaluable(fields)[judged]
        for got, column in zip(zip(*seen), (fields.alpha, fields.a)):
            assert _same_bits(np.concatenate(got), column[judged][ok])


def test_the_smallest_grids_judge_their_inner_nodes(monkeypatch):
    # a side of 2 MARGIN nodes would hold no judged node, and Grid refuses
    # it, so verify never meets one; a side of 2 MARGIN + 1 holds one
    for shape in ((2 * MARGIN, 9), (9, 2 * MARGIN)):
        with pytest.raises(ConfigError, match="at least 5 nodes per axis"):
            Grid(0.0, 1.0, 0.0, 1.0, *shape)
    calls = []
    generated = verify.cascade_values

    def counting(alpha, *args):
        calls.append(alpha.size)
        return generated(alpha, *args)

    monkeypatch.setattr(verify, "cascade_values", counting)
    rep = verify_suite(build_family(5).fields, build_family(9).fields)
    assert calls == [1, 25]   # one band per grid: the 5x5 grid's one judged node, 5x5 at 9
    assert all(np.isfinite([r.max_coarse, r.max_fine]).all() for r in rep.rows)
    for shape, judged in (((5, 9), [5]), ((9, 5), [5])):   # one judged row, one judged column
        calls.clear()
        fields = build_family(shape[0], ny=shape[1]).fields
        assert all(np.isfinite(m) for m in verify._maxima(fields))
        assert calls == judged


def _traced_peak(fields) -> int:
    tracemalloc.start()
    try:
        verify._maxima(fields)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_memory_is_bounded_by_the_band():
    # four times the nodes, about the same peak: the band bounds it, not the grid
    small, large = (_traced_peak(build_family(n).fields) for n in (81, 161))
    assert large <= 1.25 * small, (small, large)


def test_worker_count_is_the_cpu_count_whatever_the_environment(monkeypatch):
    # pmcsurf reads no thread setting, so PMC_THREADS changes nothing
    for value in ("bogus", "3", ""):
        monkeypatch.setenv("PMC_THREADS", value)
        assert default_workers() == (os.cpu_count() or 1)


def _rows(P, lo, hi):
    """Rows lo..hi-1 of a prepared grid: each 2-D array sliced, all else kept."""
    if isinstance(P, dict):
        return {k: _rows(v, lo, hi) for k, v in P.items()}
    return P[lo:hi] if isinstance(P, np.ndarray) and P.ndim == 2 else P


def _parts(x):
    """The float parts of x with every NaN made the same NaN: any NaN equals any NaN."""
    v = np.ascontiguousarray(x).view(np.float64)
    return np.where(np.isnan(v), np.nan, v).tobytes()


@pytest.mark.parametrize("n", [101, 161])   # complex grid arrays below and above 256 KiB
def test_residual_bits_do_not_depend_on_the_array_size(n):
    # numpy evaluates some products in place, in swapped operand order, once
    # an operand reaches 256 KiB; a residual's bits must not see that
    P = _prepared(build_family(n).fields)
    rows = len(P["a"])   # the prepared block of every judged row
    band = 24   # rows per band, 65 KiB with one more row each side at 161; the last band is short
    assert (rows % band) not in (0, 1)
    for e in EQUATIONS:
        whole = e.residual(P)
        for lo in range(0, rows, band):
            hi = min(lo + band, rows)
            q_lo, q_hi = max(lo - 1, 0), min(hi + 1, rows)   # one row each side for the stencils
            part = e.residual(_rows(P, q_lo, q_hi))
            assert _parts(part[lo - q_lo:hi - q_lo]) == _parts(whole[lo:hi]), (
                e.equation, e.variant, lo)


def test_repeated_verify_runs_match_bitwise(locus_pair):
    rep1, rep2 = verify_suite(*locus_pair), verify_suite(*locus_pair)
    assert len(rep1.rows) == len(rep2.rows)
    for r1, r2 in zip(rep1.rows, rep2.rows):
        assert r1.equation == r2.equation and r1.variant == r2.variant
        assert r1.passed == r2.passed and r1.note == r2.note
        for x, y in ((r1.max_coarse, r2.max_coarse), (r1.max_fine, r2.max_fine),
                     (r1.order, r2.order)):
            assert (x is None and y is None) or np.float64(x).tobytes() == np.float64(y).tobytes()
