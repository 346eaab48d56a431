"""Finite-difference verification of the structure equations.

Every equation the construction promises is recast as a nodewise residual
over the stored fields, using central Wirtinger stencils for the derivative
terms. EQUATIONS holds one entry per report row, in report order: the
equation, its kind, the mask bits that void a node, its residual over one
prepared grid, and the variant, the t9 reading of each of E2_13's two
rows. Identity-class
residuals (no stencil involved) must sit at rounding level outright;
stencil-class residuals are judged by their convergence order across a grid
pair, which separates genuine structure failure from discretization error.
Two experimental diagnostics with unsettled source formulas are always
computed and reported but never gate the outcome. Each grid is reduced to
its per-row maxima by itself (`_maxima`), in bands of judged rows that are
prepared one at a time, so verify's live arrays are bounded by the band at
any grid; a band reads its input MARGIN rows beyond itself, and every
residual stencil on its judged nodes reads only nodes prepared from it. The
pair meets only through the maxima.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._cascade_gen import NC, NF, T_IDS, cascade_values
from .coeffs import T9_READINGS, CoeffCache, EvalPoint, cascade_ok, phase_D, phase_E, phase_W
from .errors import EXIT_OK, EXIT_RESIDUAL, ConfigError, ZeroDenominator
from .fields import (MASK_DOMAIN, MASK_SINGULAR, MASK_NUPATH, SurfaceFields, dz, dzbar,
                     dzdzbar, field_columns, gauss_frame)
from .profile import F_eval

MARGIN = 2           # the nested stencil reach: a stencil of a stencil's output is
                     # defined MARGIN nodes in, so only nodes that far in are judged
CHUNK = 2048         # judged nodes per band of rows, one row at the least: bounds verify's live arrays
ZERO_FLOOR = 1e-11   # residual pairs below this are degenerate-exact; no order is defined
_INNER = (slice(1, -1), slice(1, -1))   # the nodes a stencil fills on its input


@dataclass(frozen=True)
class Thresholds:
    identity_tol: float = 1e-10
    order_band: tuple = (1.7, 2.3)


def _check_finite(fields: SurfaceFields) -> None:
    """ConfigError naming the first column and node holding a non-finite input.

    nu and c need be finite only where the mask is 0, and K_metric only off
    its frame (fields.gauss_frame), where construct leaves it NaN; every
    other column at every node. The maxima skip NaN residuals, so a NaN that
    reached them would pass unjudged; the bundle is refused instead.
    """
    m = gauss_frame(fields.grid)
    off_frame = np.zeros(fields.mask.shape, dtype=bool)
    off_frame[m:-m, m:-m] = True
    clean = fields.mask == 0
    needed = {"nu": clean, "c": clean, "K_metric": off_frame}
    for name, column, part in field_columns(vars(fields)):
        part = part.reshape(fields.mask.shape)
        bad = ~np.isfinite(part) & needed.get(name, True)
        if bad.any():
            at, node = fields.grid.first_node(bad)
            raise ConfigError(f"column {column} holds {float(part[at])!r} at {node}")


def _arena(nodes: int) -> tuple:
    """The rows cascade_values writes its temporaries to, for up to nodes nodes."""
    return np.empty((NF, nodes)), np.empty((NC, nodes), dtype=np.complex128)


def _cascade(al: np.ndarray, a: np.ndarray, ok: np.ndarray, params, arena: tuple) -> np.ndarray:
    """The cascade rows t1, t2, T_IDS and the t9 readings over a prepared block.

    t1 and t2 come at every evaluable node (ok) of the block, from one
    CoeffCache; the rest only at the evaluable nodes of its _INNER, the
    judged nodes, from one generated call into arena (_arena, at least that
    many nodes). All else is NaN. The values go straight into their nodes of
    one NaN row block, out of the arena rows the next call reuses. The
    generated call allocates no temporary, so its bits do not depend on how
    many nodes it takes; the call still allocates the row block, which it
    returns, and the cache's jets.
    """
    vals = np.full((2 + len(T_IDS) + len(T9_READINGS), *ok.shape), np.nan, dtype=np.complex128)
    cache = CoeffCache(EvalPoint(al[ok], a[ok], params=params))
    vals[0][ok], vals[1][ok] = cache.get(1).value(), cache.get(2).value()
    ok, (F, C) = ok[_INNER], arena
    al, a = al[_INNER][ok], a[_INNER][ok]
    for row, v in zip(vals[2:], cascade_values(al, a, np.conj(a), params.rho, params.b,
                                               F[:, :a.size], C[:, :a.size])):
        row[_INNER][ok] = v   # row by row: no (rows x nodes) temporary
    return vals


def _prepare(fields: SurfaceFields, lo: int, hi: int, arena: tuple) -> dict:
    """Everything the residuals read around the judged rows lo..hi-1 of one
    grid, the band, the shared stencils included; arena holds the generated
    cascade's temporaries (_cascade).

    The band lies MARGIN rows off the edges (_maxima), so two blocks need no
    clamp: the input block, rows lo-MARGIN..hi+MARGIN-1 and every column,
    and the prepared block that every array here covers, its _INNER, where a
    stencil over it is defined. A residual stencil is defined on the
    prepared block's _INNER, the band's judged nodes, so every residual has
    there the bits it has on the whole grid. rho = 0 leaves t6 undefined and
    stops the grid at once. The cascade runs on the nodes that clear the
    singularity guards and are not singularity-masked (phase-stage bits
    leave the angle and Hopf columns valid): t1 and t2 on the prepared
    block, which a1, c1 and W need, and the T_IDS and t9 values on the
    judged nodes only, since no residual differences them. The T_IDS and t9
    values come from the straight-line function of scripts/gen_cascade.py;
    t1 and t2 from the jet cascade at order 0, at a few percent of the cost:
    OMEGA_CLOSED multiplies a one-ulp change in t1 about a hundredfold,
    which moves its order on the c1 = -1 family by 2e-3. The nodes are
    conjugate pairs (abar = conj a), so conj t1 needs no mirror cascade.
    """
    params, hx, hy = fields.params, fields.grid.hx, fields.grid.hy
    if params.rho == 0:
        raise ZeroDenominator("rho = 0 makes t6 undefined")
    rows = slice(lo - MARGIN, hi + MARGIN)   # the input block's rows
    al, a, lam, c, mask, K_formula, K_metric = (v[rows][_INNER] for v in (
        fields.alpha, fields.a, fields.lam, fields.c, fields.mask, fields.K_formula,
        fields.K_metric))
    ok = cascade_ok(al) & ((mask & MASK_SINGULAR) == 0)
    t1, t2, *cols = _cascade(al, a, ok, params, arena)
    t = {1: t1, 2: t2, **dict(zip(T_IDS, cols))}
    t9 = dict(zip(T9_READINGS, cols[len(T_IDS):]))

    alc, a_in, c_in = fields.alpha[rows].astype(np.complex128), fields.a[rows], fields.c[rows]
    dz_a = dz(a_in, hx, hy)[_INNER]
    # phase one-form density from point data alone (the construction's W);
    # defined wherever the amplitude is admissible, whether or not the phase
    # integration succeeded downstream
    D = phase_D(al, a, params)
    w_ok = ok & ((mask & MASK_DOMAIN) == 0) & (D > 0)
    return {
        "hx": hx, "hy": hy, "params": params, "b": params.b, "alpha": al, "a": a,
        "lam": lam, "c": c, "cot": np.cos(al) / np.sin(al), "mask": mask,
        "K_formula": K_formula, "K_metric": K_metric,
        "dz_alpha": dz(alc, hx, hy)[_INNER], "dzbar_alpha": dzbar(alc, hx, hy)[_INNER],
        "dz_a": dz_a, "dzbar_a": dzbar(a_in, hx, hy)[_INNER], "t": t, "t9": t9,
        "a1": dz_a / lam - a * t1,
        "c1": dzbar(c_in, hx, hy)[_INNER] / np.conj(lam) - np.multiply(c, np.conj(t1)),
        "W": phase_W(al, a, lam, D, w_ok, t1[w_ok], t2[w_ok], params),
    }


# ---- the equations ----

def _e2_13(t9: np.ndarray, P: dict) -> np.ndarray:
    prod = t9 * P["a1"]
    return prod + np.conj(prod) + P["t"][10]


class Equation(NamedTuple):
    equation: str              # the report row's name
    kind: str                  # identity | stencil | experimental
    mask: int                  # mask bits that void a node for this equation
    residual: Callable         # prepared grid -> nodewise residual
    variant: str | None = None  # the t9 reading an E2_13 row reads


# A node leaves an equation's statistic only when a mask bit its inputs
# depend on is set: phase-stage masking (path disagreement, no admissible
# amplitude) does not touch the angle, the Hopf coefficient, the frame
# factor, or the stored curvatures, so equations built from those columns
# keep the whole grid even on surfaces where the phase could not be
# integrated. Two experimental diagnostics with unsettled source formulas
# are computed and reported but never gate. Rows are reported in this order.
# A complex product with a temporary right operand is np.multiply(left, right):
# the operator lets numpy compute it as right * left in place once the
# temporary reaches 256 KiB, and a complex product's last bit depends on the
# order, so the bits would depend on the grid size.
_PHASE_BITS = MASK_NUPATH | MASK_DOMAIN
EQUATIONS = (
    # d alpha = (a+b) phi + (abar+b) phibar
    Equation("E2_1", "stencil", 0, lambda P: P["dz_alpha"] - (P["a"] + P["b"]) * P["lam"]),
    # frame factor antiholomorphic derivative
    Equation("E2_2", "stencil", MASK_SINGULAR, lambda P: dzbar(P["lam"], P["hx"], P["hy"])
             + (np.conj(P["a"]) - P["b"]) * P["lam"] * np.conj(P["lam"]) * P["cot"]),
    # cascade curvature vs metric curvature
    Equation("E2_3_gauss", "stencil", 0, lambda P: (
        P["K_formula"] - P["K_metric"]).astype(np.complex128)),
    # abar-direction derivative of a
    Equation("E2_4_codazzi_a", "stencil", MASK_SINGULAR,
             lambda P: P["dzbar_a"] - np.conj(P["lam"]) * P["t"][2]),
    # z-direction derivative of c
    Equation("E2_5_codazzi_c", "stencil", MASK_SINGULAR | _PHASE_BITS, lambda P: (
        dz(P["c"], P["hx"], P["hy"]) - 2.0 * P["c"] * (P["a"] - P["b"]) * P["cot"] * P["lam"])),
    # |c|^2 - |a|^2 = (rho/2)(3 sin^2 - 2), relative to 1 + |a|^2 + |c|^2
    Equation("E2_6_ricci", "identity", _PHASE_BITS, lambda P: (
        (np.abs(P["c"]) ** 2 - np.abs(P["a"]) ** 2 - phase_E(P["alpha"], P["params"]))
        / (1.0 + np.abs(P["a"]) ** 2 + np.abs(P["c"]) ** 2))),
    # c conj(c1) = abar a1
    Equation("E2_8", "stencil", MASK_SINGULAR | _PHASE_BITS, lambda P: (
        np.multiply(P["c"], np.conj(P["c1"])) - np.conj(P["a"]) * P["a1"])),
    # |c1|^2 - |a1|^2 = t5
    Equation("E2_10", "stencil", MASK_SINGULAR | _PHASE_BITS, lambda P: (
        np.abs(P["c1"]) ** 2 - np.abs(P["a1"]) ** 2 - P["t"][5])),
    # |a1|^2 = t6
    Equation("E2_11", "stencil", MASK_SINGULAR, lambda P: np.abs(P["a1"]) ** 2 - P["t"][6]),
    # second-derivative relation for a1
    Equation("E2_12", "experimental", MASK_SINGULAR, lambda P: (
        np.multiply(dz(P["a1"], P["hx"], P["hy"]) / P["lam"], np.conj(P["a1"]))
        - (P["t"][7] * P["a1"] + P["t"][8]))),
    # linear relation among t9, a1, t10: t9 as printed, then its alternate reading
    Equation("E2_13", "experimental", MASK_SINGULAR,
             lambda P: _e2_13(P["t9"]["as_printed"], P), "as_printed"),
    Equation("E2_13", "experimental", MASK_SINGULAR,
             lambda P: _e2_13(P["t9"]["alternate"], P), "alternate"),
    # warped-angle PDE
    Equation("E3_2", "stencil", MASK_SINGULAR, lambda P: (
        dzdzbar(P["alpha"].astype(np.complex128), P["hx"], P["hy"])
        - F_eval(P["alpha"], P["a"], params=P["params"])
        * P["dz_alpha"] * P["dzbar_alpha"])),
    # phase one-form closedness
    Equation("OMEGA_CLOSED", "stencil", MASK_SINGULAR | MASK_DOMAIN, lambda P: (
        dzbar(P["W"], P["hx"], P["hy"]).real.astype(np.complex128))),
    # functional dependence of a on alpha
    Equation("LEMMA1_WEDGE", "stencil", 0, lambda P: (
        P["dz_alpha"] * P["dzbar_a"] - P["dzbar_alpha"] * P["dz_a"])),
)


def _max_stat(res: np.ndarray, mask: np.ndarray, relevant: int) -> float:
    """The largest |residual| at the judged nodes of a prepared block, its
    _INNER, an infinite one included; NaN when none holds a number."""
    core = np.abs(res[_INNER])
    core[(mask[_INNER] & relevant) != 0] = np.nan
    return float(np.fmax.reduce(core, axis=None, initial=np.nan))


def _band_maxima(fields: SurfaceFields, lo: int, hi: int, arena: tuple) -> list:
    """_max_stat of every row of EQUATIONS over the judged rows lo..hi-1; the
    band's arrays die with the call."""
    P = _prepare(fields, lo, hi, arena)
    return [_max_stat(e.residual(P), P["mask"], e.mask) for e in EQUATIONS]


def _maxima(fields: SurfaceFields) -> list:
    """Each row's largest judged residual on one grid, in EQUATIONS order: NaN
    when no judged node holds a number.

    A non-finite input is a ConfigError (_check_finite). The judged rows,
    MARGIN..nx-MARGIN-1, are walked in bands of about CHUNK judged nodes,
    one row at the least, each prepared by itself and freed before the
    next, so one band's arrays are alive at a time whatever the grid, and a
    pair meets only through these maxima. A grid has 5 nodes a side at the
    least (Grid), so it has a judged node. Every band's generated cascade
    writes into one arena, sized to a band's judged nodes and dropped with
    the grid. A maximum is exact, so the bands change no bit: np.fmax skips
    a band with no judged number.
    """
    _check_finite(fields)
    nx, width = fields.grid.nx, fields.grid.ny - 2 * MARGIN
    step = max(1, CHUNK // width)
    arena, top = _arena(min(step, nx - 2 * MARGIN) * width), np.full(len(EQUATIONS), np.nan)
    for lo in range(MARGIN, nx - MARGIN, step):
        top = np.fmax(top, _band_maxima(fields, lo, min(lo + step, nx - MARGIN), arena))
    return [float(m) for m in top]


@dataclass
class EquationReport:
    equation: str
    kind: str                      # identity | stencil | experimental
    max_coarse: float
    max_fine: float | None = None
    order: float | None = None
    passed: bool | None = None     # None: recorded only (experimental or degraded)
    variant: str | None = None
    note: str = ""

    def row(self) -> dict:
        """The JSON row; an empty variant or note and an absent max_fine or order are left out."""
        d = {"equation": self.equation, "kind": self.kind, "max_coarse": self.max_coarse,
             "variant": self.variant, "max_fine": self.max_fine, "order": self.order,
             "passed": self.passed, "note": self.note or None}
        return {k: v for k, v in d.items() if v is not None or k == "passed"}


@dataclass
class VerifyReport:
    rows: list
    degraded: bool
    thresholds: Thresholds

    @property
    def passed(self) -> bool:
        return all(r.passed is not False for r in self.rows)

    @property
    def exit_code(self) -> int:
        return EXIT_OK if self.passed else EXIT_RESIDUAL

    def to_dict(self) -> dict:
        return {"degraded": self.degraded,
                "identity_tol": self.thresholds.identity_tol,
                "order_band": list(self.thresholds.order_band),
                "passed": self.passed,
                "rows": [r.row() for r in self.rows]}

    def table(self) -> str:
        lines = [f"{'equation':<22}{'kind':<14}{'max(h)':>12}{'max(h/2)':>12}{'order':>8}  status"]
        for r in self.rows:
            name = r.equation + (f"[{r.variant}]" if r.variant else "")
            fine = f"{r.max_fine:.3e}" if r.max_fine is not None else "-"
            order = f"{r.order:.2f}" if r.order is not None else "-"
            status = {True: "pass", False: "FAIL", None: "recorded"}[r.passed]
            note = f"  ({r.note})" if r.note else ""
            lines.append(f"{name:<22}{r.kind:<14}{r.max_coarse:>12.3e}{fine:>12}{order:>8}  {status}{note}")
        return "\n".join(lines)


def _check_pair(coarse: SurfaceFields, fine: SurfaceFields):
    gc, gf = coarse.grid, fine.grid
    for att in ("x0", "x1", "y0", "y1"):
        if abs(getattr(gc, att) - getattr(gf, att)) > 1e-9:
            raise ConfigError("grid pair covers different rectangles")
    if not (gf.h < gc.h):
        raise ConfigError("second grid must be the finer one")
    if coarse.params != fine.params:
        raise ConfigError("grid pair was built with different model parameters")


def default_workers() -> int:
    """The CPU count. pmcsurf runs in one thread and reads no setting for
    this; perfbench labels its runs with the number."""
    return os.cpu_count() or 1


def verify_suite(coarse: SurfaceFields, fine: SurfaceFields | None = None,
                 thresholds: Thresholds = Thresholds()) -> VerifyReport:
    """Evaluate every residual on one surface or a resolution pair.

    With a pair, stencil-class equations are judged by convergence order
    inside the band; residual pairs at rounding level are degenerate-exact
    and pass without an order. Single-surface mode judges identity-class
    equations only and records the rest. A judged row fails when a maximum
    is NaN ("no evaluable nodes") or infinite ("non-finite residual").
    Experimental diagnostics never gate; the t9-sensitive one is reported
    under both readings.
    """
    degraded = fine is None
    if not degraded:
        _check_pair(coarse, fine)
    max_c = _maxima(coarse)
    max_f = [None] * len(EQUATIONS) if degraded else _maxima(fine)

    lo_band, hi_band = thresholds.order_band
    rows = []
    for e, mc, mf in zip(EQUATIONS, max_c, max_f):
        kind = e.kind
        rep = EquationReport(e.equation, kind, mc, mf, variant=e.variant)
        judged = [m for m in (mc, mf) if m is not None]
        paired = not degraded and np.isfinite(judged).all()
        if kind != "identity" and paired and (mc > ZERO_FLOOR or mf > ZERO_FLOOR):
            rep.order = float(np.log(mc / mf) / np.log(coarse.grid.h / fine.grid.h))
        if kind == "experimental":
            pass   # recorded only
        elif kind == "stencil" and degraded:
            rep.note = "order requires a grid pair"
        elif np.isnan(judged).any():
            rep.passed, rep.note = False, "no evaluable nodes"
        elif np.isinf(judged).any():
            rep.passed, rep.note = False, "non-finite residual"
        elif kind == "identity":
            rep.passed = max(judged) <= thresholds.identity_tol
        elif rep.order is None:
            rep.passed, rep.note = True, "residual at rounding floor"
        else:
            rep.passed = bool(lo_band <= rep.order <= hi_band)
        rows.append(rep)
    return VerifyReport(rows=rows, degraded=degraded, thresholds=thresholds)
