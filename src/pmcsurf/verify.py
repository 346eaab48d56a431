"""Finite-difference verification of the structure equations.

Every equation the construction promises is recast as a nodewise residual
over the stored fields, using central Wirtinger stencils for the derivative
terms. EQUATIONS holds one entry per equation: its kind, the mask bits that
void a node, and its residual over one prepared grid. Identity-class
residuals (no stencil involved) must sit at rounding level outright;
stencil-class residuals are judged by their convergence order across a grid
pair, which separates genuine structure failure from discretization error.
Two experimental diagnostics with unsettled source formulas are always
computed and reported but never gate the outcome. Each grid is reduced to
its per-equation maxima by itself (`_maxima`), in bands of rows that are
prepared one at a time, so verify's live arrays are bounded by the band at
any grid; a band reads its input two rows beyond itself and prepares one
halo row each side, which every residual stencil on its rows needs. The
pair meets only through the maxima.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._cascade_gen import NC, NF, T_IDS, cascade_values
from .coeffs import T9_READINGS, CoeffCache, EvalPoint, cascade_ok, phase_D, phase_E, phase_W
from .errors import ConfigError, ZeroDenominator
from .fields import (MASK_DOMAIN, MASK_SINGULAR, MASK_NUPATH, SurfaceFields, dz, dzbar,
                     dzdzbar, field_columns, gauss_frame)
from .profile import F_eval

MARGIN = 2           # frame nodes excluded from every statistic
CHUNK = 2048         # nodes per band of rows, one row at the least: bounds verify's live arrays
ZERO_FLOOR = 1e-11   # residual pairs below this are degenerate-exact; no order is defined


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


def _cascade(al: np.ndarray, a: np.ndarray, ok: np.ndarray, own: slice, params,
             arena: tuple) -> np.ndarray:
    """The cascade rows t1, t2, T_IDS and the t9 readings over the prepared rows.

    t1 and t2 come at every evaluable node (ok), from one CoeffCache; the
    rest only at those in the flat node range own, from one generated call
    into arena (_arena, at least that many nodes). All else is NaN. The
    values go straight into their nodes of one preallocated row, out of the
    arena rows the next call reuses. The call allocates no array, so a band
    faults in no fresh pages, and its bits do not depend on how many nodes
    it takes.
    """
    at = np.flatnonzero(ok)
    vals = np.full((2 + len(T_IDS) + len(T9_READINGS), ok.size), np.nan, dtype=np.complex128)
    cache = CoeffCache(EvalPoint(al.flat[at], a.flat[at], params=params))
    vals[0, at], vals[1, at] = cache.get(1).value(), cache.get(2).value()
    at = at[np.searchsorted(at, own.start):np.searchsorted(at, own.stop)]
    a_own, (F, C) = a.flat[at], arena
    for row, v in zip(vals[2:], cascade_values(al.flat[at], a_own, np.conj(a_own), params.rho,
                                               params.b, F[:, :at.size], C[:, :at.size])):
        row[at] = v   # row by row: no (rows x nodes) temporary
    return vals.reshape(len(vals), *ok.shape)


def _prepare(fields: SurfaceFields, lo: int, hi: int, arena: tuple) -> dict:
    """Everything the residuals read on rows lo..hi-1 of one grid, the band,
    the shared stencils included; arena holds the generated cascade's
    temporaries (_cascade).

    Halo rule: the arrays cover the band and one row each side, cut from
    stencils over the input rows two beyond the band. A residual stencil
    reaches one row, and those of E2_12 and OMEGA_CLOSED read a1 and W on
    the halo rows, so every residual has on the band's rows the bits it has
    on the whole grid; "rows" says where the band's judged rows sit. rho =
    0 leaves t6 undefined and stops the grid at once. The cascade runs on
    the nodes that clear the singularity guards and are not
    singularity-masked (phase-stage bits leave the angle and Hopf columns
    valid): t1 and t2 on every prepared row, which a1, c1 and W need, and
    the T_IDS and t9 values on the band's own rows only, since no residual
    differences them. The T_IDS and t9 values come from the straight-line
    function of scripts/gen_cascade.py; t1 and t2 from the jet cascade at
    order 0, at a few percent of the cost: OMEGA_CLOSED multiplies a one-ulp
    change in t1 about a hundredfold, which moves its order on the c1 = -1
    family by 2e-3. The nodes are conjugate pairs (abar = conj a), so conj
    t1 needs no mirror cascade.
    """
    g, params = fields.grid, fields.params
    if params.rho == 0:
        raise ZeroDenominator("rho = 0 makes t6 undefined")
    hx, hy = g.hx, g.hy
    p0, p1 = max(lo - 1, 0), min(hi + 1, g.nx)   # the prepared rows: the band and its halo
    r0, r1 = max(lo - 2, 0), min(hi + 2, g.nx)   # the input rows their stencils read
    halo = slice(p0 - r0, p1 - r0)                # the prepared rows among the input rows
    al, a, lam, c, mask = (v[p0:p1] for v in (fields.alpha, fields.a, fields.lam, fields.c,
                                              fields.mask))
    ok = cascade_ok(al) & ((mask & MASK_SINGULAR) == 0)
    t1, t2, *cols = _cascade(al, a, ok, slice((lo - p0) * g.ny, (hi - p0) * g.ny), params,
                             arena)
    t = {1: t1, 2: t2, **dict(zip(T_IDS, cols))}
    t9 = dict(zip(T9_READINGS, cols[len(T_IDS):]))

    alc, a_in, c_in = fields.alpha[r0:r1].astype(np.complex128), fields.a[r0:r1], fields.c[r0:r1]
    dz_a = dz(a_in, hx, hy)[halo]
    # phase one-form density from point data alone (the construction's W);
    # defined wherever the amplitude is admissible, whether or not the phase
    # integration succeeded downstream
    D = phase_D(al, a, params)
    w_ok = ok & ((mask & MASK_DOMAIN) == 0) & (D > 0)
    judged = max(lo, MARGIN) - p0
    return {
        "hx": hx, "hy": hy, "params": params, "b": params.b, "alpha": al, "a": a,
        "lam": lam, "c": c, "cot": np.cos(al) / np.sin(al), "mask": mask,
        "rows": slice(judged, max(judged, min(hi, g.nx - MARGIN) - p0)),
        "K_formula": fields.K_formula[p0:p1], "K_metric": fields.K_metric[p0:p1],
        "dz_alpha": dz(alc, hx, hy)[halo], "dzbar_alpha": dzbar(alc, hx, hy)[halo],
        "dz_a": dz_a, "dzbar_a": dzbar(a_in, hx, hy)[halo], "t": t, "t9": t9,
        "a1": dz_a / lam - a * t1,
        "c1": dzbar(c_in, hx, hy)[halo] / np.conj(lam) - np.multiply(c, np.conj(t1)),
        "W": phase_W(al, a, lam, D, w_ok, t1[w_ok], t2[w_ok], params),
    }


# ---- the equations ----

def _e2_13(P: dict, reading: str) -> np.ndarray:
    prod = P["t9"][reading] * P["a1"]
    return prod + np.conj(prod) + P["t"][10]


class Equation(NamedTuple):
    kind: str                  # identity | stencil | experimental
    mask: int                  # mask bits that void a node for this equation
    residual: Callable         # prepared grid (and a t9 reading) -> nodewise residual
    readings: tuple = (None,)  # the t9 readings it is evaluated under; only E2_13 reads t9


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
EQUATIONS = {
    # d alpha = (a+b) phi + (abar+b) phibar
    "E2_1": Equation("stencil", 0, lambda P: P["dz_alpha"] - (P["a"] + P["b"]) * P["lam"]),
    # frame factor antiholomorphic derivative
    "E2_2": Equation("stencil", MASK_SINGULAR, lambda P: dzbar(P["lam"], P["hx"], P["hy"])
                     + (np.conj(P["a"]) - P["b"]) * P["lam"] * np.conj(P["lam"]) * P["cot"]),
    # cascade curvature vs metric curvature
    "E2_3_gauss": Equation("stencil", 0, lambda P: (
        P["K_formula"] - P["K_metric"]).astype(np.complex128)),
    # abar-direction derivative of a
    "E2_4_codazzi_a": Equation("stencil", MASK_SINGULAR,
                               lambda P: P["dzbar_a"] - np.conj(P["lam"]) * P["t"][2]),
    # z-direction derivative of c
    "E2_5_codazzi_c": Equation("stencil", MASK_SINGULAR | _PHASE_BITS, lambda P: (
        dz(P["c"], P["hx"], P["hy"]) - 2.0 * P["c"] * (P["a"] - P["b"]) * P["cot"] * P["lam"])),
    # |c|^2 - |a|^2 = (rho/2)(3 sin^2 - 2), relative to 1 + |a|^2 + |c|^2
    "E2_6_ricci": Equation("identity", _PHASE_BITS, lambda P: (
        (np.abs(P["c"]) ** 2 - np.abs(P["a"]) ** 2 - phase_E(P["alpha"], P["params"]))
        / (1.0 + np.abs(P["a"]) ** 2 + np.abs(P["c"]) ** 2))),
    # c conj(c1) = abar a1
    "E2_8": Equation("stencil", MASK_SINGULAR | _PHASE_BITS, lambda P: (
        np.multiply(P["c"], np.conj(P["c1"])) - np.conj(P["a"]) * P["a1"])),
    # |c1|^2 - |a1|^2 = t5
    "E2_10": Equation("stencil", MASK_SINGULAR | _PHASE_BITS, lambda P: (
        np.abs(P["c1"]) ** 2 - np.abs(P["a1"]) ** 2 - P["t"][5])),
    # |a1|^2 = t6
    "E2_11": Equation("stencil", MASK_SINGULAR, lambda P: np.abs(P["a1"]) ** 2 - P["t"][6]),
    # second-derivative relation for a1
    "E2_12": Equation("experimental", MASK_SINGULAR, lambda P: (
        np.multiply(dz(P["a1"], P["hx"], P["hy"]) / P["lam"], np.conj(P["a1"]))
        - (P["t"][7] * P["a1"] + P["t"][8]))),
    # linear relation among t9, a1, t10, under each reading of t9
    "E2_13": Equation("experimental", MASK_SINGULAR, _e2_13, T9_READINGS),
    # warped-angle PDE
    "E3_2": Equation("stencil", MASK_SINGULAR, lambda P: (
        dzdzbar(P["alpha"].astype(np.complex128), P["hx"], P["hy"])
        - F_eval(P["alpha"], P["a"], params=P["params"])
        * P["dz_alpha"] * P["dzbar_alpha"])),
    # phase one-form closedness
    "OMEGA_CLOSED": Equation("stencil", MASK_SINGULAR | MASK_DOMAIN, lambda P: (
        dzbar(P["W"], P["hx"], P["hy"]).real.astype(np.complex128))),
    # functional dependence of a on alpha
    "LEMMA1_WEDGE": Equation("stencil", 0, lambda P: (
        P["dz_alpha"] * P["dzbar_a"] - P["dzbar_alpha"] * P["dz_a"])),
}

# one task per (equation, t9 reading), in report order
TASKS = tuple((eq, m) for eq, e in EQUATIONS.items() for m in e.readings)


def _max_stat(res: np.ndarray, mask: np.ndarray, relevant: int, rows: slice) -> float:
    """The largest |residual| at the judged nodes of rows, an infinite one
    included; NaN when none holds a number. The frame columns never count."""
    cols = slice(MARGIN, -MARGIN)
    core = np.abs(res[rows, cols])
    core[(mask[rows, cols] & relevant) != 0] = np.nan
    return float(np.fmax.reduce(core, axis=None, initial=np.nan))


def _band_maxima(fields: SurfaceFields, lo: int, hi: int, arena: tuple) -> list:
    """_max_stat of every task over rows lo..hi-1, in TASKS order; the band's
    arrays die with the call."""
    P = _prepare(fields, lo, hi, arena)
    return [_max_stat(e.residual(P) if m is None else e.residual(P, m), P["mask"], e.mask,
                      P["rows"]) for e in EQUATIONS.values() for m in e.readings]


def _maxima(fields: SurfaceFields) -> list:
    """Each task's largest judged residual on one grid, in TASKS order: NaN
    when no judged node holds a number.

    A non-finite input is a ConfigError (_check_finite). The grid is walked
    in bands of about CHUNK nodes, one row at the least, each prepared by
    itself and freed before the next, so one band's arrays are alive at a
    time whatever the grid, and a pair meets only through these maxima.
    Every band's generated cascade writes into one arena, sized to a band's
    nodes and dropped with the grid. A maximum is exact, so the bands
    change no bit: np.fmax skips a band with no judged number.
    """
    _check_finite(fields)
    nx, ny = fields.grid.nx, fields.grid.ny
    step = max(1, CHUNK // ny)
    arena, top = _arena(min(step, nx) * ny), np.full(len(TASKS), np.nan)
    for lo in range(0, nx, step):
        top = np.fmax(top, _band_maxima(fields, lo, min(lo + step, nx), arena))
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
        return 0 if self.passed else 1

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
    """The thread count PMC_THREADS asks for, else the CPU count.

    Nothing in pmcsurf reads it any more (verification is single-threaded);
    it is kept for callers that label runs with it, such as perfbench.
    """
    env = os.environ.get("PMC_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"PMC_THREADS must be an integer, got {env!r}") from None
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
    max_f = [None] * len(TASKS) if degraded else _maxima(fine)

    lo_band, hi_band = thresholds.order_band
    rows = []
    for (eq, variant), mc, mf in zip(TASKS, max_c, max_f):
        kind = EQUATIONS[eq].kind
        rep = EquationReport(eq, kind, mc, mf, variant=variant)
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
