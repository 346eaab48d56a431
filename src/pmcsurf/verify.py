"""Finite-difference verification of the structure equations.

Every equation the construction promises is recast as a nodewise residual
over the stored fields, using central Wirtinger stencils for the derivative
terms. EQUATIONS holds one entry per equation: its kind, the mask bits that
void a node, and its residual over one prepared grid. Identity-class
residuals (no stencil involved) must sit at rounding level outright;
stencil-class residuals are judged by their convergence order across a grid
pair, which separates genuine structure failure from discretization error.
Two experimental diagnostics with unsettled source formulas are always
computed and reported but never gate the outcome. Each grid is prepared and
reduced to its per-equation maxima by itself (`_maxima`); the pair meets
only through those maxima.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._cascade_gen import T_IDS, cascade_values
from .coeffs import T9_READINGS, CoeffCache, EvalPoint, ModelParams, cascade_ok, omega1, phase_D
from .errors import ConfigError, ZeroDenominator
from .fields import MASK_DOMAIN, MASK_SINGULAR, MASK_NUPATH, SurfaceFields
from .profile import F_eval

MARGIN = 2           # frame nodes excluded from every statistic
CHUNK = 2048         # evaluable nodes per cascade chunk: bounds the cascade's live temporaries
ZERO_FLOOR = 1e-11   # residual pairs below this are degenerate-exact; no order is defined


@dataclass(frozen=True)
class Thresholds:
    identity_tol: float = 1e-10
    order_band: tuple = (1.7, 2.3)


# ---- Wirtinger stencils ----

def dz(F, hx, hy):
    out = np.full(F.shape, np.nan, dtype=np.complex128)
    fx = (F[2:, 1:-1] - F[:-2, 1:-1]) / (2.0 * hx)
    fy = (F[1:-1, 2:] - F[1:-1, :-2]) / (2.0 * hy)
    out[1:-1, 1:-1] = 0.5 * (fx - 1j * fy)
    return out


def dzbar(F, hx, hy):
    out = np.full(F.shape, np.nan, dtype=np.complex128)
    fx = (F[2:, 1:-1] - F[:-2, 1:-1]) / (2.0 * hx)
    fy = (F[1:-1, 2:] - F[1:-1, :-2]) / (2.0 * hy)
    out[1:-1, 1:-1] = 0.5 * (fx + 1j * fy)
    return out


def dzdzbar(F, hx, hy):
    out = np.full(F.shape, np.nan, dtype=np.complex128)
    xx = (F[2:, 1:-1] - 2.0 * F[1:-1, 1:-1] + F[:-2, 1:-1]) / (hx * hx)
    yy = (F[1:-1, 2:] - 2.0 * F[1:-1, 1:-1] + F[1:-1, :-2]) / (hy * hy)
    out[1:-1, 1:-1] = 0.25 * (xx + yy)
    return out


# ---- cascade values over a field grid ----

def _cascade_values(alpha, a, params: ModelParams) -> list:
    """t1, t2, the T_IDS values and t9 under each reading at one chunk of points.

    The values built on partials come from the straight-line function that
    scripts/gen_cascade.py derives from coeffs.py's cascade. t1 and t2 need
    no partials and are read from the jet cascade at order 0, which costs a
    few percent: OMEGA_CLOSED's phase density multiplies a one-ulp change in
    t1 about a hundredfold, which moves its order on the c1 = -1 family by
    2e-3.
    """
    if params.rho == 0:
        raise ZeroDenominator("rho = 0 makes t6 undefined")
    cache = CoeffCache(EvalPoint(alpha, a, params=params))
    return ([cache.get(1).value(), cache.get(2).value()]
            + list(cascade_values(alpha, a, np.conj(a), params.rho, params.b)))


def _prepare(fields: SurfaceFields) -> dict:
    """Everything the residuals read on one grid, the shared stencils included.

    Cascade evaluation runs on every node that clears the singularity guards
    and is not singularity-masked; phase-stage mask bits do not block it,
    since the angle and Hopf columns stay valid there. The evaluable nodes go
    through the cascade in chunks of CHUNK, which bounds its temporaries, and
    each chunk's values are written straight into their nodes of one
    preallocated row per value; the cascade is nodewise, so the result does
    not depend on the chunking. conj t1 is the conjugate of t1: the nodes
    are conjugate pairs (abar = conj a), so no chunk builds a mirror cascade.
    """
    hx, hy = fields.grid.hx, fields.grid.hy
    al, a, lam, c, mask = fields.alpha, fields.a, fields.lam, fields.c, fields.mask
    ok = cascade_ok(al) & ((mask & MASK_SINGULAR) == 0)
    at = np.flatnonzero(ok)
    vals = np.full((2 + len(T_IDS) + len(T9_READINGS), al.size), np.nan, dtype=np.complex128)
    for k in range(0, max(at.size, 1), CHUNK):   # one empty chunk when nothing is evaluable
        nodes = at[k:k + CHUNK]
        for row, v in zip(vals, _cascade_values(al.flat[nodes], a.flat[nodes], fields.params)):
            row[nodes] = v   # row by row: no (rows x CHUNK) temporary
    t1, t2, *cols = vals.reshape(len(vals), *al.shape)
    t = {1: t1, 2: t2, **dict(zip(T_IDS, cols))}
    t9 = dict(zip(T9_READINGS, cols[len(T_IDS):]))

    s = np.sin(al)
    cot = np.cos(al) / s
    alc = al.astype(np.complex128)
    dz_a, dzbar_a = dz(a, hx, hy), dzbar(a, hx, hy)
    a1 = dz_a / lam - a * t[1]
    t1b = np.conj(t1)   # named: c * conj(t1) inlined would swap the product's operands
    c1 = dzbar(c, hx, hy) / np.conj(lam) - c * t1b
    # phase one-form density from point data alone (the construction's W);
    # defined wherever the amplitude is admissible, whether or not the phase
    # integration succeeded downstream
    D = phase_D(al, a, fields.params)
    w_ok = ok & ((mask & MASK_DOMAIN) == 0) & (D > 0)
    om1 = omega1(al, a, t[1], t[2], D, fields.params)
    return {
        "fields": fields, "hx": hx, "hy": hy, "alpha": al, "a": a, "lam": lam,
        "c": c, "cot": cot, "b": fields.params.b,
        "E": 0.5 * fields.params.rho * (3.0 * (s * s) - 2.0),
        "dz_alpha": dz(alc, hx, hy), "dzbar_alpha": dzbar(alc, hx, hy),
        "dz_a": dz_a, "dzbar_a": dzbar_a, "t": t, "t9": t9, "a1": a1, "c1": c1,
        "W": np.where(w_ok, om1 * lam / np.where(D > 0, D, 1.0), np.nan),
        "mask": mask,
    }


# ---- the equations ----

# numpy computes a product whose right operand is a temporary of 256 KiB or more
# as (right * left) in place, and under FMA a complex product's last bit depends
# on operand order: so a11 here and LEMMA1_WEDGE's stencils stay named arrays.
def _e2_12(P: dict) -> np.ndarray:
    a11 = dz(P["a1"], P["hx"], P["hy"]) / P["lam"]
    return a11 * np.conj(P["a1"]) - (P["t"][7] * P["a1"] + P["t"][8])


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
_PHASE_BITS = MASK_NUPATH | MASK_DOMAIN
EQUATIONS = {
    # d alpha = (a+b) phi + (abar+b) phibar
    "E2_1": Equation("stencil", 0, lambda P: P["dz_alpha"] - (P["a"] + P["b"]) * P["lam"]),
    # frame factor antiholomorphic derivative
    "E2_2": Equation("stencil", MASK_SINGULAR, lambda P: dzbar(P["lam"], P["hx"], P["hy"])
                     + (np.conj(P["a"]) - P["b"]) * P["lam"] * np.conj(P["lam"]) * P["cot"]),
    # cascade curvature vs metric curvature
    "E2_3_gauss": Equation("stencil", 0, lambda P: (
        P["fields"].K_formula - P["fields"].K_metric).astype(np.complex128)),
    # abar-direction derivative of a
    "E2_4_codazzi_a": Equation("stencil", MASK_SINGULAR,
                               lambda P: P["dzbar_a"] - np.conj(P["lam"]) * P["t"][2]),
    # z-direction derivative of c
    "E2_5_codazzi_c": Equation("stencil", MASK_SINGULAR | _PHASE_BITS, lambda P: (
        dz(P["c"], P["hx"], P["hy"]) - 2.0 * P["c"] * (P["a"] - P["b"]) * P["cot"] * P["lam"])),
    # |c|^2 - |a|^2 = (rho/2)(3 sin^2 - 2), relative to 1 + |a|^2 + |c|^2
    "E2_6_ricci": Equation("identity", _PHASE_BITS, lambda P: (
        (np.abs(P["c"]) ** 2 - np.abs(P["a"]) ** 2 - P["E"])
        / (1.0 + np.abs(P["a"]) ** 2 + np.abs(P["c"]) ** 2))),
    # c conj(c1) = abar a1
    "E2_8": Equation("stencil", MASK_SINGULAR | _PHASE_BITS, lambda P: (
        P["c"] * np.conj(P["c1"]) - np.conj(P["a"]) * P["a1"])),
    # |c1|^2 - |a1|^2 = t5
    "E2_10": Equation("stencil", MASK_SINGULAR | _PHASE_BITS, lambda P: (
        np.abs(P["c1"]) ** 2 - np.abs(P["a1"]) ** 2 - P["t"][5])),
    # |a1|^2 = t6
    "E2_11": Equation("stencil", MASK_SINGULAR, lambda P: np.abs(P["a1"]) ** 2 - P["t"][6]),
    # second-derivative relation for a1
    "E2_12": Equation("experimental", MASK_SINGULAR, _e2_12),
    # linear relation among t9, a1, t10, under each reading of t9
    "E2_13": Equation("experimental", MASK_SINGULAR, _e2_13, T9_READINGS),
    # warped-angle PDE
    "E3_2": Equation("stencil", MASK_SINGULAR, lambda P: (
        dzdzbar(P["alpha"].astype(np.complex128), P["hx"], P["hy"])
        - F_eval(P["alpha"], P["a"], params=P["fields"].params)
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


def _max_stat(res: np.ndarray, mask: np.ndarray, relevant: int) -> float:
    core = res[MARGIN:-MARGIN, MARGIN:-MARGIN].copy()
    keep = (mask[MARGIN:-MARGIN, MARGIN:-MARGIN] & relevant) == 0
    core[~keep] = np.nan
    if not np.any(np.isfinite(core)):
        return float("nan")
    return float(np.nanmax(np.abs(core)))


def _maxima(fields: SurfaceFields) -> list:
    """Each task's largest judged residual on one grid, in TASKS order.

    The grid's prepared arrays die with the call, so a pair holds one
    grid's at a time: the two grids meet only through these maxima.
    """
    P = _prepare(fields)
    return [_max_stat(e.residual(P) if m is None else e.residual(P, m), P["mask"], e.mask)
            for e in EQUATIONS.values() for m in e.readings]


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
    equations only and records the rest. Experimental diagnostics never
    gate; the t9-sensitive one is reported under both readings.
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
        paired = not degraded and np.isfinite(mc) and np.isfinite(mf)
        if kind != "identity" and paired and (mc > ZERO_FLOOR or mf > ZERO_FLOOR):
            rep.order = float(np.log(mc / mf) / np.log(coarse.grid.h / fine.grid.h))
        if kind == "identity":
            rep.passed = bool(all(np.isfinite(m) and m <= thresholds.identity_tol
                                  for m in (mc, mf) if m is not None))
            if not np.isfinite(mc):
                rep.note = "no evaluable nodes"
        elif kind == "stencil":
            if degraded:
                rep.note = "order requires a grid pair"
            elif not paired:
                rep.passed, rep.note = False, "no evaluable nodes"
            elif rep.order is None:
                rep.passed, rep.note = True, "residual at rounding floor"
            else:
                rep.passed = bool(lo_band <= rep.order <= hi_band)
        rows.append(rep)
    return VerifyReport(rows=rows, degraded=degraded, thresholds=thresholds)
