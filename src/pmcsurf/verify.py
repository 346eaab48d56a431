"""Finite-difference verification of the structure equations.

Every equation the construction promises is recast as a nodewise residual
over the stored fields, using central Wirtinger stencils for the derivative
terms. Identity-class residuals (no stencil involved) must sit at rounding
level outright; stencil-class residuals are judged by their convergence
order across a grid pair, which separates genuine structure failure from
discretization error. Two diagnostics with unsettled source formulas are
always computed and reported but never gate the outcome.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coeffs import T9_READINGS, CoeffCache, EvalPoint, cascade_ok, omega1, phase_D
from .errors import ConfigError
from .fields import MASK_DOMAIN, MASK_SINGULAR, MASK_NUPATH, SurfaceFields
from .profile import F_eval

EQUATIONS = (
    "E2_1",            # d alpha = (a+b) phi + (abar+b) phibar
    "E2_2",            # frame factor antiholomorphic derivative
    "E2_3_gauss",      # cascade curvature vs metric curvature
    "E2_4_codazzi_a",  # abar-direction derivative of a
    "E2_5_codazzi_c",  # z-direction derivative of c
    "E2_6_ricci",      # |c|^2 - |a|^2 = (rho/2)(3 sin^2 - 2)
    "E2_8",            # c conj(c1) = abar a1
    "E2_10",           # |c1|^2 - |a1|^2 = t5
    "E2_11",           # |a1|^2 = t6
    "E2_12",           # second-derivative relation for a1 (experimental)
    "E2_13",           # linear relation among t9, a1, t10 (experimental)
    "E3_2",            # warped-angle PDE
    "OMEGA_CLOSED",    # phase one-form closedness
    "LEMMA1_WEDGE",    # functional dependence of a on alpha
)

IDENTITY_CLASS = frozenset({"E2_6_ricci"})
EXPERIMENTAL = frozenset({"E2_12", "E2_13"})

MARGIN = 2           # frame nodes excluded from every statistic
CHUNK = 2048         # evaluable nodes per cascade chunk: bounds the jets alive per worker
ZERO_FLOOR = 1e-11   # residual pairs below this are degenerate-exact; no order is defined

# Mask bits that invalidate each equation's inputs. A node leaves a statistic
# only when a bit the equation actually depends on is set: phase-stage masking
# (path disagreement, no admissible amplitude) does not touch the angle, the
# Hopf coefficient, the frame factor, or the stored curvatures, so equations
# built from those columns keep the whole grid even on surfaces where the
# phase could not be integrated.
_PHASE_BITS = MASK_NUPATH | MASK_DOMAIN
MASK_RELEVANCE = {
    "E2_1": 0,
    "E2_2": MASK_SINGULAR,
    "E2_3_gauss": 0,
    "E2_4_codazzi_a": MASK_SINGULAR,
    "E2_5_codazzi_c": MASK_SINGULAR | _PHASE_BITS,
    "E2_6_ricci": _PHASE_BITS,
    "E2_8": MASK_SINGULAR | _PHASE_BITS,
    "E2_10": MASK_SINGULAR | _PHASE_BITS,
    "E2_11": MASK_SINGULAR,
    "E2_12": MASK_SINGULAR,
    "E2_13": MASK_SINGULAR,
    "E3_2": MASK_SINGULAR,
    "OMEGA_CLOSED": MASK_SINGULAR | MASK_DOMAIN,
    "LEMMA1_WEDGE": 0,
}


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

T_IDS = (1, 2, 5, 6, 7, 8, 10)   # the coefficients the residuals read, besides conj t1 and t9


def _cascade_values(point: EvalPoint) -> list:
    """The T_IDS values, conj t1 and t9 under each reading at one chunk of points."""
    cache = CoeffCache(point)
    return ([cache.get(i).value() for i in T_IDS]
            + [cache.get(1, conjugated=True).value()]
            + [cache.get(9, t9_mode=m).value() for m in T9_READINGS])


def _prepare(fields: SurfaceFields, workers: int = 1) -> dict:
    """Everything the residual evaluators read, computed up front.

    Cascade evaluation runs on every node that clears the singularity guards
    and is not singularity-masked; phase-stage mask bits do not block it,
    since the angle and Hopf columns stay valid there. The evaluable nodes go
    through the cascade in chunks of CHUNK, on a pool of `workers` threads
    when there is more than one; each chunk's jets are freed when it ends,
    and the values are joined in node order, so the result does not depend
    on the chunking or the thread count.
    """
    g = fields.grid
    hx, hy = g.hx, g.hy
    al, a, lam, c = fields.alpha, fields.a, fields.lam, fields.c
    mask = fields.mask
    ok = cascade_ok(al) & ((mask & MASK_SINGULAR) == 0)
    al_ok, a_ok = al[ok], a[ok]

    def chunk(k):
        return _cascade_values(EvalPoint(al_ok[k:k + CHUNK], a_ok[k:k + CHUNK],
                                         params=fields.params))

    starts = range(0, max(al_ok.size, 1), CHUNK)   # one empty chunk when nothing is evaluable
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(chunk, starts))
    else:
        parts = [chunk(k) for k in starts]

    def scatter(*vals):
        out = np.full(al.shape, np.nan, dtype=np.complex128)
        out[ok] = np.concatenate(vals)
        return out

    cols = [scatter(*vals) for vals in zip(*parts)]
    t = dict(zip(T_IDS, cols))
    t1b = cols[len(T_IDS)]
    t9 = dict(zip(T9_READINGS, cols[len(T_IDS) + 1:]))

    s = np.sin(al)
    cot = np.cos(al) / s
    s2 = s * s
    b, rho = fields.params.b, fields.params.rho
    E = 0.5 * rho * (3.0 * s2 - 2.0)
    a1 = dz(a, hx, hy) / lam - a * t[1]
    c1 = dzbar(c, hx, hy) / np.conj(lam) - c * t1b
    # phase one-form density from point data alone (the construction's W);
    # defined wherever the amplitude is admissible, whether or not the phase
    # integration succeeded downstream
    D = phase_D(al, a, fields.params)
    w_ok = ok & ((mask & MASK_DOMAIN) == 0) & (D > 0)
    om1 = omega1(al, a, t[1], t[2], D, fields.params)
    return {
        "fields": fields, "hx": hx, "hy": hy, "alpha": al, "a": a, "lam": lam,
        "c": c, "cot": cot, "s2": s2, "b": b, "rho": rho, "E": E,
        "t": t, "t9": t9, "a1": a1, "c1": c1,
        "W": np.where(w_ok, om1 * lam / np.where(D > 0, D, 1.0), np.nan),
        "mask": mask,
    }


def _residual(key: str, P: dict, variant: str | None = None) -> np.ndarray:
    f = P["fields"]
    hx, hy = P["hx"], P["hy"]
    al, a, lam, c = P["alpha"], P["a"], P["lam"], P["c"]
    b = P["b"]
    t = P["t"]
    if key == "E2_1":
        return dz(al.astype(np.complex128), hx, hy) - (a + b) * lam
    if key == "E2_2":
        return dzbar(lam, hx, hy) + (np.conj(a) - b) * lam * np.conj(lam) * P["cot"]
    if key == "E2_3_gauss":
        return (f.K_formula - f.K_metric).astype(np.complex128)
    if key == "E2_4_codazzi_a":
        return dzbar(a, hx, hy) - np.conj(lam) * t[2]
    if key == "E2_5_codazzi_c":
        return dz(c, hx, hy) - 2.0 * c * (a - b) * P["cot"] * lam
    if key == "E2_6_ricci":
        res = np.abs(c) ** 2 - np.abs(a) ** 2 - P["E"]
        return res / (1.0 + np.abs(a) ** 2 + np.abs(c) ** 2)
    if key == "E2_8":
        return c * np.conj(P["c1"]) - np.conj(a) * P["a1"]
    if key == "E2_10":
        return np.abs(P["c1"]) ** 2 - np.abs(P["a1"]) ** 2 - t[5]
    if key == "E2_11":
        return np.abs(P["a1"]) ** 2 - t[6]
    if key == "E2_12":
        a11 = dz(P["a1"], hx, hy) / lam
        return a11 * np.conj(P["a1"]) - (t[7] * P["a1"] + t[8])
    if key == "E2_13":
        prod = P["t9"][variant] * P["a1"]
        return prod + np.conj(prod) + t[10]
    if key == "E3_2":
        alc = al.astype(np.complex128)
        F = F_eval(al, a, params=f.params)
        return dzdzbar(alc, hx, hy) - F * dz(alc, hx, hy) * dzbar(alc, hx, hy)
    if key == "OMEGA_CLOSED":
        return dzbar(P["W"], hx, hy).real.astype(np.complex128)
    if key == "LEMMA1_WEDGE":
        alc = al.astype(np.complex128)
        return dz(alc, hx, hy) * dzbar(a, hx, hy) - dzbar(alc, hx, hy) * dz(a, hx, hy)
    raise ConfigError(f"unknown equation id: {key}")


def _max_stat(res: np.ndarray, mask: np.ndarray, relevant: int) -> float:
    core = res[MARGIN:-MARGIN, MARGIN:-MARGIN].copy()
    keep = (mask[MARGIN:-MARGIN, MARGIN:-MARGIN] & relevant) == 0
    core[~keep] = np.nan
    if not np.any(np.isfinite(core)):
        return float("nan")
    return float(np.nanmax(np.abs(core)))


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
        d = {"equation": self.equation, "kind": self.kind,
             "max_coarse": self.max_coarse}
        if self.variant:
            d["variant"] = self.variant
        if self.max_fine is not None:
            d["max_fine"] = self.max_fine
        if self.order is not None:
            d["order"] = self.order
        d["passed"] = self.passed
        if self.note:
            d["note"] = self.note
        return d


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


# one task per (equation, t9 reading); only E2_13 reads t9
TASKS = tuple((eq, m) for eq in EQUATIONS
              for m in (T9_READINGS if eq == "E2_13" else (None,)))


def default_workers() -> int:
    env = os.environ.get("PMC_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"PMC_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def verify_suite(coarse: SurfaceFields, fine: SurfaceFields | None = None,
                 thresholds: Thresholds = Thresholds(),
                 max_workers: int | None = None) -> VerifyReport:
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
    workers = max_workers or default_workers()
    prep_c = _prepare(coarse, workers)
    prep_f = None if degraded else _prepare(fine, workers)

    def run(task):
        eq, variant = task
        rel = MASK_RELEVANCE[eq]
        mc = _max_stat(_residual(eq, prep_c, variant), prep_c["mask"], rel)
        mf = None
        if prep_f is not None:
            mf = _max_stat(_residual(eq, prep_f, variant), prep_f["mask"], rel)
        return eq, variant, mc, mf

    lo_band, hi_band = thresholds.order_band
    rows = []
    for eq, variant, mc, mf in map(run, TASKS):
        kind = ("experimental" if eq in EXPERIMENTAL
                else "identity" if eq in IDENTITY_CLASS else "stencil")
        rep = EquationReport(equation=eq, kind=kind, max_coarse=mc, max_fine=mf,
                             variant=variant)
        if kind == "identity":
            ok = np.isfinite(mc) and mc <= thresholds.identity_tol
            if mf is not None:
                ok = ok and np.isfinite(mf) and mf <= thresholds.identity_tol
            rep.passed = bool(ok)
            if not np.isfinite(mc):
                rep.note = "no evaluable nodes"
        elif kind == "stencil":
            if degraded:
                rep.note = "order requires a grid pair"
            elif not (np.isfinite(mc) and np.isfinite(mf)):
                rep.passed = False
                rep.note = "no evaluable nodes"
            elif mc <= ZERO_FLOOR and mf <= ZERO_FLOOR:
                rep.passed = True
                rep.note = "residual at rounding floor"
            else:
                hc, hf = coarse.grid.h, fine.grid.h
                rep.order = float(np.log(mc / mf) / np.log(hc / hf))
                rep.passed = bool(lo_band <= rep.order <= hi_band)
        else:
            if not degraded and np.isfinite(mc) and np.isfinite(mf) \
                    and (mc > ZERO_FLOOR or mf > ZERO_FLOOR):
                rep.order = float(np.log(mc / mf) / np.log(coarse.grid.h / fine.grid.h))
        rows.append(rep)
    return VerifyReport(rows=rows, degraded=degraded, thresholds=thresholds)
