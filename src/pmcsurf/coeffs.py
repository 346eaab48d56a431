"""The torsion coefficient cascade t1..t13.

Thirteen functions of (alpha, a, abar) built by repeated differentiation,
evaluated as jets so that the partials a formula consumes (for example the
alpha-partial of t1 inside t3) come from one-order-higher evaluations of the
same cascade. Conjugated coefficients follow the swap rule

    tbar_i(alpha, a, abar) = t_i(alpha, abar, a),

implemented by a mirror evaluation at the swapped point plus an exponent
permutation, never by assuming abar is the complex conjugate of a.

Two readings of damaged source formulas are carried:

* t9_mode: the last term of t9 is "as_printed" (a partial of t6) or
  "alternate" (the pattern-consistent partial of t7). Inside the internal
  _Cascade it is a memo key of t9 and of t11..t13 built on it, not a cascade
  flag, so one cascade serves both readings (scripts/gen_cascade.py asks it
  for both). A CoeffCache reads one, fixed when it is built. Residual
  diagnostics report both; this module asserts neither.
* appendix_reconciliation: t10 contains a brace-damaged tail read as
  -t8*tbar8. "assume" proceeds with that reading, "reject" refuses to
  evaluate t10..t13; this one is a cascade flag.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularPoint, UnresolvedFormula, ZeroDenominator
from .jets import Jet, differentiate, jcos, jsin, jsqrt, reciprocal

SIN_GUARD = 1e-9        # |sin(alpha)| floor
SING_GUARD = 1e-6       # |3 sin^2(alpha) - 2| floor
T9_GUARD = 1e-12        # |t9| floor for the quadratic roots

VALID_IDS = tuple(range(1, 14))
T9_READINGS = ("as_printed", "alternate")
READING_IDS = frozenset({9, 11, 12, 13})   # the coefficients that depend on the t9 reading


@dataclass(frozen=True)
class ModelParams:
    """Ambient curvature scale rho and mean-curvature half-length b (> 0).

    rho = 0 stays legal here (t1..t5 exist there); the pipelines reject it.
    """
    rho: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.rho) and np.isfinite(self.b) and self.b > 0.0):
            raise ConfigError(f"need finite rho and b > 0, got rho = {self.rho}, b = {self.b}")


@dataclass
class EvalPoint:
    """A point (or numpy array of points) in the formal (alpha, a, abar) space."""

    alpha: np.ndarray
    a: np.ndarray
    abar: np.ndarray
    params: ModelParams

    def __init__(self, alpha, a, abar=None, *, params: ModelParams):
        self.alpha = np.asarray(alpha, dtype=np.float64)
        self.a = np.asarray(a, dtype=np.complex128)
        self.abar = np.conj(self.a) if abar is None else np.asarray(abar, dtype=np.complex128)
        self.params = params


def cascade_ok(alpha) -> np.ndarray:
    """True where |sin(alpha)| and |3 sin^2(alpha) - 2| clear their guards.

    The comparisons are > so that a NaN angle fails.
    """
    s = np.sin(alpha)
    return (np.abs(s) > SIN_GUARD) & (np.abs(3.0 * s * s - 2.0) > SING_GUARD)


def check_guards(point: EvalPoint) -> None:
    if not np.all(cascade_ok(point.alpha)):
        raise SingularPoint("alpha within guard of sin(alpha) = 0 or sin^2(alpha) = 2/3")


# ---- order-0 values in plain numpy, for callers that need no partials ----

def t1_value(alpha, a, params: ModelParams):
    s = np.sin(alpha)
    cot = np.cos(alpha) / s
    b = params.b
    return (-4.0 * b + 12.0 * b * s * s + 4.0 * a + 3.0 * a * s * s) * cot / (3.0 * s * s - 2.0)


def t2_value(alpha, a, abar, params: ModelParams):
    cot = np.cos(alpha) / np.sin(alpha)
    return 2.0 * a * (abar - params.b) * cot \
        + 1.5 * params.rho * np.sin(alpha) * np.cos(alpha)


def phase_D(alpha, a, params: ModelParams):
    """|c|^2 = |a|^2 + (rho/2)(3 sin^2(alpha) - 2), the phase denominator D."""
    s2 = np.sin(alpha) ** 2
    return np.abs(a) ** 2 + 0.5 * params.rho * (3.0 * s2 - 2.0)


def omega1(alpha, a, t1, t2, D, params: ModelParams):
    """Phase numerator D (2 (a - b) cot - t1) - abar a1, with a1 from the amplitude ODE."""
    b = params.b
    ab = np.conj(a)
    cot = np.cos(alpha) / np.sin(alpha)
    a1 = -a * t1 + (a + b) * t2 / (ab + b)
    return D * (2.0 * (a - b) * cot - t1) - ab * a1


class _Cascade:
    """Memoized jet evaluation of the cascade at one point batch.

    scripts/gen_cascade.py runs these same formulas on sympy symbols by
    overriding base, trig, d and mirror, so a formula may reach the point
    only through those, self.point.params and reciprocal.
    """

    def __init__(self, point: EvalPoint, appendix: str, trig: dict | None = None):
        self.point = point
        self.appendix = appendix
        self._memo: dict = {}
        self._trig = {} if trig is None else trig   # order -> alpha jets; the mirror shares them
        self._mirror: _Cascade | None = None

    def mirror(self) -> "_Cascade":
        if self._mirror is None:
            swapped = EvalPoint(self.point.alpha, self.point.abar, self.point.a,
                                params=self.point.params)
            self._mirror = _Cascade(swapped, self.appendix, self._trig)
            # a weak way back: no reference cycle, so refcounting frees both
            self._mirror._mirror = weakref.proxy(self)
        return self._mirror

    # ---- base jets and shared subexpressions ----

    def base(self, order: int):
        key = ("base", order)
        if key not in self._memo:
            p = self.point
            self._memo[key] = (Jet.variable(0, p.alpha, order),
                               Jet.variable(1, p.a, order),
                               Jet.variable(2, p.abar, order))
        return self._memo[key]

    def trig(self, order: int):
        if order not in self._trig:
            al, _, _ = self.base(order)
            s, cos = jsin(al), jcos(al)
            s2 = s * s
            self._trig[order] = {"s": s, "s2": s2, "cot": cos * reciprocal(s),
                                 "cos": cos, "inv_s2": reciprocal(s2)}
        return self._trig[order]

    # ---- partials of a lower coefficient, read one order up ----

    def d(self, i: int, var: int, order: int, conj: bool = False) -> Jet:
        return differentiate(self.t(i, order + 1, conj), var)

    # ---- the cascade ----

    def t(self, i: int, order: int, conj: bool = False, branch: int = +1,
          reading: str | None = None) -> Jet:
        if i not in VALID_IDS:
            raise ValueError(f"coefficient id out of range: {i}")
        if i >= 10 and self.appendix == "reject":
            raise UnresolvedFormula(
                "t10 carries an unreconciled source formula; evaluation disabled in reject mode")
        if i >= 6 and self.point.params.rho == 0:
            raise ZeroDenominator("rho = 0 makes t6 undefined")
        key = (i, order, conj, branch if i >= 11 else 0, reading if i in READING_IDS else None)
        if key in self._memo:
            return self._memo[key]
        if conj:
            out = self.mirror().t(i, order, False, branch, reading).swap_vars()
        elif i == 9:
            out = self._t9(order, reading)
        elif i >= 11:
            out = getattr(self, f"_t{i}")(order, branch, reading)
        else:
            out = getattr(self, f"_t{i}")(order)
        self._memo[key] = out
        return out

    def _t1(self, m):
        al, a, _ = self.base(m)
        tr = self.trig(m)
        b = self.point.params.b
        num = (-4.0 * b) + (12.0 * b) * tr["s2"] + 4.0 * a + 3.0 * (a * tr["s2"])
        return num * tr["cot"] * reciprocal(3.0 * tr["s2"] - 2.0)

    def _t2(self, m):
        _, a, ab = self.base(m)
        tr = self.trig(m)
        p = self.point.params
        return 2.0 * (a * (ab - p.b)) * tr["cot"] + (1.5 * p.rho) * (tr["s"] * tr["cos"])

    def _t3(self, m):
        _, a, ab = self.base(m)
        tr = self.trig(m)
        b = self.point.params.b
        t1, t2 = self.t(1, m), self.t(2, m)
        t2b = self.t(2, m, conj=True)
        return (-(t1 * t2) - t2 * ((a - b) * tr["cot"])
                + 3.0 * (a * ((ab - b) * (t1 * tr["cot"])))
                - a * ((ab + b) * self.d(1, 0, m))
                - a * (t2 * self.d(1, 1, m))
                + (a + b) * self.d(2, 0, m)
                + t2b * self.d(2, 2, m))

    def _t4(self, m):
        _, a, ab = self.base(m)
        tr = self.trig(m)
        b = self.point.params.b
        t2 = self.t(2, m)
        t1b = self.t(1, m, conj=True)
        t2b = self.t(2, m, conj=True)
        paren = (t2 * tr["cot"] - ((a - b) * (ab - b)) * (tr["cot"] * tr["cot"])
                 - ((a - b) * (ab + b)) * tr["inv_s2"])
        return (2.0 * paren + t1b * ((a - b) * tr["cot"])
                - (a + b) * self.d(1, 0, m, conj=True)
                - t2b * self.d(1, 2, m, conj=True))

    def _E(self, m):
        tr = self.trig(m)
        return (0.5 * self.point.params.rho) * (3.0 * tr["s2"] - 2.0)

    def _D(self, m):
        _, a, ab = self.base(m)
        return a * ab + self._E(m)

    def _t5(self, m):
        _, _, ab = self.base(m)
        return self.t(3, m) * ab - self.t(4, m, conj=True) * self._D(m)

    def _t6(self, m):
        return -(self.t(5, m) * self._D(m)) * reciprocal(self._E(m))

    def _t7(self, m):
        return -self.t(3, m, conj=True) + self.d(6, 1, m)

    def _t8(self, m):
        _, a, ab = self.base(m)
        tr = self.trig(m)
        b = self.point.params.b
        t1 = self.t(1, m)
        t2b = self.t(2, m, conj=True)
        t6 = self.t(6, m)
        return (-3.0 * (t6 * ((a - b) * tr["cot"]))
                + (a + b) * self.d(6, 0, m)
                + (a * t1) * self.d(6, 1, m)
                + t2b * self.d(6, 2, m))

    def _t9(self, m, reading):
        _, _, ab = self.base(m)
        tr = self.trig(m)
        b = self.point.params.b
        t2 = self.t(2, m)
        t6, t7 = self.t(6, m), self.t(7, m)
        at1_bar = ab * self.t(1, m, conj=True)
        last = self.d(6, 2, m) if reading == "as_printed" else self.d(7, 2, m)
        core = (-((ab - b) * (t7 * tr["cot"])) + (ab + b) * self.d(7, 0, m)
                + t2 * self.d(7, 1, m) + at1_bar * last)
        return t6 * core - t7 * self.t(8, m, conj=True)

    def _t10(self, m):
        _, a, ab = self.base(m)
        tr = self.trig(m)
        b = self.point.params.b
        t2 = self.t(2, m)
        t2b = self.t(2, m, conj=True)
        t3, t6, t7, t8 = self.t(3, m), self.t(6, m), self.t(7, m), self.t(8, m)
        at1_bar = ab * self.t(1, m, conj=True)
        main = (t3 * t7 - t7 * self.t(7, m, conj=True)
                - 4.0 * ((ab - b) * (t8 * tr["cot"]))
                + (ab + b) * self.d(8, 0, m)
                + t2 * self.d(8, 1, m) + at1_bar * self.d(8, 2, m))
        tail = (3.0 * (t2b * tr["cot"])
                - 3.0 * (((ab - b) * (a + b)) * tr["inv_s2"])
                - 3.0 * (((ab - b) * (a - b)) * (tr["cot"] * tr["cot"]))
                + self.d(3, 1, m) - self.d(7, 2, m))
        return t6 * main - t8 * self.t(8, m, conj=True) - (t6 * t6) * tail

    def _t11(self, m, branch, reading):
        t9 = self.t(9, m, reading=reading)
        if np.any(np.abs(t9.value()) <= T9_GUARD):
            raise ZeroDenominator("|t9| below guard; quadratic roots undefined")
        t10 = self.t(10, m)
        disc = t10 * t10 - 4.0 * (t9 * self.t(9, m, conj=True, reading=reading) * self.t(6, m))
        root = jsqrt(disc)
        return (-t10 + float(branch) * root) * reciprocal(2.0 * t9)

    def _t12(self, m, branch, reading):
        _, a, _ = self.base(m)
        b = self.point.params.b
        t1 = self.t(1, m)
        t2b = self.t(2, m, conj=True)
        t6, t7, t8 = self.t(6, m), self.t(7, m), self.t(8, m)
        t11 = self.t(11, m, branch=branch, reading=reading)
        t11b = self.t(11, m, conj=True, branch=branch, reading=reading)
        t11_up = self.t(11, m + 1, branch=branch, reading=reading)
        d_al, d_a, d_ab = (differentiate(t11_up, var) for var in (0, 1, 2))
        return (t7 * t11 + t8 - t6 * d_a
                - t11b * ((a + b) * d_al + (a * t1) * d_a + t2b * d_ab))

    def _t13(self, m, branch, reading):
        _, _, ab = self.base(m)
        tr = self.trig(m)
        b = self.point.params.b
        t2, t3 = self.t(2, m), self.t(3, m)
        t11 = self.t(11, m, branch=branch, reading=reading)
        t11b = self.t(11, m, conj=True, branch=branch, reading=reading)
        at1_bar = ab * self.t(1, m, conj=True)
        t11_up = self.t(11, m + 1, branch=branch, reading=reading)
        d_al, d_a, d_ab = (differentiate(t11_up, var) for var in (0, 1, 2))
        return (t3 + 3.0 * ((ab - b) * (t11 * tr["cot"]))
                - ((ab + b) * d_al + t2 * d_a + t11b * d_ab + at1_bar * d_ab))


class CoeffCache:
    """Reusable cascade bound to one point batch, an appendix flag and one t9 reading."""

    def __init__(self, point: EvalPoint, *, t9_mode: str = "as_printed",
                 appendix_reconciliation: str = "assume"):
        if t9_mode not in T9_READINGS:
            raise ValueError(f"unknown t9_mode: {t9_mode!r}")
        if appendix_reconciliation not in ("assume", "reject"):
            raise ValueError(f"unknown appendix_reconciliation: {appendix_reconciliation!r}")
        check_guards(point)
        self.point = point
        self.t9_mode = t9_mode
        self._cascade = _Cascade(point, appendix_reconciliation)

    def get(self, i: int, order: int = 0, *, conjugated: bool = False, branch: int = +1) -> Jet:
        """t9 (and t11..t13) are read under this cache's reading."""
        return self._cascade.t(i, order, conjugated, branch, self.t9_mode)


def eval_t(i: int, point: EvalPoint, order: int = 0, *, conjugated: bool = False,
           branch: int = +1, t9_mode: str = "as_printed") -> Jet:
    """Jet of the i-th cascade coefficient at the point, to the given order, from a fresh cache.

    conjugated=True returns the swap-rule conjugate coefficient. branch picks
    the quadratic-root sign for i in {11, 12, 13} and is ignored otherwise.
    """
    return CoeffCache(point, t9_mode=t9_mode).get(i, order, conjugated=conjugated, branch=branch)


def t4_skew_residual(point: EvalPoint, cache: CoeffCache | None = None):
    """Skew part of t4 minus its closed form; should vanish to rounding.

    Closed form: t4 - tbar4 = -6 b (a - abar) (5 + 3 cos 2a) sin^2(alpha)
    divided by (1 + 3 cos 2a)^2, singular exactly where the cascade is.
    """
    if cache is None:
        cache = CoeffCache(point)
    skew = cache.get(4).value() - cache.get(4, conjugated=True).value()
    al, b = point.alpha, point.params.b
    c2 = np.cos(2.0 * al)
    closed = -6.0 * b * (point.a - point.abar) * (5.0 + 3.0 * c2) \
        * np.sin(al) ** 2 / (1.0 + 3.0 * c2) ** 2
    return skew - closed


def phase_quadratic_roots(t9, t10, t6, t9bar=None):
    """Both roots x of t9*x + conj-pair(t9*x) + t10 = 0 with |x|^2 = t6.

    Pure arithmetic on supplied values, usable with synthetic inputs. t9bar
    defaults to the complex conjugate, which is the swap rule at
    conjugate-pair points.
    """
    t9 = np.asarray(t9, dtype=np.complex128)
    t10 = np.asarray(t10, dtype=np.complex128)
    t6 = np.asarray(t6, dtype=np.complex128)
    t9b = np.conj(t9) if t9bar is None else np.asarray(t9bar, dtype=np.complex128)
    disc = t10 * t10 - 4.0 * t9 * t9b * t6
    root = np.sqrt(disc)
    return (-t10 + root) / (2.0 * t9), (-t10 - root) / (2.0 * t9)


def t11_roots(cache: CoeffCache):
    """Both quadratic-root branches of t11 at the cache's points, under its t9 reading."""
    t9 = cache.get(9).value()
    if np.any(np.abs(t9) <= T9_GUARD):
        raise ZeroDenominator("|t9| below guard; quadratic roots undefined")
    return phase_quadratic_roots(t9, cache.get(10).value(), cache.get(6).value(),
                                 t9bar=cache.get(9, conjugated=True).value())
