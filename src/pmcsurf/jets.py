"""Truncated Taylor arithmetic in three formal variables.

A Jet holds the Taylor coefficients (partial derivatives divided by
factorials) of a function of (alpha, a, abar) up to a fixed total degree.
The second and third variables are treated as formally independent, which is
what the coefficient cascade requires: partials with respect to a are taken
with abar held fixed.

Coefficient slots may be numpy arrays of any shape, so a single cascade pass
evaluates a whole batch of points at once. Multiplication is the Cauchy
product driven by a precomputed index-triple table, summed slot by slot in
table order; elementary functions are Horner compositions with the nilpotent
part.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

NVARS = 3  # alpha, a, abar


@lru_cache(maxsize=None)
def exponent_table(order: int) -> tuple[tuple[int, int, int], ...]:
    """Multi-indices with total degree <= order, graded lexicographic."""
    exps = []
    for deg in range(order + 1):
        for i in range(deg, -1, -1):
            for j in range(deg - i, -1, -1):
                exps.append((i, j, deg - i - j))
    return tuple(exps)


@lru_cache(maxsize=None)
def _index_map(order: int) -> dict:
    return {e: n for n, e in enumerate(exponent_table(order))}


def ncoeff(order: int) -> int:
    # C(order + 3, 3) for three variables
    return len(exponent_table(order))


@lru_cache(maxsize=None)
def _product_table(order: int):
    """All (slot1, slot2, slot_out) triples contributing to a product."""
    exps = exponent_table(order)
    idx = _index_map(order)
    rows = []
    for n1, e1 in enumerate(exps):
        d1 = e1[0] + e1[1] + e1[2]
        for n2, e2 in enumerate(exps):
            if d1 + e2[0] + e2[1] + e2[2] > order:
                continue
            rows.append((n1, n2, idx[(e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])]))
    arr = np.array(rows, dtype=np.int64)
    return arr[:, 0], arr[:, 1], arr[:, 2]


@lru_cache(maxsize=None)
def _product_passes(order: int):
    """The product table as passes: pass j holds the j-th term, in table order,
    of every output slot that has one, as (slots, slot1, slot2).

    Pass 0 holds every slot in order, so it can start the output outright.
    """
    i1, i2, iout = _product_table(order)
    perm = np.argsort(iout, kind="stable")
    i1, i2, iout = i1[perm], i2[perm], iout[perm]
    rank = np.arange(len(iout)) - np.searchsorted(iout, iout)
    return tuple((iout[rank == j], i1[rank == j], i2[rank == j])
                 for j in range(rank.max() + 1))


def _align(c1: np.ndarray, c2: np.ndarray):
    """Pad the shorter base shape with unit axes after the slot axis, so base
    shapes broadcast as numpy broadcasts them."""
    nd = max(c1.ndim, c2.ndim)
    return tuple(c.reshape(c.shape[:1] + (1,) * (nd - c.ndim) + c.shape[1:]) for c in (c1, c2))


@lru_cache(maxsize=None)
def _swap_permutation(order: int) -> np.ndarray:
    """Slot permutation exchanging the roles of the second and third variable."""
    idx = _index_map(order)
    exps = exponent_table(order)
    return np.array([idx[(e[0], e[2], e[1])] for e in exps], dtype=np.int64)


@lru_cache(maxsize=None)
def _unit_index(order: int, var: int) -> int:
    unit = tuple(1 if k == var else 0 for k in range(NVARS))
    return _index_map(order)[unit]


class Jet:
    """Taylor polynomial of fixed total order in (alpha, a, abar)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: np.ndarray):
        self.order = order
        self.coeffs = coeffs  # shape (ncoeff(order),) + base_shape, complex

    # ---- constructors ----

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        value = np.asarray(value, dtype=np.complex128)
        c = np.zeros((ncoeff(order),) + value.shape, dtype=np.complex128)
        c[0] = value
        return cls(order, c)

    @classmethod
    def variable(cls, var: int, value, order: int) -> "Jet":
        """Seed jet for one of the three variables at a base value."""
        j = cls.constant(value, order)
        if order >= 1:
            j.coeffs[_unit_index(order, var)] = 1.0
        return j

    # ---- inspection ----

    def value(self) -> np.ndarray:
        return self.coeffs[0]

    def partial(self, var: int) -> np.ndarray:
        """First partial derivative (factorial normalization makes the slot the derivative)."""
        if self.order < 1:
            raise ValueError("jet order too low to hold first partials")
        return self.coeffs[_unit_index(self.order, var)]

    # ---- ring operations ----

    def _check(self, other: "Jet"):
        if self.order != other.order:
            raise ValueError(f"jet order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.order, self.coeffs + other.coeffs)
        c = self.coeffs.copy()
        c[0] = c[0] + other
        return Jet(self.order, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.order, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.order, self.coeffs - other.coeffs)
        c = self.coeffs.copy()
        c[0] = c[0] - other
        return Jet(self.order, c)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.order, self.coeffs * np.asarray(other, dtype=np.complex128))
        self._check(other)
        c1, c2 = _align(self.coeffs, other.coeffs)
        (_, f1, f2), *rest = _product_passes(self.order)
        out = c1[f1] * c2[f2]
        # each slot sums its terms in table order onto +0.0, so an all-zero
        # sum is +0.0 whatever the signs of its zero terms
        out += 0.0
        for slots, j1, j2 in rest:
            out[slots] += c1[j1] * c2[j2]
        return Jet(self.order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * reciprocal(other)
        return Jet(self.order, self.coeffs / np.asarray(other, dtype=np.complex128))

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError("only small positive integer powers")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    # ---- structure maps ----

    def swap_vars(self) -> "Jet":
        """Exchange the two non-angle variables in the exponent lattice."""
        return Jet(self.order, self.coeffs[_swap_permutation(self.order)])

    def conj_coeffs(self) -> "Jet":
        """Complex-conjugate every coefficient slot (no variable relabeling)."""
        return Jet(self.order, np.conj(self.coeffs))


def differentiate(jet: Jet, var: int) -> Jet:
    """Formal partial derivative; drops one order."""
    if jet.order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    m = jet.order - 1
    src = _index_map(jet.order)
    out = np.zeros((ncoeff(m),) + jet.coeffs.shape[1:], dtype=np.complex128)
    for n, e in enumerate(exponent_table(m)):
        lifted = tuple(e[k] + (1 if k == var else 0) for k in range(NVARS))
        out[n] = (e[var] + 1) * jet.coeffs[src[lifted]]
    return Jet(m, out)


# ---- composition with univariate series ----

def _nilpotent(jet: Jet) -> Jet:
    c = jet.coeffs.copy()
    c[0] = 0.0
    return Jet(jet.order, c)


def compose(series, jet: Jet) -> Jet:
    """Horner evaluation of a univariate Taylor series along jet's nilpotent part.

    series[k] must be the k-th Taylor coefficient g^(k)(v)/k! of the outer
    function at v = jet.value(); entries may be arrays matching the base shape.
    """
    delta = _nilpotent(jet)
    acc = Jet.constant(series[-1], jet.order)
    for k in range(len(series) - 2, -1, -1):
        acc = acc * delta + series[k]
    return acc


def jsin(jet: Jet) -> Jet:
    v = jet.value()
    fact = 1.0
    series = []
    for k in range(jet.order + 1):
        if k:
            fact *= k
        series.append(np.sin(v + k * np.pi / 2) / fact)
    return compose(series, jet)


def jcos(jet: Jet) -> Jet:
    v = jet.value()
    fact = 1.0
    series = []
    for k in range(jet.order + 1):
        if k:
            fact *= k
        series.append(np.cos(v + k * np.pi / 2) / fact)
    return compose(series, jet)


def reciprocal(jet: Jet) -> Jet:
    v = jet.value()
    inv = 1.0 / v
    series = [inv]
    for _ in range(jet.order):
        series.append(-series[-1] * inv)
    return compose(series, jet)


def jcot(jet: Jet) -> Jet:
    return jcos(jet) * reciprocal(jsin(jet))


def jsqrt(jet: Jet) -> Jet:
    """Square root on the principal branch."""
    v = jet.value()
    r0 = np.sqrt(v.astype(np.complex128))
    # binomial series: c_k = c_{k-1} * (1/2 - (k-1)) / (k v)
    series = [r0]
    for k in range(1, jet.order + 1):
        series.append(series[-1] * (0.5 - (k - 1)) / (k * v))
    return compose(series, jet)
