"""Angle-profile ODE and the warp potential.

The construction reduces the surface PDE to a one-variable problem: an
amplitude profile a(alpha) solving

    da/dalpha = t2(alpha, a, conj a) / (conj(a) + b),

and a strictly monotone potential K(alpha) with K' = g, g' = -F g, whose
inverse psi warps a harmonic input into the Kaehler angle. F is real along
conjugate-pair data and the ODE preserves the real axis.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._numerics import DenseMarch, Pchip, is_point
from .coeffs import ModelParams, t2_value
from .errors import ConfigError, GuardTripped, StepFailure

AB_GUARD = 1e-3          # |a + b| floor; the ODE divides by (conj a + b)
_IM_TOL = 1e-12          # relative imaginary-part ceiling for F
_DENSE_STEPS = 256       # max_step divisor for dense output
MIN_TOL = float(100 * np.finfo(float).eps)   # below it rounding steers a march's steps
_POTENTIAL_TOL = 1e-12   # potential march tolerance
_POTENTIAL_GRID = 4001   # knots of the inverse-warp table


class TwoSidedMarch:
    """Dense solution of y' = rhs(x, y) marched from an anchor toward both ends.

    Each end of span that lies beyond the anchor gets its own DOP853 march;
    a side with no extent holds y0. A failed step, or a non-finite slope at
    the anchor, raises error; a terminal event ends its side early, and
    reached records how far each side got. Called on an array of points, it
    returns the state rows stacked on a new first axis, taking points at or
    below the anchor from the lower side; called on one point, a list of the
    state's floats.
    """

    def __init__(self, rhs, anchor: float, span: tuple[float, float], y0, tol: float,
                 *, error: type = StepFailure, what: str = "integrator", event=None):
        if not tol >= MIN_TOL:
            raise ConfigError(f"{what} tolerance {tol!r} is below the floor {MIN_TOL!r}")
        self.anchor = anchor
        self.y0 = np.asarray(y0, dtype=np.float64)
        self._sides = [None, None]
        reached = [anchor, anchor]
        # Large solver steps leave visible interpolation wiggle in the dense
        # output; downstream difference stencils amplify it by 1/h^2. Capping
        # the step keeps the interpolant at machine accuracy.
        step = max((max(span[1], anchor) - min(span[0], anchor)) / _DENSE_STEPS, 1e-6)
        marched = [(k, end) for k, end in enumerate(span) if (end < anchor, end > anchor)[k]]
        # DOP853 would pick a NaN first step from a non-finite slope and never leave it
        with np.errstate(all="ignore"):
            finite = not marched or np.isfinite(rhs(anchor, self.y0)).all()
        if not finite:
            raise error(f"{what} has a non-finite slope at its anchor {anchor}")
        for k, end in marched:
            side = DenseMarch(rhs, anchor, self.y0, end, tol, step, event)
            if side.status == -1:
                raise error(f"{what} failed toward {end}: {side.message}")
            self._sides[k] = side
            reached[k] = side.t_end
        self.reached = tuple(reached)

    def __call__(self, x) -> np.ndarray | list:
        if is_point(x):   # one point: the ODE right-hand sides call this per stage
            side = self._sides[not x <= self.anchor]
            return side(x) if side is not None else self.y0.tolist()
        x = np.asarray(x, dtype=np.float64)
        out = np.empty((self.y0.size,) + x.shape)
        below = x <= self.anchor
        for side, sel in zip(self._sides, (below, ~below)):
            if sel.any():
                out[:, sel] = side(x[sel]) if side is not None else self.y0[:, None]
        return out


def F_eval(alpha, a, abar=None, *, params: ModelParams):
    """Warp coefficient F(alpha) evaluated from profile data; real by construction."""
    scalar = is_point(alpha) and is_point(a)
    if not scalar:
        alpha = np.asarray(alpha, dtype=np.float64)
        a = np.asarray(a, dtype=np.complex128)
    ab = np.conj(a) if abar is None else np.asarray(abar, dtype=np.complex128)
    b, rho = params.b, params.rho
    s = np.sin(alpha)
    cot = np.cos(alpha) / s
    F = ((a - b) * (ab - b) + 1.5 * rho * s * s) * cot / ((a + b) * (ab + b))
    off = abs(F.imag) > _IM_TOL * (1.0 + abs(F))
    if off if scalar else off.any():
        raise ArithmeticError("F acquired an imaginary part beyond tolerance")
    return F.real


def _singular_alphas_in(lo: float, hi: float) -> list[float]:
    """Angles with sin^2 = 2/3 inside [lo, hi]; the cascade cannot evaluate there."""
    star = float(np.arcsin(np.sqrt(2.0 / 3.0)))
    out = []
    k = 0
    while k * np.pi < hi + np.pi:
        for cand in (k * np.pi + star, (k + 1) * np.pi - star):
            if lo <= cand <= hi:
                out.append(cand)
        k += 1
    return sorted(set(out))


@dataclass
class ProfileSolution:
    """Amplitude profile over a closed angle interval."""

    params: ModelParams
    alpha0: float
    a0: complex
    alpha_range: tuple[float, float]
    singular_alphas: list[float]
    tol: float
    _march: TwoSidedMarch = field(repr=False, default=None)

    def a(self, alpha):
        lo, hi = self.alpha_range
        if is_point(alpha):   # one point: the potential ODE's right-hand side
            outside = alpha < lo - 1e-12 or alpha > hi + 1e-12
            alpha = min(max(alpha, lo), hi)
        else:
            alpha = np.asarray(alpha, dtype=np.float64)
            outside = np.any(alpha < lo - 1e-12) or np.any(alpha > hi + 1e-12)
            alpha = np.clip(alpha, lo, hi)
        if outside:
            raise ValueError("alpha outside the solved range")
        y = self._march(alpha)
        return y[0] + 1j * y[1]

    def F(self, alpha):
        return F_eval(alpha, self.a(alpha), params=self.params)


def solve_profile(params: ModelParams, alpha0: float, a0: complex,
                  alpha_range: tuple[float, float], tol: float = 1e-10) -> ProfileSolution:
    """Integrate the amplitude ODE across alpha_range from initial data at alpha0.

    The march halts only when |a + b| falls to the guard floor; crossing the
    coefficient-cascade singularity sin^2(alpha) = 2/3 is regular for this ODE
    and is merely recorded in singular_alphas for downstream masking. Raises
    GuardTripped with the largest valid sub-interval when the guard fires,
    StepFailure when the integrator stalls.
    """
    lo, hi = float(alpha_range[0]), float(alpha_range[1])
    if not (0.0 < lo < np.pi and 0.0 < hi < np.pi and lo < hi):
        raise ConfigError("alpha_range must be a nontrivial interval inside (0, pi)")
    if not (lo <= alpha0 <= hi):
        raise ConfigError("alpha0 must lie inside alpha_range")
    a0 = complex(a0)
    if a0.imag == 0.0:
        warnings.warn("real initial amplitude: the profile stays real "
                      "(vanishing-phase surface class)", stacklevel=2)
    if abs(a0 + params.b) <= AB_GUARD:
        raise GuardTripped("|a0 + b| already at the guard floor", achieved=(alpha0, alpha0))

    def rhs(alpha, y):
        a = y[0] + 1j * y[1]
        da = t2_value(alpha, a, np.conj(a), params) / (np.conj(a) + params.b)
        return [da.real, da.imag]

    def guard_event(alpha, y):
        return abs((y[0] + 1j * y[1]) + params.b) - AB_GUARD

    march = TwoSidedMarch(rhs, alpha0, (lo, hi), [a0.real, a0.imag], tol, event=guard_event)
    achieved = march.reached
    if achieved[0] > lo + 1e-12 or achieved[1] < hi - 1e-12:
        raise GuardTripped("|a + b| guard tripped before covering the requested range",
                           achieved=achieved)
    return ProfileSolution(params=params, alpha0=float(alpha0), a0=a0,
                           alpha_range=(lo, hi),
                           singular_alphas=_singular_alphas_in(lo, hi),
                           tol=tol, _march=march)


@dataclass(frozen=True)
class Potential:
    """Strictly monotone potential K with derivative g, plus the inverse warp psi."""

    alpha0: float
    K0: float
    Kprime0: float
    alpha_range: tuple[float, float]
    t_range: tuple[float, float]          # K over alpha_range, ascending
    _march: TwoSidedMarch = field(repr=False)
    _inv: Pchip = field(repr=False)

    def _eval(self, alpha, row):
        return self._march(alpha)[row]

    def g(self, alpha):
        return self._eval(alpha, 0)

    def K(self, alpha):
        return self._eval(alpha, 1)

    def psi(self, t):
        """Inverse of K: monotone cubic interpolation plus one Newton polish."""
        t = np.asarray(t, dtype=np.float64)
        tlo, thi = self.t_range
        if np.any(t < tlo - 1e-10) or np.any(t > thi + 1e-10):
            raise ValueError("warp input outside the potential range")
        alpha = self._inv(np.clip(t, tlo, thi))
        g, K = self._march(alpha)
        alpha = alpha - (K - t) / g
        lo, hi = self.alpha_range
        return np.clip(alpha, lo, hi)


def build_potential(profile: ProfileSolution, K0: float = 0.0, Kprime0: float = 1.0) -> Potential:
    """Integrate g' = -F g, K' = g across the profile's range.

    Normalized by K(alpha0) = K0 and g(alpha0) = Kprime0. g never vanishes
    (it is an exponential integral scaled by Kprime0), so K is strictly
    monotone and invertible; psi is its inverse.
    """
    return potential_from(profile.F, profile.alpha0, profile.alpha_range, K0, Kprime0)


def potential_from(F, anchor: float, alpha_range: tuple[float, float], K0: float,
                   Kprime0: float) -> Potential:
    """Potential of the warp coefficient F (a callable of alpha) over alpha_range."""
    if Kprime0 == 0.0:
        raise ConfigError("Kprime0 must be nonzero: the potential must be strictly monotone")
    lo, hi = alpha_range

    def rhs(alpha, y):
        return [-F(alpha) * y[0], y[0]]

    march = TwoSidedMarch(rhs, anchor, (lo, hi), [Kprime0, K0], _POTENTIAL_TOL,
                          what="potential integration")
    grid = np.linspace(lo, hi, _POTENTIAL_GRID)
    kv = march(grid)[1]
    if Kprime0 < 0:
        grid, kv = grid[::-1], kv[::-1]
    if not (np.isfinite(kv).all() and (np.diff(kv) > 0).all()):
        raise StepFailure(f"potential over [{lo}, {hi}] cannot be inverted: "
                          "K is not finite and strictly monotone in floats")
    try:
        inv = Pchip(kv, grid)
    except ValueError as exc:   # knots so close that the slope estimates overflow
        raise StepFailure(f"potential over [{lo}, {hi}] cannot be inverted: {exc}") from None
    k = (march(lo)[1], march(hi)[1])
    return Potential(alpha0=anchor, K0=float(K0), Kprime0=float(Kprime0), alpha_range=(lo, hi),
                     t_range=(min(k), max(k)), _march=march, _inv=inv)
