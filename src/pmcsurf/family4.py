"""Explicit two-parameter surface family at b = 1, rho = -3.

Closed-form amplitude a(t), phase integral xi(t), and entry c(t) over an
admissible arc of t, parametrized by c1 (shape) and c2 (phase offset). The
c2 line is an associated family: changing c2 moves only the argument of c,
every metric quantity stays fixed.

Surfaces are assembled through the same warped-angle route as the generic
pipeline, construct.surface_columns then construct.surface_result: the
family's own angle ODE supplies a potential anchored at the arc midpoint so
the warp is a near-identity correction, and the harmonic input ranges
directly over the t-arc.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._numerics import is_point
from .coeffs import ModelParams, t2_value
from .construct import ConstructResult, surface_columns, surface_result
from .errors import ConfigError, InadmissibleC1, OutOfInterval, QuadratureFailure
from .fields import Grid, HarmonicInput, SurfaceFields
from .profile import F_eval, Potential, TwoSidedMarch, potential_from

FAMILY_MODEL = ModelParams(rho=-3.0, b=1.0)

_INTERVAL_GUARD = 1e-8     # relative end margin for state evaluation
_POTENTIAL_MARGIN = 0.012  # relative margin the warp potential keeps off the arc ends


def _check_c1(c1: float) -> float:
    c1 = float(c1)
    if not (np.isfinite(c1) and (c1 < 0.0 or c1 > 9.0 / 8.0)):
        raise InadmissibleC1(f"c1 = {c1} is not admissible: need c1 < 0 or c1 > 9/8")
    return c1


@dataclass(frozen=True)
class FamilyParams:
    c1: float
    c2: float = 0.0

    def __post_init__(self):
        _check_c1(self.c1)
        object.__setattr__(self, "c2", float(self.c2))
        if not np.isfinite(self.c2):
            raise ConfigError(f"c2 = {self.c2} must be finite")


def valid_interval(c1: float) -> tuple[float, float]:
    """The admissible t-arc, principal arcsines into (0, pi/2].

    Both square roots under the amplitude stay real and positive strictly
    inside; for c1 > 9/8 both endpoints are degenerate (excluded), for c1 < 0
    the right endpoint pi/2 is regular (included).
    """
    c1 = _check_c1(c1)
    if c1 > 9.0 / 8.0:
        return (float(np.arcsin(np.sqrt(1.0 / c1))), float(np.arcsin(np.sqrt(8.0 / 9.0))))
    return (float(np.arcsin(np.sqrt(8.0 / 9.0))), float(np.pi / 2.0))


def default_window(c1: float) -> tuple[float, float]:
    """The t-window family's input spans unless given one: 0.08-0.33 of the arc."""
    lo, hi = valid_interval(c1)
    return tuple(lo + f * (hi - lo) for f in (0.08, 0.33))


def _radicand(s2, c1):
    return 2.0 * (8.0 - 9.0 * s2) * (-1.0 + c1 * s2)


def family_amplitude(t, c1: float):
    """Closed-form amplitude a(t) along the arc."""
    c1 = _check_c1(c1)
    if not is_point(t):
        t = np.asarray(t, dtype=np.float64)
    s2 = np.sin(t) ** 2
    rt = np.sqrt(_radicand(s2, c1))
    num = -4.0 + (9.0 + 4.0 * c1) * s2 - 9.0 * c1 * s2 * s2 + 1j * rt
    den = 4.0 * (-1.0 + c1 * s2) - 1j * rt
    return num / den


def family_amplitude_derivative(t, c1: float):
    """Exact t-derivative of the closed-form amplitude (chain rule, no differencing)."""
    c1 = _check_c1(c1)
    t = np.asarray(t, dtype=np.float64)
    s2 = np.sin(t) ** 2
    ds2 = np.sin(2.0 * t)
    rt = np.sqrt(_radicand(s2, c1))
    drt = (-9.0 * 2.0 * (-1.0 + c1 * s2) + 2.0 * (8.0 - 9.0 * s2) * c1) * ds2 / (2.0 * rt)
    num = -4.0 + (9.0 + 4.0 * c1) * s2 - 9.0 * c1 * s2 * s2 + 1j * rt
    dnum = ((9.0 + 4.0 * c1) - 18.0 * c1 * s2) * ds2 + 1j * drt
    den = 4.0 * (-1.0 + c1 * s2) - 1j * rt
    dden = 4.0 * c1 * ds2 - 1j * drt
    return (dnum * den - num * dden) / (den * den)


def _prefactor(c1: float) -> float:
    r = c1 / (2.0 * (-9.0 + 8.0 * c1))
    assert r > 0, "amplitude prefactor must be real for admissible c1"
    return float(np.sqrt(r))


def _xi_integrand(t, c1):
    s2 = np.sin(t) ** 2
    return 2.0 ** 2.5 / np.tan(t) / np.sqrt((8.0 - 9.0 * s2) * (-1.0 + c1 * s2))


def _t_ref(c1: float) -> float:
    lo, hi = valid_interval(c1)
    return 0.5 * (lo + hi)


def _state_arc(c1: float) -> tuple[float, float]:
    """The part of the arc where states are evaluated: a relative guard off each degenerate end."""
    lo, hi = valid_interval(c1)
    guard = _INTERVAL_GUARD * (hi - lo)
    return lo + guard, (hi if c1 < 0 else hi - guard)   # pi/2 endpoint is regular when c1 < 0


def _guarded(t, c1) -> np.ndarray:
    lo_ok, hi_ok = _state_arc(c1)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < lo_ok) or np.any(t > hi_ok + 1e-15):
        lo, hi = valid_interval(c1)
        raise OutOfInterval(f"t outside the admissible arc ({lo:.9g}, {hi:.9g}) for c1 = {c1}")
    return t


def xi_of_t(t: float, params: FamilyParams, quad_tol: float = 1e-10) -> float:
    """Phase integral anchored xi(midpoint) = c2, read off one memoised march over the state arc."""
    t = float(_guarded(t, params.c1))
    march = _phase_march(params.c1, *_state_arc(params.c1), quad_tol)
    return params.c2 + float(march(t)[0])


def _family_c(t, xi, c1: float):
    """The entry c = prefactor (8 - 9 sin^2 t) e^{i xi} at angle t and full phase xi."""
    s2 = np.sin(t) ** 2
    return _prefactor(c1) * (8.0 - 9.0 * s2) * np.exp(1j * xi)


def family_state(t, params: FamilyParams, quad_tol: float = 1e-10):
    """(a, xi, c) at one t."""
    t = float(_guarded(t, params.c1))
    a = complex(family_amplitude(t, params.c1))
    xi = xi_of_t(t, params, quad_tol)
    return a, xi, complex(_family_c(t, xi, params.c1))


def family_ode_residual(t, c1: float):
    """How well the closed-form amplitude solves the profile ODE da/dt = t2/(abar+b)."""
    a = family_amplitude(t, c1)
    ab = np.conj(a)
    t2 = t2_value(t, a, ab, FAMILY_MODEL)
    return family_amplitude_derivative(t, c1) - t2 / (ab + FAMILY_MODEL.b)


# Both ODE builds below are pure functions of their float arguments, so each
# is memoised per process: a resolution pair of one family builds each once.
# A cache hit returns the very object a miss built, so outputs keep every bit.
_MEMO_SIZE = 8


@functools.lru_cache(maxsize=_MEMO_SIZE)
def family_potential(c1: float) -> Potential:
    """Warp potential from the family's angle ODE, anchored at the arc midpoint.

    Normalization K(t_ref) = t_ref, g(t_ref) = 1 makes the warp a
    near-identity correction, so harmonic inputs range directly over the
    t-arc. The potential stops a small relative margin short of the arc ends,
    where the warp coefficient blows up. Memoised per c1.
    """
    lo, hi = valid_interval(c1)
    margin = _POTENTIAL_MARGIN * (hi - lo)
    tref = _t_ref(c1)
    return potential_from(lambda t: F_eval(t, family_amplitude(t, c1), params=FAMILY_MODEL),
                          tref, (lo + margin, hi - margin), tref, 1.0)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _phase_march(c1: float, lo: float, hi: float, quad_tol: float) -> TwoSidedMarch:
    """Phase integral xi over [lo, hi] as an ODE, anchored xi(t_ref) = 0; memoised."""
    return TwoSidedMarch(lambda t, y: [_xi_integrand(t, c1)], _t_ref(c1), (lo, hi), [0.0],
                         quad_tol, error=QuadratureFailure, what="phase integral ODE")


def family_surface(harmonic: HarmonicInput, grid: Grid, params: FamilyParams,
                   quad_tol: float = 1e-10) -> ConstructResult:
    """Assemble family surface fields over a grid.

    The harmonic input must range inside the warp window of the t-arc. The
    angle is the warped input, amplitude and c ride on it in closed form;
    b = 1 and rho = -3 are forced. The stored nu column is the anchored phase
    integral (c2 excluded, matching the construct-side convention for the
    phase constant).
    """
    cols = surface_columns(harmonic, grid, family_potential(params.c1),
                           functools.partial(family_amplitude, c1=params.c1), FAMILY_MODEL)
    alpha = cols.alpha
    xi = _phase_march(params.c1, float(np.min(alpha)), float(np.max(alpha)), quad_tol)(alpha)[0]
    c = _family_c(alpha, xi + params.c2, params.c1)
    return surface_result(cols, xi, c, cols.mask, [], {"source": "closed-form phase integral"})


def general_type_witness(fields: SurfaceFields) -> dict:
    """Evidence that the surface is of general type: a is nonreal and c nonzero."""
    ok = fields.mask == 0
    ima = float(np.max(np.abs(fields.a.imag)[ok])) if ok.any() else 0.0
    cmag = fields.c[ok & np.isfinite(fields.c)]
    return {"max_abs_im_a": ima,
            "min_abs_c": float(np.min(np.abs(cmag))) if cmag.size else float("nan")}
