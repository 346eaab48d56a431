"""Surface assembly from a harmonic input and an amplitude profile.

Pipeline: warp the harmonic input through the potential inverse to get the
Kaehler angle, read the amplitude off the profile, form the frame factor,
then integrate the phase one-form to obtain the remaining second-fundamental
entry c. The phase one-form is closed exactly when the profile satisfies a
compatibility condition; a two-path integration check enforces this node by
node and masks nodes that fail, so partial output is still written when the
phase stage cannot complete.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._numerics import cumulative_simpson
from .coeffs import ModelParams, cascade_ok, omega1, phase_D, t1_value, t2_value
from .errors import NonpositiveDenominator, PathInconsistency, RangeMismatch
from .fields import (GAUSS_STEP, MASK_DOMAIN, MASK_NUPATH, MASK_SINGULAR, Grid,
                     HarmonicInput, SurfaceFields)
from .profile import Potential, ProfileSolution

# two-path disagreement beyond 10 h^2 marks a node; a structural violation
# (more than half of the checkable interior) aborts the phase stage
NU_PATH_FACTOR = 10.0
NU_STRUCTURAL_FRACTION = 0.5


def cascade_mask(alpha: np.ndarray) -> np.ndarray:
    """Mask bit for nodes the coefficient cascade cannot evaluate."""
    return np.where(cascade_ok(alpha), np.uint8(0), np.uint8(MASK_SINGULAR))


def build_alpha(f: np.ndarray, potential: Potential) -> np.ndarray:
    """Warp the harmonic input through psi; the input must stay inside the potential range."""
    tlo, thi = potential.t_range
    fmin, fmax = float(np.min(f)), float(np.max(f))
    if fmin < tlo - 1e-12 or fmax > thi + 1e-12:
        raise RangeMismatch(
            f"harmonic input spans [{fmin:.6g}, {fmax:.6g}] but the warp only covers "
            f"[{tlo:.6g}, {thi:.6g}]")
    return potential.psi(f)


def build_lambda(alpha, a, fz, potential: Potential, params: ModelParams):
    """Frame factor: lambda = psi'(f) f_z / (a + b) = f_z / (g(alpha) (a + b))."""
    return fz / (potential.g(alpha) * (a + params.b))


def omega_W(alpha, a, lam, params: ModelParams, mask):
    """Density W of the phase one-form Im(W dz), from point data only.

    W = omega1 * lambda / D, with omega1 and D as in coeffs.omega1 and phase_D,
    on the nodes with a finite angle and no mask bit; NaN elsewhere.
    The continuum form is closed precisely on compatible profiles; the
    verifier checks Re dW/dzbar -> 0 at second order.
    """
    valid = np.isfinite(alpha) & (mask == 0)
    D = phase_D(alpha, a, params)
    bad = valid & ~(D > 0)
    if bad.any():
        raise _DomainError(bad)
    t1 = np.full(alpha.shape, np.nan, dtype=np.complex128)
    t2 = t1.copy()
    al, av = alpha[valid], a[valid]
    t1[valid] = t1_value(al, av, params)
    t2[valid] = t2_value(al, av, np.conj(av), params)
    W = np.full(alpha.shape, np.nan, dtype=np.complex128)
    W[valid] = (omega1(alpha, a, t1, t2, D, params) * lam / D)[valid]
    return W


def integrate_nu(W: np.ndarray, grid: Grid, mask: np.ndarray):
    """Two-path Simpson integration of Im(W dz) from the grid origin.

    Returns (nu, mask_out, info). Both integration orders are computed; the
    node value is their mean. Nodes whose paths disagree by more than
    10 h^2 get the path mask bit and NaN. A structural disagreement (over
    half of the checkable interior) raises PathInconsistency after masking,
    so callers can still persist the partial fields.
    """
    hx, hy = grid.hx, grid.hy
    Q, P = W.imag, W.real          # d nu/dx, d nu/dy
    ix0 = cumulative_simpson(Q[:, 0], hx)
    iy = cumulative_simpson(P, hy, axis=1)
    iy0 = cumulative_simpson(P[0, :], hy)
    ix = cumulative_simpson(Q, hx, axis=0)
    nu_a = ix0[:, None] + iy
    nu_b = iy0[None, :] + ix
    mismatch = np.abs(nu_a - nu_b)

    tol = NU_PATH_FACTOR * grid.h ** 2
    checkable = np.isfinite(mismatch)
    bad = checkable & (mismatch > tol)
    mask_out = mask.copy()
    mask_out[bad | ~checkable] |= MASK_NUPATH

    nu = 0.5 * (nu_a + nu_b)
    nu[mask_out != 0] = np.nan
    info = {
        "max_path_mismatch": float(np.max(mismatch[checkable])) if checkable.any() else float("nan"),
        "path_tolerance": tol,
        "nodes_masked": int(np.count_nonzero(mask_out & MASK_NUPATH)),
        "nodes_checkable": int(np.count_nonzero(checkable)),
        "nodes_violating": int(np.count_nonzero(bad)),
    }
    n_checkable = info["nodes_checkable"]
    if n_checkable == 0 or np.count_nonzero(bad) > NU_STRUCTURAL_FRACTION * n_checkable:
        raise _PathError(nu, mask_out, info)
    return nu, mask_out, info


class _DomainError(NonpositiveDenominator):
    """NonpositiveDenominator that reports which nodes are inadmissible."""

    def __init__(self, bad: np.ndarray):
        super().__init__("|a|^2 + (rho/2)(3 sin^2(alpha) - 2) is nonpositive "
                         "on part of the grid: no phase amplitude exists there")
        self.bad = bad

    def payload(self):
        d = super().payload()
        d["nodes_inadmissible"] = int(np.count_nonzero(self.bad))
        d["fraction_inadmissible"] = float(np.count_nonzero(self.bad) / self.bad.size)
        return d


class _PathError(PathInconsistency):
    """PathInconsistency that still carries the partial (masked) result."""

    def __init__(self, nu, mask_out, info):
        super().__init__(
            "phase one-form is not closed: two-path integrals disagree on "
            f"{info['nodes_violating']} of {info['nodes_checkable']} checkable nodes "
            f"(max {info['max_path_mismatch']:.3g} vs tolerance {info['path_tolerance']:.3g})")
        self.nu = nu
        self.mask_out = mask_out
        self.info = info

    def payload(self):
        d = super().payload()
        d.update({k: v for k, v in self.info.items()})
        return d


def build_c(alpha, a, nu, nu0: float, params: ModelParams):
    """Second fundamental entry: c = sqrt(D) exp(i (nu + nu0)); NaN where nu is masked."""
    D = phase_D(alpha, a, params)
    amp = np.sqrt(np.where(D > 0, D, np.nan))
    return amp * np.exp(1j * (nu + nu0))


def gauss_curvature(alpha, a, lam, params: ModelParams, grid: Grid):
    """Curvature two ways: the cascade formula and the metric Laplacian.

    The metric value uses an interior five-point stencil of log|lambda| at
    spacing GAUSS_STEP * h and is NaN on the frame; both curvatures are
    stored for the verifier. The widened spacing is the standard step choice
    for differencing data with last-bit float noise: the field values carry
    relative noise of a few eps, the second difference amplifies it by
    4/(step^2 |lambda|^2), and at one-node spacing that floor overtakes the
    O(h^2) truncation term on fine grids. Tripling the spacing trades a 9x
    larger (still second-order) truncation constant for an 81x noise margin.
    """
    b, rho = params.b, params.rho
    K_formula = -4.0 * (np.abs(a) ** 2 - b * b) + 6.0 * rho * np.cos(alpha) ** 2
    loglam = np.log(np.abs(lam))
    m = min(GAUSS_STEP, (min(alpha.shape) - 1) // 2)
    lap = np.full(alpha.shape, np.nan)
    hx, hy = m * grid.hx, m * grid.hy
    c = loglam[m:-m, m:-m]
    lap[m:-m, m:-m] = ((loglam[2 * m:, m:-m] - 2 * c + loglam[:-2 * m, m:-m]) / hx**2
                       + (loglam[m:-m, 2 * m:] - 2 * c + loglam[m:-m, :-2 * m]) / hy**2)
    K_metric = -4.0 / np.abs(lam) ** 2 * 0.25 * lap
    return K_formula, K_metric


@dataclass
class ConstructResult:
    fields: SurfaceFields
    guard_events: list = field(default_factory=list)
    nu_info: dict = field(default_factory=dict)


def construct_surface(profile: ProfileSolution, potential: Potential,
                      harmonic: HarmonicInput, grid: Grid, nu0: float = 0.0) -> ConstructResult:
    """Run the full assembly on one grid.

    Guard failures in the phase stage are converted into mask bits plus a
    recorded guard event; the returned bundle always carries the angle,
    amplitude, frame, and curvature fields. Only RangeMismatch (harmonic
    input outside the warp) aborts, since no angle field exists at all.
    """
    Z = grid.zmesh()
    f = harmonic.f(Z)
    fz = harmonic.fz(Z)
    alpha = build_alpha(f, potential)
    a = profile.a(alpha)
    lam = build_lambda(alpha, a, fz, potential, profile.params)
    mask = cascade_mask(alpha)
    K_formula, K_metric = gauss_curvature(alpha, a, lam, profile.params, grid)

    guard_events = []
    try:
        W = omega_W(alpha, a, lam, profile.params, mask=mask)
    except _DomainError as err:
        mask = mask | np.where(err.bad, np.uint8(MASK_DOMAIN), np.uint8(0))
        guard_events.append(err.payload())
        W = omega_W(alpha, a, lam, profile.params, mask=mask)
    try:
        nu, mask, nu_info = integrate_nu(W, grid, mask)
    except _PathError as err:
        nu, mask, nu_info = err.nu, err.mask_out, err.info
        guard_events.append(err.payload())

    c = build_c(alpha, a, nu, nu0, profile.params)
    bad = mask != 0
    nu = np.where(bad, np.nan, nu)
    c = np.where(bad, np.nan + 0j, c)

    fields = SurfaceFields(grid=grid, params=profile.params, alpha=alpha, a=a,
                           lam=lam, nu=nu, c=c, K_formula=K_formula,
                           K_metric=K_metric, mask=mask)
    return ConstructResult(fields=fields, guard_events=guard_events, nu_info=nu_info)
