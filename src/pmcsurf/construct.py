"""Surface assembly from a harmonic input and an amplitude profile.

Pipeline: warp the harmonic input through the potential inverse to get the
Kaehler angle, read the amplitude off the profile, form the frame factor,
then integrate the phase one-form to obtain the remaining second-fundamental
entry c. The phase one-form is closed exactly when the profile satisfies a
compatibility condition; a two-path integration check enforces this node by
node and masks nodes that fail, so partial output is still written when the
phase stage cannot complete. The explicit family (family4) is built through
the same route: surface_columns for the angle, amplitude, frame, singularity
mask and curvatures, surface_result for the masked bundle.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._numerics import cumulative_simpson
from .coeffs import ModelParams, cascade_ok, omega1, phase_D, t1_value, t2_value
from .errors import NonpositiveDenominator, PathInconsistency, RangeMismatch
from .fields import (GAUSS_STEP, MASK_DOMAIN, MASK_NUPATH, MASK_SINGULAR, Grid,
                     HarmonicInput, SurfaceFields)
from .profile import Potential, ProfileSolution

# two-path disagreement beyond 10 h^2 marks a node; a structural violation
# (more than half of the checkable interior) is also recorded as a guard event
NU_PATH_FACTOR = 10.0
NU_STRUCTURAL_FRACTION = 0.5


def cascade_mask(alpha: np.ndarray) -> np.ndarray:
    """Mask bit for nodes the coefficient cascade cannot evaluate."""
    return np.where(cascade_ok(alpha), np.uint8(0), np.uint8(MASK_SINGULAR))


def build_alpha(f: np.ndarray, potential: Potential) -> np.ndarray:
    """Warp the harmonic input through psi; the input must stay inside the potential range."""
    tlo, thi = potential.t_range
    fmin, fmax = float(np.min(f)), float(np.max(f))
    if not (fmin >= tlo - 1e-12 and fmax <= thi + 1e-12):   # NaN fails both tests
        span = f"spans [{fmin:.6g}, {fmax:.6g}]" if np.isfinite([fmin, fmax]).all() \
            else "is not finite on the grid"
        raise RangeMismatch(f"harmonic input {span} but the warp only covers "
                            f"[{tlo:.6g}, {thi:.6g}]")
    return potential.psi(f)


def build_lambda(alpha, a, fz, potential: Potential, params: ModelParams):
    """Frame factor: lambda = psi'(f) f_z / (a + b) = f_z / (g(alpha) (a + b))."""
    return fz / (potential.g(alpha) * (a + params.b))


def omega_W(alpha, a, lam, params: ModelParams, mask):
    """Density W of the phase one-form Im(W dz), from point data only.

    Returns (W, mask_out, event). W = omega1 * lambda / D, with omega1 and D
    as in coeffs.omega1 and phase_D, on the nodes with a finite angle, no
    mask bit and D > 0; NaN elsewhere. Nodes of the first two kinds where
    D <= 0 get the domain mask bit, and event is their NonpositiveDenominator
    payload (None when there are none). The continuum form is closed
    precisely on compatible profiles; the verifier checks Re dW/dzbar -> 0
    at second order.
    """
    valid = np.isfinite(alpha) & (mask == 0)
    D = phase_D(alpha, a, params)
    bad = valid & ~(D > 0)
    event = None
    if bad.any():
        mask = mask | np.where(bad, np.uint8(MASK_DOMAIN), np.uint8(0))
        valid &= ~bad
        n_bad = int(np.count_nonzero(bad))
        event = NonpositiveDenominator(
            "|a|^2 + (rho/2)(3 sin^2(alpha) - 2) is nonpositive "
            "on part of the grid: no phase amplitude exists there").payload()
        event.update(nodes_inadmissible=n_bad, fraction_inadmissible=float(n_bad / bad.size))
    t1 = np.full(alpha.shape, np.nan, dtype=np.complex128)
    t2 = t1.copy()
    al, av = alpha[valid], a[valid]
    t1[valid] = t1_value(al, av, params)
    t2[valid] = t2_value(al, av, np.conj(av), params)
    W = np.full(alpha.shape, np.nan, dtype=np.complex128)
    W[valid] = (omega1(alpha, a, t1, t2, D, params) * lam / D)[valid]
    return W, mask, event


def integrate_nu(W: np.ndarray, grid: Grid, mask: np.ndarray):
    """Two-path Simpson integration of Im(W dz) from the grid origin.

    Returns (nu, mask_out, info, event). Both integration orders are
    computed; the node value is their mean. Nodes whose paths disagree by
    more than 10 h^2 get the path mask bit and NaN. A structural
    disagreement (over half of the checkable interior) makes event the
    PathInconsistency payload; it is None otherwise.
    """
    hx, hy = grid.hx, grid.hy
    Q, P = W.imag, W.real          # d nu/dx, d nu/dy
    iy = cumulative_simpson(P, hy, axis=1)
    ix = cumulative_simpson(Q, hx, axis=0)
    nu_a = ix[:, :1] + iy          # along x on the edge y = y0, then along y
    nu_b = iy[:1, :] + ix          # along y on the edge x = x0, then along x
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
    event = None
    n_checkable = info["nodes_checkable"]
    if n_checkable == 0 or info["nodes_violating"] > NU_STRUCTURAL_FRACTION * n_checkable:
        event = PathInconsistency(
            "phase one-form is not closed: two-path integrals disagree on "
            f"{info['nodes_violating']} of {n_checkable} checkable nodes "
            f"(max {info['max_path_mismatch']:.3g} vs tolerance {tol:.3g})").payload()
        event.update(info)
    return nu, mask_out, info, event


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


def surface_columns(harmonic: HarmonicInput, grid: Grid, potential: Potential,
                    amplitude, params: ModelParams) -> SurfaceFields:
    """The columns both pipelines share, with nu and c still unset (None).

    The angle is the harmonic input warped through the potential, the
    amplitude is amplitude(alpha); then come the frame factor, the cascade
    singularity mask and both curvatures.
    """
    Z = grid.zmesh()
    alpha = build_alpha(harmonic.f(Z), potential)
    a = amplitude(alpha)
    lam = build_lambda(alpha, a, harmonic.fz(Z), potential, params)
    K_formula, K_metric = gauss_curvature(alpha, a, lam, params, grid)
    return SurfaceFields(grid=grid, params=params, alpha=alpha, a=a, lam=lam, nu=None,
                         c=None, K_formula=K_formula, K_metric=K_metric,
                         mask=cascade_mask(alpha))


def surface_result(columns: SurfaceFields, nu, c, mask, guard_events: list,
                   nu_info: dict) -> ConstructResult:
    """The bundle: the shared columns with nu and c, both NaN wherever mask != 0."""
    bad = mask != 0
    fields = replace(columns, nu=np.where(bad, np.nan, nu), c=np.where(bad, np.nan + 0j, c),
                     mask=mask)
    return ConstructResult(fields=fields, guard_events=guard_events, nu_info=nu_info)


def construct_surface(profile: ProfileSolution, potential: Potential,
                      harmonic: HarmonicInput, grid: Grid, nu0: float = 0.0) -> ConstructResult:
    """Run the full assembly on one grid.

    Guard failures in the phase stage are converted into mask bits plus a
    recorded guard event; the returned bundle always carries the angle,
    amplitude, frame, and curvature fields. Only RangeMismatch (harmonic
    input outside the warp) aborts, since no angle field exists at all.
    """
    params = profile.params
    cols = surface_columns(harmonic, grid, potential, profile.a, params)
    W, mask, domain = omega_W(cols.alpha, cols.a, cols.lam, params, cols.mask)
    nu, mask, nu_info, path = integrate_nu(W, grid, mask)
    c = build_c(cols.alpha, cols.a, nu, nu0, params)
    return surface_result(cols, nu, c, mask, [ev for ev in (domain, path) if ev], nu_info)
