"""Grid, harmonic input, and the on-disk surface-field bundle.

A surface run produces nodewise fields over a uniform rectangle: the Kaehler
angle alpha, the amplitude a, the frame factor lambda, the phase integral nu,
the second-fundamental-form entry c, and two curvature evaluations. They
travel as fields.csv (one row per node, x-major) next to a meta.json; the
verifier reconstructs everything from those two files alone.
"""
from __future__ import annotations

import json
import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._g17 import csv_chunks
from .coeffs import ModelParams
from .errors import ConfigError

CSV_COLUMNS = ("x", "y", "alpha", "a_re", "a_im", "lambda_re", "lambda_im",
               "nu", "c_re", "c_im", "K_formula", "K_metric", "mask")

# mask bits
MASK_SINGULAR = 1   # node too close to the cascade singularity sin^2(alpha) = 2/3
MASK_NUPATH = 2     # two-path phase integration disagreed beyond 10 h^2
MASK_DOMAIN = 4     # phase amplitude squared nonpositive: no admissible c there

MAX_SIDE = 2049     # nodes per grid axis; the finest grid pair is 1025/2049
GAUSS_STEP = 3      # Laplacian stencil spacing in nodes; see construct.gauss_curvature


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [x0, x1] x [y0, y1] with nx-by-ny nodes."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        for n in (self.nx, self.ny):
            if not isinstance(n, numbers.Integral):
                raise ConfigError(f"grid sides must be integers, got {n!r}")
            if n < 5:
                raise ConfigError("grid needs at least 5 nodes per axis for the stencils")
            if n > MAX_SIDE:
                raise ConfigError(f"grid sides are capped at {MAX_SIDE} nodes")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ConfigError("grid rectangle is degenerate")
        # the stencils divide by h^2 and by (GAUSS_STEP h)^2; a square that
        # underflows or overflows turns every difference into NaN or inf
        for h in (self.hx, self.hy):
            wide = GAUSS_STEP * h
            if not (h * h >= sys.float_info.min and math.isfinite(wide * wide)):
                raise ConfigError(f"grid spacing {h!r} squares outside the normal floats")

    @property
    def hx(self) -> float:
        return (self.x1 - self.x0) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y1 - self.y0) / (self.ny - 1)

    @property
    def h(self) -> float:
        return max(self.hx, self.hy)

    def axes(self):
        return (np.linspace(self.x0, self.x1, self.nx),
                np.linspace(self.y0, self.y1, self.ny))

    def mesh(self):
        x, y = self.axes()
        return np.meshgrid(x, y, indexing="ij")

    def zmesh(self):
        X, Y = self.mesh()
        return X + 1j * Y


@dataclass(frozen=True)
class HarmonicInput:
    """Real part of a complex polynomial: f = Re sum_k coeffs[k] z^k."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if len(self.coeffs) < 2 or all(c == 0 for c in self.coeffs[1:]):
            raise ConfigError("harmonic input must be nonconstant")

    def f(self, z):
        p = np.zeros_like(np.asarray(z, dtype=np.complex128))
        for c in reversed(self.coeffs):
            p = p * z + c
        return p.real

    def fz(self, z):
        # Wirtinger derivative of Re P is P'/2
        z = np.asarray(z, dtype=np.complex128)
        dp = np.zeros_like(z)
        for k in range(len(self.coeffs) - 1, 0, -1):
            dp = dp * z + k * self.coeffs[k]
        return 0.5 * dp

    @classmethod
    def affine_window(cls, lo: float, hi: float, rect, tilt: float = 0.0):
        """Affine input whose values sweep [lo, hi] over the rectangle.

        f = Re(g0 + p e^{-i tilt} z) = g0 + p (x cos tilt + y sin tilt), so for
        tilt in [0, pi/2) the extremes sit at opposite rectangle corners.
        """
        x0, x1, y0, y1 = rect
        if not (0.0 <= tilt < np.pi / 2):
            raise ConfigError("tilt must lie in [0, pi/2)")
        if not (hi > lo and x1 > x0 and y1 > y0):
            raise ConfigError("window and rectangle must have positive extent")
        span = (x1 - x0) * np.cos(tilt) + (y1 - y0) * np.sin(tilt)
        p = (hi - lo) / span
        g0 = lo - p * (x0 * np.cos(tilt) + y0 * np.sin(tilt))
        return cls((complex(g0), p * np.exp(-1j * tilt)))


@dataclass
class SurfaceFields:
    """All nodewise fields of one constructed surface."""

    grid: Grid
    params: ModelParams
    alpha: np.ndarray
    a: np.ndarray
    lam: np.ndarray
    nu: np.ndarray          # anchored phase integral; the constant offset is excluded
    c: np.ndarray
    K_formula: np.ndarray
    K_metric: np.ndarray
    mask: np.ndarray        # uint8 bit field, 0 = clean
    meta: dict = field(default_factory=dict)


def write_fields(fields: SurfaceFields, directory: str) -> str:
    """Write fields.csv ('%.17g' text, the mask as an integer) and return its path.

    Rows are x-major; each grid axis is formatted once, and the rows go out
    in blocks, so memory stays bounded by the block, not the grid.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "fields.csv")
    x, y = fields.grid.axes()
    ix, iy = np.divmod(np.arange(x.size * y.size), y.size)
    # reshape, not ravel: the real and imaginary parts stay views
    cols = [(x, ix), (y, iy)] + [f.reshape(-1) for f in (
        fields.alpha, fields.a.real, fields.a.imag, fields.lam.real, fields.lam.imag,
        fields.nu, fields.c.real, fields.c.imag, fields.K_formula, fields.K_metric)]
    # the uint8 mask indexes its 256 values; an integer prints the same under %.17g and %d
    cols.append((np.arange(256.0), fields.mask.reshape(-1)))
    with open(path, "wb") as fh:
        fh.writelines(csv_chunks(",".join(CSV_COLUMNS), cols, x.size * y.size))
    return path


def write_meta(meta: dict, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "meta.json")
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# rows per np.loadtxt call: the reader holds the bundle plus one block, and
# the first block, longer than MAX_SIDE, holds the whole y axis
_READ_BLOCK = 4096


def _count_rows(path: str) -> int:
    """Non-empty lines of a text file, as np.loadtxt reads it in text mode:
    CR, LF and CRLF each end a line, and empty lines are skipped."""
    rows, after_end = 0, True
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            end = np.frombuffer(chunk, np.uint8)
            end = (end == 10) | (end == 13)
            # a line starts at each byte that is no line end but follows one
            rows += (after_end and not end[0]) + int(np.count_nonzero(end[:-1] > end[1:]))
            after_end = bool(end[-1])
    return rows


def read_fields(directory: str) -> SurfaceFields:
    """Rebuild a SurfaceFields bundle from fields.csv + meta.json.

    The rows are parsed block by block straight into the bundle's own arrays,
    each complex pair into the real and imaginary parts of one array, so every
    cell reads back bit for bit; the x and y columns yield only the axes.
    """
    csv_path = os.path.join(directory, "fields.csv")
    meta_path = os.path.join(directory, "meta.json")
    if not os.path.isfile(csv_path):
        raise ConfigError(f"missing fields.csv file under {directory}")
    if not os.path.isfile(meta_path):
        raise ConfigError(f"missing meta.json file under {directory}")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        params = ModelParams(rho=float(meta["config"]["params"]["rho"]),
                             b=float(meta["config"]["params"]["b"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"meta.json lacks readable model params: {exc}") from None

    try:
        with open(csv_path) as fh, warnings.catch_warnings():
            # max_rows counts rows, not lines; loadtxt warns when it skips an empty line
            warnings.simplefilter("ignore", UserWarning)
            if fh.readline().rstrip("\r\n") != ",".join(CSV_COLUMNS):
                raise ConfigError("fields.csv columns do not match the expected layout")
            n = _count_rows(csv_path) - 1   # the header is the first line
            if n <= 0:
                raise ConfigError("fields.csv holds no rows")
            out = {"alpha": np.empty(n), "a": np.empty(n, np.complex128),
                   "lam": np.empty(n, np.complex128), "nu": np.empty(n),
                   "c": np.empty(n, np.complex128), "K_formula": np.empty(n),
                   "K_metric": np.empty(n), "mask": np.empty(n, np.uint8)}
            # the destination of each CSV column after x and y
            into = (out["alpha"], out["a"].real, out["a"].imag, out["lam"].real,
                    out["lam"].imag, out["nu"], out["c"].real, out["c"].imag,
                    out["K_formula"], out["K_metric"], out["mask"])
            x_ax = []
            masks = range((MASK_SINGULAR | MASK_NUPATH | MASK_DOMAIN) + 1)
            for r0 in range(0, n, _READ_BLOCK):
                rows = min(_READ_BLOCK, n - r0)
                # comments=None: a '#' line is an error
                block = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, max_rows=rows)
                if block.shape[1] != len(CSV_COLUMNS):
                    raise ConfigError(f"fields.csv rows need {len(CSV_COLUMNS)} cells, "
                                      f"got {block.shape[1]}")
                if block.shape[0] != rows:
                    raise ConfigError("fields.csv changed while it was read")
                if not np.isin(block[:, 12], masks).all():
                    raise ConfigError("fields.csv mask cells must be integers in 0..7")
                for k, dst in enumerate(into, start=2):
                    dst[r0:r0 + rows] = block[:, k]
                xs = block[:, 0]
                if r0 == 0:   # rows are x-major: the leading run of constant x is the y axis
                    if not math.isfinite(xs[0]):
                        raise ConfigError("grid axes are not uniformly increasing")
                    run = np.flatnonzero(xs != xs[0])
                    if not run.size and rows < n:
                        raise ConfigError(f"grid sides are capped at {MAX_SIDE} nodes")
                    ny = int(run[0]) if run.size else rows
                    y_ax = block[:ny, 1].copy()
                x_ax.append(xs[-r0 % ny::ny].copy())   # the x of rows 0, ny, 2 ny, ...
                del block, xs   # free this block before the next one is parsed
    except ValueError as exc:
        raise ConfigError(f"fields.csv is malformed: {exc}") from None
    if n % ny:
        raise ConfigError("fields.csv row count is not a full grid")
    nx = n // ny
    x_ax = np.concatenate(x_ax)
    for ax in (x_ax, y_ax):
        d = np.diff(ax)
        if not np.isfinite(ax).all() or (len(d) and (
                np.any(d <= 0) or np.ptp(d) > 1e-9 * max(abs(ax[0]), abs(ax[-1]), 1.0))):
            raise ConfigError("grid axes are not uniformly increasing")
    grid = Grid(x0=float(x_ax[0]), x1=float(x_ax[-1]), y0=float(y_ax[0]), y1=float(y_ax[-1]),
                nx=nx, ny=ny)
    return SurfaceFields(grid=grid, params=params, meta=meta,
                         **{name: v.reshape(nx, ny) for name, v in out.items()})
