"""Grid and its stencils, harmonic input, and the on-disk surface-field bundle.

A surface run produces nodewise fields over a uniform rectangle: the Kaehler
angle alpha, the amplitude a, the frame factor lambda, the phase integral nu,
the second-fundamental-form entry c, and two curvature evaluations. They
travel as fields.csv (one row per node, x-major) next to a meta.json; the
verifier reconstructs everything from those two files alone. A third file,
fields.npz, is a binary twin of the CSV keyed by the CSV's sha256: a reader
that finds the CSV unchanged takes the arrays from it instead of parsing.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import sys
import warnings
import zipfile
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from ._g17 import csv_chunks
from .coeffs import ModelParams
from .errors import ConfigError

# the fields.csv columns of each SurfaceFields array, in file order: a complex
# array is a real and an imaginary column
FIELD_COLUMNS = {"alpha": ("alpha",), "a": ("a_re", "a_im"), "lam": ("lambda_re", "lambda_im"),
                 "nu": ("nu",), "c": ("c_re", "c_im"), "K_formula": ("K_formula",),
                 "K_metric": ("K_metric",)}
CSV_COLUMNS = ("x", "y", *(c for columns in FIELD_COLUMNS.values() for c in columns), "mask")

# mask bits
MASK_SINGULAR = 1   # node too close to the cascade singularity sin^2(alpha) = 2/3
MASK_NUPATH = 2     # two-path phase integration disagreed beyond 10 h^2
MASK_DOMAIN = 4     # phase amplitude squared nonpositive: no admissible c there

_MASK_MAX = MASK_SINGULAR | MASK_NUPATH | MASK_DOMAIN

MAX_SIDE = 2049     # nodes per grid axis; the finest grid pair is 1025/2049
GAUSS_STEP = 3      # Laplacian stencil spacing in nodes; see construct.gauss_curvature

# fields.npz, the binary twin of fields.csv: one 1-D little-endian array per
# member, the fields with one entry per CSV row
TWIN_NAME = "fields.npz"
_TWIN_FIELDS = {"alpha": np.dtype("<f8"), "a": np.dtype("<c16"), "lam": np.dtype("<c16"),
                "nu": np.dtype("<f8"), "c": np.dtype("<c16"), "K_formula": np.dtype("<f8"),
                "K_metric": np.dtype("<f8"), "mask": np.dtype("u1")}
_TWIN_MEMBERS = {"sha256": np.dtype("u1"), "x": np.dtype("<f8"), "y": np.dtype("<f8"),
                 **_TWIN_FIELDS}
BUNDLE_FILES = ("meta.json", "fields.csv", TWIN_NAME)   # what write_meta and write_fields write


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
        # underflows or overflows turns every difference into NaN or inf.
        # Products, since float ** raises OverflowError where * gives inf
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

    def first_node(self, bad: np.ndarray) -> tuple:
        """((i, j), name): the first node in row order where bad holds, and its name
        for a message, with its x and y."""
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        x, y = (float(v[k]) for v, k in zip(self.axes(), (i, j)))
        return (i, j), f"node ({i}, {j}) of the {self.nx}x{self.ny} grid (x = {x!r}, y = {y!r})"


# ---- grid stencils: every finite difference that construct and verify take ----

def _wirtinger(op):
    """The stencil of 0.5 op(F_x, i F_y) by central differences: NaN on a frame
    of 1 node, rounding in F amplified by 1/h."""
    def stencil(F, hx, hy):
        out = np.full(F.shape, np.nan, dtype=np.complex128)
        fx = (F[2:, 1:-1] - F[:-2, 1:-1]) / (2.0 * hx)
        fy = (F[1:-1, 2:] - F[1:-1, :-2]) / (2.0 * hy)
        out[1:-1, 1:-1] = 0.5 * op(fx, 1j * fy)
        return out
    return stencil


dz, dzbar = _wirtinger(np.subtract), _wirtinger(np.add)


def gauss_frame(grid: Grid) -> int:
    """Nodes in the frame on which the metric curvature is NaN: its stencil
    spacing, GAUSS_STEP nodes, cut to fit a grid too small for it."""
    return min(GAUSS_STEP, (min(grid.nx, grid.ny) - 1) // 2)


def laplacian(F, hx, hy, m=1):
    """F_xx + F_yy by the five-point stencil at a spacing of m nodes, in F's dtype: NaN
    on a frame of m nodes, rounding in F amplified by 1/(m h)^2. Spacings are squared
    by pow, as K_metric always was: the product differs in the last bit for some h."""
    out = np.full(F.shape, np.nan, dtype=F.dtype)
    c = F[m:-m, m:-m]
    out[m:-m, m:-m] = ((F[2 * m:, m:-m] - 2.0 * c + F[:-2 * m, m:-m]) / (m * hx) ** 2
                       + (F[m:-m, 2 * m:] - 2.0 * c + F[m:-m, :-2 * m]) / (m * hy) ** 2)
    return out


def dzdzbar(F, hx, hy):
    """d^2 F / dz dzbar, a quarter of the one-node laplacian, in F's dtype."""
    return 0.25 * laplacian(F, hx, hy)


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


def _as_parsed(flat: np.ndarray) -> np.ndarray:
    """flat as the CSV parse returns it: the writer prints every NaN as "nan",
    which np.loadtxt reads as np.nan, so every NaN part becomes np.nan;
    signed zeros and infinities keep their bits."""
    if flat.dtype.kind not in "fc":
        return flat
    parts = flat.view(np.float64)
    return np.where(np.isnan(parts), np.nan, parts)


def write_fields(fields: SurfaceFields, directory: str) -> str:
    """Write fields.csv ('%.17g' text, the mask as an integer) and its binary
    twin fields.npz, and return the CSV's path.

    Rows are x-major; each grid axis is formatted once, and the rows go out
    in blocks, so memory stays bounded by the block, not the grid. The twin
    is the uncompressed zip np.savez writes, one array at a time: the sha256
    of the CSV bytes, hashed as they are written, the axes, and each field
    flattened as read_fields would parse it from the CSV.
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
    digest = hashlib.sha256()
    # closing: a failed write joins the writer's helper thread before raising
    with open(path, "wb") as fh, closing(
            csv_chunks(",".join(CSV_COLUMNS), cols, x.size * y.size)) as chunks:
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
    members = {"sha256": np.frombuffer(digest.digest(), np.uint8), "x": x, "y": y,
               **{name: getattr(fields, name) for name in _TWIN_FIELDS}}
    # ZipFile.open stamps a member with a fixed 1980 date, so equal fields
    # give equal bytes; each member goes out _IO_BLOCK bytes at a time
    with zipfile.ZipFile(os.path.join(directory, TWIN_NAME), "w") as zf:
        for name, values in members.items():
            flat = np.ascontiguousarray(values, _TWIN_MEMBERS[name]).reshape(-1)
            step = _IO_BLOCK // flat.itemsize
            with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array_header_1_0(
                    fh, np.lib.format.header_data_from_array_1_0(flat))
                for lo in range(0, flat.size, step):
                    fh.write(_as_parsed(flat[lo:lo + step]))
    return path


def dump_json(value, fh, **kw) -> None:
    """json.dump(value, fh, **kw) as strict JSON: a non-finite float is written as null."""
    def strict(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {k: strict(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [strict(x) for x in v]
        return v
    json.dump(strict(value), fh, allow_nan=False, **kw)


def write_json(value, path: str) -> str:
    """Write value to path as JSON (dump_json): indent 2, sorted keys, a trailing newline."""
    with open(path, "w") as fh:
        dump_json(value, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_json(path: str):
    """The JSON value in the file at path; text that is not JSON, or nests too
    deep to parse, is a ConfigError naming path, and a failed open an OSError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:   # ValueError: also an int past the digit limit
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None


def write_meta(meta: dict, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    return write_json(meta, os.path.join(directory, "meta.json"))


# rows per np.loadtxt call: the reader holds the bundle plus one block, and
# the first block, longer than MAX_SIDE, holds the whole y axis
_READ_BLOCK = 4096
# bytes per read or write of fields.csv (its row count and hash) and of a twin member
_IO_BLOCK = 1 << 18
_MASK_MESSAGE = f"mask cells must be integers in 0..{_MASK_MAX}"
# what reading a zip member can raise on a file that is not a well-formed twin
_TWIN_ERRORS = (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile)


def _count_rows(path: str) -> int:
    """Non-empty lines of a text file, as np.loadtxt reads it in text mode:
    CR, LF and CRLF each end a line, and empty lines are skipped."""
    rows, after_end = 0, True
    with open(path, "rb") as fh:
        while chunk := fh.read(_IO_BLOCK):
            end = np.frombuffer(chunk, np.uint8)
            end = (end == 10) | (end == 13)
            # a line starts at each byte that is no line end but follows one
            rows += (after_end and not end[0]) + int(np.count_nonzero(end[:-1] > end[1:]))
            after_end = bool(end[-1])
    return rows


def _parse_csv(csv_path: str):
    """The axes and flat fields of fields.csv, parsed 4096 rows at a time
    straight into the bundle's own arrays, each complex pair into the real and
    imaginary parts of one array; every row's x and y must be the axis values
    of its node, bit for bit."""
    try:
        with open(csv_path) as fh, warnings.catch_warnings():
            # max_rows counts rows, not lines; loadtxt warns when it skips an empty line
            warnings.simplefilter("ignore", UserWarning)
            if fh.readline().rstrip("\r\n") != ",".join(CSV_COLUMNS):
                raise ConfigError("fields.csv columns do not match the expected layout")
            n = _count_rows(csv_path) - 1   # the header is the first line
            if n <= 0:
                raise ConfigError("fields.csv holds no rows")
            out = {name: np.empty(n, dtype) for name, dtype in _TWIN_FIELDS.items()}
            # the destination of each CSV column after x and y
            into = (out["alpha"], out["a"].real, out["a"].imag, out["lam"].real,
                    out["lam"].imag, out["nu"], out["c"].real, out["c"].imag,
                    out["K_formula"], out["K_metric"], out["mask"])
            for r0 in range(0, n, _READ_BLOCK):
                rows = min(_READ_BLOCK, n - r0)
                # comments=None: a '#' line is an error
                block = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, max_rows=rows)
                if block.shape[1] != len(CSV_COLUMNS):
                    raise ConfigError(f"fields.csv rows need {len(CSV_COLUMNS)} cells, "
                                      f"got {block.shape[1]}")
                if block.shape[0] != rows:
                    raise ConfigError("fields.csv changed while it was read")
                # checked before the cast to uint8, which would wrap 257 to 1
                if not np.isin(block[:, 12], range(_MASK_MAX + 1)).all():
                    raise ConfigError(_MASK_MESSAGE)
                for k, dst in enumerate(into, start=2):
                    dst[r0:r0 + rows] = block[:, k]
                xs, ys = block[:, 0], block[:, 1]
                if r0 == 0:   # rows are x-major: the leading run of constant x is the y axis
                    if not math.isfinite(xs[0]):
                        raise ConfigError("grid axes are not uniformly increasing")
                    run = np.flatnonzero(xs != xs[0])
                    if not run.size and rows < n:
                        raise ConfigError(f"grid sides are capped at {MAX_SIDE} nodes")
                    ny = int(run[0]) if run.size else rows
                    y_ax = ys[:ny].copy()
                    x_ax = np.empty(-(-n // ny))
                col, row = np.divmod(np.arange(r0, r0 + rows), ny)
                starts = row == 0   # rows 0, ny, 2 ny, ... give the x axis
                x_ax[col[starts]] = xs[starts]
                off = ((xs.view(np.int64) != x_ax[col].view(np.int64))
                       | (ys.view(np.int64) != y_ax[row].view(np.int64)))
                if off.any():
                    raise ConfigError(f"fields.csv data row {r0 + int(np.argmax(off)) + 1} "
                                      "is not at the grid node its position names")
                del block, xs, ys   # free this block before the next one is parsed
    except ValueError as exc:
        raise ConfigError(f"fields.csv is malformed: {exc}") from None
    return x_ax, y_ax, out


def _twin_member(zf: zipfile.ZipFile, name: str, lengths) -> np.ndarray:
    """One stored .npy member of the twin as a fresh array, read only after its
    header shows a 1-D array of the member's dtype whose length is in lengths;
    a member that is anything else is a ValueError, and nothing is unpickled."""
    dtype = _TWIN_MEMBERS[name]
    info = zf.getinfo(f"{name}.npy")
    if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 1:   # bit 0: encrypted
        raise ValueError(f"member {name} is compressed or encrypted")
    with zf.open(info) as fh:
        if np.lib.format.read_magic(fh) != (1, 0):
            raise ValueError(f"member {name} is not a version 1.0 .npy array")
        shape, _, got = np.lib.format.read_array_header_1_0(fh)
        if got != dtype or len(shape) != 1 or shape[0] not in lengths:
            raise ValueError(f"member {name} holds {got} of shape {shape}, "
                             f"not 1-D {dtype} of the expected length")
        values = np.empty(shape[0], dtype)
        data = values.view(np.uint8)
        for lo in range(0, data.size, _IO_BLOCK):
            piece = data[lo:lo + _IO_BLOCK]
            if fh.readinto(piece) != piece.size:
                raise ValueError(f"member {name} holds fewer than {shape[0]} values")
        if fh.read(1):
            raise ValueError(f"member {name} holds more than {shape[0]} values")
    return values


def _read_twin(path: str, digest: bytes):
    """The axes and flat fields stored in fields.npz, or None when it is
    missing, unreadable or does not hold digest, the sha256 of fields.csv.

    A twin that holds the digest claims to be this CSV's, so anything else
    wrong with it is a ConfigError rather than a reason to parse.
    """
    try:
        zf = zipfile.ZipFile(path)
    except _TWIN_ERRORS:
        return None
    with zf:
        try:
            if _twin_member(zf, "sha256", (len(digest),)).tobytes() != digest:
                return None
        except _TWIN_ERRORS:
            return None
        try:
            want = sorted(f"{name}.npy" for name in _TWIN_MEMBERS)
            if sorted(zf.namelist()) != want:
                raise ValueError(f"its members are {sorted(zf.namelist())}, not {want}")
            x_ax, y_ax = (_twin_member(zf, ax, range(1, MAX_SIDE + 1)) for ax in ("x", "y"))
            out = {name: _twin_member(zf, name, (x_ax.size * y_ax.size,))
                   for name in _TWIN_FIELDS}
        except _TWIN_ERRORS as exc:
            raise ConfigError(f"{TWIN_NAME} holds the sha256 of fields.csv "
                              f"but is malformed: {exc}") from None
    return x_ax, y_ax, out


def _bundle(meta: dict, params: ModelParams, x_ax, y_ax, out: dict) -> SurfaceFields:
    """The bundle of the axes and flat fields, parsed or from the twin, once
    they pass the checks every read bundle passes."""
    n, nx, ny = out["mask"].size, x_ax.size, y_ax.size
    if n != nx * ny:
        raise ConfigError("fields.csv row count is not a full grid")
    if out["mask"].max() > _MASK_MAX:   # no int64 copy of the mask, as np.isin makes
        raise ConfigError(_MASK_MESSAGE)
    for ax in (x_ax, y_ax):
        d = np.diff(ax)
        if not np.isfinite(ax).all() or (len(d) and (
                np.any(d <= 0) or np.ptp(d) > 1e-9 * max(abs(ax[0]), abs(ax[-1]), 1.0))):
            raise ConfigError("grid axes are not uniformly increasing")
    grid = Grid(x0=float(x_ax[0]), x1=float(x_ax[-1]), y0=float(y_ax[0]), y1=float(y_ax[-1]),
                nx=nx, ny=ny)
    return SurfaceFields(grid=grid, params=params, meta=meta,
                         **{name: v.reshape(nx, ny) for name, v in out.items()})


def read_fields(directory: str) -> SurfaceFields:
    """Rebuild a SurfaceFields bundle from fields.csv + meta.json.

    fields.csv is hashed first, a block at a time. When fields.npz holds that
    sha256, the arrays come from it, bit for bit what the parse would return;
    otherwise the rows are parsed. Either way the arrays pass the same checks
    before they become the bundle, and every cell reads back bit for bit.
    """
    csv_path = os.path.join(directory, "fields.csv")
    meta_path = os.path.join(directory, "meta.json")
    if not os.path.isfile(csv_path):
        raise ConfigError(f"missing fields.csv file under {directory}")
    if not os.path.isfile(meta_path):
        raise ConfigError(f"missing meta.json file under {directory}")
    meta = read_json(meta_path)
    try:
        params = ModelParams(rho=float(meta["config"]["params"]["rho"]),
                             b=float(meta["config"]["params"]["b"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"meta.json lacks readable model params: {exc}") from None

    digest = hashlib.sha256()
    with open(csv_path, "rb") as fh:
        while block := fh.read(_IO_BLOCK):
            digest.update(block)
    parts = _read_twin(os.path.join(directory, TWIN_NAME), digest.digest())
    if parts is None:
        parts = _parse_csv(csv_path)
    return _bundle(meta, params, *parts)
