"""The fields.csv text: the vectorised '%.17g' formatter against Python's own
conversion, write_fields against np.savetxt, byte for byte, and read_fields
against the written bits."""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import threading
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmcsurf._g17 import BLOCK_ROWS, g17_cells, write_csv
from pmcsurf import fields as fields_module
from pmcsurf.coeffs import ModelParams
from pmcsurf.errors import ConfigError
from pmcsurf.fields import (_READ_BLOCK as READ_BLOCK, CSV_COLUMNS, FIELD_COLUMNS, MASK_DOMAIN,
                            TWIN_NAME, Grid, SurfaceFields, read_fields, write_fields, write_meta)


def printed(values) -> list[bytes]:
    return [bytes(cell).replace(b"\0", b"") for cell in g17_cells(values)]


def assert_prints_like_python(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    got = printed(values)
    bad = [(v, b"%.17g" % v, g) for v, g in zip(values.tolist(), got) if g != b"%.17g" % v]
    assert not bad, f"{len(bad)} mismatches, first {bad[:3]}"


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_formatter_matches_python_on_any_floats(values):
    assert_prints_like_python(values)


def test_formatter_matches_python_on_random_bit_patterns():
    rng = np.random.default_rng(20191023)
    assert_prints_like_python(np.frombuffer(rng.bytes(8 * 10**5), np.float64))


def test_formatter_rounds_exact_ties_to_even():
    # n / 2^j with an 18-digit expansion ending in 5 sits exactly halfway
    # between two 17-digit decimals
    rng = np.random.default_rng(3)
    ties = [1 + 2**-17, 1 + 3 * 2**-17]
    for digits_before in range(-3, 16):
        j = 18 - digits_before
        lo, hi = 10.0 ** (digits_before - 1) * 2**j, min(10.0 ** digits_before * 2**j, 2**53)
        n = rng.integers(int(lo) // 2, int(hi) // 2, 300) * 2 + 1
        ties += [float(v) / 2**j for v in n if float(v) / 2**j >= 10.0 ** (digits_before - 1)]
    ties = [t for t in ties if len(Decimal(t).as_tuple().digits) == 18]
    assert len(ties) > 1000
    assert_prints_like_python(ties + [-t for t in ties])


def ulp_neighbours(values, steps: int) -> np.ndarray:
    """values and the doubles up to steps ulps either side of them."""
    out, below, above = [values], values, values
    for _ in range(steps):
        below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
        out += [below, above]
    return np.concatenate(out)


def test_formatter_at_powers_of_ten_and_window_edges():
    assert printed([1e-07]) == [b"9.9999999999999995e-08"]
    tens = ulp_neighbours(np.array([float(f"1e{j}") for j in range(-15, 19)]), 1)
    # the exact window holds decimal exponents -11..16; %g turns to exponents below 1e-4
    edges = ulp_neighbours(np.array([1e-12, 1e-11, 1e-5, 1e-4, 1.0, 1e16, 1e17]), 4)
    values = np.concatenate([tens, edges])
    assert_prints_like_python(np.concatenate([values, -values]))


def test_formatter_signed_zero_and_signed_nan():
    negative_nan = np.array([0xFFF8000000000000], np.uint64).view(np.float64)[0]
    assert math.isnan(negative_nan) and math.copysign(1.0, negative_nan) < 0
    assert_prints_like_python([0.0, -0.0, negative_nan, np.nan, np.inf, -np.inf, 5e-324, -5e-324])


# ---- write_fields against the np.savetxt layout it replaced ----

def savetxt_reference(fields: SurfaceFields, path) -> None:
    X, Y = fields.grid.mesh()
    cols = (X, Y, fields.alpha, fields.a.real, fields.a.imag, fields.lam.real,
            fields.lam.imag, fields.nu, fields.c.real, fields.c.imag, fields.K_formula,
            fields.K_metric, fields.mask)
    np.savetxt(path, np.column_stack([c.ravel() for c in cols]),
               fmt=["%.17g"] * (len(CSV_COLUMNS) - 1) + ["%d"], delimiter=",",
               header=",".join(CSV_COLUMNS), comments="")


def synthetic_fields(nx: int, ny: int, seed: int = 0) -> SurfaceFields:
    """Values across many decades, NaN rows on the domain-masked nodes, slow-path cells."""
    rng = np.random.default_rng(seed)

    def field():
        return rng.standard_normal((nx, ny)) * 10.0 ** rng.integers(-14, 19, (nx, ny))

    mask = (np.arange(nx * ny) % 8).astype(np.uint8).reshape(nx, ny)   # every mask value
    f = SurfaceFields(grid=Grid(-2.5, 1e20, 0.0, 1e-3, nx, ny),
                      params=ModelParams(rho=-3.0, b=1.0),
                      alpha=field(), a=field() + 1j * field(), lam=field() + 1j * field(),
                      nu=field(), c=field() + 1j * field(), K_formula=field(),
                      K_metric=field(), mask=mask)
    for name in ("alpha", "a", "lam", "nu", "c", "K_formula", "K_metric"):
        getattr(f, name)[(mask & MASK_DOMAIN) != 0] = np.nan
    f.alpha[0, 0], f.nu[0, 1], f.K_metric[0, 2] = -0.0, 1e-300, 1e20
    f.a[0, 3], f.c[0, 4] = complex(-1e20, 1e-300), complex(5e-324, -0.0)
    return f


@pytest.mark.parametrize("nx,ny,blocks", [
    (5, 5, 1), (7, 9, 1),
    (32, BLOCK_ROWS // 32, 1),                  # exactly one block: no helper thread
    (64, 2 * BLOCK_ROWS // 64, 2),              # exactly two: the helper formats the last
    (2 * BLOCK_ROWS // 37 + 1, 37, 3),          # an odd count, the last block short
], ids=["5x5", "7x9", "one-block", "two-blocks", "crosses-blocks"])
def test_write_fields_matches_savetxt_bytes(nx, ny, blocks, tmp_path):
    fields = synthetic_fields(nx, ny)
    assert -(-nx * ny // BLOCK_ROWS) == blocks
    if blocks > 2:
        assert nx * ny % BLOCK_ROWS
    write_fields(fields, str(tmp_path / "new"))
    savetxt_reference(fields, tmp_path / "reference.csv")
    assert ((tmp_path / "new" / "fields.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


# ---- write_csv: the caller formats the even blocks, one helper thread the odd ones ----

class ReadLog(np.ndarray):
    """A column that logs the first row and thread of every block read from it,
    and raises on a block that starts at row `poison`."""

    def __getitem__(self, rows):
        if isinstance(rows, slice):
            self.reads.append((rows.start, threading.current_thread() is threading.main_thread()))
            if rows.start == self.poison:
                raise RuntimeError(f"poisoned block at row {rows.start}")
        return super().__getitem__(rows)


def logged_column(nrows: int, poison=None) -> ReadLog:
    col = np.linspace(-1.0, 1.0, nrows).view(ReadLog)
    col.reads, col.poison = [], poison
    return col


def reference_csv(columns) -> bytes:
    rows = zip(*(c.tolist() for c in columns))
    return b"h\n" + b"".join(b",".join(b"%.17g" % v for v in row) + b"\n" for row in rows)


@pytest.mark.parametrize("nrows", [BLOCK_ROWS, 2 * BLOCK_ROWS, 3 * BLOCK_ROWS + 5])
def test_write_csv_gives_even_blocks_to_the_caller_and_odd_ones_to_the_helper(nrows):
    col = logged_column(nrows)
    before = threading.active_count()
    chunks = []
    write_csv(chunks.append, "h", [col, np.arange(nrows) * 0.1], nrows)
    assert threading.active_count() == before
    assert b"".join(chunks) == reference_csv([np.asarray(col), np.arange(nrows) * 0.1])
    assert len(chunks) == 1 + -(-nrows // BLOCK_ROWS)
    assert sorted(col.reads) == [(lo, lo // BLOCK_ROWS % 2 == 0)
                                 for lo in range(0, nrows, BLOCK_ROWS)]


def test_write_csv_raises_what_the_helper_raised():
    nrows = 3 * BLOCK_ROWS
    col = logged_column(nrows, poison=BLOCK_ROWS)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"poisoned block at row {BLOCK_ROWS}"):
        write_csv(lambda chunk: None, "h", [col], nrows)
    assert threading.active_count() == before
    assert (BLOCK_ROWS, False) in col.reads


def test_write_csv_joins_the_helper_when_write_raises():
    nrows = 4 * BLOCK_ROWS
    before = threading.active_count()

    def write(chunk):
        if chunk != b"h\n":   # block 0, while the helper formats block 1
            assert threading.active_count() == before + 1
            raise OSError(32, "Broken pipe")

    with pytest.raises(OSError, match="Broken pipe"):
        write_csv(write, "h", [np.arange(nrows) * 0.5], nrows)
    assert threading.active_count() == before


def test_a_failed_write_leaves_no_writer_thread(monkeypatch, tmp_path):
    class FailingDigest:
        """sha256 whose second block fails, as a full disk fails a write."""
        def __init__(self):
            self.calls = 0

        def update(self, chunk):
            self.calls += 1
            if self.calls == 3:
                raise OSError(28, "No space left on device")

    fields = synthetic_fields(64, 2 * BLOCK_ROWS // 64 + 1)
    before = threading.active_count()
    monkeypatch.setattr(fields_module.hashlib, "sha256", FailingDigest)
    with pytest.raises(OSError, match="No space left") as failure:
        write_fields(fields, str(tmp_path))
    # checked while the traceback, and with it write_fields' frame, is still held
    assert failure.tb is not None
    assert threading.active_count() == before


# ---- read_fields: blocks parsed into the bundle's own arrays ----

FIELD_NAMES = ("alpha", "a", "lam", "nu", "c", "K_formula", "K_metric", "mask")


def test_the_column_table_names_every_array_field_of_the_bundle():
    # the CSV, the twin and the verifier's finiteness check all walk FIELD_COLUMNS
    arrays = [f.name for f in dataclasses.fields(SurfaceFields)
              if f.type in ("np.ndarray", np.ndarray)]
    assert [*FIELD_COLUMNS, "mask"] == arrays


def same_bits(x, y) -> bool:
    """Bitwise equality of two arrays of one dtype, any NaN equal to any NaN."""
    if x.shape != y.shape or x.dtype != y.dtype:
        return False
    if x.dtype.kind == "c":
        return same_bits(x.real, y.real) and same_bits(x.imag, y.imag)
    if x.dtype.kind != "f":
        return bool(np.array_equal(x, y))
    nan = np.isnan(x)
    return bool(np.array_equal(nan, np.isnan(y))
                and np.array_equal(x[~nan].view(np.int64), y[~nan].view(np.int64)))


def assert_same_bundle(got: SurfaceFields, want: SurfaceFields) -> None:
    assert got.grid == want.grid
    for name in FIELD_NAMES:
        assert same_bits(getattr(got, name), getattr(want, name)), name


def written(fields: SurfaceFields, directory, twin: bool = True) -> str:
    """A bundle of fields under directory; without its twin, read_fields parses the CSV."""
    write_fields(fields, str(directory))
    write_meta({"config": {"params": {"rho": fields.params.rho, "b": fields.params.b}}},
               str(directory))
    if not twin:
        (Path(directory) / TWIN_NAME).unlink()
    return str(directory)


@pytest.fixture(params=[40, READ_BLOCK], ids=["block-40", "block-default"])
def read_block(request, monkeypatch):
    """Blocks of 40 rows hold the y axis of every grid below, and split the rest
    of the grid mid-column; with them, byte reads of 40 bytes split lines."""
    monkeypatch.setattr(fields_module, "_READ_BLOCK", request.param)
    if request.param == 40:
        monkeypatch.setattr(fields_module, "_IO_BLOCK", 40)
    return request.param


@pytest.mark.parametrize("nx,ny", [(5, 5), (9, 13), (2 * READ_BLOCK // 37 + 1, 37)],
                         ids=["5x5", "9x13", "crosses-blocks"])
def test_read_fields_returns_the_written_bits(nx, ny, read_block, tmp_path):
    want = synthetic_fields(nx, ny, seed=nx)
    want.grid = Grid(-2.5, 3.0, 0.0, 1e-3, nx, ny)
    assert_same_bundle(read_fields(written(want, tmp_path, twin=False)), want)


def test_complex_cells_round_trip_bit_for_bit(tmp_path):
    # a + 1j * b read (1, nan) as (nan, nan), lost the sign of a zero real part
    # beside a non-negative imaginary one and of a zero imaginary part, and
    # warned on an infinite imaginary part
    want = synthetic_fields(9, 9)
    want.grid = Grid(0.0, 1.0, 0.0, 1.0, 9, 9)
    inf, nan = math.inf, math.nan
    cells = [complex(1.0, nan), complex(-0.0, 0.0), complex(-0.0, 2.5), complex(3.0, -0.0),
             complex(-0.0, -0.0), complex(1.0, inf), complex(-inf, -inf), complex(nan, -0.0),
             complex(nan, 1.0), complex(0.0, -inf)]
    for name in ("a", "lam", "c"):
        getattr(want, name).reshape(-1)[9:9 + len(cells)] = cells
    for twin in (False, True):
        directory = written(want, tmp_path / f"twin={twin}", twin)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read_fields(directory)
        assert_same_bundle(got, want)
        assert math.copysign(1.0, got.a[1, 1].real) < 0
        assert math.copysign(1.0, got.c[1, 3].imag) < 0


def line_end_variants(clean: bytes) -> dict:
    rows = clean.split(b"\n")
    assert rows[-1] == b""
    return {
        "crlf": clean.replace(b"\n", b"\r\n"),
        "lone-cr": clean.replace(b"\n", b"\r"),
        "no-final-newline": clean[:-1],
        "blank-lines-inside": b"\n".join(r + b"\n" * (k % 3 == 1) for k, r in enumerate(rows)),
        "trailing-blank-lines": clean + b"\n\n\r\n",
    }


@pytest.mark.parametrize("variant", list(line_end_variants(b"h\n")))
def test_line_end_variants_read_like_the_clean_file(variant, read_block, tmp_path):
    want = synthetic_fields(9, 9)
    want.grid = Grid(0.0, 1.0, 0.0, 1.0, 9, 9)
    directory = written(want, tmp_path, twin=False)
    clean = read_fields(directory)
    csv = tmp_path / "fields.csv"
    csv.write_bytes(line_end_variants(csv.read_bytes())[variant])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = read_fields(directory)
    assert_same_bundle(got, clean)


def test_read_bundle_owns_its_arrays_and_holds_one_block(tmp_path):
    n = 149   # 22201 rows: six blocks
    want = synthetic_fields(n, n)
    want.grid = Grid(0.0, 1.0, 0.0, 1.0, n, n)
    block = READ_BLOCK * len(CSV_COLUMNS) * 8
    for twin in (False, True):   # the parse holds one block, the twin one read of a member
        directory = written(want, tmp_path / f"twin={twin}", twin)
        tracemalloc.start()
        try:
            got = read_fields(directory)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = [getattr(got, name) for name in FIELD_NAMES]
        for arr in arrays:
            assert arr.base is None or arr.base.nbytes <= arr.nbytes
        assert peak - sum(arr.nbytes for arr in arrays) <= 2 * block


def csv_rows(xy) -> bytes:
    """fields.csv text whose rows hold the given (x, y) and zeros elsewhere."""
    zeros = ",0" * (len(CSV_COLUMNS) - 2)
    return "".join([",".join(CSV_COLUMNS) + "\n"]
                   + [f"{x!r},{y!r}{zeros}\n" for x, y in xy]).encode()


@pytest.mark.parametrize("xy,message", [
    ([(math.nan, 0.0)] + [(1.0, float(j)) for j in range(5)], "uniformly increasing"),
    ([(math.nan if i // 5 == 2 else float(i // 5), float(i % 5)) for i in range(25)],
     "uniformly increasing"),
    ([(0.0, float(j)) for j in range(READ_BLOCK + 1)], "capped"),
], ids=["first-x-nan", "inner-x-nan", "one-column-past-a-block"])
def test_malformed_axes_are_config_errors(xy, message, tmp_path):
    # a NaN inside an axis passed the spacing check, whose comparisons it fails
    written(synthetic_fields(5, 5), tmp_path, twin=False)
    (tmp_path / "fields.csv").write_bytes(csv_rows(xy))
    with pytest.raises(ConfigError, match=message):
        read_fields(str(tmp_path))


# ---- the binary twin: the bits the parse returns, without the parse ----

def bits(values: np.ndarray) -> tuple:
    """dtype, shape and bytes: NaN payloads and signs count."""
    return values.dtype.str, values.shape, values.tobytes()


def assert_same_bits(got: SurfaceFields, want: SurfaceFields) -> None:
    assert got.grid == want.grid
    for name in FIELD_NAMES:
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name


def parsed(directory: str) -> SurfaceFields:
    """read_fields once the bundle's twin is gone."""
    twin = Path(directory) / TWIN_NAME
    if twin.is_dir():
        twin.rmdir()
    else:
        twin.unlink(missing_ok=True)
    return read_fields(directory)


@pytest.fixture
def parse_refused(monkeypatch):
    def refuse(path):
        raise AssertionError(f"{path} was parsed")
    monkeypatch.setattr(fields_module, "_parse_csv", refuse)
    return monkeypatch


@pytest.mark.parametrize("io_block", [40, fields_module._IO_BLOCK], ids=["40-bytes", "default"])
def test_twin_reads_back_the_bits_the_parse_returns(io_block, parse_refused, tmp_path):
    # 40-byte blocks split every member, and a complex value across two reads
    parse_refused.setattr(fields_module, "_IO_BLOCK", io_block)
    want = synthetic_fields(9, 9)
    want.grid = Grid(0.0, 1.0, 0.0, 1.0, 9, 9)
    # -nan, a signalling NaN, a quiet NaN with a payload, -inf, inf, -0.0
    odd = np.array([0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8000000000123,
                    0xFFF0000000000000, 0x7FF0000000000000, 0x8000000000000000],
                   np.uint64).view(np.float64)
    for name in ("alpha", "nu", "K_formula", "K_metric"):
        getattr(want, name).reshape(-1)[9:15] = odd
    for name in ("a", "lam", "c"):
        cells = getattr(want, name).reshape(-1)[9:15]
        cells.real, cells.imag = odd, odd[::-1]
    directory = written(want, tmp_path)
    got = read_fields(directory)
    parse_refused.undo()
    assert_same_bundle(got, want)
    assert_same_bits(got, parsed(directory))
    assert got.alpha.reshape(-1)[10:12].view(np.uint64).tolist() == [0x7FF8000000000000] * 2


def _foreign_twin(directory: Path) -> None:
    other = synthetic_fields(9, 9, seed=1)
    other.grid = Grid(0.0, 1.0, 0.0, 1.0, 9, 9)
    write_fields(other, str(directory / "other"))
    (directory / "other" / TWIN_NAME).replace(directory / TWIN_NAME)
    shutil.rmtree(directory / "other")


def _edit_first_alpha(directory: Path) -> None:
    header, row, rest = (directory / "fields.csv").read_text().split("\n", 2)
    x, y, _, cells = row.split(",", 3)
    (directory / "fields.csv").write_text("\n".join([header, f"{x},{y},0.5,{cells}", rest]))


NOT_THIS_CSVS_TWIN = {
    "missing": lambda d: (d / TWIN_NAME).unlink(),
    "truncated": lambda d: (d / TWIN_NAME).write_bytes((d / TWIN_NAME).read_bytes()[:1000]),
    "empty": lambda d: (d / TWIN_NAME).write_bytes(b""),
    "not-a-zip": lambda d: (d / TWIN_NAME).write_bytes(b"\x93NUMPY not a zip archive"),
    "directory": lambda d: ((d / TWIN_NAME).unlink(), (d / TWIN_NAME).mkdir()),
    "another-bundles": _foreign_twin,
    "csv-edited": _edit_first_alpha,
}


@pytest.mark.parametrize("case", list(NOT_THIS_CSVS_TWIN))
def test_a_twin_that_is_not_this_csvs_is_never_read(case, tmp_path):
    want = synthetic_fields(9, 9)
    want.grid = Grid(0.0, 1.0, 0.0, 1.0, 9, 9)
    directory = written(want, tmp_path)
    NOT_THIS_CSVS_TWIN[case](tmp_path)
    got = read_fields(directory)
    assert_same_bits(got, parsed(directory))
    if case == "csv-edited":
        assert got.alpha[0, 0] == 0.5


def test_meta_writes_each_non_finite_float_as_null(tmp_path):
    # nu.max_path_mismatch with no checkable node and witness.min_abs_c with no
    # clear node are NaN; json.dump wrote them as the non-JSON token NaN
    meta = {"nu": {"max_path_mismatch": math.nan, "path_tolerance": 0.25},
            "witness": {"min_abs_c": math.nan}, "range": (-math.inf, 1.5, [math.inf, 2])}
    text = Path(write_meta(meta, str(tmp_path))).read_text()

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    assert json.loads(text, parse_constant=refuse) == {
        "nu": {"max_path_mismatch": None, "path_tolerance": 0.25},
        "witness": {"min_abs_c": None}, "range": [None, 1.5, [None, 2]]}
    finite = {"nu": {"path_tolerance": 0.25}, "range": [1.5, [2, True, None, "nan"]]}
    assert Path(write_meta(finite, str(tmp_path))).read_text() == \
        json.dumps(finite, indent=2, sort_keys=True) + "\n"
