"""Exact vectorised '%.17g' text for float64 arrays, and CSV rows built from it.

The digits come from integer arithmetic, as in fixed-precision printf
(U. Adams, "Ryu revisited: printf floating point conversion", OOPSLA 2019),
instead of one Python string conversion per value. For a normal double
|x| = m 2^e with decimal exponent k in [-11, 16], the 17 significant digits
are D = round-half-even(m 5^(16-k) 2^(16-k+e)); since 5^27 < 2^63 the product
fits 128 bits, formed from 32-bit limbs in uint64. Zero, inf and NaN are
constant strings, and every other double (k outside the window, subnormals)
goes through b"%.17g" % v one at a time. Every cell holds exactly the bytes
'%.17g' % v prints.

A cell is fixed-width and NUL-padded, and a NUL stands for "no character
here": trailing zeros and an empty decimal point are zeroed where they sit,
and a whole block of rows is compacted by one bytes.translate(None, b"\\0").

write_csv formats a CSV of more than one block on two threads, the caller
and one helper. Counting blocks from 0, the caller formats the even ones and
the helper the odd ones: each odd block goes to the helper before the caller
formats the even block before it, and the helper starts its next block as it
hands one back, while the caller's write takes that one. Each thread formats
into a buffer of its own, and the blocks go to write in order, so the bytes
are those one thread prints; the helper is joined inside the one call. The
numpy kernels release the interpreter lock, so the two threads overlap when
a second core is free; the Python between kernels and bytes.translate hold
it and run one at a time. One helper, not a pool: more formatters than cores
convoy on the lock (D. Beazley, "Understanding the Python GIL", PyCon 2010),
and each adds a malloc arena and its block temporaries to the peak memory. A
CSV of one block starts no thread.
"""
from __future__ import annotations

import numpy as np

# cell bytes: 0 sign, 1-5 "0.000" prefix, 7 the first digit, 8-24 the other
# sixteen digits with the point among them, 25-28 "e-XX"
WIDTH = 29
# rows per block, each thread's unit of work. On the surfaces workload 3072 and
# 4096 rows ran within 4% of 2048 but raised peak RSS by 5.9% and 8.1% against
# 3.7%; at 1024 rows the threads hand the interpreter lock back and forth so
# often that two threads were 12% slower than one. (Before g17_cells dropped its
# spent temporaries, 3072 rows reached fresh pages: 227k minor faults, not 42k.)
BLOCK_ROWS = 2048

_KLO, _NK = -11, 28                  # the exact window: k in [_KLO, _KLO + _NK)


def _lowmask(nbytes):
    """uint64 masks of the low nbytes bytes, nbytes clipped to 0..8."""
    return (np.uint64(1) << (8 * np.clip(nbytes, 0, 8)).astype(np.uint64)) - np.uint64(1)


def _tables():
    """Lookup tables by k - _KLO, by the digit count before the point, and by 4-digit group."""
    k = np.arange(_KLO, _KLO + _NK)
    pow5 = np.uint64(5) ** (16 - k).astype(np.uint64)
    shift = 64 - np.frexp(pow5.astype(np.float64))[1]          # 5^q normalised to 64 bits
    # the quotient is the high word of m 2^11 * f, shifted right by s - bexp
    by_k = {"f": pow5 << shift.astype(np.uint64), "s": shift + k + 1006}
    # %g: exponent notation below 1e-4, "0." and zeros below 1, plain digits above
    expo, small = k <= -5, (k < 0) & (k >= -4)
    by_k["point"] = np.where(expo, 1, np.where(small, 17, k + 1))   # digits before the point
    by_k["keep"] = np.where(small, 1, by_k["point"])                 # digits kept though zero
    head = np.zeros((_NK, 8), np.uint8)
    head[small, 1:3] = np.frombuffer(b"0.", np.uint8)
    j = np.arange(8)
    head[(j >= 3) & (j < 2 - k[:, None]) & small[:, None]] = ord("0")
    by_k["head"] = head.view("<u8").ravel()
    tail = np.zeros((_NK, 8), np.uint8)
    tail[expo, 1:5] = np.stack([np.full(expo.sum(), ord("e")), np.full(expo.sum(), ord("-")),
                                ord("0") + -k[expo] // 10, ord("0") + -k[expo] % 10], axis=1)
    by_k["tail"] = tail.view("<u8").ravel()
    # with p digits before the point, it sits at byte p - 1 of cell words 1-3
    by_p = {}
    for w in range(3):
        at = np.arange(18) - 1 - 8 * w
        by_p[f"below{w}"] = _lowmask(at)
        by_p[f"above{w}"] = ~_lowmask(at + 1)
        by_p[f"dot{w}"] = ((at >= 0) & (at < 8)) * (
            np.uint64(ord(".")) << (8 * at.clip(0, 7)).astype(np.uint64))
    # a group's four ASCII digits, and its count of trailing zeros in the high word
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")
    trailing = sum((g % 10**n == 0) for n in (1, 2, 3, 4))
    groups = digits.astype(np.uint8).view("<u4").ravel() | (trailing.astype(np.uint64) << 32)
    return by_k, by_p, groups


_BY_K, _BY_P, _GROUP = _tables()
_SPECIAL = np.zeros((5, WIDTH), np.uint8)
for _row, _text in zip(_SPECIAL, (b"nan", b"0", b"-0", b"inf", b"-inf")):
    _row[:len(_text)] = np.frombuffer(_text, np.uint8)


def _scaled(m, bexp, k):
    """(floor, round-half-even) of |x| 10^(16-k) for in-window k (as k - _KLO).

    m is the 53-bit significand with its hidden bit, bexp the biased exponent.
    With m and 5^(16-k) both normalised to 64 bits the quotient lies in the
    high word of their product, shifted right by s in [2, 15].
    """
    f = _BY_K["f"][k]
    m = m << 11
    a1, a0 = m >> 32, m & 0xFFFFFFFF
    b1, b0 = f >> 32, f & 0xFFFFFFFF
    del m, f
    cross = a0 * b1
    mid = cross + a1 * b0
    hi = a1 * b1 + (mid >> 32) + ((mid < cross).astype(np.uint64) << 32)
    del a1, b1, cross
    mid <<= 32
    lo = a0 * b0 + mid
    del a0, b0
    hi += lo < mid
    del mid
    s = (_BY_K["s"][k] - bexp).astype(np.uint64)
    half = hi >> (s - 1)                                 # the quotient and one more bit
    floor = half >> 1
    # a set half bit rounds up past a tie, or at a tie when the quotient is odd
    up = ((hi << (65 - s)) | lo | (floor & 1)) != 0
    return floor, (half + up) >> 1


def g17_cells(values) -> np.ndarray:
    """(n, WIDTH) uint8 cells: row i is b"%.17g" % values[i], NUL-padded.

    Each temporary is dropped once spent (here and in _scaled), so a call
    peaks at about 113 bytes per value, not 283: a 2048-row block of the
    writer on each of its two threads then reuses freed heap memory.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = v.view(np.uint64)
    bexp = ((bits >> 52) & 0x7FF).astype(np.intp)
    normal = (bexp > 0) & (bexp < 0x7FF)
    k = np.floor(np.log10(np.abs(np.where(normal, v, 1.0)))).astype(np.intp) - _KLO
    fast = normal & (k >= 0) & (k < _NK)
    np.clip(k, 0, _NK - 1, out=k)
    m = (bits & (2**52 - 1)) | 2**52
    floor, D = _scaled(m, bexp, k)
    # floor(log10) can miss by one next to a power of ten; the truncated quotient tells
    off = np.flatnonzero(fast & ((floor < 10**16) | (floor >= 10**17)))
    if off.size:
        k[off] += np.where(floor[off] >= 10**17, 1, -1)
        inside = (k[off] >= 0) & (k[off] < _NK)
        fast[off[~inside]] = False
        off = off[inside]
        D[off] = _scaled(m[off], bexp[off], k[off])[1]
        np.clip(k, 0, _NK - 1, out=k)
    del m, bexp, normal, floor, off
    # D never rounds up to 10^17 here: the largest double below a power of ten
    # in the window falls at least 4.5e-17 (relative) short of it, and 17
    # digits resolve 5e-18

    d0 = D.view(np.int64) // 10**16      # D < 2^63: signed digit arithmetic indexes directly
    rest = D.view(np.int64) - d0 * 10**16
    h8 = rest // 10**8
    l8 = rest - h8 * 10**8
    del D, rest
    g0, g2 = h8 // 10**4, l8 // 10**4
    g0, g1, g2, g3 = (_GROUP[g] for g in (g0, h8 - g0 * 10**4, g2, l8 - g2 * 10**4))
    del h8, l8
    tz = g0 >> 32
    for g in (g1, g2, g3):                # trailing zeros of d1..d16
        tz = (g >> 32) + (g >> 34) * tz   # a group of four zeros counts 4 = 1 << 2
    nsig = 17 - tz.astype(np.intp)
    point = _BY_K["point"][k]
    keep = np.maximum(nsig, _BY_K["keep"][k])
    w1 = ((g0 & 0xFFFFFFFF) | (g1 << 32)) & _BY_P["below0"][keep]
    w2 = ((g2 & 0xFFFFFFFF) | (g3 << 32)) & _BY_P["below1"][keep]
    del g0, g1, g2, g3, g, tz, keep
    dot = nsig > point
    del nsig

    cell = np.empty((v.size, 4), np.uint64)
    cell[:, 0] = (_BY_K["head"][k] | ((bits >> 63) * ord("-"))
                  | ((d0 + ord("0")).astype(np.uint64) << 56))
    # each word's masks by the point's place are looked up as the word is built
    cell[:, 1] = ((w1 & _BY_P["below0"][point]) | ((w1 << 8) & _BY_P["above0"][point])
                  | _BY_P["dot0"][point] * dot)
    cell[:, 2] = ((w2 & _BY_P["below1"][point])
                  | (((w2 << 8) | (w1 >> 56)) & _BY_P["above1"][point])
                  | _BY_P["dot1"][point] * dot)
    del w1
    cell[:, 3] = (((w2 >> 56) & _BY_P["above2"][point]) | _BY_P["dot2"][point] * dot
                  | _BY_K["tail"][k])
    cell = cell.view(np.uint8)[:, :WIDTH]

    other = np.flatnonzero(~fast)
    if other.size:
        x, neg = v[other], (bits[other] >> 63).astype(np.intp)
        code = np.select([np.isnan(x), x == 0, np.isinf(x)], [0, 1 + neg, 3 + neg], -1)
        cell[other[code >= 0]] = _SPECIAL[code[code >= 0]]
        slow = other[code < 0]
        if slow.size:
            text = b"".join((b"%.17g" % x).ljust(WIDTH, b"\0") for x in v[slow].tolist())
            cell[slow] = np.frombuffer(text, np.uint8).reshape(-1, WIDTH)
    return cell


def write_csv(write, header: str, columns, nrows: int) -> None:
    """Pass a CSV to write as bytes: the header line, then nrows rows of '%.17g' cells.

    Each column is a length-nrows array, or a (values, rows) pair whose row r
    prints values[rows[r]], so that a repeated grid axis is formatted once.
    The rows go to write in blocks of BLOCK_ROWS, one call each; with more
    than one block, one helper thread formats the odd blocks (module
    docstring). The helper is joined before write_csv returns or raises.
    """
    write(header.encode("ascii") + b"\n")
    tabled = {c: (g17_cells(col[0]), col[1]) for c, col in enumerate(columns)
              if isinstance(col, tuple)}
    plain = [c for c in range(len(columns)) if c not in tabled]

    starts = range(0, nrows, BLOCK_ROWS)
    # even blocks are formatted in the first buffer, odd ones in the second: a
    # fresh buffer per block faults its pages in afresh on the helper's heap
    bufs = [np.empty((min(BLOCK_ROWS, nrows), len(columns), WIDTH + 1), np.uint8)
            for _ in starts[:2]]
    for buf in bufs:
        buf[:, :, WIDTH] = ord(",")
        buf[:, -1, WIDTH] = ord("\n")

    def block(lo):
        rows = slice(lo, min(lo + BLOCK_ROWS, nrows))
        out = bufs[lo // BLOCK_ROWS % 2][:rows.stop - lo]
        for c, (cells, index) in tabled.items():
            out[:, c, :WIDTH] = cells[index[rows]]
        part = np.empty((len(out), len(plain)))
        for j, c in enumerate(plain):
            part[:, j] = columns[c][rows]
        out[:, plain, :WIDTH] = g17_cells(part).reshape(len(out), len(plain), WIDTH)
        return out.tobytes().translate(None, b"\0")

    if len(starts) < 2:
        for lo in starts:
            write(block(lo))
        return
    # imported here, not at the top: it adds about 6 ms to every command's start-up
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1, thread_name_prefix="pmcsurf-csv") as helper:
        odds = iter(starts[1::2])
        future = helper.submit(block, next(odds))
        for lo in starts[::2]:
            write(block(lo))
            if future is not None:
                done = future.result()
                odd = next(odds, None)
                # the helper starts its next block before write takes this one
                future = None if odd is None else helper.submit(block, odd)
                write(done)
