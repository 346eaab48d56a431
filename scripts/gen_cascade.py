#!/usr/bin/env python3
"""Generate src/pmcsurf/_cascade_gen.py, the verifier's cascade as straight-line numpy.

    python3 scripts/gen_cascade.py           # rewrite the module
    python3 scripts/gen_cascade.py --check   # exit 1 if the committed module differs

The verifier reads only values of the cascade. The ones built on partials,
t5..t8, t10 and t9 under each reading, come from this module (t1, t2 and
conj t1 need none; verify reads them from the jets at order 0). The formulas
are not transcribed here. The jet cascade's own methods
(coeffs._Cascade._t1.._t10) run on sympy symbols instead of jets: the base
point is the symbols (alpha real, a, abar), the trig block is sympy sin/cos,
a partial is sp.diff, a reciprocal is 1 / x, and the swap mirror's
swap_vars() is the simultaneous substitution a <-> abar. One sp.cse pass turns the seven expressions into
one function of (alpha, a, abar, rho, b).

Each printed statement is then lowered, through its own ast, to nested
numpy ufunc calls, one per array operation of the printed binary tree, so
every call has the operands, and the bits, of the printed arithmetic. Each
call writes a row of a caller's arena (F float64, C complex128), allocated
by linear scan; scalar-only subexpressions stay plain Python.

Development only: it needs sympy, which pmcsurf does not depend on. The
output does not depend on PYTHONHASHSEED.
"""
from __future__ import annotations

import argparse
import ast
import difflib
import heapq
import sys
import types
from pathlib import Path

import sympy as sp
from sympy.printing.numpy import NumPyPrinter
from sympy.printing.precedence import PRECEDENCE

ROOT = Path(__file__).resolve().parent.parent
# the package without its __init__, which imports the module this script writes
sys.modules["pmcsurf"] = types.ModuleType("pmcsurf")
sys.modules["pmcsurf"].__path__ = [str(ROOT / "src" / "pmcsurf")]

from pmcsurf import coeffs  # noqa: E402

TARGET = ROOT / "src" / "pmcsurf" / "_cascade_gen.py"

ALPHA = sp.Symbol("alpha", real=True)
A, ABAR = sp.symbols("a abar")
RHO, B = sp.symbols("rho b", real=True)
VARS = (ALPHA, A, ABAR)

T_IDS = (5, 6, 7, 8, 10)   # the coefficients built on partials the residuals read, besides t9


class _Swappable:
    """A value of the mirror cascade; swap_vars() exchanges a and abar."""

    def __init__(self, expr):
        self.expr = expr

    def swap_vars(self):
        return self.expr.xreplace({A: ABAR, ABAR: A})


class _Mirror:
    """t_i at the swapped point is t_i of this cascade with a and abar exchanged."""

    def __init__(self, cascade):
        self.cascade = cascade

    def t(self, *args):
        return _Swappable(self.cascade.t(*args))


class SymbolicCascade(coeffs._Cascade):
    """coeffs._Cascade over sympy expressions; orders collapse, since an
    expression carries every partial."""

    def __init__(self):
        params = types.SimpleNamespace(rho=RHO, b=B)
        super().__init__(types.SimpleNamespace(params=params), "assume")

    def base(self, order):
        return VARS

    def trig(self, order):
        s, cos = sp.sin(ALPHA), sp.cos(ALPHA)
        return {"s": s, "s2": s ** 2, "cot": cos / s, "cos": cos, "inv_s2": 1 / s ** 2}

    def d(self, i, var, order, conj=False):
        return sp.diff(self.t(i, order, conj), VARS[var])

    def mirror(self):
        return _Mirror(self)

    def reciprocal(self, x):
        return 1 / x


def outputs() -> list:
    """(name, expression) in the order verify reads them."""
    cas = SymbolicCascade()
    out = [(f"t{i}", cas.t(i, 0)) for i in T_IDS]
    out += [(f"t9 {m}", cas.t(9, 0, reading=m)) for m in coeffs.T9_READINGS]
    # the cascade's float literals are small dyadic numbers: keep them exact
    return [(name, e.xreplace({f: sp.Rational(f) for f in e.atoms(sp.Float)}))
            for name, e in out]


class _Printer(NumPyPrinter):
    """numpy source; a negative integer power prints as a division, so a
    complex array never goes through numpy's general power."""

    def _print_Pow(self, expr, rational=False):
        base, exp = expr.as_base_exp()
        if exp.is_Integer and exp < 0:
            return f"1/{self.parenthesize(base ** -exp, PRECEDENCE['Mul'], strict=True)}"
        return super()._print_Pow(expr, rational)


HEADER = """\
\"\"\"Generated by scripts/gen_cascade.py from coeffs.py's cascade: do not edit.

Regenerate with `python3 scripts/gen_cascade.py`; `--check` compares.
\"\"\"
from numpy import {ufuncs}

SYMPY_VERSION = {sympy_version!r}   # the sympy that wrote this; another may order it differently
T_IDS = {t_ids!r}
NF, NC = {nf}, {nc}   # the float64 and complex128 rows of cascade_values' arena


def cascade_values(alpha, a, abar, rho, b, F, C):
    \"\"\"The verifier's cascade values built on partials at the points
    (alpha, a, abar), in order: {names}.

    alpha is real; a and abar are independent complex values, all 1-D of
    one length n. rho must be nonzero: t6 and everything after it divide by
    (rho/2)(3 sin^2 alpha - 2).

    F (NF, n) float64 and C (NC, n) complex128 are the arena. Every array
    temporary is one ufunc call whose last argument, its out, is one of
    their rows; a row is reused once its value is last read, so the call
    allocates no array. The returned values are rows of the arena, valid
    until the next call into it. numpy evaluates each call in its written
    operand order at any n, so a node's bits do not depend on how many
    nodes one call takes.
    \"\"\"
"""

# numpy's array operators, as the ufuncs they call
UFUNCS = {ast.Mult: "multiply", ast.Add: "add", ast.Sub: "subtract", ast.Div: "true_divide",
          ast.USub: "negative"}


class _Op:
    """An array: an input (func None) or one ufunc call on args, each an _Op
    or scalar source text. kind is "f" (float64) or "c" (complex128); slot
    is the arena row the call writes, once allocated, or an input's name."""

    def __init__(self, func, args=(), kind=None, slot=None):
        self.func, self.args, self.slot = func, args, slot
        self.kind = kind or ("c" if any(isinstance(x, _Op) and x.kind == "c" for x in args)
                             else "f")
        self.named = func is None   # read by its slot name, not written out in place
        self.last = -1              # the index of the last op that reads it

    def call(self) -> str:
        args = ", ".join(x if isinstance(x, str) else x.src() for x in self.args)
        return f"{self.func}({args}, {self.slot})"   # the positional out

    def src(self) -> str:
        """The source that reads it as an operand."""
        return self.slot if self.named else self.call()


def _lower(node, names: dict, ops: list):
    """node as numpy evaluates it: scalar source text when it reads no array,
    else the _Op of its outermost ufunc call, every call it makes appended to
    ops in evaluation order (operands first, left to right).

    The binary tree is the printed one, so each call's operands, and with
    them its bits, are those of the printed arithmetic: x**2 is square, the
    path ndarray.__pow__ takes, and another integer power is power.
    """
    if not any(isinstance(names.get(n.id), _Op) for n in ast.walk(node) if isinstance(n, ast.Name)):
        return ast.unparse(node)
    if isinstance(node, ast.Name):
        return names[node.id]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        exp = getattr(node.right, "value", None)
        assert isinstance(exp, int), f"a power the printer does not print: {ast.unparse(node)}"
        base = _lower(node.left, names, ops)
        op = _Op("square", [base]) if exp == 2 else _Op("power", [base, repr(exp)])
    elif isinstance(node, ast.BinOp):
        op = _Op(UFUNCS[type(node.op)], [_lower(x, names, ops) for x in (node.left, node.right)])
    elif isinstance(node, ast.UnaryOp):
        op = _Op(UFUNCS[type(node.op)], [_lower(node.operand, names, ops)])
    elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("numpy.sin", "numpy.cos"):
        op = _Op(node.func.attr, [_lower(node.args[0], names, ops)])
    else:
        raise ValueError(f"no ufunc for {ast.unparse(node)}")
    ops.append(op)
    return op


def _allocate(ops: list, outputs: list) -> dict:
    """Give each op an arena row by linear scan, the lowest free row of its
    kind; the rows of the values it reads for the last time are freed only
    after its own is chosen, so no call writes a row it reads. The returned
    values stay live to the end. The row count of each kind."""
    for k, op in enumerate(ops):
        for x in op.args:
            if isinstance(x, _Op):
                x.last = k
    for x in outputs:
        x.last = len(ops)
    free, count = {"f": [], "c": []}, {"f": 0, "c": 0}
    for k, op in enumerate(ops):
        if free[op.kind]:
            row = heapq.heappop(free[op.kind])
        else:
            row, count[op.kind] = count[op.kind], count[op.kind] + 1
        op.slot = f"{op.kind}{row}"
        for x in {x for x in op.args if isinstance(x, _Op) and x.func and x.last == k}:
            heapq.heappush(free[x.kind], int(x.slot[1:]))
    assert all(op.last >= 0 for op in ops), "an array nobody reads"
    return count


def _unpack(kind: str, n: int, arena: str) -> str:
    names = [f"{kind}{k}" for k in range(n)]
    rows = [", ".join(names[k:k + 12]) for k in range(0, n, 12)]
    return "    (" + ",\n     ".join(rows) + f") = {arena}\n"


def render() -> str:
    named = outputs()
    subs, exprs = sp.cse([e for _, e in named], symbols=sp.numbered_symbols("x"))
    pr = _Printer({"fully_qualified_modules": True})
    # one statement per cse temporary: a scalar one stays plain Python, an
    # array one is its nested ufunc calls into the arena
    names = {"alpha": _Op(None, kind="f", slot="alpha"),
             "a": _Op(None, kind="c", slot="a"), "abar": _Op(None, kind="c", slot="abar")}
    ops, body = [], []
    for sym, e in subs:
        text = pr.doprint(e)
        value = _lower(ast.parse(text, mode="eval").body, names, ops)
        if isinstance(value, str):
            body.append(f"{sym} = {text}")
        else:
            assert not value.named, f"{sym} aliases an array"
            value.named = True   # later statements read its row
            names[str(sym)] = value
            body.append(value)
    results = [_lower(ast.parse(pr.doprint(e), mode="eval").body, names, ops) for e in exprs]
    count = _allocate(ops, results)

    ufuncs = sorted({op.func for op in ops})
    lines = [HEADER.format(ufuncs=", ".join(ufuncs), sympy_version=sp.__version__, t_ids=T_IDS,
                           nf=count["f"], nc=count["c"], names=", ".join(n for n, _ in named)),
             _unpack("f", count["f"], "F"), _unpack("c", count["c"], "C")]
    lines += [f"    {x if isinstance(x, str) else x.call()}\n" for x in body]
    lines.append("    return (\n")
    lines += [f"        {v.src()},   # {n}\n" for (n, _), v in zip(named, results)]
    lines.append("    )\n")
    return "".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare against the committed module instead of writing it")
    args = ap.parse_args(argv)
    text = render()
    if not args.check:
        TARGET.write_text(text)
        return 0
    old = TARGET.read_text() if TARGET.is_file() else ""
    if old == text:
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        old.splitlines(True), text.splitlines(True), str(TARGET), "regenerated"))
    return 1


if __name__ == "__main__":
    sys.exit(main())
