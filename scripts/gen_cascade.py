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

Development only: it needs sympy, which pmcsurf does not depend on. The
output does not depend on PYTHONHASHSEED.
"""
from __future__ import annotations

import argparse
import difflib
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


HEADER = '''\
"""Generated by scripts/gen_cascade.py from coeffs.py's cascade: do not edit.

Regenerate with `python3 scripts/gen_cascade.py`; `--check` compares.
"""
import numpy

SYMPY_VERSION = {sympy_version!r}   # the sympy that wrote this; another may order it differently
T_IDS = {t_ids!r}


def cascade_values(alpha, a, abar, rho, b):
    """The verifier's cascade values built on partials at the points
    (alpha, a, abar), in order: {names}.

    alpha is real; a and abar are independent complex values. rho must be
    nonzero: t6 and everything after it divide by (rho/2)(3 sin^2 alpha - 2).
    """
'''


def render() -> str:
    named = outputs()
    subs, exprs = sp.cse([e for _, e in named], symbols=sp.numbered_symbols("x"))
    pr = _Printer({"fully_qualified_modules": True})
    lines = [HEADER.format(sympy_version=sp.__version__, t_ids=T_IDS,
                           names=", ".join(n for n, _ in named))]
    # each temporary is deleted after its last use, which keeps the chunk's
    # working set small; one the returned values read is never deleted
    temps, last = {sym for sym, _ in subs}, {}
    for k, (_, e) in enumerate(subs):
        last.update((x, k) for x in e.free_symbols & temps)
    kept, dead = set().union(*(e.free_symbols for e in exprs)), {}
    for sym, _ in subs:   # definition order
        if sym in last and sym not in kept:
            dead.setdefault(last[sym], []).append(str(sym))
    for k, (sym, e) in enumerate(subs):
        lines.append(f"    {sym} = {pr.doprint(e)}\n")
        if k in dead:
            lines.append(f"    del {', '.join(dead[k])}\n")
    lines.append("    return (\n")
    lines += [f"        {pr.doprint(e)},   # {n}\n" for (n, _), e in zip(named, exprs)]
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
