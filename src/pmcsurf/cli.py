"""Command line interface.

Subcommands: construct (harmonic input -> surface fields), verify (residual
suite on one directory or a resolution pair), residuals (alias of
single-directory verify), family (explicit family surfaces), profile
(amplitude ODE table), tcoef (cascade coefficient values and partials).

Exit codes: 0 success, 1 residual failure, 2 guard/domain failure,
3 config, schema or path failure, 141 stdout closed by its reader. Guard,
schema and path failures emit one machine-readable JSON object on stderr;
_run alone turns a failed read or write (an OSError) into a ConfigError.
"""
from __future__ import annotations

import argparse
import cmath
import os
import re
import shutil
import sys
import tempfile
import warnings

import numpy as np

from . import construct as _construct
from . import family4
from ._g17 import write_csv
from .coeffs import T9_READINGS, CoeffCache, EvalPoint, ModelParams
from .errors import EXIT_GUARD, EXIT_STDOUT_CLOSED, ConfigError, GuardError, PmcError
from .fields import (BUNDLE_FILES, Grid, HarmonicInput, dump_json, read_fields, read_json,
                     write_fields, write_json, write_meta)
from .profile import build_potential, solve_profile
from .verify import Thresholds, verify_suite


def parse_complex(text: str) -> complex:
    """Grammar RE+IMi, e.g. '0.3+0.4i', '-2', '1.5i', '1e-2-3e-4i'; both parts finite."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ConfigError("empty complex literal")
    m = re.fullmatch(r"(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                     r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)", t[:-1])
    try:
        if t[-1] not in "iI":
            v = complex(float(t), 0.0)
        elif m:
            im = m.group("im")
            v = complex(float(m.group("re")), float(im + "1" if im in ("+", "-") else im))
        else:
            v = complex(0.0, float(t[:-1] + "1" if t[:-1] in ("", "+", "-") else t[:-1]))
    except ValueError:
        raise ConfigError(f"bad complex literal: {text!r}") from None
    if not cmath.isfinite(v):
        raise ConfigError(f"complex literal must be finite: {text!r}")
    return v


def _finite(v) -> bool:
    """A finite int or float, not bool; an int too big for a float fails, never raises."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _number(kind, positive: bool = False):
    """argparse type: a finite number of the given kind, > 0 when positive."""
    def parse(text: str):
        v = kind(text)
        if not _finite(v) or (positive and not v > 0):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a finite{' positive' if positive else ''} number")
        return v
    parse.__name__ = kind.__name__
    return parse


FINITE, POSITIVE, COUNT = _number(float), _number(float, True), _number(int, True)


def fmt_complex(v: complex) -> str:
    sign = "+" if v.imag >= 0 or np.isnan(v.imag) else "-"
    return "%.17g%s%.17gi" % (v.real, sign, abs(v.imag))


# ---- run configuration ----
#
# CONFIG is the one schema of a run config: each key maps to (check, default),
# and a section's check is its own table. A check takes the value and its
# dotted name, raises ConfigError or returns the normalized value; the
# normalized config is what meta.json echoes. A default goes through its
# check too, and REQUIRED marks a key that a config must give.

REQUIRED = object()


def _rule(*tests, to=None):
    """A check from (holds, message) tests taken in turn: the first whose holds
    is false raises its message, formatted with the key's name and value."""
    def check(value, name: str):
        for holds, message in tests:
            if not holds(value):
                raise ConfigError(message.format(name=name, value=value))
        return to(value) if to else value
    return check


def _real(*tests):
    """A check for a finite number that passes tests; it is echoed as a float."""
    return _rule((_finite, "{name} must be a finite number"), *tests, to=float)


def _one_of(*choices):
    return _rule((lambda v: v in choices,
                  f"{{name}} must be {' or '.join(choices)}, got {{value!r}}"))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_band(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(_finite, v)) and v[0] < v[1]


def _coeffs(value, name: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a nonempty list of [re, im] pairs")
    for k, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2 or not all(map(_finite, pair)):
            raise ConfigError(f"{name}[{k}] must be finite [re, im]")
    return [[float(re), float(im)] for re, im in value]


REAL, SIDE = _real(), _rule((_is_int, "{name} must be an integer"))
CONFIG = {
    "params": ({"rho": (_real((lambda v: v != 0, "rho must be nonzero "
                               "(flat ambient space is out of scope)")), REQUIRED),
                "b": (REAL, REQUIRED)}, REQUIRED),
    "profile": ({"alpha0": (REAL, REQUIRED), "a0_re": (REAL, REQUIRED), "a0_im": (REAL, 0.0),
                 "alpha_min": (REAL, REQUIRED), "alpha_max": (REAL, REQUIRED),
                 "tol": (REAL, 1e-10)}, REQUIRED),
    "potential": ({"K0": (REAL, 0.0),
                   "Kprime0": (_real((lambda v: v != 0, "{name} must be nonzero")), 1.0)}, {}),
    "harmonic": ({"coeffs": (_coeffs, REQUIRED)}, REQUIRED),
    "grid": ({"x0": (REAL, REQUIRED), "x1": (REAL, REQUIRED), "y0": (REAL, REQUIRED),
              "y1": (REAL, REQUIRED), "nx": (SIDE, REQUIRED), "ny": (SIDE, REQUIRED)}, REQUIRED),
    "nu0": (REAL, 0.0),
    # a zero identity_tol is legal; a negative one would fail every identity check
    "thresholds": ({"identity_tol": (_real((lambda v: v >= 0, "{name} must not be negative")),
                                     Thresholds.identity_tol),
                    "order_band": (_rule((_is_band, "{name} must be finite [lo, hi] with lo < hi"),
                                         to=lambda v: [float(x) for x in v]),
                                   list(Thresholds.order_band))}, {}),
    # validated and echoed, but read by nothing (README, "Config schema")
    "t9_mode": (_one_of(*T9_READINGS), "as_printed"),
    "appendix_reconciliation": (_one_of("assume", "reject"), "assume"),
    "jet_order": (_rule((lambda v: _is_int(v) and v >= 1, "{name} must be a positive integer")), 4),
}


def _checked(check, value, name: str):
    """value normalized by check: a check function, or a section's table."""
    if not isinstance(check, dict):
        return check(value, name)
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = sorted(set(value) - set(check))
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {unknown}")
    out = {}
    for key, (sub, default) in check.items():
        if key not in value and default is REQUIRED:
            raise ConfigError(f"missing {name}.{key}")
        out[key] = _checked(sub, value.get(key, default), f"{name}.{key}")
    return out


def load_config(path: str, grid_override=None):
    """The normalized config at path, as meta.json echoes it, and the
    ModelParams, Grid and HarmonicInput built from it; their constructors hold
    the checks that span keys (b > 0, the grid's sides and spacing, a
    nonconstant input)."""
    data = read_json(path)
    if grid_override is not None and isinstance(data, dict) and isinstance(data.get("grid"), dict):
        data = {**data, "grid": {**data["grid"], "nx": grid_override[0], "ny": grid_override[1]}}
    cfg = _checked(CONFIG, data, "config")
    return (cfg, ModelParams(**cfg["params"]), Grid(**cfg["grid"]),
            HarmonicInput(tuple(complex(re, im) for re, im in cfg["harmonic"]["coeffs"])))


def _write_bundle(surface, meta: dict, out: str) -> None:
    """Write the bundle into a fresh sibling of out, then swap it in by rename.

    out holds the whole old bundle or the whole new one: a write that fails
    leaves it as it was, and only a failed second rename can leave a sibling
    named <out>.partial-* behind. An existing out is replaced only when it is
    a directory of bundle files (BUNDLE_FILES), so nothing else is deleted.
    The fields go through this module's write_fields.
    """
    out = os.path.realpath(out)
    parent, name = os.path.split(out)
    os.makedirs(parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}.partial-", dir=parent)
    new = os.path.join(work, name)
    try:
        os.mkdir(new)
        write_meta(meta, new)
        write_fields(surface, new)
        _check_replaceable(out)
    except BaseException:
        shutil.rmtree(work, ignore_errors=True)
        raise
    if os.path.lexists(out):
        os.rename(out, os.path.join(work, "replaced"))
    os.rename(new, out)
    shutil.rmtree(work)


def _check_replaceable(out: str) -> None:
    """out is absent, or a directory that holds nothing but bundle files."""
    if not os.path.lexists(out):
        return
    if os.path.islink(out) or not os.path.isdir(out):
        raise ConfigError(f"{out} exists and is not a bundle directory")
    with os.scandir(out) as entries:
        for entry in entries:
            if entry.name not in BUNDLE_FILES or not entry.is_file(follow_symlinks=False):
                raise ConfigError(f"{entry.path} is not a file of a field bundle, "
                                  f"so {out} is not replaced")


# ---- subcommands ----

def cmd_construct(args) -> int:
    cfg, params, grid, harmonic = load_config(args.config, grid_override=args.grid)
    pr = cfg["profile"]
    prof = solve_profile(params, pr["alpha0"], complex(pr["a0_re"], pr["a0_im"]),
                         (pr["alpha_min"], pr["alpha_max"]), tol=pr["tol"])
    pot = build_potential(prof, **cfg["potential"])
    result = _construct.construct_surface(prof, pot, harmonic, grid, nu0=cfg["nu0"])
    meta = {
        "command": "construct",
        "config": cfg,
        "profile": {
            "alpha0": prof.alpha0,
            "a0": [prof.a0.real, prof.a0.imag],
            "alpha_range": list(prof.alpha_range),
            "singular_alphas": prof.singular_alphas,
            "tol": prof.tol,
            "potential_range": list(pot.t_range),
        },
        "guard_events": result.guard_events,
        "nu": result.nu_info,
    }
    _write_bundle(result.fields, meta, args.out)
    if result.guard_events:
        if not args.quiet:
            print(f"wrote masked fields to {args.out}; phase stage tripped a guard")
        raise _GuardEvents(result.guard_events)
    if not args.quiet:
        mm = result.nu_info.get("max_path_mismatch")
        print(f"wrote {args.out}/fields.csv "
              f"({grid.nx}x{grid.ny} nodes, max path mismatch {mm:.3g})")
    return 0


def cmd_verify(args) -> int:
    if len(args.dirs) > 2:
        raise ConfigError("verify takes outdir_coarse [outdir_fine], "
                          f"got {len(args.dirs)} directories")
    coarse = read_fields(args.dirs[0])
    fine = read_fields(args.dirs[1]) if len(args.dirs) > 1 else None
    cfg = load_config(args.config)[0] if args.config else coarse.meta.get("config", {})
    check, default = CONFIG["thresholds"]   # the same entry for a config and a bundle's echo
    th = _checked(check, cfg.get("thresholds", default), "config.thresholds")
    report = verify_suite(coarse, fine, thresholds=Thresholds(th["identity_tol"],
                                                              tuple(th["order_band"])))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(report.to_dict(), os.path.join(args.out, "verify_report.json"))
    if not args.quiet:
        print(report.table())
        print("result:", "pass" if report.passed else "FAIL",
              "(degraded: identity checks only)" if report.degraded else "")
    return report.exit_code


def cmd_family(args) -> int:
    params = family4.FamilyParams(c1=args.c1, c2=args.c2)
    lo, hi = family4.valid_interval(args.c1)
    window = args.window or family4.default_window(args.c1)
    if not (lo < window[0] < window[1] < hi):
        raise ConfigError(f"window must sit strictly inside the arc ({lo:.6g}, {hi:.6g})")
    rect = tuple(args.rect)
    grid = Grid(x0=rect[0], x1=rect[1], y0=rect[2], y1=rect[3],
                nx=args.grid[0], ny=args.grid[1])
    harmonic = HarmonicInput.affine_window(window[0], window[1],
                                           rect=rect, tilt=args.tilt)
    result = family4.family_surface(harmonic, grid, params, quad_tol=args.quad_tol)
    meta = {
        "command": "family",
        "config": {
            "params": {"rho": family4.FAMILY_MODEL.rho, "b": family4.FAMILY_MODEL.b},
            "family": {"c1": params.c1, "c2": params.c2, "quad_tol": args.quad_tol,
                       "window": list(window), "tilt": args.tilt},
            "grid": {"x0": grid.x0, "x1": grid.x1, "y0": grid.y0, "y1": grid.y1,
                     "nx": grid.nx, "ny": grid.ny},
            "harmonic": {"coeffs": [[c.real, c.imag] for c in harmonic.coeffs]},
            "t9_mode": "as_printed",
        },
        "valid_interval": [lo, hi],
        "witness": family4.general_type_witness(result.fields),
        "nu": result.nu_info,
        "guard_events": result.guard_events,
    }
    _write_bundle(result.fields, meta, args.out)
    if not args.quiet:
        print(f"wrote {args.out}/fields.csv (c1={params.c1}, c2={params.c2}, "
              f"window [{window[0]:.4g}, {window[1]:.4g}])")
    return 0


MAX_SAMPLES = 1_000_000   # profile table rows; the table and its evaluation stay near 100 MB


def cmd_profile(args) -> int:
    params = ModelParams(rho=args.rho, b=args.b)
    if params.rho == 0.0:
        raise ConfigError("rho must be nonzero")
    if args.samples > MAX_SAMPLES:
        raise ConfigError(f"--samples is capped at {MAX_SAMPLES}")
    prof = solve_profile(params, args.alpha0, parse_complex(args.a0),
                         tuple(args.range), tol=args.tol)
    pot = build_potential(prof, K0=args.K0, Kprime0=args.Kprime0)
    alphas = np.linspace(prof.alpha_range[0], prof.alpha_range[1], args.samples)
    av = prof.a(alphas)
    table = ("alpha,a_re,a_im,F,K", [alphas, av.real, av.imag, prof.F(alphas), pot.K(alphas)],
             args.samples)
    if args.out:
        with open(args.out, "wb") as fh:
            write_csv(fh.write, *table)
    else:
        write_csv(lambda chunk: sys.stdout.write(chunk.decode("ascii")), *table)
    return 0


def cmd_tcoef(args) -> int:
    if args.i not in range(1, 14):
        raise ConfigError(f"coefficient id must be 1..13, got {args.i}")
    a = parse_complex(args.a)
    abar = parse_complex(args.abar) if args.abar else None
    point = EvalPoint(args.alpha, a, abar, params=ModelParams(rho=args.rho, b=args.b))
    if point.params.rho == 0.0 and args.i >= 6:
        raise ConfigError("rho must be nonzero for t6 and above")
    cache = CoeffCache(point, t9_mode=args.t9_mode,
                       appendix_reconciliation=args.appendix_reconciliation)
    jet = cache.get(args.i, 1, branch=args.branch)
    values = [complex(jet.value())] + [complex(jet.partial(var)) for var in range(3)]
    if not all(map(cmath.isfinite, values)):
        raise GuardError(f"t{args.i} or a first partial of it is not finite at this point")
    for name, v in zip((f"t{args.i}", "d/dalpha", "d/da", "d/dabar"), values):
        print(f"{name} = {fmt_complex(v)}")
    return 0


# ---- parser ----

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponents and would take -1e-3 for an option
        self._negative_number_matcher = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="pmcsurf",
                 description="construct and verify parallel-mean-curvature surface data")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build surface fields from a config")
    c.add_argument("--config", required=True, help="JSON run configuration")
    c.add_argument("--out", required=True, help="output directory")
    c.add_argument("--grid", nargs=2, type=int, metavar=("NX", "NY"),
                   help="override config grid resolution")
    c.add_argument("--quiet", action="store_true")
    c.set_defaults(fn=cmd_construct)

    for name, hlp in (("verify", "residual suite on one directory or a coarse/fine pair"),
                      ("residuals", "alias of single-directory verify")):
        v = sub.add_parser(name, help=hlp)
        v.add_argument("dirs", nargs=1 if name == "residuals" else "+",
                       help="field directories (coarse [fine])")
        v.add_argument("--config", help="JSON config supplying thresholds")
        v.add_argument("--out", help="directory for verify_report.json")
        v.add_argument("--quiet", action="store_true")
        v.set_defaults(fn=cmd_verify)

    f = sub.add_parser("family", help="explicit family surface fields")
    f.add_argument("--c1", type=FINITE, required=True)
    f.add_argument("--c2", type=FINITE, default=0.0)
    f.add_argument("--out", required=True)
    f.add_argument("--grid", nargs=2, type=int, default=[161, 161], metavar=("NX", "NY"))
    f.add_argument("--window", nargs=2, type=FINITE, metavar=("TLO", "THI"),
                   help="angle window inside the admissible arc (default: lower third)")
    f.add_argument("--tilt", type=FINITE, default=0.0,
                   help="rotation of the affine harmonic input, radians")
    f.add_argument("--rect", nargs=4, type=FINITE, default=[0.0, 1.0, 0.0, 1.0],
                   metavar=("X0", "X1", "Y0", "Y1"))
    f.add_argument("--quad-tol", type=POSITIVE, default=1e-10, dest="quad_tol")
    f.add_argument("--quiet", action="store_true")
    f.set_defaults(fn=cmd_family)

    p = sub.add_parser("profile", help="amplitude profile table (CSV)")
    p.add_argument("--rho", type=FINITE, required=True)
    p.add_argument("--b", type=FINITE, default=1.0)
    p.add_argument("--alpha0", type=FINITE, required=True)
    p.add_argument("--a0", required=True, help="complex literal RE+IMi")
    p.add_argument("--range", nargs=2, type=FINITE, required=True,
                   metavar=("ALPHA_MIN", "ALPHA_MAX"))
    p.add_argument("--tol", type=POSITIVE, default=1e-10)
    p.add_argument("--K0", type=FINITE, default=0.0)
    p.add_argument("--Kprime0", type=FINITE, default=1.0)
    p.add_argument("--samples", type=COUNT, default=501)
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(fn=cmd_profile)

    t = sub.add_parser("tcoef", help="cascade coefficient value and first partials")
    t.add_argument("--i", type=int, required=True, help="coefficient id, 1..13")
    t.add_argument("--alpha", type=FINITE, required=True)
    t.add_argument("--a", required=True, help="complex literal RE+IMi")
    t.add_argument("--abar", help="defaults to conj(a)")
    t.add_argument("--rho", type=FINITE, default=-3.0)
    t.add_argument("--b", type=FINITE, default=1.0)
    t.add_argument("--branch", type=int, default=1, choices=(1, -1))
    t.add_argument("--t9-mode", default="as_printed", dest="t9_mode",
                   choices=T9_READINGS)
    t.add_argument("--appendix-reconciliation", default="assume",
                   dest="appendix_reconciliation", choices=("assume", "reject"))
    t.set_defaults(fn=cmd_tcoef)
    return ap


class _GuardEvents(PmcError):
    """Guards tripped in a run that still wrote its fields (offending nodes masked)."""

    exit_code = EXIT_GUARD

    def __init__(self, events: list[dict]):
        super().__init__(events[0]["message"])
        self.events = events

    def payload(self) -> dict:
        head = dict(self.events[0])
        head["events"] = self.events
        return head


def _run(argv) -> int:
    """Run one command. A failed run writes one JSON object on stderr, with the
    warnings it raised listed under "warnings"; otherwise they are issued as
    usual once the command returns. An OSError, which names its path, is
    reported as a ConfigError; a closed stdout goes on to main."""
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            args = build_parser().parse_args(argv)
            return args.fn(args)
    except BrokenPipeError:
        raise   # a closed stdout: main's exit 141, not a path failure
    except (PmcError, OSError) as exc:
        err = exc if isinstance(exc, PmcError) else ConfigError(str(exc))
        payload = err.payload()
        if caught:
            payload["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
            caught = []   # reported in the JSON object, not issued again
        dump_json(payload, sys.stderr)
        sys.stderr.write("\n")
        return err.exit_code
    finally:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()   # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone, as in `pmcsurf verify DIR | head -1`;
        # point fd 1 at devnull so the flush at exit cannot raise again, and
        # exit with the shell's code for SIGPIPE, not 1 for a residual failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED


if __name__ == "__main__":
    sys.exit(main())
