"""Command line interface.

Subcommands: construct (harmonic input -> surface fields), verify (residual
suite on one directory or a resolution pair), residuals (alias of
single-directory verify), family (explicit family surfaces), profile
(amplitude ODE table), tcoef (cascade coefficient values and partials).

Exit codes: 0 success, 1 residual failure, 2 guard/domain failure,
3 config/schema failure, 141 stdout closed by its reader. Guard and schema
failures emit one machine-readable JSON object on stderr.
"""
from __future__ import annotations

import argparse
import cmath
import json
import os
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import construct as _construct
from . import family4, verify as _verify
from ._g17 import csv_chunks
from .coeffs import T9_READINGS, CoeffCache, EvalPoint, ModelParams
from .errors import EXIT_GUARD, EXIT_STDOUT_CLOSED, ConfigError, GuardError, PmcError
from .fields import Grid, HarmonicInput, read_fields, write_fields, write_meta
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

def _take(d: dict, allowed, context: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {unknown}")


def _num(d, key, context, default=None, required=False):
    if key not in d:
        if required:
            raise ConfigError(f"missing {context}.{key}")
        return default
    v = d[key]
    if not _finite(v):
        raise ConfigError(f"{context}.{key} must be a finite number")
    return float(v)


def _thresholds(th) -> Thresholds:
    _take(th, ("identity_tol", "order_band"), "config.thresholds")
    identity_tol = _num(th, "identity_tol", "config.thresholds", default=Thresholds.identity_tol)
    band = th.get("order_band", list(Thresholds.order_band))
    if (not isinstance(band, list) or len(band) != 2 or not all(map(_finite, band))
            or not band[0] < band[1]):
        raise ConfigError("config.thresholds.order_band must be finite [lo, hi] with lo < hi")
    return Thresholds(identity_tol=identity_tol, order_band=(float(band[0]), float(band[1])))


@dataclass
class RunConfig:
    params: ModelParams
    alpha0: float
    a0: complex
    alpha_range: tuple
    profile_tol: float
    K0: float
    Kprime0: float
    harmonic: HarmonicInput
    grid: Grid
    nu0: float
    thresholds: Thresholds
    t9_mode: str
    appendix_reconciliation: str
    jet_order: int

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        _take(d, ("params", "profile", "potential", "harmonic", "grid", "nu0",
                  "thresholds", "t9_mode", "appendix_reconciliation", "jet_order"),
              "config")
        for req in ("params", "profile", "harmonic", "grid"):
            if req not in d:
                raise ConfigError(f"missing config.{req}")

        p = d["params"]
        _take(p, ("rho", "b"), "config.params")
        rho = _num(p, "rho", "config.params", required=True)
        b = _num(p, "b", "config.params", required=True)
        if rho == 0.0:
            raise ConfigError("rho must be nonzero (flat ambient space is out of scope)")
        params = ModelParams(rho=rho, b=b)

        pr = d["profile"]
        _take(pr, ("alpha0", "a0_re", "a0_im", "alpha_min", "alpha_max", "tol"),
              "config.profile")
        alpha0 = _num(pr, "alpha0", "config.profile", required=True)
        a0 = complex(_num(pr, "a0_re", "config.profile", required=True),
                     _num(pr, "a0_im", "config.profile", default=0.0))
        alpha_min = _num(pr, "alpha_min", "config.profile", required=True)
        alpha_max = _num(pr, "alpha_max", "config.profile", required=True)
        tol = _num(pr, "tol", "config.profile", default=1e-10)

        pot = d.get("potential", {})
        _take(pot, ("K0", "Kprime0"), "config.potential")
        K0 = _num(pot, "K0", "config.potential", default=0.0)
        Kprime0 = _num(pot, "Kprime0", "config.potential", default=1.0)
        if Kprime0 == 0.0:
            raise ConfigError("config.potential.Kprime0 must be nonzero")

        h = d["harmonic"]
        _take(h, ("coeffs",), "config.harmonic")
        raw_coeffs = h.get("coeffs")
        if not isinstance(raw_coeffs, list) or not raw_coeffs:
            raise ConfigError("config.harmonic.coeffs must be a nonempty list of [re, im] pairs")
        coeffs = []
        for k, pair in enumerate(raw_coeffs):
            if not isinstance(pair, list) or len(pair) != 2 or not all(map(_finite, pair)):
                raise ConfigError(f"config.harmonic.coeffs[{k}] must be finite [re, im]")
            coeffs.append(complex(pair[0], pair[1]))
        harmonic = HarmonicInput(tuple(coeffs))

        g = d["grid"]
        _take(g, ("x0", "x1", "y0", "y1", "nx", "ny"), "config.grid")
        for key in ("nx", "ny"):
            if key not in g or isinstance(g[key], bool) or not isinstance(g[key], int):
                raise ConfigError(f"config.grid.{key} must be an integer")
        grid = Grid(x0=_num(g, "x0", "config.grid", required=True),
                    x1=_num(g, "x1", "config.grid", required=True),
                    y0=_num(g, "y0", "config.grid", required=True),
                    y1=_num(g, "y1", "config.grid", required=True),
                    nx=g["nx"], ny=g["ny"])

        nu0 = _num(d, "nu0", "config", default=0.0)

        thresholds = _thresholds(d.get("thresholds", {}))

        t9_mode = d.get("t9_mode", "as_printed")
        if t9_mode not in T9_READINGS:
            raise ConfigError(f"config.t9_mode must be as_printed or alternate, got {t9_mode!r}")
        appendix = d.get("appendix_reconciliation", "assume")
        if appendix not in ("assume", "reject"):
            raise ConfigError(
                f"config.appendix_reconciliation must be assume or reject, got {appendix!r}")
        jet_order = d.get("jet_order", 4)
        if isinstance(jet_order, bool) or not isinstance(jet_order, int) or jet_order < 1:
            raise ConfigError("config.jet_order must be a positive integer")

        return cls(params=params, alpha0=alpha0, a0=a0,
                   alpha_range=(alpha_min, alpha_max), profile_tol=tol,
                   K0=K0, Kprime0=Kprime0, harmonic=harmonic, grid=grid, nu0=nu0,
                   thresholds=thresholds, t9_mode=t9_mode,
                   appendix_reconciliation=appendix, jet_order=jet_order)

    def echo(self) -> dict:
        """Normalized config for meta.json."""
        return {
            "params": {"rho": self.params.rho, "b": self.params.b},
            "profile": {"alpha0": self.alpha0, "a0_re": self.a0.real,
                        "a0_im": self.a0.imag, "alpha_min": self.alpha_range[0],
                        "alpha_max": self.alpha_range[1], "tol": self.profile_tol},
            "potential": {"K0": self.K0, "Kprime0": self.Kprime0},
            "harmonic": {"coeffs": [[c.real, c.imag] for c in self.harmonic.coeffs]},
            "grid": {"x0": self.grid.x0, "x1": self.grid.x1, "y0": self.grid.y0,
                     "y1": self.grid.y1, "nx": self.grid.nx, "ny": self.grid.ny},
            "nu0": self.nu0,
            "thresholds": {"identity_tol": self.thresholds.identity_tol,
                           "order_band": list(self.thresholds.order_band)},
            "t9_mode": self.t9_mode,
            "appendix_reconciliation": self.appendix_reconciliation,
            "jet_order": self.jet_order,
        }


def load_config(path: str, grid_override=None) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:   # bad JSON, or an integer literal past Python's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if grid_override is not None and isinstance(data, dict) and isinstance(data.get("grid"), dict):
        data = {**data, "grid": {**data["grid"], "nx": grid_override[0], "ny": grid_override[1]}}
    return RunConfig.from_dict(data)


def _out_dir(path: str) -> None:
    """Create the --out directory once the result is ready to write; a path
    that cannot be one is a ConfigError, and a rejected run leaves none behind."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path} cannot be a directory: {exc.strerror or exc}") from None


# ---- subcommands ----

def cmd_construct(args) -> int:
    cfg = load_config(args.config, grid_override=args.grid)
    prof = solve_profile(cfg.params, cfg.alpha0, cfg.a0, cfg.alpha_range,
                         tol=cfg.profile_tol)
    pot = build_potential(prof, K0=cfg.K0, Kprime0=cfg.Kprime0)
    result = _construct.construct_surface(prof, pot, cfg.harmonic, cfg.grid,
                                          nu0=cfg.nu0)
    meta = {
        "command": "construct",
        "config": cfg.echo(),
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
    _out_dir(args.out)
    write_fields(result.fields, args.out)
    write_meta(meta, args.out)
    if result.guard_events:
        if not args.quiet:
            print(f"wrote masked fields to {args.out}; phase stage tripped a guard")
        raise _GuardEvents(result.guard_events)
    if not args.quiet:
        mm = result.nu_info.get("max_path_mismatch")
        print(f"wrote {args.out}/fields.csv "
              f"({cfg.grid.nx}x{cfg.grid.ny} nodes, max path mismatch {mm:.3g})")
    return 0


def cmd_verify(args) -> int:
    if len(args.dirs) > 2:
        raise ConfigError("verify takes outdir_coarse [outdir_fine], "
                          f"got {len(args.dirs)} directories")
    coarse = read_fields(args.dirs[0])
    fine = read_fields(args.dirs[1]) if len(args.dirs) > 1 else None
    thresholds = (load_config(args.config).thresholds if args.config
                  else _thresholds(coarse.meta.get("config", {}).get("thresholds", {})))
    report = verify_suite(coarse, fine, thresholds=thresholds)
    if args.out:
        _out_dir(args.out)
        with open(os.path.join(args.out, "verify_report.json"), "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not args.quiet:
        print(report.table())
        print("result:", "pass" if report.passed else "FAIL",
              "(degraded: identity checks only)" if report.degraded else "")
    return report.exit_code


def cmd_family(args) -> int:
    params = family4.FamilyParams(c1=args.c1, c2=args.c2)
    lo, hi = family4.valid_interval(args.c1)
    window = args.window or _default_family_window(args.c1)
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
    _out_dir(args.out)
    write_fields(result.fields, args.out)
    write_meta(meta, args.out)
    if not args.quiet:
        print(f"wrote {args.out}/fields.csv (c1={params.c1}, c2={params.c2}, "
              f"window [{window[0]:.4g}, {window[1]:.4g}])")
    return 0


def _default_family_window(c1: float) -> tuple:
    lo, hi = family4.valid_interval(c1)
    length = hi - lo
    return (lo + 0.08 * length, lo + 0.33 * length)


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
    table = csv_chunks("alpha,a_re,a_im,F,K",
                       [alphas, av.real, av.imag, prof.F(alphas), pot.K(alphas)], args.samples)
    try:
        if args.out:
            with open(args.out, "wb") as fh:
                fh.writelines(table)
        else:
            sys.stdout.writelines(chunk.decode("ascii") for chunk in table)
    except OSError as exc:
        raise ConfigError(f"cannot write the profile table: {exc}") from None
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
    usual once the command returns."""
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            args = build_parser().parse_args(argv)
            return args.fn(args)
    except PmcError as err:
        payload = err.payload()
        if caught:
            payload["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
            caught = []   # reported in the JSON object, not issued again
        json.dump(payload, sys.stderr)
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
