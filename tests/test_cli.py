"""End-to-end command line behaviour: exit codes, files on disk, determinism."""
from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pmcsurf._numerics import MAX_STEPS
from pmcsurf.cli import CONFIG, REQUIRED, build_parser, fmt_complex, main, parse_complex
from pmcsurf.errors import ConfigError, GuardTripped
from pmcsurf.family4 import family_amplitude
from pmcsurf.fields import MAX_SIDE, HarmonicInput, read_fields, write_fields
from pmcsurf.profile import build_potential, solve_profile

from conftest import GENERIC_CONFIG, MODEL, generic_config


@pytest.mark.parametrize("text,value", [
    ("0.3+0.4i", 0.3 + 0.4j),
    ("-2", -2.0 + 0.0j),
    ("1.5i", 1.5j),
    ("i", 1.0j),
    ("-i", -1.0j),
    ("2+i", 2.0 + 1.0j),
    ("1e-2-3e-4I", 0.01 - 0.0003j),
    (" 4 - 5 i ", 4.0 - 5.0j),
])
def test_complex_literal_grammar(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("text", ["", "abc", "1+2", "2i+1", "1..2", "--3i",
                                  "nan", "inf", "1e999i"])
def test_complex_literal_rejects_garbage(text):
    with pytest.raises(ConfigError):
        parse_complex(text)


def test_complex_formatting_round_trips():
    for v in (0.3 + 0.4j, -2.0 + 0.0j, 1.0 - 1e-17j, complex(1 / 3, -5 / 7)):
        assert parse_complex(fmt_complex(v)) == v


# ---- construct pipeline through the CLI ----

@pytest.fixture(scope="module")
def locus_cli(tmp_path_factory):
    """Config file + coarse/fine output dirs for an on-locus construct run."""
    root = tmp_path_factory.mktemp("cli_locus")
    alpha0 = 0.875
    a0 = complex(family_amplitude(alpha0, 2.0))
    prof = solve_profile(MODEL, alpha0, a0, (0.80, 0.95), tol=1e-11)
    pot = build_potential(prof)
    tlo, thi = pot.t_range
    margin = 0.1 * (thi - tlo)
    harm = HarmonicInput.affine_window(tlo + margin, thi - margin,
                                       (0.0, 1.0, 0.0, 1.0), tilt=0.5)
    cfg = {
        "params": {"rho": MODEL.rho, "b": MODEL.b},
        "profile": {"alpha0": alpha0, "a0_re": a0.real, "a0_im": a0.imag,
                    "alpha_min": 0.80, "alpha_max": 0.95, "tol": 1e-11},
        "harmonic": {"coeffs": [[c.real, c.imag] for c in harm.coeffs]},
        "grid": {"x0": 0.0, "x1": 1.0, "y0": 0.0, "y1": 1.0, "nx": 33, "ny": 33},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    coarse, fine = str(root / "coarse"), str(root / "fine")
    assert main(["construct", "--config", str(cfg_path), "--out", coarse,
                 "--quiet"]) == 0
    assert main(["construct", "--config", str(cfg_path), "--out", fine,
                 "--grid", "65", "65", "--quiet"]) == 0
    return root, cfg_path, coarse, fine


def test_construct_is_deterministic(locus_cli):
    root, cfg_path, coarse, _ = locus_cli
    again = str(root / "again")
    assert main(["construct", "--config", str(cfg_path), "--out", again,
                 "--quiet"]) == 0
    for name in ("fields.csv", "meta.json", "fields.npz"):
        with open(f"{coarse}/{name}", "rb") as f1, open(f"{again}/{name}", "rb") as f2:
            assert f1.read() == f2.read(), name


def test_meta_echo_reproduces_the_run(locus_cli):
    root, _, coarse, _ = locus_cli
    with open(f"{coarse}/meta.json") as fh:
        meta = json.load(fh)
    echo_path = root / "echo.json"
    echo_path.write_text(json.dumps(meta["config"]))
    redo = str(root / "redo")
    assert main(["construct", "--config", str(echo_path), "--out", redo,
                 "--quiet"]) == 0
    with open(f"{coarse}/fields.csv", "rb") as f1, open(f"{redo}/fields.csv", "rb") as f2:
        assert f1.read() == f2.read()


def test_grid_override_lands_in_meta(locus_cli):
    _, _, _, fine = locus_cli
    with open(f"{fine}/meta.json") as fh:
        meta = json.load(fh)
    assert meta["config"]["grid"]["nx"] == 65
    assert meta["config"]["grid"]["ny"] == 65


def test_verify_pair_cli_writes_report(locus_cli, capsys, tmp_path):
    _, _, coarse, fine = locus_cli
    rc = main(["verify", coarse, fine, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "result: pass" in out
    with open(tmp_path / "verify_report.json") as fh:
        rep = json.load(fh)
    assert rep["passed"] is True
    assert {"equation", "kind", "passed"} <= set(rep["rows"][0])


def test_residuals_alias_runs_degraded(locus_cli, capsys):
    _, _, coarse, _ = locus_cli
    rc = main(["residuals", coarse])
    out = capsys.readouterr().out
    assert rc == 0
    assert "degraded: identity checks only" in out
    assert "recorded" in out


def test_generic_construct_masks_and_reports(tmp_path, capsys):
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(generic_config(21)))
    out_dir = str(tmp_path / "out")
    rc = main(["construct", "--config", str(cfg_path), "--out", out_dir])
    captured = capsys.readouterr()
    assert rc == 2
    head = json.loads(captured.err.splitlines()[0])
    names = sorted(e["error"] for e in head["events"])
    assert "NonpositiveDenominator" in names
    assert head["error"] in names
    # fields still land on disk, with the offending nodes masked
    fields = read_fields(out_dir)
    assert fields.mask.any()
    assert np.isfinite(fields.alpha).all()
    # read through the twin, the NaN cells of the masked nodes hold the bits the parse returns
    assert np.isnan(fields.c).any()
    os.remove(os.path.join(out_dir, "fields.npz"))
    parsed = read_fields(out_dir)
    assert parsed.grid == fields.grid
    for name in ("alpha", "a", "lam", "nu", "c", "K_formula", "K_metric", "mask"):
        assert getattr(parsed, name).tobytes() == getattr(fields, name).tobytes(), name


def test_guard_trip_inside_the_range_exits_2_with_the_achieved_range(tmp_path, capsys):
    # |a + b| falls to the guard floor on both sides of alpha0 before the range ends
    prof = {**GENERIC_CONFIG["profile"], "alpha0": 2.0, "a0_re": -0.7, "a0_im": 0.2,
            "alpha_min": 1.7, "alpha_max": 2.6}
    cfg_path = tmp_path / "trip.json"
    cfg_path.write_text(json.dumps(generic_config(9, profile=prof)))
    out = tmp_path / "out"
    rc = main(["construct", "--config", str(cfg_path), "--out", str(out)])
    err = json.loads(capsys.readouterr().err)
    with pytest.raises(GuardTripped) as trip:
        solve_profile(MODEL, 2.0, -0.7 + 0.2j, (1.7, 2.6), tol=prof["tol"])
    assert rc == 2
    assert err["error"] == "GuardTripped"
    assert err["achieved_range"] == list(trip.value.achieved)
    assert 1.7 < err["achieved_range"][0] < 2.0 < err["achieved_range"][1] < 2.6
    assert not out.exists()


def test_a_critical_point_of_the_harmonic_input_exits_2_naming_its_node(tmp_path, capsys):
    # Re(0.3 z^2) has f_z = 0.3 z, so lambda vanishes at the origin, node (10, 10):
    # the bundle used to be written, its K_metric infinite or NaN around that node
    cfg = generic_config(21, harmonic={"coeffs": [[0, 0], [0, 0], [0.3, 0]]})
    cfg["grid"].update(x0=-0.5, x1=0.5, y0=-0.5, y1=0.5)
    cfg_path = tmp_path / "critical.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main(["construct", "--config", str(cfg_path), "--out", str(out)])
    err = json.loads(capsys.readouterr().err)
    assert rc == 2
    assert err["error"] == "DegenerateFrame"
    assert "lambda is 0j at node (10, 10) of the 21x21 grid (x = 0.0, y = 0.0)" in err["message"]
    assert "warnings" not in err   # no division by |lambda|^2 = 0 was made
    assert not out.exists()


def test_a_grid_with_no_admissible_node_records_a_path_inconsistency(tmp_path, capsys):
    # every node is domain-masked; only the x = x0 and y = y0 edges stay
    # checkable, where both paths are the same sum, so no path is compared
    cfg_path = tmp_path / "none.json"
    cfg_path.write_text(json.dumps(generic_config(9, harmonic={"coeffs": [[0.8, 0], [0.17, 0]]})))
    out = tmp_path / "out"
    rc = main(["construct", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    err = json.loads(capsys.readouterr().err)
    meta = json.loads((out / "meta.json").read_text())
    assert rc == 2
    assert [e["error"] for e in err["events"]] == ["NonpositiveDenominator", "PathInconsistency"]
    assert meta["guard_events"] == err["events"]
    assert meta["nu"]["max_path_mismatch"] is None
    assert (meta["nu"]["nodes_checkable"], meta["nu"]["nodes_violating"]) == (9, 0)
    assert err["events"][1]["max_path_mismatch"] is None


def test_construct_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(generic_config(9, extra={"x": 1})))
    rc = main(["construct", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert rc == 3
    assert err["error"] == "ConfigError"
    assert "extra" in err["message"]


def test_construct_rejects_flat_ambient_space(tmp_path, capsys):
    cfg = generic_config(9)
    cfg["params"]["rho"] = 0.0
    cfg_path = tmp_path / "flat.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["construct", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


HUGE = int("9" * 400)   # an int with no float value


@pytest.mark.parametrize("sections", [
    {"nu0": HUGE},
    {"harmonic": {"coeffs": [[HUGE, 0.0], [0.9, 0.0]]}},
    {"harmonic": {"coeffs": [[float("nan"), 0.0], [0.9, 0.0]]}},
    {"thresholds": {"order_band": [1.7, HUGE]}},
    {"grid": {**GENERIC_CONFIG["grid"], "nx": HUGE}},
    {"grid": {**GENERIC_CONFIG["grid"], "nx": MAX_SIDE + 1}},
    {"nu0": "<5000 nines>"},   # past Python's 4300-digit limit on reading an int
], ids=["nu0-huge", "coeff-huge", "coeff-nan", "band-huge", "grid-nx-huge", "grid-nx-over-cap",
        "nu0-5000-digits"])
def test_construct_rejects_non_finite_config_numbers(sections, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    text = json.dumps(generic_config(9, **sections))
    cfg_path.write_text(text.replace('"<5000 nines>"', "9" * 5000))
    rc = main(["construct", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def _table_keys(table=CONFIG, path=()):
    """(path, default) of every key of the config table, sections included."""
    for key, (check, default) in table.items():
        yield path + (key,), default
        if isinstance(check, dict):
            yield from _table_keys(check, path + (key,))


TABLE_KEYS = dict(_table_keys())


def _construct_rejects(cfg, tmp_path, capsys) -> str:
    """The message of the one JSON object a construct run with cfg ends in, with exit 3."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["construct", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert rc == 3 and err["error"] == "ConfigError", err
    assert not (tmp_path / "o").exists()
    return err["message"]


@pytest.mark.parametrize("path", [p for p, d in TABLE_KEYS.items() if d is REQUIRED], ids=".".join)
def test_each_required_key_when_missing_is_named(path, tmp_path, capsys):
    cfg = generic_config(9)
    section = cfg
    for key in path[:-1]:
        section = section[key]
    del section[path[-1]]
    assert "config." + ".".join(path) in _construct_rejects(cfg, tmp_path, capsys)


@pytest.mark.parametrize("path", list(TABLE_KEYS), ids=".".join)
def test_each_key_rejects_a_string(path, tmp_path, capsys):
    cfg = generic_config(9)
    section = cfg
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = "x"
    assert "config." + ".".join(path) in _construct_rejects(cfg, tmp_path, capsys)


def test_meta_echoes_each_absent_key_at_its_table_default(tmp_path, capsys):
    # only the required keys: a real initial amplitude, and no potential or thresholds
    cfg = generic_config(9, harmonic={"coeffs": [[-0.05, 0.0], [0.95, 0.0]]})
    cfg["profile"] = {"alpha0": 0.6, "a0_re": 0.3, "alpha_min": 0.4, "alpha_max": 1.2}
    cfg_path = tmp_path / "minimal.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["construct", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
    capsys.readouterr()
    assert rc in (0, 2)
    echo = json.loads((tmp_path / "o" / "meta.json").read_text())["config"]
    leaves = {path: default for path, default in TABLE_KEYS.items()
              if default is not REQUIRED and not isinstance(default, dict)}
    assert leaves
    for path, default in leaves.items():
        value = echo
        for key in path:
            value = value[key]
        assert value == default and type(value) is type(default), path


# ---- family subcommand ----

def test_family_subcommand_writes_surface(tmp_path, capsys):
    out = str(tmp_path / "fam")
    rc = main(["family", "--c1", "2.0", "--out", out, "--grid", "9", "9",
               "--tilt", "0.5"])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    with open(f"{out}/meta.json") as fh:
        meta = json.load(fh)
    assert meta["witness"]["max_abs_im_a"] > 0.0
    assert meta["witness"]["min_abs_c"] > 0.0
    assert meta["valid_interval"][0] < meta["config"]["family"]["window"][0]


def test_family_rejects_inadmissible_c1(tmp_path, capsys):
    rc = main(["family", "--c1", "0.5", "--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert rc == 2
    assert err["error"] == "InadmissibleC1"


def test_family_rejects_window_outside_arc(tmp_path, capsys):
    rc = main(["family", "--c1", "2.0", "--out", str(tmp_path / "o"),
               "--window", "0.1", "0.9"])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize("side", [1e300, 1e-300])
def test_grid_spacings_must_square_to_normal_floats(side, tmp_path, capsys):
    # the stencils divide by h^2 and (GAUSS_STEP h)^2: overflow used to raise
    # OverflowError, underflow gave a NaN metric curvature at every node
    rect = ["0", repr(side), "0", repr(side)]
    assert main(["family", "--c1", "2", "--grid", "9", "9", "--rect", *rect,
                 "--out", str(tmp_path / "fam"), "--quiet"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    cfg = generic_config(9)
    cfg["grid"].update(x1=side, y1=side)
    cfg_path = tmp_path / "rect.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["construct", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_metric_curvature_squares_its_spacing_by_pow(tmp_path):
    # with h = 1.645 / 16, (3 * h) ** 2 is 0.09513369140625001 and the product ...003:
    # K_metric has always been divided by the pow square, and these bytes pin it
    out = tmp_path / "fam"
    assert main(["family", "--c1", "2", "--grid", "17", "17", "--rect", "0", "1.645", "0", "1",
                 "--out", str(out), "--quiet"]) == 0
    assert hashlib.sha256((out / "fields.csv").read_bytes()).hexdigest() == \
        "b7d3e28010362364d2c4ec36a07abaea071557cd8d3390ba9fffbca453e5fd50"


def test_a_small_rectangle_still_builds(tmp_path):
    out = tmp_path / "fam"
    assert main(["family", "--c1", "2", "--grid", "9", "9", "--rect", "0", "1e-3", "0", "1e-3",
                 "--out", str(out), "--quiet"]) == 0
    k = read_fields(str(out)).K_metric
    assert np.isfinite(k[3:-3, 3:-3]).all()   # the GAUSS_STEP interior


# ---- profile subcommand ----

def test_profile_table_layout(tmp_path):
    out = tmp_path / "prof.csv"
    rc = main(["profile", "--rho", "-3", "--alpha0", "0.6", "--a0", "0.3+0.4i",
               "--range", "0.4", "1.2", "--samples", "41", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,a_re,a_im,F,K"
    assert len(lines) == 42
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(0.4)


def test_profile_stdout_and_flat_rejection(capsys):
    rc = main(["profile", "--rho", "-3", "--alpha0", "0.6", "--a0", "0.3+0.4i",
               "--range", "0.4", "1.2", "--samples", "5"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("alpha,")
    rc = main(["profile", "--rho", "0", "--alpha0", "0.6", "--a0", "0.3+0.4i",
               "--range", "0.4", "1.2"])
    assert rc == 3


# ---- tcoef subcommand ----

def test_tcoef_exact_pin(capsys):
    rc = main(["tcoef", "--i", "1", "--alpha", repr(np.pi / 4.0), "--a", "2"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0].startswith("t1 = ")
    val = parse_complex(out[0].split("=", 1)[1])
    assert val == pytest.approx(-26.0, rel=1e-12)
    assert len(out) == 4   # value plus three partials


def test_tcoef_vanishes_at_right_angle(capsys):
    rc = main(["tcoef", "--i", "1", "--alpha", repr(np.pi / 2.0),
               "--a", "1+0.5i"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert abs(parse_complex(out[0].split("=", 1)[1])) <= 1e-12


def test_tcoef_formal_point_differs_from_conjugate_pair(capsys):
    argv = ["tcoef", "--i", "3", "--alpha", "1.0", "--a", "0.4+0.2i"]
    main(argv)
    paired = capsys.readouterr().out
    main(argv + ["--abar", "0.1-0.7i"])
    formal = capsys.readouterr().out
    assert paired != formal


def test_tcoef_rejects_bad_id_and_literal(capsys):
    assert main(["tcoef", "--i", "14", "--alpha", "1.0", "--a", "1"]) == 3
    capsys.readouterr()
    assert main(["tcoef", "--i", "3", "--alpha", "1.0", "--a", "1+2x"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_tcoef_overflow_exits_with_json_not_nan():
    # the jet overflows at this point; a printed nan+nani with exit 0 would pass as a value
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", "tcoef", "--i", "3",
                           "--alpha", "0.9", "--a", "1e308+1e308i"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "GuardError" and "not finite" in err["message"]
    assert "RuntimeWarning: overflow encountered in multiply" in err["warnings"]


def test_a_family_run_and_its_verify_never_import_scipy(tmp_path):
    out = str(tmp_path / "fam")
    code = ("import sys\n"
            "from pmcsurf.cli import main\n"
            f"assert main(['family', '--c1', '2', '--grid', '9', '9', '--out', {out!r},"
            " '--quiet']) == 0\n"
            f"print(main(['verify', {out!r}]))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, rc, loaded = proc.stdout.splitlines()
    assert (rc, loaded) == ("0", "[]")


@pytest.mark.parametrize("argv", [
    ["verify", "BUNDLE"],
    # a table past the stdout buffer, so the write fails inside the command;
    # it used to be reported as a ConfigError with exit 3
    ["profile", "--rho", "-3", "--alpha0", "0.6", "--a0", "0.3+0.4i", "--range", "0.4", "1.2",
     "--samples", "2000"],
    # five blocks: the write of block 0 fails and no later block is formatted
    ["profile", "--rho", "-3", "--alpha0", "0.6", "--a0", "0.3+0.4i", "--range", "0.4", "1.2",
     "--samples", "9000"],
], ids=["verify", "profile", "profile-five-blocks"])
def test_closed_stdout_exits_141_without_a_traceback(argv, family_bundle):
    # the reader of `pmcsurf verify DIR | head -1` closes the pipe after one line;
    # here it is closed before the first, so every write finds it closed
    argv = [str(family_bundle) if arg == "BUNDLE" else arg for arg in argv]
    proc = subprocess.Popen([sys.executable, "-m", "pmcsurf", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141, err
    assert err == b""


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "pmcsurf", "tcoef", "--i", "1",
         "--alpha", repr(np.pi / 4.0), "--a", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    first = proc.stdout.splitlines()[0]
    assert first.startswith("t1 = ")
    assert parse_complex(first.split("=", 1)[1]) == pytest.approx(-26.0, rel=1e-12)


# ---- byte identity against the benchmark references ----

SURFACE_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "surfaces.json"


# the four benchmark families; c1 = -1 is the arc that ends at its regular endpoint pi/2
RECORDED_FAMILIES = ("c1=2,tilt=0.5", "c1=3,tilt=0.5", "c1=2.5,tilt=0.7", "c1=-1,tilt=0.5")


@pytest.mark.parametrize("family", RECORDED_FAMILIES)
def test_outputs_match_the_recorded_hashes(family, tmp_path, capsys):
    # references recorded by perfbench/make_refs.py; this test only reads them
    refs = json.loads(SURFACE_REFS.read_text())["41"]
    cfg = tmp_path / "generic.json"
    cfg.write_text(json.dumps(generic_config()))
    c1, tilt = (kv.split("=")[1] for kv in family.split(","))
    runs = [(["construct", "--config", str(cfg)], 2, refs["construct"]),
            (["family", "--c1", c1, "--tilt", tilt], 0, refs["family"][family])]
    for k, (argv, code, ref) in enumerate(runs):
        out = tmp_path / str(k)
        assert main(argv + ["--grid", "41", "41", "--out", str(out), "--quiet"]) == code
        for name in ("fields.csv", "meta.json"):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == ref[name], name
    capsys.readouterr()


# verify on each recorded family's 41/81 pair, on the first family's 41² bundle
# alone, on its 81/161 pair, whose fine arrays pass numpy's 256 KiB
# temporary-elision size, and on the locus_cli pair, whose a, lam and c come
# from construct --config's ODE route: (exit code, sha256 of verify_report.json,
# sha256 of stdout)
VERIFY_HASHES = {
    ("c1=2,tilt=0.5", (41, 81)): (
        0, "bb22a06cbd94b97a719ea7d0794922e3778560d33665a467604247fd44f51350",
        "818f77b7d2f1ad5bb1fbd89e84e73d01d4428209449e11b15a806aa2d575d455"),
    ("c1=3,tilt=0.5", (41, 81)): (
        0, "81090b231b47541a76ef58114fb85bba08ce4097e2851ce259b2f2c91ac89088",
        "e1ddb54ed76a5edd1a914dbf0252a0851b98dc48c801c0f3051012014b2f90f3"),
    ("c1=2.5,tilt=0.7", (41, 81)): (
        0, "2d91c478bc79412f885b6cbe95f4b70a787ef2bb2583142c6b305bac92184b9f",
        "d324914de13f9d2ddb4a069f88d1dbbb2dc5171c26b8c436d914e49fe7459ad5"),
    ("c1=-1,tilt=0.5", (41, 81)): (
        0, "0e60366cbb46b8b62f1aa04883d1b037da2b762e0083d58ea4adfe9cbc81de95",
        "65750c54e3345e61d969c5e8720457504f7a080083f2dfc0aa726e3a038b139b"),
    ("c1=2,tilt=0.5", (41,)): (
        0, "5b767e82438a57a588f01bc3372aa6b9320c5ce86011979f59e78b65b59024bf",
        "d2350aad670b6ec20fd6e12856aac4c6797a83e9dcfbfc5b6ddd7c592c6e3b2e"),
    ("c1=2,tilt=0.5", (81, 161)): (
        0, "1719b5c39f7638499e44a0958638112f24a146a9ff6e6cdb12c338534edc672f",
        "bbb334ac150705159245c4c0a994ee0b764347f10522f4efe2beddb1ac138e08"),
    ("locus_cli", (33, 65)): (
        0, "00166c990a06509d5b8632a14216415db6adbdeff6a852409e5bdf35febd85a1",
        "1a2036f326522ea3a8a4203a98c5a136b56b183cf652560976211455da7affd9"),
}


@pytest.mark.parametrize("family,sides", list(VERIFY_HASHES),
                         ids=[f"{f}-{'/'.join(map(str, n))}" for f, n in VERIFY_HASHES])
def test_verify_report_matches_the_recorded_hash(family, sides, request, tmp_path, capsys):
    if family == "locus_cli":   # its coarse and fine bundles, built at 33 and 65
        dirs = list(request.getfixturevalue("locus_cli")[2:])
    else:
        c1, tilt = (kv.split("=")[1] for kv in family.split(","))
        dirs = [str(tmp_path / str(n)) for n in sides]
        for n, out in zip(sides, dirs):
            assert main(["family", "--c1", c1, "--tilt", tilt, "--grid", str(n), str(n),
                         "--out", out, "--quiet"]) == 0
    capsys.readouterr()
    code = main(["verify", *dirs, "--out", str(tmp_path / "report")])
    printed = capsys.readouterr().out.encode()
    report = (tmp_path / "report" / "verify_report.json").read_bytes()
    assert (code, hashlib.sha256(report).hexdigest(),
            hashlib.sha256(printed).hexdigest()) == VERIFY_HASHES[(family, sides)]


# sha256 of the PROFILE_ARGV table at 41 samples, the same on stdout and under --out
PROFILE_SHA256 = "1be0b88b691b7b2908ed8a4cce5bb96896e87c9105bc3448f21467bf4caa0073"


def test_profile_table_bytes_are_pinned(tmp_path, capsys):
    argv = PROFILE_ARGV + ["--samples", "41"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PROFILE_SHA256
    assert main(argv + ["--out", str(tmp_path / "profile.csv")]) == 0
    assert hashlib.sha256((tmp_path / "profile.csv").read_bytes()).hexdigest() == PROFILE_SHA256


# ---- bad numeric arguments end in a clean exit ----

PROFILE_ARGV = ["profile", "--rho", "-3", "--alpha0", "0.6", "--a0", "0.3+0.4i",
                "--range", "0.4", "1.2"]


@pytest.mark.parametrize("argv", [
    PROFILE_ARGV + ["--samples", "-1"],
    ["tcoef", "--i", "1", "--alpha", "nan", "--a", "0.4+0.2i"],
    PROFILE_ARGV + ["--b", "-1"],
    PROFILE_ARGV + ["--rho", "nan"],
    ["family", "--c1", "inf"],
    ["family", "--c1", "2", "--quad-tol", "0"],
    PROFILE_ARGV + ["--samples", "9" * 400],
    ["family", "--c1", "2", "--grid", "5", "9" * 400],
    PROFILE_ARGV + ["--samples", "1000000000000"],
], ids=["samples", "tcoef-alpha", "profile-b", "profile-rho", "family-c1", "quad-tol",
        "samples-huge", "grid-huge", "samples-over-cap"])
def test_bad_numeric_arguments_exit_with_json(argv, tmp_path):
    if argv[0] == "family":
        argv = argv + ["--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode in (2, 3), proc.stderr
    err = json.loads(proc.stderr)
    assert isinstance(err, dict) and "error" in err


@pytest.mark.parametrize("extra", [
    ["--b", "1e300"],
    ["--a0", "1e300+1e300i"],
    ["--K0", "1e308"],
    ["--Kprime0", "1e-308"],
    ["--range", "0.6", "0.6000000000000001"],
], ids=["nan-slope-potential", "nan-slope-profile", "K-flat-in-floats", "K-steps-subnormal",
        "range-one-ulp"])
def test_profile_march_failures_exit_2_with_json(extra):
    # a NaN slope at the anchor used to hang DOP853; a potential table that
    # cannot be inverted used to end in a PchipInterpolator traceback
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", *PROFILE_ARGV, "--samples", "3",
                           *extra], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr)["error"] == "StepFailure"


def test_a_march_that_crawls_stops_at_its_step_budget():
    # toward alpha = pi this march took 88221 steps and 15 s before its step
    # underflowed; at b = 0.3 it ran for minutes
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", "profile", "--rho", "1", "--b", "0.5",
                           "--alpha0", "1e-9", "--a0", "0.3+0.2i", "--range", "1e-9", "3.14159265",
                           "--tol", "2.3e-14", "--samples", "10"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)   # exactly one JSON object
    assert err["error"] == "StepFailure"
    assert f"budget of {MAX_STEPS} steps at 3.14" in err["message"], err


def test_profile_out_in_a_missing_directory_exits_with_json(tmp_path):
    out = tmp_path / "missing_dir" / "t.csv"
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", *PROFILE_ARGV, "--samples", "5",
                           "--out", str(out)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError" and "missing_dir" in err["message"]
    assert not out.parent.exists()


@pytest.mark.parametrize("argv", [
    ["family", "--c1", "2", "--grid", "9", "9"],
    ["construct", "--config", "CONFIG"],
    ["verify", "BUNDLE"],
], ids=["family", "construct", "verify"])
def test_out_naming_an_existing_file_exits_with_json(argv, family_bundle, tmp_path):
    cfg = tmp_path / "generic.json"
    cfg.write_text(json.dumps(generic_config(9)))
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    paths = {"CONFIG": str(cfg), "BUNDLE": str(family_bundle)}
    argv = [paths.get(arg, arg) for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", *argv, "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError" and "taken" in err["message"]
    assert out.read_text() == "not a directory\n"


def _a_dir(path):
    path.mkdir(parents=True)


def _deep_json(path):
    path.write_text("[" * 100_000)   # nests past the parser's recursion limit


def _family_9(c1: str, out: str) -> list[str]:
    return ["family", "--c1", c1, "--grid", "9", "9", "--quiet", "--out", out]


# argv, the path under the test's directory {t} where the run fails, and what
# stands at that path; {b} is a good bundle, and {t}/D a copy of it
IO_FAULTS = {
    "construct-config-is-a-dir": (["construct", "--config", "{t}/cfg", "--out", "{t}/out"],
                                  "cfg", _a_dir),
    "verify-config-is-a-dir": (["verify", "{b}", "{b}", "--config", "{t}/cfg"], "cfg", _a_dir),
    "construct-config-too-deep": (["construct", "--config", "{t}/deep.json", "--out", "{t}/out"],
                                  "deep.json", _deep_json),
    "verify-meta-too-deep": (["verify", "{t}/D"], "D/meta.json", _deep_json),
    "family-csv-is-a-dir": (_family_9("2", "{t}/out"), "out/fields.csv", _a_dir),
    "family-twin-is-a-dir": (_family_9("2", "{t}/out"), "out/fields.npz", _a_dir),
    "family-meta-is-a-dir": (_family_9("2", "{t}/out"), "out/meta.json", _a_dir),
    "verify-report-is-a-dir": (["verify", "{b}", "--quiet", "--out", "{t}/R"],
                               "R/verify_report.json", _a_dir),
}


@pytest.mark.parametrize("case", list(IO_FAULTS))
def test_a_file_that_cannot_be_read_or_written_exits_3_naming_it(case, family_bundle, tmp_path):
    # each of these ended in a traceback with exit 1, the code of a residual failure
    argv, fault, make = IO_FAULTS[case]
    shutil.copytree(family_bundle, tmp_path / "D")
    fault = tmp_path / fault
    make(fault)
    argv = [arg.format(t=tmp_path, b=family_bundle) for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)   # exactly one JSON object
    assert err["error"] == "ConfigError" and str(fault) in err["message"], err


def _files(directory) -> dict:
    """Each file of a directory by name, with its bytes."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def test_a_write_that_fails_part_way_leaves_no_new_fields_beside_an_old_meta(tmp_path):
    # the fields went out before meta.json, so a failed twin write left the
    # new run's fields.csv beside the old run's meta.json; now a bundle that
    # holds anything but bundle files is not replaced, and is left whole
    out = tmp_path / "out"
    assert main(_family_9("3", str(out))) == 0
    (out / "fields.npz").unlink()
    (out / "fields.npz").mkdir()
    old = _files(out)
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", *_family_9("2", str(out))],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "fields.npz" in json.loads(proc.stderr)["message"]
    assert (out / "fields.npz").is_dir()
    assert _files(out) == old and set(old) == {"fields.csv", "meta.json"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def _refuse_fields_csv(path, *args, **kwargs):
    if os.path.basename(path) == "fields.csv":
        raise PermissionError(13, "Permission denied", path)
    return open(path, *args, **kwargs)


def _refuse_the_twin(path, *args, **kwargs):
    raise OSError(28, "No space left on device", path)


@pytest.mark.parametrize("where,name,fault", [
    ("pmcsurf.fields.open", "fields.csv", _refuse_fields_csv),
    ("pmcsurf.fields.zipfile.ZipFile", "fields.npz", _refuse_the_twin),
], ids=["csv", "twin"])
def test_a_failed_rerun_leaves_the_last_bundle_whole(where, name, fault, monkeypatch, tmp_path,
                                                     capsys):
    # meta.json went out first, so a rerun whose fields.csv could not be
    # opened left the new meta.json beside the old fields, which verify judged
    out = tmp_path / "O"
    assert main(_family_9("3", str(out))) == 0
    old = _files(out)
    monkeypatch.setattr(where, fault, raising=False)
    assert main(_family_9("2", str(out))) == 3
    assert name in json.loads(capsys.readouterr().err)["message"]
    monkeypatch.undo()
    assert _files(out) == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["O"]   # no sibling left behind
    # a rerun that succeeds replaces the bundle whole
    assert main(_family_9("2", str(out))) == 0
    assert main(_family_9("2", str(tmp_path / "fresh"))) == 0
    assert _files(out) == _files(tmp_path / "fresh")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["O", "fresh"]


def test_an_out_holding_other_files_is_not_replaced(tmp_path, capsys):
    out = tmp_path / "O"
    assert main(_family_9("3", str(out))) == 0
    (out / "notes.txt").write_text("mine\n")
    old = _files(out)
    assert main(_family_9("2", str(out))) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "notes.txt" in err["message"]
    assert _files(out) == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["O"]


def test_verify_rejects_a_third_directory(family_bundle, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", "verify", *[str(family_bundle)] * 3,
                           "--out", str(out)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError" and "got 3 directories" in err["message"]
    assert not out.exists()


def test_rejected_verify_pair_leaves_no_out(family_bundle, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", "verify", str(family_bundle),
                           str(family_bundle), "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "finer" in json.loads(proc.stderr)["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["family", "--c1", "-1e-3"],
    ["family", "--c1", "2", "--rect", "-1e-3", "1", "0", "1"],
    ["family", "--c1", "2", "--rect", "-1E+3", "1", "-.5e-2", "1"],
    ["family", "--c1", "-1E+3"],
    ["family", "--c1", "2", "--tilt", "-.5e-2"],
    ["family", "--c1", "2", "--window", "-1e-3", "1"],
], ids=["c1", "rect", "rect-capital-E", "c1-inadmissible", "tilt", "window"])
def test_negative_numbers_in_exponent_notation_are_values(argv, tmp_path, capsys):
    # argparse's own negative-number pattern took -1e-3 for an option string
    args = build_parser().parse_args(argv + ["--out", str(tmp_path)])
    numbers = [float(a) for a in argv if a[0] == "-" and a[1:2] in ".0123456789"]
    assert set(numbers) <= {args.c1, args.tilt, *(args.rect or ()), *(args.window or ())}
    code = main(argv + ["--grid", "5", "5", "--out", str(tmp_path / "out"), "--quiet"])
    assert code in (0, 2, 3)
    if code:
        err = json.loads(capsys.readouterr().err)
        assert "argument" not in err["message"], err


@pytest.mark.parametrize("argv", [
    ["family", "--c1", "2", "--grid", "5", "5", "--quad-tol", "5e-324"],
    ["family", "--c1", "2", "--grid", "5", "5", "--quad-tol", "2e-14"],
    PROFILE_ARGV + ["--samples", "3", "--tol", "1e-15"],
    ["construct", "--config", "TINY_TOL"],
], ids=["quad-tol-subnormal", "quad-tol-under-100-eps", "profile-tol", "config-profile-tol"])
def test_march_tolerance_below_the_solver_floor_exits_3(argv, tmp_path):
    # DOP853 lifts an rtol below 100 eps with a warning, so the tolerance
    # recorded in meta.json was not the one used
    if argv[0] == "construct":
        cfg = tmp_path / "tiny_tol.json"
        cfg.write_text(json.dumps(generic_config(9, profile={**GENERIC_CONFIG["profile"],
                                                             "tol": 1e-20})))
        argv = [str(cfg) if arg == "TINY_TOL" else arg for arg in argv]
    if argv[0] != "profile":
        argv += ["--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)   # one JSON object and no solver warning
    assert err["error"] == "ConfigError" and "floor" in err["message"]
    assert not (tmp_path / "out").exists()   # a rejected run leaves no --out behind


# ---- warnings and the JSON object of a failed run ----

@pytest.mark.parametrize("section,override,error,warned", [
    ("params", {"rho": 1e300, "b": 1.0}, "StepFailure", "RuntimeWarning: "),
    ("profile", {**GENERIC_CONFIG["profile"], "a0_im": 0.0}, "NonpositiveDenominator",
     "UserWarning: real initial amplitude"),
    ("params", GENERIC_CONFIG["params"], "NonpositiveDenominator", None),
], ids=["rho-1e300-step-failure", "real-a0-guard-events", "no-warnings"])
def test_failed_run_lists_its_warnings_in_its_json_object(section, override, error, warned,
                                                         tmp_path):
    # the warnings used to reach stderr ahead of the JSON object
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(generic_config(9, **{section: override})))
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", "construct", "--config", str(cfg),
                           "--out", str(tmp_path / "out"), "--quiet"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)   # exactly one JSON object
    assert err["error"] == error
    if warned is None:
        assert "warnings" not in err   # the bytes of a run without warnings are unchanged
    else:
        assert err["warnings"] and all(": " in w for w in err["warnings"])
        assert any(w.startswith(warned) for w in err["warnings"]), err["warnings"]


def test_successful_run_still_issues_its_warnings():
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", "profile", "--rho", "-3",
                           "--alpha0", "0.6", "--a0", "0.3", "--range", "0.4", "1.2",
                           "--samples", "3"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "UserWarning: real initial amplitude" in proc.stderr
    assert not proc.stderr.lstrip().startswith("{")


# ---- fuzzed argv ends in a clean exit ----

# nan, inf, zero, negative, huge and minimal values; single-valued options
# take the --flag=value form, so that argparse reads -1e-300 as a number
EXTREME = ["nan", "inf", "-inf", "0", "-0", "-1e-300", "1e20", "1e300",
           "1.7976931348623157e308", "2.2250738585072014e-308", "5e-324"]
EXTREME_SIDE = ["4", "0", "-3", "nan", "1e3", "9" * 30]


def fuzz(draw, plausible, extreme=EXTREME):
    """One draw in four is extreme, so that most runs get past the parser."""
    return draw(st.sampled_from(extreme if draw(st.integers(0, 3)) == 3 else plausible))


def fuzz_grid(draw):
    return ["--grid", *(fuzz(draw, ["5", "6", "7", "8", "9"], EXTREME_SIDE) for _ in range(2))]


@st.composite
def family_argv(draw):
    argv = ["family", f"--c1={fuzz(draw, ['-1', '-0.5', '1.5', '2', '3'])}", *fuzz_grid(draw)]
    if draw(st.booleans()):
        argv += ["--rect", *fuzz(draw, [("0", "1", "0", "1"), ("-0.5", "0.25", "0", "2"),
                                        ("0", "1e20", "0", "1")],
                                 [tuple(draw(st.sampled_from(EXTREME)) for _ in range(4))])]
    if draw(st.integers(0, 3)) == 3:      # the arc depends on c1: nearly every window fails
        argv += ["--window", *(draw(st.sampled_from(EXTREME + ["0.5", "1.2"])) for _ in range(2))]
    if draw(st.booleans()):
        argv.append(f"--tilt={fuzz(draw, ['0', '0.5', '1.2'])}")
    if draw(st.booleans()):
        argv.append(f"--quad-tol={fuzz(draw, ['1e-10', '1e-6'])}")
    return argv


@st.composite
def construct_argv(draw):
    return ["construct", *fuzz_grid(draw)]


@contextlib.contextmanager
def time_budget(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"the run took longer than {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def generic_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "generic.json"
    path.write_text(json.dumps(GENERIC_CONFIG))
    return str(path)


@settings(max_examples=30)
@example(argv=["family", "--c1=2", "--grid", "5", "5", "--rect", "0", "1e20", "0", "1"])
@given(argv=st.one_of(family_argv(), construct_argv()))
def test_fuzzed_argv_ends_in_a_clean_exit(argv, generic_config_path):
    if argv[0] == "construct":
        argv = argv + ["--config", generic_config_path]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with time_budget(30), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", out, "--quiet"])
        assert code in (0, 2, 3), (argv, err.getvalue())
        if code:
            payload = json.loads(err.getvalue())    # exactly one JSON object
            assert isinstance(payload, dict) and "error" in payload, argv
        if code == 0:
            # e.g. --rect 0 1e20 0 1 prints x through the formatter's slow path
            back = read_fields(out)
            assert back.grid.nx == int(argv[argv.index("--grid") + 1])


# ---- fuzzed config ends in a clean exit ----

# JSON values past the schema: non-finite (json writes NaN and Infinity), huge,
# tiny, an int with no float value, and values of the wrong type
CONFIG_EXTREME = [math.nan, math.inf, -math.inf, 0, -0.0, -1e-300, 1e20, 1e300,
                  1.7976931348623157e308, 2.2250738585072014e-308, 5e-324, HUGE,
                  True, "1", None, [1.0]]
# every numeric field of the config schema but the grid sides, with values
# that mostly get past the schema; the grid sides stay small when valid
CONFIG_NUMBERS = {
    ("params", "rho"): [-3.0, -1.0, 2.5],
    ("params", "b"): [1.0, 0.5, 2.0],
    ("profile", "alpha0"): [0.6, 0.5, 0.7],
    ("profile", "a0_re"): [0.3, -0.2, 1.5],
    ("profile", "a0_im"): [0.4, 0.0, -0.3],
    ("profile", "alpha_min"): [0.4, 0.3, 0.45],
    ("profile", "alpha_max"): [1.2, 0.9, 1.0],
    ("profile", "tol"): [1e-10, 1e-6, 1e-3],
    ("potential", "K0"): [0.0, 1.0, -2.0],
    ("potential", "Kprime0"): [1.0, -1.0, 3.0],
    ("grid", "x0"): [0.0, -0.5],
    ("grid", "x1"): [1.0, 0.25, 2.0],
    ("grid", "y0"): [0.0, -1.0],
    ("grid", "y1"): [1.0, 0.5],
    (None, "nu0"): [0.0, 1.5, -3.0],
    ("thresholds", "identity_tol"): [1e-8, 1e-12],
}
CONFIG_SIDES = [5, 6, 7, 8, 9]
CONFIG_EXTREME_SIDES = [4, 0, -3, MAX_SIDE + 1, HUGE, 7.0, True, "7", None]
CONFIG_COEFFS = [GENERIC_CONFIG["harmonic"]["coeffs"], [[0.0, 0.0], [0.5, 0.2]],
                 [[-0.07, 0.0], [0.9, 0.0], [0.1, -0.05]]]
# z^4 overflows where |z| > 1, so the input is NaN at some nodes and infinite at others
OVERFLOW_COEFFS = [[0.3, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1e308, 0.0]]
CONFIG_EXTREME_COEFFS = [[], [[1.0]], [[math.nan, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]],
                         [[HUGE, 0.0], [1.0, 0.0]], [[1e300, 0.0], [1e300, 1e300]], "x",
                         [[0.0, 0.0], [1.0, "1"]], OVERFLOW_COEFFS]
CONFIG_BANDS = [[1.7, 2.3], [1.5, 2.5]]
CONFIG_EXTREME_BANDS = [[2.3, 1.7], [2.0, 2.0], [math.nan, 2.0], [1.0, HUGE], [1.7], "x",
                        [-1e300, 1e300]]


@st.composite
def fuzzed_config(draw):
    """The generic reference config with each fuzzed field redrawn one time in six."""
    cfg = generic_config(7)
    fields = [(key, plausible, CONFIG_EXTREME) for key, plausible in CONFIG_NUMBERS.items()]
    fields += [(("grid", side), CONFIG_SIDES, CONFIG_EXTREME_SIDES) for side in ("nx", "ny")]
    fields += [(("harmonic", "coeffs"), CONFIG_COEFFS, CONFIG_EXTREME_COEFFS),
               (("thresholds", "order_band"), CONFIG_BANDS, CONFIG_EXTREME_BANDS)]
    for (section, key), plausible, extreme in fields:
        if draw(st.integers(0, 5)) == 5:
            value = fuzz(draw, plausible, extreme)
            (cfg if section is None else cfg.setdefault(section, {}))[key] = value
    return cfg


def overflow_config(nx: int, x0: float, x1: float, y0: float, y1: float) -> dict:
    cfg = generic_config(nx, harmonic={"coeffs": OVERFLOW_COEFFS})
    cfg["grid"].update(x0=x0, x1=x1, y0=y0, y1=y1)
    return cfg


@settings(max_examples=25)
@example(cfg=overflow_config(7, 0.0, 2.0, 0.0, 1.0))
@given(cfg=fuzzed_config())
def test_fuzzed_config_ends_in_a_clean_exit(cfg):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        with time_budget(30), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["construct", "--config", str(cfg_path), "--out", str(out), "--quiet"])
        assert code in (0, 2, 3), (cfg, err.getvalue())
        if code:
            payload = json.loads(err.getvalue())    # exactly one JSON object
            assert isinstance(payload, dict) and "error" in payload, cfg
        else:
            assert not err.getvalue(), cfg
        if code in (0, 2) and out.exists():
            assert read_fields(str(out)).grid.nx == cfg["grid"]["nx"]


# ---- a malformed field bundle ends in a clean exit ----

@pytest.fixture(scope="module")
def family_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle") / "family"
    assert main(["family", "--c1", "2", "--grid", "9", "9", "--out", str(out), "--quiet"]) == 0
    return out


def _text(name, edit):
    """An edit of the text of one file of the bundle."""
    def apply(bundle):
        (bundle / name).write_text(edit((bundle / name).read_text()))
    return apply


def _a_directory(name):
    def apply(bundle):
        (bundle / name).unlink()
        (bundle / name).mkdir()
    return apply


def _rows(edit):
    """An edit of the list of data rows of fields.csv."""
    def apply(text):
        header, *rows = text.split("\n")
        return "\n".join([header, *edit(rows)])
    return _text("fields.csv", apply)


def _first_row(edit):
    return _rows(lambda rows: [edit(rows[0]), *rows[1:]])


def _scale_xy(row, factor):
    if not row:
        return row
    x, y, rest = row.split(",", 2)
    return f"{float(x) * factor!r},{float(y) * factor!r},{rest}"


def _set_y(row, y):
    x, _, rest = row.split(",", 2)
    return f"{x},{y},{rest}"


# rows 11 and 12 both hold x[1]; swapped, each sits at the other's y
_SWAP_11_12 = _rows(lambda rows: rows[:11] + [rows[12], rows[11]] + rows[13:])
_Y_123_5 = _rows(lambda rows: rows[:20] + [_set_y(rows[20], "123.5")] + rows[21:])


def _then(*edits):
    def apply(bundle):
        for edit in edits:
            edit(bundle)
    return apply


def _truncate_twin(bundle):
    twin = bundle / "fields.npz"
    twin.write_bytes(twin.read_bytes()[:len(twin.read_bytes()) // 2])


def _twin_of_another_bundle(bundle):
    assert main(["family", "--c1", "2.5", "--grid", "9", "9", "--out", str(bundle / "other"),
                 "--quiet"]) == 0
    (bundle / "other" / "fields.npz").replace(bundle / "fields.npz")
    shutil.rmtree(bundle / "other")


def _twin_arrays(edit):
    """Rewrite fields.npz with edit applied to its arrays; it keeps the CSV's digest."""
    def apply(bundle):
        with np.load(bundle / "fields.npz") as twin:
            arrays = dict(twin)
        edit(arrays, bundle)
        np.savez(bundle / "fields.npz", **arrays)
    return apply


def _mask_9(arrays, bundle):
    arrays["mask"][40] = 9


def _alpha_one_short(arrays, bundle):
    arrays["alpha"] = arrays["alpha"][:-1]


class _OpensAFileWhenUnpickled:
    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return open, (self.path, "w")


def _pickled_alpha(arrays, bundle):
    marker = str(bundle / "unpickled")
    arrays["alpha"] = np.array([_OpensAFileWhenUnpickled(marker)] * arrays["alpha"].size)


MALFORMED_BUNDLES = {
    "non-numeric": _first_row(lambda row: "abc" + row[row.index(","):]),
    "ragged-row": _first_row(lambda row: row[:row.rindex(",")]),
    "empty-csv": _text("fields.csv", lambda text: ""),
    "meta-not-json": _text("meta.json", lambda text: text[:len(text) // 2]),
    "mask-257": _first_row(lambda row: row[:row.rindex(",") + 1] + "257"),
    "header-only": _text("fields.csv", lambda text: text.split("\n", 1)[0] + "\n"),
    "hash-row": _first_row(lambda row: "#" + row),
    "rect-1e-300": _rows(lambda rows: [_scale_xy(row, 1e-300) for row in rows]),
    "csv-is-dir": _a_directory("fields.csv"),
    "meta-is-dir": _a_directory("meta.json"),
    # rows off their grid nodes read without error when only x[0], y[0] and
    # the x of rows 0, ny, 2 ny, ... were checked
    "rows-11-12-swapped": _SWAP_11_12,
    "row-20-y-123.5": _Y_123_5,
    # a twin that is not this CSV's is passed over, and the parse finds the fault
    "twin-truncated": _then(_Y_123_5, _truncate_twin),
    "twin-of-another-bundle": _then(_SWAP_11_12, _twin_of_another_bundle),
    # a twin that holds this CSV's digest is checked as a parse would be
    "twin-mask-9": _twin_arrays(_mask_9),
    "twin-alpha-one-short": _twin_arrays(_alpha_one_short),
    "twin-object-member": _twin_arrays(_pickled_alpha),
}


@pytest.mark.parametrize("case", list(MALFORMED_BUNDLES))
def test_malformed_field_bundle_exits_with_json(case, family_bundle, tmp_path):
    bundle = tmp_path / "bundle"
    shutil.copytree(family_bundle, bundle)
    MALFORMED_BUNDLES[case](bundle)
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", "verify", str(bundle)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)
    assert isinstance(err, dict) and err["error"] == "ConfigError"
    assert not (bundle / "unpickled").exists()


def test_flat_ambient_space_in_a_bundle_exits_with_zero_denominator(tmp_path):
    # a bundle may claim rho = 0; verify stops at t6 as the jet cascade did, also
    # when every node is singularity-masked and none reaches the cascade
    dirs = []
    for n in (9, 17):
        out = tmp_path / f"fam{n}"
        assert main(["family", "--c1", "2", "--grid", str(n), str(n), "--out", str(out),
                     "--quiet"]) == 0
        meta = json.loads((out / "meta.json").read_text())
        meta["config"]["params"]["rho"] = 0
        (out / "meta.json").write_text(json.dumps(meta))
        dirs.append(out)
    for all_masked in (False, True):
        for out in dirs if all_masked else ():
            header, *rows = (out / "fields.csv").read_text().splitlines()
            rows = [row.rsplit(",", 1)[0] + ",1" for row in rows]   # mask = MASK_SINGULAR
            (out / "fields.csv").write_text("\n".join([header, *rows]) + "\n")
        proc = subprocess.run([sys.executable, "-m", "pmcsurf", "verify", *map(str, dirs)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "ZeroDenominator"
        assert err["message"] == "rho = 0 makes t6 undefined"


def test_a_nan_at_a_judged_node_exits_3_naming_its_column_and_node(tmp_path, capsys):
    # the maxima skip NaN residuals, so a NaN angle and amplitude at a clear
    # node used to pass unjudged: exit 0, "result: pass"
    dirs = []
    for n in (33, 65):
        out = tmp_path / f"fam{n}"
        assert main(["family", "--c1", "2", "--grid", str(n), str(n), "--out", str(out),
                     "--quiet"]) == 0
        surface = read_fields(str(out))
        i, j = n // 2, n // 3
        assert surface.mask[i, j] == 0
        surface.alpha[i, j] = surface.a[i, j] = np.nan
        write_fields(surface, str(out))
        dirs.append(str(out))
    capsys.readouterr()
    assert main(["verify", *dirs]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)   # one object
    assert err == {"error": "ConfigError", "message": "column alpha holds nan at node (16, 11) "
                   "of the 33x33 grid (x = 0.5, y = 0.34375)"}


def _strict_json(text: str):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_a_report_with_no_judged_node_is_strict_json(family_bundle, tmp_path, capsys):
    # every node phase-masked leaves max_coarse undefined; it was written as NaN
    bundle = tmp_path / "bundle"
    shutil.copytree(family_bundle, bundle)
    _rows(lambda rows: [row.rsplit(",", 1)[0] + ",2" if row else row for row in rows])(bundle)
    assert main(["verify", str(bundle), "--out", str(tmp_path / "report"), "--quiet"]) == 1
    report = _strict_json((tmp_path / "report" / "verify_report.json").read_text())
    rows = {row["equation"]: row for row in report["rows"]}
    assert rows["E2_6_ricci"]["max_coarse"] is None
    assert rows["E2_6_ricci"]["note"] == "no evaluable nodes"


def test_a_failed_run_writes_strict_json_on_stderr(monkeypatch, capsys):
    from pmcsurf import cli

    def trip(args):
        raise GuardTripped("tripped", achieved=(float("nan"), float("inf")))

    monkeypatch.setattr(cli, "cmd_tcoef", trip)
    assert main(["tcoef", "--i", "1", "--alpha", "0.5", "--a", "0.3+0.1i"]) == 2
    err = _strict_json(capsys.readouterr().err)
    assert err == {"error": "GuardTripped", "message": "tripped", "achieved_range": [None, None]}


@pytest.mark.parametrize("route", ["construct", "verify --config", "bundle meta.json"])
def test_negative_identity_tol_is_a_config_error(route, family_bundle, tmp_path):
    # it used to make every identity check FAIL with exit 1, on a correct surface
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(generic_config(9, thresholds={"identity_tol": -1.0})))
    bundle = tmp_path / "bundle"
    shutil.copytree(family_bundle, bundle)
    meta = json.loads((bundle / "meta.json").read_text())
    meta["config"]["thresholds"] = {"identity_tol": -1.0}
    (bundle / "meta.json").write_text(json.dumps(meta))
    argv = {"construct": ["construct", "--config", str(cfg), "--out", str(tmp_path / "o")],
            "verify --config": ["verify", str(family_bundle), "--config", str(cfg)],
            "bundle meta.json": ["verify", str(bundle)]}[route]
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("config.thresholds.identity_tol")
    assert not (tmp_path / "o").exists()


def test_harmonic_input_that_overflows_is_a_range_mismatch(tmp_path):
    # its NaN nodes used to pass the warp range check and end in a bare
    # ValueError traceback with exit 1, the code of a residual failure
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(overflow_config(9, 1.2, 1.6, 0.0, 0.4)))
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", "construct", "--config", str(cfg),
                           "--out", str(out), "--quiet"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "RangeMismatch"
    assert err["message"].startswith("harmonic input is not finite on the grid")
    assert not out.exists()


# ---- the package reads no setting from the environment ----

def test_no_module_reads_the_environment():
    # every setting is an argument or a config key that the command states;
    # a module reading os.environ or os.getenv would add one that none states
    import pmcsurf
    reads = []
    for path in sorted(Path(pmcsurf.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     and node.module == "os" else [getattr(node, "attr", None)])
            reads += [f"{path.name}:{node.lineno} {n}" for n in names
                      if n in ("environ", "environb", "getenv", "getenvb")]
    assert not reads


# ---- the development scripts ----

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_bench_tracer_finds_every_traced_name():
    # the benchmark's tracer wraps pmcsurf functions by name, and its child
    # process labels each run with verify.default_workers(), so a renamed or
    # deleted one fails here rather than in a benchmark run
    from pmcsurf import verify

    path = SCRIPTS.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    reached = [*tracing.FUNCTIONS.values(), *tracing.METHODS.values(), (verify, "default_workers")]
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr in reached
               if not callable(getattr(owner, attr, None))]
    assert not missing
    tracer = tracing.Tracer("tier1")
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_every_bundle_goes_through_the_cli_write_fields_name(monkeypatch, tmp_path):
    # the surfaces benchmark captures each surface by replacing cli.write_fields;
    # a command that reached write_fields another way would write past the capture
    from pmcsurf import cli
    seen, write = [], cli.write_fields

    def record(surface, directory):
        seen.append(surface)
        return write(surface, directory)

    monkeypatch.setattr(cli, "write_fields", record)
    cfg = tmp_path / "generic.json"
    cfg.write_text(json.dumps(generic_config(9)))
    # the generic run at 9x9 trips the domain guard and still writes its fields
    for k, (argv, code) in enumerate([(["family", "--c1", "2", "--grid", "9", "9"], 0),
                                      (["construct", "--config", str(cfg)], 2)]):
        assert main(argv + ["--out", str(tmp_path / str(k)), "--quiet"]) == code
        assert len(seen) == k + 1 and seen[-1].grid.nx == 9


@pytest.mark.parametrize("parent,change,lower,expected", [
    ((0.9, 1.0, 1.1), 1.2, True, "within bound"),
    ((0.9, 1.0, 1.1), 1.3, True, "worse by more than bound"),
    ((0.9, 1.0, 1.1), 0.7, False, "worse by more than bound"),
    ((0.9, 1.0, 1.1), 2.0, False, "within bound"),
    ((0.7, 1.0, 1.3), 1.2, True, "unresolved"),
    ((0.7, 1.0, 1.3), 1.3, True, "worse by more than bound"),
], ids=["within", "slower", "lower-rate", "higher-rate", "wide-parent", "wide-and-worse"])
def test_ab_pairs_regression_verdict(parent, change, lower, expected):
    assert _module(SCRIPTS / "ab_pairs.py").verdict(parent, change, 0.25, lower) == expected


def _module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# a stand-in for perfbench/run.py: its k-th call prints the k-th value of
# each metric in values.json as run.py's last line
STUB_RUN = """import json, pathlib
root = pathlib.Path(__file__).resolve().parents[1]
calls = root / "calls"
k = int(calls.read_text()) if calls.exists() else 0
calls.write_text(str(k + 1))
values = json.loads((root / "values.json").read_text())
print("a table line")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {m: {"value": v[k], "unit": "-"} for m, v in values.items()}}))
"""


def test_ab_pairs_json_holds_the_pairs_and_their_statistics(tmp_path):
    bench = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    values = {   # per side and metric, one value per pair
        "parent": {"wall_s": [1.00, 1.02, 0.98, 1.01], "setup_s": [0.2] * 4, "cpu_s": [1.0] * 4,
                   "peak_rss_mib": [50.0] * 4, "nodes_per_s": [100.0, 300.0, 100.0, 300.0]},
        "change": {"wall_s": [0.90, 0.95, 0.99, 0.93], "setup_s": [0.2] * 4,
                   "cpu_s": [1.5, 1.4, 1.6, 1.5], "peak_rss_mib": [50.0] * 4,
                   "nodes_per_s": [210.0, 190.0, 220.0, 180.0]}}
    git = ["git", "-c", "user.name=stub", "-c", "user.email=stub@example.org"]
    for side, vals in values.items():
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(STUB_RUN)
        (root / "values.json").write_text(json.dumps(vals))
        (root / "BENCHMARK.json").write_text(json.dumps({**bench, "run_seconds": 1}))
        for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-qm", side]):
            subprocess.run(git + cmd, cwd=root, check=True, capture_output=True)
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "ab_pairs.py"), str(tmp_path / "parent"),
                           str(tmp_path / "change"), "--workload", "w", "--seed", "0", "--pairs",
                           "4", "--json", str(out)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    got = json.loads(out.read_text())
    assert got.keys() == {"workload", "seed", "run_seconds", "pairs_run", "complete_pairs",
                          "failed_runs", "heads", "host", "metrics"}
    assert (got["workload"], got["seed"], got["run_seconds"]) == ("w", 0, 1.0)
    assert (got["pairs_run"], got["complete_pairs"], got["failed_runs"]) == (4, 4, 0)
    for side in values:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path / side,
                              capture_output=True, text=True, check=True).stdout.strip()
        assert got["heads"][side] == head
    host = got["host"]
    assert host.keys() == {"cpu_count", "loadavg_before", "loadavg_after", "python", "numpy"}
    assert host["cpu_count"] == os.cpu_count() and host["numpy"] == np.__version__
    assert host["python"] == ".".join(map(str, sys.version_info[:3]))
    run = _module(SCRIPTS.parent / "perfbench" / "run.py")
    expected = {"wall_s": (3, "within bound"), "setup_s": (0, "within bound"),
                "cpu_s": (0, "worse by more than bound"), "peak_rss_mib": (0, "within bound"),
                "nodes_per_s": (2, "unresolved")}
    assert list(got["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    for name, stats in got["metrics"].items():
        assert stats["pairs"] == [{"parent": p, "change": c} for p, c in
                                  zip(values["parent"][name], values["change"][name])]
        assert (stats["wins"], stats["verdict"]) == expected[name], name
        for side in values:
            samples = values[side][name]
            assert (stats[side]["q1"], stats[side]["q3"]) == run.quartiles(samples), name
            assert stats[side]["median"] == statistics.median(samples), name
        assert stats["parent_iqr"] == stats["parent"]["q3"] - stats["parent"]["q1"]
        assert stats["median_gap"] == abs(stats["change"]["median"] - stats["parent"]["median"])


@pytest.mark.parametrize("name", ["convergence_sweep", "make_golden", "gen_cascade", "ab_pairs"])
def test_script_imports_as_a_module(name):
    # each script binds its pmcsurf names at import and runs nothing under
    # it, so importing it in a fresh interpreter finds a name it lost
    if name == "gen_cascade":
        pytest.importorskip("sympy")
    if name == "make_golden":   # the golden file's integrator stays SciPy, independent of pmcsurf
        pytest.importorskip("scipy")
    code = ("import importlib.util, sys; "
            "spec = importlib.util.spec_from_file_location('script', sys.argv[1]); "
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))")
    proc = subprocess.run([sys.executable, "-c", code, str(SCRIPTS / f"{name}.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
