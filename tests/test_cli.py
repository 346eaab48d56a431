"""End-to-end command line behaviour: exit codes, files on disk, determinism."""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pmcsurf.cli import fmt_complex, main, parse_complex
from pmcsurf.errors import ConfigError
from pmcsurf.family4 import family_amplitude
from pmcsurf.fields import MAX_SIDE, HarmonicInput, read_fields
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
    for name in ("fields.csv", "meta.json"):
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


def test_outputs_match_the_recorded_hashes(tmp_path, capsys):
    # references recorded by perfbench/make_refs.py; this test only reads them
    refs = json.loads(SURFACE_REFS.read_text())["41"]
    cfg = tmp_path / "generic.json"
    cfg.write_text(json.dumps(generic_config()))
    runs = [(["construct", "--config", str(cfg)], 2, refs["construct"]),
            (["family", "--c1", "2.0", "--tilt", "0.5"], 0, refs["family"]["c1=2,tilt=0.5"])]
    for k, (argv, code, ref) in enumerate(runs):
        out = tmp_path / str(k)
        assert main(argv + ["--grid", "41", "41", "--out", str(out), "--quiet"]) == code
        for name in ("fields.csv", "meta.json"):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == ref[name], name
    capsys.readouterr()


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
], ids=["samples", "tcoef-alpha", "profile-b", "profile-rho", "family-c1", "quad-tol",
        "samples-huge", "grid-huge"])
def test_bad_numeric_arguments_exit_with_json(argv, tmp_path):
    if argv[0] == "family":
        argv = argv + ["--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode in (2, 3), proc.stderr
    err = json.loads(proc.stderr)
    assert isinstance(err, dict) and "error" in err


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


# ---- a malformed field bundle ends in a clean exit ----

@pytest.fixture(scope="module")
def family_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle") / "family"
    assert main(["family", "--c1", "2", "--grid", "9", "9", "--out", str(out), "--quiet"]) == 0
    return out


def _first_row(edit):
    def apply(text):
        header, row, rest = text.split("\n", 2)
        return "\n".join([header, edit(row), rest])
    return apply


MALFORMED_BUNDLES = {
    "non-numeric": ("fields.csv", _first_row(lambda row: "abc" + row[row.index(","):])),
    "ragged-row": ("fields.csv", _first_row(lambda row: row[:row.rindex(",")])),
    "empty-csv": ("fields.csv", lambda text: ""),
    "meta-not-json": ("meta.json", lambda text: text[:len(text) // 2]),
    "mask-257": ("fields.csv", _first_row(lambda row: row[:row.rindex(",") + 1] + "257")),
    "header-only": ("fields.csv", lambda text: text.split("\n", 1)[0] + "\n"),
    "hash-row": ("fields.csv", _first_row(lambda row: "#" + row)),
    "csv-is-dir": ("fields.csv", None),
    "meta-is-dir": ("meta.json", None),
}


@pytest.mark.parametrize("case", list(MALFORMED_BUNDLES))
def test_malformed_field_bundle_exits_with_json(case, family_bundle, tmp_path):
    name, edit = MALFORMED_BUNDLES[case]
    bundle = tmp_path / "bundle"
    shutil.copytree(family_bundle, bundle)
    if edit is None:   # a directory where the file belongs
        (bundle / name).unlink()
        (bundle / name).mkdir()
    else:
        (bundle / name).write_text(edit((bundle / name).read_text()))
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", "verify", str(bundle)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)
    assert isinstance(err, dict) and err["error"] == "ConfigError"


def test_flat_ambient_space_in_a_bundle_exits_with_zero_denominator(tmp_path):
    # a bundle may claim rho = 0; verify stops at t6 as the jet cascade did
    dirs = []
    for n in (9, 17):
        out = tmp_path / f"fam{n}"
        assert main(["family", "--c1", "2", "--grid", str(n), str(n), "--out", str(out),
                     "--quiet"]) == 0
        meta = json.loads((out / "meta.json").read_text())
        meta["config"]["params"]["rho"] = 0
        (out / "meta.json").write_text(json.dumps(meta))
        dirs.append(str(out))
    proc = subprocess.run([sys.executable, "-m", "pmcsurf", "verify", *dirs],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ZeroDenominator"
    assert err["message"] == "rho = 0 makes t6 undefined"
