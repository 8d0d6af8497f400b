import copy
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from test_analytic import _case2_level_reference
from torusdirac import checks, cli, geometry, pseudoherm
from torusdirac.errors import ConfigError

BASE = [sys.executable, "-m", "torusdirac.cli"]


def run_cli(*args, cwd=None):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, cwd=cwd)


def _default_document():
    """The scenario document that spells out every default of `cli.SCHEMA`."""
    doc = {}
    for key, (default, _, _) in cli.SCHEMA.items():
        section, _, leaf = key.rpartition(".")
        if section == "outputs":
            doc.setdefault("outputs", []).extend([leaf] if default else [])
        elif section:
            doc.setdefault(section, {})[leaf] = default
        elif not key.startswith("--"):
            doc[key] = default
    return doc


DEFAULTS = _default_document()

# Each run's records on the default scenario, in report order: (name, gating)
RUN_RECORDS = {
    "geometry": [
        ("geometry: frame identity", True),
        ("geometry: christoffel oracle convergence order", True),
        ("spin-connection tabulated-vs-frame max gap", False),
    ],
    cli._SPECTRUM: [
        ("eigenpair residual max", True),
        ("periodic eigensolve Fourier modes", False),
        ("numerics: periodic FD order vs Hill's method", True),
    ],
    cli._PDFV: [
        ("pdfv analytic-vs-fd max rel deviation", False),
    ],
    "verify": [
        ("geometry: frame identity", True),
        ("operators: squaring consistency @1024", True),
        ("operators: defect with hermitizing gauge", True),
        ("operators: defect with real unit gauge", True),
        ("operators: defect with zero gauge", False),
        ("factorization: W^2 -+ W' identities", True),
        ("intertwining: factorization pair residual @2048", True),
        ("intertwining: closed-form pair residual", False),
        ("intertwining: tabulated first-order coefficient", False),
        ("pdfv: effective potential closed-form gap", True),
        ("quantization: wavefunction equation residual", True),
        ("quantization: partner-oracle spectrum match", True),
        ("quantization: critical pdfv levels vs collocation", True),
        ("morse chain: derived closed form vs collocation", True),
        ("morse chain: tabulated energy formula gap", False),
        ("morse chain: quadratic-expansion truncation gap", False),
        ("special functions: oracle agreement (orders <= 20)", True),
        ("numerics: box benchmark", True),
        ("numerics: oscillator benchmark", True),
        ("numerics: simpson error slope", True),
    ],
}


def test_each_run_records_its_pinned_checks():
    for run, pinned in RUN_RECORDS.items():
        doc = {"case": "pdfv", "fermi": {"kind": "cosine"}} if run == cli._PDFV else {}
        command = getattr(cli, f"cmd_{run.split()[0]}")
        report, _ = command(cli._build_config(cli._settings(doc)))
        assert [(r.name, r.gating) for r in report.records] == pinned, run
    # a run name that no command records would drop its check from every report
    for check in checks.registry():
        for run in check.runs:
            assert check.name in [name for name, _ in RUN_RECORDS.get(run, ())], (check.name, run)


def test_geometry_default_passes(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "--no-timestamp", "geometry"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert "frame identity" in out
    assert (tmp_path / "geometry.csv").exists()


def test_config_rejects_equal_radii(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("torus:\n  a: 2.0\n  c: 2.0\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "geometry"]) == 2
    assert "c != a" in capsys.readouterr().err


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("taurus:\n  a: 0.5\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "geometry"]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("text, path", [
    ('"--negative-control": true\n', "--negative-control"),
    ('"torus.a": 0.7\n', "torus.a"),
    ('"outputs.csv": true\n', "outputs.csv"),
])
def test_config_reads_settings_only_at_their_yaml_paths(tmp_path, text, path):
    # the flag and the dotted keys of cli.SCHEMA are not YAML keys themselves
    cfg = tmp_path / "flat.yaml"
    cfg.write_text(text)
    with pytest.raises(ConfigError) as exc:
        cli.load_config(cfg)
    assert str(exc.value) == f"unknown config key: {path}"


def test_config_rejects_empty_outputs(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("outputs: []\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"]) == 2
    assert "outputs" in capsys.readouterr().err


def test_config_error_names_a_field_key_once(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("field: {C2: [1, 2]}\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: field.C2: expected a finite complex number, got [1, 2]")


@pytest.mark.parametrize("text, command, message", [
    # a run is told what it does not read before any value is judged
    ("quantum: {e: 0}\n", "geometry", "geometry does not read quantum.e; leave it at 1.0"),
    ("analytic: {alpha: 1.0e+200}\n", "geometry",
     "geometry does not read analytic.alpha; leave it at 1.0"),
    # a run that reads the charge names it
    ("quantum: {e: 0}\n", "spectrum", "quantum.e=0: gauge family 'quadratic_au' needs e != 0"),
    ("quantum: {e: 0}\n", "sweep alpha 1.0",
     "quantum.e=0: gauge family 'quadratic_au' needs e != 0"),
], ids=["e-geometry", "alpha-geometry", "e-spectrum", "e-sweep"])
def test_config_checks_the_reads_before_the_values(tmp_path, capsys, text, command, message):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out), *command.split()]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, command", [
    ("taurus: {a: 0.5}\n", "verify"),
    ("", "sweep a -- -1,2"),
], ids=["config", "sweep-values"])
def test_a_rejected_run_creates_no_directory(tmp_path, capsys, text, command):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    out = tmp_path / "new"
    assert cli.main(["--config", str(cfg), "--out", str(out), *command.split()]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_a_run_that_fails_after_its_first_table_writes_nothing(tmp_path, capsys):
    # the ring radius c + a cos x vanishes at a grid angle; the eigenvalue table
    # is built before the coefficient table finds that out
    cfg = tmp_path / "ring.yaml"
    cfg.write_text(yaml.safe_dump({"torus": {"a": 2.0, "c": 1.4142135623730951},
                                   "outputs": ["report", "csv", "coefficients"]}))
    out = tmp_path / "new"
    with pytest.warns(UserWarning, match="c <= a"):
        code = cli.main(["--config", str(cfg), "--out", str(out), "--no-timestamp",
                         "spectrum"])
    assert code == 1
    assert capsys.readouterr().err == "error: ring radius vanishes on the grid\n"
    assert not out.exists()


def test_an_out_that_is_a_file_is_rejected_before_any_work(tmp_path, capsys, monkeypatch):
    target = tmp_path / "afile"
    target.write_text("keep\n")
    monkeypatch.setattr(cli, "cmd_geometry", lambda *args: pytest.fail("geometry ran"))
    # the file itself, and a directory that would have to be made below it
    for out in (target, target / "sub"):
        assert cli.main(["--out", str(out), "geometry"]) == 2, out
        err = capsys.readouterr().err
        assert err.startswith("config error: --out ") and err.count("\n") == 1
        assert target.read_text() == "keep\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_a_file_that_cannot_be_written_is_a_one_line_error(tmp_path, capsys):
    (tmp_path / "geometry.csv").mkdir()
    assert cli.main(["--out", str(tmp_path), "--no-timestamp", "geometry"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "geometry.csv" in err and err.count("\n") == 1


def test_verify_fails_a_measurement_that_is_not_finite(tmp_path, capsys, monkeypatch):
    # an INFO check that measures NaN gates the run; both reports are still written
    monkeypatch.setattr(checks, "morse_truncation_gap", lambda: float("nan"))
    assert cli.main(["--out", str(tmp_path), "--no-timestamp", "verify"]) == 1
    assert "overall: FAIL" in (tmp_path / "verify_report.txt").read_text()
    report = json.loads((tmp_path / "verify_report.json").read_text())
    record = next(r for r in report["records"] if "truncation gap" in r["name"])
    assert (record["value"], record["gating"], record["passed"]) == (None, True, False)
    assert report["ok"] is False
    assert "FAIL morse chain: quadratic-expansion truncation gap" in capsys.readouterr().out


def _scipy_modules(code, cwd, *args):
    """Run `code` in a fresh interpreter; its lines that start with "scipy:" as lists."""
    r = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                       cwd=cwd)
    assert r.returncode == 0, r.stderr
    return [line.split(":", 1)[1].split() for line in r.stdout.splitlines()
            if line.startswith("scipy:")]


def test_import_and_config_load_no_scipy(tmp_path):
    # scipy.linalg is most of a cold start's import time; only a solve may load it
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(DEFAULTS, sort_keys=True))
    code = ("import sys, torusdirac\n"
            "from torusdirac import cli\n"
            "cli.load_config(sys.argv[1])\n"
            "print('scipy:', *(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    assert _scipy_modules(code, tmp_path, str(scenario)) == [[]]


def test_runs_that_solve_nothing_leave_scipy_linalg_unloaded(tmp_path):
    code = ("import sys\n"
            "from torusdirac import cli\n"
            "def loaded():\n"
            "    return [m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules]\n"
            "for argv in (['geometry'], ['analytic'], ['sweep', 'alpha', '0.5:2.5:20'],\n"
            "             ['spectrum']):\n"
            "    assert cli.main(['--out', 'out', '--no-timestamp', *argv]) == 0, argv\n"
            "    print('scipy:', *loaded())\n")
    assert _scipy_modules(code, tmp_path) == [[], [], [], ["scipy.linalg"]]


def test_spectrum_writes_table_and_complex_hint(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "--no-timestamp", "spectrum"])
    err = capsys.readouterr().err
    assert code == 0, err
    table = (tmp_path / "spectrum_constant_vf.csv").read_text().splitlines()
    assert table[0] == "n,lambda,residual"
    assert len(table) == 7
    cfg = tmp_path / "complex.yaml"
    cfg.write_text('field:\n  C2: "0.2j"\n')
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"]) == 1
    assert "verify" in capsys.readouterr().err


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs for 2 BLAS threads")
def test_spectrum_csv_does_not_depend_on_blas_threads(tmp_path):
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        r = subprocess.run(BASE + ["--out", str(out), "--no-timestamp", "spectrum"],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        tables.append((out / "spectrum_constant_vf.csv").read_bytes())
    assert tables[0] == tables[1]


def test_verify_passes_and_negative_control_fails(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "--no-timestamp", "verify"])
    out, err = capsys.readouterr()
    assert code == 0, out + err
    assert "overall: PASS" in out
    report = (tmp_path / "verify_report.txt").read_text()
    assert "known discrepancy" in report
    code = cli.main(["--out", str(tmp_path), "--no-timestamp", "--negative-control", "verify"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_csv_determinism(tmp_path, capsys):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    cfg = tmp_path / "pdfv.yaml"
    cfg.write_text("case: pdfv\nfermi: {kind: cosine}\n")
    for d in (d1, d2):
        d.mkdir()
        code = cli.main(["--out", str(d), "--no-timestamp", "analytic"])
        assert code == 0, capsys.readouterr().err
        # each pdfv level comes from Rayleigh-quotient iteration on its Dirichlet sine mode
        assert cli.main(["--config", str(cfg), "--out", str(d), "--no-timestamp",
                         "spectrum"]) == 0
    for name in ("case1_spectrum.csv", "case2_spectrum.csv", "case2_wavefunctions.csv",
                 "spectrum_pdfv.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_spectrum_residual_gate_is_floored_at_the_rounding_of_t_v(tmp_path, capsys):
    # at n = 32768 the periodic solve stops at its rounding floor, a residual of
    # 1.55e-8; a fixed 1e-8 gate failed it, the floor 4 eps |T|_inf is 9.7e-8
    args = ["--out", str(tmp_path), "--no-timestamp", "--grid-n", "32768", "spectrum"]
    assert cli.main(args) == 0
    line = next(s for s in capsys.readouterr().out.splitlines() if "eigenpair residual" in s)
    assert line.startswith("PASS") and "tol=1e-08" not in line
    assert cli.main(args[:-3] + ["spectrum"]) == 0
    assert "tol=1e-08" in capsys.readouterr().out  # the default grid keeps 1e-8


@pytest.mark.parametrize("text", ["field: {C2: 1194.0}\n", "torus: {c: 955.0}\n"],
                         ids=["C2", "c"])
def test_spectrum_solves_large_levels_to_the_gate(tmp_path, capsys, text):
    # the solve stopped at 1e-9 max(1, max |lambda|), looser than the gate's 1e-8 once
    # the levels pass 10: a converged solve was reported "FAIL eigenpair residual max"
    cfg = tmp_path / "big.yaml"
    cfg.write_text(text)
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "--no-timestamp",
                     "spectrum"]) == 0
    assert "PASS eigenpair residual max" in capsys.readouterr().out


def test_spectrum_residual_gate_fails_above_the_floor(tmp_path, monkeypatch, capsys):
    solve = cli.numerics.eig_sym_tridiag

    def above_floor(m, k, *args, **kwargs):
        res = solve(m, k, *args, **kwargs)
        if m.n == 32768:  # the table's solve, not the Hill-order check's (n <= 2048)
            row_sum = np.max(np.abs(m.diag)) + 2.0 * abs(m.corner)
            res.residuals[0] = 1.01 * 4.0 * np.finfo(float).eps * row_sum
        return res

    monkeypatch.setattr(cli.numerics, "eig_sym_tridiag", above_floor)
    assert cli.main(["--out", str(tmp_path), "--no-timestamp", "--grid-n", "32768",
                     "spectrum"]) == 1
    assert "FAIL eigenpair residual max" in capsys.readouterr().out


def test_sweep_tracks_constraint_and_rejects_bad_input(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "--no-timestamp", "sweep", "a", "0.1:0.9:5"])
    assert code == 0, capsys.readouterr().err
    lines = (tmp_path / "sweep_a.csv").read_text().splitlines()
    assert len(lines) == 6
    header = lines[0].split(",")
    icon = header.index("c_constraint")
    ic2 = header.index("C2_constraint_im")
    import numpy as np
    for row in lines[1:]:
        vals = [float(tok) for tok in row.split(",")]
        a = vals[0]
        assert vals[icon] == pytest.approx(0.5 * a ** 2 / np.sqrt(1 - a), rel=1e-12)
        assert vals[ic2] == pytest.approx(np.sqrt(1 - a) / a ** 4, rel=1e-12)
    assert cli.main(["--out", str(tmp_path), "sweep", "a", ""]) == 2
    assert cli.main(["--out", str(tmp_path), "sweep", "a", "0.1:0.9:0"]) == 2


def test_sweep_single_point_consistent_with_analytic(tmp_path):
    assert cli.main(["--out", str(tmp_path), "--no-timestamp", "sweep", "alpha", "1.0"]) == 0
    row = (tmp_path / "sweep_alpha.csv").read_text().splitlines()[1].split(",")
    # eps columns at alpha=1, C1=0 are n + 1/2
    assert float(row[1]) == pytest.approx(0.5, abs=1e-10)
    assert float(row[3]) == pytest.approx(1.5, abs=1e-10)


def test_spectrum_coefficient_export(tmp_path, capsys):
    cfg = tmp_path / "coef.yaml"
    cfg.write_text("outputs: [report, csv, coefficients]\n")
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path), "--no-timestamp",
                     "spectrum"])
    assert code == 0, capsys.readouterr().err
    lines = (tmp_path / "sl_coefficients_plus.csv").read_text().splitlines()
    assert lines[0] == "x,re_sigma,im_sigma,re_rho,im_rho"
    assert len(lines) == 1025


def test_timestamp_toggle(tmp_path):
    d1, d2 = tmp_path / "ts", tmp_path / "nots"
    d1.mkdir(), d2.mkdir()
    assert cli.main(["--out", str(d1), "geometry"]) == 0
    assert cli.main(["--out", str(d2), "--no-timestamp", "geometry"]) == 0
    assert (d1 / "geometry.csv").read_text().startswith("# written ")
    assert (d2 / "geometry.csv").read_text().startswith("x,")


def test_verify_leaves_warning_filters_alone(tmp_path):
    before = list(warnings.filters)
    assert cli.main(["--out", str(tmp_path), "--no-timestamp", "verify"]) == 0
    assert warnings.filters == before
    with warnings.catch_warnings(record=True) as caught:
        geometry.TorusParams(a=2.0, c=1.0)
    assert any(issubclass(w.category, UserWarning) and "c <= a" in str(w.message)
               for w in caught)


def test_load_config_does_not_share_default_state(tmp_path):
    pristine = copy.deepcopy(cli.SCHEMA)
    cfg = cli.load_config(None)
    cfg.outputs.append("coefficients")
    user = tmp_path / "user.yaml"
    user.write_text("torus:\n  c: 3.0\n")
    cfg_yaml = cli.load_config(user)
    cfg_yaml.outputs.append("coefficients")
    fresh = cli.load_config(None)
    assert cli.SCHEMA == pristine
    assert fresh.torus.a == 0.5 and fresh.alpha == 1.0 and fresh.C1 == 0.0
    assert fresh.outputs == ["report", "csv"]


@pytest.mark.parametrize("text, command", [
    ("outputs: [csv, bogus]\n", "spectrum"),
    ("quantum: {Delta: 3.0}\n", "geometry"),
    ("field: {kind: zero}\n", "spectrum"),
    ("field: {kind: linear_au}\n", "spectrum"),
    # the periodic grid replaced a Dirichlet one without a word
    ("grid: {boundary: dirichlet}\n", "spectrum"),
    # the Mathieu form assumes C3 = -k/(a e), so an explicit C3 left the spectrum unchanged
    ("field: {C3: 5.0}\n", "spectrum"),
    # no output reads the Fermi-velocity scale
    ("fermi: {v_f: 2.0}\n", "spectrum"),
    ("fermi: {v_f: 2.0}\n", "analytic"),
    # only the constant_vf spectrum samples the configured grid
    *[(text, flags + command)
      for command in ("geometry", "verify", "analytic", "sweep alpha 1.0")
      for text, flags in (("grid: {n: 64}\n", ""), ("", "--grid-n 64 "))],
    # the box benchmark is a `verify` check; `spectrum` has no such output
    ("outputs: [csv, box_selftest]\n", "spectrum"),
])
def test_config_rejects_inputs_that_do_nothing(tmp_path, capsys, text, command):
    cfg = tmp_path / "noop.yaml"
    cfg.write_text(text)
    argv = ["--config", str(cfg), "--out", str(tmp_path), *command.split()]
    assert cli.main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_config_accepts_zero_delta(tmp_path):
    cfg = tmp_path / "delta.yaml"
    cfg.write_text("quantum: {Delta: 0.0}\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "geometry"]) == 0


@pytest.mark.parametrize("parameter", ["k", "a2", "C2", "c"])
def test_sweep_rejects_parameters_that_change_nothing(tmp_path, parameter):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), "sweep", parameter, "1,2"])
    assert exc.value.code == 2


def test_sweep_keeps_list_order_and_counts_unbound_cells():
    rep, files = cli.cmd_sweep(cli.load_config(None), "alpha", [2.0, 1.0, 1.5])
    rows = files["sweep_alpha.csv"].splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [2.0, 1.0, 1.5]
    # level 0 is unbound above alpha = sqrt(2): NaN at alpha = 2 and 1.5
    unbound = {r.name: r.value for r in rep.records}["unbound cells (NaN)"]
    assert unbound == 2


def _reference_sweep_row(value, point):
    """A sweep row built cell by cell: the plain-Python closed form for each level."""
    a, e = point["a"], point["e"]
    row = [value]
    for n in range(4):
        level = _case2_level_reference(n, point["alpha"], point["C1"])
        row.extend([float("nan")] * 2 if level is None else [level[0], level[2]])
    c2_constraint, c_constraint = pseudoherm.factorization_constants(a, e)
    row.extend([c2_constraint.real, c2_constraint.imag,
                c_constraint.real if a < 1 else float("nan")])
    return tuple(row)


@pytest.mark.parametrize("parameter, values", [
    ("alpha", "0.5:2.5:200"),
    ("a", "0.1:1.9:37"),  # crosses a = 1, where c diverges and C2 turns real
    ("e", "-2,-1,0.5,2"),
    ("C1", "-3,0,5,1e7,-0.25,1e-300"),
    # disc rounds below 0 (an imaginary beta)
    ("C1", "1e16,3.6068034017008504e16,1e17,1e300"),
])
def test_sweep_csv_matches_the_per_row_reference(parameter, values):
    cfg = cli.load_config(None)
    values = cli._parse_range(values)
    rep, files = cli.cmd_sweep(cfg, parameter, values)
    rows = [_reference_sweep_row(v, cli._sweep_point(cfg, parameter, v)) for v in values]
    header = ([parameter] + [f"{col}{n}" for n in range(4) for col in ("eps", "resid")]
              + ["C2_constraint_re", "C2_constraint_im", "c_constraint"])
    assert files == {f"sweep_{parameter}.csv": cli.csv_text(header, list(zip(*rows)))}
    unbound = {r.name: r.value for r in rep.records}["unbound cells (NaN)"]
    assert unbound == sum(np.isnan(row[1 + 2 * n]) for row in rows for n in range(4))


# sha256 of the case-2 tables with the default config, pinned when the sweep and the
# scalar quantizer became one closed form; any change to these bytes must be deliberate
CASE2_TABLE_DIGESTS = {
    "analytic": {
        "case2_spectrum.csv": "f22fd91b69ac49b2ffbd7c8a7dd3e852dfbabd49604733468d616da088ec6a98",
        "case2_wavefunctions.csv":
            "dcdb409ee776634620750c1b7b7a790e180a5225e276b165586f683d214cbf32",
    },
    "sweep alpha 0.5:2.5:200": {
        "sweep_alpha.csv": "756336bdd9112eeed4b0134491dd42ffe3fd2280151820ffc04304a436274d47",
    },
    # crosses C1 of about 1e16, past which disc rounds below 0
    "sweep C1 -- -1:1e17:41": {
        "sweep_C1.csv": "ba2256151416025b85280a774d745801525239d78ebc4076305afa119ad84706",
    },
}


@pytest.mark.parametrize("command", CASE2_TABLE_DIGESTS)
def test_case2_tables_keep_their_bytes(tmp_path, command):
    assert cli.main(["--out", str(tmp_path), "--no-timestamp", *command.split()]) == 0
    for name, digest in CASE2_TABLE_DIGESTS[command].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of the tables outside CASE2_TABLE_DIGESTS that hold closed forms alone, pinned
# when the CSV writer took columns: command -> (scenario file, table, digest).  The
# `spectrum` tables themselves carry LAPACK and Rayleigh-quotient bits and are not pinned
CLOSED_FORM_TABLE_DIGESTS = {
    "geometry": ("", "geometry.csv",
                 "d76919ff674987dd7ad01c6df7906fa382cc2d4477e187f36c0a646ec32ff66d"),
    "analytic": ("", "case1_spectrum.csv",
                 "70f55ba49d10de8941686f100d94ed3db1cdd6671338d4c990f0eb429c308505"),
    "spectrum": ("outputs: [report, csv, coefficients]\n", "sl_coefficients_plus.csv",
                 "b6e968d792287161441b4d3034c17b69293f1a71bc524c09da7ec17e9b68c341"),
}


@pytest.mark.parametrize("command", CLOSED_FORM_TABLE_DIGESTS)
def test_closed_form_tables_keep_their_bytes(tmp_path, command):
    text, name, digest = CLOSED_FORM_TABLE_DIGESTS[command]
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(text)
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "--no-timestamp",
                     command]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("parameter, values", [
    ("C1", "-1:1e17:41"), ("e", "-2,-1,0.5,2"), ("alpha", "-.5:2:3"),
])
def test_sweep_reads_a_value_list_that_starts_with_a_minus_sign(tmp_path, capsys, parameter,
                                                                values):
    # argparse took such a list for an unknown option: "the following arguments
    # are required: values", exit 2; `--` before it still works and gives the same table
    for where, args in (("plain", [values]), ("dashes", ["--", values])):
        assert cli.main(["--out", str(tmp_path / where), "--no-timestamp", "sweep",
                         parameter, *args]) == 0, capsys.readouterr().err
    name = f"sweep_{parameter}.csv"
    assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "dashes" / name).read_bytes()


@pytest.mark.parametrize("parameter, values", [
    ("a", "0,0.5"), ("e", "0,1"), ("a", "nan"), ("alpha", "nan"), ("alpha", "abc"),
    ("C1", "1e300,1e308"), ("alpha", "-inf"), ("e", "-NaN,1"),
    ("a", "0.5,1e200"), ("a", "1e-100"), ("e", "5e-324"),
])
def test_sweep_rejects_values_no_row_can_use(tmp_path, capsys, parameter, values):
    # a = 0, e = 0, a C1 whose 4 C1 overflows eps_n^2 to inf, an a whose a^4 overflows,
    # an a^4 e that rounds to 0 in the C2 constraint sqrt(a-1)/(a^4 e), and non-finite
    # or unreadable values cannot build a row; no row may be written either
    assert cli.main(["--out", str(tmp_path), "sweep", parameter, values]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / f"sweep_{parameter}.csv").exists()


@pytest.mark.parametrize("text, flags", [
    ("field: {kind: zero}\n", []),
    ("grid: {n: 64}\n", []),
    ("", ["--grid-n", "64"]),
])
def test_pdfv_spectrum_rejects_field_and_grid_it_ignores(tmp_path, capsys, text, flags):
    cfg = tmp_path / "pdfv.yaml"
    cfg.write_text("case: pdfv\nfermi: {kind: cosine}\n" + text)
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), *flags, "spectrum"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "spectrum_pdfv.csv").exists()


@pytest.mark.parametrize("text, key", [
    # level 3's effective potential squares alpha (n + 1/2) (c + a) = 8.75e154: inf samples
    ("analytic: {alpha: 1.0e+154}\n", "analytic.alpha"),
    # the 8000 grid rows hold the levels 0..7999; level 8000 was asked for last
    ("analytic: {n_max: 8000}\n", "analytic.n_max"),
], ids=["alpha", "n_max"])
def test_pdfv_spectrum_rejects_levels_it_cannot_solve(tmp_path, capsys, text, key):
    cfg = tmp_path / "pdfv.yaml"
    cfg.write_text("case: pdfv\nfermi: {kind: cosine}\n" + text)
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}=")
    assert not (tmp_path / "spectrum_pdfv.csv").exists()


@pytest.mark.parametrize("text, flags, command, key", [
    # int(1e300) points: numpy cannot allocate the grid
    ("grid: {n: 1.0e+300}\n", [], "spectrum", "grid.n"),
    # 2**20 points: the rounding floor 4 eps |T|_inf of the residual gate passes 1e-6
    ("", ["--grid-n", "1048576"], "spectrum", "grid.n"),
    # 20001 levels in each table: the bound holds for every run that reads n_max
    ("analytic: {n_max: 20000}\n", [], "analytic", "analytic.n_max"),
], ids=["grid-n-huge", "grid-n-flag", "n_max-analytic"])
def test_config_bounds_the_size_keys(tmp_path, capsys, text, flags, command, key):
    cfg = tmp_path / "size.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out), *flags, command]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}=")
    assert not out.exists()


def test_config_size_bounds_sit_at_their_limits():
    assert cli.load_config(grid_n=2 ** 19).grid.n == 2 ** 19
    with pytest.raises(ConfigError, match="grid.n"):
        cli.load_config(grid_n=2 ** 19 + 1)
    settings = cli._settings({"analytic": {"n_max": 7999}})
    assert cli._build_config(settings).n_max == 7999
    settings["analytic.n_max"] = 8000
    with pytest.raises(ConfigError, match="analytic.n_max"):
        cli._build_config(settings)


# Inputs whose arithmetic overflows (or underflows to a zero divisor) in the run, with
# the key that the config error must name
OVERFLOWS = [
    # a^2 in the metric
    ("torus: {a: 1.0e+300}\n", "geometry", "torus.a"),
    # a^6, c^2 and e^2 in the Mathieu form; C2^2 in its coefficients
    ("torus: {a: 1.0e+300}\n", "spectrum", "torus.a"),
    ("torus: {c: 1.0e+300}\n", "spectrum", "torus.c"),
    ("quantum: {e: 1.0e+300}\n", "spectrum", "quantum.e"),
    ("field: {C2: 1.0e+200}\n", "spectrum", "field.C2"),
    # finite samples whose sum, which the periodic eigensolve's DFT reaches, overflows
    ("field: {C2: 1.0e+153}\n", "spectrum", "field.C2"),
    # a^4 in the C2 constraint sqrt(a-1)/(a^4 e), and a^4 rounding to 0
    ("torus: {a: 1.0e+300}\n", "sweep alpha 1.0", "torus.a"),
    ("torus: {a: 1.0e-100}\n", "sweep alpha 1.0", "torus.a"),
    ("torus: {a: 1.0e-100}\n", "analytic", "torus.a"),
    # an integer beyond the largest double, in a key that no run reads
    (f"quantum: {{k: {10 ** 400}}}\n", "spectrum", "quantum.k"),
    # R(x)^2 in the metric: the frame identity measured inf - inf
    ("torus: {c: 1.0e+155}\n", "geometry", "torus.c"),
    # finite samples whose eigenpair residuals' squared norms overflow
    ("field: {C2: 1.0e+100}\n", "spectrum", "field.C2"),
    ("quantum: {e: 1.0e+140}\n", "spectrum", "quantum.e"),
    ("torus: {a: 1.0e+40}\n", "spectrum", "torus.a"),
]
OVERFLOW_IDS = ["a-geometry", "a-spectrum", "c-spectrum", "e-spectrum", "C2-spectrum",
                "C2-dft-spectrum", "a-sweep", "a-underflow-sweep", "a-underflow-analytic",
                "k-beyond-double", "c-geometry", "C2-residual-spectrum",
                "e-residual-spectrum", "a-residual-spectrum"]


@pytest.mark.parametrize("text, command, key", OVERFLOWS, ids=OVERFLOW_IDS)
def test_config_error_names_the_key_that_overflows(tmp_path, capsys, text, command, key):
    cfg = tmp_path / "big.yaml"
    cfg.write_text(text)
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), *command.split()]) == 2
    assert key in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


# Each run with the scenario it starts from, under the name by which SCHEMA lists its reads
SCAN_RUNS = [
    ("geometry", "geometry", {}),
    (cli._SPECTRUM, "spectrum", {}),
    (cli._PDFV, "spectrum", {"case": "pdfv", "fermi": {"kind": "cosine"}}),
    ("analytic", "analytic", {}),
    *[("sweep", f"sweep {parameter} 0.5", {}) for parameter in cli.SWEEPABLE],
]
SCAN_VALUES = [sign * 10.0 ** exponent for exponent in (-300, -100, 200, 300) for sign in (1, -1)]


def test_every_number_a_run_reads_is_used_or_rejected_by_name(tmp_path, capsys):
    problems = []
    for reader, command, scenario in SCAN_RUNS:
        words = command.split()
        swept = cli.SWEEPABLE.get(words[1]) if words[0] == "sweep" else None
        keys = [key for key, (_, kind, readers) in cli.SCHEMA.items()
                if kind in ("real", "integer", "complex") and reader in readers
                and key != swept]
        for key in keys + ([f"sweep {words[1]}"] if swept else []):
            for value in SCAN_VALUES:
                out = tmp_path / f"{command}-{key}-{value!r}".replace(" ", "_")
                out.mkdir()
                doc, args = copy.deepcopy(scenario), list(words)
                if swept and key.startswith("sweep"):
                    args[-1] = repr(value)
                else:
                    section, leaf = key.split(".")
                    doc.setdefault(section, {})[leaf] = value
                cfg = tmp_path / "scan.yaml"
                cfg.write_text(yaml.safe_dump(doc))
                run = f"{command} with {key}={value!r}"
                try:
                    code = cli.main(["--config", str(cfg), "--out", str(out),
                                     "--no-timestamp", *args])
                except Exception as exc:
                    problems.append(f"{run}: {type(exc).__name__}: {exc}")
                    continue
                err = capsys.readouterr().err
                if code == 2 and key not in err:
                    problems.append(f"{run}: the error does not name the key: {err}")
                if code == 2 and list(out.iterdir()):
                    problems.append(f"{run}: a rejected run wrote files")
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("text, command", [
    ("quantum: {e: abc}\n", "analytic"),
    ("analytic: {alpha: abc}\n", "analytic"),
    ("grid: {n: abc}\n", "spectrum"),
    ("field: {C2: abc}\n", "spectrum"),
    ("fermi: {v_f: -1.0}\n", "geometry"),
    # int() used to truncate these silently
    ("quantum: {k: 1.5}\n", "geometry"),
    ("analytic: {n_max: 2.7}\n", "analytic"),
    ("analytic: {n_max: -1}\n", "analytic"),
    # non-finite radii pass every ordering comparison
    ("torus: {a: .nan}\n", "spectrum"),
    ("torus: {a: .inf}\n", "geometry"),
    ("quantum: {e: .inf}\n", "geometry"),
    # analytic used to swap a >= 1 for 0.5 in the Morse chain without a word
    ("torus: {a: 1.5}\n", "analytic"),
    # a quoted number stays a string
    ("quantum: {e: '1e7'}\n", "analytic"),
    ("analytic: {C1: '1.0e+7'}\n", "analytic"),
    # 4 C1 overflows: eps_n^2 was written as inf, then 2F1 raised ValueError on NaN
    ("analytic: {C1: 1.0e+308}\n", "analytic"),
    ("analytic: {C1: 1.0e+308}\n", "sweep alpha 1.0"),
    *[(text, command) for text, command, _ in OVERFLOWS],
], ids=["e-abc", "alpha-abc", "n-abc", "C2-abc", "v_f-negative", "k-1.5", "n_max-2.7",
        "n_max-negative", "a-nan", "a-inf", "e-inf", "a-1.5-analytic", "e-quoted",
        "C1-quoted", "C1-overflow-analytic", "C1-overflow-sweep",
        *(f"{name}-overflow" for name in OVERFLOW_IDS)])
def test_config_rejects_values_of_the_wrong_kind(tmp_path, capsys, text, command):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), *command.split()]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("exponent, plain, command", [
    ("analytic: {C1: 1e7}\n", "analytic: {C1: 1.0e+7}\n", "analytic"),
    ("analytic: {C1: 1.0e7}\n", "analytic: {C1: 1.0e+7}\n", "analytic"),
    ("analytic: {C1: -2E-1}\n", "analytic: {C1: -0.2}\n", "analytic"),
    ("analytic: {alpha: 5e-1}\n", "analytic: {alpha: 0.5}\n", "analytic"),
    ("torus: {a: .6e0}\n", "torus: {a: 0.6}\n", "geometry"),
    ("grid: {n: 5.12e2}\n", "grid: {n: 512}\n", "spectrum"),
], ids=["1e7", "1.0e7", "-2E-1", "5e-1", ".6e0", "5.12e2"])
def test_config_reads_numbers_in_exponent_form(tmp_path, capsys, exponent, plain, command):
    # YAML 1.1 reads a float only with a dot and a signed exponent
    runs = []
    for name, text in (("exponent", exponent), ("plain", plain)):
        out = tmp_path / name
        out.mkdir()
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(text)
        code = cli.main(["--config", str(cfg), "--out", str(out), "--no-timestamp", command])
        runs.append((code, capsys.readouterr(), {p.name: p.read_bytes() for p in out.iterdir()}))
    assert runs[0][0] == 0, runs[0][1].err
    assert runs[0] == runs[1]


def test_config_loader_keeps_integers_and_strings():
    docs = {"1024": 1024, "1e7": 1e7, "-2E3": -2000.0, "5e-1": 0.5, "auto": "auto",
            "'1e7'": "1e7", "abc": "abc", "e7": "e7", "1e": "1e"}
    for text, want in docs.items():
        got = yaml.load(f"v: {text}", Loader=cli._ConfigLoader)["v"]
        assert got == want and type(got) is type(want), text


def test_readme_config_docs_match_the_schema():
    # README's scenario block and run table, against the defaults and readers of SCHEMA
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Scenario file\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert yaml.load(block, Loader=cli._ConfigLoader) == DEFAULTS
    table = {run: set(re.findall(r"`([^`]+)`", cells))
             for run, cells in re.findall(r"^\| `([^`]+)` \| (.+) \|$", section, re.M)}
    reads = {}
    for key, (_, _, readers) in cli.SCHEMA.items():
        for run in readers:
            reads.setdefault(run, set()).add(key)
    assert table == reads


def test_config_rejects_malformed_yaml(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("torus: {a: 0.5, c: [2.0\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "geometry"]) == 2
    assert "not valid YAML" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["geometry", "analytic", "sweep alpha 1.0"])
def test_config_accepts_explicit_defaults(tmp_path, command):
    # scenario files spell out the grid and the Fermi velocity at their defaults
    cfg = tmp_path / "defaults.yaml"
    cfg.write_text("grid: {n: 1024, boundary: periodic}\nfermi: {kind: constant, v_f: 1.0}\n")
    argv = ["--config", str(cfg), "--out", str(tmp_path), "--grid-n", "1024", *command.split()]
    assert cli.main(argv) == 0


# Every config key and flag, with a valid value other than its default.
CHANGED = {
    "torus.a": 0.6, "torus.c": 2.5, "field.kind": "hermitizing_quadratic", "field.C2": 0.3,
    "field.C3": 5.0, "field.a2": 0.3, "fermi.kind": "cosine", "fermi.v_f": 2.0,
    "quantum.k": 2, "quantum.e": 1.5, "quantum.Delta": 3.0, "grid.n": 256,
    "grid.boundary": "dirichlet", "analytic.alpha": 1.2, "analytic.C1": 0.5,
    "analytic.n_max": 2, "case": "pdfv", "outputs.report": False, "outputs.csv": False,
    "outputs.coefficients": True,
    "--grid-n": 256, "--negative-control": True,
}
SWEPT = {"torus.a", "quantum.e", "analytic.alpha", "analytic.C1"}
# run -> (arguments, settings it starts from, the keys and flags whose value it reads)
RUNS = {
    "geometry": ("geometry", {}, {"torus.a", "torus.c", "outputs.csv"}),
    # field.kind changes only the coefficient table; both ring fields cancel quantum.k
    "spectrum": ("spectrum", {"outputs.coefficients": True},
                 {"torus.a", "torus.c", "field.kind", "field.C2", "quantum.e", "grid.n",
                  "--grid-n", "case", "outputs.csv", "outputs.coefficients"}),
    "spectrum csv": ("spectrum", {},
                     {"torus.a", "torus.c", "field.C2", "quantum.e", "grid.n", "--grid-n",
                      "case", "outputs.csv", "outputs.coefficients"}),
    "spectrum pdfv": ("spectrum", {"case": "pdfv", "fermi.kind": "cosine"},
                      {"case", "fermi.kind", "analytic.alpha", "analytic.n_max",
                       "outputs.csv"}),
    "verify": ("verify", {}, {"outputs.report", "--negative-control"}),
    "analytic": ("analytic", {}, {"torus.a", "analytic.alpha", "analytic.C1", "analytic.n_max"}),
    "sweep a": ("sweep a 0.5", {}, SWEPT - {"torus.a"}),
    "sweep e": ("sweep e 1.0", {}, SWEPT - {"quantum.e"}),
    "sweep alpha": ("sweep alpha 1.0", {}, SWEPT - {"analytic.alpha"}),
    "sweep C1": ("sweep C1 0.0", {}, SWEPT - {"analytic.C1"}),
}


def _run_with(tmp_path, capsys, run, key=None):
    """Run `run` with `key` changed (back to its default when the run sets it).

    Returns (exit code, stdout, stderr, {file name: bytes written}).
    """
    command, base, _ = RUNS[run]
    settings = dict(base)
    if key in base:
        del settings[key]
    elif key is not None:
        settings[key] = CHANGED[key]
    scenario, flags = {}, []
    outputs = {entry: entry in DEFAULTS["outputs"] for entry in cli.OUTPUTS}
    for name, value in settings.items():
        if name.startswith("--"):
            flags += [name] + ([] if value is True else [str(value)])
        elif name.startswith("outputs."):
            outputs[name.partition(".")[2]] = value
        else:
            *sections, leaf = name.split(".")
            node = scenario
            for section in sections:
                node = node.setdefault(section, {})
            node[leaf] = value
    scenario["outputs"] = [entry for entry, listed in outputs.items() if listed]
    out = tmp_path / f"{run}-{key}".replace(" ", "_")
    out.mkdir()
    cfg = out / "scenario.yaml"
    cfg.write_text(yaml.safe_dump(scenario))
    code = cli.main(["--config", str(cfg), "--out", str(out), "--no-timestamp", *flags,
                     *command.split()])
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != cfg.name}
    return code, captured.out, captured.err, files


@pytest.mark.parametrize("run", list(RUNS))
def test_each_run_reads_its_keys_and_rejects_the_rest(tmp_path, capsys, run):
    reads = RUNS[run][2]
    base = _run_with(tmp_path, capsys, run)
    assert base[0] in (0, 1), base[2]
    for key in CHANGED:
        got = _run_with(tmp_path, capsys, run, key)
        if key in reads:
            # some output file, stdout or the exit code changes, and not by the read check
            assert got != base, f"{run} ignores {key}"
            assert f"does not read {key}" not in got[2]
        else:
            code, _, err, files = got
            assert code == 2 and "config error" in err, f"{run} accepts {key}: {err}"
            assert ("grid.n" if key == "--grid-n" else key) in err
            assert not [name for name in files if name.endswith(".csv")]


LEAVES = [(section, key) for section, body in DEFAULTS.items()
          for key in (body if isinstance(body, dict) else [None])]
NAMES = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(chosen=st.sets(st.sampled_from(LEAVES)))
def test_config_spelling_out_defaults_changes_nothing(tmp_path_factory, chosen):
    scenario = {}
    for section, key in chosen:
        default = DEFAULTS[section]
        if key is None:
            scenario[section] = default
        else:
            scenario.setdefault(section, {})[key] = default[key]
    path = tmp_path_factory.mktemp("defaults") / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario))
    assert cli.load_config(path) == cli.load_config(None)


@settings(max_examples=60, deadline=None)
@given(section=st.sampled_from([None] + [s for s, b in DEFAULTS.items()
                                         if isinstance(b, dict)]),
       name=NAMES, below=st.lists(NAMES, max_size=2))
def test_config_names_an_unknown_key_by_its_path(tmp_path_factory, section, name, below):
    known = DEFAULTS if section is None else DEFAULTS[section]
    if name in known:
        name += "_x"
    value = 1
    for inner in reversed(below):
        value = {inner: value}
    scenario = {name: value} if section is None else {section: {name: value}}
    path = tmp_path_factory.mktemp("unknown") / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario))
    with pytest.raises(ConfigError) as exc:
        cli.load_config(path)
    where = name if section is None else f"{section}.{name}"
    assert str(exc.value) == f"unknown config key: {where}"


def _reference_cell(x) -> str:
    """A per-cell reference formatter for real cells, which the row template must match."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


SPECIALS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0]
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(allow_nan=True, allow_infinity=True, width=32).map(np.float32),
    # `%.17g` reads an int as a double: exact up to 2^53
    st.integers(-2 ** 53, 2 ** 53), st.integers(-2 ** 53, 2 ** 53).map(np.int64),
    st.booleans(), st.booleans().map(np.bool_),
    st.sampled_from(SPECIALS).map(np.float64), st.sampled_from(SPECIALS).map(np.float32),
)


@settings(max_examples=100, deadline=None)
@given(width=st.integers(1, 6), data=st.data())
def test_csv_row_template_writes_the_bytes_of_the_per_cell_formatter(width, data):
    rows = data.draw(st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=5))
    header = [f"c{i}" for i in range(width)]
    want = [",".join(header)] + [",".join(_reference_cell(v) for v in row) for row in rows]
    assert cli.csv_text(header, list(zip(*rows))) == "\n".join(want) + "\n"


@pytest.mark.parametrize("cell", [1 + 2j, np.complex128(1 + 2j), np.complex64(1 - 2j),
                                  np.complex128(3.0)])
def test_csv_rejects_a_complex_cell(cell):
    with pytest.raises(TypeError, match="complex"):
        cli.csv_text(["x", "z"], [(0.5,), (cell,)])


@pytest.mark.parametrize("section, command", [
    ("analytic:\n  alpha: 1.0e+200\n", "analytic"),
    ("case: pdfv\nfermi:\n  kind: cosine\nanalytic:\n  alpha: -1.0e+200\n", "spectrum"),
    ("analytic:\n  alpha: 1.0e+200\n", "sweep a 0.5"),
    ("analytic:\n  alpha: 1.0e+160\n", "sweep C1 0"),
])
def test_config_rejects_an_alpha_whose_square_overflows(tmp_path, capsys, section, command):
    cfg = tmp_path / "alpha.yaml"
    cfg.write_text(section)
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out), *command.split()]) == 2
    assert "analytic.alpha" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_over_an_alpha_whose_square_overflows_writes_unbound_rows(tmp_path, capsys):
    # eps_n^2 = -inf: no level is bound, and each row says so
    assert cli.main(["--out", str(tmp_path), "--no-timestamp", "sweep", "alpha",
                     "1.0,1e200"]) == 0
    row = [float(cell) for cell in
           (tmp_path / "sweep_alpha.csv").read_text().splitlines()[2].split(",")]
    assert row[0] == 1e200 and np.all(np.isnan(row[1:9]))
    assert "value=4" in capsys.readouterr().out  # the four unbound cells


def _run_and_capture(run, capsys):
    """(exit code, stdout, stderr) of one in-process run; argparse exits by SystemExit."""
    try:
        code = run()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_in_one_process_matches_fresh_processes(tmp_path, capsys, monkeypatch):
    # the argument parser is built once per process; runs after the first,
    # a rejected one and --help included, still behave as in a fresh process
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    runs = [["--out", "out", "--no-timestamp", "sweep", "alpha", "0.5:2.5:7"],
            ["--out", "out", "--no-timestamp", "geometry"],
            ["--out", "out", "sweep", "k", "1,2"],
            ["--help"]]
    (tmp_path / "once").mkdir()
    (tmp_path / "fresh").mkdir()
    monkeypatch.chdir(tmp_path / "once")
    once = [_run_and_capture(lambda: cli.main(argv), capsys) for argv in runs]
    parser = cli._parser()
    fresh = []
    for argv in runs:
        r = run_cli(*argv, cwd=tmp_path / "fresh")
        fresh.append((r.returncode, r.stdout, r.stderr))
    assert once == fresh
    assert [code for code, _, _ in once] == [0, 0, 2, 0]
    assert cli._parser() is parser
    for name in ("sweep_alpha.csv", "geometry.csv"):
        assert ((tmp_path / "once" / "out" / name).read_bytes()
                == (tmp_path / "fresh" / "out" / name).read_bytes())
