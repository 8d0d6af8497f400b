"""Batch front end: configure a scenario, run computations, emit tables and reports.

Subcommands
-----------
geometry   metric/Christoffel/spin-connection tables and identity checks
spectrum   eigenvalue tables for the real solvable branches
verify     the full certification suite; nonzero exit on any gating failure
sweep      one CSV row of observables per parameter value
analytic   closed-form spectra and wavefunction tables

Config files are YAML; every field has a default (a=0.5, c=2, e=1, k=1,
chosen here since the source fixes no numbers).  Identical configs produce
byte-identical CSV output, modulo an optional timestamp comment that
--no-timestamp suppresses.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import time
# only the benchmark tracer (tdbench/spans.py) reads this; ROADMAP item 1 removes it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import analytic, checks, fields, geometry, numerics, operators, pseudoherm
from .checks import RunReport
from .errors import ChargeZero, ComplexPotential, ConfigError, TorusDiracError
from .grids import Grid

# sweep parameter -> the config key its values replace
SWEEPABLE = {"a": "torus.a", "e": "quantum.e", "alpha": "analytic.alpha", "C1": "analytic.C1"}
OUTPUTS = ("report", "csv", "coefficients")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_SPECTRUM, _PDFV = "spectrum constant_vf", "spectrum pdfv"
_COEFFICIENTS = f"{_SPECTRUM} coefficients"  # the run with `coefficients` in its outputs
# Every setting by dotted key: (default, kind, the runs that read it).  A kind is
# "real", "integer", "complex" or the tuple of allowed values; no run reads a key
# of kind None.  No output of a run depends on a key it does not read, so `main`
# rejects a value other than the default there; a sweep does not read the key
# that its parameter replaces.  Each `outputs` entry is a boolean of its own,
# true when listed; `--grid-n` sets grid.n.
SCHEMA = {
    "torus.a": (0.5, "real", ("geometry", _SPECTRUM, "analytic", "sweep")),
    "torus.c": (2.0, "real", ("geometry", _SPECTRUM)),
    # the Mathieu form of the constant_vf spectrum needs the quadratic ring field, and
    # it ignores A_x: the kind changes only the coefficient table
    "field.kind": ("quadratic_au", ("quadratic_au", "hermitizing_quadratic"),
                   (_COEFFICIENTS,)),
    "field.C2": (0.2, "complex", (_SPECTRUM,)),
    "field.C3": ("auto", None, ()),
    "field.a2": (0.2, None, ()),
    # the position-dependent case is solved for the cosine profile only
    "fermi.kind": ("constant", ("constant", "cosine"), (_PDFV,)),
    "fermi.v_f": (1.0, None, ()),
    # both ring fields cancel k through their constant -k/(a e)
    "quantum.k": (1, None, ()),
    "quantum.e": (1.0, "real", (_SPECTRUM, "sweep")),
    "quantum.Delta": (0.0, None, ()),
    "grid.n": (1024, "integer", (_SPECTRUM,)),
    "grid.boundary": ("periodic", None, ()),
    # the pdfv levels set their own ring field and grid (see checks.pdfv_levels); the
    # Morse chain of `analytic` fixes c = 2, and the charge cancels in its coefficients
    "analytic.alpha": (1.0, "real", (_PDFV, "analytic", "sweep")),
    "analytic.C1": (0.0, "real", ("analytic", "sweep")),
    "analytic.n_max": (3, "integer", (_PDFV, "analytic")),
    "case": ("constant_vf", ("constant_vf", "pdfv"), (_SPECTRUM, _PDFV)),
    "outputs.report": (True, (False, True), ("verify",)),
    "outputs.csv": (True, (False, True), ("geometry", _SPECTRUM, _PDFV)),
    "outputs.coefficients": (False, (False, True), (_SPECTRUM,)),
    "--negative-control": (False, (False, True), ("verify",)),
}
_SECTIONS = {key.partition(".")[0] for key in SCHEMA if "." in key}


@dataclass
class ScenarioConfig:
    torus: geometry.TorusParams
    gauge: fields.GaugeField  # carries quantum.e; k is 1, which the ring fields cancel
    grid: Grid
    case: str
    alpha: float
    C1: float
    n_max: int
    outputs: list


def _value(settings: dict, key: str):
    """settings[key] as its SCHEMA kind; YAML strings and booleans are not numbers."""
    val, kind = settings[key], SCHEMA[key][1]
    if isinstance(kind, tuple):
        if val not in kind:
            raise ConfigError(f"{key}: expected {' or '.join(map(str, kind))}, got {val!r}")
        return val
    if kind == "complex":
        try:
            out = complex(val)
        except (TypeError, ValueError, OverflowError):
            out = None
        if isinstance(val, bool) or out is None or not np.isfinite(out):
            raise ConfigError(f"{key}: expected a finite complex number, got {val!r}")
        return out
    try:
        num = float(val) if isinstance(val, (int, float)) and not isinstance(val, bool) else None
    except OverflowError:  # an integer beyond the largest double
        num = None
    if num is None or not math.isfinite(num):
        raise ConfigError(f"{key}: expected a finite number, got {val!r}")
    if kind == "integer":
        if not num.is_integer():
            raise ConfigError(f"{key}: expected an integer, got {val!r}")
        return int(num)
    return num


def _build_config(settings: dict) -> ScenarioConfig:
    try:
        torus = geometry.TorusParams(a=_value(settings, "torus.a"),
                                     c=_value(settings, "torus.c"))
    except ValueError as exc:
        raise ConfigError(f"torus.a={settings['torus.a']!r}, torus.c={settings['torus.c']!r}: "
                          f"{exc}") from exc

    build = (fields.quadratic_ring_field if _value(settings, "field.kind") == "quadratic_au"
             else fields.hermitizing_quadratic_field)
    c2, e = _value(settings, "field.C2"), _value(settings, "quantum.e")
    try:
        gauge = build(c2, e=e)
    except ChargeZero as exc:
        raise ConfigError(f"quantum.e={settings['quantum.e']!r}: {exc}") from exc

    case = _value(settings, "case")
    if case == "pdfv" and settings["fermi.kind"] != "cosine":
        raise ConfigError(f"case: pdfv requires fermi.kind: cosine, "
                          f"got {settings['fermi.kind']!r}")

    # above 2**19 points the residual gate's rounding floor 4 eps |T|_inf passes
    # the periodic solve's 1e-6 cap
    n = _value(settings, "grid.n")
    if n > 2 ** 19:
        raise ConfigError(f"grid.n={settings['grid.n']!r}: expected at most {2 ** 19} points")
    try:
        grid = Grid(n)
    except ValueError as exc:
        raise ConfigError(f"grid.n: {exc}") from exc

    # the pdfv levels are solved on 8000 grid rows, which hold the levels 0..7999
    n_max = _value(settings, "analytic.n_max")
    if not 0 <= n_max < 8000:
        raise ConfigError(f"analytic.n_max={settings['analytic.n_max']!r}: "
                          f"expected an integer from 0 to 7999")
    return ScenarioConfig(
        torus=torus, gauge=gauge, grid=grid,
        case=case, alpha=_level_alpha(_value(settings, "analytic.alpha")),
        C1=_level_c1(_value(settings, "analytic.C1"), "analytic.C1"), n_max=n_max,
        outputs=[entry for entry in OUTPUTS if settings[f"outputs.{entry}"]],
    )


class _ConfigLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """YAML 1.1 (libyaml when built in) with exponent floats: `1e7`, `5e-1` are numbers."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?([0-9]+(\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def _settings(doc: dict) -> dict:
    """The scenario document's values over SCHEMA's defaults, by dotted key."""
    settings = {key: row[0] for key, row in SCHEMA.items() if not key.startswith("--")}
    for name, val in doc.items():
        if name == "outputs":
            if not isinstance(val, list) or not val:
                raise ConfigError("outputs: expected a non-empty list")
            unknown = [o for o in val if o not in OUTPUTS]
            if unknown:
                raise ConfigError(f"outputs: unknown entries {unknown}; choose from {OUTPUTS}")
            settings.update({f"outputs.{entry}": entry in val for entry in OUTPUTS})
        elif name in _SECTIONS:
            if not isinstance(val, dict):
                raise ConfigError(f"{name}: expected a mapping")
            for leaf, leaf_val in val.items():
                if f"{name}.{leaf}" not in settings:
                    raise ConfigError(f"unknown config key: {name}.{leaf}")
                settings[f"{name}.{leaf}"] = leaf_val
        elif name == "case":
            settings[name] = val
        else:
            raise ConfigError(f"unknown config key: {name}")
    return settings


def load_config(path=None, grid_n=None) -> ScenarioConfig:
    return _build_config(_read_settings(path, grid_n))


def _read_settings(path, grid_n) -> dict:
    """The settings of the scenario file at `path` (None: the defaults), with `--grid-n`."""
    doc = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            doc = yaml.load(text, Loader=_ConfigLoader) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
    settings = _settings(doc)
    if grid_n is not None:
        settings["grid.n"] = grid_n
    return settings


def _check_reads(settings: dict, command: str, negative_control: bool,
                 swept=None) -> list[str]:
    """ConfigError for a setting off its default that the run does not read (`SCHEMA`).

    It runs before `_build_config` judges any value, so an unread setting is
    named as such, whatever its value.  A key listed for a run followed by an
    `outputs` entry is read only when that entry is listed.  Returns
    "key=value" for each number setting off its default that the run reads:
    the inputs that `main` names when the run's arithmetic fails.
    """
    run = f"{command} {_value(settings, 'case')}" if command == "spectrum" else command
    runs = {run, *(f"{run} {entry}" for entry in OUTPUTS if settings[f"outputs.{entry}"])}
    settings = {**settings, "--negative-control": negative_control}
    numbers = []
    for key, (default, kind, readers) in SCHEMA.items():
        value = settings[key]
        # YAML's `true` equals 1 in Python
        if isinstance(value, bool) == isinstance(default, bool) and value == default:
            continue
        if runs.isdisjoint(readers) or key == SWEEPABLE.get(swept):
            raise ConfigError(f"{run} does not read {key}; leave it at {default!r}")
        if kind in ("real", "integer", "complex"):
            numbers.append(f"{key}={value!r}")
    return numbers


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def write_csv(path: Path, header, columns, timestamp: bool) -> None:
    """Write `header` and one column per header entry, each row through one `%.17g` template.

    A column is an array-like of real numbers: Python and numpy floats, ints
    and bools.  `%.17g` reads an int as a double, so ints are written exactly
    up to 2^53 in magnitude, rounded to a double above that, and in exponent
    form from 1e17.  A complex cell makes `%` raise TypeError while the lines
    are built, before the file is opened (tables split complex values into
    re/im columns).
    """
    columns = [np.asarray(col) for col in columns]
    template = ",".join(["%.17g"] * len(header))
    lines = [f"# written {time.strftime('%Y-%m-%dT%H:%M:%S')}"] if timestamp else []
    lines.append(",".join(header))
    lines.extend(template % row for row in zip(*(col.tolist() for col in columns)))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_geometry(cfg: ScenarioConfig, out: Path, timestamp: bool) -> RunReport:
    rep = RunReport("geometry identities")
    p = cfg.torus
    xs = np.linspace(0.0, 2.0 * np.pi, 181)

    ch = geometry.christoffel_at(p, xs)
    tabulated = geometry.spin_connection_tabulated(p, xs)
    derived = geometry.spin_connection_derived(p, xs)
    for check in checks.registry(p, xs):
        if check.criterion == 1:
            check.record(rep)

    rep.add_info("spin-connection tabulated-vs-frame max gap",
                 np.max(np.abs(tabulated - derived)),
                 note="two definitions reported side by side")

    if "csv" in cfg.outputs:
        write_csv(out / "geometry.csv",
                  ["x", "R", "gamma_2_12", "gamma_1_22",
                   "spin_conn_tabulated", "spin_conn_frame"],
                  [xs, geometry.radius_profile(p, xs), ch.gamma_2_12, ch.gamma_1_22,
                   tabulated, derived], timestamp)
    return rep


def cmd_spectrum(cfg: ScenarioConfig, out: Path, timestamp: bool) -> RunReport:
    rep = RunReport("spectrum")
    p = cfg.torus
    if cfg.case == "constant_vf":
        # symmetrized branch: real trigonometric-polynomial potential
        grid = cfg.grid
        pot = pseudoherm.mathieu_form(p, cfg.gauge.e, cfg.gauge.C2).potential(grid.points)
        try:
            m = numerics.discretize_schrodinger(pot, grid)
        except ComplexPotential as exc:
            raise ComplexPotential(
                f"{exc}; complex branches are certified by `verify`, not eigensolved"
            ) from exc
        res = numerics.eig_sym_tridiag(m, 6)
        worst = float(np.max(res.residuals))
        # past n of about 26000 the rounding of T v alone exceeds 1e-8
        tol = max(numerics.RESIDUAL_TOL, numerics.periodic_floor(m))
        rep.add("eigenpair residual max", worst, tol, worst < tol)
        rep.add_info("periodic eigensolve Fourier modes", res.modes, note=f"of {grid.n}")
        checks.HILL_ORDER.record(rep)
        if "csv" in cfg.outputs:
            write_csv(out / "spectrum_constant_vf.csv", ["n", "lambda", "residual"],
                      [np.arange(len(res.eigenvalues)), res.eigenvalues, res.residuals],
                      timestamp)
        if "coefficients" in cfg.outputs:
            plus, _ = operators.decouple_constant_vf(p, cfg.gauge, grid)
            write_csv(out / "sl_coefficients_plus.csv",
                      ["x", "re_sigma", "im_sigma", "re_rho", "im_rho"],
                      [grid.points, plus.sigma.real, plus.sigma.imag,
                       plus.rho.real, plus.rho.imag], timestamp)
    else:
        rows = checks.pdfv_levels(cfg.alpha, cfg.n_max,
                                  Grid(8000, -np.pi / 2, np.pi / 2, "dirichlet"))
        rep.add_info("pdfv analytic-vs-fd max rel deviation", max(row[3] for row in rows),
                     note="wall-singular oracle; see verify for the convergent one")
        if "csv" in cfg.outputs:
            write_csv(out / "spectrum_pdfv.csv",
                      ["n", "lambda_fd", "epsilon_sq_analytic", "rel_deviation"],
                      zip(*rows), timestamp)
    return rep


def cmd_verify(cfg: ScenarioConfig, out: Path, timestamp: bool,
               negative_control: bool = False) -> RunReport:
    rep = RunReport("verification suite")
    rep.metadata["negative_control"] = negative_control
    angles = np.linspace(0.0, 2.0 * np.pi, 91)
    for check in checks.registry(angles=angles, negative_control=negative_control):
        if check.verify:
            check.record(rep)
    if "report" in cfg.outputs:
        (out / "verify_report.txt").write_text(rep.to_text() + "\n")
        (out / "verify_report.json").write_text(rep.to_json() + "\n")
    return rep


def _level_c1(c1: float, where: str) -> float:
    """c1, or ConfigError where it overflows eps_n^2 = ((2n+1)^2 + 1 + 4 C1 - alpha^2)/4 to inf."""
    if 4.0 * c1 == math.inf:
        raise ConfigError(f"{where}={c1!r}: 4 C1 overflows, so eps_n^2 would be inf")
    return c1


def _level_alpha(alpha: float) -> float:
    """alpha, or ConfigError where alpha^2 in eps_n^2 overflows: every level would be -inf."""
    if alpha * alpha == math.inf:  # Python's `alpha ** 2` raises OverflowError instead
        raise ConfigError(f"analytic.alpha={alpha!r}: alpha^2 overflows, "
                          f"so eps_n^2 would be -inf")
    return alpha


def _sweep_point(cfg: ScenarioConfig, name: str, value: float) -> dict:
    """Row inputs a, e, alpha, C1 with `name` set to `value`; ConfigError if no row can use it."""
    if not math.isfinite(value):
        raise ConfigError(f"sweep {name}={value!r}: values must be finite")
    if name == "a" and not value > 0:
        raise ConfigError(f"sweep a={value!r}: the tube radius must be positive")
    if name == "C1":
        _level_c1(value, "sweep C1")
    return {"a": cfg.torus.a, "e": cfg.gauge.e, "alpha": cfg.alpha, "C1": cfg.C1,
            name: float(value)}


def cmd_sweep(cfg: ScenarioConfig, out: Path, timestamp: bool,
              parameter: str, values) -> RunReport:
    values = list(values)
    if not values:
        raise ConfigError("sweep: empty value list")
    points = [_sweep_point(cfg, parameter, v) for v in values]
    rep = RunReport(f"sweep over {parameter}")
    alpha, c1 = (np.array([p[key] for p in points]) for key in ("alpha", "C1"))
    # eps0, resid0, ..., eps3, resid3 as columns, each level in one pass
    levels = [col for n in range(4) for col in analytic.case2_levels(n, alpha, c1)[::2]]
    # the constraint constants depend on (a, e) alone: one scalar call per distinct pair
    constants = {}
    for a, e in dict.fromkeys((p["a"], p["e"]) for p in points):
        c2, c = pseudoherm.factorization_constants(a, e)
        constants[a, e] = (c2.real, c2.imag, c.real if a < 1 else float("nan"))
    header = [parameter] + [f"{col}{n}" for n in range(4) for col in ("eps", "resid")]
    header += ["C2_constraint_re", "C2_constraint_im", "c_constraint"]
    write_csv(out / f"sweep_{parameter}.csv", header,
              [values, *levels, *zip(*(constants[p["a"], p["e"]] for p in points))], timestamp)
    rep.add_info("rows written", len(values))
    rep.add_info("unbound cells (NaN)", int(sum(np.isnan(eps).sum() for eps in levels[::2])),
                 note="levels that do not quantize are written as NaN")
    return rep


def cmd_analytic(cfg: ScenarioConfig, out: Path, timestamp: bool) -> RunReport:
    rep = RunReport("closed-form solutions")
    alpha, c1, a = cfg.alpha, cfg.C1, cfg.torus.a
    if a >= 1:
        raise ConfigError(f"analytic: the Morse chain needs torus.a < 1, got {a!r}")

    levels = range(cfg.n_max + 1)
    sols = [analytic.case2_quantize(n, alpha, c1) for n in levels]
    fit = analytic.fit_energy_display(sols)
    rep.add_info("display-form fit rms", fit["rms"],
                 note=f"mu={fit['mu']:.4f} nu={fit['nu']:.4f} (post-hoc fit)" if len(sols) > 1
                 else "one level does not determine mu and nu")

    margin = 0.05
    xg = np.linspace(-np.pi / 2 + margin, np.pi / 2 - margin, 801)
    wf_rows = [analytic.case2_wavefunction(n, alpha, c1, xg)
               for n in range(min(cfg.n_max, 2) + 1)]

    # Morse-chain spectrum on the real branch at c = 2; this is not the
    # constrained-radius point that `verify` certifies (checks._morse_params)
    mf0 = pseudoherm.real_morse_branch(geometry.TorusParams(a=a, c=2.0))
    tab = np.array([analytic.case1_energy(n, alpha, mf0) for n in levels])
    lam, _, exists = zip(*(analytic.morse_energy_exact(n, mf0) for n in levels))
    lam = np.array(lam)

    # every table is built before the first is written: a run that fails writes none
    write_csv(out / "case2_spectrum.csv", ["n", "re_eps", "im_eps", "residual"],
              [levels, [s.epsilon_n for s in sols], np.zeros(len(sols)),
               [s.residual for s in sols]], timestamp)
    write_csv(out / "case2_wavefunctions.csv",
              ["x"] + [f"re_phi{n}" for n in range(len(wf_rows))]
              + [f"im_phi{n}" for n in range(len(wf_rows))],
              [xg, *(w.real for w in wf_rows), *(w.imag for w in wf_rows)], timestamp)
    write_csv(out / "case1_spectrum.csv",
              ["n", "re_tabulated", "im_tabulated", "re_derived", "im_derived", "bound"],
              [levels, tab.real, tab.imag, lam.real, lam.imag, exists], timestamp)
    rep.add_info("tables written", 3)
    return rep


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parse_range(text: str):
    """'lo:hi:count' inclusive linear range, or a comma list of values."""
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            count = int(count)
            if count <= 0:
                raise ConfigError("sweep: range count must be positive")
            return np.linspace(float(lo), float(hi), count).tolist()
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"sweep: cannot read values {text!r}: {exc}") from exc


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call of a process and reused."""
    parser = argparse.ArgumentParser(
        prog="torusdirac",
        description="Torus Dirac operator: tables, spectra, and certification runs",
    )
    parser.add_argument("--config", type=str, default=None, help="YAML scenario file")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    parser.add_argument("--grid-n", type=int, default=None,
                        help="override grid.n; only the constant_vf spectrum reads it")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="suppress the timestamp comment in CSV output")
    parser.add_argument("--negative-control", action="store_true",
                        help="verify only: perturb the superpotential by 1%% "
                             "and expect failure")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("geometry", "spectrum", "verify", "analytic"):
        sub.add_parser(name)
    p_sweep = sub.add_parser("sweep")
    # argparse reads a value list such as "-1:1e17:41", "-2,-1" or "-inf" as an
    # unknown option; no sweep option looks like a number, so these are values
    p_sweep._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    p_sweep.add_argument("parameter", choices=SWEEPABLE)
    p_sweep.add_argument("values", help="lo:hi:count or comma-separated list")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    timestamp = not args.no_timestamp

    try:
        settings = _read_settings(args.config, args.grid_n)
        inputs = _check_reads(settings, args.command, args.negative_control,
                              getattr(args, "parameter", None))
        cfg = _build_config(settings)
        if args.command == "sweep":
            inputs.append(f"sweep {args.parameter}={args.values}")
        # one overflow rule for every run: numpy overflow raises, and any arithmetic
        # error (Python's float `**` and a division by a product that rounds to 0
        # raise too) is a config error that names the run's inputs
        try:
            with np.errstate(over="raise"):
                if args.command == "geometry":
                    rep = cmd_geometry(cfg, out, timestamp)
                elif args.command == "spectrum":
                    rep = cmd_spectrum(cfg, out, timestamp)
                elif args.command == "verify":
                    rep = cmd_verify(cfg, out, timestamp,
                                     negative_control=args.negative_control)
                elif args.command == "analytic":
                    rep = cmd_analytic(cfg, out, timestamp)
                else:
                    rep = cmd_sweep(cfg, out, timestamp, args.parameter,
                                    _parse_range(args.values))
        except ArithmeticError as exc:
            raise ConfigError(f"{', '.join(inputs)}: arithmetic in {args.command} fails "
                              f"({type(exc).__name__}: {exc})") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TorusDiracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(rep.to_text())
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
