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
import copy
import json
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
import yaml

from . import analytic, fields, geometry, numerics, operators, pseudoherm
from .errors import ComplexPotential, ConfigError, TorusDiracError, UnknownParameter
from .grids import Grid, band_limited, compact_test_functions, GridFunction

SWEEPABLE = ("a", "c", "e", "k", "a2", "C2", "alpha", "C1")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

DEFAULT_CONFIG = {
    "torus": {"a": 0.5, "c": 2.0},
    "field": {"kind": "quadratic_au", "C2": 0.2, "C3": "auto", "a2": 0.2},
    "fermi": {"kind": "constant", "v_f": 1.0},
    "quantum": {"k": 1, "e": 1.0, "Delta": 0.0},
    "grid": {"n": 1024, "boundary": "periodic"},
    "analytic": {"alpha": 1.0, "C1": 0.0, "n_max": 3},
    "case": "constant_vf",
    "outputs": ["report", "csv"],
}


@dataclass
class ScenarioConfig:
    torus: geometry.TorusParams
    gauge: fields.GaugeField
    fermi: fields.FermiVelocity
    quantum: fields.QuantumNumbers
    grid: Grid
    case: str
    alpha: float
    C1: float
    n_max: int
    outputs: list
    raw: dict = dc_field(default_factory=dict)


def _merge(base: dict, extra: dict, path="") -> dict:
    out = dict(base)
    for key, val in extra.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{where}: expected a mapping")
            out[key] = _merge(base[key], val, where)
        else:
            out[key] = val
    return out


def _build_config(raw: dict, grid_n=None) -> ScenarioConfig:
    def need(section, key, types, where):
        val = raw[section][key]
        if not isinstance(val, types):
            raise ConfigError(f"{where}: expected {types}, got {val!r}")
        return val

    a = float(need("torus", "a", (int, float), "torus.a"))
    c = float(need("torus", "c", (int, float), "torus.c"))
    try:
        torus = geometry.TorusParams(a=a, c=c)
    except ValueError as exc:
        raise ConfigError(f"torus: {exc}") from exc

    q = raw["quantum"]
    quantum = fields.QuantumNumbers(k=int(q["k"]), e=float(q["e"]), Delta=float(q["Delta"]))

    f = raw["field"]
    kind = f["kind"]
    c3 = None if f.get("C3") in (None, "auto") else complex(f["C3"])
    try:
        if kind == "zero":
            gauge = fields.zero_field()
        elif kind == "hermitizing_ax":
            gauge = fields.hermitizing_field(e=quantum.e)
        elif kind == "quadratic_au":
            gauge = fields.quadratic_ring_field(complex(f["C2"]), e=quantum.e,
                                                k=quantum.k, C3=c3)
        elif kind == "hermitizing_quadratic":
            gauge = fields.hermitizing_quadratic_field(complex(f["C2"]), e=quantum.e,
                                                       k=quantum.k, C3=c3)
        elif kind == "linear_au":
            gauge = fields.linear_ring_field(float(f["a2"]), e=quantum.e, k=quantum.k)
        else:
            raise ConfigError(f"field.kind: unknown kind {kind!r}")
    except TorusDiracError as exc:
        raise ConfigError(f"field: {exc}") from exc

    fm = raw["fermi"]
    if fm["kind"] == "constant":
        fermi = fields.constant_velocity(float(fm["v_f"]))
    elif fm["kind"] == "cosine":
        fermi = fields.cosine_velocity()
    else:
        raise ConfigError(f"fermi.kind: unknown kind {fm['kind']!r}")

    case = raw["case"]
    if case not in ("constant_vf", "pdfv"):
        raise ConfigError(f"case: expected constant_vf or pdfv, got {case!r}")
    if case == "pdfv" and fm["kind"] == "constant" and not raw.get("_allow", False):
        # the position-dependent case needs a non-constant profile
        raise ConfigError("case: pdfv requires fermi.kind != constant")

    g = raw["grid"]
    n = int(grid_n if grid_n is not None else g["n"])
    boundary = g.get("boundary", "periodic")
    try:
        if boundary == "periodic":
            grid = Grid(n)
        else:
            grid = Grid(n, float(g.get("x_min", -np.pi / 2 + 1e-3)),
                        float(g.get("x_max", np.pi / 2 - 1e-3)), "dirichlet")
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    outputs = raw["outputs"]
    if not isinstance(outputs, list) or not outputs:
        raise ConfigError("outputs: expected a non-empty list")

    an = raw["analytic"]
    return ScenarioConfig(
        torus=torus, gauge=gauge, fermi=fermi, quantum=quantum, grid=grid,
        case=case, alpha=float(an["alpha"]), C1=float(an["C1"]),
        n_max=int(an["n_max"]), outputs=list(outputs), raw=raw,
    )


def load_config(path=None, grid_n=None) -> ScenarioConfig:
    raw = DEFAULT_CONFIG
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            user = yaml.safe_load(text) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        raw = _merge(DEFAULT_CONFIG, user)
    # a private copy: the defaults' nested sections must never be shared
    return _build_config(copy.deepcopy(raw), grid_n=grid_n)


# ---------------------------------------------------------------------------
# reports and CSV
# ---------------------------------------------------------------------------

@dataclass
class CheckRecord:
    name: str
    value: float
    tolerance: float
    passed: bool
    gating: bool = True
    order: float = None
    note: str = ""


@dataclass
class RunReport:
    title: str
    records: list = dc_field(default_factory=list)
    metadata: dict = dc_field(default_factory=dict)

    def add(self, name, value, tolerance, *, gating=True, order=None,
            note="", larger_is_pass=False) -> CheckRecord:
        if larger_is_pass:
            passed = bool(value > tolerance)
        else:
            passed = bool(value < tolerance)
        rec = CheckRecord(name=name, value=float(value), tolerance=float(tolerance),
                          passed=passed, gating=gating, order=order, note=note)
        self.records.append(rec)
        return rec

    def add_info(self, name, value, note="") -> CheckRecord:
        rec = CheckRecord(name=name, value=float(value), tolerance=float("nan"),
                          passed=True, gating=False, note=note or "reported")
        self.records.append(rec)
        return rec

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.records if r.gating)

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        for r in self.records:
            status = ("PASS" if r.passed else "FAIL") if r.gating else "INFO"
            tol = "" if np.isnan(r.tolerance) else f" tol={r.tolerance:g}"
            order = "" if r.order is None else f" order={r.order:.2f}"
            note = f"  [{r.note}]" if r.note else ""
            lines.append(f"{status:4s} {r.name:48s} value={r.value:.6e}{tol}{order}{note}")
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "title": self.title,
            "ok": self.ok,
            "metadata": self.metadata,
            "records": [
                {"name": r.name, "value": r.value,
                 "tolerance": None if np.isnan(r.tolerance) else r.tolerance,
                 "passed": r.passed, "gating": r.gating, "order": r.order,
                 "note": r.note}
                for r in self.records
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                          default=float)


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path: Path, header, rows, timestamp: bool) -> None:
    lines = []
    if timestamp:
        lines.append(f"# written {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_geometry(cfg: ScenarioConfig, out: Path, timestamp: bool) -> RunReport:
    rep = RunReport("geometry identities")
    p = cfg.torus
    xs = np.linspace(0.0, 2.0 * np.pi, 181)

    worst_frame = 0.0
    rows = []
    for x in xs:
        g = geometry.metric_at(p, x)
        e = geometry.vierbein_at(p, x)
        worst_frame = max(worst_frame, float(np.max(np.abs(g - e @ geometry.ETA @ e.T))))
        ch = geometry.christoffel_at(p, x)
        rows.append((x, geometry.radius_profile(p, x), ch.gamma_2_12, ch.gamma_1_22,
                     geometry.spin_connection_tabulated(p, x),
                     geometry.spin_connection_derived(p, x)))
    rep.add("frame identity max |g - e.eta.e^T|", worst_frame, 1e-13)

    # closed-form Christoffels against the finite-difference oracle
    errs = []
    for h in (1e-3, 5e-4):
        worst = 0.0
        for x in xs[1:-1]:
            ex = geometry.christoffel_at(p, x)
            orc = geometry.christoffel_fd_oracle(p, x, h)
            worst = max(worst, abs(ex.gamma_2_12 - orc.gamma_2_12),
                        abs(ex.gamma_1_22 - orc.gamma_1_22))
        errs.append(worst)
    order = float(np.log2(errs[0] / errs[1]))
    rep.add("christoffel oracle convergence order", order, 1.9, larger_is_pass=True)

    both = np.array([[geometry.spin_connection_tabulated(p, x),
                      geometry.spin_connection_derived(p, x)] for x in xs])
    rep.add_info("spin-connection tabulated-vs-frame max gap",
                 float(np.max(np.abs(both[:, 0] - both[:, 1]))),
                 note="two definitions reported side by side")

    if "csv" in cfg.outputs:
        write_csv(out / "geometry.csv",
                  ["x", "R", "gamma_2_12", "gamma_1_22",
                   "spin_conn_tabulated", "spin_conn_frame"],
                  rows, timestamp)
    return rep


def cmd_spectrum(cfg: ScenarioConfig, out: Path, timestamp: bool) -> RunReport:
    rep = RunReport("spectrum")
    p, e, k = cfg.torus, cfg.quantum.e, cfg.quantum.k

    if "box_selftest" in cfg.outputs:
        g = Grid(4000, 0.0, np.pi, "dirichlet")
        m = numerics.discretize_schrodinger(lambda x: np.zeros_like(x), g)
        w = numerics.eig_sym_tridiag(m, 4, with_vectors=False).eigenvalues
        dev = max(abs(w[i] - (i + 1) ** 2) / (i + 1) ** 2 for i in range(4))
        rep.add("box self-test rel deviation", dev, 1e-5)

    if cfg.case == "constant_vf":
        # symmetrized branch: real trigonometric-polynomial potential
        c2 = cfg.gauge.C2 if cfg.gauge.kind in ("quadratic_au", "hermitizing_quadratic") else 0.2
        mf = pseudoherm.mathieu_form(p, e, c2)
        pot = mf.potential(cfg.grid.points if cfg.grid.boundary == "periodic"
                           else Grid(cfg.grid.n).points)
        grid = cfg.grid if cfg.grid.boundary == "periodic" else Grid(cfg.grid.n)
        try:
            m = numerics.discretize_schrodinger(pot, grid)
        except ComplexPotential as exc:
            raise ComplexPotential(
                f"{exc}; complex branches are certified by `verify`, not eigensolved"
            ) from exc
        res = numerics.eig_sym_tridiag(m, min(6, grid.n - 2))
        rows = [(i, res.eigenvalues[i], res.residuals[i]) for i in range(len(res.eigenvalues))]
        rep.add("eigenpair residual max", float(np.max(res.residuals)), 1e-8)
        if "csv" in cfg.outputs:
            write_csv(out / "spectrum_constant_vf.csv", ["n", "lambda", "residual"],
                      rows, timestamp)
        if "coefficients" in cfg.outputs:
            plus, _ = operators.decouple_constant_vf(p, cfg.gauge, k, e, grid)
            header, crows = operators.sl_coefficient_table(plus)
            write_csv(out / "sl_coefficients_plus.csv", header, crows, timestamp)
    else:
        alpha = cfg.alpha
        g = Grid(8000, -np.pi / 2, np.pi / 2, "dirichlet")
        rows = []
        worst = 0.0
        for n in range(cfg.n_max + 1):
            c1n = alpha ** 2 * (n + 0.5) ** 2 - 0.5
            sol = analytic.case2_quantize(n, alpha, c1n)
            a2_v = alpha * (n + 0.5) / (e * p.a)
            gauge_n = fields.linear_ring_field(a2=a2_v, e=e, k=k)
            ve = pseudoherm.veff_case2(p, gauge_n, k, e, cfg.fermi, g)
            m = numerics.discretize_schrodinger(np.real(ve.v), g)
            fd = numerics.eig_sym_tridiag(m, n + 1, with_vectors=False).eigenvalues[n]
            dev = abs(fd - sol.epsilon_n ** 2) / max(1.0, sol.epsilon_n ** 2)
            worst = max(worst, dev)
            rows.append((n, fd, sol.epsilon_n ** 2, dev))
        rep.add_info("pdfv analytic-vs-fd max rel deviation", worst,
                     note="wall-singular oracle; see verify for the convergent one")
        if "csv" in cfg.outputs:
            write_csv(out / "spectrum_pdfv.csv",
                      ["n", "lambda_fd", "epsilon_sq_analytic", "rel_deviation"],
                      rows, timestamp)
    return rep


def _verify_checks(cfg: ScenarioConfig, negative_control: bool) -> RunReport:
    rep = RunReport("verification suite")
    rep.metadata["negative_control"] = negative_control

    # 1. geometry
    p_geo = cfg.torus
    xs = np.linspace(0.0, 2.0 * np.pi, 91)
    worst = max(
        float(np.max(np.abs(geometry.metric_at(p_geo, x)
                            - geometry.vierbein_at(p_geo, x) @ geometry.ETA
                            @ geometry.vierbein_at(p_geo, x).T)))
        for x in xs
    )
    rep.add("geometry: frame identity", worst, 1e-13)

    # 2. squaring consistency on a gentle ring (h^2 product-rule floor)
    p_sq = geometry.TorusParams(a=0.25, c=2.0)
    gauge_sq = fields.quadratic_ring_field(0.2, e=1.0, k=1)
    g1024 = Grid(1024)
    worst = 0.0
    for seed in range(20):
        sp = operators.SpinorGF(*band_limited(g1024, modes=[5, 6, 7, 8],
                                              rng=seed, n_functions=2))
        worst = max(worst, operators.squaring_discrepancy(p_sq, gauge_sq, 1, g1024, sp))
    rep.add("operators: squaring consistency @1024", worst, 1e-6)

    # 3. hermiticity contrast
    p5 = geometry.TorusParams(a=0.5, c=2.0)
    g512 = Grid(512)
    pairs = [
        (operators.SpinorGF(*band_limited(g512, [1, 2, 3], rng=s, n_functions=2)),
         operators.SpinorGF(*band_limited(g512, [2, 4], rng=90 + s, n_functions=2)))
        for s in range(6)
    ]
    d_herm = operators.hermiticity_defect(
        p5, fields.hermitizing_quadratic_field(0.4, e=1.0, k=1), 1, g512, pairs)
    rep.add("operators: defect with hermitizing gauge", d_herm, 1e-10)
    ax_real = fields.GaugeField(kind="tabulated", grid=g512, e=1.0, k=1,
                                ax_samples=tuple(np.cos(g512.points)),
                                au_samples=tuple(np.zeros(g512.n)))
    d_real = operators.hermiticity_defect(p5, ax_real, 1, g512, pairs)
    rep.add("operators: defect with real unit gauge", d_real, 1e-3, larger_is_pass=True)
    d_zero = operators.hermiticity_defect(p5, fields.zero_field(), 1, g512, pairs)
    rep.add_info("operators: defect with zero gauge", d_zero,
                 note="known discrepancy: spin term obstructs flat self-adjointness")

    # 4. factorization identities (with optional negative control)
    a_fac = 0.5
    p_fac = geometry.TorusParams(a=a_fac, c=2.0)
    g_fac = Grid(10000)
    s = pseudoherm.sqrt_am1(a_fac)
    x = g_fac.points
    w_exact = -1j * s / a_fac * np.sin(x) + 1j * (a_fac - 2) / (2 * a_fac)
    wp_exact = -1j * s / a_fac * np.cos(x)
    if negative_control:
        w_exact = 1.01 * w_exact
    v_form, v1_form = pseudoherm.partner_potentials_case1(p_fac, g_fac)
    defect = max(
        float(np.max(np.abs(w_exact ** 2 - wp_exact - v_form.v))),
        float(np.max(np.abs(w_exact ** 2 + wp_exact - v1_form.v))),
    )
    rep.add("factorization: W^2 -+ W' identities", defect, 1e-12)

    # 5. intertwining probes
    g2048 = Grid(2048)
    phis = compact_test_functions(g2048, modes=[3, 4, 6], rng=5, n_functions=4)
    a_pair = pseudoherm.superpotential_case1(geometry.TorusParams(a=0.9, c=2.0), g2048)
    # discrete factorized pair: intertwining by the factor is associativity-exact
    h_fact = pseudoherm.ComposedOp((pseudoherm.AdjointOf(a_pair), a_pair))
    h_partner = pseudoherm.ComposedOp((a_pair, pseudoherm.AdjointOf(a_pair)))
    res_exact = pseudoherm.intertwining_residual(a_pair, h_fact, h_partner, phis)
    rep.add("intertwining: factorization pair residual @2048", res_exact, 1e-6)
    # the same pair against its closed-form partner potentials (stencil-limited)
    s9 = pseudoherm.sqrt_am1(0.9)
    x2 = g2048.points
    w9 = -1j * s9 / 0.9 * np.sin(x2) + 1j * (0.9 - 2) / (2 * 0.9)
    w9p = -1j * s9 / 0.9 * np.cos(x2)
    res_forms = pseudoherm.intertwining_residual(
        a_pair,
        pseudoherm.SchrodingerOp(g2048, w9 ** 2 - w9p),
        pseudoherm.SchrodingerOp(g2048, w9 ** 2 + w9p),
        phis,
    )
    rep.add_info("intertwining: closed-form pair residual", res_forms,
                 note="stencil-limited; second-order convergent")

    herm_gauge = fields.hermitizing_quadratic_field(0.4, e=1.0, k=1)
    plus, _ = operators.decouple_constant_vf(p5, herm_gauge, 1, 1.0, g2048)
    h_s = pseudoherm.SchrodingerOp(g2048, plus.rho)  # sigma vanishes for this gauge
    eta2 = pseudoherm.eta2_case1(p5, 0.0, g2048)
    res_eta2 = pseudoherm.intertwining_residual(
        eta2, h_s, pseudoherm.AdjointOf(h_s), phis)
    rep.add_info("intertwining: tabulated first-order coefficient", res_eta2,
                 note="known discrepancy: no first-order intertwiner exists here")

    # 6. Rosen-Morse equivalence
    g_rm = Grid(2000, -np.pi / 2 + 0.1, np.pi / 2 - 0.1, "dirichlet")
    gauge_rm = fields.linear_ring_field(a2=0.2, e=1.0, k=1)
    ve = pseudoherm.veff_case2(p5, gauge_rm, 1, 1.0, fields.cosine_velocity(), g_rm)
    gap = float(np.max(np.abs(ve.v - pseudoherm.rosen_morse_form(p5, 0.2, 1.0, g_rm.points))))
    rep.add("pdfv: effective potential closed-form gap", gap, 1e-10)

    # 7. quantized levels: ODE residuals and the convergent partner oracle
    alpha, c1 = 1.0, 0.0
    worst_ode = max(analytic.case2_ode_residual(n, alpha, c1) for n in range(3))
    rep.add("quantization: wavefunction equation residual", worst_ode, 1e-6)
    g_pm = Grid(8000, -np.pi / 2, np.pi / 2, "dirichlet")
    xpm = g_pm.points
    worst_pm = 0.0
    for n in range(1, 4):
        sol = analytic.case2_quantize(n, alpha, c1)
        bc = sol.a2
        e0 = c1 + 0.5 - bc ** 2
        v1 = e0 + 0.75 * np.tan(xpm) ** 2 + bc * np.tan(xpm) + bc ** 2 + 0.5
        m = numerics.discretize_schrodinger(v1, g_pm)
        fd = numerics.eig_sym_tridiag(m, n, with_vectors=False).eigenvalues[n - 1]
        worst_pm = max(worst_pm, abs(fd - sol.epsilon_n ** 2) / max(1.0, sol.epsilon_n ** 2))
    rep.add("quantization: partner-oracle spectrum match", worst_pm, 1e-3)

    # 8. Morse chain: derived closed form against shooting
    a_m = 0.5
    c_m = 0.5 * a_m ** 2 / np.sqrt(1 - a_m)
    p_m = geometry.TorusParams(a=a_m, c=c_m)
    c2_rot = 1j * np.sqrt(1 - a_m) / (a_m ** 4)
    mf = pseudoherm.mathieu_form(p_m, 1.0, c2_rot)
    mf0 = pseudoherm.MathieuParams(A_m=mf.A_m, B_m=mf.B_m, C_m=0.0, D_m=mf.D_m)
    sp = analytic.morse_shooting_problem(mf0, 1.0, t_min=-4.0, t_max=50.0, n=16001)
    worst_morse = 0.0
    tab_gap = 0.0
    for n in range(2):
        en, _ = numerics.shoot_bound_state(sp, n)
        exact = analytic.morse_energy_exact(n, mf0)[0].real
        tab = analytic.case1_energy(n, 1.0, mf0)[0]
        worst_morse = max(worst_morse, abs(en - exact) / abs(exact))
        tab_gap = max(tab_gap, abs(tab - exact) / abs(exact))
    rep.add("morse chain: derived closed form vs shooting", worst_morse, 1e-4)
    rep.add_info("morse chain: tabulated energy formula gap", tab_gap,
                 note="known discrepancy: tabulated formula is not an eigenvalue here")
    chain = analytic.case1_transform_chain(mf0, 1.0)
    rep.add_info("morse chain: quadratic-expansion truncation gap",
                 chain.truncation_error, note="expansion quality, no threshold set")

    # 9. special functions
    rng = np.random.default_rng(3)
    worst_sf = 0.0
    for n in range(21):
        # arguments kept where the alternating sum is well conditioned
        al = complex(rng.uniform(-0.5, 2.0), 0.3 * rng.uniform(-1, 1))
        xx = complex(rng.uniform(0.0, 1.5), 0.3 * rng.uniform(-1, 1))
        lg, lr = analytic.laguerre_gen(n, al, xx), analytic.laguerre_recurrence(n, al, xx)
        worst_sf = max(worst_sf, abs(lg - lr) / max(1.0, abs(lr)))
        b = rng.uniform(0.5, 3)
        cc = rng.uniform(0.5, 3)
        # inside the unit disk, where term magnitudes stay controlled
        radius, angle = rng.uniform(0.0, 0.9), rng.uniform(0.0, 2 * np.pi)
        ss = radius * complex(np.cos(angle), np.sin(angle))
        total, term = 1.0 + 0j, 1.0 + 0j  # brute-force finite sum
        for m in range(n):
            term *= (-n + m) * (b + m) / ((cc + m) * (m + 1)) * ss
            total += term
        worst_sf = max(worst_sf, abs(analytic.gauss_2f1(-n, b, cc, ss) - total)
                       / max(1.0, abs(total)))
    rep.add("special functions: oracle agreement (orders <= 20)", worst_sf, 1e-13)

    # 10. solver self-tests
    g_box = Grid(4000, 0.0, np.pi, "dirichlet")
    m = numerics.discretize_schrodinger(lambda x: np.zeros_like(x), g_box)
    w = numerics.eig_sym_tridiag(m, 4, with_vectors=False).eigenvalues
    box_dev = max(abs(w[i] - (i + 1) ** 2) / (i + 1) ** 2 for i in range(4))
    rep.add("numerics: box benchmark", box_dev, 1e-5)
    g_ho = Grid(6000, -10.0, 10.0, "dirichlet")
    m = numerics.discretize_schrodinger(lambda x: x ** 2, g_ho)
    w = numerics.eig_sym_tridiag(m, 3, with_vectors=False).eigenvalues
    ho_dev = max(abs(w[i] - (2 * i + 1)) / (2 * i + 1) for i in range(3))
    rep.add("numerics: oscillator benchmark", ho_dev, 1e-5)
    errs = []
    for n_s in (101, 201, 401):
        t = np.linspace(0.0, np.pi, n_s)
        errs.append(abs(numerics.integrate_simpson(np.sin(t), t[1] - t[0]) - 2.0))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    slope = float(np.mean(slopes))
    rep.add("numerics: simpson error slope", slope, 3.8, larger_is_pass=True)
    if slope > 4.2:
        rep.records[-1].passed = False
        rep.records[-1].note = "slope above the expected window"
    return rep


def cmd_verify(cfg: ScenarioConfig, out: Path, timestamp: bool,
               negative_control: bool = False) -> RunReport:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="c <= a")
        rep = _verify_checks(cfg, negative_control)
    if "csv" in cfg.outputs or "report" in cfg.outputs:
        (out / "verify_report.txt").write_text(rep.to_text() + "\n")
        (out / "verify_report.json").write_text(rep.to_json() + "\n")
    return rep


def _sweep_row(cfg: ScenarioConfig, name: str, value: float):
    torus = cfg.torus
    alpha, c1 = cfg.alpha, cfg.C1
    e = cfg.quantum.e
    if name == "a":
        torus = geometry.TorusParams(a=float(value), c=torus.c)
    elif name == "c":
        torus = geometry.TorusParams(a=torus.a, c=float(value))
    elif name == "alpha":
        alpha = float(value)
    elif name == "C1":
        c1 = float(value)
    elif name == "e":
        e = float(value)
    # k, a2, C2 sweeps re-enter through the constraint/quantization columns

    row = [value]
    for n in range(4):
        try:
            sol = analytic.case2_quantize(n, alpha, c1)
            row.extend([sol.epsilon_n, sol.residual])
        except TorusDiracError:
            row.extend([float("nan"), float("nan")])
    s = pseudoherm.sqrt_am1(torus.a)
    c2_constraint = s / (torus.a ** 4 * e)
    c_constraint = (0.5 * torus.a ** 2 / np.sqrt(1.0 - torus.a)
                    if torus.a < 1 else float("nan"))
    row.extend([c2_constraint.real, c2_constraint.imag, c_constraint])
    return tuple(row)


def cmd_sweep(cfg: ScenarioConfig, out: Path, timestamp: bool,
              parameter: str, values) -> RunReport:
    if parameter not in SWEEPABLE:
        raise UnknownParameter(f"cannot sweep {parameter!r}; choose from {SWEEPABLE}")
    values = list(values)
    if not values:
        raise ConfigError("sweep: empty value list")
    rep = RunReport(f"sweep over {parameter}")
    with ThreadPoolExecutor(max_workers=4) as pool:
        rows = list(pool.map(lambda v: _sweep_row(cfg, parameter, v), values))
    rows.sort(key=lambda r: r[0])
    header = [parameter]
    for n in range(4):
        header += [f"eps{n}", f"resid{n}"]
    header += ["C2_constraint_re", "C2_constraint_im", "c_constraint"]
    write_csv(out / f"sweep_{parameter}.csv", header, rows, timestamp)
    rep.add_info("rows written", len(rows))
    return rep


def cmd_analytic(cfg: ScenarioConfig, out: Path, timestamp: bool) -> RunReport:
    rep = RunReport("closed-form solutions")
    alpha, c1 = cfg.alpha, cfg.C1

    rows = []
    sols = []
    for n in range(cfg.n_max + 1):
        sol = analytic.case2_quantize(n, alpha, c1)
        sols.append(sol)
        rows.append((n, sol.epsilon_n, 0.0, sol.residual))
    write_csv(out / "case2_spectrum.csv", ["n", "re_eps", "im_eps", "residual"],
              rows, timestamp)
    fit = analytic.fit_energy_display(sols)
    rep.add_info("display-form fit rms", fit["rms"],
                 note=f"mu={fit['mu']:.4f} nu={fit['nu']:.4f} (post-hoc fit)")

    margin = 0.05
    xg = np.linspace(-np.pi / 2 + margin, np.pi / 2 - margin, 801)
    wf_rows = []
    for n in range(min(cfg.n_max, 2) + 1):
        phi = analytic.case2_wavefunction(n, alpha, c1, xg)
        wf_rows.append(phi)
    write_csv(out / "case2_wavefunctions.csv",
              ["x"] + [f"re_phi{n}" for n in range(len(wf_rows))]
              + [f"im_phi{n}" for n in range(len(wf_rows))],
              [tuple([xg[i]] + [w[i].real for w in wf_rows] + [w[i].imag for w in wf_rows])
               for i in range(len(xg))],
              timestamp)

    # Morse-chain spectrum at the constrained-branch benchmark
    a_m = cfg.torus.a if cfg.torus.a < 1 else 0.5
    c2_rot = 1j * np.sqrt(1 - a_m) / (a_m ** 4 * cfg.quantum.e)
    mf = pseudoherm.mathieu_form(geometry.TorusParams(a=a_m, c=2.0), cfg.quantum.e, c2_rot)
    mf0 = pseudoherm.MathieuParams(A_m=mf.A_m, B_m=mf.B_m, C_m=0.0, D_m=mf.D_m)
    rows1 = []
    for n in range(cfg.n_max + 1):
        tab, _ = analytic.case1_energy(n, alpha, mf0)
        lam, rho, exists = analytic.morse_energy_exact(n, mf0)
        rows1.append((n, tab.real, tab.imag, lam.real, lam.imag, int(exists)))
    write_csv(out / "case1_spectrum.csv",
              ["n", "re_tabulated", "im_tabulated", "re_derived", "im_derived", "bound"],
              rows1, timestamp)
    rep.add_info("tables written", 3)
    return rep


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parse_range(text: str):
    """'lo:hi:count' inclusive linear range, or a comma list of values."""
    if ":" in text:
        lo, hi, count = text.split(":")
        count = int(count)
        if count <= 0:
            raise ConfigError("sweep: range count must be positive")
        return list(np.linspace(float(lo), float(hi), count))
    return [float(tok) for tok in text.split(",") if tok]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torusdirac",
        description="Torus Dirac operator: tables, spectra, and certification runs",
    )
    parser.add_argument("--config", type=str, default=None, help="YAML scenario file")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    parser.add_argument("--grid-n", type=int, default=None, help="override grid size")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="suppress the timestamp comment in CSV output")
    parser.add_argument("--negative-control", action="store_true",
                        help="perturb the superpotential by 1%% and expect failure")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("geometry", "spectrum", "verify", "analytic"):
        sub.add_parser(name)
    p_sweep = sub.add_parser("sweep")
    p_sweep.add_argument("parameter", choices=SWEEPABLE)
    p_sweep.add_argument("values", help="lo:hi:count or comma-separated list")

    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    timestamp = not args.no_timestamp

    try:
        cfg = load_config(args.config, grid_n=args.grid_n)
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
