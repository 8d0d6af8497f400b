"""Certification checks, each written once: `verify`, `geometry`, `spectrum`
and the acceptance suite all read them from here.

A `Check` pairs a measurement with its pinned tolerance, its direction
(the value must be below the tolerance, above it, or inside a window), the
acceptance criterion it belongs to, and its status:

gate    gates `verify` and the acceptance suite
known   a known discrepancy of the tabulated formulas: `verify` reports it
        as INFO, the acceptance suite asserts it (and stays red)
info    reported without a threshold; the suite asserts only that it is finite

A measurement that is not finite is a gating FAIL in a report, whatever the
status, and its JSON value is null.

`registry()` lists every check in report order, and the acceptance suite
measures each one.  A check's `runs` names the runs that record it, as
`cli.SCHEMA` names them ("verify", "geometry", "spectrum constant_vf"), and
`record_run` records one run's checks in registry order.  Five checks name
no run:

- the truncated-domain spectrum match, which, with the Christoffel oracle
  order that `geometry` records, would add about a quarter to the time of
  `verify`'s 20 checks (README gives one dated measurement; the milliseconds
  drift with the host's load, the share does not);
- the position-dependent intertwiner, the two readings of the case-2
  gauge prefactor and the printed 2F1 parameters, which have never been
  part of a report.

The seeded probes that several checks share are sample arrays: the spinor
stacks of shape (2, S, n), one `grids.band_limited` pair per seed, and the
(S, n) test functions of criterion 5.  They, the Morse parameters and the
Morse chain are built once, on first use, and kept read-only.  Library
functions are called through their module attributes (`geometry.metric_at`),
so wrappers installed on those modules see them, and see each probe's first
build.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import cache, partial
from typing import Callable

import numpy as np

from . import analytic, fields, geometry, grids, numerics, operators, pseudoherm
from .grids import Grid

DEFAULT_TORUS = geometry.TorusParams(a=0.5, c=2.0)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class CheckRecord:
    name: str
    value: float
    tolerance: float | tuple  # (lo, hi) for a window
    passed: bool
    gating: bool = True
    note: str = ""


@dataclass
class RunReport:
    title: str
    records: list = dc_field(default_factory=list)
    metadata: dict = dc_field(default_factory=dict)

    def add(self, name, value, tolerance, passed, note="", gating=True) -> CheckRecord:
        if not isinstance(tolerance, tuple):
            tolerance = float(tolerance)
        self.records.append(CheckRecord(name=name, value=float(value), tolerance=tolerance,
                                        passed=bool(passed), gating=gating, note=note))
        return self.records[-1]

    def add_info(self, name, value, note="") -> CheckRecord:
        return self.add(name, value, float("nan"), True, note or "reported", gating=False)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.records if r.gating)

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        for r in self.records:
            status = ("PASS" if r.passed else "FAIL") if r.gating else "INFO"
            if isinstance(r.tolerance, tuple):
                tol = " window=({:g}, {:g})".format(*r.tolerance)
            else:
                tol = "" if np.isnan(r.tolerance) else f" tol={r.tolerance:g}"
            note = f"  [{r.note}]" if r.note else ""
            lines.append(f"{status:4s} {r.name:48s} value={r.value:.6e}{tol}{note}")
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "title": self.title,
            "ok": self.ok,
            "metadata": self.metadata,
            "records": [
                {"name": r.name, "value": r.value if np.isfinite(r.value) else None,
                 "tolerance": (list(r.tolerance) if isinstance(r.tolerance, tuple)
                               else None if np.isnan(r.tolerance) else r.tolerance),
                 "passed": r.passed, "gating": r.gating, "note": r.note}
                for r in self.records
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                          default=float)


@dataclass(frozen=True)
class Check:
    """A named measurement and the rule that judges it."""

    name: str
    criterion: int
    measure: Callable[[], float]
    tolerance: float | tuple = float("nan")  # (lo, hi) for direction 'window'
    direction: str = "below"  # 'below', 'above' or 'window'
    status: str = "gate"  # 'gate', 'known' or 'info'
    note: str = ""
    runs: tuple = ("verify",)  # the runs that record it

    def passes(self, value: float) -> bool:
        if self.status == "info":
            return bool(np.isfinite(value))
        if self.direction == "above":
            return bool(value > self.tolerance)
        if self.direction == "window":
            lo, hi = self.tolerance
            return bool(lo < value < hi)
        return bool(value < self.tolerance)

    def record(self, report: RunReport) -> CheckRecord:
        """Measure, then add a PASS/FAIL record for a gate and INFO otherwise.

        A value that is not finite is a gating FAIL, whatever the status.
        """
        value = self.measure()
        finite = bool(np.isfinite(value))
        if self.status != "gate" and finite:
            return report.add_info(self.name, value, note=self.note)
        return report.add(self.name, value, self.tolerance, finite and self.passes(value),
                          self.note)


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def frame_identity_gap(torus, xs) -> float:
    """max over the angles xs of |g - e.eta.e^T|."""
    e = geometry.vierbein_at(torus, xs)
    return float(np.max(np.abs(geometry.metric_at(torus, xs)
                               - e @ geometry.ETA @ np.swapaxes(e, -1, -2))))


def _observed_order(errs) -> float:
    """Mean log2 ratio of successive errors: the observed order of a step-halving sequence."""
    e = np.asarray(errs)
    return float(np.mean(np.log2(e[:-1] / e[1:])))


def christoffel_order(torus, xs) -> float:
    """Convergence order of the finite-difference Christoffel oracle, h = 1e-3 -> 5e-4.

    The end points of xs are left out, so a closed angle range samples each
    angle once.
    """
    xs = np.asarray(xs)[1:-1]
    ex = geometry.christoffel_at(torus, xs)
    errs = []
    for h in (1e-3, 5e-4):
        orc = geometry.christoffel_fd_oracle(torus, xs, h)
        errs.append(max(np.max(np.abs(ex.gamma_2_12 - orc.gamma_2_12)),
                        np.max(np.abs(ex.gamma_1_22 - orc.gamma_1_22))))
    return _observed_order(errs)


@cache
def _squaring_probe(n: int, seeds: tuple):
    """The grid and spinor stack of `squaring_consistency`."""
    g = Grid(n)
    return g, numerics._frozen(np.stack([grids.band_limited(g, [5, 6, 7, 8], rng=s, n_functions=2)
                                         for s in seeds], axis=1))[0]


def squaring_consistency(n: int = 1024, seeds=range(20)) -> float:
    """Worst squared-kernel vs decoupled-operator mismatch on a gentle ring (a=0.25)."""
    torus = geometry.TorusParams(a=0.25, c=2.0)
    gauge = fields.quadratic_ring_field(0.2, e=1.0, k=1)
    return operators.squaring_discrepancy(torus, gauge, *_squaring_probe(n, tuple(seeds)))


@cache
def _kernel_probe():
    """The 512-point grid and the six fixed pairs of band-limited spinors of `kernel_defect`."""
    g = Grid(512)
    return g, (numerics._frozen(*(
        np.stack([grids.band_limited(g, modes, rng=s, n_functions=2) for s in seeds], axis=1)
        for modes, seeds in (([1, 2, 3], range(6)), ([2, 4], range(90, 96))))),)


def kernel_defect(gauge: fields.GaugeField) -> float:
    """Flat self-adjointness defect of the kernel under `gauge` (a=0.5, 512 points).

    Six fixed pairs of band-limited spinors probe the defect.
    """
    return operators.hermiticity_defect(DEFAULT_TORUS, gauge, *_kernel_probe())


def factorization_defect(scale: float = 1.0) -> float:
    """Pointwise gap of (scale W)^2 -+ W' to the closed-form partners (a=0.5, 1e4 points).

    A scale of 1.01 is the negative control.
    """
    g = Grid(10000)
    w, wp = pseudoherm.superpotential(0.5, g.points)
    w = scale * w
    v, v1 = pseudoherm.partner_potentials_case1(DEFAULT_TORUS, g)
    return max(float(np.max(np.abs(w ** 2 - wp - v))),
               float(np.max(np.abs(w ** 2 + wp - v1))))


@cache
def _intertwining_probe():
    """The 2048-point grid and the compact test functions of criterion 5."""
    g = Grid(2048)
    return g, numerics._frozen(grids.compact_test_functions(g, [3, 4, 6], rng=5, n_functions=4))[0]


def factorization_pair_residual() -> float:
    """Intertwining of A^H A and A A^H by the factor A: exact by associativity."""
    g, phis = _intertwining_probe()
    a_pair = pseudoherm.superpotential_case1(geometry.TorusParams(a=0.9, c=2.0), g)
    a, a_h = a_pair.apply, a_pair.apply_adjoint
    return pseudoherm.intertwining_residual(a, lambda f: a_h(a(f)), lambda f: a(a_h(f)), g, phis)


def closed_form_pair_residual() -> float:
    """The same factor against its closed-form partner potentials (stencil-limited)."""
    g, phis = _intertwining_probe()
    a_pair = pseudoherm.superpotential_case1(geometry.TorusParams(a=0.9, c=2.0), g)
    w, wp = pseudoherm.superpotential(0.9, g.points)
    return pseudoherm.intertwining_residual(
        a_pair.apply, operators.SampledOp(g, 1, 0, w ** 2 - wp).apply,
        operators.SampledOp(g, 1, 0, w ** 2 + wp).apply, g, phis)


def tabulated_intertwiner_residual() -> float:
    """Tabulated first-order intertwiner of the constant-velocity chain, to adjoint form."""
    g, phis = _intertwining_probe()
    herm_gauge = fields.hermitizing_quadratic_field(0.4, e=1.0, k=1)
    plus, _ = operators.decouple_constant_vf(DEFAULT_TORUS, herm_gauge, g)
    h_s = operators.SampledOp(g, 1, 0, plus.rho)  # sigma vanishes for this gauge
    eta2 = pseudoherm.eta2_case1(DEFAULT_TORUS, 0.0, g)
    return pseudoherm.intertwining_residual(eta2.apply, h_s.apply, h_s.apply_adjoint, g, phis)


def pdfv_intertwiner_residual() -> float:
    """Tabulated first-order intertwiner of the position-dependent chain, to adjoint form."""
    g = Grid(2048, -np.pi / 2 + 0.2, np.pi / 2 - 0.2, "dirichlet")
    phis = grids.compact_test_functions(g, [3, 5], rng=6, n_functions=4, margin=0.35)
    gauge = fields.linear_ring_field(a2=0.2, e=1.0, k=1)
    plus, _ = operators.decouple_pdfv(DEFAULT_TORUS, gauge, g)
    eta2 = pseudoherm.eta2_case2(DEFAULT_TORUS, 0.0, g)
    return pseudoherm.intertwining_residual(eta2.apply, plus.apply, plus.apply_adjoint, g, phis)


def effective_potential_gap() -> float:
    """Effective potential of the cosine-velocity case against its Rosen-Morse form."""
    g = Grid(2000, -np.pi / 2 + 0.1, np.pi / 2 - 0.1, "dirichlet")
    veff = pseudoherm.veff_case2(DEFAULT_TORUS, g)
    return float(np.max(np.abs(veff(fields.linear_ring_field(a2=0.2, e=1.0, k=1))
                               - pseudoherm.rosen_morse_form(DEFAULT_TORUS, 0.2, 1.0, g.points))))


def prefactor_residual(sign: float, n: int = 2000) -> float:
    """Worst first-derivative residual of the case-2 gauge prefactor h (cosine velocity).

    The minus sector SL of the position-dependent problem (linear ring field,
    a2 = 0.2) is conjugated by h and probed on compact test functions:
    (1/h) SL(h phi) against -phi'' + V_num phi, with V_num = (1/h) SL(h), so a
    surviving first-derivative term shows up as a residual.  The ring field
    has A_x = 0, so h'/h = (tan x - sign a^2 sin x)/2, anchored at h(0) = 1:
    h = exp(sign a^2 (cos x - 1)/2) / sqrt|cos x|.  sign = +1 is the printed
    reading; sign = -1 gives h'/h = (sigma - V'/V)/2, which removes the term.
    """
    g = Grid(n, -np.pi / 2 + 0.1, np.pi / 2 - 0.1, "dirichlet")
    _, minus = operators.decouple_pdfv(DEFAULT_TORUS, fields.linear_ring_field(a2=0.2), g)
    x = g.points
    h = np.exp(0.5 * (sign * DEFAULT_TORUS.a ** 2 * (np.cos(x) - 1.0)
                      - np.log(np.abs(np.cos(x)))))
    v_num = minus.apply(h.astype(complex)) / h
    phi = grids.compact_test_functions(g, modes=[2, 3, 5], rng=11, n_functions=3,
                                       margin=0.2 * (g.x_max - g.x_min))
    resid = minus.apply(h * phi) / h + grids.diff2(phi, g) - v_num * phi
    return float(np.max(np.max(np.abs(resid[:, 10:-10]), axis=1)
                        / np.max(np.abs(phi), axis=1)))


def wavefunction_residual() -> float:
    """Worst wavefunction-equation residual of levels n = 0..2 (alpha=1, C1=0)."""
    return max(analytic.case2_ode_residual(n, 1.0, 0.0) for n in range(3))


def _worst_gap(values, exact) -> float:
    """Worst gap of values[i] to exact[i], relative to max(1, |exact[i]|)."""
    return max(abs(v - e) / max(1.0, abs(e)) for v, e in zip(values, exact))


def printed_display_gap() -> float:
    """|a_p b_p - ab| of the printed 2F1 parameters at the level n = 0 (alpha=1, C1=0).

    The derivative-free coefficient of the hypergeometric reduction pins the
    product of the upper parameters to ab = eps^2 + (alpha^2 - 4 C1)/4 + 2 beta,
    which the double root 1/2 + 2 beta meets.  The printed display
    a_p, b_p = 1/2 + 2 beta +- sqrt(5 + 16 C1 - 4 alpha^2 + 8 beta + 16 beta^2
    - 16 eps^2)/2 gives +-i here, where ab = 0: the gap is exactly 1.
    """
    alpha, c1 = 1.0, 0.0
    sol = analytic.case2_quantize(0, alpha, c1)
    eps, beta = sol.epsilon_n, sol.beta
    half_rad = 0.5 * np.sqrt(complex(5.0 + 16.0 * c1 - 4.0 * alpha ** 2 + 8.0 * beta
                                     + 16.0 * beta ** 2 - 16.0 * eps ** 2))
    a_p, b_p = 0.5 + 2.0 * beta + half_rad, 0.5 + 2.0 * beta - half_rad
    return float(abs(a_p * b_p - (eps ** 2 + (alpha ** 2 - 4.0 * c1) / 4.0 + 2.0 * beta)))


def partner_oracle_match() -> float:
    """Levels n = 1..3 (alpha=1, C1=0): eps_n^2 is level n-1 of 1 + a2 tan x + (3/4) tan^2 x."""
    sols = [analytic.case2_quantize(n, 1.0, 0.0) for n in range(1, 4)]
    return _worst_gap([numerics.rosen_morse_levels(1.0, sol.a2, 1.5, sol.n)[-1] for sol in sols],
                      [sol.epsilon_n ** 2 for sol in sols])


def pdfv_levels(alpha, n_max, grid) -> tuple[list, list, list, list]:
    """Columns (n, lambda_fd, eps_n^2, rel deviation) for the levels n = 0..n_max.

    Level n sets C1 and the linear ring amplitude so that it is quantized,
    then solves the cosine-velocity effective potential on `grid` with
    Dirichlet walls.  With a2 = alpha (n + 1/2)/(e a) that potential depends on
    alpha alone, so the default torus and k = e = 1 are used.  One effective-potential
    map serves every level.
    """
    veff = pseudoherm.veff_case2(DEFAULT_TORUS, grid)
    levels, fd, eps_sq = list(range(n_max + 1)), [], []
    for n in levels:
        sol = analytic.case2_quantize(n, alpha, alpha ** 2 * (n + 0.5) ** 2 - 0.5)
        gauge_n = fields.linear_ring_field(a2=alpha * (n + 0.5) / DEFAULT_TORUS.a)
        m = numerics.discretize_schrodinger(veff(gauge_n), grid)
        eps_sq.append(sol.epsilon_n ** 2)
        fd.append(numerics.eig_sym_tridiag(m, n + 1, first=n, near=[eps_sq[n]]).eigenvalues[0])
    return levels, fd, eps_sq, [abs(f - e) / max(1.0, e) for f, e in zip(fd, eps_sq)]


def critical_pdfv_match() -> float:
    """`pdfv_levels` n = 0..3 at alpha = 1 against collocation on their Rosen-Morse form.

    There `pseudoherm.rosen_morse_form` is lam^2 - 1/2 + lam tan x - tan^2 x/4
    with lam = a a2 e = n + 1/2: a wall at the critical s = 1/2.
    """
    c0 = [(n + 0.5) ** 2 - 0.5 for n in range(4)]
    return _worst_gap([numerics.rosen_morse_levels(c, n + 0.5, 0.5, n + 1)[n]
                       for n, c in enumerate(c0)],
                      [analytic.case2_quantize(n, 1.0, c).epsilon_n ** 2 for n, c in enumerate(c0)])


def truncated_domain_match() -> float:
    """Worst level deviation n = 0..3 with the walls moved in by 1e-3 (8000 points)."""
    g = Grid(8000, -np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, "dirichlet")
    return max(pdfv_levels(1.0, 3, g)[3])


@cache
def _morse_params() -> pseudoherm.MathieuParams:
    """The real Morse branch on the constrained ring at a = 0.5."""
    return pseudoherm.real_morse_branch(pseudoherm.constrained_torus(0.5))


@cache
def _morse_chain() -> analytic.MorseChain:
    """The Morse chain of `_morse_params` at the transformation scale 1."""
    return analytic.case1_transform_chain(_morse_params(), 1.0)


def _morse_gap(energies) -> float:
    """Worst relative gap of energies[n] to the derived Morse levels n = 0, 1 (both above 1)."""
    return _worst_gap(energies, [analytic.morse_energy_exact(n, _morse_params())[0].real
                                 for n in range(2)])


def morse_collocation_gap() -> float:
    """Derived Morse energies n = 0, 1 against half-line collocation from t = -4 (V > 7000)."""
    return _morse_gap(numerics.half_line_levels(_morse_chain().potential, -4.0, 4.0, 2))


def morse_tabulated_gap() -> float:
    """Tabulated Morse energies n = 0, 1 against the derived ones, relative to the latter."""
    return _morse_gap([analytic.case1_energy(n, 1.0, _morse_params()) for n in range(2)])


def morse_truncation_gap() -> float:
    """Truncation gap of the Morse chain's quadratic expansion."""
    return _morse_chain().truncation_error


def special_function_gap() -> float:
    """Terminating 2F1 and Laguerre (orders 0..20) against brute-force oracles."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in range(21):
        # arguments kept where the alternating sum is well conditioned
        al = complex(rng.uniform(-0.5, 2.0), 0.3 * rng.uniform(-1, 1))
        xx = complex(rng.uniform(0.0, 1.5), 0.3 * rng.uniform(-1, 1))
        lg, lr = analytic.laguerre_gen(n, al, xx), analytic.laguerre_recurrence(n, al, xx)
        worst = max(worst, abs(lg - lr) / max(1.0, abs(lr)))
        b = rng.uniform(0.5, 3)
        cc = rng.uniform(0.5, 3)
        # inside the unit disk, where term magnitudes stay controlled
        radius, angle = rng.uniform(0.0, 0.9), rng.uniform(0.0, 2 * np.pi)
        ss = radius * complex(np.cos(angle), np.sin(angle))
        total, term = 1.0 + 0j, 1.0 + 0j  # brute-force finite sum
        for m in range(n):
            term *= (-n + m) * (b + m) / ((cc + m) * (m + 1)) * ss
            total += term
        worst = max(worst, abs(analytic.gauss_2f1(-n, b, cc, ss) - total)
                    / max(1.0, abs(total)))
    return worst


def dirichlet_benchmark(grid, potential, exact) -> float:
    """Worst relative error of the lowest Dirichlet levels of -psi'' + V psi, started at `exact`."""
    m = numerics.discretize_schrodinger(potential, grid)
    return _worst_gap(numerics.eig_sym_tridiag(m, len(exact), near=exact).eigenvalues, exact)


def hill_order() -> float:
    """Convergence order of the periodic FD spectrum to Hill's, n = 512 -> 1024 -> 2048.

    It always measures the default scenario's Mathieu-form potential (a=0.5,
    c=2, e=1, C2=0.2), whatever the scenario of the run that records it; the
    mean log2 error ratio of the six lowest levels.
    """
    potential = pseudoherm.mathieu_form(DEFAULT_TORUS, 1.0, 0.2).potential
    exact = numerics.hill_eigenvalues(potential, 6)
    errs = []
    for n in (512, 1024, 2048):
        m = numerics.discretize_schrodinger(potential, Grid(n))
        errs.append(np.abs(numerics.eig_sym_tridiag(m, 6).eigenvalues - exact))
    return _observed_order(errs)


def simpson_slope() -> float:
    """Mean log2 error ratio of Simpson's rule for sin on [0, pi], 101 -> 201 -> 401 points."""
    errs = []
    for n in (101, 201, 401):
        t = np.linspace(0.0, np.pi, n)
        errs.append(abs(numerics.integrate_simpson(np.sin(t), t[1] - t[0]) - 2.0))
    return _observed_order(errs)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def registry(torus=DEFAULT_TORUS, angles=np.linspace(0.0, 2.0 * np.pi, 181),
             negative_control: bool = False) -> tuple[Check, ...]:
    """Every check, in report order.

    The geometry identities are measured on `torus` at `angles`; the
    factorization identity uses a superpotential scaled by 1.01 under
    `negative_control`.  Every other check pins its own parameters.
    """
    return (
        Check("geometry: frame identity", 1,
              partial(frame_identity_gap, torus, angles), 1e-13, runs=("verify", "geometry")),
        Check("geometry: christoffel oracle convergence order", 1,
              partial(christoffel_order, torus, angles), 1.9, "above", runs=("geometry",)),
        Check("operators: squaring consistency @1024", 2, squaring_consistency, 1e-6),
        Check("operators: defect with hermitizing gauge", 3,
              partial(kernel_defect, fields.hermitizing_quadratic_field(0.4, e=1.0, k=1)),
              1e-10),
        Check("operators: defect with real unit gauge", 3,
              partial(kernel_defect, fields.GaugeField(kind="real_cos_ax")), 1e-3, "above"),
        Check("operators: defect with zero gauge", 3,
              partial(kernel_defect, fields.zero_field()), 1e-10,
              status="known",
              note="known discrepancy: spin term obstructs flat self-adjointness"),
        Check("factorization: W^2 -+ W' identities", 4,
              partial(factorization_defect, 1.01 if negative_control else 1.0), 1e-12),
        Check("intertwining: factorization pair residual @2048", 5,
              factorization_pair_residual, 1e-6),
        Check("intertwining: closed-form pair residual", 5, closed_form_pair_residual,
              status="info", note="stencil-limited; second-order convergent"),
        Check("intertwining: tabulated first-order coefficient", 5,
              tabulated_intertwiner_residual, 1e-6, status="known",
              note="known discrepancy: no first-order intertwiner exists here"),
        Check("intertwining: tabulated position-dependent coefficient", 5,
              pdfv_intertwiner_residual, 1e-6, status="known", runs=(),
              note="known discrepancy: no first-order intertwiner exists here"),
        Check("pdfv: effective potential closed-form gap", 6, effective_potential_gap, 1e-10),
        Check("pdfv: sigma-half prefactor first-derivative residual", 6,
              partial(prefactor_residual, -1.0), 1e-4, runs=()),
        Check("pdfv: printed prefactor first-derivative residual", 6,
              partial(prefactor_residual, 1.0), 1e-1, "above", runs=(),
              note="the printed reading leaves a first-derivative term"),
        Check("quantization: wavefunction equation residual", 7, wavefunction_residual, 1e-6),
        Check("quantization: partner-oracle spectrum match", 7, partner_oracle_match, 1e-3),
        Check("quantization: printed 2F1 parameter product gap", 7, printed_display_gap,
              1e-2, "above", runs=(),
              note="the printed parameters miss the product the equation pins"),
        Check("quantization: truncated-domain spectrum match @8000", 7,
              truncated_domain_match, 1e-3, status="known", runs=(),
              note="known discrepancy: the wall coupling is critical, so truncation "
                   "shifts levels by O(1/log(1/delta))"),
        Check("quantization: critical pdfv levels vs collocation", 7, critical_pdfv_match,
              1e-10),
        Check("morse chain: derived closed form vs collocation", 8, morse_collocation_gap,
              1e-4),
        Check("morse chain: tabulated energy formula gap", 8, morse_tabulated_gap, 1e-4,
              status="known",
              note="known discrepancy: tabulated formula is not an eigenvalue here"),
        Check("morse chain: quadratic-expansion truncation gap", 8, morse_truncation_gap,
              status="info", note="expansion quality, no threshold set"),
        Check("special functions: oracle agreement (orders <= 20)", 9,
              special_function_gap, 1e-13),
        Check("numerics: box benchmark", 10,
              partial(dirichlet_benchmark, Grid(4000, 0.0, np.pi, "dirichlet"), np.zeros_like,
                      [1, 4, 9, 16]), 1e-5),
        Check("numerics: oscillator benchmark", 10,
              partial(dirichlet_benchmark, Grid(6000, -10.0, 10.0, "dirichlet"), np.square,
                      [1, 3, 5]), 1e-5),
        Check("numerics: periodic FD order vs Hill's method", 10, hill_order, (1.9, 2.1),
              "window", runs=("spectrum constant_vf",)),
        Check("numerics: simpson error slope", 10, simpson_slope, (3.8, 4.2), "window"),
    )


def record_run(report: RunReport, run: str, *registry_args) -> None:
    """Record every check of `registry(*registry_args)` whose `runs` names `run`."""
    for check in registry(*registry_args):
        if run in check.runs:
            check.record(report)
