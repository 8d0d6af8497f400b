import inspect

import numpy as np
import pytest

from torusdirac import checks, pseudoherm
from torusdirac.checks import squaring_consistency
from torusdirac.errors import GridMismatch, VelocityZero
from torusdirac.fields import (
    eval_fermi_velocity,
    eval_gauge,
    hermitizing_quadratic_field,
    linear_ring_field,
    quadratic_ring_field,
    zero_field,
    GaugeField,
)
from torusdirac.geometry import TorusParams, radius_profile
from torusdirac import operators
from torusdirac.grids import Grid, band_limited, diff1, diff2
from torusdirac.operators import (
    SampledOp,
    _coefficients,
    _spinor_norms,
    decouple_constant_vf,
    decouple_pdfv,
    dirac_operator,
    hermiticity_defect,
    squaring_discrepancy,
)

P = TorusParams(a=0.5, c=2.0)
G = Grid(256)


def spinor(grid, modes, seed):
    """A (2, n) band-limited spinor."""
    return band_limited(grid, modes, rng=seed, n_functions=2)


def norm(v, grid):
    """The L2 norm (weight h) of one probe."""
    return float(np.sqrt(grid.h) * np.linalg.norm(v))


def test_offdiag_zero_field_values():
    w1, _, _, _ = _coefficients(P, zero_field(), np.array([np.pi / 2, 0.0]))
    assert w1[0] == pytest.approx(0.25)
    assert w1[1] == pytest.approx(0.0, abs=1e-16)


def test_offdiag_hermitizing_cancels_w1():
    # the imaginary gauge term exactly cancels the geometric sine term
    w1, _, _, _ = _coefficients(P, hermitizing_quadratic_field(C2=0.3, e=1.0),
                                np.array([0.3, np.pi / 2, 2.5]))
    assert np.max(np.abs(w1)) < 1e-15


def test_apply_dirac_offdiagonal_structure():
    psi1 = band_limited(G, [2, 3], rng=0)[0]
    out = dirac_operator(P, zero_field(), G)(np.array([psi1, np.zeros(G.n)]))
    # first output component only sees the second input component
    assert np.max(np.abs(out[0])) == 0.0
    assert np.max(np.abs(out[1])) > 0.0


def test_apply_dirac_constant_spinor_literal_convention():
    # the kernel's second row is the literal reading of the printed row, negated
    out = dirac_operator(P, GaugeField(kind="zero", k=0), G)(np.ones((2, G.n)))
    w1 = 0.5 * P.a * np.sin(G.points)
    assert np.max(np.abs(out[0] - w1)) < 1e-14
    assert np.max(np.abs(out[1] + w1)) < 1e-14


def test_apply_dirac_grid_guards():
    # an operand whose last axis is not the grid's n samples is rejected: one sample
    # would broadcast against the (n,) coefficients, another grid's samples would not
    other = Grid(512)
    op = SampledOp(other, 1, 0, 1.0)
    dirac = dirac_operator(P, zero_field(), other)
    for length in (1, 256):
        psi = np.ones((2, length), complex)
        for apply, operand in ((dirac, psi), (op.apply, psi[0]), (op.apply_adjoint, psi[0]),
                               (op.apply, psi)):
            with pytest.raises(GridMismatch):
                apply(operand)
    # a certifier's stack of 2 x 256 samples is not one 512-sample probe
    with pytest.raises(GridMismatch):
        squaring_discrepancy(P, zero_field(), other, np.ones((2, 2, 256), complex))
    with pytest.raises(GridMismatch):
        dirac_operator(P, zero_field(), Grid(256, 0.1, 1.0, "dirichlet"))


def test_decouple_zero_field_closed_forms():
    g = Grid(512)
    plus, minus = decouple_constant_vf(P, GaugeField(kind="zero", k=0), g)
    x = g.points
    a = P.a
    assert np.max(np.abs(plus.sigma - a ** 2 * np.sin(x))) == 0.0
    rho = -(a ** 4 / 4) * np.sin(x) ** 2 + (a ** 2 / 2) * np.cos(x)
    assert np.max(np.abs(plus.rho - rho)) < 1e-15
    assert np.max(np.abs(minus.rho - rho)) < 1e-15  # k = 0: sectors coincide


def test_sector_swap_is_bit_exact():
    g = Grid(256)
    f = quadratic_ring_field(C2=0.3, e=1.0, k=2)
    f_swapped = GaugeField(kind="quadratic_au", C2=-0.3, e=1.0, k=-2)
    plus, minus = decouple_constant_vf(P, f, g)
    plus2, minus2 = decouple_constant_vf(P, f_swapped, g)
    assert np.array_equal(plus.rho, minus2.rho)
    assert np.array_equal(minus.rho, plus2.rho)
    assert np.array_equal(plus.sigma, plus2.sigma)


def test_sector_difference_closed_form():
    g = Grid(512)
    plus, minus = decouple_constant_vf(P, zero_field(), g)
    x = g.points
    r = radius_profile(P, x)
    rp = -P.a * np.sin(x)
    expected = -2.0 * 1 * P.a * rp / r ** 2
    assert np.max(np.abs((plus.rho - minus.rho) - expected)) < 1e-14


def test_squaring_oracle_and_refinement():
    # second-order convergence of the criterion-2 measurement
    d1, d2 = (squaring_consistency(n, seeds=[0]) for n in (1024, 2048))
    assert np.log2(d1 / d2) > 1.9


def _stack(spinors):
    """One (2, S, n) spinor stack whose rows are the given (2, n) spinors."""
    return np.stack(spinors, axis=1)


def _scalar_squaring(gauge, g, sp):
    """The squaring discrepancy of one probe, written with scalar norms and squares.

    The decoupled problems take the first-derivative stencil twice, d1(d1 v),
    in place of the Laplacian.
    """
    plus, minus = decouple_constant_vf(P, gauge, g)
    dirac = dirac_operator(P, gauge, g)
    hh = dirac(dirac(sp))
    lhs1, lhs2 = P.a ** 2 * hh[0], P.a ** 2 * hh[1]
    rhs1, rhs2 = (-diff1(diff1(v, g), g) + op.sigma * diff1(v, g) + op.rho * v
                  for op, v in ((plus, sp[0]), (minus, sp[1])))
    num = np.sqrt(np.linalg.norm(lhs1 - rhs1) ** 2 + np.linalg.norm(lhs2 - rhs2) ** 2)
    den = np.sqrt(np.linalg.norm(rhs1) ** 2 + np.linalg.norm(rhs2) ** 2)
    return float(num / den)


def _scalar_defect(gauge, g, f, h):
    """The flat self-adjointness defect of one pair, written with scalar abs and squares."""
    hf, hh = dirac_operator(P, gauge, g)(f), dirac_operator(P, gauge, g)(h)
    inner = [g.h * (np.sum(np.conj(u[0]) * v[0]) + np.sum(np.conj(u[1]) * v[1]))
             for u, v in ((f, hh), (hf, h))]
    norms = [float(np.sqrt(norm(s[0], g) ** 2 + norm(s[1], g) ** 2)) for s in (f, h)]
    return float(abs(inner[0] - inner[1]) / (norms[0] * norms[1]))


def test_squaring_discrepancy_on_a_stack_is_the_max_of_the_probes():
    # 9 rows of 1024 samples are taken in three blocks
    f, g = quadratic_ring_field(C2=0.3, e=1.0, k=1), Grid(1024)
    probes = [spinor(g, [3, 4, 5], s) for s in range(9)]
    singles = [squaring_discrepancy(P, f, g, sp) for sp in probes]
    assert squaring_discrepancy(P, f, g, _stack(probes)) == max(singles)


@pytest.mark.parametrize("gauge", [hermitizing_quadratic_field(C2=0.4, e=1.0, k=1),
                                   GaugeField(kind="real_cos_ax")], ids=["herm", "real"])
def test_hermiticity_defect_on_a_stack_is_the_max_of_the_pairs(gauge):
    fs = [spinor(G, [1, 2, 3], s) for s in range(6)]
    gs = [spinor(G, [2, 4], 50 + s) for s in range(6)]
    singles = [hermiticity_defect(P, gauge, G, [pair]) for pair in zip(fs, gs)]
    assert hermiticity_defect(P, gauge, G, [(_stack(fs), _stack(gs))]) == max(singles)


def test_probes_keep_the_values_of_the_scalar_formulas():
    # an array square or an np.abs of a complex array can differ in the last
    # bit from the scalar operation; among many small probes some meet such
    # inputs, and seed 1491 is one whose norm an array square changes
    g, f = Grid(16), quadratic_ring_field(C2=0.3, e=1.0, k=1)
    us = [spinor(g, [1, 2, 3], s) for s in [*range(300), 1491]]
    vs = [spinor(g, [2, 4], 1000 + s) for s in range(301)]
    assert _spinor_norms(_stack(us), g).tolist() == [
        float(np.sqrt(norm(u[0], g) ** 2 + norm(u[1], g) ** 2)) for u in us]
    for u, v in zip(us, vs):
        assert squaring_discrepancy(P, f, g, u) == _scalar_squaring(f, g, u)
        assert hermiticity_defect(P, f, g, [(u, v)]) == _scalar_defect(f, g, u, v)


def test_coefficients_are_read_once_per_call_whatever_the_stack_size(monkeypatch):
    counts = []
    real = operators._coefficients

    def counting(*args):
        counts[-1] += 1
        return real(*args)

    monkeypatch.setattr(operators, "_coefficients", counting)
    f, g = quadratic_ring_field(C2=0.3, e=1.0, k=1), Grid(1024)
    for size in (1, 9):  # 9 rows of 1024 samples are squared in three blocks
        probes = [spinor(g, [3, 4], s) for s in range(size)]
        counts.append(0)
        squaring_discrepancy(P, f, g, _stack(probes))
        counts.append(0)
        hermiticity_defect(P, f, g, [(_stack(probes), _stack(probes[::-1]))])
    assert counts[0::2] == [2, 2]
    assert counts[1::2] == [1, 1]


def test_hermiticity_contrast():
    g = Grid(256)
    pairs = [(spinor(g, [1, 2, 3], s), spinor(g, [2, 4], 50 + s)) for s in range(6)]
    herm = hermitizing_quadratic_field(C2=0.4, e=1.0, k=1)
    assert hermiticity_defect(P, herm, g, pairs) < 1e-12
    real_ax = GaugeField(kind="real_cos_ax")
    assert hermiticity_defect(P, real_ax, g, pairs) > 1e-3
    # the geometric sine term alone already obstructs flat self-adjointness;
    # documented, so the zero-gauge defect is large as well
    assert hermiticity_defect(P, zero_field(), g, pairs) > 1e-3


def test_pdfv_reduces_to_the_constant_vf_problem():
    # bit for bit: sigma - t and F + G t, with sigma and F the constant-velocity
    # coefficients, G = a (W1 +- Q) and t = V'/V
    g = Grid(200, -np.pi / 2 + 0.2, np.pi / 2 - 0.2, "dirichlet")
    v, vp, _ = eval_fermi_velocity(P, g.points)
    t = vp / v
    for f in (quadratic_ring_field(C2=0.3, e=1.0, k=1), linear_ring_field(a2=0.15, e=1.0, k=2),
              hermitizing_quadratic_field(C2=0.4, e=1.0, k=1)):
        w1, q, _, _ = _coefficients(P, f, g.points)
        for const, pdfv, g_pm in zip(decouple_constant_vf(P, f, g), decouple_pdfv(P, f, g),
                                     (P.a * (w1 + q), P.a * (w1 - q))):
            assert np.array_equal(pdfv.sigma, const.sigma - t)
            assert np.array_equal(pdfv.rho, const.rho + g_pm * t)


def _f_and_g(gauge, grid):
    """((F+, G+), (F-, G-)) read from the coefficients of the decoupled problems.

    The constant-velocity rho is F; the cosine velocity's rho is F + G V'/V.
    """
    v, vp, _ = eval_fermi_velocity(P, grid.points)
    return [(const.rho, (cos.rho - const.rho) / (vp / v))
            for const, cos in zip(decouple_constant_vf(P, gauge, grid),
                                  decouple_pdfv(P, gauge, grid))]


def test_pdfv_swap_rule_for_f_and_g():
    g = Grid(200, -np.pi / 2 + 0.2, np.pi / 2 - 0.2, "dirichlet")
    f = linear_ring_field(a2=0.15, e=1.0, k=2)
    # k -> -k, A_u -> -A_u is again a linear ring field with flipped parameters
    f_sw = linear_ring_field(a2=-0.15, e=1.0, k=-2)
    _, au_sw, _, _ = eval_gauge(f_sw, P, g.points)
    _, au, _, _ = eval_gauge(f, P, g.points)
    assert np.max(np.abs(au_sw + au)) < 1e-15
    (f_plus, g_plus), _ = _f_and_g(f, g)
    _, (f_minus2, g_minus2) = _f_and_g(f_sw, g)
    assert np.max(np.abs(f_plus - f_minus2)) < 1e-12
    assert np.max(np.abs(g_plus - g_minus2)) < 1e-12


def test_pdfv_coefficient_recomputation_oracle():
    # second implementation path: evaluate each term of F and G separately
    g = Grid(300, -np.pi / 2 + 0.1, np.pi / 2 - 0.1, "dirichlet")
    a, e, k, a2 = P.a, 1.0, 1, 0.1
    f = linear_ring_field(a2=a2, e=e, k=k)
    plus, _ = decouple_pdfv(P, f, g)
    x = g.points
    r = radius_profile(P, x)
    rp = -a * np.sin(x)
    au = a2 * r - k / (a * e)
    aup = a2 * rp
    w1 = a / 2 * np.sin(x)
    w1p = a / 2 * np.cos(x)
    q = (k + a * e * au) / r
    qp = (a * e * aup) / r - (k + a * e * au) * rp / r ** 2
    f_plus = a * (w1p + qp) - a * a * (w1 - q) * (w1 + q)
    g_plus = a * (w1 + q)
    v = a * np.cos(x)
    vp = -a * np.sin(x)
    assert np.all(np.isfinite(plus.rho))
    (f_read, g_read), _ = _f_and_g(f, g)
    assert np.max(np.abs(f_read - f_plus)) < 1e-13
    assert np.max(np.abs(g_read - g_plus)) < 1e-13
    assert np.max(np.abs(plus.rho - (f_plus + g_plus * vp / v))) < 1e-13


def test_pdfv_velocity_zero_guard():
    # grid built so an interior point lands exactly on the velocity zero
    g = Grid(63, np.pi / 2 - 0.5, np.pi / 2 + 0.5, "dirichlet")
    assert np.min(np.abs(g.points - np.pi / 2)) < 1e-15
    with pytest.raises(VelocityZero):
        decouple_pdfv(P, zero_field(), g)


PERIODIC, DIRICHLET = Grid(256), Grid(300, -1.3, 1.3, "dirichlet")


@pytest.mark.parametrize("grid, form", [
    pytest.param(PERIODIC, "second-order", id="periodic"),
    pytest.param(DIRICHLET, "second-order", id="dirichlet"),
    pytest.param(PERIODIC, "first-order", id="periodic-first-order"),
    pytest.param(DIRICHLET, "first-order", id="dirichlet-first-order"),
    pytest.param(PERIODIC, "multiplicative", id="periodic-multiplicative"),
    pytest.param(DIRICHLET, "multiplicative", id="dirichlet-multiplicative"),
])
def test_sl_apply_adjoint_is_the_conjugate_transpose(grid, form):
    # <A u, v> = <u, A^H v> for random complex u, v and complex coefficients
    rng = np.random.default_rng(7)
    u, v, sigma, rho = (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
                        for _ in range(4))
    p, sigma = {"second-order": (1, sigma), "first-order": (0, 1),
                "multiplicative": (0, 0)}[form]
    op = SampledOp(grid, p, sigma, rho)
    au = op.apply(u)
    lhs = np.vdot(au, v)
    rhs = np.vdot(u, op.apply_adjoint(v))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(au) * np.linalg.norm(v)



def test_vanishing_sigma_skips_the_first_derivative(monkeypatch):
    # the Schrodinger form spends no first-derivative stencil on a zero sigma
    g = Grid(64)
    v = np.exp(1j * g.points) + np.cos(3 * g.points)
    rho = 2.0 + np.sin(g.points)
    op = SampledOp(g, 1, 0, rho)

    def forbidden(*args):
        raise AssertionError("diff1 called for a zero sigma")

    monkeypatch.setattr(operators, "diff1", forbidden)
    want = -diff2(v, g) + rho * v
    assert np.array_equal(op.apply(v), want)
    assert np.array_equal(op.apply_adjoint(v), want)


@pytest.mark.parametrize("module", [operators, pseudoherm, checks],
                         ids=lambda m: m.__name__.rpartition(".")[2])
def test_functions_read_k_and_e_from_the_gauge_field(module):
    # one home for the quantum numbers: no public function takes a gauge field
    # together with a k or an e that could disagree with it
    taking_gauge = {}
    for name, fn in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        if fn.__module__ != module.__name__:
            continue
        params = set(inspect.signature(fn).parameters)
        if "gauge" in params:
            taking_gauge[name] = params & {"k", "e"}
    assert taking_gauge
    assert {name: both for name, both in taking_gauge.items() if both} == {}
