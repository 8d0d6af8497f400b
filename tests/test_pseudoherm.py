import warnings

import numpy as np
import pytest

from torusdirac.errors import DomainSingularity, FamilyMismatch
from torusdirac.fields import (
    GaugeField,
    eval_fermi_velocity,
    eval_gauge,
    hermitizing_quadratic_field,
    linear_ring_field,
    quadratic_ring_field,
    zero_field,
)
from torusdirac.geometry import TorusParams, radius_derivative, radius_profile
from torusdirac.grids import Grid, compact_test_functions
from torusdirac.operators import SampledOp, decouple_constant_vf
from torusdirac.pseudoherm import (
    constrained_torus,
    eta2_case1,
    eta2_case2,
    factorization_constants,
    hermitian_counterpart_case1,
    intertwining_residual,
    mathieu_form,
    partner_potentials_case1,
    real_morse_branch,
    rosen_morse_form,
    sqrt_am1,
    superpotential,
    superpotential_case1,
    veff_case2,
)

P = TorusParams(a=0.5, c=2.0)
# two periods, n odd: x and x + 2 pi are both grid points (index shift 256)
TWO_PERIODS = Grid(511, 0.0, 4 * np.pi, "dirichlet")


def _eta1_case1(params, grid):
    """Multiplicative similarity factor i(2-a)/(2a) + (i sqrt(a-1)/a) sin x."""
    a = params.a
    s = sqrt_am1(a)
    return SampledOp(grid, 0, 0, 1j * (2.0 - a) / (2.0 * a) + 1j * s / a * np.sin(grid.points))


def period_gap(values):
    """max |f(x + 2 pi) - f(x)| over the TWO_PERIODS grid."""
    shift = (TWO_PERIODS.n + 1) // 2
    return np.max(np.abs(values[shift:] - values[:TWO_PERIODS.n - shift]))


# ---------------------------------------------------------------------------
# constant-velocity chain
# ---------------------------------------------------------------------------

def test_eta2_case1_coefficient():
    g = Grid(128)
    op = eta2_case1(P, 0.0, g)
    x = g.points
    a4 = P.a ** 4
    expected = a4 * x / 4 - P.a ** 2 / 2 * np.sin(x) - a4 / 8 * np.sin(2 * x)
    assert np.max(np.abs(op.rho - expected)) < 1e-15
    # secular: the a^4 x/4 term grows by pi a^4/2 over a period
    assert period_gap(eta2_case1(P, 0.0, TWO_PERIODS).rho) == pytest.approx(np.pi * P.a ** 4 / 2)
    assert abs(op.rho[0]) < 1e-15  # value at x = 0 with C1 = 0
    tiny = eta2_case1(TorusParams(a=1e-6, c=2.0), 0.0, g)
    assert np.max(np.abs(tiny.rho)) < 1e-12


def test_counterpart_k_cancellation():
    # constant A_u = -k/(a e): every k-dependent term cancels exactly
    g = Grid(128)
    f = quadratic_ring_field(C2=0.0, e=1.0, k=5)
    v = hermitian_counterpart_case1(P, f, g)
    assert np.max(np.abs(v)) < 1e-13


def test_counterpart_matches_trig_polynomial():
    g = Grid(512)
    f = quadratic_ring_field(C2=1.0, e=1.0, k=1)
    v = hermitian_counterpart_case1(P, f, g)
    poly = mathieu_form(P, 1.0, 1.0).potential(g.points)
    assert np.max(np.abs(v - poly)) < 1e-13
    # periodicity
    assert period_gap(hermitian_counterpart_case1(P, f, TWO_PERIODS)) < 1e-13


def test_counterpart_family_guard():
    g = Grid(64)
    with pytest.raises(FamilyMismatch):
        hermitian_counterpart_case1(P, zero_field(), g)


def test_mathieu_form_zero_and_rotation():
    mf0 = mathieu_form(P, 1.0, 0.0)
    assert mf0.A_m == mf0.B_m == mf0.C_m == mf0.D_m == 0.0
    mf = mathieu_form(P, 1.0, 0.7)
    mf_rot = mathieu_form(P, 1.0, 0.7j)
    assert mf_rot.A_m == pytest.approx(-mf.A_m)
    assert mf_rot.B_m == pytest.approx(-mf.B_m)
    assert mf_rot.D_m == pytest.approx(-mf.D_m)
    assert mf_rot.C_m == pytest.approx(1j * mf.C_m)


def test_mathieu_real_branch():
    a = 0.5
    c2 = 1j * np.sqrt(1 - a) / a ** 4
    mf = mathieu_form(P, 1.0, c2)
    assert abs(mf.B_m.imag) < 1e-13
    assert abs(mf.D_m.imag) < 1e-13
    assert abs(mf.C_m.real) < 1e-13  # purely imaginary tangent coefficient


def test_superpotential_constraint_branch():
    g = Grid(64)
    w = superpotential_case1(P, g)
    # a < 1: the branch on which the ring radius c is real and C2 imaginary
    c2, c = factorization_constants(P.a)
    assert np.imag(c) == 0.0 and np.real(c2) == 0.0
    assert np.real(c) == pytest.approx(0.25 / (2 * np.sqrt(0.5)), abs=1e-12)
    assert w.rho[0] == pytest.approx(-1.5j, abs=1e-15)  # x = 0 value at a = 1/2
    # a > 1: the branch on which C2 is real
    big_c2, big_c = factorization_constants(1.5)
    assert abs(np.imag(big_c2)) < 1e-14
    assert np.real(big_c) == 0.0


def test_real_morse_branch_on_the_constrained_ring():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        torus = constrained_torus(0.5)  # c < a, and the warning stays inside
    assert torus.c == np.real(factorization_constants(0.5)[1]) < torus.a
    m = real_morse_branch(torus)
    assert m.C_m == 0.0
    assert max(abs(np.imag(v)) for v in (m.A_m, m.B_m, m.D_m)) < 1e-13


def test_factorization_identities_pointwise():
    g = Grid(10000)
    x = g.points
    a = P.a
    s = sqrt_am1(a)
    w = -1j * s / a * np.sin(x) + 1j * (a - 2) / (2 * a)
    wp = -1j * s / a * np.cos(x)
    assert np.array_equal(superpotential(a, x), (w, wp))
    v, v1 = partner_potentials_case1(P, g)
    assert np.max(np.abs(w ** 2 - wp - v)) < 1e-12
    assert np.max(np.abs(w ** 2 + wp - v1)) < 1e-12
    # 1% perturbation blows the defect up by far more than 10^3
    defect = np.max(np.abs((1.01 * w) ** 2 - wp - v))
    assert defect > 1e3 * max(np.max(np.abs(w ** 2 - wp - v)), 1e-15)


def test_partner_difference_closed_form():
    g = Grid(256)
    v, v1 = partner_potentials_case1(P, g)
    s = sqrt_am1(P.a)
    assert np.max(np.abs((v - v1) - 2j * s / P.a * np.cos(g.points))) < 1e-14
    # at x = pi/2 the differing cosine term vanishes
    idx = np.argmin(np.abs(g.points - np.pi / 2))
    expected = (P.a - 2) / P.a ** 2 * s - 0.25
    assert v[idx] == pytest.approx(expected, abs=1e-6)
    assert v1[idx] == pytest.approx(expected, abs=1e-6)


def test_eta1_values():
    g = Grid(64)
    op2 = _eta1_case1(TorusParams(a=2.0, c=5.0), g)
    assert np.max(np.abs(op2.rho - 0.5j * np.sin(g.points))) < 1e-15
    op = _eta1_case1(P, g)
    assert op.rho[0] == pytest.approx(1j * (2 - P.a) / (2 * P.a), abs=1e-15)


# ---------------------------------------------------------------------------
# intertwining machinery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_schrodinger_op_rejects_non_finite_potential(bad):
    g = Grid(64)
    v = np.cos(g.points)
    v[7] = bad
    with pytest.raises(ValueError, match="non-finite"):
        SampledOp(g, 1, 0, v)


def test_identity_intertwiner_is_exact():
    g = Grid(256)
    h = SampledOp(g, 1, 0, np.cos(g.points))
    phis = compact_test_functions(g, [2, 3], rng=1, n_functions=2)
    assert intertwining_residual(lambda f: f, h.apply, h.apply, g, phis) == 0.0


def test_factorized_pair_intertwining_exact_and_sensitive():
    g = Grid(2048)
    w = superpotential_case1(TorusParams(a=0.9, c=2.0), g)
    a, a_h = w.apply, w.apply_adjoint
    h, h_partner = (lambda f: a_h(a(f))), (lambda f: a(a_h(f)))
    phis = compact_test_functions(g, [3, 4, 6], rng=5, n_functions=3)
    base = intertwining_residual(a, h, h_partner, g, phis)
    assert base < 1e-12
    wrong = SampledOp(g, 0, 1, 1.01 * w.rho)
    assert intertwining_residual(wrong.apply, h, h_partner, g, phis) > 1e3 * max(base, 1e-15)
    # the pair built from 1.01 W is intertwined exactly by its own factor: the
    # residual certifies associativity, not the superpotential
    b, b_h = wrong.apply, wrong.apply_adjoint
    assert intertwining_residual(b, lambda f: b_h(b(f)), lambda f: b(b_h(f)), g, phis) == 0.0


@pytest.mark.parametrize("grid", [Grid(1024), Grid(1024, -1.2, 1.2, "dirichlet")],
                         ids=["periodic", "dirichlet"])
def test_intertwining_residual_on_a_stack_is_the_max_of_the_probes(grid):
    w = superpotential_case1(TorusParams(a=0.9, c=2.0), grid)
    h = SampledOp(grid, 1, 0, np.cos(grid.points))
    h_target = SampledOp(grid, 1, 0.3, np.sin(grid.points))
    phis = compact_test_functions(grid, [3, 4, 6], rng=5, n_functions=4, margin=0.2)
    singles = []
    for phi in phis:
        lhs = w.apply(h.apply(phi))
        rhs = h_target.apply(w.apply(phi))
        singles.append(float(np.sqrt(grid.h) * np.linalg.norm(lhs - rhs))
                       / float(np.sqrt(grid.h) * np.linalg.norm(phi)))
        assert intertwining_residual(w.apply, h.apply, h_target.apply, grid, phi) == singles[-1]
    assert phis.shape == (4, grid.n)
    assert intertwining_residual(w.apply, h.apply, h_target.apply, grid, phis) == max(singles)


def test_closed_form_pair_residual_converges_second_order():
    def residual(grid):
        w = superpotential_case1(TorusParams(a=0.9, c=2.0), grid)
        s = sqrt_am1(0.9)
        x = grid.points
        wv = -1j * s / 0.9 * np.sin(x) + 1j * (0.9 - 2) / (2 * 0.9)
        wp = -1j * s / 0.9 * np.cos(x)
        phis = compact_test_functions(grid, [3, 4], rng=2, n_functions=2)
        return intertwining_residual(w.apply, SampledOp(grid, 1, 0, wv ** 2 - wp).apply,
                                     SampledOp(grid, 1, 0, wv ** 2 + wp).apply, grid, phis)

    r1, r2 = residual(Grid(1024)), residual(Grid(2048))
    assert np.log2(r1 / r2) > 1.9


def test_multiplicative_symmetrizer_is_exact_intertwiner():
    # exp(-integral sigma) maps the drifted operator to its discrete adjoint
    g = Grid(2048)
    plus, _ = decouple_constant_vf(P, GaugeField(kind="zero", k=0), g)
    mu = SampledOp(g, 0, 0, np.exp(P.a ** 2 * np.cos(g.points)))  # exp(-int sigma)
    phis = compact_test_functions(g, [2, 4], rng=3, n_functions=2)
    r1 = intertwining_residual(mu.apply, plus.apply, plus.apply_adjoint, g, phis)
    g2 = Grid(4096)
    plus2, _ = decouple_constant_vf(P, GaugeField(kind="zero", k=0), g2)
    mu2 = SampledOp(g2, 0, 0, np.exp(P.a ** 2 * np.cos(g2.points)))
    phis2 = compact_test_functions(g2, [2, 4], rng=3, n_functions=2)
    r2 = intertwining_residual(mu2.apply, plus2.apply, plus2.apply_adjoint, g2, phis2)
    assert np.log2(r1 / r2) > 1.8  # discretization error only


def test_tabulated_intertwiner_obstruction_is_reported_not_hidden():
    # with the hermitizing gauge the drift vanishes and the reduced operator
    # is already self-adjoint, so no nonconstant first-order intertwiner can
    # exist; the residual quantifies that obstruction
    g = Grid(2048)
    herm = hermitizing_quadratic_field(C2=0.4, e=1.0, k=1)
    plus, _ = decouple_constant_vf(P, herm, g)
    assert np.max(np.abs(plus.sigma)) < 1e-14
    h_s = SampledOp(g, 1, 0, plus.rho)
    eta2 = eta2_case1(P, 0.0, g)
    phis = compact_test_functions(g, [3, 4, 6], rng=5, n_functions=3)
    res = intertwining_residual(eta2.apply, h_s.apply, h_s.apply_adjoint, g, phis)
    assert res > 1e-2
    # a constant shift of the coefficient leaves the obstruction unchanged
    eta2_shifted = eta2_case1(P, 0.35, g)
    res_shifted = intertwining_residual(eta2_shifted.apply, h_s.apply, h_s.apply_adjoint, g,
                                        phis)
    assert res_shifted == pytest.approx(res, rel=1e-10)


# ---------------------------------------------------------------------------
# position-dependent-velocity chain
# ---------------------------------------------------------------------------

def test_eta1_similarity_defect_measured_with_exclusion_zone():
    # the multiplicative similarity between the two partner forms cannot hold
    # (it would need a constant factor); measure the defect on test functions
    # supported away from the zeros of the factor
    g = Grid(1024)
    eta1 = _eta1_case1(P, g)
    v, v1 = partner_potentials_case1(P, g)
    h_s = SampledOp(g, 1, 0, v)
    h_1 = SampledOp(g, 1, 0, v1)
    mask = np.abs(eta1.rho) > 1e-6
    phis = compact_test_functions(g, [3, 5], rng=9, n_functions=3) * mask
    res = intertwining_residual(eta1.apply, h_1.apply, h_s.apply, g, phis)
    assert np.isfinite(res) and res > 1e-2  # documented obstruction


def test_eta2_case2_values_and_periodicity():
    g = Grid(128)
    op = eta2_case2(P, 0.0, g)
    assert op.rho[0] == pytest.approx(0.00390625, abs=1e-15)
    assert period_gap(eta2_case2(P, 0.0, TWO_PERIODS).rho) < 1e-13
    tiny = eta2_case2(TorusParams(a=1e-6, c=2.0), 0.0, g)
    assert np.max(np.abs(tiny.rho)) < 1e-12


def test_veff_values_and_guards():
    g = Grid(256, -np.pi / 2 + 0.1, np.pi / 2 - 0.1, "dirichlet")
    veff = veff_case2(P, g)
    v = veff(linear_ring_field(a2=0.2, e=1.0, k=1))
    idx = np.argmin(np.abs(g.points))
    x0 = g.points[idx]
    expected0 = (P.a * 0.2) ** 2 - 0.5 + 0.2 * P.a * np.tan(x0) - np.tan(x0) ** 2 / 4
    assert v[idx] == pytest.approx(expected0, abs=1e-12)
    v0 = veff(linear_ring_field(a2=0.0, e=1.0, k=1))
    assert np.max(np.abs(v0 - (-0.5 - np.tan(g.points) ** 2 / 4))) < 1e-12
    with pytest.raises(FamilyMismatch):
        veff(zero_field())
    with pytest.raises(DomainSingularity):  # a sample on the velocity zero x = pi/2
        veff_case2(P, Grid(255, -np.pi / 2, 3 * np.pi / 2, "dirichlet"))


def test_veff_equals_rosen_morse_closed_form():
    g = Grid(2000, -np.pi / 2 + 0.1, np.pi / 2 - 0.1, "dirichlet")
    v = veff_case2(P, g)(linear_ring_field(a2=0.2, e=1.0, k=1))
    assert np.max(np.abs(v - rosen_morse_form(P, 0.2, 1.0, g.points))) < 1e-10


def _veff_from_helpers(params, gauge, x, part=np.real):
    """V_eff by the field helpers: `part` of the gauge and the complex arithmetic
    the effective potential once used (np.asarray), or their real parts (np.real)."""
    a, k, e = params.a, gauge.k, gauge.e
    r, rp = radius_profile(params, x), radius_derivative(params, x)
    _, au, _, aup = (part(c) for c in eval_gauge(gauge, params, x))
    v, vp, vpp = eval_fermi_velocity(params, x)
    return (-(vp ** 2) / (4.0 * v ** 2) + vpp / (2.0 * v) + (au * a * e + k) ** 2 / r ** 2
            - a * e * aup / r + (k + a * e * au) * rp / r ** 2 - k * vp / (r * v)
            - a * e * au * vp / (r * v))


@pytest.mark.parametrize("n", [8000, 2000])
@pytest.mark.parametrize("a2", [0.2, 1.0, 3.0, 7.0])
@pytest.mark.parametrize("e, k", [(1.0, 1), (0.7, 2), (-1.3, -1)])
def test_veff_is_the_real_evaluation_of_the_field_helpers(n, a2, e, k):
    g = Grid(n, -np.pi / 2, np.pi / 2, "dirichlet")
    f = linear_ring_field(a2=a2, e=e, k=k)
    rho = veff_case2(P, g)(f)
    assert np.all(rho.imag == 0.0)
    real = _veff_from_helpers(P, f, g.points)
    assert np.array_equal(rho.real, real)
    # complex division multiplies by the reciprocal, one rounding more per quotient
    old = _veff_from_helpers(P, f, g.points, part=np.asarray)
    bound = 8.0 * np.finfo(float).eps * max(1.0, np.max(np.abs(real)))
    assert np.max(np.abs(old - real)) <= bound


def test_one_veff_map_serves_every_level_with_the_bits_of_its_own_map():
    # `checks.pdfv_levels` makes one map per grid: its levels n = 0..3 at alpha = 1
    g = Grid(8000, -np.pi / 2, np.pi / 2, "dirichlet")
    gauges = [linear_ring_field(a2=(n + 0.5) / P.a) for n in range(4)]
    shared = veff_case2(P, g)
    for f in gauges:
        assert np.array_equal(shared(f), veff_case2(P, g)(f))
