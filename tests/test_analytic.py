import subprocess
import sys

import numpy as np
import pytest
from scipy.special import hyp2f1 as scipy_hyp2f1

from torusdirac.analytic import (
    case1_energy,
    case1_solution,
    case1_transform_chain,
    case1_wavefunction,
    case2_hyp_params,
    case2_ode_residual,
    case2_quantize,
    case2_wavefunction,
    fit_energy_display,
    gauss_2f1,
    laguerre_gen,
    laguerre_recurrence,
    morse_energy_exact,
    morse_shooting_problem,
)
from torusdirac.errors import (
    DomainSingularity,
    DomainUnsupported,
    NoRootInBracket,
    PoleAtC,
    SingularParameter,
)
from torusdirac.geometry import TorusParams
from torusdirac.grids import Grid, diff2_fourth_order
from torusdirac.numerics import find_root_bracketed, shoot_bound_state
from torusdirac.pseudoherm import MathieuParams, mathieu_form


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def test_laguerre_low_orders():
    for alpha, x in ((0.3, 1.1), (2.0 + 0.5j, 0.4 - 0.2j)):
        assert laguerre_gen(0, alpha, x) == 1.0
        assert laguerre_gen(1, alpha, x) == pytest.approx(1 + alpha - x, abs=1e-14)


def test_laguerre_against_recurrence():
    assert laguerre_gen(3, 0.0, 2.5) == pytest.approx(
        laguerre_recurrence(3, 0.0, 2.5), rel=1e-14)
    rng = np.random.default_rng(0)
    for n in range(21):
        alpha = complex(rng.uniform(-0.5, 2.0), 0.3 * rng.uniform(-1, 1))
        x = complex(rng.uniform(0, 1.5), 0.3 * rng.uniform(-1, 1))
        direct = laguerre_gen(n, alpha, x)
        recur = laguerre_recurrence(n, alpha, x)
        assert abs(direct - recur) <= 1e-13 * max(1.0, abs(recur))


def test_2f1_terminating_cases():
    b, c, s = 1.7, 2.3, 0.45
    assert gauss_2f1(-1, b, c, s) == pytest.approx(1 - b * s / c, rel=1e-15)
    # 4-term brute-force sum for the cubic case
    a, b, c, s = -3, 2.2, 1.7, 0.4 + 0.1j
    total, term = 1.0 + 0j, 1.0 + 0j
    for m in range(3):
        term *= (a + m) * (b + m) / ((c + m) * (m + 1)) * s
        total += term
    assert gauss_2f1(a, b, c, s) == pytest.approx(total, rel=1e-14)


def test_2f1_binomial_identity():
    a, s = 0.5, 0.3
    assert gauss_2f1(a, 1.9, 1.9, s) == pytest.approx((1 - s) ** -a, rel=1e-13)


def test_2f1_against_scipy_in_both_regions():
    for s in (0.2, 0.55, 0.85, -0.9):
        got = gauss_2f1(0.3, 1.2, 2.5, s)
        assert got == pytest.approx(scipy_hyp2f1(0.3, 1.2, 2.5, s), rel=1e-10)


def test_2f1_domain_errors():
    with pytest.raises(DomainUnsupported):
        gauss_2f1(0.3, 1.2, 2.5, 1.2)
    with pytest.raises(PoleAtC):
        gauss_2f1(0.3, 1.2, -1.0, 0.2)
    with pytest.raises(PoleAtC):
        gauss_2f1(-5, 1.2, -2.0, 0.2)  # pole hits before the series terminates
    # termination before the pole is fine
    assert np.isfinite(abs(gauss_2f1(-2, 1.2, -4.0, 0.2)))


# ---------------------------------------------------------------------------
# Morse chain (constant velocity)
# ---------------------------------------------------------------------------

def real_branch_params(a=0.5, e=1.0):
    c = 0.5 * a ** 2 / np.sqrt(1 - a)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = TorusParams(a=a, c=c)
    c2 = 1j * np.sqrt(1 - a) / (a ** 4 * e)
    mf = mathieu_form(p, e, c2)
    return MathieuParams(A_m=mf.A_m, B_m=mf.B_m, C_m=0.0, D_m=mf.D_m)


def test_transform_chain_exact_when_constant():
    chain = case1_transform_chain(MathieuParams(1.0, 0.0, 0.0, 0.0), 1.0)
    assert chain.truncation_error < 1e-14
    assert chain.quad_coeff == 0.0


def test_transform_chain_truncation_report_matches_dense_sampling():
    m = MathieuParams(1.0, 0.1, 0.0, -0.05)
    chain = case1_transform_chain(m, 1.0)
    assert chain.quad_coeff == pytest.approx((m.B_m - 1j * m.C_m - 2 * m.D_m) / 2)
    x = np.linspace(0, 2 * np.pi, 11111)  # independent sampling density
    z = np.exp(1j * x)
    exact = (m.D_m / 2 + (m.B_m - 1j * m.C_m) / 2 * z + (m.B_m + 1j * m.C_m) / (2 * z)
             - m.D_m / 4 * (z ** 2 + z ** -2))
    expanded = m.B_m + 1j * m.C_m * (z - 1) + 0.5 * (m.B_m - 1j * m.C_m - 2 * m.D_m) * (z - 1) ** 2
    assert chain.truncation_error == pytest.approx(np.max(np.abs(exact - expanded)), rel=1e-3)


def test_transform_chain_truncation_grows_along_ray():
    base = MathieuParams(0.0, 0.1, 0.05, -0.02)
    errs = [case1_transform_chain(
        MathieuParams(0.0, t * base.B_m, t * base.C_m, t * base.D_m), 1.0).truncation_error
        for t in (1.0, 2.0, 4.0)]
    assert errs[0] < errs[1] < errs[2]


def test_case1_energy_frozen_example():
    m = MathieuParams(A_m=0.0, B_m=0.0, C_m=0.0, D_m=-1.0)
    val, info = case1_energy(0, 1.0, m)
    assert val == pytest.approx((3 + 4j) / 4, rel=1e-14)
    assert not info["is_real"]


def test_case1_energy_singular_guard_and_increment():
    with pytest.raises(SingularParameter):
        case1_energy(0, 1.0, MathieuParams(0.0, 1.0, 0.0, 0.5))
    m = MathieuParams(0.0, -1.0, 0.0, 2.0)
    alpha = 1.3
    h = m.D_m - (m.B_m + m.C_m) / 2
    theta = alpha * (2 * m.D_m - m.B_m - 2 * m.C_m) / np.sqrt(complex(h))
    for n in range(3):
        inc = case1_energy(n + 1, alpha, m)[0] - case1_energy(n, alpha, m)[0]
        expected = -(alpha ** 2) / 4 * ((2 * n + 3 - theta) ** 2 - (2 * n + 1 - theta) ** 2)
        assert inc == pytest.approx(expected, rel=1e-12)


def test_morse_exact_vs_shooting_and_alpha_independence():
    m = real_branch_params()
    lam0 = morse_energy_exact(0, m)[0].real
    sp = morse_shooting_problem(m, 1.0, t_min=-4.0, t_max=30.0, n=8001)
    e0, (t, prof) = shoot_bound_state(sp, 0)
    assert abs(e0 - lam0) / abs(lam0) < 1e-6
    # node count inside the classically allowed region certifies the level
    # (the forbidden-region tail amplifies integration noise exponentially)
    allowed = sp.potential(t) < e0
    sign = np.sign(prof[allowed])
    sign = sign[sign != 0]
    assert int(np.sum(sign[1:] * sign[:-1] < 0)) == 0
    # the transformation scale cancels: a different alpha gives the same level
    sp2 = morse_shooting_problem(m, 0.7, t_min=-4.0 / 0.7, t_max=30.0 / 0.7, n=8001)
    e0b, _ = shoot_bound_state(sp2, 0)
    assert abs(e0b / 0.7 ** 2 - lam0) / abs(lam0) < 1e-6


def test_tabulated_energy_formula_documented_gap():
    # the tabulated eigenvalue display does not solve the transformed
    # equation (its value is even alpha-dependent while the spectrum is not);
    # the derived closed form is the certified one
    m = real_branch_params()
    lam0 = morse_energy_exact(0, m)[0].real
    tab = case1_energy(0, 1.0, m)[0].real
    assert abs(tab - lam0) / abs(lam0) > 0.5


def test_case1_wavefunction_shape_and_ode_residual():
    m = real_branch_params()
    sol0 = case1_solution(0, 1.0, m)
    t = np.linspace(-2.0, 12.0, 2001)
    psi = case1_wavefunction(sol0, t)
    s = sol0.s_of_t(t)
    shape = s ** (2 * sol0.mu) * np.exp(-s / sol0.alpha)
    shape /= np.max(np.abs(shape))
    assert np.max(np.abs(psi - shape)) < 1e-12  # Laguerre factor is 1 at n = 0
    assert abs(psi[-1]) < 1e-5  # decay at large t
    chain = case1_transform_chain(m, 1.0)
    for n in (0, 1):
        sol = case1_solution(n, 1.0, m)
        g = Grid(8000, -2.0, 14.0, "dirichlet")
        ts = g.points
        vals = case1_wavefunction(sol, ts)
        res = diff2_fourth_order(vals, g) + (sol.alpha ** 2) * (
            sol.morse_energy + chain.u_of_t(ts)) * vals
        core = slice(10, -10)
        rel = np.max(np.abs(res[core])) / np.max(np.abs(vals[core]))
        assert rel < 1e-6
        assert sol.bounded


# ---------------------------------------------------------------------------
# Rosen-Morse quantization (position-dependent velocity)
# ---------------------------------------------------------------------------

def test_hyp_params_trivial_point():
    hp = case2_hyp_params(0.0, -0.25, 0.0)
    assert hp.beta == 0.0
    assert hp.gamma_h == 1.0
    assert hp.a_printed == pytest.approx(1.0)
    assert hp.b_printed == pytest.approx(0.0)
    assert not hp.complex_beta


def test_hyp_params_sum_and_product_identities():
    rng = np.random.default_rng(4)
    for _ in range(100):
        alpha = rng.uniform(0, 2)
        c1 = rng.uniform(-1, 2)
        eps = rng.uniform(0, 3)
        for branch in (+1, -1):
            hp = case2_hyp_params(alpha, c1, eps, branch=branch)
            assert hp.a_printed + hp.b_printed == pytest.approx(1 + 4 * hp.beta, rel=1e-12)
            # the derivative-free coefficient pins the product; the corrected
            # (double-root) parameter satisfies it identically ...
            assert hp.a_corrected ** 2 == pytest.approx(hp.ab_target, rel=1e-10)
    # ... while the printed radical generally does not
    hp = case2_hyp_params(1.0, 0.0, 1.0)
    assert abs(hp.a_printed * hp.b_printed - hp.ab_target) > 1e-2


def test_quantize_frozen_levels():
    for n in range(6):
        sol = case2_quantize(n, 1.0, 0.0)
        assert sol.epsilon_n == pytest.approx(n + 0.5, abs=1e-12)
        assert sol.residual < 1e-12
        assert sol.beta == pytest.approx(-(2 * n + 1) / 4, abs=1e-12)
        assert sol.a_h == pytest.approx(-n, abs=1e-11)


def test_quantize_monotone_and_selfconsistent():
    eps = [case2_quantize(n, 1.0, 0.0).epsilon_n for n in range(6)]
    assert all(e2 > e1 for e1, e2 in zip(eps, eps[1:]))
    sol = case2_quantize(3, 0.8, 0.4)
    disc = -1 - 4 * sol.C1 + sol.alpha ** 2 + 4 * sol.epsilon_n ** 2
    beta_back = -0.25 * np.sqrt(disc)
    assert beta_back == pytest.approx(sol.beta, abs=1e-10)


def test_quantize_independent_bisection_pass():
    sol = case2_quantize(2, 1.0, 0.0)

    def g(eps):
        disc = -1 - 4 * 0.0 + 1.0 + 4 * eps ** 2
        return 0.5 - 0.5 * np.sqrt(disc) + 2

    eps_b = find_root_bracketed(g, 1e-3, 50.0, tol=1e-13)
    assert eps_b == pytest.approx(sol.epsilon_n, abs=1e-10)


def test_quantize_no_root_error():
    with pytest.raises(NoRootInBracket):
        case2_quantize(0, 1.0, 1e7)  # root sits beyond the search ladder


def test_case2_wavefunction_shape_and_residual():
    alpha, c1 = 1.0, 0.0
    x = np.linspace(-1.2, 1.2, 801)
    phi0 = case2_wavefunction(0, alpha, c1, x)
    sol0 = case2_quantize(0, alpha, c1)
    shape = np.exp(-alpha * x / 2) * (1 + np.tan(x) ** 2) ** sol0.beta
    shape = shape / (np.sqrt(x[1] - x[0]) * np.linalg.norm(shape))
    assert np.max(np.abs(phi0 - shape)) < 1e-12
    for n in range(3):
        assert case2_ode_residual(n, alpha, c1) < 1e-6
    with pytest.raises(DomainSingularity):
        case2_wavefunction(0, alpha, c1, np.pi / 2 - 1e-5)


def test_case2_wavefunction_parameter_swap_symmetry():
    # 2F1 is symmetric in its first two parameters
    s = 0.3 + 0.2j
    assert gauss_2f1(-2, 1.3, 0.7, s) == pytest.approx(gauss_2f1(1.3, -2, 0.7, s), rel=1e-14)


def test_fd_cross_check_with_partner_oracle():
    # convergent finite-difference certification of the quantized levels
    alpha, c1 = 1.0, 0.0
    g = Grid(4000, -np.pi / 2, np.pi / 2, "dirichlet")
    x = g.points
    from torusdirac.numerics import discretize_schrodinger, eig_sym_tridiag
    for n in (1, 2, 3):
        sol = case2_quantize(n, alpha, c1)
        bc = sol.a2
        e0 = c1 + 0.5 - bc ** 2
        v1 = e0 + 0.75 * np.tan(x) ** 2 + bc * np.tan(x) + bc ** 2 + 0.5
        fd = eig_sym_tridiag(discretize_schrodinger(v1, g), n,
                             with_vectors=False).eigenvalues[n - 1]
        assert abs(fd - sol.epsilon_n ** 2) / max(1.0, sol.epsilon_n ** 2) < 1e-3


def test_fit_energy_display_reports():
    sols = [case2_quantize(n, 1.0, 0.0) for n in range(5)]
    fit = fit_energy_display(sols)
    assert set(fit) >= {"mu", "nu", "rms", "label"}
    assert fit["label"] == "post-hoc fit"
    assert np.isfinite(fit["rms"])


def test_import_leaves_scipy_optimize_unloaded():
    # only fit_energy_display needs scipy.optimize; importing it costs ~0.25 s
    code = "import sys, torusdirac; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
