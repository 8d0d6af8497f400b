import cmath
import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from torusdirac.analytic import (
    case1_energy,
    case1_transform_chain,
    case1_wavefunction,
    case2_levels,
    case2_ode_residual,
    case2_quantize,
    case2_wavefunction,
    gauss_2f1,
    laguerre_gen,
    laguerre_recurrence,
    morse_energy_exact,
)
from torusdirac.errors import (
    DomainSingularity,
    DomainUnsupported,
    NoRootInBracket,
    PoleAtC,
    SingularParameter,
)
from torusdirac.grids import Grid, diff2_fourth_order
from torusdirac.numerics import half_line_levels
from torusdirac.pseudoherm import MathieuParams, constrained_torus, real_morse_branch


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


def _complexes(re, im):
    return st.builds(complex, st.floats(*re), st.floats(*im))


def _sample_array(elements):
    """A scalar or a short array of `elements`, as the evaluators accept either."""
    return st.one_of(elements, st.lists(elements, min_size=1, max_size=6).map(np.array))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 20), b=st.one_of(st.floats(0.25, 3.0), st.integers(-25, 0)),
       c=st.builds(lambda re, im, sign: complex(re, sign * im), st.floats(-20.5, 3.0),
                   st.floats(0.25, 2.0), st.sampled_from([1, -1])),
       s=_sample_array(_complexes((-2.0, 2.0), (-10.0, 10.0))))
@example(n=1, b=1.0, c=1 + 1j, s=1 + 1j)  # an exact zero, 2F1(-1, 1; 1+i; 1+i) = 1 - 1
def test_terminating_2f1_against_mpmath(n, b, c, s):
    got = gauss_2f1(-n, b, c, s)
    assert np.shape(got) == np.shape(s)
    n_terms = min(n, -b) if isinstance(b, int) else n
    for sk, gk in zip(np.atleast_1d(s), np.atleast_1d(got)):
        # a forward sum is accurate to a few ulps of its largest term
        term, scale = 1.0 + 0j, 1.0
        for m in range(n_terms):
            term *= (-n + m) * (b + m) / ((c + m) * (m + 1)) * sk
            scale = max(scale, abs(term))
        # as for the Laguerre oracle below: without a zero magnitude mpmath
        # raises on an exact zero
        with mpmath.workdps(40):
            ref = complex(mpmath.hyp2f1(-n, b, c, complex(sk), zeroprec=200))
        assert abs(gk - ref) <= 1e-15 * (n + 1) ** 2 * scale
        assert abs(gauss_2f1(-n, b, c, complex(sk)) - ref) <= 1e-15 * (n + 1) ** 2 * scale


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 20), alpha=_complexes((-0.5, 2.0), (-0.3, 0.3)),
       x=_sample_array(_complexes((0.0, 1.5), (-0.3, 0.3))))
@example(n=1, alpha=0j, x=1 + 0j)  # an exact zero, L_1^0(1) = 0
def test_laguerre_against_mpmath(n, alpha, x):
    got = laguerre_gen(n, alpha, x)
    assert np.shape(got) == np.shape(x)
    for xk, gk in zip(np.atleast_1d(x), np.atleast_1d(got)):
        # mpmath's series cannot reach a relative accuracy on an exact zero and
        # raises unless told which magnitude counts as zero; 2^-200 is far below
        # the 1e-13 asserted here
        with mpmath.workdps(40):
            ref = complex(mpmath.laguerre(n, alpha, complex(xk), zeroprec=200))
        assert abs(gk - ref) <= 1e-13 * max(1.0, abs(ref))
        assert abs(laguerre_gen(n, alpha, complex(xk)) - ref) <= 1e-13 * max(1.0, abs(ref))


def test_2f1_array_needs_terminating_series():
    # a non-terminating series is refused whether s is a scalar or an array
    for s in (0.2, np.array([0.2, 0.5])):
        with pytest.raises(DomainUnsupported):
            gauss_2f1(0.3, 1.2, 2.5, s)


def test_2f1_domain_errors():
    with pytest.raises(DomainUnsupported):
        gauss_2f1(0.3, 1.2, 2.5, 1.2)
    # c = -1 is a pole, but the series does not terminate, and that is refused first
    with pytest.raises(DomainUnsupported):
        gauss_2f1(0.3, 1.2, -1.0, 0.2)
    with pytest.raises(PoleAtC):
        gauss_2f1(-5, 1.2, -2.0, 0.2)  # pole hits before the series terminates
    # termination before the pole is fine
    assert np.isfinite(abs(gauss_2f1(-2, 1.2, -4.0, 0.2)))


# ---------------------------------------------------------------------------
# Morse chain (constant velocity)
# ---------------------------------------------------------------------------

# the Morse chain's real branch on the constrained ring, as `verify` certifies it
REAL_BRANCH = real_morse_branch(constrained_torus(0.5))


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
    assert case1_energy(0, 1.0, m) == pytest.approx((3 + 4j) / 4, rel=1e-14)


def test_case1_energy_singular_guard_and_increment():
    with pytest.raises(SingularParameter):
        case1_energy(0, 1.0, MathieuParams(0.0, 1.0, 0.0, 0.5))
    m = MathieuParams(0.0, -1.0, 0.0, 2.0)
    alpha = 1.3
    h = m.D_m - (m.B_m + m.C_m) / 2
    theta = alpha * (2 * m.D_m - m.B_m - 2 * m.C_m) / np.sqrt(complex(h))
    for n in range(3):
        inc = case1_energy(n + 1, alpha, m) - case1_energy(n, alpha, m)
        expected = -(alpha ** 2) / 4 * ((2 * n + 3 - theta) ** 2 - (2 * n + 1 - theta) ** 2)
        assert inc == pytest.approx(expected, rel=1e-12)


def test_morse_exact_vs_collocation_and_alpha_independence():
    m = REAL_BRANCH
    lam = np.array([morse_energy_exact(n, m)[0].real for n in range(2)])
    levels = half_line_levels(case1_transform_chain(m, 1.0).potential, -4.0, 4.0, 2)
    assert np.max(np.abs(levels - lam) / np.abs(lam)) < 1e-12
    # the transformation scale cancels: a different alpha gives the same levels
    scaled = half_line_levels(case1_transform_chain(m, 0.7).potential,
                              -4.0 / 0.7, 4.0 / 0.7, 2)
    assert np.max(np.abs(scaled / 0.7 ** 2 - lam) / np.abs(lam)) < 1e-12
    # off the real branch the potential is complex and has no real level
    off = MathieuParams(A_m=m.A_m, B_m=m.B_m, C_m=0.3, D_m=m.D_m)
    with pytest.raises(SingularParameter, match="real branch"):
        case1_transform_chain(off, 1.0).potential(np.linspace(-1.0, 1.0, 5))


def test_tabulated_energy_formula_documented_gap():
    # the tabulated eigenvalue display does not solve the transformed
    # equation (its value is even alpha-dependent while the spectrum is not);
    # the derived closed form is the certified one
    m = REAL_BRANCH
    lam0 = morse_energy_exact(0, m)[0].real
    tab = case1_energy(0, 1.0, m).real
    assert abs(tab - lam0) / abs(lam0) > 0.5


def test_case1_wavefunction_shape_and_ode_residual():
    m = REAL_BRANCH
    alpha = 1.0
    t = np.linspace(-2.0, 12.0, 2001)
    psi = case1_wavefunction(0, alpha, m, t)
    s = alpha * np.sqrt(complex(m.D_m - (m.B_m + m.C_m) / 2.0)) * np.exp(-alpha * t)
    mu = morse_energy_exact(0, m)[1] / 2.0
    shape = s ** (2 * mu) * np.exp(-s / alpha)
    shape /= np.max(np.abs(shape))
    assert np.max(np.abs(psi - shape)) < 1e-12  # Laguerre factor is 1 at n = 0
    assert abs(psi[-1]) < 1e-5  # decay at large t
    chain = case1_transform_chain(m, alpha)
    for n in (0, 1):
        lam, _, bounded = morse_energy_exact(n, m)
        g = Grid(8000, -2.0, 14.0, "dirichlet")
        ts = g.points
        vals = case1_wavefunction(n, alpha, m, ts)
        res = diff2_fourth_order(vals, g) + (alpha ** 2) * (lam + chain.u_of_t(ts)) * vals
        core = slice(10, -10)
        rel = np.max(np.abs(res[core])) / np.max(np.abs(vals[core]))
        assert rel < 1e-6
        assert bounded


# ---------------------------------------------------------------------------
# Rosen-Morse quantization (position-dependent velocity)
# ---------------------------------------------------------------------------

def test_quantize_frozen_levels():
    for n in range(6):
        sol = case2_quantize(n, 1.0, 0.0)
        assert sol.epsilon_n == pytest.approx(n + 0.5, abs=1e-12)
        assert sol.residual < 1e-12
        assert sol.beta == pytest.approx(-(2 * n + 1) / 4, abs=1e-12)
        assert 0.5 + 2.0 * sol.beta == pytest.approx(-n, abs=1e-11)


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

    eps_b = brentq(g, 1e-3, 50.0, xtol=1e-13)
    assert eps_b == pytest.approx(sol.epsilon_n, abs=1e-10)


def test_quantize_unbound_level_raises():
    # eps^2 = (1 + 1 + 0 - 4)/4 = -0.5: level 0 is not bound
    with pytest.raises(NoRootInBracket):
        case2_quantize(0, 2.0, 0.0)


def test_quantize_high_level():
    # eps^2 = 100.5^2 lies beyond any fixed search window over eps^2 < 1e4
    sol = case2_quantize(100, 1.0, 0.0)
    assert sol.epsilon_n == pytest.approx(100.5, abs=1e-12)
    assert sol.residual < 1e-9


def test_quantize_large_c1():
    sol = case2_quantize(0, 1.0, 1e7)
    assert sol.epsilon_n ** 2 == pytest.approx((1 + 1 + 4e7 - 1) / 4, rel=1e-15)
    # the residual recomputes disc = 1 as a difference of terms near 4e7, so
    # its floor is a few ulps of 4e7 (one ulp is 7.5e-9); this is its value
    assert sol.residual < 1e-15 * 4e7
    assert sol.residual == 1.862645149230957e-09


def _bits(z):
    """Bit patterns of the parts of z, so that -0.0, 0.0 and NaN payloads all count."""
    return np.array([complex(z).real, complex(z).imag]).view(np.uint64).tolist()


def _case2_level_reference(n, alpha, c1):
    """The case-2 closed form on Python floats: (eps_n, beta, residual), None where unbound.

    beta = -sqrt(disc)/4 is written out branch by branch with the signs of
    zero that a complex square root and product give it; abs of a complex
    is libm `hypot`.
    """
    eps_sq = ((2 * n + 1) ** 2 + 1.0 + 4.0 * c1 - alpha ** 2) / 4.0
    if not eps_sq >= 0.0:
        return None
    eps = math.sqrt(eps_sq)
    disc = -1.0 - 4.0 * c1 + alpha ** 2 + 4.0 * (eps * eps)
    root = math.sqrt(abs(disc))
    beta = complex(-0.25 * root, 0.0) if disc >= 0.0 else complex(-0.0, -0.25 * root)
    return eps, beta, abs(complex(0.5 + 2.0 * beta.real + n, 2.0 * beta.imag))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 20), alpha=st.floats(0.0, 3.0), c1=st.floats(-1.0, 1e17))
@example(n=0, alpha=1.0, c1=1e7)  # the large-C1 residual, the rounding of eps
@example(n=0, alpha=2.0, c1=0.5)  # eps^2 = 0 exactly
@example(n=0, alpha=1.0, c1=0.0)  # disc = 1 - 0: beta real, the residual 0
# alpha * alpha and pow(alpha, 2) round apart here, and eps with them
@example(n=0, alpha=0.7183150505516521, c1=1.5739561336007801)
# disc rounds below 0: beta is imaginary and the residual a modulus
@example(n=1, alpha=1.0, c1=3.6068034017008504e+16)
# numpy's modulus of the complex 1/2 + 2 beta + n is one ulp above hypot of its parts
@example(n=0, alpha=1.0, c1=3.75e+16)
def test_case2_levels_have_the_bits_of_the_plain_python_closed_form(n, alpha, c1):
    want = _case2_level_reference(n, alpha, c1)
    scalars = case2_levels(n, alpha, c1)
    if want is None:
        assert all(np.isnan(v) for v in scalars)
        with pytest.raises(NoRootInBracket):
            case2_quantize(n, alpha, c1)
        return
    assert [_bits(v) for v in scalars] == [_bits(v) for v in want]
    sol = case2_quantize(n, alpha, c1)
    eps, beta, residual = want
    assert [_bits(v) for v in (sol.epsilon_n, sol.beta, sol.residual)] == [
        _bits(v) for v in (eps, beta.real, residual)]
    assert _bits(sol.gamma_h) == _bits(1.0 + 2.0 * beta - 0.5j * alpha)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 20), alpha=st.floats(0.0, 3.0), c1=st.floats(-1.0, 1e17))
@example(n=0, alpha=1.0, c1=1e7)  # the large-C1 residual, the rounding of eps
@example(n=0, alpha=2.0, c1=0.5)  # eps^2 = 0 exactly
# alpha * alpha and pow(alpha, 2) round apart here, and eps with them
@example(n=0, alpha=0.7183150505516521, c1=1.5739561336007801)
# disc rounds below 0: beta is imaginary and the residual a modulus
@example(n=1, alpha=1.0, c1=3.6068034017008504e+16)
def test_quantize_array_has_the_scalar_bits(n, alpha, c1):
    # the sweep reads case2_levels on array columns; each cell has the bits of
    # the scalar solve at its (alpha, C1)
    eps, beta, resid = case2_levels(n, np.array([alpha]), np.array([c1]))
    try:
        sol = case2_quantize(n, alpha, c1)
    except NoRootInBracket:
        assert np.isnan(eps[0]) and np.isnan(beta[0]) and np.isnan(resid[0])
        return
    assert _bits(eps[0]) == _bits(sol.epsilon_n)
    assert _bits(beta[0].real) == _bits(sol.beta)
    assert _bits(resid[0]) == _bits(sol.residual)
    if (n, alpha, c1) == (0, 1.0, 1e7):
        assert resid[0] == 1.862645149230957e-09


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 20), alpha=st.floats(-4.0, 4.0), c1=st.floats(-4.0, 4.0))
@example(n=0, alpha=0.0, c1=-0.5)    # eps^2 = 0 exactly
@example(n=0, alpha=1.0, c1=0.0)     # disc = 1: beta real, the residual 0
@example(n=0, alpha=3.0, c1=0.0)     # eps^2 < 0: level 0 unbound
def test_hyp_params_on_python_scalars_are_the_numpy_bits(n, alpha, c1):
    # Python floats, numpy float64 scalars and 0-d arrays take one path
    want = [_bits(v) for v in case2_levels(n, alpha, c1)]
    for a, c in ((np.float64(alpha), np.float64(c1)), (np.array(alpha), np.array(c1))):
        assert [_bits(v) for v in case2_levels(n, a, c)] == want


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 20), alpha=st.floats(0.0, 3.0), c1=st.floats(-1.0, 5.0))
# once a case where a bracket closed to adjacent floats without meeting its tolerance
@example(n=17, alpha=0.9396647203632253, c1=2.0)
def test_quantize_closed_form_matches_bisection(n, alpha, c1):
    x = 1.0 + 4.0 * c1 - alpha ** 2
    eps_sq = ((2 * n + 1) ** 2 + x) / 4.0
    if eps_sq < 0.0:
        with pytest.raises(NoRootInBracket):
            case2_quantize(n, alpha, c1)
        return
    sol = case2_quantize(n, alpha, c1)
    assert abs(0.5 + 2.0 * sol.beta + n) < 1e-10
    if eps_sq < 1e-6:
        # the termination function is flat in eps at eps = 0, so bisection
        # on eps cannot resolve the root to 1e-10 there
        return

    def g(eps):
        disc = -1.0 - 4.0 * c1 + alpha ** 2 + 4.0 * eps ** 2
        return 0.5 - 0.5 * np.sqrt(max(disc, 0.0)) + n

    # g(lo) > 0 because eps_sq > 0, and g(hi) < 0 because disc(hi) >= (2n + 2)^2
    lo, hi = np.sqrt(max(x, 0.0) / 4.0), n + 1.0 + np.sqrt(abs(x))
    eps_b = brentq(g, lo, hi, xtol=1e-15)
    assert abs(sol.epsilon_n - eps_b) < 1e-10


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
        fd = eig_sym_tridiag(discretize_schrodinger(v1, g), n, first=n - 1,
                             near=[sol.epsilon_n ** 2]).eigenvalues[0]
        assert abs(fd - sol.epsilon_n ** 2) / max(1.0, sol.epsilon_n ** 2) < 1e-3


def test_import_leaves_scipy_optimize_unloaded():
    # no library code needs scipy.optimize; importing it costs ~0.25 s
    code = "import sys, torusdirac; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
