import logging
import warnings

import numpy as np
import pytest

from torusdirac import analytic, geometry, pseudoherm
from torusdirac.errors import (
    ComplexPotential,
    ConvergenceFailure,
    EvenSampleCount,
    NoSignChange,
    NotConfining,
)
from torusdirac.grids import Grid
from torusdirac.numerics import (
    ShootingProblem,
    _numerov_sweep,
    TridiagonalSym,
    cumulative_simpson,
    discretize_schrodinger,
    eig_sym_tridiag,
    find_root_bracketed,
    integrate_simpson,
    shoot_bound_state,
    sturm_count,
)


def test_tridiag_known_3x3_padded():
    # classic second-difference 3x3 block embedded in identity padding
    m = TridiagonalSym(diag=np.array([2.0, 2.0, 2.0]), offdiag=np.array([-1.0, -1.0]))
    w = np.linalg.eigvalsh(m.dense())
    assert np.allclose(w, [2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)], atol=1e-12)


def test_identity_eigenvalues():
    m = TridiagonalSym(diag=np.ones(20), offdiag=np.zeros(19))
    res = eig_sym_tridiag(m, 5)
    assert np.allclose(res.eigenvalues, 1.0)
    assert np.max(res.residuals) < 1e-12


def test_random_tridiag_against_sturm_count():
    rng = np.random.default_rng(7)
    m = TridiagonalSym(diag=rng.standard_normal(50),
                       offdiag=rng.standard_normal(49))
    res = eig_sym_tridiag(m, 50)
    scale = np.max(np.abs(res.eigenvalues))
    for i, lam in enumerate(res.eigenvalues):
        assert sturm_count(m, lam - 1e-10 * scale) == i
        assert sturm_count(m, lam + 1e-10 * scale) == i + 1


def test_eigenvector_residuals_reported():
    g = Grid(500, 0.0, np.pi, "dirichlet")
    m = discretize_schrodinger(lambda x: np.sin(x), g)
    res = eig_sym_tridiag(m, 6)
    assert res.residuals is not None
    assert np.max(res.residuals / np.abs(res.eigenvalues)) < 1e-8


def test_box_benchmark():
    g = Grid(4000, 0.0, np.pi, "dirichlet")
    m = discretize_schrodinger(lambda x: np.zeros_like(x), g)
    w = eig_sym_tridiag(m, 4, with_vectors=False).eigenvalues
    for i in range(4):
        assert abs(w[i] - (i + 1) ** 2) / (i + 1) ** 2 < 1e-5


def test_oscillator_benchmark():
    g = Grid(6000, -10.0, 10.0, "dirichlet")
    m = discretize_schrodinger(lambda x: x ** 2, g)
    w = eig_sym_tridiag(m, 3, with_vectors=False).eigenvalues
    for i in range(3):
        assert abs(w[i] - (2 * i + 1)) / (2 * i + 1) < 1e-5


def test_periodic_path_is_dense_and_correct():
    g = Grid(400)
    m = discretize_schrodinger(lambda x: np.zeros_like(x), g)
    assert m.corner != 0.0
    w = eig_sym_tridiag(m, 3, with_vectors=False).eigenvalues
    # free periodic modes: 0, 1, 1 up to discretization
    assert abs(w[0]) < 1e-10
    assert abs(w[1] - 1.0) < 1e-3 and abs(w[2] - 1.0) < 1e-3


def test_complex_potential_rejected():
    g = Grid(64, 0.0, 1.0, "dirichlet")
    with pytest.raises(ComplexPotential):
        discretize_schrodinger(lambda x: 1j * x, g)


def test_shoot_harmonic_levels_and_nodes():
    sp = ShootingProblem(potential=lambda t: t ** 2, t_min=-10.0, t_max=10.0, n=8001)
    for n in range(3):
        e, (t, prof) = shoot_bound_state(sp, n)
        assert abs(e - (2 * n + 1)) < 1e-6
        allowed = t ** 2 < e
        sign = np.sign(prof[allowed])
        sign = sign[sign != 0]
        assert int(np.sum(sign[1:] * sign[:-1] < 0)) == n


def test_shoot_matrix_agreement():
    g = Grid(6000, -10.0, 10.0, "dirichlet")
    w = eig_sym_tridiag(discretize_schrodinger(lambda x: x ** 2, g), 2,
                        with_vectors=False).eigenvalues
    sp = ShootingProblem(potential=lambda t: t ** 2, t_min=-10.0, t_max=10.0, n=6001)
    for n in range(2):
        e, _ = shoot_bound_state(sp, n)
        assert abs(e - w[n]) / w[n] < 1e-5


def _numerov_reference(f, h, y0, y1):
    """Per-step Numerov recurrence with the prefix overflow rescale: the oracle."""
    n = f.shape[0]
    y = np.empty(n)
    y[0], y[1] = y0, y1
    c = h * h / 12.0
    w = 1.0 - c * f
    for i in range(1, n - 1):
        y[i + 1] = ((2.0 + 10.0 * c * f[i]) * y[i] - w[i - 1] * y[i - 1]) / w[i + 1]
        if abs(y[i + 1]) > 1e250:
            y[: i + 2] /= abs(y[i + 1])
    return y


def _interior_nodes(y):
    sign = np.sign(y[1:-1])
    sign = sign[sign != 0]
    return int(np.sum(sign[1:] * sign[:-1] < 0))


def _morse_verify_problem():
    """The Morse-chain shooting problem certified by `verify`."""
    a = 0.5
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="c <= a")
        p = geometry.TorusParams(a=a, c=0.5 * a ** 2 / np.sqrt(1 - a))
        mf = pseudoherm.mathieu_form(p, 1.0, 1j * np.sqrt(1 - a) / a ** 4)
    mf0 = pseudoherm.MathieuParams(A_m=mf.A_m, B_m=mf.B_m, C_m=0.0, D_m=mf.D_m)
    return analytic.morse_shooting_problem(mf0, 1.0, t_min=-4.0, t_max=50.0, n=16001)


@pytest.mark.parametrize("problem", [
    lambda: ShootingProblem(potential=lambda t: t ** 2, t_min=-10.0, t_max=10.0, n=8001),
    _morse_verify_problem,
], ids=["oscillator", "morse"])
def test_banded_sweep_matches_per_step_recurrence(problem):
    sp = problem()
    t = np.linspace(sp.t_min, sp.t_max, sp.n)
    h = t[1] - t[0]
    v = sp.potential(t)
    for e in np.linspace(np.min(v) + 1e-9, min(v[0], v[-1]), 50):
        y, nodes = _numerov_sweep(v - e, h, 0.0, 1e-8)
        ref = _numerov_reference(v - e, h, 0.0, 1e-8)
        assert np.max(np.abs(y - ref)) / np.max(np.abs(ref)) < 1e-10
        assert nodes == _interior_nodes(ref)


def test_numerov_sweep_failures_raise():
    # w = 1 - h^2 f / 12 vanishes: the banded matrix is singular
    with pytest.raises(ConvergenceFailure):
        _numerov_sweep(np.full(10, 12.0), 1.0, 0.0, 1.0)
    # w just below zero: growth of ~1e4 per step overflows within one chunk
    with pytest.raises(ConvergenceFailure):
        _numerov_sweep(np.full(600, 12.012), 1.0, 0.0, 1.0)


def test_shoot_deep_well_keeps_nodes():
    # the oscillations sit far below the left-wall growth; dropping them to
    # zero used to lose every node and return one wrong energy for all levels
    sp = ShootingProblem(potential=lambda t: 400.0 * t ** 2, t_min=-10.0, t_max=10.0,
                         n=8001)
    for n in range(3):
        e, _ = shoot_bound_state(sp, n)
        exact = 20.0 * (2 * n + 1)
        assert abs(e - exact) / exact < 1e-6


def test_shoot_deep_well_profile_finite_unit_norm():
    sp = ShootingProblem(potential=lambda t: 100.0 * t ** 2, t_min=-10.0, t_max=10.0,
                         n=8001)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        e, (t, prof) = shoot_bound_state(sp, 0)
    assert abs(e - 10.0) < 1e-6
    assert np.all(np.isfinite(prof))
    assert abs(np.sqrt(t[1] - t[0]) * np.linalg.norm(prof) - 1.0) < 1e-12


def test_shoot_polish_fallback_is_logged(caplog):
    # level 1 of the verify Morse problem: the end value keeps its sign
    # across the bisected bracket, so the secant polish gives up
    with caplog.at_level(logging.INFO, logger="torusdirac.numerics"):
        shoot_bound_state(_morse_verify_problem(), 1)
    msgs = [r.getMessage() for r in caplog.records if r.name == "torusdirac.numerics"]
    assert len(msgs) == 1
    assert "level 1" in msgs[0] and "polish failed" in msgs[0]


def test_shoot_not_confining():
    sp = ShootingProblem(potential=lambda t: np.zeros_like(t), t_min=0.0, t_max=1.0)
    with pytest.raises(NotConfining):
        shoot_bound_state(sp, 0)


def test_simpson_values():
    t = np.linspace(0.0, np.pi, 1001)
    assert abs(integrate_simpson(np.sin(t), t[1] - t[0]) - 2.0) < 1e-8
    t = np.linspace(0.0, 1.0, 11)
    assert integrate_simpson(t ** 3, t[1] - t[0]) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(EvenSampleCount):
        integrate_simpson(np.ones(10), 0.1)


def test_simpson_fourth_order_slope():
    errs = []
    for n in (101, 201, 401):
        t = np.linspace(0.0, np.pi, n)
        errs.append(abs(integrate_simpson(np.sin(t), t[1] - t[0]) - 2.0))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert 3.8 < np.mean(slopes) < 4.2


def test_cumulative_simpson_matches_antiderivative():
    t = np.linspace(0.0, 2.0, 401)
    table = cumulative_simpson(np.exp(t), t[1] - t[0])
    assert np.max(np.abs(table - (np.exp(t) - 1.0))) < 1e-9


def test_root_finder():
    assert find_root_bracketed(lambda x: x * x - 2, 1.0, 2.0) == pytest.approx(
        np.sqrt(2), abs=1e-12)
    assert find_root_bracketed(np.cos, 1.0, 2.0) == pytest.approx(np.pi / 2, abs=1e-12)
    with pytest.raises(NoSignChange):
        find_root_bracketed(lambda x: x * x + 1, -1.0, 1.0)
