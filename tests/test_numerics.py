import logging
import warnings

import numpy as np
import pytest
from scipy.special import mathieu_a, mathieu_b

from torusdirac import analytic, checks, geometry, numerics, pseudoherm
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
    _tail_ratio,
    TridiagonalSym,
    discretize_schrodinger,
    eig_sym_tridiag,
    find_root_bracketed,
    hill_eigenvalues,
    integrate_simpson,
    shoot_bound_state,
    sturm_count,
)


def _dense(m):
    """The full matrix of a TridiagonalSym, corner entries included."""
    out = np.diag(m.diag)
    idx = np.arange(m.n - 1)
    out[idx, idx + 1] = m.offdiag
    out[idx + 1, idx] = m.offdiag
    out[0, -1] += m.corner
    out[-1, 0] += m.corner
    return out


def test_tridiag_known_3x3_padded():
    # classic second-difference 3x3 block embedded in identity padding
    m = TridiagonalSym(diag=np.array([2.0, 2.0, 2.0]), offdiag=np.array([-1.0, -1.0]))
    w = np.linalg.eigvalsh(_dense(m))
    assert np.allclose(w, [2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)], atol=1e-12)


def test_identity_eigenvalues():
    m = TridiagonalSym(diag=np.ones(20), offdiag=np.zeros(19))
    res = eig_sym_tridiag(m, 5)
    assert np.allclose(res.eigenvalues, 1.0)
    assert np.max(res.residuals) < 1e-12
    assert res.modes is None  # a pure tridiagonal solve keeps no Fourier modes


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
    assert checks.box_benchmark() < 1e-5


def test_oscillator_benchmark():
    assert checks.oscillator_benchmark() < 1e-5


def test_periodic_path_is_fourier_and_correct():
    g = Grid(400)
    m = discretize_schrodinger(lambda x: np.zeros_like(x), g)
    assert m.corner != 0.0
    res = eig_sym_tridiag(m, 3, with_vectors=False)
    w = res.eigenvalues
    # free periodic modes: 0, 1, 1 up to discretization
    assert abs(w[0]) < 1e-10
    assert abs(w[1] - 1.0) < 1e-3 and abs(w[2] - 1.0) < 1e-3
    assert res.modes == 17


def test_periodic_degenerate_pairs_give_real_orthonormal_vectors():
    # the free grid's levels 4 sin^2(m h/2)/h^2 come in exactly degenerate pairs +-m
    g = Grid(400)
    m = discretize_schrodinger(lambda x: np.zeros_like(x), g)
    res = eig_sym_tridiag(m, 7)
    vecs = res.eigenvectors
    assert vecs.dtype == np.float64
    assert np.max(np.abs(vecs.T @ vecs - np.eye(7))) < 1e-12
    assert np.max(res.residuals) < 1e-8
    levels = 4.0 / g.h ** 2 * np.sin(np.array([0, 1, 1, 2, 2, 3, 3]) * g.h / 2) ** 2
    assert np.allclose(res.eigenvalues, levels, rtol=0.0, atol=1e-9)


def test_periodic_widening_is_logged_and_counted(caplog):
    # a random periodic matrix has no low Fourier content: every doubling fails
    # the residual check until all 200 modes are in
    m = _random_periodic()
    with caplog.at_level(logging.INFO, logger="torusdirac.numerics"):
        res = eig_sym_tridiag(m, 6)
    assert res.modes == 200
    widened = [r.getMessage() for r in caplog.records if "widening" in r.getMessage()]
    assert len(widened) == 4 and widened[-1].endswith("widening to 200")
    assert np.allclose(res.eigenvalues, np.linalg.eigvalsh(_dense(m))[:6], rtol=0.0,
                       atol=1e-12)


def test_large_periodic_grid_stops_at_the_rounding_floor(monkeypatch, caplog):
    # from n of about 20000 on, the rounding of T v alone exceeds 1e-9 max(1, |lambda|);
    # the residual target is floored there instead of widening to all n modes
    galerkin = numerics._fourier_galerkin

    def bounded(dhat, ohat, modes):
        if len(modes) > 1025:
            raise AssertionError(f"a Galerkin matrix of {len(modes)} modes")
        return galerkin(dhat, ohat, modes)

    monkeypatch.setattr(numerics, "_fourier_galerkin", bounded)
    potential = pseudoherm.mathieu_form(checks.DEFAULT_TORUS, 1.0, 0.2).potential
    with caplog.at_level(logging.INFO, logger="torusdirac.numerics"):
        res = eig_sym_tridiag(discretize_schrodinger(potential, Grid(32768)), 6)
    assert res.modes <= 65
    assert [r for r in caplog.records if "rounding floor" in r.getMessage()]


def test_hill_matches_mathieu_characteristic_values():
    # -y'' + 2 q cos(2x) y = lambda y: the 2 pi-periodic levels are a_0, b_1, a_1, b_2, ...
    q = 1.0
    exact = sorted([mathieu_a(0, q), mathieu_b(1, q), mathieu_a(1, q), mathieu_b(2, q),
                    mathieu_a(2, q), mathieu_b(3, q)])
    w = hill_eigenvalues(lambda x: 2 * q * np.cos(2 * x), 6)
    assert np.max(np.abs(w - exact)) < 1e-11


def test_hill_widens_for_slow_coefficients_and_raises_when_they_never_settle(caplog):
    with caplog.at_level(logging.INFO, logger="torusdirac.numerics"):
        w = hill_eigenvalues(lambda x: 1.0 / (1.2 - np.cos(x)), 4)
    assert [r for r in caplog.records if "Hill's method" in r.getMessage()]
    g = Grid(2048)
    fd = eig_sym_tridiag(discretize_schrodinger(lambda x: 1.0 / (1.2 - np.cos(x)), g), 4,
                         with_vectors=False).eigenvalues
    assert np.max(np.abs(fd - w)) < 1e-4
    # |sin x| has a kink: its coefficients fall as 1/m^2 and the levels keep moving
    with pytest.raises(ConvergenceFailure, match="513 modes"):
        hill_eigenvalues(lambda x: np.abs(np.sin(x)), 4)
    with pytest.raises(ComplexPotential):
        hill_eigenvalues(lambda x: 1j * np.cos(x), 2)


def _default_periodic_mathieu():
    """Periodic matrix of the default `spectrum` run (Mathieu form, n = 1024)."""
    g = Grid(1024)
    mf = pseudoherm.mathieu_form(geometry.TorusParams(a=0.5, c=2.0), 1.0, 0.2)
    return discretize_schrodinger(mf.potential(g.points), g)


def _random_periodic():
    rng = np.random.default_rng(11)
    return TridiagonalSym(diag=rng.standard_normal(200), offdiag=rng.standard_normal(199),
                          corner=rng.standard_normal())


@pytest.mark.parametrize("make", [_default_periodic_mathieu, _random_periodic],
                         ids=["mathieu1024", "random200"])
def test_periodic_lowest_k_match_full_spectrum(make):
    m = make()
    assert m.corner != 0.0
    full = np.linalg.eigvalsh(_dense(m))[:6]
    res = eig_sym_tridiag(m, 6)
    assert res.eigenvectors.shape == (m.n, 6)
    assert np.all(np.abs(res.eigenvalues - full) <= 1e-9 * np.maximum(1.0, np.abs(full)))
    assert np.max(res.residuals) < 1e-8
    bare = eig_sym_tridiag(m, 6, with_vectors=False)
    assert bare.eigenvectors is None and bare.residuals is None
    assert np.all(np.abs(bare.eigenvalues - res.eigenvalues)
                  <= 1e-12 * np.maximum(1.0, np.abs(full)))


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


def _nodes_through_tail(y, f, h):
    """Sign changes over y[1:-1] and then the virtual sample y[-1] - r y[-2]."""
    sign = np.sign(np.append(y[1:-1], y[-1] - _tail_ratio(f[-1], h) * y[-2]))
    sign = sign[sign != 0]
    return int(np.sum(sign[1:] * sign[:-1] < 0))


def _morse_verify_problem():
    """The Morse-chain shooting problem certified by `verify` (the default window)."""
    return analytic.morse_shooting_problem(checks._morse_params(), 1.0)


def test_tail_ratio_is_the_decaying_root_of_the_recurrence():
    h = 34.0 / 4000  # the step of the default Morse window
    for fc in (0.021, 1.0, 400.0):
        r = _tail_ratio(fc, h)
        assert 0.0 < r < 1.0
        f = np.full(4001, fc)
        # one step of the per-step recurrence keeps the ratio, and a generic
        # seed grows at the other root, 1/r, once r^(2 i) is negligible
        assert _numerov_reference(f[:3], h, 1.0, r)[2] == pytest.approx(r * r, rel=1e-15)
        if r ** 8000 < 1e-20:
            grow = _numerov_reference(f, h, 1.0, 1.0)
            assert r * grow[-1] / grow[-2] == pytest.approx(1.0, rel=1e-13)
    assert _tail_ratio(0.0, h) == 1.0
    # level 1 of the Morse problem is bound 0.021 below its tail.  A sweep
    # seeded on that tail stays on it up to rounding fed into the growing
    # mode: 3.2e-9 over 4001 samples, as for the per-step recurrence (3.1e-9)
    f, r = np.full(4001, 0.021), _tail_ratio(0.021, h)
    y, _ = _numerov_sweep(f, h, 1.0, r)
    assert np.max(np.abs(y - r ** np.arange(f.shape[0]))) < 1e-8


@pytest.mark.parametrize("problem, between", [
    (lambda: ShootingProblem(potential=lambda t: t ** 2, t_min=-10.0, t_max=10.0, n=8001),
     None),
    # 4.100214 lies between level 1 against the decaying tail (4.1001999) and
    # level 1 with a Dirichlet wall at t_max (4.1002280), where counts through
    # the virtual sample and through y[-1] differ
    (_morse_verify_problem, 4.100214),
], ids=["oscillator", "morse"])
def test_banded_sweep_matches_per_step_recurrence(problem, between):
    sp = problem()
    t = np.linspace(sp.t_min, sp.t_max, sp.n)
    h = t[1] - t[0]
    v = sp.potential(t)
    for e in np.linspace(np.min(v) + 1e-9, min(v[0], v[-1]), 50):
        y, nodes = _numerov_sweep(v - e, h, 0.0, 1e-8)
        ref = _numerov_reference(v - e, h, 0.0, 1e-8)
        assert np.max(np.abs(y - ref)) / np.max(np.abs(ref)) < 1e-10
        assert nodes == _nodes_through_tail(ref, v - e, h)
    if between is not None:
        y, nodes = _numerov_sweep(v - between, h, 0.0, 1e-8)
        ref = _numerov_reference(v - between, h, 0.0, 1e-8)
        assert nodes == _nodes_through_tail(ref, v - between, h)
        sign = np.sign(y[1:])
        assert nodes != int(np.sum(sign[1:] * sign[:-1] < 0))


def test_sweep_counts_the_tail_across_a_renormalisation():
    # a growing solution without nodes; at 259 samples the last chunk holds
    # one sample, seeded after the seeds were scaled down by more than 1e100
    for n in (258, 259, 260):
        y, nodes = _numerov_sweep(np.full(n, 2.0), 1.0, 0.0, 1.0)
        assert nodes == 0 and np.all(y[1:] > 0)


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


def test_shoot_level_is_a_sign_change_of_the_end_value(caplog):
    # level 1 of the verify Morse problem sits 0.021 below the continuum edge;
    # the end value is the virtual sample z = y[-1] - r y[-2]
    sp = _morse_verify_problem()
    with caplog.at_level(logging.DEBUG, logger="torusdirac"):
        e, _ = shoot_bound_state(sp, 1)
    t = np.linspace(sp.t_min, sp.t_max, sp.n)
    h, v = t[1] - t[0], sp.potential(t)

    def z(energy):
        y, _ = _numerov_sweep(v - energy, h, 0.0, 1e-8)
        return y[-1] - _tail_ratio(v[-1] - energy, h) * y[-2]

    below, above = z(e * (1 - 1e-12)), z(e * (1 + 1e-12))
    assert below < 0 < above or above < 0 < below
    assert not [r for r in caplog.records if r.name.startswith("torusdirac")]


def test_shooting_record_does_not_depend_on_the_window_end():
    # past t = 30 the Morse potential is flat to about 5e-13, so moving the
    # end out at the same step moves neither level; a Dirichlet wall at the
    # end shifted level 1, bound 0.021 below the continuum, by 6.6e-6
    mf0 = checks._morse_params()
    for n in range(2):
        e30, e40 = (shoot_bound_state(analytic.morse_shooting_problem(
            mf0, 1.0, t_max=t_max, n=samples), n)[0]
            for t_max, samples in ((30.0, 3401), (40.0, 4401)))
        assert e40 == pytest.approx(e30, rel=1e-12)


def test_morse_shooting_record_is_below_1e9():
    assert checks.morse_shooting_gap() < 1e-9


def test_shoot_rejects_a_step_too_coarse_for_numerov():
    # on [-6, 50] at 8001 samples h^2 (v - floor)/12 reaches 1.79 at the left
    # wall; where it exceeds 1 the recurrence flips sign each step and invents
    # nodes, which used to surface as a NotConfining error naming the window
    sp = analytic.morse_shooting_problem(checks._morse_params(), 1.0,
                                         t_min=-6.0, t_max=50.0, n=8001)
    with pytest.raises(ConvergenceFailure,
                       match=r"Numerov step too coarse: .* reaches 1\.79 "):
        shoot_bound_state(sp, 0)


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
    assert 3.8 < checks.simpson_slope() < 4.2


def test_root_finder():
    assert find_root_bracketed(lambda x: x * x - 2, 1.0, 2.0) == pytest.approx(
        np.sqrt(2), abs=1e-12)
    assert find_root_bracketed(np.cos, 1.0, 2.0) == pytest.approx(np.pi / 2, abs=1e-12)
    with pytest.raises(NoSignChange):
        find_root_bracketed(lambda x: x * x + 1, -1.0, 1.0)


def test_root_finder_returns_a_bracket_of_adjacent_floats():
    # |f| never falls below tol, so the search ends on two neighbouring floats
    r = 17.557883060133592
    root = find_root_bracketed(lambda x: 1.0 if x < r else -1.0, 0.0, 30.0, tol=0.0)
    assert abs(root - r) <= np.spacing(r)
