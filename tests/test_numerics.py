import logging

import numpy as np
import pytest
from scipy.special import mathieu_a, mathieu_b

from torusdirac import analytic, checks, fields, geometry, numerics, pseudoherm
from torusdirac.errors import ComplexPotential, ConvergenceFailure, EvenSampleCount
from torusdirac.grids import Grid
from torusdirac.numerics import (
    TridiagonalSym,
    discretize_schrodinger,
    eig_sym_tridiag,
    half_line_levels,
    hill_eigenvalues,
    integrate_simpson,
    rosen_morse_levels,
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


def _pdfv_matrix():
    """Dirichlet matrix of `checks.pdfv_levels` for n = 1 at alpha = 1, on 2000 points."""
    g = Grid(2000, -np.pi / 2, np.pi / 2, "dirichlet")
    gauge = fields.linear_ring_field(a2=1.5 / checks.DEFAULT_TORUS.a)
    ve = pseudoherm.veff_case2(checks.DEFAULT_TORUS, gauge, fields.cosine_velocity(), g)
    return discretize_schrodinger(np.real(ve.rho), g)


def _random_tridiag(n):
    rng = np.random.default_rng(5)
    return TridiagonalSym(diag=rng.standard_normal(n), offdiag=rng.standard_normal(n - 1))


@pytest.mark.parametrize("make", [_pdfv_matrix, lambda: _random_tridiag(60)],
                         ids=["pdfv2000", "random60"])
def test_first_solves_one_level_like_the_lowest_k_solve(make):
    m = make()
    row_sum = np.abs(m.diag)
    row_sum[:-1] += np.abs(m.offdiag)
    row_sum[1:] += np.abs(m.offdiag)
    # stebz bisects each level to its own tolerance, about eps |T|_inf
    tol = 4.0 * np.finfo(float).eps * np.max(row_sum)
    full = eig_sym_tridiag(m, 6)
    for n in range(6):
        one = eig_sym_tridiag(m, n + 1, with_vectors=False, first=n)
        assert one.eigenvalues.shape == (1,) and one.eigenvectors is None
        assert abs(one.eigenvalues[0] - full.eigenvalues[n]) <= tol
        pair = eig_sym_tridiag(m, n + 1, first=n)
        assert pair.eigenvectors.shape == (m.n, 1)
        assert pair.residuals[0] <= 1e-6 * max(1.0, abs(pair.eigenvalues[0]))
        assert abs(pair.eigenvectors[:, 0] @ full.eigenvectors[:, n]) == pytest.approx(1.0)
    tail = eig_sym_tridiag(m, 6, with_vectors=False, first=3).eigenvalues
    assert np.all(np.abs(tail - full.eigenvalues[3:]) <= tol)


def test_first_is_rejected_by_the_periodic_solve_and_out_of_range():
    with pytest.raises(ValueError, match="periodic"):
        eig_sym_tridiag(_random_periodic(), 3, first=1)
    m = _random_tridiag(20)
    for first in (-1, 3):
        with pytest.raises(ValueError, match="first"):
            eig_sym_tridiag(m, 3, first=first)


def test_complex_potential_rejected():
    g = Grid(64, 0.0, 1.0, "dirichlet")
    with pytest.raises(ComplexPotential):
        discretize_schrodinger(lambda x: 1j * x, g)


def test_rosen_morse_map_gives_box_levels():
    # s = 1 with c0 = c1 = 0 is the free box (-pi/2, pi/2): psi = cos(x) u vanishes at the walls
    w = rosen_morse_levels(0.0, 0.0, 1.0, 4)
    assert np.max(np.abs(w - np.arange(1, 5) ** 2)) < 1e-12


def test_half_line_map_gives_oscillator_levels(caplog):
    with caplog.at_level(logging.INFO, logger="torusdirac.numerics"):
        w = half_line_levels(lambda t: t ** 2, -10.0, 10.0, 4)
    assert np.max(np.abs(w - (2 * np.arange(4) + 1))) < 1e-11
    # a Gaussian tail under the algebraic map settles only at 257 points
    widened = [r.getMessage() for r in caplog.records if "widening" in r.getMessage()]
    assert len(widened) == 4 and widened[-1].startswith("half-line collocation: 129 and 257")


def test_collocation_raises_on_a_kinked_potential(caplog):
    # |t| has a kink at t = 0, so the levels converge only algebraically in n
    with caplog.at_level(logging.INFO, logger="torusdirac.numerics"):
        with pytest.raises(ConvergenceFailure, match="within 513 points"):
            half_line_levels(np.abs, -10.0, 10.0, 3)
    assert len([r for r in caplog.records if "widening" in r.getMessage()]) == 5


def test_morse_collocation_matches_the_dirichlet_window_at_second_order():
    # the three-point solve on the truncated window [-4, 30] is an independent
    # cross-check: its level-0 error falls as h^2, and level 1, bound 0.021
    # below the continuum, also feels the wall at t = 30
    potential = analytic.case1_transform_chain(checks._morse_params(), 1.0).potential
    levels = half_line_levels(potential, -4.0, 4.0, 2)
    errs = []
    for n in (2000, 4000):
        m = discretize_schrodinger(potential, Grid(n, -4.0, 30.0, "dirichlet"))
        errs.append(np.abs(eig_sym_tridiag(m, 2, with_vectors=False).eigenvalues - levels))
    assert 1.9 < np.log2(errs[0][0] / errs[1][0]) < 2.1
    assert np.max(errs[1]) < 1e-4


def test_collocation_records_are_below_1e12():
    assert checks.partner_oracle_match() < 1e-12
    assert checks.critical_pdfv_match() < 1e-12
    assert checks.morse_collocation_gap() < 1e-12


def test_simpson_values():
    t = np.linspace(0.0, np.pi, 1001)
    assert abs(integrate_simpson(np.sin(t), t[1] - t[0]) - 2.0) < 1e-8
    t = np.linspace(0.0, 1.0, 11)
    assert integrate_simpson(t ** 3, t[1] - t[0]) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(EvenSampleCount):
        integrate_simpson(np.ones(10), 0.1)


def test_simpson_fourth_order_slope():
    assert 3.8 < checks.simpson_slope() < 4.2
