import logging
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import scipy.linalg
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal, lapack
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


def _sturm_reference(m, lam):
    """Eigenvalues below lam by the classical Sturm recurrence, one pivot per Python step."""
    count = 0
    d = m.diag[0] - lam
    if d < 0:
        count += 1
    for i in range(1, m.n):
        denom = d if abs(d) > 1e-300 else np.copysign(1e-300, d if d != 0 else 1.0)
        d = (m.diag[i] - lam) - m.offdiag[i - 1] ** 2 / denom
        if d < 0:
            count += 1
    return count


def _row_sum(m):
    """|T|_inf of a pure tridiagonal matrix, computed here independently of the library."""
    row = np.abs(m.diag)
    row[:-1] += np.abs(m.offdiag)
    row[1:] += np.abs(m.offdiag)
    return np.max(row)


def test_random_tridiag_against_sturm_count():
    rng = np.random.default_rng(7)
    m = TridiagonalSym(diag=rng.standard_normal(50),
                       offdiag=rng.standard_normal(49))
    res = eig_sym_tridiag(m, 50)
    scale = np.max(np.abs(res.eigenvalues))
    for i, lam in enumerate(res.eigenvalues):
        assert sturm_count(m, lam - 1e-10 * scale) == i
        assert sturm_count(m, lam + 1e-10 * scale) == i + 1
    # with no estimates every level comes from LAPACK, by index
    assert np.allclose(res.eigenvalues, np.linalg.eigvalsh(_dense(m)), rtol=0.0,
                       atol=1e-12 * scale)


_ENTRY = st.floats(-10.0, 10.0, allow_subnormal=False)
_COUPLING = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


@st.composite
def _tridiagonals(draw):
    n = draw(st.integers(1, 12))
    return TridiagonalSym(diag=draw(st.lists(_ENTRY, min_size=n, max_size=n)),
                          offdiag=draw(st.lists(_COUPLING, min_size=n - 1, max_size=n - 1)))


@settings(max_examples=100, deadline=None)
@given(_tridiagonals())
@example(TridiagonalSym(diag=[3.0], offdiag=[]))
@example(TridiagonalSym(diag=[1.0, 1.0], offdiag=[0.0]))
@example(TridiagonalSym(diag=[0.0, 2.0], offdiag=[1.5]))
@example(TridiagonalSym(diag=[1.0, 2.0, 1.0], offdiag=[1.0, 1.0]))
def test_sturm_count_matches_the_reference_recurrence(m):
    w = np.linalg.eigvalsh(_dense(m))
    tol = 1e-12 * max(1.0, _row_sum(m))
    for sigma in np.concatenate([w, w - 1e-9, w + 1e-9, m.diag]):
        count, reference = sturm_count(m, sigma), _sturm_reference(m, sigma)
        if np.min(np.abs(w - sigma)) > tol:
            assert count == reference
        else:
            # on an eigenvalue the sign of a pivot is rounding, and dpttrf rounds
            # e^2/p as (e/p) e: each count may fall on either side of it
            below, upto = np.sum(w < sigma - tol), np.sum(w <= sigma + tol)
            assert below <= count <= upto and below <= reference <= upto


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
    res = eig_sym_tridiag(m, 3)
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
    fd = eig_sym_tridiag(discretize_schrodinger(lambda x: 1.0 / (1.2 - np.cos(x)), g),
                         4).eigenvalues
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


@pytest.mark.parametrize("make", [_default_periodic_mathieu, _random_periodic,
                                  lambda: _random_tridiag(60)],
                         ids=["mathieu1024", "random200", "random60"])
def test_block_residuals_have_the_bits_of_one_column_at_a_time(make):
    m = make()
    vecs = np.random.default_rng(2).standard_normal((m.n, 6))
    w = np.linspace(-1.0, 4.0, 6)
    one_by_one = [np.linalg.norm(m.matvec(vecs[:, i]) - w[i] * vecs[:, i]) for i in range(6)]
    assert np.array_equal(numerics._residuals(m, w, vecs), one_by_one)


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


def _pdfv_matrix():
    """Dirichlet matrix of `checks.pdfv_levels` for n = 1 at alpha = 1, on 2000 points."""
    g = Grid(2000, -np.pi / 2, np.pi / 2, "dirichlet")
    veff = pseudoherm.veff_case2(checks.DEFAULT_TORUS, g)
    gauge = fields.linear_ring_field(a2=1.5 / checks.DEFAULT_TORUS.a)
    return discretize_schrodinger(veff(gauge), g)


def _random_tridiag(n):
    rng = np.random.default_rng(5)
    return TridiagonalSym(diag=rng.standard_normal(n), offdiag=rng.standard_normal(n - 1))


@pytest.mark.parametrize("make", [_pdfv_matrix, lambda: _random_tridiag(60)],
                         ids=["pdfv2000", "random60"])
def test_first_solves_one_level_like_the_lowest_k_solve(make):
    m = make()
    # each level is certified by counts to within 8 eps |T|_inf, and polished to
    # far better: a lone level and the same level of a lowest-k solve agree here
    tol = 4.0 * np.finfo(float).eps * _row_sum(m)
    full = eig_sym_tridiag(m, 6)
    for n in range(6):
        one = eig_sym_tridiag(m, n + 1, first=n)
        assert one.eigenvalues.shape == (1,) and one.eigenvectors.shape == (m.n, 1)
        assert abs(one.eigenvalues[0] - full.eigenvalues[n]) <= tol
        assert one.residuals[0] <= 1e-6 * max(1.0, abs(one.eigenvalues[0]))
        assert abs(one.eigenvectors[:, 0] @ full.eigenvectors[:, n]) == pytest.approx(1.0)
    tail = eig_sym_tridiag(m, 6, first=3).eigenvalues
    assert np.all(np.abs(tail - full.eigenvalues[3:]) <= tol)


def test_first_is_rejected_by_the_periodic_solve_and_out_of_range():
    with pytest.raises(ValueError, match="periodic"):
        eig_sym_tridiag(_random_periodic(), 3, first=1)
    with pytest.raises(ValueError, match="periodic"):
        eig_sym_tridiag(_random_periodic(), 2, near=[0.0, 1.0])
    m = _random_tridiag(20)
    for first in (-1, 3):
        with pytest.raises(ValueError, match="first"):
            eig_sym_tridiag(m, 3, first=first)
    with pytest.raises(ValueError, match="near"):  # one estimate per level
        eig_sym_tridiag(m, 3, first=1, near=[1.0])


def test_box_levels_match_the_closed_form_fd_levels():
    # the three-point box on [0, pi] has the levels (4/h^2) sin^2(k pi/(2(n+1)));
    # started at the continuum levels k^2 they come out to the rounding of the
    # Rayleigh quotient, where LAPACK's stebz, bisecting to eps |T|_inf, missed
    # them by up to 5.9e-10 relative
    n = 4000
    g = Grid(n, 0.0, np.pi, "dirichlet")
    w = eig_sym_tridiag(discretize_schrodinger(lambda x: np.zeros_like(x), g), 4,
                        near=[1.0, 4.0, 9.0, 16.0]).eigenvalues
    exact = 4.0 / g.h ** 2 * np.sin(np.arange(1, 5) * np.pi / (2 * (n + 1))) ** 2
    assert np.max(np.abs(w - exact) / exact) < 1e-12


def test_split_matrix_multiple_level_is_solved_by_lapack_once(caplog):
    # two decoupled blocks share the level 1, which no certificate can isolate:
    # LAPACK solves both of its levels in one call, logged once, and the simple
    # level 3 is polished from its estimate as usual
    m = TridiagonalSym(diag=[2.0, 2.0, 1.0], offdiag=[-1.0, 0.0])
    with caplog.at_level(logging.INFO, logger="torusdirac.numerics"):
        res = eig_sym_tridiag(m, 3, near=[1.0, 1.0, 3.0])
    assert np.allclose(res.eigenvalues, [1.0, 1.0, 3.0], rtol=0.0, atol=1e-14)
    assert np.max(np.abs(res.eigenvectors.T @ res.eigenvectors - np.eye(3))) < 1e-14
    logged = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert len(logged) == 1 and "levels [0, 1]; LAPACK solves levels 0..1" in logged[0]


def test_a_shift_on_a_level_steps_off_it(caplog):
    # each estimate is its level exactly, so T - mu is exactly singular and
    # dgtsv refuses it; the shift steps off by 8 eps |T|_inf and is certified
    with caplog.at_level(logging.INFO, logger="torusdirac.numerics"):
        res = eig_sym_tridiag(TridiagonalSym(diag=[0.0, 5.0], offdiag=[0.0]), 2,
                              near=[0.0, 5.0])
    assert not caplog.records  # no fallback
    assert np.allclose(res.eigenvalues, [0.0, 5.0], rtol=0.0, atol=1e-14)
    assert np.max(res.residuals) < 1e-14


def test_near_degenerate_double_well_pair_comes_out_in_order(caplog):
    # V = 2.5 (x^2 - 4)^2: the two lowest levels split by 6.4e-6, above the count
    # floor; started from LAPACK's levels, each is certified on its own
    g = Grid(4000, -6.0, 6.0, "dirichlet")
    m = discretize_schrodinger(lambda x: 2.5 * (x ** 2 - 4.0) ** 2, g)
    near = eigvalsh_tridiagonal(m.diag, m.offdiag, select="i", select_range=(0, 1))
    with caplog.at_level(logging.INFO, logger="torusdirac.numerics"):
        res = eig_sym_tridiag(m, 2, near=near)
    assert not caplog.records  # no window fallback
    w = res.eigenvalues
    assert 6e-6 < w[1] - w[0] < 7e-6
    delta = np.maximum(res.residuals, 8.0 * np.finfo(float).eps * _row_sum(m))
    for j in range(2):
        assert _sturm_reference(m, w[j] - delta[j]) == j
        assert _sturm_reference(m, w[j] + delta[j]) == j + 1
    assert abs(res.eigenvectors[:, 0] @ res.eigenvectors[:, 1]) < 1e-12


def test_vectors_are_unit_and_pass_the_residual_gate(caplog):
    m = _pdfv_matrix()
    near = eigvalsh_tridiagonal(m.diag, m.offdiag, select="i", select_range=(0, 3))
    with caplog.at_level(logging.INFO, logger="torusdirac.numerics"):
        res = eig_sym_tridiag(m, 4, near=near)
    assert not caplog.records  # every level is polished, none falls back
    v, w = res.eigenvectors, res.eigenvalues
    assert np.max(np.abs(np.linalg.norm(v, axis=0) - 1.0)) < 1e-14
    tv = m.diag[:, None] * v
    tv[:-1] += m.offdiag[:, None] * v[1:]
    tv[1:] += m.offdiag[:, None] * v[:-1]
    residuals = np.linalg.norm(tv - v * w, axis=0)
    assert np.allclose(res.residuals, residuals, rtol=1e-6, atol=0.0)
    # the iteration stops at 8 eps |T|_inf, far inside the 1e-6 gate
    assert np.max(residuals) <= 8.0 * np.finfo(float).eps * _row_sum(m)


def _passes_per_solve(monkeypatch):
    """(inertia counts, dgtsv solves, LAPACK fallbacks) of each `eig_sym_tridiag` call."""
    passes, now = [], {}
    # `_polish` and `_eig_levels` import from scipy.linalg on entry, so patching
    # the modules patches their solves
    count, solve = numerics.sturm_count, lapack.dgtsv
    fallback, eig = scipy.linalg.eigh_tridiagonal, numerics.eig_sym_tridiag

    def tally(key, f):
        def counted(*args, **kwargs):
            now[key] += 1
            return f(*args, **kwargs)
        return counted

    def tallied(*args, **kwargs):
        now.update(counts=0, solves=0, fallbacks=0)
        out = eig(*args, **kwargs)
        passes.append((now["counts"], now["solves"], now["fallbacks"]))
        return out

    monkeypatch.setattr(numerics, "sturm_count", tally("counts", count))
    monkeypatch.setattr(lapack, "dgtsv", tally("solves", solve))
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", tally("fallbacks", fallback))
    monkeypatch.setattr(numerics, "eig_sym_tridiag", tallied)
    return passes


def test_dirichlet_levels_keep_their_pass_budget(monkeypatch):
    # each level starts at its closed form and its own sine mode: Rayleigh steps
    # take no count, and the two counts left are its certificate
    passes = _passes_per_solve(monkeypatch)
    checks.pdfv_levels(1.0, 3, Grid(8000, -np.pi / 2, np.pi / 2, "dirichlet"))
    assert passes == [(2, 3, 0), (2, 3, 0), (2, 3, 0), (2, 4, 0)], passes
    passes.clear()
    checks.truncated_domain_match()
    assert passes == [(2, 3, 0), (2, 3, 0), (2, 4, 0), (2, 4, 0)], passes
    passes.clear()
    checks.box_benchmark()
    checks.oscillator_benchmark()
    assert passes == [(8, 4, 0), (6, 6, 0)], passes


@pytest.mark.parametrize("wall", [0.0, 1e-3], ids=["full", "truncated"])
def test_pdfv_levels_are_lapacks_levels_by_index(wall, monkeypatch, caplog):
    # started from its own sine mode, each level lands on the level LAPACK
    # finds at the same index, to within its certificate's delta
    solves, eig = [], numerics.eig_sym_tridiag

    def recorded(m, *args, **kwargs):
        solves.append((m, eig(m, *args, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(numerics, "eig_sym_tridiag", recorded)
    g = Grid(8000, -np.pi / 2 + wall, np.pi / 2 - wall, "dirichlet")
    with caplog.at_level(logging.INFO, logger="torusdirac.numerics"):
        rows = checks.pdfv_levels(1.0, 3, g)
    assert not caplog.records  # no fallback
    assert len(solves) == 4
    for (n, fd, *_), (m, res) in zip(rows, solves):
        ref = eigh_tridiagonal(m.diag, m.offdiag, select="i", select_range=(n, n),
                               eigvals_only=True)[0]
        delta = max(res.residuals[0], 8.0 * np.finfo(float).eps * _row_sum(m))
        assert abs(fd - ref) <= delta, (n, fd, ref, delta)


def test_extreme_alpha_levels_take_no_scan(monkeypatch):
    # at alpha = 1e100 no Rayleigh step survives (the iterate underflows), so
    # each level goes straight to LAPACK; counts from +-1, +-2, +-4, ... and
    # bisection took 2866 here, about 2 s
    passes, shifts = _passes_per_solve(monkeypatch), []
    count = numerics.sturm_count
    monkeypatch.setattr(numerics, "sturm_count", lambda m, s: shifts.append(s) or count(m, s))
    with np.errstate(divide="raise", invalid="raise"):  # an underflowed iterate is not divided
        rows = checks.pdfv_levels(1e100, 3, Grid(8000, -np.pi / 2, np.pi / 2, "dirichlet"))
    assert all(counts <= 2 and fallbacks <= 1 for counts, _, fallbacks in passes), passes
    assert np.all(np.isfinite(shifts))  # no value that is not finite reaches a count
    assert len(passes) == 4 and all(np.isfinite(row[1]) for row in rows)


def test_an_estimate_nearer_the_next_level_falls_back_to_lapack(caplog):
    # started nearer level j + 1, the iteration converges there; its certificate
    # for level j fails, and LAPACK solves level j by index, logged
    m = _random_tridiag(60)
    w = eigvalsh_tridiagonal(m.diag, m.offdiag)
    j = 2
    with caplog.at_level(logging.INFO, logger="torusdirac.numerics"):
        res = eig_sym_tridiag(m, j + 1, first=j, near=[w[j + 1] - 0.1 * (w[j + 1] - w[j])])
    logged = [r.getMessage() for r in caplog.records]
    assert len(logged) == 1 and f"levels [{j}]; LAPACK solves levels {j}..{j}" in logged[0]
    delta = max(res.residuals[0], 8.0 * np.finfo(float).eps * _row_sum(m))
    assert abs(res.eigenvalues[0] - w[j]) <= delta
    assert sturm_count(m, res.eigenvalues[0] - delta) == j
    assert sturm_count(m, res.eigenvalues[0] + delta) == j + 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_estimate_returns_the_lapack_levels(bad, caplog):
    m = _pdfv_matrix()
    w, v = eigh_tridiagonal(m.diag, m.offdiag, select="i", select_range=(1, 2))
    with caplog.at_level(logging.INFO, logger="torusdirac.numerics"):
        res = eig_sym_tridiag(m, 3, first=1, near=[bad, bad])
    assert [r.getMessage() for r in caplog.records] == [
        "tridiagonal eigensolve: no certified estimate for levels [1, 2]; "
        "LAPACK solves levels 1..2"]
    assert np.array_equal(res.eigenvalues, w) and np.array_equal(res.eigenvectors, v)


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
    # a Gaussian tail under the algebraic map settles only at 257 points, confirmed at 273
    widened = [r.getMessage() for r in caplog.records if "widening" in r.getMessage()]
    assert [m.split(" points")[0] for m in widened] == [
        f"half-line collocation: {s} and {s + 16}" for s in (17, 33, 65, 129)]


def test_collocation_raises_on_a_kinked_potential(caplog):
    # |t| has a kink at t = 0, so the levels converge only algebraically in n
    with caplog.at_level(logging.INFO, logger="torusdirac.numerics"):
        with pytest.raises(ConvergenceFailure, match="within 513 points"):
            half_line_levels(np.abs, -10.0, 10.0, 3)
    widened = [r.getMessage() for r in caplog.records if "widening" in r.getMessage()]
    assert len(widened) == 5 and widened[-1].startswith("half-line collocation: 257 and 273")


def test_refined_confirms_each_size_at_size_plus_16_and_solves_nothing_above_513():
    sizes = []

    def solve(size, settled=None):
        sizes.append(size)
        return np.array([1.0 if settled and size >= settled else float(size)])

    # 17 is confirmed by 33, which is also the next size, so it is solved once
    with pytest.raises(ConvergenceFailure, match="within 513 points"):
        numerics._refined(solve, 17, 1e-12, "never", "points")
    assert sizes == [17, 33, 49, 65, 81, 129, 145, 257, 273, 497, 513]
    sizes.clear()
    assert numerics._refined(partial(solve, settled=65), 17, 1e-12, "settles", "points") == 1.0
    assert sizes == [17, 33, 49, 65, 81]


def test_morse_collocation_matches_the_dirichlet_window_at_second_order():
    # the three-point solve on the truncated window [-4, 30] is an independent
    # cross-check: its level-0 error falls as h^2, and level 1, bound 0.021
    # below the continuum, also feels the wall at t = 30
    potential = analytic.case1_transform_chain(checks._morse_params(), 1.0).potential
    levels = half_line_levels(potential, -4.0, 4.0, 2)
    errs = []
    for n in (2000, 4000):
        m = discretize_schrodinger(potential, Grid(n, -4.0, 30.0, "dirichlet"))
        errs.append(np.abs(eig_sym_tridiag(m, 2).eigenvalues - levels))
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
