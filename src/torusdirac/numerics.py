"""Numerical backends: discretization, eigensolvers, Chebyshev collocation, quadrature.

Real potentials only; complex operators are certified elsewhere through
residual identities, never through a complex spectral solve.  Finite
differences use uniform grids.

`scipy.linalg` loads at the first eigensolve: each function that calls it
imports it on entry, outside its loops.  Importing this module loads no
scipy, so runs that solve nothing (`geometry`, `analytic`, `sweep`) never
pay for it.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ComplexPotential, ConvergenceFailure, EvenSampleCount
from .grids import Grid

logger = logging.getLogger(__name__)
RESIDUAL_TOL = 1e-8  # `spectrum`'s residual gate, and the cap on the periodic solve's target


@dataclass
class TridiagonalSym:
    """Real symmetric tridiagonal matrix (diag of length n, offdiag n-1)."""

    diag: np.ndarray
    offdiag: np.ndarray
    # periodic discretizations couple the last sample to the first; the
    # eigensolver then works in the discrete Fourier basis
    corner: float = 0.0

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=float)
        self.offdiag = np.asarray(self.offdiag, dtype=float)
        if self.offdiag.shape != (self.diag.shape[0] - 1,):
            raise ValueError("offdiag must have length n-1")
        if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.offdiag))):
            raise ValueError("matrix entries must be finite")

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """T v for a vector, or for each row of a stack of vectors."""
        out = self.diag * v
        out[..., :-1] += self.offdiag * v[..., 1:]
        out[..., 1:] += self.offdiag * v[..., :-1]
        if self.corner != 0.0:
            out[..., 0] += self.corner * v[..., -1]
            out[..., -1] += self.corner * v[..., 0]
        return out

    def norm_inf(self) -> float:
        """|T|_inf, the largest absolute row sum, corner entries included."""
        couplings = np.abs(np.append(self.offdiag, self.corner))
        return float(np.max(np.abs(self.diag) + couplings + np.roll(couplings, 1)))


@dataclass
class EigResult:
    """Ascending eigenvalues, their eigenvectors (columns), and residual norms.

    `modes` is the number of Fourier modes a periodic solve kept (None for a
    pure tridiagonal one).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)
    residuals: np.ndarray
    modes: Optional[int] = None


def _real_samples(potential, grid: Grid) -> np.ndarray:
    """Real samples of a callable of x (or of given samples) on the grid's points."""
    v = potential(grid.points) if callable(potential) else np.asarray(potential)
    if not np.all(np.isfinite(v)):  # Python's float and complex `*` overflow without raising
        raise FloatingPointError("potential samples are not finite")
    if np.max(np.abs(np.imag(v))) > 1e-12:
        raise ComplexPotential("real eigensolves only; potential has an imaginary part")
    v = np.real(v).astype(float)
    if v.shape != (grid.n,):
        raise ValueError("potential samples do not match grid size")
    return v


def discretize_schrodinger(potential, grid: Grid) -> TridiagonalSym:
    """Three-point discretization of -psi'' + V psi on the grid.

    `potential` is a callable of x or an array of samples.  Dirichlet grids
    hold interior points only; periodic grids get the wraparound corner.
    """
    v = _real_samples(potential, grid)
    hh = grid.h * grid.h
    diag = 2.0 / hh + v
    offdiag = np.full(grid.n - 1, -1.0 / hh)
    corner = -1.0 / hh if grid.boundary == "periodic" else 0.0
    return TridiagonalSym(diag, offdiag, corner)


def _fourier_galerkin(dhat: np.ndarray, ohat: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Real Galerkin matrix of a periodic operator on the modes `modes`.

    With omega = exp(2 pi i/n), the unitary DFT basis omega^(m j)/sqrt(n)
    carries a periodic matrix with diagonal d and couplings o_j between j
    and j+1 (mod n) to
        H[m, m'] = dhat[m - m'] + ohat[m - m'] (omega^m' + omega^-m),
    dhat = fft(d)/n and ohat = fft(o)/n, indices mod n: an exact similarity.
    For a mode set closed under negation, cas(2 pi m j/n)/sqrt(n) with
    cas = cos + sin is a real orthonormal basis of the same space, and the
    matrix in it is Re H[m, m'] - Im H[m, -m'] (a real matrix makes
    H[-m, -m'] = conj H[m, m']).
    """
    n = dhat.shape[0]
    omega = np.exp(2j * np.pi * modes / n)
    p, q = modes[:, None], modes[None, :]
    wq, wp_inv = omega[None, :], omega[:, None].conj()
    k = (p - q) % n
    g = (dhat[k] + ohat[k] * (wq + wp_inv)).real
    k = (p + q) % n
    g -= (dhat[k] + ohat[k] * (wq.conj() + wp_inv)).imag
    return g


def _residuals(m: TridiagonalSym, w: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """||T v_i - w_i v_i|| of each column v_i, from one pass of T over the whole block.

    The block is applied as contiguous rows, and each row's norm is taken on
    its own, so every residual has the bits of a column-by-column pass.
    """
    rows = np.ascontiguousarray(vecs.T)
    return np.array([np.linalg.norm(r) for r in m.matvec(rows) - w[:, None] * rows])


def periodic_floor(m: TridiagonalSym) -> float:
    """4 eps |T|_inf, the rounding floor of a periodic residual.

    The rounding of T v alone leaves about 0.6 eps |T|_inf, which grows as
    n^2; neither the periodic solve nor `spectrum`'s gate asks below this.
    """
    return 4.0 * np.finfo(float).eps * m.norm_inf()


def _eig_periodic(m: TridiagonalSym, k: int):
    """Lowest-k eigenpairs of a periodic matrix by Galerkin on the modes |m| <= M.

    M starts at 8 (or k) and doubles, with a log line, until every full-grid
    residual is at most min(RESIDUAL_TOL, 1e-9 max(1, max |lambda|)), never
    looser than `spectrum`'s gate, or `periodic_floor` where that is larger:
    below it a large grid's solve would widen to all n modes.  With all n
    modes the solve is the exact similarity and is returned as it is.
    Returns (eigenvalues, real orthonormal eigenvectors, residuals, mode count).
    """
    from scipy.linalg import eigh

    n = m.n
    dhat = np.fft.fft(m.diag) / n
    ohat = np.fft.fft(np.append(m.offdiag, m.corner)) / n
    floor = periodic_floor(m)
    cut = max(8, k)
    while True:
        modes = np.arange(-cut, cut + 1) if 2 * cut + 1 < n else np.arange(n) - n // 2
        w, c = eigh(_fourier_galerkin(dhat, ohat, modes), subset_by_index=(0, k - 1))
        coef = np.zeros((n, k))
        coef[modes % n] = c
        f = np.fft.fft(coef, axis=0)
        vecs = (f.real - f.imag) / np.sqrt(n)
        res = _residuals(m, w, vecs)
        target = min(RESIDUAL_TOL, 1e-9 * max(1.0, np.max(np.abs(w))))
        tol = max(target, floor)
        if len(modes) == n or np.all(res <= tol):
            if floor > target:
                logger.info("periodic eigensolve: residual target widened from %.3g to the "
                            "rounding floor 4 eps |T|_inf = %.3g", target, floor)
            return w, vecs, res, len(modes)
        logger.info("periodic eigensolve: %d Fourier modes leave a residual of %.3g > %.3g; "
                    "widening to %d", len(modes), np.max(res), tol, min(4 * cut + 1, n))
        cut *= 2


def sturm_count(m: TridiagonalSym, sigma: float) -> int:
    """Number of eigenvalues below sigma: the negative pivots of the LDL^T of T - sigma I.

    Sylvester's law of inertia.  LAPACK `dpttrf` factors private copies in
    place and stops at a non-positive pivot p; the count then restarts past
    it with the next diagonal entry d - e^2/p (a zero pivot taken as +1e-300,
    as in the classical Sturm recurrence).  The last row is done here, since
    f2py takes no empty off-diagonal.  Requires a pure tridiagonal matrix.
    """
    from scipy.linalg import lapack

    if m.corner != 0.0:
        raise ValueError("Sturm count is defined for pure tridiagonal matrices")
    d, e = m.diag - sigma, m.offdiag.copy()
    count, i = 0, 0
    while i < m.n - 1:
        info = lapack.dpttrf(d[i:], e[i:], overwrite_d=1, overwrite_e=1)[2]
        if info == 0:
            return count
        i += info - 1
        p = float(d[i])
        count += p < 0.0
        if i == m.n - 1:
            return count
        ei = float(e[i])  # Python floats overflow to inf without a warning
        d[i + 1] -= ei * ei / (p if p != 0.0 else 1e-300)
        i += 1
    return count + bool(d[-1] < 0.0)


def _polish(m: TridiagonalSym, mu: float, x: np.ndarray, found: np.ndarray, floor: float):
    """Rayleigh-quotient iteration from the shift mu, the caller's estimate of a level.

    Each step solves (T - mu) y = x (LAPACK `dgtsv`), keeps y orthogonal to
    the columns of `found` (if there are any) and takes the Rayleigh quotient
    lambda as the next shift.  Stops once ||T x - lambda x|| <= floor, or at a
    y that is not finite (so a lambda that is not finite ends it one step
    later).  Returns (lambda, x, residual), residual inf if no step was taken.
    """
    from scipy.linalg import lapack

    lam, res = mu, np.inf
    for _ in range(100):
        y, info = lapack.dgtsv(m.offdiag.copy(), m.diag - mu, m.offdiag.copy(), x,
                               overwrite_dl=1, overwrite_d=1, overwrite_du=1)[3:]
        if info:  # mu is a level to working precision: step off it
            mu += floor
            continue
        if found.shape[1]:
            y -= found @ (found.T @ y)
        norm = np.linalg.norm(y)
        if not 0.0 < norm < np.inf:  # y underflowed (or overflowed): no next iterate
            break
        x = y / norm
        tx = m.matvec(x)
        lam = x @ tx
        res = np.linalg.norm(tx - lam * x)
        if res <= floor:
            break
        mu = lam
    return lam, x, res


def _eig_levels(m: TridiagonalSym, first: int, k: int, near):
    """Levels first..k-1 of a pure tridiagonal matrix, their unit vectors and residuals.

    Level j is polished by `_polish` from its estimate near[j - first] and the
    Dirichlet mode with j nodes, sin((j + 1) pi i/(n + 1)) at i = 1..n, kept
    orthogonal to the levels already found.  It is kept under the certificate
    count(lambda - delta) = j, count(lambda + delta) = j + 1 (`sturm_count`),
    delta = max(residual, 8 eps |T|_inf).  A level with no estimate, with an
    estimate or Rayleigh quotient that is not finite, or whose certificate
    fails (a poor estimate, or a numerically multiple eigenvalue, as in a
    split matrix) is solved by LAPACK (`eigh_tridiagonal`) by index, and each
    such fallback is logged.  No value that is not finite reaches a count.
    """
    from scipy.linalg import eigh_tridiagonal

    n = m.n
    w, vecs, res = np.empty(k - first), np.zeros((n, k - first)), np.zeros(k - first)
    if n == 1:
        w[0], vecs[0, 0] = m.diag[0], 1.0
        return w, vecs, res
    floor = 8.0 * np.finfo(float).eps * m.norm_inf()
    rest = []
    for i, mu in enumerate([np.nan] * (k - first) if near is None else near):
        if np.isfinite(mu):
            start = np.sin((first + i + 1) * np.pi * np.arange(1, n + 1) / (n + 1))
            lam, x, r = _polish(m, mu, start, vecs[:, :i], floor)
            lo, hi = lam - max(r, floor), lam + max(r, floor)
            if (np.isfinite(lo) and np.isfinite(hi) and sturm_count(m, lo) == first + i
                    and sturm_count(m, hi) == first + i + 1):
                w[i], vecs[:, i], res[i] = lam, x, r
                continue
        rest.append(i)
    if rest:
        window = (first + rest[0], first + rest[-1])
        logger.info("tridiagonal eigensolve: no certified estimate for levels %s; "
                    "LAPACK solves levels %d..%d", [first + i for i in rest], *window)
        lw, lv = eigh_tridiagonal(m.diag, m.offdiag, select="i", select_range=window)
        picked = np.array(rest) - rest[0]
        w[rest], vecs[:, rest] = lw[picked], lv[:, picked]
        res[rest] = _residuals(m, w[rest], vecs[:, rest])
    return w, vecs, res


def eig_sym_tridiag(m: TridiagonalSym, k_lowest: int, *, first: int = 0,
                    near: Optional[Sequence[float]] = None) -> EigResult:
    """Eigenpairs first..k_lowest-1 in ascending order (the lowest k by default).

    Pure tridiagonal problems are solved level by level (`_eig_levels`): each
    level starts from its estimate in `near` (one per level, as the caller's
    closed form gives it), Rayleigh-quotient iteration polishes it far inside
    eps |T|_inf (the rounding of the Rayleigh quotient, 1e-11 on the n=8000
    pdfv levels where eps |T|_inf is 5.8e-9), and two LDL^T inertia counts
    (`sturm_count`) certify its index; `eigenvalues[0]` is level `first`.  A
    level without a finite estimate, or whose certificate fails, is solved by
    LAPACK, logged.
    A nonzero periodic corner is solved in Fourier space (`_eig_periodic`): a
    real Galerkin matrix on the modes |m| <= M, M widened until the
    eigenpairs pass a full-grid residual check, and the mode count kept in
    `modes`.  That solve is lowest-k by construction, so it takes no `first`
    and no `near`.  Both paths compute the vectors, for the residual check,
    and return them with the residuals.  Residuals above 1e-6 max(1, max
    |lambda|) raise ConvergenceFailure.
    """
    if not 1 <= k_lowest <= m.n:
        raise ValueError("k_lowest out of range")
    if not 0 <= first < k_lowest:
        raise ValueError("first out of range")
    if near is not None and len(near) != k_lowest - first:
        raise ValueError("near needs one estimate for each level first..k_lowest-1")
    modes = None
    if m.corner == 0.0:
        w, vecs, res = _eig_levels(m, first, k_lowest, near)
    elif first or near is not None:
        raise ValueError("a periodic solve returns the lowest k levels; it takes no first or near")
    else:
        w, vecs, res, modes = _eig_periodic(m, k_lowest)
    if np.any(res > 1e-6 * max(1.0, np.max(np.abs(w)))):
        raise ConvergenceFailure("eigenpair residuals exceed solver tolerance")
    return EigResult(eigenvalues=w, eigenvectors=vecs, residuals=res, modes=modes)


def hill_eigenvalues(potential: Callable[[np.ndarray], np.ndarray],
                     k_lowest: int) -> np.ndarray:
    """Lowest-k eigenvalues of -psi'' + V psi on the 2 pi-periodic line (Hill's method).

    The Galerkin matrix of the periodic eigensolver with the continuum
    symbol m^2 in place of the difference operator, on the modes |m| <= M,
    with V's Fourier coefficients taken from 8 M samples of the callable
    `potential`.  The solve on 2 M + 1 modes is confirmed against the one on
    2 M + 17 to 1e-11 (`_refined`), M starting at 8 (or k) and doubling on
    disagreement, with no solve above 513 modes.
    """
    from scipy.linalg import eigh

    def solve(size):
        v = _real_samples(potential, Grid(8 * (size // 2)))
        modes = np.arange(size) - size // 2
        g = _fourier_galerkin(np.fft.fft(v) / v.shape[0], np.zeros(v.shape[0]), modes)
        g[np.diag_indices_from(g)] += modes ** 2.0
        return eigh(g, subset_by_index=(0, k_lowest - 1), eigvals_only=True)

    if k_lowest < 1:
        raise ValueError("k_lowest out of range")
    return _refined(solve, 2 * max(8, k_lowest) + 1, 1e-11, "Hill's method", "modes")


def _refined(solve, size: int, rtol: float, name: str, unit: str) -> np.ndarray:
    """solve(s + 16) at the first s = size, 2 size - 1, ... where it agrees with solve(s).

    Agreement is to rtol max(1, max |lambda|); s counts `unit` (modes or points).
    s doubles (to 2 s - 1) only where s and s + 16 disagree, and stops at 497,
    so that no solve is above 513.  Each widening is logged, and no agreement
    by s + 16 = 513 raises ConvergenceFailure.
    """
    w = solve(size)
    while size + 16 <= 513:
        finer = solve(size + 16)
        gap, tol = np.max(np.abs(finer - w)), rtol * max(1.0, np.max(np.abs(finer)))
        if gap <= tol:
            return finer
        if size + 16 == 513:
            break
        logger.info("%s: %d and %d %s differ by %.3g > %.3g; widening",
                    name, size, size + 16, unit, gap, tol)
        wider = min(2 * size - 1, 497)
        size, w = wider, finer if wider == size + 16 else solve(wider)
    raise ConvergenceFailure(f"{name} did not converge within 513 {unit}")


# ---------------------------------------------------------------------------
# Chebyshev collocation
# ---------------------------------------------------------------------------

def _frozen(*arrays: np.ndarray) -> tuple:
    """The arrays, made read-only: a cached table is shared by every later caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.cache
def _cheb(n: int):
    """Chebyshev points cos(pi j/n), j = 0..n, their differentiation matrix D (Trefethen), D @ D.

    Built once per n, read-only.
    """
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.where(np.arange(n + 1) % n == 0, 2.0, 1.0) * (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    d = d - np.diag(d.sum(axis=1))
    return _frozen(x, d, d @ d)


def _collocation_levels(assemble, k: int, label: str) -> np.ndarray:
    """Lowest-k finite real eigenvalues of the pencil (A, B or None) = `assemble(n)`.

    The solve on n + 1 points is confirmed against the one on n + 17 to 1e-12
    (`_refined`), n starting at 16 and doubling on disagreement, with no solve
    above 513 points.
    """
    from scipy.linalg import eigvals

    def solve(points):
        w = eigvals(*assemble(points - 1))
        w = np.sort(w[np.isfinite(w) & (np.abs(w.imag) <= 1e-8 * np.maximum(1.0, np.abs(w)))].real)
        return np.append(w[:k], np.full(max(0, k - len(w)), np.nan))  # too few never agree

    return _refined(solve, 17, 1e-12, f"{label} collocation", "points")


@functools.cache
def _rosen_morse_table(n: int):
    """D and D @ D on (-pi/2, pi/2), and cos (zero at the walls) and sin there; read-only."""
    xi, d, _ = _cheb(n)
    d, cos, sin = 2.0 / np.pi * d, np.cos(0.5 * np.pi * xi), np.sin(0.5 * np.pi * xi)
    cos[[0, -1]] = 0.0
    return _frozen(d, d @ d, cos, sin)


def rosen_morse_levels(c0: float, c1: float, s: float, k: int) -> np.ndarray:
    """Lowest-k levels of -psi'' + (c0 + c1 tan x + s (s-1) tan^2 x) psi on (-pi/2, pi/2).

    psi = cos^s(x) u cancels the wall: -cos u'' + 2 s sin u' + ((s + c0) cos + c1 sin) u
    = lambda cos u, collocated with no boundary rows (where cos vanishes the
    equation is its own boundary condition; the end rows add infinite
    eigenvalues).  s comes from the potential's structure: a root of a sampled
    tan^2 coefficient would sit on the branch point s (s-1) = -1/4.
    """
    def assemble(n):
        d, dd, cos, sin = _rosen_morse_table(n)
        a = -cos[:, None] * dd + 2.0 * s * sin[:, None] * d
        return a + np.diag((s + c0) * cos + c1 * sin), np.diag(cos)

    return _collocation_levels(assemble, k, "Rosen-Morse")


def half_line_levels(potential: Callable[[np.ndarray], np.ndarray], t_min: float,
                     length: float, k: int) -> np.ndarray:
    """Lowest-k levels of -psi'' + V psi on [t_min, inf), psi(t_min) = 0.

    t = t_min + L (1 + xi)/(1 - xi), L = `length`, maps the Chebyshev points; with
    g = dxi/dt = (1 - xi)^2/(2 L), d^2/dt^2 = g^2 D^2 - g (1 - xi)/L D.  A bound
    state vanishes at both ends, so the end rows and columns go.
    """
    def assemble(n):
        xi, d, dd = _cheb(n)
        g = (1.0 - xi) ** 2 / (2.0 * length)
        d2 = ((g * g)[:, None] * dd - (g * (1.0 - xi) / length)[:, None] * d)[1:-1, 1:-1]
        xi = xi[1:-1]
        return np.diag(potential(t_min + length * (1.0 + xi) / (1.0 - xi))) - d2, None

    return _collocation_levels(assemble, k, "half-line")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def integrate_simpson(samples: np.ndarray, h: float) -> float:
    """Composite Simpson rule; needs an odd sample count (even interval count)."""
    y = np.asarray(samples)
    n = y.shape[0]
    if n % 2 == 0:
        raise EvenSampleCount("composite Simpson needs an odd number of samples")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.real_if_close(h / 3.0 * np.sum(w * y)))
