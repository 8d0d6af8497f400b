"""Numerical backends: discretization, eigensolvers, shooting, quadrature, roots.

Real symmetric problems only; complex operators are certified elsewhere
through residual identities, never through a complex spectral solve.
Uniform grids only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.linalg.lapack import dtbtrs

from .errors import (
    ComplexPotential,
    ConvergenceFailure,
    EvenSampleCount,
    NoSignChange,
    NotConfining,
)
from .grids import Grid

logger = logging.getLogger(__name__)

# samples per banded solve in a Numerov sweep
_CHUNK = 256
# seeds above this are rescaled, leaving 1e200 of headroom inside one chunk
_RENORM = 1e100


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
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        if self.corner != 0.0:
            out[0] += self.corner * v[-1]
            out[-1] += self.corner * v[0]
        return out


@dataclass
class EigResult:
    """Ascending eigenvalues, optional eigenvectors (columns), and residual norms.

    `modes` is the number of Fourier modes a periodic solve kept (None for a
    pure tridiagonal one).
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = field(default=None, repr=False)
    residuals: Optional[np.ndarray] = None
    modes: Optional[int] = None


def _real_samples(potential, grid: Grid) -> np.ndarray:
    """Real samples of a callable of x (or of given samples) on the grid's points."""
    v = potential(grid.points) if callable(potential) else np.asarray(potential)
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
    return np.array([np.linalg.norm(m.matvec(vecs[:, i]) - w[i] * vecs[:, i])
                     for i in range(len(w))])


def _eig_periodic(m: TridiagonalSym, k: int):
    """Lowest-k eigenpairs of a periodic matrix by Galerkin on the modes |m| <= M.

    M starts at 8 (or k) and doubles, with a log line, until every full-grid
    residual is at most 1e-9 max(1, max |lambda|), or 4 eps |T|_inf where
    that is larger: the rounding of T v alone leaves about 0.6 eps |T|_inf,
    which grows as n^2 and would otherwise widen a large grid's solve to all
    n modes.  With all n modes the solve is the exact similarity and is
    returned as it is.  Returns (eigenvalues, real orthonormal eigenvectors,
    residuals, mode count).
    """
    n = m.n
    couplings = np.append(m.offdiag, m.corner)
    dhat = np.fft.fft(m.diag) / n
    ohat = np.fft.fft(couplings) / n
    row_sum = np.abs(m.diag) + np.abs(couplings) + np.abs(np.roll(couplings, 1))
    floor = 4.0 * np.finfo(float).eps * np.max(row_sum)
    cut = max(8, k)
    while True:
        modes = np.arange(-cut, cut + 1) if 2 * cut + 1 < n else np.arange(n) - n // 2
        w, c = eigh(_fourier_galerkin(dhat, ohat, modes), subset_by_index=(0, k - 1))
        coef = np.zeros((n, k))
        coef[modes % n] = c
        f = np.fft.fft(coef, axis=0)
        vecs = (f.real - f.imag) / np.sqrt(n)
        res = _residuals(m, w, vecs)
        target = 1e-9 * max(1.0, np.max(np.abs(w)))
        tol = max(target, floor)
        if len(modes) == n or np.all(res <= tol):
            if floor > target:
                logger.info("periodic eigensolve: residual target widened from %.3g to the "
                            "rounding floor 4 eps |T|_inf = %.3g", target, floor)
            return w, vecs, res, len(modes)
        logger.info("periodic eigensolve: %d Fourier modes leave a residual of %.3g > %.3g; "
                    "widening to %d", len(modes), np.max(res), tol, min(4 * cut + 1, n))
        cut *= 2


def eig_sym_tridiag(m: TridiagonalSym, k_lowest: int,
                    with_vectors: bool = True) -> EigResult:
    """Lowest-k eigenpairs.

    Pure tridiagonal problems use LAPACK's Sturm-sequence bisection plus
    inverse iteration.  A nonzero periodic corner is solved in Fourier
    space (`_eig_periodic`): a real Galerkin matrix on the modes |m| <= M,
    M widened until the eigenpairs pass a full-grid residual check, and the
    mode count kept in `modes`.  That path always computes the vectors, for
    its check, and drops them when `with_vectors` is false.  Residuals above
    1e-6 max(1, max |lambda|) raise ConvergenceFailure.
    """
    if not 1 <= k_lowest <= m.n:
        raise ValueError("k_lowest out of range")
    modes = None
    if m.corner == 0.0:
        out = eigh_tridiagonal(m.diag, m.offdiag, select="i", select_range=(0, k_lowest - 1),
                               eigvals_only=not with_vectors)
        w, vecs = out if with_vectors else (out, None)
        res = None if vecs is None else _residuals(m, w, vecs)
    else:
        w, vecs, res, modes = _eig_periodic(m, k_lowest)
    if res is not None and np.any(res > 1e-6 * max(1.0, np.max(np.abs(w)))):
        raise ConvergenceFailure("eigenpair residuals exceed solver tolerance")
    if not with_vectors:
        vecs = res = None
    return EigResult(eigenvalues=w, eigenvectors=vecs, residuals=res, modes=modes)


def hill_eigenvalues(potential: Callable[[np.ndarray], np.ndarray],
                     k_lowest: int) -> np.ndarray:
    """Lowest-k eigenvalues of -psi'' + V psi on the 2 pi-periodic line (Hill's method).

    The Galerkin matrix of the periodic eigensolver with the continuum
    symbol m^2 in place of the difference operator, on the modes |m| <= M,
    with V's Fourier coefficients taken from 8 M samples of the callable
    `potential`.  M starts at 8 (or k) and doubles, with a log line, until
    the solves at M and 2 M agree to 1e-11 max(1, max |lambda|); the finer
    one is returned.  No agreement by M = 256 raises ConvergenceFailure.
    """
    def solve(cut):
        v = _real_samples(potential, Grid(8 * cut))
        modes = np.arange(-cut, cut + 1)
        g = _fourier_galerkin(np.fft.fft(v) / v.shape[0], np.zeros(v.shape[0]), modes)
        g[np.diag_indices_from(g)] += modes ** 2.0
        return eigh(g, subset_by_index=(0, k_lowest - 1), eigvals_only=True)

    if k_lowest < 1:
        raise ValueError("k_lowest out of range")
    cut = max(8, k_lowest)
    w = solve(cut)
    while cut < 256:
        finer = solve(2 * cut)
        gap, tol = np.max(np.abs(finer - w)), 1e-11 * max(1.0, np.max(np.abs(finer)))
        if gap <= tol:
            return finer
        logger.info("Hill's method: %d and %d modes differ by %.3g > %.3g; widening",
                    2 * cut + 1, 4 * cut + 1, gap, tol)
        cut, w = 2 * cut, finer
    raise ConvergenceFailure(f"Hill's method did not converge within {2 * cut + 1} modes")


def sturm_count(m: TridiagonalSym, lam: float) -> int:
    """Number of eigenvalues below lam, by the Sturm sign-agreement count.

    Independent cross-check for the packaged eigensolver; requires a pure
    tridiagonal matrix.
    """
    if m.corner != 0.0:
        raise ValueError("Sturm count is defined for pure tridiagonal matrices")
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


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

@dataclass
class ShootingProblem:
    """Confining real potential on [t_min, t_max]; past t_max it stays at its last value."""

    potential: Callable[[np.ndarray], np.ndarray]
    t_min: float
    t_max: float
    n: int = 6001

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError("need t_min < t_max")


def _tail_ratio(f: float, h: float) -> float:
    """Numerov's decaying ratio y_{i+1} / y_i on a constant f >= 0 (1 at f = 0)."""
    # smaller root of w r^2 - d r + w = 0; d^2 - 4 w^2 as 12 c f (4 + 8 c f) does not cancel
    cf = h * h * f / 12.0
    return 2.0 * (1.0 - cf) / (2.0 + 10.0 * cf + np.sqrt(12.0 * cf * (4.0 + 8.0 * cf)))


def _numerov_sweep(f: np.ndarray, h: float, y0: float, y1: float):
    """Numerov integration of y'' = f(t) y given the first two samples.

    With c = h^2/12 and w = 1 - c f, the recurrence
    w_{i+1} y_{i+1} - (2 + 10 c f_i) y_i + w_{i-1} y_{i-1} = 0
    is a lower-triangular system with two subdiagonals.  Each chunk of
    _CHUNK samples is one LAPACK banded triangular solve, seeded by the two
    samples before it.  Seeds above _RENORM are scaled back to unit size and
    the factor kept as a log, so each chunk can grow by 1e200 before it
    overflows; at the end earlier chunks are brought to the last chunk's
    scale, where negligible values may underflow to zero.  Returns
    (y, node count).  Nodes are the sign changes over y[1:-1] and then
    z = y[-1] - r y[-2] (r = `_tail_ratio`(f[-1], h), both samples on one
    scale), counted before that final rescale, so underflow cannot hide one.
    Raises ConvergenceFailure on a singular band (w_i = 0) or an overflow.
    """
    n = f.shape[0]
    c = h * h / 12.0
    w = 1.0 - c * f
    d = 2.0 + 10.0 * c * f
    # lower band storage, ab[r, j] = A[j + r, j]; column j multiplies y_j
    band = np.asfortranarray(np.stack([w, -d, w]))
    y = np.empty(n)
    y[0], y[1] = y0, y1
    log_scale = np.zeros(n)  # log of the factor each sample was divided by
    acc = 0.0
    for k in range(2, n, _CHUNK):
        m = min(_CHUNK, n - k)
        a, b = y[k - 2], y[k - 1]
        s = max(abs(a), abs(b))
        if s > _RENORM:
            a, b = a / s, b / s
            acc += np.log(s)
        rhs = np.zeros((m, 1))
        rhs[0, 0] = d[k - 1] * b - w[k - 2] * a
        if m > 1:
            rhs[1, 0] = -w[k - 1] * b
        x, info = dtbtrs(band[:, k:k + m], rhs, uplo="L")
        if info != 0:
            raise ConvergenceFailure(f"Numerov banded solve failed (LAPACK info={info})")
        y[k:k + m] = x[:, 0]
        log_scale[k:k + m] = acc
    if not np.all(np.isfinite(y)):
        raise ConvergenceFailure("Numerov sweep overflowed")
    z = y[-1] - _tail_ratio(f[-1], h) * y[-2] * np.exp(log_scale[-2] - acc)
    sign = np.sign(np.append(y[1:-1], z))
    sign = sign[sign != 0]
    nodes = int(np.sum(sign[1:] * sign[:-1] < 0))
    if acc:
        y *= np.exp(log_scale - acc)
    return y, nodes


def shoot_bound_state(p: ShootingProblem, n: int):
    """n-th bound-state energy (n = 0, 1, ...) by node counting plus bisection.

    Sweeps from zero at t_min count nodes through the end sample z of
    `_numerov_sweep`, which changes sign where the solution matches the
    decaying tail of v held at v[-1] (exact on a flat tail); bisection on
    the count over [min v + 1e-9, min(v[0], v[-1])] closes on the eigenvalue
    to machine precision.  Returns (energy, (t, profile)) with the profile
    normalized to unit discrete L2.  Numerov needs w = 1 - h^2 (v - E)/12 > 0
    at every sample, or the recurrence invents nodes; w is smallest at the
    floor energy, so a step too coarse there raises ConvergenceFailure.
    """
    t = np.linspace(p.t_min, p.t_max, p.n)
    h = t[1] - t[0]
    v = p.potential(t)
    lo = float(np.min(v)) + 1e-9
    hi = float(min(v[0], v[-1]))
    if not lo < hi:
        raise NotConfining("potential window admits no bound-state energy range")
    c_max = h * h * float(np.max(v) - lo) / 12.0
    if not c_max < 1.0:
        raise ConvergenceFailure(f"Numerov step too coarse: h^2 (v - E)/12 reaches "
                                 f"{c_max:.3g} at the energy floor and must stay below 1")

    def sweep(e: float):
        return _numerov_sweep(v - e, h, 0.0, 1e-8)

    if sweep(lo)[1] > n:
        raise NotConfining(f"window already has more than {n} nodes at its energy floor")
    if sweep(hi)[1] <= n:
        raise NotConfining(f"state {n} is not confined below the window walls")
    # adjacent floats are closer than this bound, so the halving always ends
    while hi - lo >= max(1e-14, 4e-16 * abs(hi)):
        mid = 0.5 * (lo + hi)
        if sweep(mid)[1] <= n:
            lo = mid
        else:
            hi = mid
    energy = 0.5 * (lo + hi)
    prof, _ = sweep(energy)
    peak = np.max(np.abs(prof))
    if peak > 0:
        prof = prof / peak  # keeps the norm below from overflowing
        prof = prof / (np.sqrt(h) * np.linalg.norm(prof))
    return float(energy), (t, prof)


# ---------------------------------------------------------------------------
# quadrature and roots
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


def find_root_bracketed(f, lo: float, hi: float, tol: float = 1e-12,
                        max_iter: int = 200) -> float:
    """Root of f in [lo, hi] by the Illinois variant of false position.

    Requires a sign change; stops when |f(root)| < tol or the bracket is
    machine-tight.  When the same end survives two steps in a row its f is
    halved, so the bracket closes from both sides even where |f| cannot
    fall below tol.
    """
    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if not (np.isfinite(fa) and np.isfinite(fb)) or (fa > 0) == (fb > 0):
        raise NoSignChange(f"f({lo})={fa} and f({hi})={fb} do not bracket a root")
    a, b = lo, hi
    kept = None  # the end that survived the previous step
    for _ in range(max_iter):
        # secant candidate, kept only if it lands strictly inside the bracket
        m = b - fb * (b - a) / (fb - fa) if fb != fa else 0.5 * (a + b)
        if not (min(a, b) < m < max(a, b)):
            m = 0.5 * (a + b)
            if not (min(a, b) < m < max(a, b)):
                return m  # no float lies strictly inside the bracket
        fm = f(m)
        if abs(fm) < tol or abs(b - a) < 1e-16 * max(1.0, abs(a) + abs(b)):
            return m
        if fa < 0 < fm or fm < 0 < fa:  # opposite signs, without overflow
            b, fb = m, fm
            if kept == "a":
                fa *= 0.5
            kept = "a"
        else:
            a, fa = m, fm
            if kept == "b":
                fb *= 0.5
            kept = "b"
    raise ConvergenceFailure("bracketed root search exceeded max iterations")
