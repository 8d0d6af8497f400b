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

log = logging.getLogger(__name__)

# samples per banded solve in a Numerov sweep
_CHUNK = 256
# seeds above this are rescaled, leaving 1e200 of headroom inside one chunk
_RENORM = 1e100


@dataclass
class TridiagonalSym:
    """Real symmetric tridiagonal matrix (diag of length n, offdiag n-1)."""

    diag: np.ndarray
    offdiag: np.ndarray
    # periodic discretizations carry a corner entry; the eigensolver then
    # routes through the dense path
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

    def dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        m[idx, idx + 1] = self.offdiag
        m[idx + 1, idx] = self.offdiag
        if self.corner != 0.0:
            m[0, -1] += self.corner
            m[-1, 0] += self.corner
        return m

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
    """Ascending eigenvalues, optional eigenvectors (columns), and residual norms."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = field(default=None, repr=False)
    residuals: Optional[np.ndarray] = None


def discretize_schrodinger(potential, grid: Grid) -> TridiagonalSym:
    """Three-point discretization of -psi'' + V psi on the grid.

    `potential` is a callable of x or an array of samples.  Dirichlet grids
    hold interior points only; periodic grids get the wraparound corner.
    """
    x = grid.points
    v = potential(x) if callable(potential) else np.asarray(potential)
    if np.max(np.abs(np.imag(v))) > 1e-12:
        raise ComplexPotential("real eigensolves only; potential has an imaginary part")
    v = np.real(v).astype(float)
    if v.shape != (grid.n,):
        raise ValueError("potential samples do not match grid size")
    hh = grid.h * grid.h
    diag = 2.0 / hh + v
    offdiag = np.full(grid.n - 1, -1.0 / hh)
    corner = -1.0 / hh if grid.boundary == "periodic" else 0.0
    return TridiagonalSym(diag, offdiag, corner)


def eig_sym_tridiag(m: TridiagonalSym, k_lowest: int,
                    with_vectors: bool = True) -> EigResult:
    """Lowest-k eigenpairs.

    Pure tridiagonal problems use LAPACK's Sturm-sequence bisection plus
    inverse iteration; a nonzero periodic corner falls back to the dense
    symmetric solver.
    """
    if not 1 <= k_lowest <= m.n:
        raise ValueError("k_lowest out of range")
    if m.corner == 0.0:
        if with_vectors:
            w, vecs = eigh_tridiagonal(
                m.diag, m.offdiag, select="i", select_range=(0, k_lowest - 1)
            )
        else:
            w = eigh_tridiagonal(
                m.diag, m.offdiag, select="i", select_range=(0, k_lowest - 1),
                eigvals_only=True,
            )
            vecs = None
    else:
        w_all, v_all = eigh(m.dense())
        w, vecs = w_all[:k_lowest], v_all[:, :k_lowest]
        if not with_vectors:
            vecs = None
    res = None
    if vecs is not None:
        res = np.array([
            np.linalg.norm(m.matvec(vecs[:, i]) - w[i] * vecs[:, i])
            for i in range(len(w))
        ])
        if np.any(res > 1e-6 * max(1.0, np.max(np.abs(w)))):
            raise ConvergenceFailure("eigenpair residuals exceed solver tolerance")
    return EigResult(eigenvalues=w, eigenvectors=vecs, residuals=res)


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
    """Confining real potential on [t_min, t_max] with decay-to-zero ends."""

    potential: Callable[[np.ndarray], np.ndarray]
    t_min: float
    t_max: float
    n: int = 6001
    tolerance: float = 1e-10

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError("need t_min < t_max")


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
    (y, interior node count); nodes are counted before that final rescale,
    so underflow cannot hide one.  Raises ConvergenceFailure on a singular
    band (some w_i = 0) or an overflow.
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
    sign = np.sign(y[1:-1])
    sign = sign[sign != 0]
    nodes = int(np.sum(sign[1:] * sign[:-1] < 0))
    if acc:
        y *= np.exp(log_scale - acc)
    return y, nodes


def _left_sweep(v: np.ndarray, h: float, energy: float):
    """Numerov sweep from the left wall; returns (profile, interior node count)."""
    return _numerov_sweep(v - energy, h, 0.0, 1e-8)


def shoot_bound_state(p: ShootingProblem, n: int,
                      e_lo: Optional[float] = None,
                      e_hi: Optional[float] = None):
    """n-th bound-state energy (n = 0, 1, ...) by node counting plus bisection.

    A single Numerov sweep from the left end defines the miss function
    (the value at the right wall); its n-th zero is bracketed by bisecting
    the interior node count, which jumps n -> n+1 exactly at the eigenvalue,
    then polished on the sign change of the end value.  Returns
    (energy, (t, profile)) with the profile normalized to unit discrete L2.
    """
    t = np.linspace(p.t_min, p.t_max, p.n)
    h = t[1] - t[0]
    v = p.potential(t)
    if e_lo is None:
        e_lo = float(np.min(v)) + 1e-9
    if e_hi is None:
        e_hi = float(min(v[0], v[-1]))
    if not e_lo < e_hi:
        raise NotConfining("potential window admits no bound-state energy range")

    def nodes_at(e: float) -> int:
        return _left_sweep(v, h, e)[1]

    lo, hi = e_lo, e_hi
    if nodes_at(lo) > n:
        raise NotConfining(f"window already has more than {n} nodes at its energy floor")
    if nodes_at(hi) <= n:
        raise NotConfining(f"state {n} is not confined below the window walls")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if nodes_at(mid) <= n:
            lo = mid
        else:
            hi = mid
        if hi - lo < max(1e-14, 4e-16 * abs(hi)):
            break

    # polish on the end value, which flips sign across the eigenvalue
    def miss(e: float) -> float:
        y, _ = _left_sweep(v, h, e)
        return y[-1]

    energy = 0.5 * (lo + hi)
    try:
        span = max(hi - lo, 1e-13 * max(1.0, abs(energy)))
        energy = find_root_bracketed(miss, lo - 2 * span, hi + 2 * span,
                                     tol=p.tolerance * max(1.0, abs(miss(lo))))
    except (NoSignChange, ConvergenceFailure) as exc:
        # the bisected value is already tight
        log.info("shooting level %d: end-value polish failed on [%.17g, %.17g], "
                 "keeping the bisected energy (%s)", n, lo, hi, exc)

    prof, _ = _left_sweep(v, h, energy)
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


def cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Antiderivative samples F with F[0] = 0, O(h^4) on even indices.

    Odd points use a local three-point (parabolic) half-panel rule, keeping
    the whole table fourth-order accurate.
    """
    y = np.asarray(y)
    n = y.shape[0]
    out = np.zeros(n, dtype=y.dtype)
    if n >= 3:
        # half-panel corrections
        left = h * (5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:]) / 12.0
        right = h * (-y[:-2] + 8.0 * y[1:-1] + 5.0 * y[2:]) / 12.0
        out[1] = left[0]
        for i in range(2, n):
            out[i] = out[i - 2] + left[i - 2] + right[i - 2]
    elif n == 2:
        out[1] = 0.5 * h * (y[0] + y[1])
    return out


def find_root_bracketed(f, lo: float, hi: float, tol: float = 1e-12,
                        max_iter: int = 200) -> float:
    """Root of f in [lo, hi] by bisection with secant acceleration.

    Requires a sign change; stops when |f(root)| < tol or the bracket is
    machine-tight.
    """
    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if not (np.isfinite(fa) and np.isfinite(fb)) or (fa > 0) == (fb > 0):
        raise NoSignChange(f"f({lo})={fa} and f({hi})={fb} do not bracket a root")
    a, b = lo, hi
    for _ in range(max_iter):
        # secant candidate, kept only if it lands strictly inside the bracket
        m = b - fb * (b - a) / (fb - fa) if fb != fa else 0.5 * (a + b)
        if not (min(a, b) < m < max(a, b)):
            m = 0.5 * (a + b)
        fm = f(m)
        if abs(fm) < tol or abs(b - a) < 1e-16 * max(1.0, abs(a) + abs(b)):
            return m
        if fa < 0 < fm or fm < 0 < fa:  # opposite signs, without overflow
            b, fb = m, fm
        else:
            a, fa = m, fm
    raise ConvergenceFailure("bracketed root search exceeded max iterations")
