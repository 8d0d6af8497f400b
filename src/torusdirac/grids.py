"""Uniform 1-D grids, difference stencils, and reproducible test functions.

A function on a grid is the array of its samples: shape (n,), or (S, n) for
a stack of S probes.  The stencils act on the last axis, so a stack is
differentiated in one call.  Periodic grids sample [0, 2pi) without the
right endpoint; Dirichlet grids sample the open interior of (x_min, x_max)
so that the homogeneous boundary values never appear as unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Uniform grid with n points and a boundary kind ('periodic' or 'dirichlet')."""

    n: int
    x_min: float = 0.0
    x_max: float = TWO_PI
    boundary: str = "periodic"

    def __post_init__(self):
        if self.n < 16:
            raise ValueError(f"grid needs n >= 16, got n={self.n}")
        if not self.x_min < self.x_max:
            raise ValueError("grid needs x_min < x_max")
        if self.boundary not in ("periodic", "dirichlet"):
            raise ValueError(f"unknown boundary kind {self.boundary!r}")
        if self.boundary == "periodic":
            if abs(self.x_min) > 1e-12 or abs(self.x_max - TWO_PI) > 1e-12:
                raise ValueError("periodic grids must span exactly [0, 2pi)")

    @property
    def h(self) -> float:
        if self.boundary == "periodic":
            return (self.x_max - self.x_min) / self.n
        return (self.x_max - self.x_min) / (self.n + 1)

    @property
    def points(self) -> np.ndarray:
        if self.boundary == "periodic":
            return self.x_min + self.h * np.arange(self.n)
        return self.x_min + self.h * (1.0 + np.arange(self.n))


def row_norms(values: np.ndarray) -> np.ndarray:
    """2-norm of each row of an (n,) or (S, n) array as a 1-D norm (`axis=-1` rounds otherwise)."""
    return np.array([np.linalg.norm(r) for r in np.atleast_2d(values)])


def row_blocks(values: np.ndarray) -> list[np.ndarray]:
    """Blocks of whole rows (second-last axis), at most 4096 samples (or one row) each.

    They bound temporaries.  A leading axis, such as a spinor's component
    axis, is kept in every block.
    """
    step = max(1, 4096 // values.shape[-1])
    return [values[..., i:i + step, :] for i in range(0, values.shape[-2], step)]


# ---------------------------------------------------------------------------
# second-order central stencils
# ---------------------------------------------------------------------------

def _wrap(v: np.ndarray, k: int) -> np.ndarray:
    """v along the last axis with k periodic ghost samples at each end.

    One copy, written by slice assignment.  An interior stencil on it is the
    periodic stencil with the same operations per sample, so its values have
    the bits of the shifted-copy (`np.roll`) form.
    """
    out = np.empty(v.shape[:-1] + (v.shape[-1] + 2 * k,), dtype=v.dtype)
    out[..., k:-k] = v
    out[..., :k] = v[..., -k:]
    out[..., -k:] = v[..., :k]
    return out


def diff1(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Central first derivative on the last axis; periodic wraparound or zero-padded Dirichlet."""
    v = np.asarray(values)
    h2 = 2.0 * grid.h
    if grid.boundary == "periodic":
        p = _wrap(v, 1)
        return (p[..., 2:] - p[..., :-2]) / h2
    out = np.empty_like(v)
    out[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / h2
    out[..., 0] = v[..., 1] / h2          # ghost value 0 at x_min
    out[..., -1] = -v[..., -2] / h2       # ghost value 0 at x_max
    return out


def diff2(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Standard three-point second derivative, same axis and boundary handling."""
    v = np.asarray(values)
    hh = grid.h * grid.h
    if grid.boundary == "periodic":
        p = _wrap(v, 1)
        return (p[..., 2:] - 2.0 * p[..., 1:-1] + p[..., :-2]) / hh
    out = np.empty_like(v)
    out[..., 1:-1] = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / hh
    out[..., 0] = (v[..., 1] - 2.0 * v[..., 0]) / hh
    out[..., -1] = (-2.0 * v[..., -1] + v[..., -2]) / hh
    return out


def diff2_fourth_order(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Five-point O(h^4) second derivative along the last axis, for residual measurements.

    Dirichlet grids fall back to the three-point stencil on the two points
    nearest each wall.
    """
    v = np.asarray(values)
    hh = 12.0 * grid.h * grid.h
    periodic = grid.boundary == "periodic"
    p = _wrap(v, 2) if periodic else v
    inner = (-p[..., 4:] + 16.0 * p[..., 3:-1] - 30.0 * p[..., 2:-2]
             + 16.0 * p[..., 1:-3] - p[..., :-4]) / hh
    if periodic:
        return inner
    out = np.empty_like(v)
    out[..., 2:-2] = inner
    three = diff2(v, grid)
    out[..., :2] = three[..., :2]
    out[..., -2:] = three[..., -2:]
    return out


# ---------------------------------------------------------------------------
# reproducible test functions for oracles and residual checks
# ---------------------------------------------------------------------------

def band_limited(grid: Grid, modes, rng=None, n_functions: int = 1) -> np.ndarray:
    """(n_functions, n) random smooth periodic functions on the given modes.

    The coefficients are drawn at once, in scalar-draw order, and the modes
    are summed in order, each mode's row built once for every function.
    """
    c = np.random.default_rng(rng).standard_normal((n_functions, len(modes), 2))
    coef, x = c[..., 0] + 1j * c[..., 1], grid.points
    v = np.zeros((n_functions, grid.n), dtype=complex)
    for j, m in enumerate(modes):
        v += coef[:, j, None] * np.exp(1j * m * x)
    return v


def bump_window(grid: Grid, lo: float, hi: float) -> np.ndarray:
    """C-infinity bump equal to 1 well inside (lo, hi) and identically 0 outside.

    Used to compactly support test functions away from interval endpoints,
    e.g. when an operator coefficient is not periodic.
    """
    x = grid.points
    u = (2.0 * (x - lo) / (hi - lo)) - 1.0  # maps (lo, hi) -> (-1, 1)
    w = np.zeros_like(x)
    inside = np.abs(u) < 1.0
    w[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return w


def compact_test_functions(grid: Grid, modes, rng=None, n_functions: int = 1,
                           margin: float = 0.5) -> np.ndarray:
    """(n_functions, n) band-limited functions times a bump vanishing near the interval ends."""
    w = bump_window(grid, grid.x_min + margin, grid.x_max - margin)
    return band_limited(grid, modes, rng, n_functions) * w
