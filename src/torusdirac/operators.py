"""Torus Dirac kernel and its reduction to second-order problems.

After the exp(i k u) ansatz the operator acts on two-component functions of
x alone; the wavenumber k and the charge e are read from the gauge field.
Its off-diagonal entries combine a first derivative with the multiplicative
coefficients

    W1(x) = (a/2) sin x - (i e / a) A_x(x)
    Q(x)  = (k + e a A_u(x)) / R(x)      (the reduced angular + gauge term)

The source system prints its second row ambiguously.  The kernel takes the
reading whose square reproduces the decoupled equations with a positive
eigenvalue scale, which criterion 2 certifies; the literal reading, with
-(1/a) d/dx in both rows, is that second row negated.

Every sampled operator of the package, from the decoupled second-order
problems to the first-order and multiplicative intertwiners, is one
`SampledOp`  -p psi'' + sigma psi' + rho psi.  Operators map sample arrays of
the grid they were built on: a probe of shape (n,) or a stack (S, n), and a
spinor (psi1, psi2) of shape (2, n) or (2, S, n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometry, GridMismatch, VelocityZero
from .fields import GaugeField, eval_fermi_velocity, eval_gauge
from .geometry import TorusParams, radius_derivative, radius_profile
from .grids import Grid, diff1, diff2, row_blocks, row_norms


def _hypot_rows(n1, n2) -> np.ndarray:
    """sqrt(n1^2 + n2^2) row by row; scalar squares, as an array square can round differently."""
    return np.array([np.sqrt(a ** 2 + b ** 2) for a, b in zip(n1, n2)])


def _spinor_norms(spinor: np.ndarray, grid: Grid) -> np.ndarray:
    """L2 norm (weight h) of each probe of a (2, n) or (2, S, n) spinor, as a 1-D array."""
    return _hypot_rows(*(np.sqrt(grid.h) * row_norms(psi) for psi in spinor))


@dataclass
class SampledOp:
    """Operator  -p psi'' + sigma psi' + rho psi  sampled on a grid.

    p = 1 gives the Schrodinger (sigma = 0) and Sturm-Liouville forms, p = 0
    the first-order (sigma = 1) and multiplicative (sigma = 0) ones.  A
    scalar sigma or rho is broadcast over the grid, and the samples over a
    stack of probes; a sigma that is zero everywhere skips the first-derivative
    stencil.  The decouplers document how their eigenvalue relates to the
    energy.
    """

    grid: Grid
    p: float
    sigma: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.p = float(self.p)
        self.sigma, self.rho = (np.full(self.grid.n, c, dtype=complex) if np.ndim(c) == 0
                                else np.asarray(c, dtype=complex)
                                for c in (self.sigma, self.rho))
        if self.sigma.shape != (self.grid.n,) or self.rho.shape != (self.grid.n,):
            raise GridMismatch("coefficient samples do not match the grid")
        if not (np.isfinite(self.p) and np.all(np.isfinite(self.sigma))
                and np.all(np.isfinite(self.rho))):
            raise ValueError("non-finite coefficient samples")

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply -p d2 + sigma d1 + rho, d2 the three-point Laplacian, to samples v."""
        out = self.sigma * diff1(v, self.grid) if np.any(self.sigma) else 0.0
        if self.p:
            out = -self.p * diff2(v, self.grid) + out
        return out + self.rho * v

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        """Conjugate transpose of `apply`'s matrix: -p d2 v - d1(conj(sigma) v) + conj(rho) v.

        Exact on both grid kinds: the d2 stencil is symmetric and the
        (wrapped or zero-padded) d1 stencil antisymmetric.
        """
        out = -diff1(np.conj(self.sigma) * v, self.grid) if np.any(self.sigma) else 0.0
        if self.p:
            out = -self.p * diff2(v, self.grid) + out
        return out + np.conj(self.rho) * v


def _coefficients(params: TorusParams, gauge: GaugeField, x: np.ndarray):
    """Return (W1, Q, W1', Q') sampled on x."""
    k, e = gauge.k, gauge.e
    r = radius_profile(params, x)
    if np.min(np.abs(r)) < 1e-12:
        raise DegenerateGeometry("ring radius vanishes on the grid")
    rp = radius_derivative(params, x)
    ax, au, axp, aup = eval_gauge(gauge, params, x)
    w1 = 0.5 * params.a * np.sin(x) - 1j * e / params.a * ax
    q = (k + e * params.a * au) / r
    w1p = 0.5 * params.a * np.cos(x) - 1j * e / params.a * axp
    qp = e * params.a * aup / r - (k + e * params.a * au) * rp / r ** 2
    return w1, q, w1p, qp


def dirac_operator(params: TorusParams, gauge: GaugeField, grid: Grid):
    """The reduced Dirac operator on a periodic grid, as a map of (2, n) or (2, S, n) spinors.

    Its coefficients are evaluated once, when the map is made.
    """
    if grid.boundary != "periodic":
        raise GridMismatch("the Dirac kernel is applied on periodic grids")
    w1, q, _, _ = _coefficients(params, gauge, grid.points)
    inv_a = 1.0 / params.a

    def apply(spinor: np.ndarray) -> np.ndarray:
        psi1, psi2 = spinor
        return np.array((-inv_a * diff1(psi2, grid) + (w1 - q) * psi2,
                         inv_a * diff1(psi1, grid) - (w1 + q) * psi1))
    return apply


def _squared_terms(params: TorusParams, gauge: GaugeField, x: np.ndarray):
    """(sigma, (F+, F-), (G+, G-)) of the squared kernel on x.

    sigma = 2 a W1,  F+- = a (W1 +- Q)' - a^2 (W1 - Q)(W1 + Q),  G+- = a (W1 +- Q).
    """
    w1, q, w1p, qp = _coefficients(params, gauge, x)
    a = params.a
    mp = (w1 - q) * (w1 + q)
    sigma = 2.0 * a * w1
    f = (a * (w1p + qp) - a * a * mp, a * (w1p - qp) - a * a * mp)
    g = (a * (w1 + q), a * (w1 - q))
    return sigma, f, g


def decouple_constant_vf(params: TorusParams, gauge: GaugeField, grid: Grid):
    """Decoupled plus/minus problems for constant Fermi velocity.

    sigma = a^2 sin x - 2 i e A_x
    rho_plus  = a (W1 + Q)' - a^2 (W1 - Q)(W1 + Q)
    rho_minus = a (W1 - Q)' - a^2 (W1 - Q)(W1 + Q)

    so that the minus sector is exactly the k -> -k, A_u -> -A_u image of
    the plus sector.  The eigenvalue of either problem is a^2 (E/V_F)^2.
    """
    sigma, (f_plus, f_minus), _ = _squared_terms(params, gauge, grid.points)
    return SampledOp(grid, 1, sigma, f_plus), SampledOp(grid, 1, sigma, f_minus)


def decouple_pdfv(params: TorusParams, gauge: GaugeField, grid: Grid):
    """Decoupled problems for the position-dependent Fermi velocity V_F = a cos x.

    Dividing the squared system by V_F^2 gives

        -psi'' + (sigma - V'/V) psi' + (F + G V'/V) psi = (a^2 E^2 / V_F^2) psi

    with F identical to the constant-velocity rho and G = a (W1 +- Q).
    """
    x = grid.points
    v, vp, _ = eval_fermi_velocity(params, x)
    if np.min(np.abs(v)) < 1e-12:
        raise VelocityZero("V_F vanishes on an interior grid point; choose a grid avoiding it")
    sigma, (f_plus, f_minus), (g_plus, g_minus) = _squared_terms(params, gauge, x)
    t = vp / v
    return (SampledOp(grid, 1, sigma - t, f_plus + g_plus * t),
            SampledOp(grid, 1, sigma - t, f_minus + g_minus * t))


# ---------------------------------------------------------------------------
# certification helpers
# ---------------------------------------------------------------------------

def squaring_discrepancy(params: TorusParams, gauge: GaugeField, grid: Grid,
                         spinor: np.ndarray) -> float:
    """Relative mismatch between a^2 * H(H psi) and the decoupled operators.

    The decoupled problems are applied with the central first-derivative
    stencil composed with itself in place of the Laplacian: that is the
    discrete operator the squared first-order system produces, so the
    comparison isolates the coefficient algebra from the choice of stencil.
    A stacked spinor gives the worst of its probes, each as it would alone.
    """
    plus, minus = decouple_constant_vf(params, gauge, grid)
    dirac = dirac_operator(params, gauge, grid)
    scale = params.a ** 2

    def squared(op: SampledOp, v: np.ndarray) -> np.ndarray:
        d1 = diff1(v, grid)
        return -op.p * diff1(d1, grid) + op.sigma * d1 + op.rho * v

    worst = 0.0
    for rows in row_blocks(np.reshape(spinor, (2, -1, grid.n))):
        hh1, hh2 = dirac(dirac(rows))
        rhs1, rhs2 = squared(plus, rows[0]), squared(minus, rows[1])
        num = _hypot_rows(row_norms(scale * hh1 - rhs1), row_norms(scale * hh2 - rhs2))
        worst = max(worst, float(np.max(num / _hypot_rows(row_norms(rhs1), row_norms(rhs2)))))
    return worst


def hermiticity_defect(params: TorusParams, gauge: GaugeField, grid: Grid, pairs) -> float:
    """max |<f, H g> - <H f, g>| / (|f| |g|) over spinor pairs or stacks of them (flat measure)."""
    def inner(f: np.ndarray, g: np.ndarray):
        return grid.h * (np.sum(np.conj(f[0]) * g[0], axis=-1)
                         + np.sum(np.conj(f[1]) * g[1], axis=-1))

    dirac = dirac_operator(params, gauge, grid)
    worst = 0.0
    for f, g in pairs:
        hf, hg = dirac(f), dirac(g)
        # scalar abs: np.abs of a complex array rounds differently
        gap = np.array([abs(z) for z in np.atleast_1d(inner(f, hg) - inner(hf, g))])
        worst = max(worst, float(np.max(gap / (_spinor_norms(f, grid) * _spinor_norms(g, grid)))))
    return worst
