"""Intertwining operators, superpotential factorization, and effective potentials.

The generic certifier here is `intertwining_residual`: given a candidate
intertwiner eta and two operators H, H_target, it measures
max ||(eta H - H_target eta) phi|| / ||phi|| over a test set with
discrete-level compositions.  Exact relations (the factorization pair, the
multiplicative symmetrizer) drive the residual to discretization error;
the tabulated first-order intertwiners of the constant- and
position-dependent-velocity chains carry a genuine continuum obstruction,
which the residual reports rather than hides.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainSingularity, FamilyMismatch
from .fields import GaugeField, eval_gauge
from .geometry import TorusParams, radius_derivative, radius_profile
from .grids import Grid, row_blocks, row_norms
from .operators import SampledOp


@dataclass(frozen=True)
class MathieuParams:
    """Scalars of the model -psi'' + (A + B cos x + C sin x + D sin^2 x) psi = 0."""

    A_m: complex
    B_m: complex
    C_m: complex
    D_m: complex

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        return (self.A_m + self.B_m * np.cos(x) + self.C_m * np.sin(x)
                + self.D_m * np.sin(x) ** 2)


# ---------------------------------------------------------------------------
# constant-velocity chain
# ---------------------------------------------------------------------------

def eta2_case1(params: TorusParams, C1: float, grid: Grid) -> SampledOp:
    """First-order intertwiner d/dx + A(x) of the constant-velocity chain.

    A(x) = C1 + a^4 x / 4 - (a^2/2) sin x - (a^4/8) sin 2x.  The x/4 term is
    secular (not periodic), so residual tests must use compactly supported
    test functions.
    """
    a4 = params.a ** 4
    x = grid.points
    coeff = C1 + a4 * x / 4.0 - 0.5 * params.a ** 2 * np.sin(x) - a4 / 8.0 * np.sin(2.0 * x)
    return SampledOp(grid, 0, 1, coeff)


def hermitian_counterpart_case1(params: TorusParams, gauge: GaugeField,
                                grid: Grid) -> np.ndarray:
    """Hermitian-counterpart potential of the constant-velocity chain, sampled on the grid.

    V1 = (a k + a^2 e A_u)^2 / R^2 + a e A_u' / R - a k R'/R^2 - a^2 e A_u R'/R^2,
    tabulated exactly as displayed in the source chain, with k and e read from
    the gauge field.  The quadratic ring field's constant -k/(a e) cancels the
    k-dependence, and V1 collapses to a trigonometric polynomial in R and R'.
    """
    if gauge.kind not in ("quadratic_au", "hermitizing_quadratic"):
        raise FamilyMismatch("the counterpart potential needs the quadratic A_u family")

    a, k, e = params.a, gauge.k, gauge.e
    x = grid.points
    r = radius_profile(params, x)
    rp = radius_derivative(params, x)
    _, au, _, aup = eval_gauge(gauge, params, x)
    return ((a * k + a ** 2 * e * au) ** 2 / r ** 2
            + a * e * aup / r
            - a * k * rp / r ** 2
            - a ** 2 * e * au * rp / r ** 2)


def mathieu_form(params: TorusParams, e: float, C2: complex) -> MathieuParams:
    """Trigonometric-polynomial coefficients of the collapsed counterpart potential."""
    a, c = params.a, params.c
    c2sq = C2 * C2
    return MathieuParams(
        A_m=a ** 4 * (a ** 2 + c ** 2) * c2sq * e ** 2,
        B_m=2.0 * c * a ** 5 * c2sq * e ** 2,
        C_m=e * C2 * a ** 2 * (a - 2.0),
        D_m=-(a ** 6) * c2sq * e ** 2,
    )


def sqrt_am1(a: float) -> complex:
    """Principal branch of sqrt(a - 1); +i sqrt(1-a) below a = 1."""
    return complex(np.sqrt(complex(a - 1.0, 0.0)))


def factorization_constants(a: float, e: float = 1.0) -> tuple[complex, complex]:
    """Companion constants (C2, c) that the factorization branch fixes.

    C2 = sqrt(a-1)/(a^4 e) and c = a^2 / (2 sqrt(1-a)), the latter read as
    a^2 / (-2 i sqrt(a-1)) on the branch of `sqrt_am1`.  Both are complex:
    for a < 1 the ring radius c is real (its real part is the radius) while
    C2 is imaginary; for a > 1 it is the other way round.  c diverges at
    a = 1, where it is returned as inf.
    """
    s = sqrt_am1(a)
    c = 0.5 * a ** 2 / (-1j * s) if s else complex(np.inf)
    return s / (a ** 4 * e), c


def constrained_torus(a: float) -> TorusParams:
    """The torus of tube radius a < 1 whose center radius is the constraint's real c."""
    with warnings.catch_warnings():
        # below a = 2 sqrt(2) - 2 the constraint puts the center radius below the tube radius
        warnings.filterwarnings("ignore", message="c <= a")
        return TorusParams(a=a, c=factorization_constants(a)[1].real)


def real_morse_branch(params: TorusParams) -> MathieuParams:
    """`mathieu_form` at the factorization C2 (e = 1) with C_m set to 0.

    For a < 1 that C2 is imaginary, which makes A_m, B_m and D_m real and C_m,
    the tangent term, imaginary: dropping it leaves the real branch that the
    Morse chain transforms.
    """
    mf = mathieu_form(params, 1.0, factorization_constants(params.a)[0])
    return MathieuParams(A_m=mf.A_m, B_m=mf.B_m, C_m=0.0, D_m=mf.D_m)


def superpotential(a: float, x):
    """(W, W') on the samples x, W = -(i sqrt(a-1)/a) sin x + i(a-2)/(2a)."""
    s = sqrt_am1(a)
    return -1j * s / a * np.sin(x) + 1j * (a - 2.0) / (2.0 * a), -1j * s / a * np.cos(x)


def superpotential_case1(params: TorusParams, grid: Grid) -> SampledOp:
    """Superpotential operator d/dx + W, with W of `superpotential`.

    Its branch constants are `factorization_constants(params.a)`.
    """
    return SampledOp(grid, 0, 1, superpotential(params.a, grid.points)[0])


def partner_potentials_case1(params: TorusParams, grid: Grid):
    """Closed-form factorization partners (V, V1) = (W^2 - W', W^2 + W'), sampled on the grid."""
    a = params.a
    s = sqrt_am1(a)
    x = grid.points
    base = (a - 1.0) / a ** 2 * np.cos(x) ** 2 + (a - 2.0) / a ** 2 * s * np.sin(x) - 0.25
    return base + 1j * s / a * np.cos(x), base - 1j * s / a * np.cos(x)


# ---------------------------------------------------------------------------
# position-dependent-velocity chain
# ---------------------------------------------------------------------------

def eta2_case2(params: TorusParams, C2: float, grid: Grid) -> SampledOp:
    """First-order intertwiner of the position-dependent-velocity chain.

    Coefficient a^4/16 + C2 + (3/4) a^2 sin x - (a^4/32) sin 2x; unlike the
    constant-velocity chain this one is 2pi-periodic.
    """
    a4 = params.a ** 4
    x = grid.points
    coeff = a4 / 16.0 + C2 + 0.75 * params.a ** 2 * np.sin(x) - a4 / 32.0 * np.sin(2.0 * x)
    return SampledOp(grid, 0, 1, coeff)


def veff_case2(params: TorusParams, grid: Grid):
    """Effective potential of the cosine-velocity problem, as a map of ring fields.

    The map takes a linear ring field and returns the real samples on the grid:

    V_eff = -V'^2/(4V^2) + V''/(2V) + (a e A_u + k)^2/R^2 - a e A_u'/R
            + (k + a e A_u) R'/R^2 - (k + a e A_u) V'/(R V)

    With the linear ring field this collapses to the trigonometric
    Rosen-Morse-II form; see `rosen_morse_form`.  k and e are read from the
    gauge field.  The field and the velocity are real, so the samples are
    built in real arithmetic; each factor repeats the floating-point
    operations of `radius_profile`, `radius_derivative`, `eval_gauge` or
    `eval_fermi_velocity`, so it has the bits of that helper's real part.
    cos x, sin x and every factor that does not depend on the field (V and
    its derivatives, R, R', R^2, R V and the first two terms) are evaluated
    once, when the map is made.
    """
    x = grid.points
    cos, sin = np.cos(x), np.sin(x)
    if np.min(np.abs(cos)) < 1e-9:
        raise DomainSingularity("grid touches a velocity zero")
    a = params.a
    v, vp, vpp = a * cos, -a * sin, -a * cos
    r, rp = params.c + v, vp
    r2, rv = r ** 2, r * v
    base = -(vp ** 2) / (4.0 * v ** 2) + vpp / (2.0 * v)

    def veff(gauge: GaugeField) -> np.ndarray:
        if gauge.kind != "linear_au":
            raise FamilyMismatch("the effective potential needs the linear A_u family")
        k, e = gauge.k, gauge.e
        au, aup = gauge.a2 * r - k / (a * e), gauge.a2 * rp
        return (base
                + (au * a * e + k) ** 2 / r2
                - a * e * aup / r
                + (k + a * e * au) * rp / r2
                - k * vp / rv
                - a * e * au * vp / rv)
    return veff


def rosen_morse_form(params: TorusParams, a2: float, e: float, x):
    """Trigonometric Rosen-Morse-II closed form a^2 a2^2 e^2 - 1/2 + a2 e a tan x - tan^2 x / 4."""
    x = np.asarray(x, dtype=float)
    lam = params.a * a2 * e
    return lam ** 2 - 0.5 + lam * np.tan(x) - 0.25 * np.tan(x) ** 2


# ---------------------------------------------------------------------------
# residual certifier
# ---------------------------------------------------------------------------

def intertwining_residual(eta, h_op, h_target, grid: Grid, testset) -> float:
    """max over the test set of ||(eta H - H_target eta) phi|| / ||phi||.

    `eta`, `h_op` and `h_target` map sample arrays on `grid`: a `SampledOp`'s
    `apply` or `apply_adjoint`, or a composition of them.  The test set is
    one probe (n,) or a stack (S, n), applied in row blocks; the norms carry
    the grid's weight h.  Discrete compositions throughout, so an exact
    continuum relation leaves only the stencil error, which vanishes at
    second order under refinement; a factorized pair A^H A, A A^H is
    intertwined by A exactly, by associativity.
    """
    worst = 0.0
    for phi in row_blocks(np.atleast_2d(testset)):
        gap = eta(h_op(phi)) - h_target(eta(phi))
        worst = max(worst, *np.sqrt(grid.h) * row_norms(gap) / (np.sqrt(grid.h) * row_norms(phi)))
    return float(worst)
