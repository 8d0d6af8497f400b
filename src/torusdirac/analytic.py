"""Closed-form spectra and wavefunctions, plus the special functions they need.

Case 1 (constant velocity): the trigonometric-polynomial potential is point-
transformed to a Morse-form equation.  The tabulated energy formula is kept
verbatim, and the exact bound-state solution of the transformed equation is
derived independently (`morse_energy_exact`); the two are reported side by
side because they do not agree.

Case 2 (cosine velocity): the Rosen-Morse-II problem reduces to the Gauss
hypergeometric equation.  The termination condition is solvable only on the
negative branch of the exponent beta, where the two upper parameters
coincide at -n; that branch is used for quantization (`case2_levels`, one
closed form for scalars and arrays) and wavefunctions.  The tabulated
parameter display misses the product the equation pins; the registry check
`checks.printed_display_gap` measures by how much.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DomainSingularity,
    DomainUnsupported,
    NoRootInBracket,
    PoleAtC,
    SingularParameter,
)
from .pseudoherm import MathieuParams


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def _as_nonpositive_int(z) -> Optional[int]:
    """Return -m if z is within 1e-12 of a nonpositive integer -m, else None."""
    zr = complex(z)
    if abs(zr.imag) > 1e-12:
        return None
    m = round(zr.real)
    if m <= 0 and abs(zr.real - m) < 1e-12:
        return int(m)
    return None


def laguerre_gen(n: int, alpha: complex, x):
    """Generalized Laguerre polynomial L_n^(alpha)(x) by its finite sum.

    Complex order and argument are allowed; x may be a scalar (a complex is
    returned) or an array (a complex array of its shape is returned).  The
    binomial coefficients are accumulated as falling-factorial products.
    The sum runs in extended precision, which keeps its cancellation below
    1e-13 relative for orders n <= 20 with Re alpha in [-0.5, 2],
    Re x in [0, 1.5] and imaginary parts up to 0.3.
    """
    if n < 0 or n != int(n):
        raise ValueError("order n must be a nonnegative integer")
    n = int(n)
    scalar = np.ndim(x) == 0
    alpha = np.clongdouble(alpha)
    x = np.clongdouble(x) if scalar else np.asarray(x, dtype=np.clongdouble)
    total = np.clongdouble(0.0)
    factorial = np.longdouble(1.0)
    for m in range(n + 1):
        # C(n + alpha, n - m) = prod_{j=1}^{n-m} (alpha + m + j) / j
        binom = np.clongdouble(1.0)
        for j in range(1, n - m + 1):
            binom *= (alpha + m + j) / j
        if m > 0:
            factorial *= m
        total = total + (-1) ** m * binom * x ** m / factorial
    return complex(total) if scalar else total.astype(complex)


def laguerre_recurrence(n: int, alpha: complex, x: complex) -> complex:
    """Three-term recurrence evaluation; independent oracle for laguerre_gen."""
    l_prev = 1.0 + 0.0j
    if n == 0:
        return l_prev
    l_cur = 1.0 + alpha - x
    for m in range(1, n):
        l_next = ((2 * m + 1 + alpha - x) * l_cur - (m + alpha) * l_prev) / (m + 1)
        l_prev, l_cur = l_cur, l_next
    return l_cur


def gauss_2f1(a: complex, b: complex, c: complex, s):
    """Gauss hypergeometric 2F1(a, b; c; s) for a terminating series.

    a or b must be a nonpositive integer; the series then sums exactly for
    any s, scalar or array, and the forward sum is accurate to a few ulps
    of its largest term.  A non-terminating series raises DomainUnsupported,
    and a pole of the lower parameter before termination raises PoleAtC.
    """
    a, b, c = complex(a), complex(b), complex(c)
    scalar = np.ndim(s) == 0
    s = complex(s) if scalar else np.asarray(s, dtype=complex)
    na, nb = _as_nonpositive_int(a), _as_nonpositive_int(b)
    if na is None and nb is None:
        raise DomainUnsupported("2F1 is evaluated only where its series terminates")
    n_terms = min(-m for m in (na, nb) if m is not None)
    nc = _as_nonpositive_int(c)
    if nc is not None and -nc < n_terms:
        raise PoleAtC("lower parameter pole before series termination")
    total = term = 1.0 + 0.0j if scalar else np.ones_like(s)
    for m in range(n_terms):
        term = term * ((a + m) * (b + m) / ((c + m) * (m + 1)) * s)
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Case 1: Morse-form chain for the constant-velocity potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MorseChain:
    """Coefficients of the transformed equation psi'' + alpha^2 [lam + U(t)] psi = 0.

    U(t) = B + iC (w - 1) + (1/2)(B - iC - 2D)(w - 1)^2 with w = exp(-alpha t).
    `truncation_error` is the max modulus gap between the exact ring
    potential and its quadratic expansion around w = 1 (the approximation
    step of the chain).
    """

    alpha: float
    mathieu: MathieuParams
    quad_coeff: complex
    truncation_error: float

    def u_of_t(self, t):
        w = np.exp(-self.alpha * np.asarray(t, dtype=float))
        m = self.mathieu
        return (m.B_m + 1j * m.C_m * (w - 1.0)
                + 0.5 * (m.B_m - 1j * m.C_m - 2.0 * m.D_m) * (w - 1.0) ** 2)

    def potential(self, t):
        """The real potential -alpha^2 U(t); Im U above 1e-12 (the complex branch)
        raises SingularParameter."""
        u = self.u_of_t(t)
        if np.max(np.abs(u.imag)) > 1e-12:
            raise SingularParameter("the Morse potential needs the real branch of the chain")
        return -(self.alpha ** 2) * u.real


def case1_transform_chain(mathieu: MathieuParams, alpha: float) -> MorseChain:
    """Build the Morse chain and quantify the quadratic-expansion gap on 4096 angles."""
    if alpha == 0:
        raise ValueError("transformation scale alpha must be nonzero")
    m = mathieu
    x = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    z = np.exp(1j * x)
    exact = (m.D_m / 2.0 + (m.B_m - 1j * m.C_m) / 2.0 * z
             + (m.B_m + 1j * m.C_m) / (2.0 * z)
             - m.D_m / 4.0 * (z ** 2 + z ** -2))
    g = m.B_m - 1j * m.C_m - 2.0 * m.D_m
    expanded = m.B_m + 1j * m.C_m * (z - 1.0) + 0.5 * g * (z - 1.0) ** 2
    return MorseChain(
        alpha=alpha,
        mathieu=mathieu,
        quad_coeff=0.5 * g,
        truncation_error=float(np.max(np.abs(exact - expanded))),
    )


def case1_energy(n: int, alpha: float, mathieu: MathieuParams) -> complex:
    """Tabulated eigenvalue formula for the Morse chain, evaluated verbatim.

    Returns the complex energy_sq =
    -(alpha^2/4) (2n+1 - alpha (2D - B - 2C)/sqrt(D - (B+C)/2))^2.  Use
    `morse_energy_exact` for the independently derived spectrum of the same
    transformed equation.
    """
    m = mathieu
    h = m.D_m - (m.B_m + m.C_m) / 2.0
    if abs(h) < 1e-14:
        raise SingularParameter("D - (B+C)/2 vanishes; the tabulated formula is singular")
    root = np.sqrt(complex(h))
    bracket = (2 * n + 1) - alpha * (2.0 * m.D_m - m.B_m - 2.0 * m.C_m) / root
    return complex(-(alpha ** 2) / 4.0 * bracket ** 2)


def morse_energy_exact(n: int, mathieu: MathieuParams):
    """Exact bound-state eigenvalue of the transformed Morse-form equation.

    With U(w) = P0 + Q w + S w^2 (w = exp(-alpha t); P0 collects the
    eigenvalue), the bound solutions are w^rho exp(-kappa w) Laguerre with
    kappa = sqrt(-S), rho_n = Q/(2 kappa) - n - 1/2, and

        lam_n = -rho_n^2 - B + iC - (B - iC - 2D)/2.

    The spectrum does not depend on alpha (the transformation is a pure
    reparametrization).  Returns (lam_n, rho_n, exists) where `exists`
    requires Re(rho_n) > 0 for decay.
    """
    m = mathieu
    g = m.B_m - 1j * m.C_m - 2.0 * m.D_m
    s_coeff = g / 2.0
    kappa = np.sqrt(complex(-s_coeff))
    if abs(kappa) < 1e-14:
        raise SingularParameter("quadratic Morse coefficient vanishes")
    q_coeff = 1j * m.C_m - g
    rho = q_coeff / (2.0 * kappa) - n - 0.5
    lam = -(rho ** 2) - m.B_m + 1j * m.C_m - g / 2.0
    return complex(lam), complex(rho), bool(rho.real > 0)


def case1_wavefunction(n: int, alpha: float, mathieu: MathieuParams, t):
    """Morse-chain bound state of level n at t (scalar or array).

    Calibrated reading: psi = s^{2 mu} exp(-s/alpha) L_n^{4 mu}(2 s / alpha)
    with the exponent mu = rho_n / 2 of `morse_energy_exact` and
    s(t) = alpha sqrt(D - (B+C)/2) e^{-alpha t}.  Array input is normalized
    to unit max modulus on the evaluation window.
    """
    mu = complex(morse_energy_exact(n, mathieu)[1] / 2.0)
    h = mathieu.D_m - (mathieu.B_m + mathieu.C_m) / 2.0
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    s = alpha * np.sqrt(complex(h)) * np.exp(-alpha * t_arr)
    vals = (s ** (2.0 * mu) * np.exp(-s / alpha)
            * laguerre_gen(n, complex(4.0 * mu), 2.0 * s / alpha))
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return vals[0]
    peak = np.max(np.abs(vals))
    return vals / peak if peak > 0 else vals


# ---------------------------------------------------------------------------
# Case 2: Rosen-Morse-II quantization through the hypergeometric equation
# ---------------------------------------------------------------------------

def case2_levels(n: int, alpha, C1):
    """Level n of the Rosen-Morse-II problem in closed form: (eps_n, beta, residual).

    The series-termination condition closes only on the negative beta branch,
    where the two upper hypergeometric parameters coincide at 1/2 + 2 beta with
    beta = -sqrt(disc)/4 and disc = -1 - 4 C1 + alpha^2 + 4 eps^2.  Setting
    that to -n gives disc = (2n+1)^2, so the level is the closed form

        eps_n^2 = ((2n+1)^2 + 1 + 4 C1 - alpha^2) / 4,

    and eps_n is NaN where that is negative (level n is unbound).  beta is
    recomputed from eps_n and is complex: where disc rounds below 0 (|C1|
    past about 1e16) it is imaginary.  The residual is the termination gap
    |1/2 + 2 beta + n|, a modulus.  alpha and C1 are scalars or arrays of
    one shape; alpha^2 is libm `pow`, as Python's `float ** 2`.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        alpha_sq = np.float_power(alpha, 2)
        eps_sq = ((2 * n + 1) ** 2 + 1.0 + 4.0 * C1 - alpha_sq) / 4.0
        eps = np.sqrt(np.where(eps_sq >= 0.0, eps_sq, np.nan))
        disc = -1.0 - 4.0 * C1 + alpha_sq + 4.0 * (eps * eps)
        beta = -0.25 * np.sqrt(disc + 0j)
        return eps, beta, np.hypot(0.5 + 2.0 * beta.real + n, 2.0 * beta.imag)


@dataclass(frozen=True)
class Case2Solution:
    """Quantized level of the Rosen-Morse-II problem."""

    n: int
    alpha: float
    C1: float
    epsilon_n: float
    beta: float
    a2: float          # tangent-coefficient tie, charge e = 1 convention
    gamma_h: complex
    residual: float


def case2_quantize(n: int, alpha: float, C1: float) -> Case2Solution:
    """`case2_levels` at one (alpha, C1), with the 2F1 lower parameter gamma_h.

    beta keeps its real part.  Raises NoRootInBracket when eps_n^2 is
    negative (level n is unbound).
    """
    if n < 0:
        raise ValueError("level index must be nonnegative")
    eps, beta, residual = case2_levels(n, alpha, C1)
    if np.isnan(eps):
        raise NoRootInBracket(f"level {n} is unbound at alpha={alpha!r}, C1={C1!r}: eps^2 < 0")
    beta = complex(beta)
    return Case2Solution(
        n=n, alpha=alpha, C1=C1, epsilon_n=float(eps),
        beta=beta.real, a2=float(-2.0 * alpha * beta.real),
        gamma_h=1.0 + 2.0 * beta - 0.5j * alpha,
        residual=float(residual),
    )


def case2_wavefunction(n: int, alpha: float, C1: float, x):
    """Quantized Rosen-Morse-II bound state at x (scalar or array).

    phi = N exp(-alpha x/2) (1 + tan^2 x)^beta 2F1(a, b; gamma; (1 - i tan x)/2)
    with a = b = -n on the quantization branch.  Array input is normalized
    to unit discrete L2 norm; scalar input is returned unnormalized.  A point
    within 1e-3 of a tangent pole raises DomainSingularity.
    """
    sol = case2_quantize(n, alpha, C1)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(np.abs(x_arr) - np.pi / 2.0) < 1e-3):
        raise DomainSingularity("evaluation point too close to a tangent pole")
    tan = np.tan(x_arr)
    s = (1.0 - 1j * tan) / 2.0
    vals = (np.exp(-alpha * x_arr / 2.0) * (1.0 + tan ** 2) ** sol.beta
            * gauss_2f1(-n, -n, sol.gamma_h, s))
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return vals[0]
    h = x_arr[1] - x_arr[0] if len(x_arr) > 1 else 1.0
    nrm = np.sqrt(h) * np.linalg.norm(vals)
    return vals / nrm if nrm > 0 else vals


def case2_ode_residual(n: int, alpha: float, C1: float) -> float:
    """Relative max-norm residual of the quantized state in its own equation.

    Uses an O(h^4) interior stencil on 4000 points of (-pi/2 + 0.15, pi/2 - 0.15)
    so the measurement is limited by the identity, not the Laplacian stencil.
    """
    from .grids import Grid, diff2_fourth_order

    sol = case2_quantize(n, alpha, C1)
    grid = Grid(4000, -np.pi / 2.0 + 0.15, np.pi / 2.0 - 0.15, "dirichlet")
    x = grid.points
    phi = case2_wavefunction(n, alpha, C1, x)
    v = C1 + sol.a2 * np.tan(x) - 0.25 * np.tan(x) ** 2
    res = -diff2_fourth_order(phi, grid) + v * phi - sol.epsilon_n ** 2 * phi
    core = slice(4, -4)  # drop one-sided boundary rows of the stencil
    return float(np.max(np.abs(res[core])) / np.max(np.abs(phi[core])))
