"""Closed-form spectra and wavefunctions, plus the special functions they need.

Case 1 (constant velocity): the trigonometric-polynomial potential is point-
transformed to a Morse-form equation.  The tabulated energy formula is kept
verbatim, and the exact bound-state solution of the transformed equation is
derived independently (`morse_energy_exact`); the two are reported side by
side because they do not agree.

Case 2 (cosine velocity): the Rosen-Morse-II problem reduces to the Gauss
hypergeometric equation.  The termination condition is solvable only on the
negative branch of the exponent beta, where the two upper parameters
coincide at -n; that branch is used for quantization and wavefunctions, and
the tabulated (inconsistent) parameter display is retained for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DomainSingularity,
    DomainUnsupported,
    NoRootInBracket,
    PoleAtC,
    SingularParameter,
)
from .numerics import ShootingProblem, find_root_bracketed
from .pseudoherm import MathieuParams

_SERIES_TOL = 1e-17
_SERIES_MAX = 100_000


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


def laguerre_gen(n: int, alpha: complex, x: complex) -> complex:
    """Generalized Laguerre polynomial L_n^(alpha)(x) by its finite sum.

    Complex order and argument are allowed; the binomial coefficients are
    accumulated as falling-factorial products.
    """
    if n < 0 or n != int(n):
        raise ValueError("order n must be a nonnegative integer")
    n = int(n)
    # extended precision keeps the alternating sum's cancellation below
    # 1e-13 relative up to order ~20
    alpha = np.clongdouble(alpha)
    x = np.clongdouble(x)
    total = np.clongdouble(0.0)
    factorial = np.longdouble(1.0)
    for m in range(n + 1):
        # C(n + alpha, n - m) = prod_{j=1}^{n-m} (alpha + m + j) / j
        binom = np.clongdouble(1.0)
        for j in range(1, n - m + 1):
            binom *= (alpha + m + j) / j
        if m > 0:
            factorial *= m
        total += (-1) ** m * binom * x ** m / factorial
    return complex(total)


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


def _hyp_series(a: complex, b: complex, c: complex, s: complex) -> complex:
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for m in range(_SERIES_MAX):
        term *= (a + m) * (b + m) / ((c + m) * (m + 1)) * s
        total += term
        if abs(term) < _SERIES_TOL * max(1.0, abs(total)):
            return total
    raise DomainUnsupported("hypergeometric series did not converge")


def gauss_2f1(a: complex, b: complex, c: complex, s: complex) -> complex:
    """Gauss hypergeometric 2F1(a, b; c; s).

    Terminating cases (a or b a nonpositive integer) sum exactly for any s.
    Otherwise: direct series for |s| < 0.8, Euler transformation for
    0.8 <= |s| < 1, and refusal beyond the unit disk.
    """
    a, b, c, s = complex(a), complex(b), complex(c), complex(s)
    na, nb = _as_nonpositive_int(a), _as_nonpositive_int(b)
    if na is not None or nb is not None:
        n_terms = min(x for x in (-na if na is not None else None,
                                  -nb if nb is not None else None) if x is not None)
        nc = _as_nonpositive_int(c)
        if nc is not None and -nc < n_terms:
            raise PoleAtC("lower parameter pole before series termination")
        total = 1.0 + 0.0j
        term = 1.0 + 0.0j
        for m in range(n_terms):
            term *= (a + m) * (b + m) / ((c + m) * (m + 1)) * s
            total += term
        return total
    if _as_nonpositive_int(c) is not None:
        raise PoleAtC("lower parameter is a nonpositive integer")
    if abs(s) < 0.8:
        return _hyp_series(a, b, c, s)
    if abs(s) < 1.0:
        # Euler transformation improves behavior approaching the unit circle
        return (1.0 - s) ** (c - a - b) * _hyp_series(c - a, c - b, c, s)
    raise DomainUnsupported("non-terminating 2F1 outside the unit disk")


# ---------------------------------------------------------------------------
# Case 1: Morse-form chain for the constant-velocity potential
# ---------------------------------------------------------------------------

@dataclass
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
    expansion_center: float = 1.0

    def u_of_t(self, t):
        w = np.exp(-self.alpha * np.asarray(t, dtype=float))
        m = self.mathieu
        return (m.B_m + 1j * m.C_m * (w - 1.0)
                + 0.5 * (m.B_m - 1j * m.C_m - 2.0 * m.D_m) * (w - 1.0) ** 2)


def case1_transform_chain(mathieu: MathieuParams, alpha: float,
                          n_samples: int = 4096) -> MorseChain:
    """Build the Morse chain and quantify the quadratic-expansion gap."""
    if alpha == 0:
        raise ValueError("transformation scale alpha must be nonzero")
    m = mathieu
    x = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
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


def case1_energy(n: int, alpha: float, mathieu: MathieuParams):
    """Tabulated eigenvalue formula for the Morse chain, evaluated verbatim.

    Returns (energy_sq, info).  energy_sq is
    -(alpha^2/4) (2n+1 - alpha (2D - B - 2C)/sqrt(D - (B+C)/2))^2; info
    records the branch data and whether the value came out real.  Use
    `morse_energy_exact` for the independently derived spectrum of the same
    transformed equation.
    """
    m = mathieu
    h = m.D_m - (m.B_m + m.C_m) / 2.0
    if abs(h) < 1e-14:
        raise SingularParameter("D - (B+C)/2 vanishes; the tabulated formula is singular")
    root = np.sqrt(complex(h))
    bracket = (2 * n + 1) - alpha * (2.0 * m.D_m - m.B_m - 2.0 * m.C_m) / root
    val = -(alpha ** 2) / 4.0 * bracket ** 2
    info = {
        "is_real": abs(val.imag) < 1e-10 * max(1.0, abs(val)),
        "delta": m.A_m,
        "sqrt_argument": h,
    }
    return complex(val), info


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


def morse_shooting_problem(mathieu: MathieuParams, alpha: float,
                           t_min: float = -4.0, t_max: float = 20.0,
                           n: int = 8001) -> ShootingProblem:
    """Real-branch shooting oracle for the transformed equation.

    Requires B, C, D such that the potential -alpha^2 U(t) is real
    (imaginary parts below 1e-12 are truncated; larger ones are an error).
    """
    chain = case1_transform_chain(mathieu, alpha)

    def potential(t):
        u = chain.u_of_t(t)
        if np.max(np.abs(u.imag)) > 1e-12:
            raise SingularParameter("shooting needs the real branch of the chain")
        return -(alpha ** 2) * u.real

    return ShootingProblem(potential=potential, t_min=t_min, t_max=t_max, n=n)


@dataclass
class Case1Solution:
    """Bound-state data of the Morse chain at level n.

    `mu` is the calibrated wavefunction exponent rho_n / 2 (the reading that
    satisfies the transformed equation); `mu_display` keeps the tabulated
    +-i sqrt(E)/(2 alpha) for reference.  s(t) = alpha sqrt(D - (B+C)/2) e^{-alpha t}.
    """

    n: int
    alpha: float
    mathieu: MathieuParams
    energy_sq: complex            # tabulated formula value
    morse_energy: complex         # exact transformed-equation eigenvalue
    mu: complex
    mu_display: complex
    laguerre_order: complex
    s_scale: complex
    bounded: bool
    reading: str = "z=s"

    def s_of_t(self, t):
        return self.s_scale * np.exp(-self.alpha * np.asarray(t, dtype=float))


def case1_solution(n: int, alpha: float, mathieu: MathieuParams) -> Case1Solution:
    energy_sq, _ = case1_energy(n, alpha, mathieu)
    lam, rho, exists = morse_energy_exact(n, mathieu)
    h = mathieu.D_m - (mathieu.B_m + mathieu.C_m) / 2.0
    mu = rho / 2.0
    e_for_display = np.sqrt(complex(energy_sq))
    return Case1Solution(
        n=n, alpha=alpha, mathieu=mathieu,
        energy_sq=complex(energy_sq), morse_energy=lam,
        mu=complex(mu), mu_display=1j * np.sqrt(e_for_display) / (2.0 * alpha),
        laguerre_order=complex(4.0 * mu), s_scale=alpha * np.sqrt(complex(h)),
        bounded=exists,
    )


def case1_wavefunction(sol: Case1Solution, t):
    """Evaluate the Morse-chain bound state at t (scalar or array).

    Calibrated reading: psi = s^{2 mu} exp(-s/alpha) L_n^{4 mu}(2 s / alpha)
    with s = s_of_t(t).  Array input is normalized to unit max modulus on
    the evaluation window.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    s = sol.s_of_t(t_arr)
    vals = np.array([
        si ** (2.0 * sol.mu) * np.exp(-si / sol.alpha)
        * laguerre_gen(sol.n, sol.laguerre_order, 2.0 * si / sol.alpha)
        for si in s
    ])
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return vals[0]
    peak = np.max(np.abs(vals))
    return vals / peak if peak > 0 else vals


# ---------------------------------------------------------------------------
# Case 2: Rosen-Morse-II quantization through the hypergeometric equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Case2HypParams:
    """Hypergeometric matching data at (alpha, C1, epsilon) on a chosen beta branch.

    `a_printed`/`b_printed` follow the tabulated display; `a_corrected`
    (= b_corrected) follows from matching the derivative-free coefficient,
    which forces a double root (1 + 4 beta)/2 + ... = 1/2 + 2 beta.
    """

    alpha: float
    C1: float
    epsilon: complex
    beta: complex
    gamma_h: complex
    a_printed: complex
    b_printed: complex
    a_corrected: complex
    ab_target: complex
    complex_beta: bool


def case2_hyp_params(alpha: float, C1: float, epsilon: complex,
                     branch: int = +1) -> Case2HypParams:
    """Parameter block of the hypergeometric reduction; both beta branches allowed."""
    disc = -1.0 - 4.0 * C1 + alpha ** 2 + 4.0 * complex(epsilon) ** 2
    beta = branch * 0.25 * np.sqrt(complex(disc))
    gamma_h = 1.0 + 2.0 * beta - 0.5j * alpha
    rad = np.sqrt(complex(
        5.0 + 16.0 * C1 - 4.0 * alpha ** 2 + 8.0 * beta + 16.0 * beta ** 2
        - 16.0 * complex(epsilon) ** 2
    ))
    a_printed = 0.5 + 2.0 * beta + 0.5 * rad
    b_printed = 0.5 + 2.0 * beta - 0.5 * rad
    ab_target = complex(epsilon) ** 2 + (alpha ** 2 - 4.0 * C1) / 4.0 + 2.0 * beta
    return Case2HypParams(
        alpha=alpha, C1=C1, epsilon=complex(epsilon),
        beta=complex(beta), gamma_h=complex(gamma_h),
        a_printed=complex(a_printed), b_printed=complex(b_printed),
        a_corrected=complex(0.5 + 2.0 * beta),
        ab_target=complex(ab_target),
        complex_beta=bool(np.real(disc) < 0),
    )


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
    a_h: complex
    b_h: complex
    residual: float

    @property
    def tan_coefficient(self) -> float:
        """Coefficient of tan x in the potential this level solves (a2 * e)."""
        return self.a2


def _termination_function(alpha: float, C1: float, n: int):
    """G(eps) = 1/2 + 2 beta_-(eps) + n; its root is the quantized level."""
    def g(eps: float) -> float:
        disc = -1.0 - 4.0 * C1 + alpha ** 2 + 4.0 * eps ** 2
        if disc < 0:
            return np.nan
        return 0.5 - 0.5 * np.sqrt(disc) + n

    return g


def case2_quantize(n: int, alpha: float, C1: float) -> Case2Solution:
    """Solve the series-termination condition a(eps) = -n for eps >= 0.

    The condition closes only on the negative beta branch, where the two
    upper hypergeometric parameters coincide; the root is found by a
    geometric-ladder scan over eps^2 in (1e-6, 1e4) followed by bracketed
    bisection/secant iteration.
    """
    if n < 0:
        raise ValueError("level index must be nonnegative")
    g = _termination_function(alpha, C1, n)
    ladder = np.sqrt(np.geomspace(1e-6, 1e4, 200))
    candidates = np.concatenate([[0.0], ladder])
    vals = np.array([g(e) for e in candidates])
    eps_root = None
    finite = np.isfinite(vals)
    exact = np.nonzero(finite & (np.abs(vals) < 1e-13))[0]
    if exact.size:
        eps_root = float(candidates[exact[0]])
    else:
        for i in range(len(candidates) - 1):
            if finite[i] and finite[i + 1] and vals[i] * vals[i + 1] < 0:
                eps_root = find_root_bracketed(g, candidates[i], candidates[i + 1],
                                               tol=1e-14)
                break
    if eps_root is None:
        raise NoRootInBracket("no termination root for eps^2 in (0, 1e4)")

    hp = case2_hyp_params(alpha, C1, eps_root, branch=-1)
    residual = abs(hp.a_corrected + n)
    return Case2Solution(
        n=n, alpha=alpha, C1=C1, epsilon_n=float(eps_root),
        beta=float(np.real(hp.beta)), a2=float(-2.0 * alpha * np.real(hp.beta)),
        gamma_h=hp.gamma_h, a_h=hp.a_corrected, b_h=hp.a_corrected,
        residual=float(residual),
    )


def case2_wavefunction(n: int, alpha: float, C1: float, x,
                       pole_margin: float = 1e-3):
    """Quantized Rosen-Morse-II bound state at x (scalar or array).

    phi = N exp(-alpha x/2) (1 + tan^2 x)^beta 2F1(a, b; gamma; (1 - i tan x)/2)
    with a = b = -n on the quantization branch.  Array input is normalized
    to unit discrete L2 norm; scalar input is returned unnormalized.
    """
    sol = case2_quantize(n, alpha, C1)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(np.abs(x_arr) - np.pi / 2.0) < pole_margin):
        raise DomainSingularity("evaluation point too close to a tangent pole")
    tan = np.tan(x_arr)
    s = (1.0 - 1j * tan) / 2.0
    hyp = np.array([gauss_2f1(-n, -n, sol.gamma_h, si) for si in s])
    vals = np.exp(-alpha * x_arr / 2.0) * (1.0 + tan ** 2) ** sol.beta * hyp
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return vals[0]
    h = x_arr[1] - x_arr[0] if len(x_arr) > 1 else 1.0
    nrm = np.sqrt(h) * np.linalg.norm(vals)
    return vals / nrm if nrm > 0 else vals


def case2_potential(alpha: float, C1: float, n: int, x):
    """Rosen-Morse-II potential C1 + a2e tan x - tan^2 x / 4 solved by level n."""
    sol = case2_quantize(n, alpha, C1)
    x = np.asarray(x, dtype=float)
    return C1 + sol.a2 * np.tan(x) - 0.25 * np.tan(x) ** 2


def case2_ode_residual(n: int, alpha: float, C1: float,
                       n_grid: int = 4000, margin: float = 0.15) -> float:
    """Relative max-norm residual of the quantized state in its own equation.

    Uses an O(h^4) interior stencil on (-pi/2 + margin, pi/2 - margin) so the
    measurement is limited by the identity, not the Laplacian stencil.
    """
    from .grids import Grid, diff2_fourth_order

    sol = case2_quantize(n, alpha, C1)
    grid = Grid(n_grid, -np.pi / 2.0 + margin, np.pi / 2.0 - margin, "dirichlet")
    x = grid.points
    phi = case2_wavefunction(n, alpha, C1, x)
    v = C1 + sol.a2 * np.tan(x) - 0.25 * np.tan(x) ** 2
    res = -diff2_fourth_order(phi, grid) + v * phi - sol.epsilon_n ** 2 * phi
    core = slice(4, -4)  # drop one-sided boundary rows of the stencil
    return float(np.max(np.abs(res[core])) / np.max(np.abs(phi[core])))


def fit_energy_display(levels) -> dict:
    """Least-squares fit of eps_n^2 ~ (1/2)(n+mu+1)^2 - (1/2) nu/(n+mu+1)^2.

    The display's mu and nu are undefined upstream; this reports the best
    post-hoc fit and its rms misfit, labeled as a fit.
    """
    from scipy.optimize import minimize_scalar  # only this fit needs it

    ns = np.array([s.n for s in levels], dtype=float)
    e2 = np.array([s.epsilon_n ** 2 for s in levels], dtype=float)

    def misfit(mu: float) -> tuple[float, float]:
        base = (ns + mu + 1.0) ** 2
        # linear in nu: e2 = base/2 - nu/(2 base)
        w = -0.5 / base
        rhs = e2 - base / 2.0
        nu = float(np.dot(w, rhs) / np.dot(w, w))
        rms = float(np.sqrt(np.mean((base / 2.0 + w * nu - e2) ** 2)))
        return nu, rms

    res = minimize_scalar(lambda mu: misfit(mu)[1], bounds=(-0.95, 6.0),
                          method="bounded")
    nu, rms = misfit(float(res.x))
    return {"mu": float(res.x), "nu": nu, "rms": rms, "label": "post-hoc fit"}
