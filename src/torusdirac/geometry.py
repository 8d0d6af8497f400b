"""Torus surface geometry: metric, frame fields, Christoffel symbols, spin connection.

Coordinates are (t, x, u) where x is the angle around the tube (the small
circle) and u the angle around the central axis.  The ring radius is
R(x) = c + a*cos(x).  The metric is diag(1, -a^2, -R^2) with frame signature
eta = diag(1, -1, -1).  Every evaluator takes a scalar angle or an array of
angles and returns a matching shape; matrices carry two trailing axes.

Two spin-connection values are provided on purpose: the closed form used by
the rest of the operator construction, and an independent frame-formula
evaluation.  They disagree by design of the source material; the CLI
geometry report prints both and their difference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry

ETA = np.diag([1.0, -1.0, -1.0])


@dataclass(frozen=True)
class TorusParams:
    """Tube radius a (multiplies dx^2) and center-circle radius c."""

    a: float
    c: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.c)):
            raise ValueError("torus radii must be finite")
        if self.a <= 0 or self.c <= 0:
            raise ValueError("torus radii must be positive")
        if self.a == self.c:
            raise ValueError("torus parameters need c != a")
        if self.c <= self.a:
            warnings.warn(
                "c <= a: ring radius R(x) = c + a*cos(x) changes sign; "
                "geometry is degenerate at some angles",
                stacklevel=2,
            )


@dataclass(frozen=True)
class ChristoffelSet:
    """The two nonvanishing Christoffel symbols Gamma^2_12 and Gamma^1_22.

    Each is a float for a scalar angle and an array of the angles' shape otherwise.
    """

    gamma_2_12: float | np.ndarray
    gamma_1_22: float | np.ndarray


def _diag(d0, d1, d2) -> np.ndarray:
    """diag(d0, d1, d2) with the entries broadcast over the angles: shape (..., 3, 3)."""
    entries = np.broadcast_arrays(d0, d1, d2)
    out = np.zeros(entries[0].shape + (3, 3))
    for i, d in enumerate(entries):
        out[..., i, i] = d
    return out


def _inverse_diag(m: np.ndarray) -> np.ndarray:
    """Inverse of diagonal (..., 3, 3) matrices: the reciprocal of each diagonal entry."""
    return _diag(*(1.0 / np.einsum("...ii->i...", m)))


def radius_profile(params: TorusParams, x):
    """Ring radius R(x) = c + a*cos(x)."""
    return params.c + params.a * np.cos(x)


def radius_derivative(params: TorusParams, x):
    """R'(x) = -a*sin(x)."""
    return -params.a * np.sin(x)


def metric_at(params: TorusParams, x) -> np.ndarray:
    """Metric tensor diag(1, -a^2, -R(x)^2) in (t, x, u) order, shape x.shape + (3, 3)."""
    r = radius_profile(params, x)
    return _diag(1.0, -params.a ** 2, -(r ** 2))


def vierbein_at(params: TorusParams, x) -> np.ndarray:
    """Diagonal frame matrix e^a_mu = diag(1, a, R(x)), shape x.shape + (3, 3).

    Satisfies g = e.eta.e^T.
    """
    return _diag(1.0, params.a, radius_profile(params, x))


def christoffel_at(params: TorusParams, x) -> ChristoffelSet:
    """Closed-form Levi-Civita symbols of the surface metric."""
    r = radius_profile(params, x)
    degenerate = np.abs(r) < 1e-12
    if np.any(degenerate):
        raise DegenerateGeometry(f"R(x) ~ 0 at x={np.asarray(x)[degenerate]}")
    s = np.sin(x)
    return ChristoffelSet(
        gamma_2_12=-params.a * s / r,
        gamma_1_22=r * s / params.a,
    )


def spin_connection_tabulated(params: TorusParams, x):
    """Coefficient (a/2) R(x) sin(x) multiplying gamma_1 gamma_2 (tabulated form)."""
    return 0.5 * params.a * radius_profile(params, x) * np.sin(x)


def _frame_formula(params: TorusParams, x, ch: ChristoffelSet):
    """(1/2) S^{ab} e_a^nu g_{rho nu} D_u e_b^rho with the Christoffels `ch`.

    D_u e_b^rho = d_u e_b^rho + Gamma^rho_{u lam} e_b^lam.  The zweibeins do
    not depend on u, so only the Gamma terms act.  Returns the coefficient
    of gamma_1 gamma_2.
    """
    g = metric_at(params, x)
    e_inv = _inverse_diag(vierbein_at(params, x))  # e_a^mu

    # Gamma^rho_{u lam}: nonzero entries (rho, lam) = (2, 1) and (1, 2)
    gamma_u = np.zeros(np.shape(x) + (3, 3))
    gamma_u[..., 2, 1] = ch.gamma_2_12
    gamma_u[..., 1, 2] = ch.gamma_1_22

    d_u = gamma_u @ e_inv  # D_u e_b^rho, index order (rho, b)

    # c_ab = e_a^nu g_{rho nu} D_u e_b^rho
    c = np.swapaxes(e_inv, -1, -2) @ g @ d_u  # index order (a, b)

    # Gamma_u = (1/2) sum_ab S^ab c_ab with S^12 = (1/2) gamma^1 gamma^2:
    # coefficient of gamma_1 gamma_2 is (1/4)(c_12 - c_21)
    return 0.25 * (c[..., 1, 2] - c[..., 2, 1])


def spin_connection_derived(params: TorusParams, x):
    """Frame-formula spin connection coefficient of gamma_1 gamma_2.

    Evaluates the frame formula with the closed-form Christoffels.  Only
    the antisymmetric (1,2) frame component survives; the result is
    -sin(x)/2, independent of the radii.
    """
    return _frame_formula(params, x, christoffel_at(params, x))


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def christoffel_fd_oracle(params: TorusParams, x, h: float = 1e-4) -> ChristoffelSet:
    """Levi-Civita formula with central-difference metric derivatives.

    Gamma^lam_{mu nu} = (1/2) g^{lam kap} (d_mu g_{kap nu} + d_nu g_{kap mu}
    - d_kap g_{mu nu}); only x-derivatives are nonzero here.
    """
    g_inv = _inverse_diag(metric_at(params, x))
    dg = (metric_at(params, x + h) - metric_at(params, x - h)) / (2.0 * h)

    # d_mu g_{kap nu}: index 1 is the only coordinate with nonzero derivative
    dgrad = np.zeros(np.shape(x) + (3, 3, 3))
    dgrad[..., 1, :, :] = dg

    # bracket[kap, mu, nu] = d_mu g_{kap nu} + d_nu g_{kap mu} - d_kap g_{mu nu}
    bracket = (np.einsum("...mkn->...kmn", dgrad) + np.einsum("...nkm->...kmn", dgrad)
               - dgrad)
    gamma = 0.5 * np.einsum("...lk,...kmn->...lmn", g_inv, bracket)
    # [()] turns the 0-d result of a scalar angle back into a float
    return ChristoffelSet(gamma_2_12=gamma[..., 2, 1, 2][()],
                          gamma_1_22=gamma[..., 1, 2, 2][()])

