"""Gauge-field and Fermi-velocity families entering the torus Dirac operator.

Gauge components may be complex: the hermitizing family has a purely
imaginary A_x by construction, and the quadratic ring-field family is used
with both real and imaginary amplitude conventions downstream.  Realness of
a physical configuration is a validation concern, not a type constraint.
Units of the charge e and the field amplitudes are dimensionless throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ChargeZero, FamilyMismatch, GridMismatch
from .geometry import TorusParams, radius_profile
from .grids import Grid, diff1

GAUGE_KINDS = (
    "zero",
    "hermitizing_ax",
    "quadratic_au",
    "linear_au",
    "hermitizing_quadratic",  # hermitizing A_x composed with the quadratic A_u
    "tabulated",
)
FERMI_KINDS = ("constant", "cosine")


@dataclass(frozen=True)
class QuantumNumbers:
    """Angular wavenumber k (integer) and charge e."""

    k: int = 1
    e: float = 1.0

    def __post_init__(self):
        if self.k != int(self.k):
            raise ValueError("k must be an integer (single-valuedness in u)")


@dataclass(frozen=True)
class GaugeField:
    """One of the built-in gauge families, or tabulated samples.

    kind='zero'            A_x = A_u = 0
    kind='hermitizing_ax'  A_x = -i a^2 sin(x) / (2e), A_u = 0
    kind='quadratic_au'    A_u = C2 R(x)^2 + C3 (C3 defaults to -k/(a e))
    kind='linear_au'       A_u = a2 R(x) - k/(a e)
    kind='tabulated'       samples of (A_x, A_u) on a grid
    """

    kind: str
    e: float = 1.0
    k: int = 1
    C2: complex = 0.0
    C3: Optional[complex] = None  # quadratic_au; None means -k/(a e)
    a2: float = 0.0
    grid: Optional[Grid] = None
    ax_samples: Optional[tuple] = field(default=None, repr=False)
    au_samples: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in GAUGE_KINDS:
            raise FamilyMismatch(f"unknown gauge kind {self.kind!r}")
        if self.kind != "zero" and self.kind != "tabulated" and self.e == 0:
            raise ChargeZero(f"gauge family {self.kind!r} needs e != 0")
        if self.kind == "tabulated":
            if self.grid is None or self.ax_samples is None or self.au_samples is None:
                raise ValueError("tabulated gauge field needs grid, ax_samples, au_samples")
            ax = np.asarray(self.ax_samples)
            au = np.asarray(self.au_samples)
            if ax.shape != (self.grid.n,) or au.shape != (self.grid.n,):
                raise GridMismatch("tabulated gauge samples do not match the grid")
            if not (np.all(np.isfinite(ax)) and np.all(np.isfinite(au))):
                raise ValueError("tabulated gauge samples must be finite")


def zero_field() -> GaugeField:
    return GaugeField(kind="zero")


def hermitizing_field(e: float = 1.0) -> GaugeField:
    return GaugeField(kind="hermitizing_ax", e=e)


def quadratic_ring_field(C2: complex, e: float = 1.0, k: int = 1,
                         C3: Optional[complex] = None) -> GaugeField:
    return GaugeField(kind="quadratic_au", C2=C2, e=e, k=k, C3=C3)


def linear_ring_field(a2: float, e: float = 1.0, k: int = 1) -> GaugeField:
    return GaugeField(kind="linear_au", a2=a2, e=e, k=k)


def hermitizing_quadratic_field(C2: complex, e: float = 1.0, k: int = 1,
                                C3: Optional[complex] = None) -> GaugeField:
    """Hermitizing A_x together with the quadratic ring field A_u."""
    return GaugeField(kind="hermitizing_quadratic", C2=C2, e=e, k=k, C3=C3)


def eval_gauge(gauge: GaugeField, params: TorusParams, x):
    """Evaluate (A_x(x), A_u(x)); accepts scalar or array x."""
    x = np.asarray(x, dtype=float)
    zero = np.zeros_like(x, dtype=complex)
    if gauge.kind == "zero":
        return zero, zero.copy()
    if gauge.kind == "hermitizing_ax":
        ax = -1j * params.a ** 2 * np.sin(x) / (2.0 * gauge.e)
        return ax, zero
    r = radius_profile(params, x)
    if gauge.kind in ("quadratic_au", "hermitizing_quadratic"):
        c3 = gauge.C3 if gauge.C3 is not None else -gauge.k / (params.a * gauge.e)
        au = gauge.C2 * r ** 2 + c3 + 0j
        if gauge.kind == "hermitizing_quadratic":
            ax = -1j * params.a ** 2 * np.sin(x) / (2.0 * gauge.e)
            return ax, au
        return zero, au
    if gauge.kind == "linear_au":
        return zero, gauge.a2 * r - gauge.k / (params.a * gauge.e) + 0j
    # tabulated
    if not np.allclose(x, gauge.grid.points):
        raise GridMismatch("tabulated gauge field evaluated off its grid")
    return np.asarray(gauge.ax_samples, dtype=complex), np.asarray(gauge.au_samples, dtype=complex)


def eval_gauge_derivatives(gauge: GaugeField, params: TorusParams, x):
    """(A_x'(x), A_u'(x)) for the closed-form families; central differences otherwise."""
    x = np.asarray(x, dtype=float)
    zero = np.zeros_like(x, dtype=complex)
    if gauge.kind == "zero":
        return zero, zero.copy()
    if gauge.kind == "hermitizing_ax":
        return -1j * params.a ** 2 * np.cos(x) / (2.0 * gauge.e), zero
    rp = -params.a * np.sin(x)
    if gauge.kind in ("quadratic_au", "hermitizing_quadratic"):
        r = radius_profile(params, x)
        aup = 2.0 * gauge.C2 * r * rp + 0j
        if gauge.kind == "hermitizing_quadratic":
            return -1j * params.a ** 2 * np.cos(x) / (2.0 * gauge.e), aup
        return zero, aup
    if gauge.kind == "linear_au":
        return zero, gauge.a2 * rp + 0j
    # tabulated: central differences on the field's own grid
    if not np.allclose(x, gauge.grid.points):
        raise GridMismatch("tabulated gauge field differentiated off its grid")
    return (
        diff1(np.asarray(gauge.ax_samples, dtype=complex), gauge.grid),
        diff1(np.asarray(gauge.au_samples, dtype=complex), gauge.grid),
    )


@dataclass(frozen=True)
class FermiVelocity:
    """Unit constant speed (the decoupled problems read only V_F'/V_F) or the
    cosine profile V_F(x) = a cos(x)."""

    kind: str

    def __post_init__(self):
        if self.kind not in FERMI_KINDS:
            raise FamilyMismatch(f"unknown Fermi-velocity kind {self.kind!r}")


def constant_velocity() -> FermiVelocity:
    return FermiVelocity(kind="constant")


def cosine_velocity() -> FermiVelocity:
    return FermiVelocity(kind="cosine")


def eval_fermi_velocity(vel: FermiVelocity, params: TorusParams, x):
    """Evaluate (V_F(x), V_F'(x)); zeros of the cosine profile are legal here."""
    x = np.asarray(x, dtype=float)
    if vel.kind == "constant":
        return np.ones_like(x, dtype=float), np.zeros_like(x, dtype=float)
    return params.a * np.cos(x), -params.a * np.sin(x)


def eval_fermi_velocity_2(vel: FermiVelocity, params: TorusParams, x):
    """(V_F, V_F', V_F'') - the second derivative is needed by the effective potential."""
    v, vp = eval_fermi_velocity(vel, params, x)
    x = np.asarray(x, dtype=float)
    if vel.kind == "constant":
        return v, vp, np.zeros_like(x)
    return v, vp, -params.a * np.cos(x)
