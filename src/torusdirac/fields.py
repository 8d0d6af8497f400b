"""Gauge-field families and the cosine Fermi velocity entering the torus Dirac operator.

Gauge components may be complex: the hermitizing family has a purely
imaginary A_x by construction, and the quadratic ring-field family is used
with both real and imaginary amplitude conventions downstream.  Realness of
a physical configuration is a validation concern, not a type constraint.
Units of the charge e and the field amplitudes are dimensionless throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChargeZero, FamilyMismatch
from .geometry import TorusParams, radius_derivative, radius_profile

GAUGE_KINDS = (
    "zero",
    "quadratic_au",
    "linear_au",
    "hermitizing_quadratic",  # hermitizing A_x composed with the quadratic A_u
    "real_cos_ax",
)


@dataclass(frozen=True)
class GaugeField:
    """One of the built-in gauge families, with the spinor's angular wavenumber k
    (an integer) and charge e that it is defined for.

    The operators read k and e from here.  The ring fields cancel the
    k-dependence of the reduced operator through their constant -k/(a e).

    kind='zero'            A_x = A_u = 0
    kind='quadratic_au'    A_u = C2 R(x)^2 - k/(a e)
    kind='linear_au'       A_u = a2 R(x) - k/(a e)
    kind='hermitizing_quadratic'  the quadratic A_u with the hermitizing
                           A_x = -i a^2 sin(x) / (2e), which cancels W1
    kind='real_cos_ax'     A_x = cos(x), A_u = 0 (a real gauge of unit scale)
    """

    kind: str
    e: float = 1.0
    k: int = 1
    C2: complex = 0.0
    a2: float = 0.0

    def __post_init__(self):
        if self.k != int(self.k):
            raise ValueError("k must be an integer (single-valuedness in u)")
        if self.kind not in GAUGE_KINDS:
            raise FamilyMismatch(f"unknown gauge kind {self.kind!r}")
        if self.kind not in ("zero", "real_cos_ax") and self.e == 0:
            raise ChargeZero(f"gauge family {self.kind!r} needs e != 0")


def zero_field() -> GaugeField:
    return GaugeField(kind="zero")


def quadratic_ring_field(C2: complex, e: float = 1.0, k: int = 1) -> GaugeField:
    return GaugeField(kind="quadratic_au", C2=C2, e=e, k=k)


def linear_ring_field(a2: float, e: float = 1.0, k: int = 1) -> GaugeField:
    return GaugeField(kind="linear_au", a2=a2, e=e, k=k)


def hermitizing_quadratic_field(C2: complex, e: float = 1.0, k: int = 1) -> GaugeField:
    """Hermitizing A_x together with the quadratic ring field A_u."""
    return GaugeField(kind="hermitizing_quadratic", C2=C2, e=e, k=k)


def eval_gauge(gauge: GaugeField, params: TorusParams, x):
    """Evaluate (A_x, A_u, A_x', A_u') at x, scalar or array, as four separate arrays."""
    x = np.asarray(x, dtype=float)
    ax, au, axp, aup = (np.zeros_like(x, dtype=complex) for _ in range(4))
    if gauge.kind == "hermitizing_quadratic":
        ax = -1j * params.a ** 2 * np.sin(x) / (2.0 * gauge.e)
        axp = -1j * params.a ** 2 * np.cos(x) / (2.0 * gauge.e)
    elif gauge.kind == "real_cos_ax":
        ax, axp = np.cos(x) + 0j, -np.sin(x) + 0j
    if gauge.kind in ("quadratic_au", "hermitizing_quadratic"):
        r = radius_profile(params, x)
        au = gauge.C2 * r ** 2 - gauge.k / (params.a * gauge.e) + 0j
        aup = 2.0 * gauge.C2 * r * radius_derivative(params, x) + 0j
    elif gauge.kind == "linear_au":
        au = gauge.a2 * radius_profile(params, x) - gauge.k / (params.a * gauge.e) + 0j
        aup = gauge.a2 * radius_derivative(params, x) + 0j
    return ax, au, axp, aup


def eval_fermi_velocity(params: TorusParams, x):
    """Evaluate (V_F, V_F', V_F'') of the cosine profile V_F = a cos x; zeros are legal here."""
    x = np.asarray(x, dtype=float)
    return params.a * np.cos(x), -params.a * np.sin(x), -params.a * np.cos(x)
