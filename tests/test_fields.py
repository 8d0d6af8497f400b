import numpy as np
import pytest

from torusdirac.errors import ChargeZero, FamilyMismatch
from torusdirac.fields import (
    GAUGE_KINDS,
    GaugeField,
    eval_fermi_velocity,
    eval_gauge,
    hermitizing_quadratic_field,
    linear_ring_field,
    quadratic_ring_field,
    zero_field,
)
from torusdirac.geometry import TorusParams, radius_profile

P = TorusParams(a=0.5, c=2.0)


def test_hermitizing_ax_values():
    f = hermitizing_quadratic_field(C2=0.3, e=1.0)
    ax, _, _, _ = eval_gauge(f, P, 0.0)
    assert ax == 0.0
    ax, _, _, _ = eval_gauge(f, P, np.pi / 2)
    assert ax == pytest.approx(-0.125j, abs=1e-15)  # -i a^2 / (2e)
    assert ax.real == 0.0


def test_quadratic_au_with_default_c3():
    f = quadratic_ring_field(C2=1.0, e=1.0, k=1)
    _, au, _, _ = eval_gauge(f, P, np.pi / 2)
    assert au == pytest.approx(4.0 - 2.0, abs=1e-14)  # R^2 - k/(a e)


def test_linear_au_value():
    f = linear_ring_field(a2=0.1, k=2, e=1.0)
    _, au, _, _ = eval_gauge(f, P, 0.0)
    assert au == pytest.approx(0.1 * 2.5 - 2.0 / 0.5, abs=1e-14)


def test_charge_zero_rejected():
    for kind in ("quadratic_au", "linear_au", "hermitizing_quadratic"):
        with pytest.raises(ChargeZero):
            GaugeField(kind=kind, e=0.0)


def test_unknown_kinds_rejected():
    with pytest.raises(FamilyMismatch):
        GaugeField(kind="nope")


def test_periodicity_of_builtin_families():
    x = np.linspace(0, 2 * np.pi, 50)
    for f in (zero_field(), quadratic_ring_field(0.7, k=2),
              linear_ring_field(0.3, k=1), hermitizing_quadratic_field(0.2),
              GaugeField(kind="real_cos_ax")):
        ax1, au1, _, _ = eval_gauge(f, P, x)
        ax2, au2, _, _ = eval_gauge(f, P, x + 2 * np.pi)
        assert np.max(np.abs(ax1 - ax2)) < 1e-13
        assert np.max(np.abs(au1 - au2)) < 1e-13


def test_k_cancellation_identity():
    # k + a e A_u collapses to a e C2 R^2: the field's constant is -k/(a e)
    f = quadratic_ring_field(C2=0.8, e=1.3, k=4)
    x = np.linspace(0, 2 * np.pi, 40)
    _, au, _, _ = eval_gauge(f, P, x)
    r = radius_profile(P, x)
    lhs = 4 + P.a * 1.3 * au
    assert np.max(np.abs(lhs - P.a * 1.3 * 0.8 * r ** 2)) < 1e-12


def test_fermi_velocity_families():
    v, vp, vpp = eval_fermi_velocity(P, 0.0)
    assert v == pytest.approx(0.5) and vp == pytest.approx(0.0)
    assert vpp == pytest.approx(-0.5)
    v, vp, vpp = eval_fermi_velocity(P, np.pi / 2)
    assert v == pytest.approx(0.0, abs=1e-15) and vp == pytest.approx(-0.5)
    assert vpp == pytest.approx(0.0, abs=1e-15)


def test_gauge_derivatives_match_finite_differences():
    fields = {f.kind: f for f in (
        zero_field(), quadratic_ring_field(0.4, k=2),
        linear_ring_field(0.2), hermitizing_quadratic_field(0.3 + 0.1j, e=1.5, k=2),
        GaugeField(kind="real_cos_ax"),
    )}
    assert set(fields) == set(GAUGE_KINDS)  # every kind, and no other
    x = np.linspace(0.3, 5.0, 11)
    h = 1e-6
    for kind, f in fields.items():
        _, _, axp, aup = eval_gauge(f, P, x)
        axp_fd = (eval_gauge(f, P, x + h)[0] - eval_gauge(f, P, x - h)[0]) / (2 * h)
        aup_fd = (eval_gauge(f, P, x + h)[1] - eval_gauge(f, P, x - h)[1]) / (2 * h)
        assert np.max(np.abs(axp - axp_fd)) < 1e-8, kind
        assert np.max(np.abs(aup - aup_fd)) < 1e-8, kind


def test_gauge_field_needs_an_integer_k():
    # single-valuedness in u; the operators read k from the field
    for kind in GAUGE_KINDS:
        with pytest.raises(ValueError, match="integer"):
            GaugeField(kind=kind, k=1.5)
        assert GaugeField(kind=kind, k=-2.0).k == -2
