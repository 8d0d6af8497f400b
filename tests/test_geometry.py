from functools import partial

import numpy as np
import pytest

from torusdirac import geometry
from torusdirac.errors import DegenerateGeometry
from torusdirac.geometry import (
    ETA,
    TorusParams,
    christoffel_at,
    christoffel_fd_oracle,
    metric_at,
    radius_profile,
    spin_connection_derived,
    spin_connection_tabulated,
    vierbein_at,
)

P = TorusParams(a=0.5, c=2.0)


def _spin_connection_fd_oracle(params, x, h=1e-3):
    """Frame-formula evaluation with finite-difference Christoffels, Richardson-extrapolated."""
    v1 = geometry._frame_formula(params, x, christoffel_fd_oracle(params, x, h))
    v2 = geometry._frame_formula(params, x, christoffel_fd_oracle(params, x, h / 2.0))
    return (4.0 * v2 - v1) / 3.0


@pytest.mark.parametrize("x, expected", [(0.0, 2.5), (np.pi / 2, 2.0), (np.pi, 1.5)])
def test_radius_profile(x, expected):
    assert radius_profile(P, x) == pytest.approx(expected, abs=1e-15)


def test_metric_direct_substitution():
    assert np.allclose(np.diag(metric_at(P, 0.0)), [1.0, -0.25, -6.25])


def test_metric_time_component_and_small_tube_limit():
    assert metric_at(P, 1.234)[0, 0] == 1.0
    tiny = TorusParams(a=1e-3, c=2.0)
    for x in (0.3, 2.0, 5.1):
        assert abs(metric_at(tiny, x)[2, 2] + 4.0) < 0.04  # within 1%


def test_vierbein_values_and_frame_identity():
    assert np.allclose(np.diag(vierbein_at(P, np.pi / 2)), [1.0, 0.5, 2.0])
    for x in np.linspace(0, 2 * np.pi, 97):
        e = vierbein_at(P, x)
        g = metric_at(P, x)
        assert np.max(np.abs(g - e @ ETA @ e.T)) < 1e-13
    e = vierbein_at(TorusParams(a=0.7, c=3.0), 1.1)
    assert np.all(np.diag(e) > 0)


def test_christoffel_closed_forms():
    ch0 = christoffel_at(P, 0.0)
    assert ch0.gamma_2_12 == pytest.approx(0.0, abs=1e-15)
    assert ch0.gamma_1_22 == pytest.approx(0.0, abs=1e-15)
    ch = christoffel_at(P, np.pi / 2)
    assert ch.gamma_2_12 == pytest.approx(-0.25, abs=1e-14)
    assert ch.gamma_1_22 == pytest.approx(4.0, abs=1e-13)


def test_christoffel_against_levi_civita_oracle_with_order():
    x = 0.3
    exact = christoffel_at(P, x)
    errs = []
    for h in (1e-3, 5e-4):
        orc = christoffel_fd_oracle(P, x, h)
        errs.append(max(abs(orc.gamma_2_12 - exact.gamma_2_12),
                        abs(orc.gamma_1_22 - exact.gamma_1_22)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_degenerate_ring_raises():
    with pytest.warns(UserWarning):
        bad = TorusParams(a=1.0, c=0.5)
    with pytest.raises(DegenerateGeometry):
        # R = 0.5 + cos x vanishes at x = 2pi/3
        christoffel_at(bad, 2.0943951023931953)


def test_spin_connection_tabulated_values():
    assert spin_connection_tabulated(P, 0.0) == 0.0
    assert spin_connection_tabulated(P, np.pi / 2) == pytest.approx(0.5, abs=1e-15)
    assert spin_connection_tabulated(TorusParams(a=0.3, c=1.5), np.pi) == pytest.approx(0.0, abs=1e-15)


def test_spin_connection_derived_is_minus_half_sine():
    for x in (0.0, 0.7, np.pi, 4.4):
        assert spin_connection_derived(P, x) == pytest.approx(-0.5 * np.sin(x), abs=1e-12)


def test_spin_connection_derived_matches_fd_oracle():
    for x in (0.7, 2.2):
        assert _spin_connection_fd_oracle(P, x) == pytest.approx(
            spin_connection_derived(P, x), abs=1e-8)


def test_periodicity_and_parity():
    for x in (0.2, 1.9, 4.0):
        assert np.max(np.abs(metric_at(P, x) - metric_at(P, x + 2 * np.pi))) < 1e-13
        assert abs(spin_connection_tabulated(P, x) - spin_connection_tabulated(P, x + 2 * np.pi)) < 1e-13
        ch_p = christoffel_at(P, x)
        ch_m = christoffel_at(P, -x)
        assert ch_p.gamma_2_12 == pytest.approx(-ch_m.gamma_2_12, abs=1e-14)
        assert np.allclose(np.diag(metric_at(P, x)), np.diag(metric_at(P, -x)), atol=1e-14)


def test_the_ring_warning_names_the_caller():
    with pytest.warns(UserWarning, match="c <= a") as caught:
        TorusParams(a=2.0, c=1.5)
    assert [w.filename for w in caught] == [__file__]


def test_param_validation():
    with pytest.raises(ValueError):
        TorusParams(a=-1.0, c=2.0)
    with pytest.raises(ValueError):
        TorusParams(a=2.0, c=2.0)
    with pytest.warns(UserWarning):
        TorusParams(a=1.5, c=1.0)
    # every ordering comparison is false for NaN, so the sign checks alone let it through
    for a, c in [(np.nan, 2.0), (0.5, np.nan), (np.inf, 2.0), (0.5, np.inf)]:
        with pytest.raises(ValueError, match="finite"):
            TorusParams(a=a, c=c)


def _parts(value):
    """A geometry result as a tuple of arrays; a ChristoffelSet has two."""
    if isinstance(value, geometry.ChristoffelSet):
        return np.asarray(value.gamma_2_12), np.asarray(value.gamma_1_22)
    return (np.asarray(value),)


@pytest.mark.parametrize("fn", [
    pytest.param(radius_profile, id="radius_profile"),
    pytest.param(geometry.radius_derivative, id="radius_derivative"),
    pytest.param(metric_at, id="metric_at"),
    pytest.param(vierbein_at, id="vierbein_at"),
    pytest.param(christoffel_at, id="christoffel_at"),
    pytest.param(spin_connection_tabulated, id="spin_connection_tabulated"),
    pytest.param(spin_connection_derived, id="spin_connection_derived"),
    pytest.param(partial(christoffel_fd_oracle, h=1e-3), id="christoffel_fd_oracle-1e-3"),
    pytest.param(partial(christoffel_fd_oracle, h=5e-4), id="christoffel_fd_oracle-5e-4"),
    pytest.param(_spin_connection_fd_oracle, id="spin_connection_fd_oracle"),
])
def test_array_evaluation_equals_scalar_loop(fn):
    xs = np.linspace(0.0, 2.0 * np.pi, 181)
    batched = _parts(fn(P, xs))
    looped = [np.array(part) for part in zip(*(_parts(fn(P, x)) for x in xs))]
    assert len(batched) == len(looped)
    for b, lp in zip(batched, looped):
        assert b.shape == lp.shape
        assert np.array_equal(b, lp)
