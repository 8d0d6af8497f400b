import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusdirac.grids import Grid, band_limited, diff1, diff2, diff2_fourth_order

# a band-limited periodic function: Fourier mode -> complex amplitude
AMPLITUDES = st.dictionaries(
    st.sampled_from([1, 2, 3]),
    st.builds(lambda r, phase: r * np.exp(1j * phase),
              st.floats(0.1, 1.0), st.floats(0.0, 2.0 * np.pi)),
    min_size=1,
)


def _stencil_errors(grid, amplitudes):
    """Max errors of diff1, diff2 and diff2_fourth_order against the exact derivatives."""
    x = grid.points
    waves = {m: c * np.exp(1j * m * x) for m, c in amplitudes.items()}
    f = sum(waves.values())
    df = sum(1j * m * w for m, w in waves.items())
    d2f = sum(-m * m * w for m, w in waves.items())
    return np.array([np.max(np.abs(diff1(f, grid) - df)),
                     np.max(np.abs(diff2(f, grid) - d2f)),
                     np.max(np.abs(diff2_fourth_order(f, grid) - d2f))])


@settings(max_examples=100, deadline=None)
@given(n=st.integers(64, 256), amplitudes=AMPLITUDES)
def test_stencil_convergence_orders_under_refinement(n, amplitudes):
    grid = Grid(n)
    first, second, fourth = np.log2(_stencil_errors(grid, amplitudes)
                                    / _stencil_errors(Grid(2 * n), amplitudes))
    assert 1.9 <= first <= 2.1
    assert 1.9 <= second <= 2.1
    assert 3.8 <= fourth <= 4.2


@pytest.mark.parametrize("grid", [Grid(64), Grid(64, -1.0, 2.0, "dirichlet")],
                         ids=["periodic", "dirichlet"])
@pytest.mark.parametrize("stencil", [diff1, diff2, diff2_fourth_order])
def test_stencils_on_a_stack_equal_the_row_by_row_calls(grid, stencil):
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((5, grid.n)) + 1j * rng.standard_normal((5, grid.n))
    assert np.array_equal(stencil(stack, grid), np.array([stencil(row, grid) for row in stack]))


# the periodic stencils as they were written with np.roll, one shifted copy per term
ROLL_STENCILS = {
    diff1: lambda v, h: (np.roll(v, -1, axis=-1) - np.roll(v, 1, axis=-1)) / (2.0 * h),
    diff2: lambda v, h: (np.roll(v, -1, axis=-1) - 2.0 * v + np.roll(v, 1, axis=-1)) / (h * h),
    diff2_fourth_order: lambda v, h: (
        -np.roll(v, -2, axis=-1) + 16.0 * np.roll(v, -1, axis=-1) - 30.0 * v
        + 16.0 * np.roll(v, 1, axis=-1) - np.roll(v, 2, axis=-1)) / (12.0 * h * h),
}


@pytest.mark.parametrize("shape", [(64,), (5, 64)], ids=["1-D", "stack"])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("stencil", list(ROLL_STENCILS), ids=lambda f: f.__name__)
def test_periodic_stencils_have_the_bits_of_the_roll_formulas(stencil, dtype, shape):
    grid = Grid(shape[-1])
    rng = np.random.default_rng(11)
    v = rng.standard_normal(shape).astype(dtype)
    if dtype is complex:
        v += 1j * rng.standard_normal(shape)
    v[..., 3] = -0.0  # signed zeros keep their sign too
    got, want = stencil(v, grid), ROLL_STENCILS[stencil](v, grid.h)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_band_limited_matches_the_per_mode_accumulation():
    grid, modes = Grid(128), [1, 3, 5, 6]
    rng = np.random.default_rng(8)
    x = grid.points
    oracle = []
    for _ in range(3):
        v = np.zeros(grid.n, dtype=complex)
        for m in modes:
            c = rng.standard_normal() + 1j * rng.standard_normal()
            v += c * np.exp(1j * m * x)
        oracle.append(v)
    got = band_limited(grid, modes, rng=8, n_functions=3)
    assert got.shape == (3, grid.n)
    assert all(np.array_equal(row, want) for row, want in zip(got, oracle))

