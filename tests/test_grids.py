import numpy as np
from hypothesis import given, settings, strategies as st

from torusdirac.grids import Grid, diff1, diff2, diff2_fourth_order

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
                                    / _stencil_errors(grid.refined(), amplitudes))
    assert 1.9 <= first <= 2.1
    assert 1.9 <= second <= 2.1
    assert 3.8 <= fourth <= 4.2
