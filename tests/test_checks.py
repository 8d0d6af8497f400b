import dataclasses
import json

import numpy as np
import pytest

from torusdirac import checks, numerics
from torusdirac.grids import Grid, band_limited


def test_window_record_carries_both_bounds():
    rep = checks.RunReport("records")
    checks.Check("inside", 10, lambda: 4.0, (3.8, 4.2), "window").record(rep)
    checks.Check("outside", 10, lambda: 5.0, (3.8, 4.2), "window").record(rep)
    checks.Check("below", 10, lambda: 0.5, 1.0).record(rep)
    lines = rep.to_text().splitlines()
    assert lines[1].startswith("PASS inside")
    assert lines[1].endswith("value=4.000000e+00 window=(3.8, 4.2)")
    assert lines[2].startswith("FAIL outside")
    assert lines[2].endswith("value=5.000000e+00 window=(3.8, 4.2)")
    # a one-sided record keeps its single bound
    assert lines[3].endswith("value=5.000000e-01 tol=1")
    tolerances = [r["tolerance"] for r in json.loads(rep.to_json())["records"]]
    assert tolerances == [[3.8, 4.2], [3.8, 4.2], 1.0]


def test_spinor_stack_rows_have_the_bits_of_their_own_band_limited_draws():
    # the probes of the squaring and kernel-defect checks: one stack, one row per seed
    for grid, modes, seeds in ((Grid(1024), [5, 6, 7, 8], range(20)),
                               (Grid(512), [2, 4], range(90, 96))):
        stack = checks._spinor_stack(grid, modes, seeds)
        assert stack.shape == (2, len(seeds), grid.n)
        for row, seed in enumerate(seeds):
            psi1, psi2 = band_limited(grid, modes, rng=seed, n_functions=2)
            assert np.array_equal(stack[0, row].view(np.uint64), psi1.view(np.uint64))
            assert np.array_equal(stack[1, row].view(np.uint64), psi2.view(np.uint64))


def test_sigma_half_prefactor_residual_is_second_order():
    # the sigma-half reading leaves only the stencil error: 3.67e-5 -> 9.18e-6 (order 1.999)
    r1, r2 = (checks.prefactor_residual(-1.0, n) for n in (2000, 4000))
    assert np.log2(r1 / r2) > 1.8


def test_printed_display_misses_the_product_by_exactly_one():
    # at n = 0, alpha = 1, C1 = 0: a_p, b_p = +-i while the equation pins a b = 0
    assert checks.printed_display_gap() == 1.0
    check = next(c for c in checks.registry() if c.measure is checks.printed_display_gap)
    assert (check.criterion, check.direction, check.tolerance, check.verify) == (7, "above",
                                                                                1e-2, False)


def _arrays(obj):
    """Every numpy array reachable from obj through tuples and dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


def test_cached_tables_and_probes_are_read_only_and_keep_every_record():
    caches = [obj for module in (numerics, checks) for obj in vars(module).values()
              if hasattr(obj, "cache_clear")]
    assert len(caches) == 7

    def records():
        return np.array([check.measure() for check in checks.registry()]).view(np.uint64)

    kept = [records(), records()]
    for cache in caches:
        cache.cache_clear()
    cleared = records()
    assert all(np.array_equal(bits, cleared) for bits in kept)

    tables = (numerics._cheb(16), numerics._rosen_morse_table(16),
              checks._squaring_probe(1024, tuple(range(20))), checks._kernel_probe(),
              checks._intertwining_probe())
    arrays = list(_arrays(tables))
    # one spinor stack, two spinor stacks, one stack of test functions
    assert len(arrays) == 3 + 4 + 1 + 2 + 1
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        checks._morse_chain().alpha = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        checks._morse_params().A_m = 0.0
