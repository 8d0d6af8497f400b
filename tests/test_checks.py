import json

import numpy as np

from torusdirac import checks
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
        for row, seed in enumerate(seeds):
            psi1, psi2 = band_limited(grid, modes, rng=seed, n_functions=2)
            assert np.array_equal(stack.psi1.values[row].view(np.uint64),
                                  psi1.values.view(np.uint64))
            assert np.array_equal(stack.psi2.values[row].view(np.uint64),
                                  psi2.values.view(np.uint64))


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
