#!/usr/bin/env python3
"""Squaring the reduced Dirac kernel into its second-order problems.

Applies the kernel twice to random band-limited spinors and compares
against the decoupled plus/minus coefficient functions, then shows the
self-adjointness contrast between the hermitizing imaginary gauge and a
real gauge of unit scale.
"""

import numpy as np

from torusdirac import (
    GaugeField,
    TorusParams,
    decouple_constant_vf,
    hermiticity_defect,
    quadratic_ring_field,
    squaring_discrepancy,
)
from torusdirac.fields import hermitizing_quadratic_field, zero_field
from torusdirac.grids import Grid, band_limited

p = TorusParams(a=0.25, c=2.0)
gauge = quadratic_ring_field(C2=0.2, e=1.0, k=1)

print("squared kernel vs decoupled operators (relative, 20 random spinors):")
for n in (512, 1024, 2048):
    g = Grid(n)
    worst = max(
        squaring_discrepancy(p, gauge, g, band_limited(g, [5, 6, 7, 8], rng=s, n_functions=2))
        for s in range(20)
    )
    print(f"  n={n:5d}: {worst:.3e}")

g = Grid(512)
plus, minus = decouple_constant_vf(p, gauge, g)
print("\nsector exchange k -> -k, A_u -> -A_u swaps the problems exactly:")
swapped = decouple_constant_vf(p, GaugeField(kind="quadratic_au", C2=-0.2, e=1.0, k=-1), g)
print(f"  plus == swapped minus: {np.array_equal(plus.rho, swapped[1].rho)}")

print("\nself-adjointness defect (flat inner product):")
p5 = TorusParams(a=0.5, c=2.0)
pairs = [
    (band_limited(g, [1, 2, 3], rng=s, n_functions=2),
     band_limited(g, [2, 4], rng=70 + s, n_functions=2))
    for s in range(6)
]
for label, f in (("hermitizing imaginary gauge", hermitizing_quadratic_field(0.4)),
                 ("gauge off", zero_field()),
                 ("real gauge, unit scale", GaugeField(kind="real_cos_ax"))):
    d = hermiticity_defect(p5, f, g, pairs)
    print(f"  {label:28s}: {d:.3e}")
print("  only the hermitizing choice cancels the geometric drift; with the")
print("  gauge off the tube's sine term alone keeps the kernel non-self-adjoint.")
