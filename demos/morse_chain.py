#!/usr/bin/env python3
"""The constant-velocity chain: trigonometric potential to Morse form.

Builds the trigonometric-polynomial potential on the imaginary-amplitude
branch (real coefficients, tangent term dropped), expands it around the
unit circle, transforms to Morse form, and compares three energy routes:
the tabulated formula, the independently derived closed form, and a
Chebyshev collocation solve on the half-line.  The tabulated formula
disagrees; the derived form is the one the solver confirms.
"""

import numpy as np

from torusdirac.analytic import (
    case1_energy,
    case1_transform_chain,
    case1_wavefunction,
    morse_energy_exact,
)
from torusdirac.numerics import half_line_levels
from torusdirac.pseudoherm import constrained_torus, real_morse_branch

alpha = 1.0
# imaginary-amplitude branch with its real radius, tangent term dropped
m = real_morse_branch(constrained_torus(0.5))
print(f"trig-polynomial coefficients: B={m.B_m.real:.5f}, D={m.D_m.real:.5f}")

chain = case1_transform_chain(m, alpha)
print(f"quadratic coefficient of the expansion: {chain.quad_coeff:.5f}")
print(f"expansion truncation gap over the full circle: {chain.truncation_error:.3f}")
print("(the expansion step is an approximation; the gap above quantifies it)")

levels = half_line_levels(chain.potential, -4.0, 4.0, 2)
print("\nenergy routes for the transformed equation:")
print(f"  {'n':>2} {'tabulated':>12} {'derived':>12} {'collocation':>12}")
for n in range(3):
    lam, rho, exists = morse_energy_exact(n, m)
    tab = case1_energy(n, alpha, m).real
    if exists:
        print(f"  {n:2d} {tab:12.6f} {lam.real:12.6f} {levels[n]:12.6f}")
    else:
        print(f"  {n:2d} {tab:12.6f} {lam.real:12.6f} {'(above well)':>12}")
print("(the well supports two bound levels at these constants; the collocation")
print(" column certifies the derived closed form, not the tabulated one)")

t = np.linspace(-1.0, 8.0, 7)
print("\nground-state profile samples (max-modulus normalized):")
print("  " + "  ".join(f"{v.real:+.4f}" for v in case1_wavefunction(0, alpha, m, t)))
print(f"decay exponent mu = {morse_energy_exact(0, m)[1].real / 2:.4f} "
      f"(twice the Laguerre order /4)")
