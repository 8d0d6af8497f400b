#!/usr/bin/env python3
"""Exact levels of the position-dependent-velocity problem.

The cosine velocity profile with a linear ring field reduces to a
trigonometric Rosen-Morse-II potential whose bound states close in
hypergeometric form.  This script quantizes the first levels, verifies
the wavefunctions in their own equation, and contrasts two
finite-difference oracles: the naive truncated-domain one (slow, the
wall coupling is exactly critical) and the convergent partner-potential
one.
"""

import numpy as np

from torusdirac import TorusParams
from torusdirac.analytic import (
    case2_ode_residual,
    case2_quantize,
    case2_wavefunction,
)
from torusdirac.fields import linear_ring_field
from torusdirac.grids import Grid
from torusdirac.numerics import discretize_schrodinger, eig_sym_tridiag
from torusdirac.pseudoherm import rosen_morse_form, veff_case2

alpha, C1 = 1.0, 0.0
print(f"quantized levels at alpha={alpha}, constant offset C1={C1}:")
sols = [case2_quantize(n, alpha, C1) for n in range(5)]
for s in sols:
    print(f"  n={s.n}: eps={s.epsilon_n:.12f}  beta={s.beta:+.3f} "
          f"tan-coefficient={s.a2:.3f}  termination residual={s.residual:.1e}")

print("\nwavefunction equation residuals (fourth-order stencil):")
for n in range(3):
    print(f"  n={n}: {case2_ode_residual(n, alpha, C1):.3e}")

p = TorusParams(a=0.5, c=2.0)
g = Grid(1500, -np.pi / 2 + 0.1, np.pi / 2 - 0.1, "dirichlet")
ve = veff_case2(p, g)(linear_ring_field(a2=0.2))
gap = np.max(np.abs(ve - rosen_morse_form(p, 0.2, 1.0, g.points)))
print(f"\neffective potential vs closed form: max gap {gap:.3e}")

print("\nfinite-difference cross-checks for n=1..3:")
print("  (a) truncated domain, walls 1e-3 inside the poles (critical-coupling")
print("      boundary layer: converges like 1/log, too slow to certify)")
gt = Grid(8000, -np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, "dirichlet")
print("  (b) partner potential with regular walls (second-order convergent)")
gp = Grid(8000, -np.pi / 2, np.pi / 2, "dirichlet")
for n in (1, 2, 3):
    s = sols[n]
    bc, exact = s.a2, s.epsilon_n ** 2
    vt = C1 + bc * np.tan(gt.points) - 0.25 * np.tan(gt.points) ** 2
    fd_t = eig_sym_tridiag(discretize_schrodinger(vt, gt), n + 1, first=n,
                           near=[exact]).eigenvalues[0]
    e0 = C1 + 0.5 - bc ** 2
    vp = e0 + 0.75 * np.tan(gp.points) ** 2 + bc * np.tan(gp.points) + bc ** 2 + 0.5
    fd_p = eig_sym_tridiag(discretize_schrodinger(vp, gp), n, first=n - 1,
                           near=[exact]).eigenvalues[0]
    print(f"  n={n}: exact {exact:.6f}  (a) {fd_t:.6f} (rel {abs(fd_t-exact)/exact:.1e})"
          f"  (b) {fd_p:.6f} (rel {abs(fd_p-exact)/exact:.1e})")

x = np.linspace(-1.3, 1.3, 9)
phi1 = case2_wavefunction(1, alpha, C1, x)
print("\nn=1 wavefunction samples (real part):")
print("  " + "  ".join(f"{v.real:+.4f}" for v in phi1))
