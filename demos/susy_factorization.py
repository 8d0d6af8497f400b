#!/usr/bin/env python3
"""Superpotential factorization and the radius constraint.

The constant-velocity chain factorizes its symmetrized Hamiltonian through
a trigonometric superpotential.  Demanding that the factorized potential
coincide with the ring-field form ties the field amplitude and the center
radius to the tube radius; this script reproduces those constants, checks
the factorization identities pointwise, and runs the intertwining
certifier on the factorized pair.
"""

import numpy as np

from torusdirac import TorusParams
from torusdirac.checks import factorization_pair_residual
from torusdirac.fields import hermitizing_quadratic_field
from torusdirac.grids import Grid
from torusdirac.pseudoherm import (
    constrained_torus,
    factorization_constants,
    hermitian_counterpart_case1,
    mathieu_form,
    partner_potentials_case1,
    superpotential,
)

for a in (0.5, 0.9):
    c2, c = factorization_constants(a)
    print(f"a = {a}: branch {'real-c' if a < 1 else 'real-C2'}, "
          f"c = {c.real:.6f}, C2 = {c2:.6f}")

a = 0.9
g = Grid(10000)
x = g.points
w_vals, w_prime = superpotential(a, x)
v, v1 = partner_potentials_case1(TorusParams(a=a, c=2.0), g)
print(f"\nfactorization identities on {g.n} points:")
print(f"  |W^2 - W' - V |_max = {np.max(np.abs(w_vals**2 - w_prime - v)):.3e}")
print(f"  |W^2 + W' - V1|_max = {np.max(np.abs(w_vals**2 + w_prime - v1)):.3e}")

# under the constrained radius the ring-field potential equals the
# factorized one exactly
c2, _ = factorization_constants(a)
p_con = constrained_torus(a)
field = hermitizing_quadratic_field(C2=c2, e=1.0, k=2)
counter = hermitian_counterpart_case1(p_con, field, g)
v_con, _ = partner_potentials_case1(p_con, g)
print(f"\nconstrained ring (c = {p_con.c:.4f}):")
print(f"  |counterpart - factorized V|_max = {np.max(np.abs(counter - v_con)):.3e}")
poly = mathieu_form(p_con, 1.0, c2).potential(x)
print(f"  |counterpart - trig polynomial|_max = {np.max(np.abs(counter - poly)):.3e}")

# A = d/dx + W on 2048 points intertwines A^H A with A A^H (a = 0.9)
res = factorization_pair_residual()
print(f"\nintertwining residual of the factorized pair: {res:.3e}")
print("(exact for any factor: A(A^H A) = (A A^H)A because the discrete")
print(" compositions are associative; the certifier separates only an")
print(" intertwiner that does not match its pair)")
