"""Periodic eigensolutions of the Mathieu equation, odd orders.

Walks through the core solver: characteristic values, coefficient decay,
oscillation counts, the half-period sign flip, and a cross-check of the
tridiagonal eigensolve against direct integration of the ODE.

Run from the repository root:  python demos/01_eigensolutions.py
"""

import math

import numpy as np

import mathieu_mra as mm

print("=" * 72)
print("Characteristic values a_nu(q) from the tridiagonal eigensolve")
print("=" * 72)
for nu, q in ((1, 1.0), (3, 3.0), (5, 15.0)):
    sol = mm.solve_even(mm.MathieuParams(nu, q))
    print(f"  nu={nu:<2d} q={q:<5g}  a = {sol.a:.15f}   "
          f"(harmonics kept: {sol.truncation_order})")

print("\nAt q=0 the equation is a plain harmonic oscillator, so a = nu^2:")
for nu in (1, 3, 5, 7):
    sol = mm.solve_even(mm.MathieuParams(nu, 0.0))
    print(f"  nu={nu}: a = {sol.a:.12f}")

print("\n" + "=" * 72)
print("Coefficient decay for nu=3, q=3 (cosine series over odd harmonics)")
print("=" * 72)
sol = mm.solve_even(mm.MathieuParams(3, 3.0))
for k, c in enumerate(sol.coeffs[:10]):
    print(f"  A_{2 * k + 1:<2d} = {c: .12e}")
print("  ... the tail keeps shrinking; that is why the derived filters")
print("  have no compact support and need magnitude truncation.")

print("\nValue at 0 (sum of coefficients):", f"{mm.value_at_zero(sol):.12f}")
print("Zeros on [0, pi):", mm.count_zeros(sol), "(equals the order nu)")

x = np.linspace(0.0, math.pi, 512, endpoint=False)
flip = np.max(np.abs(mm.evaluate(sol, x + math.pi) + mm.evaluate(sol, x)))
print(f"Half-period antiperiodicity |f(x+pi) + f(x)| <= {flip:.2e}")

print("\n" + "=" * 72)
print("Independent check: shoot on the ODE with a fixed-step RK5 scheme")
print("=" * 72)
for nu, q in ((3, 3.0), (5, 15.0)):
    sol = mm.solve_even(mm.MathieuParams(nu, q))
    a_shoot = mm.shoot_even(nu, q)
    traj = mm.integrate(sol.a, q, 1.0, 0.0, math.pi)
    sup = mm.compare(sol, traj)
    print(f"  nu={nu} q={q:<4g}  matrix {sol.a:.12f}  shooting {a_shoot:.12f}")
    print(f"            |difference| = {abs(sol.a - a_shoot):.2e}, "
          f"series vs trajectory sup error = {sup:.2e}")
print("\nThe two routes share no code path: one is linear algebra on the")
print("coefficient recurrence, the other numerical integration plus root finding.")
