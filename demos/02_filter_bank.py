"""Smoothing/detail filter pairs read off the eigensolution coefficients.

Shows the tap tables, the truncation trade-off, the closed-form transfer
functions with their boundary values, the quadrature-mirror diagnostics,
and the designable zero count.

Run from the repository root:  python demos/02_filter_bank.py
"""

import math

import numpy as np

import mathieu_mra as mm

print("=" * 72)
print("The q -> 0 limit gives the (negated) two-tap Haar pair for nu = 1")
print("=" * 72)
p10 = mm.MathieuParams(1, 0.0)
s10 = mm.solve_even(p10)
bank = mm.build(p10, s10, 0.0)
print("  h:", {l: round(v, 12) for l, v in sorted(bank.h.items())})
print("  g:", {l: round(v, 12) for l, v in sorted(bank.g.items())})
print("  The raw convention has DC gain -1; sign_correct flips h for use:")
print("  h corrected:", {l: round(v, 12) for l, v in sorted(mm.sign_correct(bank).h.items())})

print("\n" + "=" * 72)
print("Truncation study for nu=3, q=3 (tap magnitudes pair up around l=nu/2)")
print("=" * 72)
p33 = mm.MathieuParams(3, 3.0)
s33 = mm.solve_even(p33)
for thr in (1e-6, 1e-10, 1e-14, 0.0):
    b = mm.build(p33, s33, thr)
    label = f"{thr:g}" if thr else "none"
    print(f"  threshold {label:>6}: {len(b.h):2d} taps in h, support "
          f"l = {min(b.h)} .. {max(b.h)}")
b = mm.build(p33, s33, 1e-10)
print("\n  taps at threshold 1e-10:")
for l in sorted(b.h):
    print(f"    l={l:+3d}   h={b.h[l]: .10e}   g={b.g.get(l, 0.0): .10e}")

print("\n" + "=" * 72)
print("Transfer functions: tap DTFT vs closed forms, boundary contracts")
print("=" * 72)
om = np.linspace(0.0, 2.0 * math.pi, 513)
full = mm.build(p33, s33, 0.0)
gapH = np.max(np.abs(mm.dtft(full.h, om) - mm.transfer_H(p33, s33, om)))
gapG = np.max(np.abs(mm.dtft(full.g, om) - mm.transfer_G(p33, s33, om)))
print(f"  max |DTFT - closed form|: H {gapH:.2e}, G {gapG:.2e}  (untruncated)")
print(f"  H(0)  = {mm.transfer_H(p33, s33, 0.0):+.3f}     |H(pi)| = "
      f"{abs(mm.transfer_H(p33, s33, math.pi)):.2e}")
print(f"  |G(0)| = {abs(mm.transfer_G(p33, s33, 0.0)):.2e}  |G(pi)| = "
      f"{abs(mm.transfer_G(p33, s33, math.pi)):.3f}")
via_se = mm.magnitude_G_via_se(p33, math.pi / 2)
print(f"  |G(pi/2)| via se at -q (ce's eigenvector, reflected): {via_se:.12f} "
      f"(direct: {abs(mm.transfer_G(p33, s33, math.pi / 2)):.12f})")

print("\n" + "=" * 72)
print("Quadrature-mirror diagnostics")
print("=" * 72)
for nu, q in ((1, 0.0), (3, 0.01), (3, 3.0), (5, 15.0)):
    p = mm.MathieuParams(nu, q)
    s = mm.solve_even(p)
    grid = mm.qmf_report(p, s, 2048)
    phase = np.max(mm.phase_pairing_residual(p, s, grid.omegas))
    print(f"  nu={nu} q={q:<5g}  max | |H|^2 + |H(.+pi)|^2 - 1 | = "
          f"{np.max(grid.qmf_residual):.3e}   phase pairing residual = {phase:.1e}")
print("  Power complementarity holds exactly only at q = 0; the residual")
print("  grows like ~q/2 and is reported, never assumed away.  The phase")
print("  pairing between H and G is exact at every q.")

print("\n" + "=" * 72)
print("Designable zero count: |H| and |G| have exactly nu zeros per period")
print("=" * 72)
for nu in (1, 3, 5, 7):
    p = mm.MathieuParams(nu, 3.0)
    s = mm.solve_even(p)
    zh = mm.count_transfer_zeros(p, s, "H")
    zg = mm.count_transfer_zeros(p, s, "G")
    print(f"  nu={nu}: zeros of |H| = {zh}, zeros of |G| = {zg}")
