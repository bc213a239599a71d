"""Measure where the cascade converges, to choose the benchmark's designs.

Usage (from the repository root): python3 perfbench/domain.py

For each odd nu and a grid of q it builds the truncated, sign-corrected
bank and prints the transition operator certificate (Lawton 1991): with
``a`` the autocorrelation of the taps scaled to sum 2, T_ij = a_{2i-j}.  The
cascade converges when T has spectral radius 1 and its next eigenvalue is
below 1.  It also prints the cascade's last sup-norm change after 10
iterations, which ``cascade.run`` reports but does not act on.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from mathieu_mra import cascade, core, filterbank  # noqa: E402

QS = (1, 2, 3, 5, 7, 8, 10, 15, 20, 25, 30, 35)


def certificate(bank):
    """(spectral radius, next eigenvalue modulus) of the transition operator."""
    h = np.array([bank.h[l] for l in sorted(bank.h)])
    h = 2.0 * h / np.sum(h)
    a = np.correlate(h, h, "full") / 2.0
    half = len(h) - 1
    idx = np.arange(-half, half + 1)
    k = 2 * idx[:, None] - idx[None, :]
    T = np.where(np.abs(k) <= half, a[np.clip(k + half, 0, 2 * half)], 0.0)
    ev = np.sort(np.abs(np.linalg.eigvals(T)))[::-1]
    return ev[0], ev[1]


def main():
    print("nu  q   radius  next   delta10")
    for nu in (1, 3, 5, 7, 9):
        for q in QS:
            params = core.MathieuParams(nu, float(q))
            bank = filterbank.sign_correct(filterbank.build(params, core.solve_even(params), 1e-10))
            radius, nxt = certificate(bank)
            try:
                delta = f"{cascade.run(bank, 10, 10).delta:.3g}"
            except core.ConvergenceError:
                delta = "raises"
            ok = abs(radius - 1.0) < 1e-6 and nxt < 1.0 - 1e-6
            print(f"{nu:2d} {q:3d}  {radius:7.3g} {nxt:6.3g}  {delta:>8}  {'converges' if ok else 'diverges'}")


if __name__ == "__main__":
    main()
