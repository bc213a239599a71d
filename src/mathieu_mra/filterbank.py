"""Smoothing/detail filter pair of the elliptic-cylinder multiresolution analysis.

The taps are read off the cosine-series coefficients of the even
eigensolution,

    h_l = -sqrt(2) A_{|2l - nu|} / (2 ce0),
    g_l = (-1)^(l+1) h_{1-l} = sqrt(2) (-1)^l A_{|2l + nu - 2|} / (2 ce0),

with ce0 the series value at 0, so every filter magnitude is invariant to
the eigenvector normalisation.  Closed-form transfer functions and the
quadrature-mirror identities are provided for verification; note the raw
convention gives a lowpass DC gain of -1, flipped by :func:`sign_correct`
before any cascade/transform use.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    MathieuParams,
    evaluate,
    solve_even,
    solve_odd,
    value_at_zero,
)

SQRT2 = math.sqrt(2.0)
# ce0 must exceed CE0_FLOOR * sum |A_k|.  Its measured error is below
# 9 eps sum |A_k| (nu in {1, 3, 5, 9, 15}, q = 100..1600, against a 50-digit
# Rayleigh quotient iteration), so the scale 1/ce0 of every tap is then
# right to 1%.
CE0_FLOOR = 1000 * np.finfo(float).eps


@dataclass(frozen=True)
class FilterBank:
    """Finite tap maps {index: coefficient} for the smoothing and detail filters."""

    nu: int
    q: float
    h: dict
    g: dict
    threshold: float
    sign_corrected: bool

    def support(self, which="h"):
        """Sorted tap indices of filter ``which``."""
        return sorted(self.h if which == "h" else self.g)


@dataclass(frozen=True)
class SpectrumGrid:
    """Sampled transfer functions on a uniform frequency grid over [0, 2*pi)."""

    omegas: np.ndarray
    H: np.ndarray
    G: np.ndarray
    qmf_residual: np.ndarray
    phase_residual: np.ndarray

    def __post_init__(self):
        for arr in (self.omegas, self.H, self.G, self.qmf_residual, self.phase_residual):
            arr.setflags(write=False)


def _check_pair(params, sol):
    if sol.kind != "even-ce":
        raise ValueError("filter construction requires the even-ce solution")
    if sol.nu != params.nu or sol.q != params.q:
        raise ValueError("solution does not belong to the given parameters")


def build(params, sol, threshold):
    """Construct the filter pair, dropping taps with magnitude below ``threshold``.

    Parameters
    ----------
    params : MathieuParams
    sol : EigenSolution
        Must be ``solve_even(params)``.
    threshold : float
        FIR truncation level; 0 keeps every (floating-point nonzero) tap.

    Returns
    -------
    FilterBank with ``sign_corrected=False`` (lowpass DC gain -1).
    ConvergenceError when ce0 is within round-off of 0 (large q).
    """
    _check_pair(params, sol)
    if threshold < 0.0:
        raise ValueError("threshold must be >= 0")
    nu = params.nu
    A = sol.coeffs
    ce0 = value_at_zero(sol)
    if ce0 <= CE0_FLOOR * np.sum(np.abs(A)):
        raise ConvergenceError(
            f"ce(0) = {ce0:.3g} is within round-off of 0, so the taps have no "
            f"accurate scale (nu={nu}, q={params.q})"
        )
    # every l with |2l - nu| <= 2N - 1, the highest harmonic kept
    ls = np.arange((nu + 1) // 2 - len(A), (nu + 1) // 2 + len(A))
    taps = -SQRT2 * A[(np.abs(2 * ls - nu) - 1) // 2] / (2.0 * ce0)
    kept = taps != 0.0 if threshold == 0.0 else np.abs(taps) >= threshold
    ls, taps = ls[kept], taps[kept]
    h = dict(zip(ls.tolist(), taps.tolist()))
    # the quadrature mirror g_{1-l} = (-1)^l h_l, inserted in ascending index
    g = dict(zip((1 - ls[::-1]).tolist(), np.where(ls % 2, -taps, taps)[::-1].tolist()))
    if len(h) < 2:
        raise ValueError("threshold too large: fewer than 2 taps survive")
    return FilterBank(nu, float(params.q), h, g, float(threshold), False)


def sign_correct(bank):
    """Flip the global sign of h so the lowpass DC gain becomes +1."""
    if bank.sign_corrected:
        raise ValueError("bank is already sign-corrected")
    h = {l: -v for l, v in bank.h.items()}
    return FilterBank(bank.nu, bank.q, h, dict(bank.g), bank.threshold, True)


def tap_arrays(coeffs):
    """Tap map {index: coefficient} -> (indices, values) arrays, ascending index."""
    ls = sorted(coeffs)
    return np.array(ls, dtype=int), np.array([coeffs[l] for l in ls], dtype=float)


def dtft(coeffs, omega):
    """(1/sqrt 2) sum_k c_k exp(-i omega k), summed in ascending index order."""
    idx, vals = tap_arrays(coeffs)
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    z = np.sum(vals[:, None] * np.exp(-1j * np.outer(idx, om)), axis=0) / SQRT2
    return complex(z[0]) if np.ndim(omega) == 0 else z


def transfer_H(params, sol, omega):
    """Closed-form smoothing transfer: -exp(-i nu w/2) ce(w/2) / ce(0).

    Equals ``dtft(bank.h, omega)`` of the untruncated bank; H(0) = -1 and
    H(pi) = 0 because odd-order even solutions vanish at the quarter period.
    """
    _check_pair(params, sol)
    om = np.asarray(omega, dtype=float)
    val = -np.exp(-0.5j * params.nu * om) * evaluate(sol, om / 2.0) / value_at_zero(sol)
    return complex(val) if np.ndim(omega) == 0 else val


def transfer_G(params, sol, omega):
    """Closed-form detail transfer: exp(i(nu-2)(w-pi)/2) ce((w-pi)/2) / ce(0).

    G(0) = 0 and |G(pi)| = 1.
    """
    _check_pair(params, sol)
    om = np.asarray(omega, dtype=float)
    phase = np.exp(0.5j * (params.nu - 2) * (om - math.pi))
    val = phase * evaluate(sol, (om - math.pi) / 2.0) / value_at_zero(sol)
    return complex(val) if np.ndim(omega) == 0 else val


def magnitude_G_via_se(params, omega, sol_even=None, sol_odd=None):
    """|detail transfer| through the odd solution at reversed intensity.

    Evaluates |se_nu(w/2, -q)| / ce_nu(0, q), an independent route to
    |transfer_G| that exercises the odd-kind eigensolve.
    """
    if sol_even is None:
        sol_even = solve_even(params)
    if sol_odd is None:
        sol_odd = solve_odd(MathieuParams(params.nu, -params.q))
    _check_pair(params, sol_even)
    ce0 = value_at_zero(sol_even)
    om = np.asarray(omega, dtype=float)
    val = np.abs(evaluate(sol_odd, om / 2.0)) / ce0
    return float(val) if np.ndim(omega) == 0 else val


def phase_pairing_residual(params, sol, omegas):
    """Pointwise |H(w) + exp(-iw) conj(G(w+pi))|; exactly 0 for the closed forms."""
    om = np.asarray(omegas, dtype=float)
    H = transfer_H(params, sol, om)
    G_shift = transfer_G(params, sol, om + math.pi)
    return np.abs(H + np.exp(-1j * om) * np.conj(G_shift))


def qmf_report(params, sol, n_samples):
    """Sample H and G on [0, 2*pi) and report the power-complementarity residual.

    ``qmf_residual`` holds | |H(w)|^2 + |H(w+pi)|^2 - 1 | per sample; it is
    reported, not asserted, because the closed forms only satisfy power
    complementarity exactly at q = 0.  ``phase_residual`` holds the
    phase-pairing residual |H(w) + exp(-iw) conj(G(w+pi))| per sample.  The
    closed forms satisfy that identity identically, and it is verified here
    to 1e-10; where round-off in ce breaks it (from q ~ 55 at nu = 1) the
    report raises :class:`ConvergenceError`.  H and G are 2*pi-periodic for
    odd nu, so their samples at w + pi are a roll.
    """
    if n_samples < 2 or n_samples % 2:
        raise ValueError("n_samples must be even and >= 2")
    om = 2.0 * math.pi * np.arange(n_samples) / n_samples
    H = transfer_H(params, sol, om)
    G = transfer_G(params, sol, om)
    qmf = np.abs(np.abs(H) ** 2 + np.abs(np.roll(H, -n_samples // 2)) ** 2 - 1.0)
    phase = np.abs(H + np.exp(-1j * om) * np.conj(np.roll(G, -n_samples // 2)))
    if np.max(phase) > 1e-10:
        raise ConvergenceError(
            f"phase-pairing identity violated: max residual {np.max(phase):.3e}"
        )
    return SpectrumGrid(om, H, G, qmf, phase)


def normalization_residuals(bank):
    """Residuals of the two normalising conditions of the raw (uncorrected) bank.

    Returns (|sum h / sqrt2 + 1|, |sum (-1)^k h_k|).
    """
    ls, vals = tap_arrays(bank.h)
    dc = abs(float(np.sum(vals)) / SQRT2 + (1.0 if not bank.sign_corrected else -1.0))
    alt = abs(float(np.sum(np.where(ls % 2 == 0, vals, -vals))))
    return dc, alt


def count_transfer_zeros(params, sol, which="H"):
    """Zeros of |H| (or |G|) on the frequency interval [0, 2*pi).

    |H(w)| is |ce(w/2)| / ce(0) and |G(w)| is |ce((w - pi)/2)| / ce(0), so
    the zeros are those of ce on [0, pi) for H and on [-pi/2, pi/2) for G.
    The odd harmonics make ce(x + pi) = -ce(x): its zeros repeat with
    period pi, and every half-open interval of length pi holds the same
    number.  Both counts are therefore that of :func:`count_zeros`, the one
    count made per solution and shared by all three, and a count other than
    nu raises ConvergenceError.
    """
    _check_pair(params, sol)
    if which not in ("H", "G"):
        raise ValueError("which must be 'H' or 'G'")
    return sol._zero_count
