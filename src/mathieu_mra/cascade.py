"""Cascade iteration: sampled scaling-function and wavelet approximations.

Starting from a unit impulse, each pass upsamples by two and convolves with
sqrt(2) h, the discrete refinement map whose fixed point samples the
scaling function phi on the dyadic grid.  The wavelet psi comes from the
final phi iterate by the two-scale relation psi(t) = sqrt(2) sum_l g_l
phi(2t - l), one level finer, in one shifted slice update per g tap.  Tap
indices may be negative; absolute grid offsets are carried alongside the
sample arrays.  The output grid always nests with both: the phi and psi
nodes are written onto it in place, and only on a grid finer than theirs
are the samples between them filled in linearly.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import ConvergenceError
from .filterbank import SQRT2, dtft, tap_arrays

__all__ = ["CascadeOutput", "run", "refinement_residual", "two_scale_residual"]


@dataclass(frozen=True)
class CascadeOutput:
    """Samples of phi and psi on the uniform dyadic grid t = k / 2**level."""

    level: int
    t: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    iterations: int
    delta: float

    def __post_init__(self):
        self.t.setflags(write=False)
        self.phi.setflags(write=False)
        self.psi.setflags(write=False)


def _aligned_sup_diff(a, astart, b, bstart):
    """Sup-norm difference of two integer-indexed sequences, zero off-support."""
    lo = min(astart, bstart)
    hi = max(astart + len(a), bstart + len(b))
    pa = np.zeros(hi - lo)
    pb = np.zeros(hi - lo)
    pa[astart - lo : astart - lo + len(a)] = a
    pb[bstart - lo : bstart - lo + len(b)] = b
    return float(np.max(np.abs(pa - pb)))


def _refine(bank, iterations, v, start):
    """Yield (iterate, start index) after each of ``iterations`` passes.

    Each pass upsamples the previous iterate (first the seed ``v``, its
    first sample at index ``start``) and convolves it with sqrt(2) h.
    Seeded with the unit impulse at 0, pass d samples phi at k / 2**d from
    k = start.
    """
    idx, vals = tap_arrays(bank.h)
    hmin = int(idx[0])
    hker = np.zeros(idx[-1] - hmin + 1)
    hker[idx - hmin] = SQRT2 * vals
    for _ in range(iterations):
        up = np.zeros(2 * len(v) - 1)
        up[::2] = v
        v = np.convolve(up, hker)
        start = 2 * start + hmin
        yield v, start


def _fill(out, p0, n, per):
    """Fill between the n nodes out[p0 :: per] in place, linearly:
    y[j] + (y[j+1] - y[j]) * (r/per) at p0 + j per + r, 0 < r < per.

    On these dyadic grids that is bit for bit np.interp's slope * (x - x_j)
    + y_j: the node spacing and x - x_j scale by powers of two.
    """
    if per == 1:
        return
    block = out[p0 : p0 + (n - 1) * per].reshape(-1, per)
    between = block[:, 1:]
    np.multiply(np.diff(out[p0 : p0 + (n - 1) * per + 1 : per])[:, None],
                np.arange(1, per) / per, out=between)
    between += block[:, :1]


def run(bank, iterations, level):
    """Iterate the refinement map and sample phi/psi at resolution 2**-level.

    Parameters
    ----------
    bank : FilterBank
        Must be sign-corrected (lowpass DC gain +1); the raw -1 convention
        makes the iteration alternate instead of converge.
    iterations : int
        Number of refinement passes (>= 1).
    level : int
        Output grid level; must be >= iterations.  The natural grids (phi at
        2**-iterations, psi one level finer) nest in the output grid, so
        their nodes are placed on it as they are.  Where level > iterations,
        the samples between nodes are linear in the two nodes around them
        (bit for bit ``np.interp``); at level == iterations only every other
        psi node lies on the grid, and only those are summed.

    Returns
    -------
    CascadeOutput; ``delta`` is the sup-norm change of the final pass
    measured against the previous iterate on the shared coarser grid.  psi
    is the two-scale relation psi(t) = sqrt(2) sum_l g_l phi(2t - l) applied
    to the final phi iterate v: tap l adds sqrt(2) g_l v at offset
    l 2**iterations on the grid 2**-(iterations+1).
    """
    if not bank.sign_corrected:
        raise ValueError("cascade requires a sign-corrected bank (DC gain +1)")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if level < iterations:
        raise ValueError("level must be >= iterations")
    v, start = np.ones(1), 0  # the impulse the first pass refines
    sup_prev = 1.0
    for nxt, nxt_start in _refine(bank, iterations, v, start):
        sup = float(np.max(np.abs(nxt)))
        if sup > 10.0 * sup_prev:
            raise ConvergenceError("cascade diverging: is the bank normalised?")
        prev, prev_start, v, start, sup_prev = v, start, nxt, nxt_start, sup
    # delta: the final iterate against the one before it, on the coarser grid
    # (previous index p sits at new index 2p)
    off = (-start) % 2
    delta = _aligned_sup_diff(prev, prev_start, v[off::2], (start + off) // 2)

    # The grids nest: phi node start + n lies at output sample (start + n) per,
    # psi node m = start + l dil + n at m per/2, which at per = 1 exists only
    # for even m, the n = j0, j0 + 2, ...
    dil = 2 ** iterations
    per = 2 ** (level - iterations)
    gidx, gvals = tap_arrays(bank.g)
    psi_start = start + int(gidx[0]) * dil
    psi_end = start + int(gidx[-1]) * dil + len(v) - 1
    k_lo = min(start * per, psi_start * per // 2)
    k_hi = max((start + len(v) - 1) * per, -(-psi_end * per // 2))
    t = (k_lo + np.arange(k_hi - k_lo + 1)) * 2.0 ** (-level)
    phi = np.zeros(len(t))
    psi = np.zeros(len(t))

    p0 = start * per - k_lo
    phi[p0 : p0 + (len(v) - 1) * per + 1 : per] = v
    _fill(phi, p0, len(v), per)
    half = max(per // 2, 1)
    j0, skip = (start % 2, 2) if per == 1 else (0, 1)
    vj = v[j0::skip]
    for l, gl in zip(gidx, gvals):
        off = (start + int(l) * dil + j0) * per // 2 - k_lo
        psi[off : off + (len(vj) - 1) * half + 1 : half] += SQRT2 * gl * vj
    _fill(psi, psi_start * half - k_lo, psi_end - psi_start + 1, half)
    return CascadeOutput(level, t, phi, psi, iterations, float(delta))


def refinement_residual(out, bank):
    """Max over the grid of |phi(t) - sqrt(2) sum_k h_k phi(2t - k)|.

    phi(2t - k) is read from the sampled output (linear interpolation off
    the stored nodes, zero outside support); a diagnostic of how close the
    iterate is to a true fixed point of the refinement map.
    """
    acc = np.zeros_like(out.phi)
    for l, v in zip(*tap_arrays(bank.h)):
        acc += SQRT2 * v * np.interp(
            2.0 * out.t - l, out.t, out.phi, left=0.0, right=0.0
        )
    return float(np.max(np.abs(out.phi - acc)))


def two_scale_residual(bank, transfer, iterations, n_freq=64):
    """Frequency-domain refinement check between consecutive cascade iterates.

    With Phi_d the quasi-Fourier transform of the depth-d iterate
    (2**-d sum_k v[k] exp(-i w t_k)), the construction satisfies
    Phi_d(w) = H(w / 2**d) Phi_{d-1}(w) exactly when H is the tap DTFT.
    Passing the closed-form transfer instead (``transfer``, already on the
    sign-corrected convention) makes the residual measure FIR truncation:
    it stays at rounding level for the untruncated two-tap q=0 bank and is
    reported for truncated banks.

    Returns the max residual over ``n_freq`` frequencies spanning one full
    period of the transfer argument.
    """
    if not bank.sign_corrected:
        raise ValueError("two_scale_residual expects a sign-corrected bank")
    if iterations < 2:
        raise ValueError("need at least 2 iterations to compare consecutive iterates")
    (v_prev, s_prev), (v_last, s_last) = deque(_refine(bank, iterations, np.ones(1), 0), maxlen=2)
    d_prev, d_last = iterations - 1, iterations

    u = 2.0 * math.pi * np.arange(n_freq) / n_freq  # transfer argument
    omega = u * 2.0 ** d_last

    def quasi_ft(vals, s, depth):
        tk = (s + np.arange(len(vals))) * 2.0 ** (-depth)
        return 2.0 ** (-depth) * np.sum(
            vals[None, :] * np.exp(-1j * np.outer(omega, tk)), axis=1
        )

    lhs = quasi_ft(v_last, s_last, d_last)
    rhs = transfer(u) * quasi_ft(v_prev, s_prev, d_prev)
    return float(np.max(np.abs(lhs - rhs)))


def dtft_transfer(bank):
    """Tap-DTFT of the bank's smoothing filter as a callable (for two_scale_residual)."""
    return lambda u: dtft(bank.h, u)
