"""Periodic multilevel analysis/synthesis with a finite filter pair.

Analysis correlates the signal with each filter (taps applied at
circularly wrapped positions 2n + l) and keeps every second sample;
synthesis is the adjoint.  Both work in polyphase form: position
(2n + l) mod N is sample (n + l//2) mod N/2 of phase l mod 2, so each tap
is two contiguous slice updates on one phase.  With the q = 0 banks the
pair is orthonormal and synthesis inverts analysis exactly; for q != 0
synthesis is only the adjoint, and the round-trip error tracks the
power-complementarity defect of the transfer functions and is reported
rather than assumed small.
"""

from dataclasses import dataclass, field

import numpy as np

from .filterbank import tap_arrays


@dataclass(frozen=True)
class DwtResult:
    """Subband decomposition; details run from level 1 (finest) to level L."""

    levels: int
    approx: np.ndarray
    details: list
    length: int
    boundary: str = field(default="periodic")


def _taps(bank):
    """(index, value) pairs of h and of g, ascending index."""
    return [list(zip(l.tolist(), v.tolist())) for l, v in map(tap_arrays, (bank.h, bank.g))]


def _analysis_step(x, taps):
    n = x.size // 2
    phases = x[0::2].copy(), x[1::2].copy()
    bands = []
    for filt in taps:
        out = np.zeros(n)
        for l, v in filt:
            ph, s = phases[l % 2], (l // 2) % n
            out[:n - s] += v * ph[s:]
            out[n - s:] += v * ph[:s]
        bands.append(out)
    return bands


def _synthesis_step(approx, detail, taps):
    if approx.size != detail.size:
        raise ValueError("subband shape mismatch")
    n = approx.size
    phases = np.zeros((2, n))
    for filt, sub in zip(taps, (approx, detail)):
        for l, v in filt:
            ph, s = phases[l % 2], (l // 2) % n
            ph[s:] += v * sub[:n - s]
            ph[:s] += v * sub[n - s:]
    x = np.empty(2 * n)
    x[0::2], x[1::2] = phases
    return x


def forward(signal, bank, levels):
    """Multilevel periodic analysis of a 1-D signal.

    The signal length must be divisible by 2**levels so every level halves
    evenly under periodic boundary handling.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("signal must be a nonempty 1-D array")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if x.size % (2 ** levels):
        raise ValueError("signal length must be divisible by 2**levels")
    if len(bank.h) < 2 or len(bank.g) < 2:
        raise ValueError("filter bank is empty")
    taps = _taps(bank)
    details = []
    cur = x
    for _ in range(levels):
        cur, d = _analysis_step(cur, taps)
        details.append(d)
    return DwtResult(levels, cur, details, x.size)


def inverse(res, bank):
    """Synthesis cascade, the adjoint of :func:`forward` (same bank required).

    It inverts :func:`forward` exactly only where the bank is orthonormal,
    i.e. at q = 0; for q != 0 the round trip is not the identity.
    """
    expected = res.length // (2 ** res.levels)
    if res.approx.size != expected or len(res.details) != res.levels:
        raise ValueError("decomposition shape mismatch")
    taps = _taps(bank)
    x = res.approx
    for d in reversed(res.details):
        x = _synthesis_step(x, d, taps)
    return x
