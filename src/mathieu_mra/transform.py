"""Periodic multilevel analysis/synthesis with a finite filter pair.

Analysis correlates the signal with each filter (taps applied at
circularly wrapped positions 2n + l) and keeps every second sample;
synthesis is the adjoint.  With the q = 0 banks the pair is orthonormal
and reconstruction is exact; for q != 0 the round-trip error tracks the
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


def _analysis_step(x, bank):
    n = x.size // 2
    pos = 2 * np.arange(n)
    approx = np.zeros(n)
    detail = np.zeros(n)
    for taps, out in ((bank.h, approx), (bank.g, detail)):
        for l, v in zip(*tap_arrays(taps)):
            out += v * x[(pos + l) % x.size]
    return approx, detail


def _synthesis_step(approx, detail, bank):
    if approx.size != detail.size:
        raise ValueError("subband shape mismatch")
    size = 2 * approx.size
    pos = 2 * np.arange(approx.size)
    x = np.zeros(size)
    for taps, sub in ((bank.h, approx), (bank.g, detail)):
        for l, v in zip(*tap_arrays(taps)):
            np.add.at(x, (pos + l) % size, v * sub)
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
    details = []
    cur = x
    for _ in range(levels):
        cur, d = _analysis_step(cur, bank)
        details.append(d)
    return DwtResult(levels, cur, details, x.size)


def inverse(res, bank):
    """Synthesis cascade undoing :func:`forward` (same bank required)."""
    expected = res.length // (2 ** res.levels)
    if res.approx.size != expected or len(res.details) != res.levels:
        raise ValueError("decomposition shape mismatch")
    x = res.approx
    for d in reversed(res.details):
        x = _synthesis_step(x, d, bank)
    return x
