"""Periodic multilevel analysis/synthesis with a finite filter pair.

Analysis correlates the signal with each filter (taps applied at
circularly wrapped positions 2n + l) and keeps every second sample.  In
polyphase form position (2n + l) mod N is sample (n + l//2) mod N/2 of phase
l mod 2, so each tap is one term: a phase, a band, a shift and a value.
Synthesis is the adjoint, the same terms transposed (band to phase, shift
negated).  Both run one blocked periodic sum over output blocks of at most
``_BLOCK`` samples: the wrapped source windows of a block are copied once
into two small reused buffers, and each term is then one contiguous slice
product added into the block, so no full-size scratch array is made.  Every
output sample gets the same products added in the same tap order from +0.0,
whatever the block size.
With the q = 0 banks the pair is orthonormal and synthesis inverts
analysis exactly; for q != 0 synthesis is only the adjoint, and the
round-trip error tracks the power-complementarity defect of the transfer
functions and is reported rather than assumed small.
"""

from dataclasses import dataclass

import numpy as np

from .filterbank import tap_arrays


@dataclass(frozen=True)
class DwtResult:
    """Subband decomposition; details run from level 1 (finest) to level L."""

    levels: int
    approx: np.ndarray
    details: list
    length: int


# Output samples per block: the block's windows, product and accumulator
# stay in L2 cache while every tap passes over them.
_BLOCK = 2 ** 15


def _terms(bank):
    """Analysis terms (phase l % 2, filter f, l // 2, value): band f gets
    value * x[l % 2::2][(k + l // 2) mod N/2] at sample k.  h's taps come
    first, then g's, each in ascending l."""
    terms = []
    for f, taps in enumerate((bank.h, bank.g)):
        l, v = tap_arrays(taps)
        terms += zip((l % 2).tolist(), [f] * l.size, (l // 2).tolist(), v.tolist())
    return terms


def _wrap_copy(out, src, start):
    """out[k] = src[(start + k) mod src.size], one slice copy per wrap."""
    k, i = 0, start % src.size
    while k < out.size:
        c = min(src.size - i, out.size - k)
        out[k:k + c] = src[i:i + c]
        k, i = k + c, 0


def _periodic_sums(sources, terms, outputs):
    """outputs[r][k] = sum of v * sources[s][(k + shift) mod n] over the terms
    (s, r, shift, v), added in list order from +0.0."""
    # Window sample i of source s is sources[s][(m + lo + i) mod n], so the
    # term with shift reads the block's inputs at win[s][shift - lo:][:c].
    n = sources[0].size
    lo = min(t[2] for t in terms)
    span = max(t[2] for t in terms) - lo
    b = min(n, _BLOCK)
    win, tmp, acc = [np.empty(b + span), np.empty(b + span)], np.empty(b), np.empty((2, b))
    for m in range(0, n, b):
        c = min(b, n - m)
        for w, src in zip(win, sources):
            _wrap_copy(w[:c + span], src, m + lo)
        t, blk = tmp[:c], acc[:, :c]
        blk[...] = 0.0
        rows = list(blk)
        for s, r, shift, v in terms:
            rows[r] += np.multiply(win[s][shift - lo:shift - lo + c], v, t)
        for out, row in zip(outputs, rows):
            out[m:m + c] = row


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
    terms = _terms(bank)
    details = []
    cur = x
    for _ in range(levels):
        bands = np.empty(cur.size // 2), np.empty(cur.size // 2)
        _periodic_sums((cur[0::2], cur[1::2]), terms, bands)
        cur = bands[0]
        details.append(bands[1])
    return DwtResult(levels, cur, details, x.size)


def inverse(res, bank):
    """Synthesis cascade, the adjoint of :func:`forward` (same bank required).

    It inverts :func:`forward` exactly only where the bank is orthonormal,
    i.e. at q = 0; for q != 0 the round trip is not the identity.
    """
    expected = res.length // (2 ** res.levels)
    if res.approx.size != expected or len(res.details) != res.levels:
        raise ValueError("decomposition shape mismatch")
    # The adjoint: each term reads band f and adds into phase p at shift -k.
    terms = [(f, p, -k, v) for p, f, k, v in _terms(bank)]
    x = res.approx
    for d in reversed(res.details):
        if x.size != d.size:
            raise ValueError("subband shape mismatch")
        y = np.empty(2 * x.size)
        _periodic_sums((x, d), terms, (y[0::2], y[1::2]))
        x = y
    return x
