"""Periodic multilevel analysis/synthesis with a finite filter pair.

Analysis correlates the signal with each filter (taps applied at
circularly wrapped positions 2n + l) and keeps every second sample;
synthesis is the adjoint.  Both work in polyphase form: position
(2n + l) mod N is sample (n + l//2) mod N/2 of phase l mod 2.  Each level
runs over output blocks of at most ``_BLOCK`` samples: the wrapped source
windows of a block are copied once into two small reused buffers, and each
tap is then one contiguous slice product added into the block, so no
full-size scratch array is made.  Every output sample still gets the same
products added in the same tap order from +0.0, whatever the block size.
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


def _polyphase(bank):
    """Polyphase taps of h and g: per filter, (phase l % 2, offset, value) in
    ascending l, where offset = l//2 - lo and lo is the least l//2 of both
    filters; returned with lo and span, the largest offset."""
    ls, vs = zip(*map(tap_arrays, (bank.h, bank.g)))
    lo = min(int(l.min()) // 2 for l in ls)
    span = max(int(l.max()) // 2 for l in ls) - lo
    taps = [list(zip((l % 2).tolist(), (l // 2 - lo).tolist(), v.tolist())) for l, v in zip(ls, vs)]
    return taps, lo, span


def _wrap_copy(out, src, start):
    """out[k] = src[(start + k) mod src.size], one slice copy per wrap."""
    k, i = 0, start % src.size
    while k < out.size:
        c = min(src.size - i, out.size - k)
        out[k:k + c] = src[i:i + c]
        k, i = k + c, 0


def _analysis_step(x, polyphase):
    # Window sample k of phase p is x[p::2][(m + lo + k) mod n], so the tap
    # with offset o reads the block's inputs at win[p][o:o + c].
    taps, lo, span = polyphase
    n = x.size // 2
    b = min(n, _BLOCK)
    win, tmp = [np.empty(b + span), np.empty(b + span)], np.empty(b)
    bands = [np.zeros(n), np.zeros(n)]
    for m in range(0, n, b):
        c = min(b, n - m)
        for p, w in enumerate(win):
            _wrap_copy(w[:c + span], x[p::2], m + lo)
        t = tmp[:c]
        for filt, out in zip(taps, bands):
            blk = out[m:m + c]
            for p, o, v in filt:
                np.multiply(win[p][o:o + c], v, out=t)
                np.add(blk, t, out=blk)
    return bands


def _synthesis_step(approx, detail, polyphase):
    if approx.size != detail.size:
        raise ValueError("subband shape mismatch")
    # Window sample k is sub[(j - lo - span + k) mod n], so the tap with
    # offset o reads the block's inputs at w[span - o:span - o + c].
    taps, lo, span = polyphase
    n = approx.size
    b = min(n, _BLOCK)
    win, tmp, acc = [np.empty(b + span), np.empty(b + span)], np.empty(b), np.empty((2, b))
    x = np.empty(2 * n)
    for j in range(0, n, b):
        c = min(b, n - j)
        for w, sub in zip(win, (approx, detail)):
            _wrap_copy(w[:c + span], sub, j - lo - span)
        t, blk = tmp[:c], acc[:, :c]
        blk[...] = 0.0
        rows = list(blk)
        for w, filt in zip(win, taps):
            for p, o, v in filt:
                np.multiply(w[span - o:span - o + c], v, out=t)
                np.add(rows[p], t, out=rows[p])
        x[2 * j:2 * (j + c):2], x[2 * j + 1:2 * (j + c):2] = rows
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
    polyphase = _polyphase(bank)
    details = []
    cur = x
    for _ in range(levels):
        cur, d = _analysis_step(cur, polyphase)
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
    polyphase = _polyphase(bank)
    x = res.approx
    for d in reversed(res.details):
        x = _synthesis_step(x, d, polyphase)
    return x
