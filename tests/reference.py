"""Retired implementations, kept as references their replacements must match.

The comment above each one says what it pins.
"""

import math

import numpy as np
from numpy.polynomial import chebyshev

import mathieu_mra as mm
from mathieu_mra import core, oracle
from mathieu_mra.filterbank import tap_arrays

_REF_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_REF_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_REF_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_REF_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


# The scalar Dormand-Prince loop: pins oracle.integrate's states to 1e-12 of
# max |y|, and which steps it refuses.
def integrate(a, q, y0, yprime0, z_end, step=mm.DEFAULT_STEP, max_local_error=oracle.MAX_LOCAL_ERROR):
    """(ys, yps) from the scalar loop; raises StepSizeError like ``integrate``."""
    n = max(1, round(z_end / step))
    h = z_end / n
    ys = np.empty(n + 1)
    yps = np.empty(n + 1)
    y, yp = float(y0), float(yprime0)
    ys[0], yps[0] = y, yp
    ky = [0.0] * 7
    kp = [0.0] * 7
    z = 0.0
    for i in range(n):
        for s in range(7):
            yi, pi = y, yp
            row = _REF_A[s]
            for j in range(s):
                yi += h * row[j] * ky[j]
                pi += h * row[j] * kp[j]
            ky[s] = pi
            kp[s] = -(a - 2.0 * q * math.cos(2.0 * (z + _REF_C[s] * h))) * yi
        dy5 = sum(_REF_B5[s] * ky[s] for s in range(7))
        dp5 = sum(_REF_B5[s] * kp[s] for s in range(7))
        dy4 = sum(_REF_B4[s] * ky[s] for s in range(7))
        dp4 = sum(_REF_B4[s] * kp[s] for s in range(7))
        err = h * max(abs(dy5 - dy4), abs(dp5 - dp4))
        if err > max_local_error:
            raise mm.StepSizeError(f"step {h:.6g} refused: local error {err:.3e}")
        y += h * dy5
        yp += h * dp5
        z += h
        ys[i + 1], yps[i + 1] = y, yp
    return ys, yps


# oracle._stage_table before it filled one array in place: pins it bit for bit.
def stage_table(q, h, i0, nb):
    z = (i0 + np.arange(nb)) * h
    table = 2.0 * q * np.cos(2.0 * (z + oracle._C[:6, None] * h))
    return table[[0, 1, 2, 3, 4, 5, 5]]


# oracle._step_matrices before stage 0 was written directly and -w negated
# once: pins it bit for bit.
def step_matrices(a, q, h, i0, nb):
    w = a - stage_table(q, h, i0, nb)
    K = np.empty((7, 2, 2, nb))
    flat = K.reshape(7, -1)
    for s in range(7):
        G = (h * oracle._A[s, :s] @ flat[:s]).reshape(2, 2, nb)
        G[0, 0] += 1.0
        G[1, 1] += 1.0
        K[s, 0] = G[1]
        K[s, 1] = -w[s] * G[0]
    B5, B4 = oracle._B5, oracle._B4
    return (h * B5 @ flat).reshape(2, 2, nb), (h * (B5 - B4) @ flat).reshape(2, 2, nb)


def _combine(later, earlier):
    return later + earlier + later[:, :1] * earlier[0] + later[:, 1:] * earlier[1]


# oracle._prefix_products before its step-major layout: pins it bit for bit.
def prefix_products(E):
    m = E.shape[-1]
    nc = -(-m // oracle._CHUNK)
    Q = np.zeros((2, 2, nc, oracle._CHUNK))
    Q.reshape(2, 2, -1)[..., :m] = E
    for j in range(1, oracle._CHUNK):
        Q[..., j] = _combine(Q[..., j], Q[..., j - 1])
    T = Q[..., -1].copy()
    d = 1
    while d < nc:
        T[..., d:] = _combine(T[..., d:], T[..., :-d])
        d *= 2
    Q[:, :, 1:] = _combine(Q[:, :, 1:], T[:, :, :-1, None])
    return Q.reshape(2, 2, -1)[..., :m]


# oracle._march, integrate's block loop before each block raised its own
# refusal, on the references above: pins integrate's states bit for bit, and
# its refusal message through the first refused error.
def march(a, q, y0, yprime0, h, n, max_local_error):
    x = np.empty((2, n + 1))
    x[:, 0] = y0, yprime0
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n, oracle._BLOCK):
            nb = min(oracle._BLOCK, n - i0)
            E, D = step_matrices(a, q, h, i0, nb)
            Q = prefix_products(E)
            start = x[:, i0]
            x[:, i0 + 1 : i0 + nb + 1] = start[:, None] + Q[:, 0] * start[0] + Q[:, 1] * start[1]
            before = x[:, i0 : i0 + nb]
            e = D[:, 0] * before[0] + D[:, 1] * before[1]
            err = np.maximum(np.abs(e[0]), np.abs(e[1]))
            refused = ~(err <= max_local_error)
            if refused.any():
                first = float(err[np.argmax(refused)])
                if not math.isfinite(first):
                    raise mm.ConvergenceError("trajectory blew up (non-finite samples)")
                return None, first
    return x, None


# core._series as numpy's chebval on the full Chebyshev series, before the
# fused loop: pins it bit for bit, signed zeros included.
def series(kind, coeffs, x):
    f = np.zeros(2 * len(coeffs))
    if kind == "even-ce":
        f[1::2] = coeffs
        vals = chebyshev.chebval(np.cos(x), f)
    else:
        f[1::2] = np.resize([1.0, -1.0], len(coeffs)) * coeffs
        vals = chebyshev.chebval(np.sin(x), f)
    return float(vals) if np.ndim(x) == 0 else vals


# core's odd-kind solve before it was read off the even-kind solve at -q:
# its own operator, first diagonal entry 1 - q, and the sign fixed by the
# slope at 0.  Pins solve_odd's a and truncation order bit for bit, its
# coefficients in value and its nonzero coefficients bit for bit.
def solve_odd(nu, q):
    """(a, coeffs) of the direct odd-kind dense solve."""
    index = (nu - 1) // 2
    n = 2 * core._initial_order(nu, q)
    while True:
        assert n <= core.MAX_HARMONICS
        m = 2.0 * np.arange(n) + 1.0
        op = np.diag(m * m)
        op[0, 0] += -q
        op[np.arange(1, n), np.arange(n - 1)] = q
        w, v = np.linalg.eigh(op)
        a = float(w[index])
        vec = v[:, index].copy()
        if abs(vec[-1]) < core.TAIL_DECAY * np.max(np.abs(vec)):
            break
        n *= 2
    if core._series("even-ce", m * vec, 0.0) < 0:
        vec = -vec
    return a, vec


# transform's analysis step as the gather that preceded its polyphase form:
# pins forward's bands bit for bit, signed zeros included.
def analysis_step(x, bank):
    n = x.size // 2
    pos = 2 * np.arange(n)
    approx = np.zeros(n)
    detail = np.zeros(n)
    for taps, out in ((bank.h, approx), (bank.g, detail)):
        for l, v in zip(*tap_arrays(taps)):
            out += v * x[(pos + l) % x.size]
    return approx, detail


# transform's synthesis step as the np.add.at scatter that preceded its
# polyphase form: pins inverse bit for bit, signed zeros included.
def synthesis_step(approx, detail, bank):
    size = 2 * approx.size
    pos = 2 * np.arange(approx.size)
    x = np.zeros(size)
    for taps, sub in ((bank.h, approx), (bank.g, detail)):
        for l, v in zip(*tap_arrays(taps)):
            np.add.at(x, (pos + l) % size, v * sub)
    return x


# What "bit for bit" means above: same type and shape, equal values (NaN
# equal to NaN) and the same sign bits, so +0.0 and -0.0 differ.
def bit_equal(x, y):
    return (
        type(x) is type(y)
        and np.shape(x) == np.shape(y)
        and np.array_equal(x, y, equal_nan=True)
        and np.array_equal(np.signbit(x), np.signbit(y))
    )
