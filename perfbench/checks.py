"""Output checks computed apart from the program.

Every reference here comes from scipy's Mathieu routines or from an FFT
identity, never from ``mathieu_mra`` itself and never from a stored copy of
an earlier output.  Each check raises :class:`CheckFailed` with a message
naming the first mismatch; ``selftest.py`` feeds each one a slightly
perturbed output to show it can fail.
"""

import math

import numpy as np
from scipy.special import mathieu_a, mathieu_cem, mathieu_even_coef

SQRT2 = math.sqrt(2.0)


class CheckFailed(AssertionError):
    """A program output disagrees with its independent reference."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(name, got, want, tol):
    got = np.asarray(got)
    want = np.asarray(want)
    _require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    _require(err <= tol, f"{name}: max deviation {err:.3e} > {tol:.1e}")


# -- eigensolution ----------------------------------------------------------


def scipy_coeffs(nu, q):
    """Cosine coefficients A_1, A_3, ... from scipy, unit norm, positive sum."""
    A = np.asarray(mathieu_even_coef(nu, q), dtype=float)
    A = A / np.linalg.norm(A)
    return -A if np.sum(A) < 0 else A


def eigenvalue(nu, q, a):
    """``a`` is the characteristic value a_nu(q) of ``scipy.special.mathieu_a``."""
    ref = float(mathieu_a(nu, q))
    _require(
        abs(a - ref) <= 1e-10 * max(1.0, abs(ref)),
        f"a_{nu}({q}): {a!r} vs scipy {ref!r}",
    )


def coefficients(nu, q, coeffs, ce_at_zero=None):
    """Unit-norm cosine coefficients match scipy's; the tail beyond scipy's is 0."""
    c = np.asarray(coeffs, dtype=float)
    ref = scipy_coeffs(nu, q)
    n = min(len(c), len(ref))
    _close(f"coefficients ({nu},{q})", c[:n], ref[:n], 1e-12)
    _require(
        len(c) <= n or float(np.max(np.abs(c[n:]))) <= 1e-14,
        f"coefficients ({nu},{q}): tail beyond scipy's {n} terms is not negligible",
    )
    if ce_at_zero is not None:
        # scipy normalises ce like core: integral of ce^2 over a period is pi
        ce0 = float(mathieu_cem(nu, q, 0.0)[0])
        _require(
            abs(ce_at_zero - ce0) <= 1e-12 * max(1.0, abs(ce0)),
            f"ce_{nu}(0,{q}): {ce_at_zero!r} vs scipy {ce0!r}",
        )


# -- filter taps --------------------------------------------------------------


def reference_taps(nu, q, threshold, sign_corrected):
    """Tap maps read off scipy's coefficients, truncated at ``threshold``.

    Returns ``(h, g, ambiguous)``; ``ambiguous`` holds the ``(filter, index)``
    pairs whose magnitude lies within a relative 1e-6 of the threshold, where
    round-off may decide either way.
    """
    A = scipy_coeffs(nu, q)
    ce0 = float(np.sum(A))
    mmax = 2 * len(A) - 1

    def tap(m):
        return SQRT2 * A[(m - 1) // 2] / (2.0 * ce0)

    h_sign = 1.0 if sign_corrected else -1.0
    full = {
        "h": {l: h_sign * tap(abs(2 * l - nu))
              for l in range((nu - mmax) // 2, (nu + mmax) // 2 + 1)},
        "g": {l: (-1.0) ** l * tap(abs(2 * l + nu - 2))
              for l in range((2 - nu - mmax) // 2, (2 - nu + mmax) // 2 + 1)},
    }
    kept = {w: {l: v for l, v in f.items() if abs(v) >= threshold} for w, f in full.items()}
    ambiguous = {
        (w, l) for w, f in full.items() for l, v in f.items()
        if abs(abs(v) - threshold) <= 1e-6 * threshold
    }
    return kept["h"], kept["g"], ambiguous


def taps(nu, q, h, g, threshold, sign_corrected):
    """Tap sets and values match the scipy coefficient route."""
    ref_h, ref_g, ambiguous = reference_taps(nu, q, threshold, sign_corrected)
    for which, got, ref in (("h", h, ref_h), ("g", g, ref_g)):
        differ = {l for l in set(got) ^ set(ref) if (which, l) not in ambiguous}
        _require(not differ, f"{which} taps ({nu},{q}): index sets differ at {sorted(differ)}")
        for l, v in got.items():
            want = ref.get(l, 0.0)
            _require(
                abs(v - want) <= 1e-12,
                f"{which}[{l}] ({nu},{q}): {v!r} vs scipy route {want!r}",
            )


def as_arrays(tap_map):
    ls = sorted(tap_map)
    return np.array(ls), np.array([tap_map[l] for l in ls], dtype=float)


# -- spectrum and zeros ---------------------------------------------------------


def _ce(A, x):
    m = 2 * np.arange(len(A)) + 1
    return np.cos(np.multiply.outer(np.asarray(x, dtype=float), m)) @ A


def spectrum(nu, q, omegas, H, G, qmf):
    """Closed-form transfers and the power-complementarity residual, via scipy."""
    n = len(omegas)
    _close("omega grid", omegas, 2.0 * math.pi * np.arange(n) / n, 1e-14)
    A = scipy_coeffs(nu, q)
    om = 2.0 * math.pi * np.arange(n) / n
    ce0 = float(np.sum(A))
    ref_H = -np.exp(-0.5j * nu * om) * _ce(A, om / 2.0) / ce0
    ref_G = np.exp(0.5j * (nu - 2) * (om - math.pi)) * _ce(A, (om - math.pi) / 2.0) / ce0
    H_shift = -np.exp(-0.5j * nu * (om + math.pi)) * _ce(A, (om + math.pi) / 2.0) / ce0
    ref_qmf = np.abs(np.abs(ref_H) ** 2 + np.abs(H_shift) ** 2 - 1.0)
    scale = max(1.0, float(np.max(np.abs(ref_H))))
    _close(f"H ({nu},{q})", H, ref_H, 1e-10 * scale)
    _close(f"G ({nu},{q})", G, ref_G, 1e-10 * scale)
    _close(f"qmf residual ({nu},{q})", qmf, ref_qmf, 1e-9 * scale * scale)


def scipy_zero_count(nu, q, lo, hi, n=4096):
    """Zeros of scipy's ce_nu on [lo, hi): sign changes on a staggered grid,
    plus ``lo`` itself when ce vanishes there."""
    x = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    f = mathieu_cem(nu, q, np.degrees(x))[0]
    count = int(np.count_nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0))
    at_lo = float(mathieu_cem(nu, q, math.degrees(lo))[0])
    if abs(at_lo) <= 1e-9 * float(np.max(np.abs(f))):
        count += 1
    return count


def zero_counts(nu, q, zeros_h, zeros_g, zeros_ce):
    """|H|, |G| and ce each have nu zeros, as scipy's ce sign changes show."""
    ref_h = scipy_zero_count(nu, q, 0.0, math.pi)
    ref_g = scipy_zero_count(nu, q, -math.pi / 2.0, math.pi / 2.0)
    _require(ref_h == ref_g == nu, f"scipy ce zero counts ({nu},{q}): {ref_h}, {ref_g}")
    for name, got in (("|H|", zeros_h), ("|G|", zeros_g), ("ce", zeros_ce)):
        _require(got == nu, f"{name} zeros ({nu},{q}): {got} != {nu}")


# -- cascade ----------------------------------------------------------------------


def _refinement_spectra(h_idx, h_val, g_idx, g_val, iterations, n):
    """DFT samples (n points) of the depth-``iterations`` refinement iterate V
    and of the detail samples V(w) Q(2^J w); P and Q carry the sqrt2 gain."""
    def dft(idx, val):
        pad = np.zeros(n)
        np.add.at(pad, idx % n, SQRT2 * val)
        return np.fft.fft(pad)

    P, Q = dft(h_idx, h_val), dft(g_idx, g_val)
    k = np.arange(n)
    V = np.ones(n, dtype=complex)
    for j in range(iterations):
        V *= P[(k << j) % n]
    return V, V * Q[(k << iterations) % n]


def cascade(nu, q, iterations, t, phi, psi, threshold=1e-10):
    """phi and psi at their dyadic nodes against the inverse FFT of
    prod_j P(2^j w) (and of its product with Q(2^J w) for psi)."""
    ref_h, ref_g, _ = reference_taps(nu, q, threshold, True)
    h_idx, h_val = as_arrays(ref_h)
    g_idx, g_val = as_arrays(ref_g)
    J = iterations
    dil = 2 ** J
    s_phi = int(h_idx[0]) * (dil - 1)
    n_phi = int(h_idx[-1] - h_idx[0]) * (dil - 1) + 1
    s_psi = s_phi + int(g_idx[0]) * dil
    n_psi = n_phi + int(g_idx[-1] - g_idx[0]) * dil
    n = 1 << int(math.ceil(math.log2(n_psi)))
    V, W = _refinement_spectra(h_idx, h_val, g_idx, g_val, J, n)
    ref_phi = np.fft.ifft(V).real[(s_phi + np.arange(n_phi)) % n]
    ref_psi = np.fft.ifft(W).real[(s_psi + np.arange(n_psi)) % n]

    t = np.asarray(t, dtype=float)
    for name, got, ref, start, scale in (
        ("phi", phi, ref_phi, s_phi, dil),
        ("psi", psi, ref_psi, s_psi, 2 * dil),
    ):
        pos = t * scale
        node = np.abs(pos - np.round(pos)) <= 1e-9
        _require(np.any(node), f"{name} ({nu},{q}): no dyadic nodes on the output grid")
        k = np.round(pos[node]).astype(np.int64) - start
        _require(
            k[0] <= 0 and k[-1] >= len(ref) - 1,
            f"{name} ({nu},{q}): output grid misses part of the support",
        )
        inside = (k >= 0) & (k < len(ref))
        want = np.zeros(k.size)
        want[inside] = ref[k[inside]]
        tol = 1e-9 * max(1.0, float(np.max(np.abs(ref))))
        _close(f"{name} at dyadic nodes ({nu},{q})", np.asarray(got)[node], want, tol)


# -- periodic transform -------------------------------------------------------------


def _circular(x, idx, val, adjoint):
    """sum_l val_l x[(m + l) mod n] (analysis correlation), or its adjoint
    sum_l val_l x[(m - l) mod n], through the real FFT."""
    n = x.size
    pad = np.zeros(n)
    np.add.at(pad, idx % n, val)
    F = np.fft.rfft(pad)
    return np.fft.irfft(np.fft.rfft(x) * (F if adjoint else np.conj(F)), n)


def synthesis(approx, details, h, g):
    """Reference adjoint: upsample by two, then circular convolution."""
    x = np.asarray(approx, dtype=float)
    for d in reversed(details):
        up_a = np.zeros(2 * x.size)
        up_d = np.zeros(2 * x.size)
        up_a[::2] = x
        up_d[::2] = d
        x = _circular(up_a, *h, adjoint=True) + _circular(up_d, *g, adjoint=True)
    return x


def forward(x, h, g, levels, approx, details):
    """``approx`` and ``details`` match FFT correlation and decimation."""
    _require(len(details) == levels, f"forward: {len(details)} detail bands, want {levels}")
    cur = np.asarray(x, dtype=float)
    for lev in range(levels):
        tol = 1e-10 * max(1.0, float(np.max(np.abs(cur))))
        _close(f"d{lev + 1}", details[lev], _circular(cur, *g, adjoint=False)[::2], tol)
        cur = _circular(cur, *h, adjoint=False)[::2]
    _close(f"a{levels}", approx, cur, 1e-10 * max(1.0, float(np.max(np.abs(cur)))))


def inverse(approx, details, h, g, y, original=None):
    """``y`` is the FFT adjoint of the bands; at q = 0 it is ``original``."""
    ref = synthesis(approx, details, h, g)
    _close("inverse vs FFT adjoint", y, ref, 1e-10 * max(1.0, float(np.max(np.abs(ref)))))
    if original is not None:
        x = np.asarray(original, dtype=float)
        _close("q=0 reconstruction", y, x, 1e-10 * max(1.0, float(np.max(np.abs(x)))))


# -- oracle ---------------------------------------------------------------------------


def shooting(nu, q, a_shoot):
    ref = float(mathieu_a(nu, q))
    _require(abs(a_shoot - ref) <= 1e-8, f"shooting a_{nu}({q}): {a_shoot!r} vs scipy {ref!r}")


def trajectory(nu, q, grid, y, sup_gap):
    """The even trajectory vanishes at pi/2, follows scipy's ce/ce(0) within
    1e-7, and ``sup_gap`` is that distance measured through the series."""
    grid = np.asarray(grid, dtype=float)
    y = np.asarray(y, dtype=float)
    mid = (len(grid) - 1) // 2
    _require(
        len(grid) % 2 == 1 and abs(grid[mid] - math.pi / 2.0) <= 1e-12,
        "trajectory grid has no node at pi/2",
    )
    _require(abs(y[mid]) <= 1e-9, f"trajectory ({nu},{q}) at pi/2: {y[mid]:.3e}")
    ce = mathieu_cem(nu, q, np.degrees(grid))[0] / mathieu_cem(nu, q, 0.0)[0]
    gap = float(np.max(np.abs(ce - y)))
    _require(gap <= 1e-7, f"trajectory ({nu},{q}) vs scipy ce: {gap:.3e}")
    _require(abs(sup_gap - gap) <= 1e-9, f"compare ({nu},{q}): {sup_gap:.3e} vs {gap:.3e}")
