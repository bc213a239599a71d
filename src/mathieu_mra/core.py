"""Odd-order periodic Mathieu eigenproblem and first-kind function evaluation.

The even (cosine) and odd (sine) 2*pi-periodic solutions of

    y'' + (a - 2 q cos 2x) y = 0

of odd order nu are expanded in odd harmonics, y = sum_m c_m cos(m x) or
sum_m c_m sin(m x) with m = 1, 3, 5, ...  The three-term recurrence among
the harmonic coefficients is a symmetric tridiagonal operator, so the
characteristic value a_nu(q) (resp. b_nu(q)) and the coefficient vector
come out of one symmetric eigensolve, ``numpy.linalg.eigh`` on the dense
operator.  Its Householder reduction leaves tridiagonal input unchanged,
and it ends in the same divide-and-conquer LAPACK solver (?stedc) as a
tridiagonal solve.  One solve per harmonic count: the count doubles until
the eigenvector's last coefficient has decayed below ``TAIL_DECAY`` of its
largest, which alone bounds the eigenvalue's truncation error.  The numbers
of the last few solves are cached per (kind, nu, q), -0.0 and 0.0 apart;
every call still returns its own EigenSolution.

The series are summed by Clenshaw's recurrence on the odd Chebyshev series
they equal, in one plain loop for scalars and arrays that gives bit for
bit what numpy's ``chebval`` gives; numpy's Chebyshev module still finds
the roots for the zero count.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import chebyshev

MAX_HARMONICS = 2 ** 11  # the dense operator is at most 32 MB
TAIL_DECAY = 1e-14
IMAG_TOL = 1e-6  # imaginary part below which a Chebyshev root counts as real


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to converge."""


@dataclass(frozen=True)
class MathieuParams:
    """Parameter pair: odd characteristic exponent nu and intensity q.

    Negative q is accepted (the odd-kind solve at -q is needed downstream
    for the detail-filter magnitude identity).
    """

    nu: int
    q: float

    def __post_init__(self):
        if self.nu < 1 or self.nu % 2 == 0:
            raise ValueError(f"nu must be odd and >= 1, got {self.nu}")
        if not math.isfinite(self.q):
            raise ValueError("q must be finite")


@dataclass(frozen=True)
class EigenSolution:
    """One periodic eigensolution: characteristic value plus harmonic coefficients.

    ``coeffs[k]`` multiplies cos((2k+1) x) for kind ``"even-ce"`` and
    sin((2k+1) x) for kind ``"odd-se"``.  The vector has unit Euclidean
    norm; the global sign is fixed so that the value at 0 (even kind) or
    the slope at 0 (odd kind) is positive.
    """

    kind: str
    nu: int
    q: float
    a: float
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    @property
    def truncation_order(self):
        """Number of harmonics kept, ``len(coeffs)``."""
        return len(self.coeffs)

    def harmonics(self):
        """Odd harmonic indices 1, 3, ..., 2N-1 matching ``coeffs``."""
        return 2 * np.arange(len(self.coeffs)) + 1

    @cached_property
    def _zero_count(self):
        """count_function_zeros of ``coeffs``, refused unless it is nu
        (oscillation theorem).  Cached: ``coeffs`` is read-only and the
        dataclass frozen, so it cannot go stale; a refusal raises
        ConvergenceError and is not cached, so every read raises again."""
        n = count_function_zeros(self.coeffs)
        if n != self.nu:
            raise ConvergenceError(f"zero count {n} is not nu={self.nu} (q={self.q})")
        return n


def _initial_order(nu, q):
    return max(25, nu + math.ceil(2.0 * math.sqrt(abs(q))) + 10)


def _solve(kind, params):
    q = float(params.q)
    a, vec = _eigenpair(kind, params.nu, q, math.copysign(1.0, q))
    return EigenSolution(kind, params.nu, q, a, vec)


@lru_cache(maxsize=4)
def _eigenpair(kind, nu, q, q_sign):
    """(a, coeffs) of one solve, the coefficients read-only.

    Cached for the last few designs, so a shot after the design's own solve
    (``shoot_even(nu, q)`` without a bracket) does not solve it again;
    ``q_sign`` keys the cache only, as -0.0 and 0.0 hash alike.  A refused
    solve raises ConvergenceError and is not cached.
    """
    index = (nu - 1) // 2
    n = 2 * _initial_order(nu, q)
    while True:
        if n > MAX_HARMONICS:
            raise ConvergenceError(
                f"eigensolve did not converge below {MAX_HARMONICS} harmonics "
                f"(nu={nu}, q={q})"
            )
        m = 2.0 * np.arange(n) + 1.0
        op = np.diag(m * m)
        op[0, 0] += q if kind == "even-ce" else -q
        op[np.arange(1, n), np.arange(n - 1)] = q  # eigh reads the lower triangle
        w, v = np.linalg.eigh(op)
        a = float(w[index])
        vec = v[:, index].copy()
        # Zero-padded, vec leaves a residual in the infinite operator only in
        # row n, q vec[-1]: a small tail bounds the error in a as well.
        if abs(vec[-1]) < TAIL_DECAY * np.max(np.abs(vec)):
            break
        n *= 2
    # The value (even kind) or slope (odd kind) at 0, summed exactly as
    # value_at_zero and slope_at_zero sum it, so their sign is the one fixed here.
    if _series("even-ce", vec if kind == "even-ce" else m * vec, 0.0) < 0:
        vec = -vec
    vec.setflags(write=False)
    return a, vec


def solve_even(params):
    """Even 2*pi-periodic solution of order nu: a_nu(q) and cosine coefficients.

    The tridiagonal operator has diagonal (1+q, 9, 25, ...) and constant
    off-diagonal q; a_nu(q) is its ((nu+1)/2)-th smallest eigenvalue.  The
    solve starts at 2 max(25, nu + ceil(2 sqrt|q|) + 10) harmonics and
    doubles the count, one eigensolve per count, until the last coefficient
    is below ``TAIL_DECAY`` (1e-14) of the largest; ConvergenceError past
    ``MAX_HARMONICS``.
    """
    return _solve("even-ce", params)


def solve_odd(params):
    """Odd 2*pi-periodic solution of order nu: b_nu(q) and sine coefficients.

    Same operator as :func:`solve_even` except the first diagonal entry is
    (1 - q), the sign flip the sine series produces in its first recurrence
    row.
    """
    return _solve("odd-se", params)


def _chebyshev(coeffs):
    f = np.zeros(2 * len(coeffs))
    f[1::2] = coeffs
    return f


def _series(kind, coeffs, x):
    """Clenshaw sum of sum_k coeffs[k] cos((2k+1) x) ("even-ce") or sin((2k+1) x),
    as cos((2k+1) x) = T_{2k+1}(cos x) and sin((2k+1) x) = (-1)^k T_{2k+1}(sin x).

    Clenshaw's recurrence on that odd Chebyshev series (numpy's ``chebval``
    on it, bit for bit) takes two steps per odd harmonic, one of them with a
    zero coefficient, fused here into one.  Scalar x gives a float.
    """
    c = coeffs.tolist()
    if kind == "even-ce":
        t = np.cos(x)
    else:
        c[1::2] = [-ck for ck in c[1::2]]
        t = np.sin(x)
    if np.ndim(t) == 0:
        t = float(t)
    if len(c) == 1:
        return 0.0 + c[0] * t
    t2 = 2.0 * t
    b0 = c[-2] - c[-1]
    b1 = 0.0 + c[-1] * t2
    for ck in c[-3::-1]:
        # chebval's steps at the zero coefficient and at ck, fused:
        # u = b0 + b1 t2, b0 = ck - u, b1 = u t2 - b1 (augmented assignments
        # update arrays in place and rebind floats).  chebval's b1 is
        # (0 - b1) + u t2, which differs only in the sign of a zero (b1 = +0,
        # u t2 = -0); the two then agree as real numbers, and the last line
        # turns a zero of either sign into +0, so no result bit moves.
        u = b1 * t2
        u += b0
        b0 = ck - u
        u *= t2
        u -= b1
        b1 = u
    return (0.0 - b1) + (b0 + b1 * t2) * t


def evaluate(sol, x):
    """Evaluate the harmonic series at x (scalar or array) by Clenshaw's
    recurrence on its odd Chebyshev series in cos x (even) or sin x (odd)."""
    return _series(sol.kind, sol.coeffs, x)


def evaluate_derivative(sol, x):
    """d/dx of :func:`evaluate` at x: a sine series with coefficients -m c_m
    for the even kind, a cosine series with m c_m for the odd kind."""
    m = sol.harmonics()
    if sol.kind == "even-ce":
        return _series("odd-se", -m * sol.coeffs, x)
    return _series("even-ce", m * sol.coeffs, x)


def value_at_zero(sol):
    """The even solution's value at x=0 (> 0), exactly :func:`evaluate` at 0."""
    if sol.kind != "even-ce":
        raise ValueError("value_at_zero requires an even-ce solution")
    return _series(sol.kind, sol.coeffs, 0.0)


def slope_at_zero(sol):
    """Derivative at x=0 of an odd solution (> 0), exactly :func:`evaluate_derivative` at 0."""
    if sol.kind != "odd-se":
        raise ValueError("slope_at_zero requires an odd-se solution")
    return evaluate_derivative(sol, 0.0)


def recurrence_residual(sol):
    """Max residual of the three-term coefficient recurrence (0 for exact data).

    Out-of-range coefficients are treated as 0; the first row carries the
    extra -/+ q c_1 term of the even/odd series.
    """
    c = sol.coeffs
    m = sol.harmonics().astype(float)
    up = np.concatenate([c[1:], [0.0]])
    down = np.concatenate([[0.0], c[:-1]])
    r = (sol.a - m * m) * c - sol.q * (down + up)
    if sol.kind == "even-ce":
        r[0] -= sol.q * c[0]
    else:
        r[0] += sol.q * c[0]
    return float(np.max(np.abs(r)))


def find_root(f, bracket, tol):
    """Root of scalar f in ``bracket`` = (lo, hi), whose ends f must not
    share a sign: the midpoint of a sign-changing interval no wider than ``tol``.

    f is first evaluated at the ends of the pair centre -/+ tol/2, narrowed
    by one float spacing per side while rounding leaves it wider than tol.
    If f changes sign across it or vanishes at an end, its midpoint is
    returned: a bracket centred on an estimate of the root, as a shot's
    default bracket is, costs two evaluations.  Otherwise f is evaluated at
    lo and hi, and bisection runs on the side of the pair where f changes
    sign (37 evaluations in all for a width-1 bracket at tol 1e-10).  The
    pair is skipped when the bracket is no wider than tol or the pair
    rounds to one point or onto an end, which would be evaluated again.
    A tol that is not finite and > 0, or lo > hi, raises ValueError before
    f is evaluated; so does a NaN value of f, which has no sign.  Infinite
    values are signs like any other.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if not lo <= hi:
        raise ValueError(f"bracket ({lo:.6g}, {hi:.6g}) must have lo <= hi")

    def f_signed(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"f({x!r}) is NaN")
        return fx

    mid = 0.5 * (lo + hi)
    left, right = mid - 0.5 * tol, mid + 0.5 * tol
    while right - left > tol:  # rounding at |mid| >> tol
        left, right = math.nextafter(left, mid), math.nextafter(right, mid)
    pair = hi - lo > tol and lo < left < right < hi
    if pair:
        f_left, f_right = f_signed(left), f_signed(right)
        if f_left <= 0.0 <= f_right or f_right <= 0.0 <= f_left:
            return 0.5 * (left + right)
    flo, fhi = f_signed(lo), f_signed(hi)
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change in bracket ({lo:.6g}, {hi:.6g})")
    # Every lo that follows keeps flo's sign, so flo is not updated.
    if pair:
        lo, hi = (right, hi) if (f_left > 0.0) == (flo > 0.0) else (lo, left)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            if hi - lo > 16 * tol:
                raise ConvergenceError("root bracket stagnated before reaching tol")
            break
        fx = f_signed(mid)
        if fx == 0.0:
            return mid
        lo, hi = (mid, hi) if (fx > 0.0) == (flo > 0.0) else (lo, mid)
    return 0.5 * (lo + hi)


def count_function_zeros(coeffs):
    """Number of zeros on [0, pi) of sum_k coeffs[k] cos((2k+1) x).

    With c = cos x, cos((2k+1) x) = T_{2k+1}(c), so the series is f(cos x)
    for the odd Chebyshev series f(c) = c P(c), with P even and
    P(0) = f'(0).  The factor c gives the zero x = pi/2, and each root r of
    P in (0, 1] the two zeros arccos(r) and arccos(-r): 2k + 1 zeros for k
    such roots.  The candidates are the real roots of P in (0, 1], the
    eigenvalues of its colleague matrix.  The count is certified only if P
    changes sign exactly k times across 0, the midpoints between sorted
    candidates and 1, and is zero at none of them.  Otherwise (a double
    root, a root pair round-off blurs, a zero at x = 0 or pi/2)
    ConvergenceError is raised; there is no fallback.
    """
    a = np.asarray(coeffs, dtype=float)
    scale = np.max(np.abs(a))
    if scale == 0.0:
        raise ConvergenceError("zero count of an identically zero series")
    f = _chebyshev(a[: np.nonzero(np.abs(a) >= 1e-16 * scale)[0][-1] + 1])
    P, _ = chebyshev.chebdiv(f, [0.0, 1.0])
    roots = chebyshev.chebroots(P)
    # Round-off splits a double root into two roots about sqrt(eps) apart,
    # possibly off the real axis; keeping near-real ones as candidates lets
    # the certificate reject the pair.
    roots = np.sort(roots[np.abs(roots.imag) <= IMAG_TOL].real)
    cand = roots[(roots > 0.0) & (roots <= 1.0)]
    probes = np.concatenate([[0.0], 0.5 * (cand[1:] + cand[:-1]), [1.0]])
    signs = np.sign(chebyshev.chebval(probes, P))
    if np.any(signs == 0.0) or np.count_nonzero(signs[1:] != signs[:-1]) != len(cand):
        raise ConvergenceError(
            f"zero count not certified: {len(cand)} Chebyshev roots in (0, 1] "
            "without a matching sign change each"
        )
    return 2 * len(cand) + 1


def count_zeros(sol):
    """Number of zeros of an even solution on one half period [0, pi).

    An order-nu even solution has exactly nu zeros there (oscillation
    theorem); the count is :func:`count_function_zeros` of its coefficients,
    and any other count raises ConvergenceError.  The count is made once
    per solution, kept on it, and shared with
    :func:`~mathieu_mra.filterbank.count_transfer_zeros`; a refused count
    is not kept, so every call raises.
    """
    if sol.kind != "even-ce":
        raise ValueError("count_zeros requires an even-ce solution")
    return sol._zero_count
