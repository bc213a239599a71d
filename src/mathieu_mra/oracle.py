"""Independent validation path: direct integration of the Mathieu ODE.

A fixed-step 5th-order Runge-Kutta scheme integrates

    y'' + (a - 2 q cos 2z) y = 0

and characteristic values are certified by shooting on the quarter-period
boundary condition, independently of the tridiagonal eigensolve of
:mod:`mathieu_mra.core`.  A shot first integrates at the two ends of the
tol-wide interval around its bracket's centre; the default bracket is
centred on the matrix eigenvalue, so two integrations usually show a sign
change there and certify the centre to within tol/2.  Only when they do not
does the generic scalar root finder (ITP, which brackets the root like
bisection) search the whole bracket.  Either way the value returned is the
midpoint of an interval no wider than tol across which the integration
changes sign.

The scheme is Dormand-Prince with its step held fixed.  Because the ODE is
linear in x = (y, y'), each step is exactly x_{i+1} = (I + E_i) x_i and its
embedded error estimate is D_i x_i, with 2x2 matrices E_i and D_i built
from the seven stage matrices and a table of 2 q cos 2(z + c_s h) that does
not depend on a.  :func:`integrate` builds these matrices with numpy for
blocks of ``_BLOCK`` steps, so a quarter-period shot at the default step is
one block.  It gets the block's states from a two-level prefix-product scan
(Blelloch 1990) started at the state carried over from the previous block:
sequential products within chunks of ``_CHUNK`` steps, all chunks at once,
a log-depth Hillis-Steele scan over the chunk totals only, and one pass
that applies to each chunk the product of the chunks before it.  Every
step's error estimate is checked before the next block.  The cos table is
cached per (q, step, block), so the integrations of one shot build it once.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    MathieuParams,
    evaluate,
    find_root,
    root_bracket,
    slope_at_zero,
    solve_even,
    solve_odd,
    value_at_zero,
)

DEFAULT_STEP = math.pi / 4096

# Dormand-Prince 5th-order stage coefficients; the embedded 4th-order
# weights drive the local-error refusal check only (the step stays fixed).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])

# Steps per block of the transfer-matrix scan: a quarter-period run at
# DEFAULT_STEP is one block.  A block's stage matrices take ~0.5 MB and its
# cached cos table ~0.11 MB, and a refused step ends the run at the end of
# its block.
_BLOCK = 2048
# Steps multiplied in sequence within each chunk of the two-level scan.
_CHUNK = 8
# StepSizeError's search for a passing step gives up beyond this many steps,
# which bounds its trial runs' memory to ~16 MB.
_HINT_MAX_STEPS = 1 << 20


class StepSizeError(ConvergenceError):
    """The requested fixed step is too coarse for the local-error bound."""


@dataclass(frozen=True)
class Trajectory:
    """Sampled ODE solution on a uniform grid starting at z=0."""

    grid: np.ndarray
    y: np.ndarray
    yprime: np.ndarray
    a: float
    q: float
    step: float

    def __post_init__(self):
        self.grid.setflags(write=False)
        self.y.setflags(write=False)
        self.yprime.setflags(write=False)


def integrate(a, q, y0, yprime0, z_end, step=DEFAULT_STEP, max_local_error=1e-9):
    """Fixed-step 5th-order Runge-Kutta solution from z=0 to z_end.

    Deterministic: the step count is round(z_end/step) and the actual step
    z_end/n is stored on the returned trajectory.  Raises
    :class:`StepSizeError` if the embedded error estimate of any step
    exceeds ``max_local_error``; its message names a step at which a whole
    run passes.  Raises :class:`ConvergenceError` if the trajectory becomes
    non-finite.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if z_end <= 0.0:
        raise ValueError("z_end must be positive")
    n = max(1, round(z_end / step))
    h = z_end / n
    x, err = _march(a, q, y0, yprime0, h, n, max_local_error)
    if x is None:
        raise StepSizeError(
            f"step {h:.6g} too large: local error {err:.3e} exceeds "
            f"{max_local_error:.3e}; "
            + _sufficient_step(a, q, y0, yprime0, z_end, n, err, max_local_error)
        )
    if not np.all(np.isfinite(x)):
        raise ConvergenceError("trajectory blew up (non-finite samples)")
    return Trajectory(np.linspace(0.0, z_end, n + 1), x[0], x[1], float(a), float(q), h)


def _march(a, q, y0, yprime0, h, n, max_local_error):
    """States (y, y') after each of n steps of size h, block by block.

    Returns ``(x, None)`` with ``x`` of shape (2, n+1), or ``(None, err)``
    with the error estimate of the first step (in step order) whose estimate
    exceeds ``max_local_error``; no block after that step is computed.  A
    non-finite estimate means the trajectory has blown up and raises
    :class:`ConvergenceError`.  Overflow inside the step matrices is expected
    on such input and is not warned about.
    """
    x = np.empty((2, n + 1))
    x[:, 0] = y0, yprime0
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n, _BLOCK):
            nb = min(_BLOCK, n - i0)
            E, D = _step_matrices(a, q, h, i0, nb)
            Q = _prefix_products(E)
            start = x[:, i0]
            x[:, i0 + 1 : i0 + nb + 1] = start[:, None] + Q[:, 0] * start[0] + Q[:, 1] * start[1]
            before = x[:, i0 : i0 + nb]
            e = D[:, 0] * before[0] + D[:, 1] * before[1]
            err = np.maximum(np.abs(e[0]), np.abs(e[1]))
            refused = ~(err <= max_local_error)
            if refused.any():
                first = float(err[np.argmax(refused)])
                if not math.isfinite(first):
                    raise ConvergenceError("trajectory blew up (non-finite samples)")
                return None, first
    return x, None


def _step_matrices(a, q, h, i0, nb):
    """Increment and error matrices of steps i0 .. i0+nb-1, each (2, 2, nb).

    With x = (y, y') the ODE is x' = J(z) x, J = [[0, 1], [-w, 0]] and
    w(z) = a - 2 q cos 2z.  Stage s then has slope K_s x with
    K_s = J(z + c_s h) (I + h sum_j A_sj K_j), the step is x -> (I + E) x
    with E = h sum_s B5_s K_s, and its embedded error estimate is D x with
    D = h sum_s (B5_s - B4_s) K_s.  E is returned without the identity so
    that rounding 1 + O(h) does not bias every step alike.
    """
    w = a - _stage_table(q, h, i0, nb)
    K = np.empty((7, 2, 2, nb))
    flat = K.reshape(7, -1)
    for s in range(7):
        G = (h * _A[s, :s] @ flat[:s]).reshape(2, 2, nb)
        G[0, 0] += 1.0
        G[1, 1] += 1.0
        K[s, 0] = G[1]
        K[s, 1] = -w[s] * G[0]
    return (h * _B5 @ flat).reshape(2, 2, nb), (h * (_B5 - _B4) @ flat).reshape(2, 2, nb)


@functools.lru_cache(maxsize=4)
def _stage_table(q, h, i0, nb):
    """Read-only (7, nb) table of 2 q cos 2(z_i + c_s h), z_i = (i0 + i) h.

    It does not depend on a, so every integration of one shot shares it.
    The last two stages sit at the same point (c = 1), so that row is
    computed once.
    """
    z = (i0 + np.arange(nb)) * h
    table = 2.0 * q * np.cos(2.0 * (z + _C[:6, None] * h))
    table = table[[0, 1, 2, 3, 4, 5, 5]]
    table.setflags(write=False)
    return table


def _combine(later, earlier):
    """A + B + AB, the increment of (I + A)(I + B), for stacks of 2x2 increments."""
    return later + earlier + later[:, :1] * earlier[0] + later[:, 1:] * earlier[1]


def _prefix_products(E):
    """Q_i with I + Q_i = (I + E_i) ... (I + E_1)(I + E_0), for a (2, 2, m) stack.

    Two-level scan: the stack, padded with zero increments (identity steps)
    to whole chunks of ``_CHUNK`` steps, is multiplied in sequence within
    each chunk, all chunks at once.  A Hillis-Steele scan (one pass per
    doubling of the chunk count, each combining the totals with themselves
    shifted by d = 1, 2, 4, ...) turns the chunk totals into running
    products, and one pass applies to every chunk the running product of
    the chunks before it.
    """
    m = E.shape[-1]
    nc = -(-m // _CHUNK)
    Q = np.zeros((2, 2, nc, _CHUNK))
    Q.reshape(2, 2, -1)[..., :m] = E
    for j in range(1, _CHUNK):
        Q[..., j] = _combine(Q[..., j], Q[..., j - 1])
    T = Q[..., -1].copy()
    d = 1
    while d < nc:
        T[..., d:] = _combine(T[..., d:], T[..., :-d])
        d *= 2
    Q[:, :, 1:] = _combine(Q[:, :, 1:], T[:, :, :-1, None])
    return Q.reshape(2, 2, -1)[..., :m]


def _sufficient_step(a, q, y0, yprime0, z_end, n, err, max_local_error):
    """Message naming a step at which a whole run passes.

    Starts from the 5th-order estimate h (max_local_error/err)^(1/5) and,
    while a run is still refused, shrinks the step from that run's error.
    Every trial takes more steps than the refused run before it, so the
    search ends; it gives up beyond _HINT_MAX_STEPS steps.
    """
    candidate = (z_end / n) * (max_local_error / err) ** 0.2
    while True:
        if candidate * _HINT_MAX_STEPS < z_end:
            return (
                f"estimated step {candidate:.3e} needs over {_HINT_MAX_STEPS} steps "
                "and was not tried"
            )
        n = max(n + 1, round(z_end / candidate))
        x, err = _march(a, q, y0, yprime0, z_end / n, n, max_local_error)
        if x is not None:
            return f"use step <= {_step_text(z_end, n)}"
        candidate = 0.9 * (z_end / n) * (max_local_error / err) ** 0.2


def _step_text(z_end, n):
    """The step z_end/n printed with the fewest digits (at least 4) from which
    :func:`integrate` gets n steps back."""
    digits = 3
    while round(z_end / float(f"{z_end / n:.{digits}e}")) != n:
        digits += 1
    return f"{z_end / n:.{digits}e}"


def shoot_even(nu, q, bracket=None, tol=1e-10, step=DEFAULT_STEP):
    """Characteristic value of the even odd-order solution by shooting.

    The root of a -> y(pi/2) for the trajectory with y(0)=1, y'(0)=0; an
    even solution of odd order vanishes at the quarter period.  The default
    bracket is the matrix eigenvalue +/- 0.5.  Returns the bracket's centre
    when y(pi/2) changes sign within tol/2 of it (two integrations), and
    otherwise the result of ITP (:func:`mathieu_mra.core.find_root`) on the
    whole bracket.
    """
    return _shoot("even-ce", nu, q, bracket, tol, step)


def shoot_odd(nu, q, bracket=None, tol=1e-10, step=DEFAULT_STEP):
    """Characteristic value of the odd odd-order solution by shooting.

    The root of a -> y'(pi/2) for the trajectory with y(0)=0, y'(0)=1; an
    odd solution of odd order has a flat point at the quarter period.  The
    default bracket is the matrix eigenvalue +/- 0.5.  Returns the bracket's
    centre when y'(pi/2) changes sign within tol/2 of it (two integrations),
    and otherwise the result of ITP (:func:`mathieu_mra.core.find_root`) on
    the whole bracket.
    """
    return _shoot("odd-se", nu, q, bracket, tol, step)


def _shoot(kind, nu, q, bracket, tol, step):
    even = kind == "even-ce"
    if bracket is None:
        center = (solve_even if even else solve_odd)(MathieuParams(nu, q)).a
        bracket = (center - 0.5, center + 0.5)
    lo, hi = root_bracket(bracket, tol)
    y0, yprime0 = (1.0, 0.0) if even else (0.0, 1.0)

    def endpoint(a):
        traj = integrate(a, q, y0, yprime0, math.pi / 2, step=step)
        return traj.y[-1] if even else traj.yprime[-1]

    if hi - lo > tol:
        # find_root's answer, if the root lies within tol/2 of the centre.
        mid = 0.5 * (lo + hi)
        left, right = mid - 0.5 * tol, mid + 0.5 * tol
        while right - left > tol:  # rounding at |mid| >> tol
            left, right = math.nextafter(left, mid), math.nextafter(right, mid)
        f_left, f_right = endpoint(left), endpoint(right)
        if f_left <= 0.0 <= f_right or f_right <= 0.0 <= f_left:
            return 0.5 * (left + right)
    return find_root(endpoint, (lo, hi), tol)


def compare(sol, traj):
    """Sup-norm gap between the harmonic series and an ODE trajectory.

    The series is rescaled to match the trajectory's unit initial value
    (even kind) or unit initial slope (odd kind).  Raises ValueError when
    (a, q) or the initial conditions do not match the solution kind.
    """
    if abs(traj.q - sol.q) > 1e-12:
        raise ValueError("q mismatch between solution and trajectory")
    if abs(traj.a - sol.a) > 1e-6 * max(1.0, abs(sol.a)):
        raise ValueError("characteristic value mismatch between solution and trajectory")
    if sol.kind == "even-ce":
        if abs(traj.y[0] - 1.0) > 1e-12 or abs(traj.yprime[0]) > 1e-12:
            raise ValueError("trajectory initial conditions are not even-kind (1, 0)")
        scale = value_at_zero(sol)
    else:
        if abs(traj.y[0]) > 1e-12 or abs(traj.yprime[0] - 1.0) > 1e-12:
            raise ValueError("trajectory initial conditions are not odd-kind (0, 1)")
        scale = slope_at_zero(sol)
    series = evaluate(sol, traj.grid) / scale
    return float(np.max(np.abs(series - traj.y)))
