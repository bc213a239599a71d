import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C, polynomial as P
from scipy.linalg import eigh_tridiagonal
from scipy.special import mathieu_a, mathieu_b

import mathieu_mra as mm
from mathieu_mra import core

# Published characteristic values for the two showcase parameter pairs.
A_REF_3_3 = 9.915506290452134
A_REF_5_15 = 31.957821252172874

# Pinned by the fixed-step RK shooting oracle ahead of the eigensolver build.
A_1_1_SHOOTING = 1.8591080725434672
B_1_1_SHOOTING = -0.11024881702119901


def test_params_validation():
    mm.MathieuParams(1, 0.0)
    mm.MathieuParams(7, -3.5)
    with pytest.raises(ValueError):
        mm.MathieuParams(2, 1.0)
    with pytest.raises(ValueError):
        mm.MathieuParams(-1, 1.0)
    with pytest.raises(ValueError):
        mm.MathieuParams(3, math.inf)


@pytest.mark.parametrize("nu", [1, 3, 5])
def test_zero_intensity_reduces_to_pure_harmonic(nu):
    sol = mm.solve_even(mm.MathieuParams(nu, 0.0))
    assert abs(sol.a - nu ** 2) <= 1e-12
    unit = np.zeros_like(sol.coeffs)
    unit[(nu - 1) // 2] = 1.0
    assert np.max(np.abs(sol.coeffs - unit)) <= 1e-14

    odd = mm.solve_odd(mm.MathieuParams(nu, 0.0))
    assert abs(odd.a - nu ** 2) <= 1e-12
    assert np.max(np.abs(odd.coeffs - unit)) <= 1e-14


def test_published_characteristic_values():
    assert abs(mm.solve_even(mm.MathieuParams(3, 3.0)).a - A_REF_3_3) <= 1e-9
    assert abs(mm.solve_even(mm.MathieuParams(5, 15.0)).a - A_REF_5_15) <= 1e-9


def test_characteristic_value_against_shooting_golden():
    assert abs(mm.solve_even(mm.MathieuParams(1, 1.0)).a - A_1_1_SHOOTING) <= 1e-8
    assert abs(mm.solve_odd(mm.MathieuParams(1, 1.0)).a - B_1_1_SHOOTING) <= 1e-8


def test_odd_even_parity_identity():
    # b_nu(-q) = a_nu(q) for odd nu; confirmed against the even solve.
    b = mm.solve_odd(mm.MathieuParams(3, -3.0)).a
    a = mm.solve_even(mm.MathieuParams(3, 3.0)).a
    assert abs(b - a) <= 1e-9


def test_eigenvalue_ordering():
    q = 3.0
    a1 = mm.solve_even(mm.MathieuParams(1, q)).a
    a3 = mm.solve_even(mm.MathieuParams(3, q)).a
    a5 = mm.solve_even(mm.MathieuParams(5, q)).a
    assert a1 < a3 < a5


@pytest.mark.parametrize("nu,q", [(1, 1.0), (3, 3.0), (5, 15.0), (3, -2.0)])
def test_recurrence_residual_and_tail(nu, q):
    for solver in (mm.solve_even, mm.solve_odd):
        sol = solver(mm.MathieuParams(nu, q))
        peak = np.max(np.abs(sol.coeffs))
        assert mm.recurrence_residual(sol) <= 1e-10 * peak
        assert abs(sol.coeffs[-1]) < 1e-14 * peak


def test_evaluate_basics():
    s30 = mm.solve_even(mm.MathieuParams(3, 0.0))
    assert abs(mm.evaluate(s30, math.pi / 6)) <= 1e-14  # cos(pi/2)
    s33 = mm.solve_even(mm.MathieuParams(3, 3.0))
    assert mm.evaluate(s33, 0.0) > 0.0
    assert abs(mm.evaluate(s33, math.pi / 2)) <= 1e-10


def test_quarter_period_zero_matches_ode_trajectory():
    # Independent route: integrate to the quarter period at the matrix
    # eigenvalue and check the trajectory also lands on (nearly) zero.
    s33 = mm.solve_even(mm.MathieuParams(3, 3.0))
    traj = mm.integrate(s33.a, 3.0, 1.0, 0.0, math.pi / 2)
    assert abs(traj.y[-1]) <= 1e-9
    assert abs(mm.evaluate(s33, math.pi / 2)) <= 1e-10


def test_value_at_zero():
    s10 = mm.solve_even(mm.MathieuParams(1, 0.0))
    assert mm.value_at_zero(s10) == pytest.approx(1.0, abs=1e-14)
    s33 = mm.solve_even(mm.MathieuParams(3, 3.0))
    golden = 1.1585785757784151  # sum of eigenvector entries, pinned
    assert abs(mm.value_at_zero(s33) - golden) <= 1e-12
    assert mm.value_at_zero(s33) == mm.evaluate(s33, 0.0)
    with pytest.raises(ValueError):
        mm.value_at_zero(mm.solve_odd(mm.MathieuParams(1, 1.0)))


def test_slope_at_zero():
    o11 = mm.solve_odd(mm.MathieuParams(1, 1.0))
    assert mm.slope_at_zero(o11) > 0.0
    with pytest.raises(ValueError):
        mm.slope_at_zero(mm.solve_even(mm.MathieuParams(1, 1.0)))


@pytest.mark.parametrize(
    "nu,q,expected", [(1, 0.0, 1), (3, 3.0, 3), (5, 15.0, 5)]
)
def test_count_zeros(nu, q, expected):
    sol = mm.solve_even(mm.MathieuParams(nu, q))
    assert mm.count_zeros(sol) == expected


def test_count_zeros_rejects_odd_kind():
    with pytest.raises(ValueError):
        mm.count_zeros(mm.solve_odd(mm.MathieuParams(1, 1.0)))


def _odd_series(poly):
    """cos((2k+1)x) coefficients of the odd power series ``poly`` in c = cos x."""
    return C.poly2cheb(poly)[1::2]


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        # cos 41x: 20 roots of P in (0, 1], the last 7e-4 below c = 1.
        (np.eye(21)[20], 41),
        # c (c^2 - 1/4)(c^2 - 1/4 - 1e-3): a simple root pair 1e-3 apart at
        # c = 0.5, split by the midpoint probe.
        (_odd_series(P.polymul([0, 1], P.polymul([-0.25, 0, 1], [-0.251, 0, 1]))), 5),
        # c (c^2 - 1/4)^2: a double root, no sign change, so no count.
        (_odd_series(P.polymul([0, 1], P.polymul([-0.25, 0, 1], [-0.25, 0, 1]))),
         mm.ConvergenceError),
    ],
    ids=["cos41x", "pair-1e-3", "double-root"],
)
def test_count_function_zeros_certificate(coeffs, expected):
    if isinstance(expected, int):
        assert mm.count_function_zeros(coeffs) == expected
    else:
        with pytest.raises(expected):
            mm.count_function_zeros(coeffs)


def test_antiperiodicity():
    x = np.linspace(0.0, math.pi, 512, endpoint=False)
    for nu, q in ((3, 3.0), (5, 15.0), (1, 1.0)):
        sol = mm.solve_even(mm.MathieuParams(nu, q))
        res = np.max(np.abs(mm.evaluate(sol, x + math.pi) + mm.evaluate(sol, x)))
        assert res <= 1e-10


def test_q_to_zero_continuity():
    gaps = [abs(mm.solve_even(mm.MathieuParams(3, q)).a - 9.0) for q in (1.0, 0.1, 0.01, 0.001)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_orthogonality_of_distinct_orders():
    q = 3.0
    xg = 2.0 * math.pi * np.arange(4096) / 4096
    dx = 2.0 * math.pi / 4096
    sols = {nu: mm.solve_even(mm.MathieuParams(nu, q)) for nu in (1, 3, 5)}
    for nu, mu in ((1, 3), (1, 5), (3, 5)):
        inner = float(np.sum(mm.evaluate(sols[nu], xg) * mm.evaluate(sols[mu], xg)) * dx)
        assert abs(inner) <= 1e-8


def test_scale_invariance_of_normalised_evaluation():
    s33 = mm.solve_even(mm.MathieuParams(3, 3.0))
    scaled = mm.EigenSolution(s33.kind, s33.nu, s33.q, s33.a, s33.coeffs * 137.0)
    x = np.linspace(-2.0, 5.0, 211)
    r1 = mm.evaluate(s33, x) / mm.value_at_zero(s33)
    r2 = mm.evaluate(scaled, x) / mm.value_at_zero(scaled)
    assert np.max(np.abs(r1 - r2)) <= 1e-14


def test_growth_cap_raises():
    with pytest.raises(mm.ConvergenceError):
        mm.solve_even(mm.MathieuParams(1, 1e9))


def test_coefficients_immutable():
    sol = mm.solve_even(mm.MathieuParams(3, 3.0))
    with pytest.raises(ValueError):
        sol.coeffs[0] = 0.0


def _outer_evaluate(sol, x):
    """The N x M cos/sin basis-matrix form of evaluate, kept as a reference."""
    arg = np.outer(sol.harmonics(), x)
    basis = np.cos(arg) if sol.kind == "even-ce" else np.sin(arg)
    return np.sum(sol.coeffs[:, None] * basis, axis=0)


def _outer_evaluate_derivative(sol, x):
    m = sol.harmonics()
    arg = np.outer(m, x)
    if sol.kind == "even-ce":
        return np.sum((-m * sol.coeffs)[:, None] * np.sin(arg), axis=0)
    return np.sum((m * sol.coeffs)[:, None] * np.cos(arg), axis=0)


@pytest.mark.parametrize("nu,q", [(1, 0.0), (3, 3.0), (5, 15.0), (9, 30.0), (3, -20.0)])
@pytest.mark.parametrize("solver", [mm.solve_even, mm.solve_odd])
def test_clenshaw_matches_basis_matrix(solver, nu, q):
    sol = solver(mm.MathieuParams(nu, q))
    x = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 1001)
    bound = 1e-14 * np.sum(np.abs(sol.harmonics() * sol.coeffs))
    assert np.max(np.abs(mm.evaluate(sol, x) - _outer_evaluate(sol, x))) <= bound
    assert np.max(np.abs(
        mm.evaluate_derivative(sol, x) - _outer_evaluate_derivative(sol, x)
    )) <= bound
    assert isinstance(mm.evaluate(sol, 0.3), float)
    assert isinstance(mm.evaluate_derivative(sol, 0.3), float)


@pytest.mark.parametrize(
    "nu,q,certified", [(1, -200.0, True), (3, 300.0, True), (1, -400.0, False), (3, 700.0, False)]
)
def test_zero_count_refuses_what_oscillation_theorem_forbids(nu, q, certified):
    # Past these q, ce is below round-off near x = 0 (q >> 0) or pi/2
    # (q << 0) and the certified root count reads 3 at (1, -400) and 9 at
    # (3, 700); every count other than nu must raise instead.
    params = mm.MathieuParams(nu, q)
    sol = mm.solve_even(params)
    counts = (
        lambda: mm.count_zeros(sol),
        lambda: mm.count_transfer_zeros(params, sol, "H"),
        lambda: mm.count_transfer_zeros(params, sol, "G"),
    )
    for count in counts:
        if certified:
            assert count() == nu
        else:
            with pytest.raises(mm.ConvergenceError, match=f"nu={nu}"):
                count()


def test_one_zero_count_per_solution(monkeypatch):
    # count_zeros and both count_transfer_zeros share one certified count per
    # solution; a fresh solution counts again, and a refused count is never
    # kept, so each of its calls counts (and raises) again.
    runs = []
    original = core.count_function_zeros

    def counting(coeffs):
        runs.append(len(coeffs))
        return original(coeffs)

    monkeypatch.setattr(core, "count_function_zeros", counting)
    for nu, q in ((3, 3.0), (5, 15.0), (9, 30.0)):
        params = mm.MathieuParams(nu, q)
        for _ in range(2):
            sol = mm.solve_even(params)
            runs.clear()
            assert mm.count_zeros(sol) == nu
            assert mm.count_transfer_zeros(params, sol, "H") == nu
            assert mm.count_transfer_zeros(params, sol, "G") == nu
            assert mm.count_zeros(sol) == nu
            assert runs == [len(sol.coeffs)]
    params = mm.MathieuParams(1, -400.0)
    sol = mm.solve_even(params)
    runs.clear()
    for count in (
        lambda: mm.count_zeros(sol),
        lambda: mm.count_transfer_zeros(params, sol, "H"),
        lambda: mm.count_transfer_zeros(params, sol, "G"),
    ):
        with pytest.raises(mm.ConvergenceError, match="nu=1"):
            count()
    assert len(runs) == 3


# The reference loop's stop: the eigenvalue change between doublings below
# the larger of an absolute 1e-12 and 16 eps (|a| + 2|q|), on top of the tail.
REFERENCE_EIGEN_TOL = 1e-12
REFERENCE_ROUNDOFF = 16 * np.finfo(float).eps


def reference_solve(kind, params):
    """The doubling loop on scipy's tridiagonal eigensolver, kept as the
    reference for the dense ``numpy.linalg.eigh`` one: it solves at least
    twice and stops on the eigenvalue change as well as on the tail."""
    nu, q = params.nu, float(params.q)
    index = (nu - 1) // 2
    n = mm.core._initial_order(nu, q)
    prev_a = None
    while True:
        assert n <= mm.core.MAX_HARMONICS
        m = 2.0 * np.arange(n) + 1.0
        diag = m * m
        diag[0] += q if kind == "even-ce" else -q
        w, v = eigh_tridiagonal(diag, np.full(n - 1, q))
        a = float(w[index])
        vec = v[:, index].copy()
        tail_ok = abs(vec[-1]) < mm.core.TAIL_DECAY * np.max(np.abs(vec))
        tol = max(REFERENCE_EIGEN_TOL, REFERENCE_ROUNDOFF * (abs(a) + 2.0 * abs(q)))
        if prev_a is not None and abs(a - prev_a) < tol and tail_ok:
            break
        prev_a = a
        n *= 2
    if mm.core._series("even-ce", vec if kind == "even-ce" else m * vec, 0.0) < 0:
        vec = -vec
    return a, vec, n


def _assert_matches_reference(solver, params):
    kind = "even-ce" if solver is mm.solve_even else "odd-se"
    a, vec, n = reference_solve(kind, params)
    sol = solver(params)
    assert sol.truncation_order == n, params.q
    assert abs(sol.a - a) <= 1e-14 * abs(a), params.q
    assert np.max(np.abs(sol.coeffs - vec)) <= 1e-14, params.q


REFERENCE_QS = sorted(set(np.linspace(-40.0, 60.0, 101)) | {0.0, 0.5, 100.0, 200.0, 300.0, 500.0, 800.0})


@pytest.mark.parametrize("solver", [mm.solve_even, mm.solve_odd])
@pytest.mark.parametrize("nu", range(1, 14, 2))
def test_dense_eigh_matches_tridiagonal_reference(solver, nu):
    # Measured: identical bits on every design of the grid.
    for q in REFERENCE_QS:
        _assert_matches_reference(solver, mm.MathieuParams(nu, q))


@pytest.mark.parametrize(
    "solver,nu,q",
    [(mm.solve_even, 1, 1950.0), (mm.solve_even, 3, 1400.0), (mm.solve_even, 3, 1450.0),
     (mm.solve_even, 5, 1550.0), (mm.solve_even, 5, 1600.0),
     (mm.solve_odd, 1, 1900.0), (mm.solve_odd, 7, 1410.0)],
)
def test_stop_test_reachable_at_large_q(solver, nu, q):
    # Round-off keeps the eigenvalue change between doublings above 1e-12
    # here (at the odd two, above 16 ulp(a) as well): a stop on that change
    # once doubled the even five to the cap.  The tail test alone stops them.
    sol = solver(mm.MathieuParams(nu, q))
    reference = mathieu_a if solver is mm.solve_even else mathieu_b
    assert sol.truncation_order <= 512
    assert abs(sol.a - reference(nu, q)) <= 1e-14 * abs(sol.a)
    _assert_matches_reference(solver, mm.MathieuParams(nu, q))


@pytest.mark.parametrize("nu,q", [(3, 3.0), (5, 15.0), (9, 30.0), (3, 200.0), (1, 1950.0)])
@pytest.mark.parametrize("solver", [mm.solve_even, mm.solve_odd])
def test_one_eigensolve_per_solve(monkeypatch, solver, nu, q):
    calls = []
    eigh = np.linalg.eigh

    def counting(op):
        calls.append(len(op))
        return eigh(op)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    sol = solver(mm.MathieuParams(nu, q))
    assert calls == [sol.truncation_order]


@pytest.mark.parametrize("q", [3e5, 1e7])
def test_cap_raises_without_a_solve(monkeypatch, q):
    # 3e5 starts at 2214 harmonics, past the cap before any solve.
    def no_solve(*args):
        raise AssertionError("eigensolve called")

    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    with pytest.raises(mm.ConvergenceError, match="2048 harmonics"):
        mm.solve_even(mm.MathieuParams(1, q))


@pytest.mark.parametrize(
    "solver,nu,q",
    [(mm.solve_even, 1, 850.0), (mm.solve_even, 5, 1300.0), (mm.solve_even, 9, 1200.0),
     (mm.solve_odd, 3, 500.0)],
)
def test_sign_fixed_by_the_reported_sum_at_zero(solver, nu, q):
    # ce(0) and se'(0) are at round-off here; the sign was once fixed by the
    # eigenvector's plain sum, and the Clenshaw sum read ce(0) < 0.
    sol = solver(mm.MathieuParams(nu, q))
    at_zero = mm.value_at_zero if solver is mm.solve_even else mm.slope_at_zero
    assert at_zero(sol) > 0.0


def _counting(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


@pytest.mark.parametrize(
    "f, bracket, root",
    [
        (math.cos, (1.0, 2.0), math.pi / 2),
        (lambda x: 2.0 * x - 3.1, (1.0, 2.0), 1.55),
        (lambda x: 3.1 - 2.0 * x, (1.0, 2.0), 1.55),
    ],
)
@pytest.mark.parametrize("tol", [1e-10, 1e-4])
def test_find_root_within_tol(f, bracket, root, tol):
    assert abs(core.find_root(f, bracket, tol) - root) <= tol


def test_find_root_returns_zero_endpoint():
    assert core.find_root(lambda x: x - 1.0, (1.0, 2.0), 1e-10) == 1.0
    assert core.find_root(lambda x: x - 2.0, (1.0, 2.0), 1e-10) == 2.0


def test_find_root_rejects_bracket_without_sign_change():
    with pytest.raises(ValueError, match="sign change"):
        core.find_root(lambda x: x * x + 1.0, (-1.0, 1.0), 1e-10)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_find_root_rejects_bad_tol_before_evaluating(tol):
    g, calls = _counting(lambda x: x - 0.5)
    with pytest.raises(ValueError, match="tol"):
        core.find_root(g, (0.0, 1.0), tol)
    assert calls == []


def test_find_root_rejects_reversed_bracket_before_evaluating():
    g, calls = _counting(lambda x: x - 0.5)
    with pytest.raises(ValueError, match="lo <= hi"):
        core.find_root(g, (1.0, 0.0), 1e-10)
    assert calls == []


@pytest.mark.parametrize(
    "f",
    [
        lambda x: math.nan,
        lambda x: math.nan if x == 0.0 else x - 0.3,
        lambda x: math.nan if x == 1.0 else x - 0.3,
        lambda x: math.nan if 0.2 < x < 0.4 else x - 0.3,
    ],
    ids=["everywhere", "at-lo", "at-hi", "inside"],
)
def test_find_root_refuses_nan(f):
    # NaN has no sign: it once read as "same sign as hi" and the search went
    # on to return a "root" (0.9999999999708962 for f = NaN everywhere).
    g, calls = _counting(f)
    with pytest.raises(ValueError, match="is NaN") as refused:
        core.find_root(g, (0.0, 1.0), 1e-10)
    assert math.isnan(f(calls[-1]))
    assert str(refused.value) == f"f({calls[-1]!r}) is NaN"


@pytest.mark.parametrize(
    "f",
    [lambda x: -math.inf if x < 0.3 else 1.0, lambda x: -1.0 if x < 0.3 else math.inf],
    ids=["minus-inf", "plus-inf"],
)
def test_find_root_takes_infinities_as_signs(f):
    assert abs(core.find_root(f, (0.0, 1.0), 1e-10) - 0.3) <= 1e-10


@pytest.mark.parametrize(
    "f",
    [lambda x: -1.0 if x < 0.3 else 1.0, lambda x: (x - 0.3) ** 11],
    ids=["step", "power-11"],
)
def test_find_root_worst_case_evaluations(f):
    # Bisection takes 2 + ceil(log2(1e10)) = 36 evaluations here; ITP may
    # take one more (n0 = 1) plus one for round-off in the last width.
    g, calls = _counting(f)
    assert abs(core.find_root(g, (0.0, 1.0), 1e-10) - 0.3) <= 1e-10
    assert len(calls) <= 38
    assert all(0.0 <= x <= 1.0 for x in calls)


def test_find_root_stagnation_below_float_spacing():
    # Near 5.3 floats are 8.9e-16 apart: a bracket one spacing wide stops
    # the search; it is accepted within 16 tol and refused beyond.
    def step(x):
        return -1.0 if x < 5.3 else 1.0

    assert abs(core.find_root(step, (5.0, 6.0), 1e-16) - 5.3) <= 1e-15
    with pytest.raises(mm.ConvergenceError, match="stagnated"):
        core.find_root(step, (5.0, 6.0), 1e-20)


def test_find_root_never_repeats_an_evaluation():
    # tol sits below the float spacing near the root (1.4e-14 at 71.5): the
    # ITP point then rounds onto a bracket end, and evaluating it again
    # would gain nothing; the midpoint is taken instead.
    root = 71.50734860858427
    g, calls = _counting(lambda x: x - root)
    found = core.find_root(g, (70.5202750194906, 72.27640334453717), 1.1268363044630312e-14)
    assert abs(found - root) <= 2e-14
    assert len(calls) == len(set(calls))
