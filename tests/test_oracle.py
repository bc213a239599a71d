import math
import re
import warnings

import numpy as np
import pytest

import mathieu_mra as mm
from mathieu_mra import oracle

A_REF_3_3 = 9.915506290452134
A_REF_5_15 = 31.957821252172874

# Achieved series-vs-trajectory sup error for (3, 3), recorded from the
# step-matrix integrator (the scalar loop it replaced reached 1.25e-13).
COMPARE_3_3_GOLDEN = 1.3322676295501878e-15


def test_harmonic_oscillator_cosine():
    traj = mm.integrate(1.0, 0.0, 1.0, 0.0, math.pi)
    assert abs(traj.y[-1] + 1.0) <= 1e-8
    assert np.max(np.abs(traj.y - np.cos(traj.grid))) <= 1e-8


def test_harmonic_oscillator_sine():
    traj = mm.integrate(4.0, 0.0, 0.0, 2.0, math.pi / 4)
    assert abs(traj.y[-1] - 1.0) <= 1e-8  # sin(2z) at z = pi/4


def test_antiperiodic_branch_at_published_eigenvalue():
    traj = mm.integrate(A_REF_3_3, 3.0, 1.0, 0.0, math.pi)
    assert abs(traj.y[-1] + 1.0) <= 1e-6


def test_grid_shape_and_uniformity():
    traj = mm.integrate(1.0, 0.0, 1.0, 0.0, 1.0, step=0.01)
    assert traj.grid.shape == traj.y.shape == traj.yprime.shape
    steps = np.diff(traj.grid)
    assert np.max(np.abs(steps - traj.step)) <= 1e-15


# Scalar Dormand-Prince loop that ``integrate`` replaced with the
# transfer-matrix scan; kept as the reference the scan must reproduce.
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


def reference_integrate(a, q, y0, yprime0, z_end, step=mm.DEFAULT_STEP, max_local_error=1e-9):
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


@pytest.mark.parametrize(
    "nu, q, y0, yprime0, z_end",
    [
        (1, 0.0, 1.0, 0.0, math.pi),
        (3, 3.0, 1.0, 0.0, math.pi),
        (5, 15.0, 1.0, 0.0, math.pi),
        (9, 30.0, 1.0, 0.0, math.pi),
        (3, 3.0, 1.0, 0.0, mm.DEFAULT_STEP),  # a single step
        (5, 15.0, 0.0, 1.0, (oracle._CHUNK - 1) * mm.DEFAULT_STEP),  # one padded chunk
        (9, 30.0, 1.0, 0.0, (oracle._CHUNK + 1) * mm.DEFAULT_STEP),  # a chunk and one step
        (9, 30.0, 0.0, 1.0, (oracle._BLOCK - 1) * mm.DEFAULT_STEP),  # one block short a step
        (5, 15.0, 1.0, 0.0, (oracle._BLOCK + 1) * mm.DEFAULT_STEP),  # a block and one step
        (5, 15.0, 0.0, 1.0, (2 * oracle._BLOCK + 3) * mm.DEFAULT_STEP),  # two blocks and a remainder
    ],
)
def test_scan_matches_scalar_reference(nu, q, y0, yprime0, z_end):
    a = mm.solve_even(mm.MathieuParams(nu, q)).a
    traj = mm.integrate(a, q, y0, yprime0, z_end)
    ys, yps = reference_integrate(a, q, y0, yprime0, z_end)
    assert traj.y.shape == ys.shape
    assert np.array_equal(traj.grid, np.linspace(0.0, z_end, len(ys)))
    assert np.max(np.abs(traj.y - ys)) <= 1e-12 * np.max(np.abs(ys))
    assert np.max(np.abs(traj.yprime - yps)) <= 1e-12 * np.max(np.abs(yps))


@pytest.mark.parametrize("block", [64, 100])
@pytest.mark.parametrize("nu, q", [(5, 15.0), (9, 30.0)])
def test_scan_matches_scalar_reference_in_small_blocks(monkeypatch, block, nu, q):
    # Dozens of blocks, each carrying the state of the one before; 100 steps
    # are not a whole number of chunks, so every such block is padded.
    monkeypatch.setattr(oracle, "_BLOCK", block)
    test_scan_matches_scalar_reference(nu, q, 1.0, 0.0, math.pi)


@pytest.mark.parametrize("i0", [0, oracle._BLOCK])
def test_stage_table_is_read_only_and_bit_identical(monkeypatch, i0):
    q, h, nb = 15.0, mm.DEFAULT_STEP, oracle._BLOCK
    z = (i0 + np.arange(nb)) * h
    oracle._stage_table.cache_clear()
    table = oracle._stage_table(q, h, i0, nb)
    assert not table.flags.writeable
    assert np.array_equal(table, 2.0 * q * np.cos(2.0 * (z + oracle._C[:, None] * h)))
    cached = oracle._step_matrices(A_REF_5_15, q, h, i0, nb)
    monkeypatch.setattr(oracle, "_stage_table", oracle._stage_table.__wrapped__)
    uncached = oracle._step_matrices(A_REF_5_15, q, h, i0, nb)
    assert all(np.array_equal(c, u) for c, u in zip(cached, uncached))


@pytest.mark.parametrize("shoot", [mm.shoot_even, mm.shoot_odd])
@pytest.mark.parametrize("nu, q", [(3, 3.0), (5, 15.0), (9, 30.0)])
def test_one_stage_table_per_shot(shoot, nu, q):
    # The table does not depend on a, so all the shot's integrations share it.
    oracle._stage_table.cache_clear()
    shoot(nu, q)
    assert oracle._stage_table.cache_info().misses == 1


@pytest.mark.parametrize(
    "a, q, step",
    [
        (400.0, 0.0, 0.5),
        (400.0, 0.0, 0.2),
        (400.0, 0.0, 2e-3),
        (400.0, 0.0, 1.5e-3),
        (2000.0, 0.0, 0.1),
        (100.0, 0.0, 0.3),
        (100.0, 0.0, 5e-3),
        (100.0, 0.0, 3.5e-3),
        (A_REF_5_15, 15.0, 0.02),
        (A_REF_5_15, 15.0, mm.DEFAULT_STEP),
    ],
)
def test_step_refusal_matches_scalar_reference(a, q, step):
    def refused(f):
        try:
            f(a, q, 1.0, 0.0, math.pi, step=step)
        except mm.StepSizeError:
            return True
        return False

    assert refused(mm.integrate) == refused(reference_integrate)


def test_step_refusal_reports_requirement():
    # The suggested step must itself pass a whole run.
    for a, step in [(400.0, 0.5), (400.0, 0.2), (2000.0, 0.1), (100.0, 0.3)]:
        with pytest.raises(mm.StepSizeError, match="use step") as info:
            mm.integrate(a, 0.0, 1.0, 0.0, math.pi, step=step)
        suggested = float(re.search(r"use step <= (\S+)$", str(info.value)).group(1))
        assert suggested < step
        mm.integrate(a, 0.0, 1.0, 0.0, math.pi, step=suggested)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("margin", [1.2, 2.0])
def test_step_refusal_hint_refines_few_step_runs(n, margin):
    # Just over the bound, the 5th-order estimate rounds back to the refused
    # step count; the search must still take more steps, and end.
    h = 0.05
    _, err = oracle._march(400.0, 0.0, 1.0, 0.0, h, 1, 0.0)
    tol = err / margin
    with pytest.raises(mm.StepSizeError, match="use step") as info:
        mm.integrate(400.0, 0.0, 1.0, 0.0, n * h, step=h, max_local_error=tol)
    suggested = float(re.search(r"use step <= (\S+)$", str(info.value)).group(1))
    assert suggested < h
    mm.integrate(400.0, 0.0, 1.0, 0.0, n * h, step=suggested, max_local_error=tol)


def test_step_refusal_hint_gives_up_on_unreachable_tolerance():
    with pytest.raises(mm.StepSizeError, match="was not tried"):
        mm.integrate(1.0, 0.0, 1.0, 0.0, math.pi, step=0.5, max_local_error=1e-40)


@pytest.mark.parametrize("a", [math.nan, math.inf, 1e300])
def test_non_finite_trajectory_raises_without_warnings(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(mm.ConvergenceError, match="blew up"):
            mm.integrate(a, 0.0, 1.0, 0.0, math.pi)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        mm.integrate(1.0, 0.0, 1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        mm.integrate(1.0, 0.0, 1.0, 0.0, 1.0, step=0.0)


def test_halving_step_improves_by_fifth_order_margin():
    e_coarse = abs(mm.integrate(1.0, 0.0, 1.0, 0.0, math.pi, step=math.pi / 256).y[-1] + 1.0)
    e_fine = abs(mm.integrate(1.0, 0.0, 1.0, 0.0, math.pi, step=math.pi / 512).y[-1] + 1.0)
    assert e_coarse / e_fine >= 16.0


def test_shoot_even_trivial_and_published():
    assert abs(mm.shoot_even(1, 0.0) - 1.0) <= 1e-10
    assert abs(mm.shoot_even(3, 3.0) - A_REF_3_3) <= 1e-8
    assert abs(mm.shoot_even(5, 15.0) - A_REF_5_15) <= 1e-8


def test_shoot_matches_matrix_eigenvalue():
    a_mat = mm.solve_even(mm.MathieuParams(3, 3.0)).a
    assert abs(mm.shoot_even(3, 3.0) - a_mat) <= 1e-8
    b_mat = mm.solve_odd(mm.MathieuParams(1, 1.0)).a
    assert abs(mm.shoot_odd(1, 1.0) - b_mat) <= 1e-8


def _record_integrations(monkeypatch):
    """The a of every integration a shot runs from now on."""
    calls = []
    integrate = oracle.integrate

    def recorded(*args, **kwargs):
        calls.append(args[0])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(oracle, "integrate", recorded)
    return calls


def _endpoint(shoot, a, q):
    """The function a shot finds the root of: y(pi/2) or y'(pi/2)."""
    if shoot is mm.shoot_even:
        return mm.integrate(a, q, 1.0, 0.0, math.pi / 2).y[-1]
    return mm.integrate(a, q, 0.0, 1.0, math.pi / 2).yprime[-1]


def _matrix_value(shoot, nu, q):
    solve = mm.solve_even if shoot is mm.shoot_even else mm.solve_odd
    return solve(mm.MathieuParams(nu, q)).a


@pytest.mark.parametrize("nu, q", [(3, 3.0), (5, 15.0), (9, 30.0)])
def test_shoot_even_integrations(monkeypatch, nu, q):
    # The default bracket is centred on the matrix eigenvalue, which lies
    # within tol/2 of the root: two integrations certify it, where ITP took 7
    # and bisection to 1e-10 took 36.
    calls = _record_integrations(monkeypatch)
    a_shoot = mm.shoot_even(nu, q)
    assert len(calls) == 2
    assert abs(a_shoot - mm.solve_even(mm.MathieuParams(nu, q)).a) <= 1e-8


@pytest.mark.parametrize("nu, q", [(3, 3.0), (5, 15.0), (9, 30.0)])
def test_shoot_odd_integrations(monkeypatch, nu, q):
    calls = _record_integrations(monkeypatch)
    b_shoot = mm.shoot_odd(nu, q)
    assert len(calls) == 2
    assert abs(b_shoot - mm.solve_odd(mm.MathieuParams(nu, q)).a) <= 1e-8


@pytest.mark.parametrize("shoot", [mm.shoot_even, mm.shoot_odd])
@pytest.mark.parametrize("nu, q", [(1, 0.0), (3, 3.0), (5, 15.0), (7, 20.0), (1, -5.0)])
def test_centre_certified_by_a_sign_change_within_tol(monkeypatch, shoot, nu, q):
    # The two integrations are the ends of an interval no wider than tol
    # around the centre, across which the endpoint changes sign, and the shot
    # returns its midpoint.  At (5,15) and (7,20) centre -/+ tol/2 rounds to
    # an interval wider than tol, which the shot narrows.
    tol = 1e-10
    centre = _matrix_value(shoot, nu, q)
    calls = _record_integrations(monkeypatch)
    found = shoot(nu, q, tol=tol)
    monkeypatch.undo()
    left, right = calls
    assert right - left <= tol
    assert found == 0.5 * (left + right)
    assert abs(found - centre) <= tol
    for lo, hi in [(left, right), (found - tol / 2, found + tol / 2)]:
        assert _endpoint(shoot, lo, q) * _endpoint(shoot, hi, q) < 0.0
    if (nu, q) in [(5, 15.0), (7, 20.0)]:
        assert (centre + tol / 2) - (centre - tol / 2) > tol


@pytest.mark.parametrize("shoot", [mm.shoot_even, mm.shoot_odd])
@pytest.mark.parametrize("nu, q", [(3, 3.0), (5, 15.0)])
@pytest.mark.parametrize("offset", [0.2, -0.2])
def test_off_centre_bracket_falls_back_to_the_search(monkeypatch, shoot, nu, q, offset):
    # A centre 0.2 from the root fails the test, and ITP searches the whole
    # bracket; both results are midpoints of sign-changing brackets no wider
    # than tol, so they lie within tol of each other.
    tol = 1e-10
    centred = shoot(nu, q, tol=tol)
    centre = _matrix_value(shoot, nu, q) + offset
    calls = _record_integrations(monkeypatch)
    found = shoot(nu, q, bracket=(centre - 0.5, centre + 0.5), tol=tol)
    assert len(calls) > 4
    assert calls[2:4] == [centre - 0.5, centre + 0.5]
    assert abs(found - centred) <= tol


def test_bracket_narrower_than_tol_skips_the_centre_test(monkeypatch):
    # The certified interval of a centred shot at tol 1e-10 is a bracket
    # narrower than 4e-10: a shot at that tol evaluates only its ends (the
    # centre test would integrate 2e-10 either side of the centre) and
    # returns its midpoint.
    calls = _record_integrations(monkeypatch)
    found = mm.shoot_even(5, 15.0, tol=1e-10)
    left, right = calls
    calls.clear()
    assert mm.shoot_even(5, 15.0, bracket=(left, right), tol=4e-10) == found
    assert calls == [left, right]


def test_shoot_rejects_bracket_without_sign_change(monkeypatch):
    # Two integrations at the centre, two at the bracket's ends, then refusal.
    calls = _record_integrations(monkeypatch)
    for shoot in (mm.shoot_even, mm.shoot_odd):
        calls.clear()
        with pytest.raises(ValueError, match="no sign change"):
            shoot(1, 0.0, bracket=(20.0, 21.0))
        assert len(calls) == 4


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1e-10}, {"bracket": (1.0, 0.0)}])
def test_shoot_refuses_bad_tol_or_bracket_without_integrating(monkeypatch, kwargs):
    def no_integrate(*args, **kw):
        raise AssertionError("integrated before refusing the arguments")

    monkeypatch.setattr(oracle, "integrate", no_integrate)
    with pytest.raises(ValueError):
        mm.shoot_even(3, 3.0, **kwargs)


def test_compare_pure_cosine():
    sol = mm.solve_even(mm.MathieuParams(1, 0.0))
    traj = mm.integrate(1.0, 0.0, 1.0, 0.0, math.pi)
    assert mm.compare(sol, traj) <= 1e-9


def test_compare_showcase_against_golden():
    sol = mm.solve_even(mm.MathieuParams(3, 3.0))
    traj = mm.integrate(sol.a, 3.0, 1.0, 0.0, math.pi)
    err = mm.compare(sol, traj)
    assert err <= 1e-7
    assert err <= 10.0 * COMPARE_3_3_GOLDEN


def test_compare_odd_kind():
    sol = mm.solve_odd(mm.MathieuParams(1, 1.0))
    traj = mm.integrate(sol.a, 1.0, 0.0, 1.0, math.pi)
    assert mm.compare(sol, traj) <= 1e-7


def test_compare_rejects_mismatches():
    sol = mm.solve_even(mm.MathieuParams(3, 3.0))
    wrong_q = mm.integrate(sol.a, 2.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        mm.compare(sol, wrong_q)
    wrong_a = mm.integrate(sol.a + 0.1, 3.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        mm.compare(sol, wrong_a)
    wrong_ic = mm.integrate(sol.a, 3.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mm.compare(sol, wrong_ic)
