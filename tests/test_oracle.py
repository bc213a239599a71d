import math
import warnings

import numpy as np
import pytest

import mathieu_mra as mm
import reference
from mathieu_mra import cli, oracle

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
    ys, yps = reference.integrate(a, q, y0, yprime0, z_end)
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
    "n",
    [oracle._CHUNK - 1, oracle._CHUNK + 1, oracle._BLOCK - 1, oracle._BLOCK + 1, 2 * oracle._BLOCK + 3],
)
@pytest.mark.parametrize(
    "a, q, h",
    [
        (A_REF_5_15, 15.0, mm.DEFAULT_STEP),
        (A_REF_3_3, 3.0, mm.DEFAULT_STEP),
        (1.0, 0.0, mm.DEFAULT_STEP),  # a table of signed zeros
        (1.0, -0.0, mm.DEFAULT_STEP),
        (0.0, 0.0, mm.DEFAULT_STEP),  # w = a - table is a signed zero too
        (400.0, 0.0, 0.02),  # refused in the first block
    ],
)
def test_block_functions_match_references_bit_for_bit(a, q, h, n):
    for i0 in range(0, n, oracle._BLOCK):
        nb = min(oracle._BLOCK, n - i0)
        assert reference.bit_equal(oracle._stage_table(q, h, i0, nb), reference.stage_table(q, h, i0, nb))
        E, D = oracle._step_matrices(a, q, h, i0, nb)
        E_ref, D_ref = reference.step_matrices(a, q, h, i0, nb)
        assert reference.bit_equal(E, E_ref) and reference.bit_equal(D, D_ref)
        assert reference.bit_equal(oracle._prefix_products(E), reference.prefix_products(E))
    # n * h / n gives back h exactly here, so integrate runs the reference's steps.
    for y0, yprime0 in [(1.0, 0.0), (0.0, 1.0)]:
        x_ref, err_ref = reference.march(a, q, y0, yprime0, h, n, oracle.MAX_LOCAL_ERROR)
        if x_ref is None:
            with pytest.raises(mm.StepSizeError) as info:
                mm.integrate(a, q, y0, yprime0, n * h, step=h)
            assert str(info.value) == (
                f"step {h:.6g} too large: local error {oracle._shortest(err_ref)} "
                f"exceeds {oracle.MAX_LOCAL_ERROR:.3e}"
            )
        else:
            traj = mm.integrate(a, q, y0, yprime0, n * h, step=h)
            assert traj.step == h
            assert reference.bit_equal(np.stack([traj.y, traj.yprime]), x_ref)


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

    assert refused(mm.integrate) == refused(reference.integrate)


def _record_blocks(monkeypatch):
    """The (first step, step count) of every block run from now on."""
    calls = []
    block = oracle._block

    def recorded(a, q, h, x, i0, nb):
        calls.append((i0, nb))
        return block(a, q, h, x, i0, nb)

    monkeypatch.setattr(oracle, "_block", recorded)
    return calls


@pytest.mark.parametrize(
    "a, step, message",
    [
        (400.0, 0.5, "step 0.523599 too large: local error 9.473e+03 exceeds 1.000e-09"),
        (400.0, 0.2, "step 0.19635 too large: local error 3.096e+00 exceeds 1.000e-09"),
        (2000.0, 0.1, "step 0.101342 too large: local error 4.063e+00 exceeds 1.000e-09"),
        (100.0, 0.3, "step 0.314159 too large: local error 1.215e+00 exceeds 1.000e-09"),
    ],
)
def test_step_refusal_reports_requirement(monkeypatch, a, step, message):
    # The message names the step, the error read back above the bound and
    # the bound, and the refused block is the only one run.
    calls = _record_blocks(monkeypatch)
    with pytest.raises(mm.StepSizeError) as info:
        mm.integrate(a, 0.0, 1.0, 0.0, math.pi, step=step)
    assert str(info.value) == message
    assert float(message.split()[6]) > oracle.MAX_LOCAL_ERROR
    assert float(message.split()[-1]) == oracle.MAX_LOCAL_ERROR
    assert calls == [(0, round(math.pi / step))]


@pytest.mark.parametrize("nu, q", [(1, "400"), (15, "900"), (1, "-375")])
def test_refused_validate_marches_once(monkeypatch, capsys, nu, q):
    # The shot's first integration is refused and nothing looks for a step
    # that would pass: the refused block is the only one run.
    calls = _record_blocks(monkeypatch)
    assert cli.main(["validate", "--nu", str(nu), "--q", q]) == 3
    assert "too large" in capsys.readouterr().err
    assert calls == [(0, round(math.pi / 2 / mm.DEFAULT_STEP))]


@pytest.mark.parametrize("a", [math.nan, math.inf, 1e300])
def test_non_finite_trajectory_raises_without_warnings(a):
    # A non-finite a is refused before any step; a finite one whose
    # trajectory overflows blows up.
    refusal = (ValueError, "a must be finite") if not math.isfinite(a) else (mm.ConvergenceError, "blew up")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(refusal[0], match=refusal[1]):
            mm.integrate(a, 0.0, 1.0, 0.0, math.pi)


def _no_block(*args):
    raise AssertionError("ran a block before refusing the arguments")


@pytest.mark.parametrize("name", ["a", "q", "y0", "yprime0", "z_end", "step"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_integrate_refuses_non_finite_arguments_before_any_work(monkeypatch, name, value):
    # z_end = inf once raised OverflowError, which escaped the CLI's handler;
    # a NaN step or z_end "cannot convert float NaN to integer"; a NaN a
    # "trajectory blew up".
    monkeypatch.setattr(oracle, "_block", _no_block)
    args = {"a": A_REF_3_3, "q": 3.0, "y0": 1.0, "yprime0": 0.0, "z_end": math.pi, "step": mm.DEFAULT_STEP}
    args[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        mm.integrate(**args)


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
    # within tol/2 of the root: two integrations certify it, where an
    # off-centre bracket of the same width takes 37.
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
    # A centre 0.2 from the root fails the test; the shot then integrates at
    # the bracket's ends and bisects the side of the centre pair across
    # which the endpoint changes sign: 2 + 2 + ceil(log2(0.5 / tol)) = 37
    # integrations.  Both results are midpoints of sign-changing brackets no
    # wider than tol, so they lie within tol of each other.
    tol = 1e-10
    centred = shoot(nu, q, tol=tol)
    centre = _matrix_value(shoot, nu, q) + offset
    lo, hi = centre - 0.5, centre + 0.5
    calls = _record_integrations(monkeypatch)
    found = shoot(nu, q, bracket=(lo, hi), tol=tol)
    monkeypatch.undo()
    assert len(calls) > 4
    assert calls[2:4] == [lo, hi]
    assert abs(found - centred) <= tol
    assert len(calls) == 37
    assert len(set(calls)) == len(calls)
    left, right = calls[:2]
    if _endpoint(shoot, lo, q) * _endpoint(shoot, left, q) < 0.0:
        side = (lo, left)
    else:
        assert _endpoint(shoot, right, q) * _endpoint(shoot, hi, q) < 0.0
        side = (right, hi)
    assert side == ((lo, left) if offset > 0.0 else (right, hi))
    assert all(side[0] < a < side[1] for a in calls[4:])


@pytest.mark.parametrize("shoot", [mm.shoot_even, mm.shoot_odd])
@pytest.mark.parametrize("bracket", ["centred", "off-centre", "narrower-than-tol"])
def test_shot_returns_a_python_float(monkeypatch, shoot, bracket):
    # The search once returned numpy.float64 off the centre, where its
    # points were computed from the endpoint values, and float elsewhere.
    # The narrow bracket is the interval a centred shot certified.
    a = _matrix_value(shoot, 3, 3.0)
    calls = _record_integrations(monkeypatch)
    shoot(3, 3.0, tol=1e-10)
    brackets = {
        "centred": None,
        "off-centre": (a - 0.3, a + 0.7),
        "narrower-than-tol": tuple(calls),
    }
    assert type(shoot(3, 3.0, bracket=brackets[bracket], tol=1e-10)) is float


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
