import math

import numpy as np
import pytest

import mathieu_mra as mm
from mathieu_mra import FilterBank
from mathieu_mra.cascade import _aligned_sup_diff, _refine
from mathieu_mra.filterbank import tap_arrays

# Fixed-point diagnostics recorded on first run (slow sup-norm convergence
# is expected: the q != 0 scaling functions have low regularity).
REFINEMENT_RES_3_3_J10 = 0.06010792108483737
TWO_SCALE_3_3_GOLDEN = 3.7727820867416995e-11


def _bank(nu, q, threshold):
    params = mm.MathieuParams(nu, q)
    sol = mm.solve_even(params)
    return params, sol, mm.sign_correct(mm.build(params, sol, threshold))


def test_haar_fixed_point():
    _, _, haar = _bank(1, 0.0, 0.0)
    out = mm.run(haar, 6, 6)
    box = ((out.t >= 0.0) & (out.t < 1.0)).astype(float)
    wavelet = np.where((out.t >= 0.0) & (out.t < 0.5), 1.0, 0.0) - np.where(
        (out.t >= 0.5) & (out.t < 1.0), 1.0, 0.0
    )
    assert np.max(np.abs(out.phi - box)) <= 1e-12
    assert np.max(np.abs(out.psi - wavelet)) <= 1e-12
    assert out.delta <= 1e-12
    assert out.level == 6 and out.iterations == 6


def test_discrete_mass_normalisation():
    for nu, q in ((1, 0.0), (3, 3.0), (5, 15.0)):
        _, _, bank = _bank(nu, q, 1e-10 if q else 0.0)
        out = mm.run(bank, 6, 6)
        assert abs(2.0 ** -6 * np.sum(out.phi) - 1.0) <= 1e-3


def test_preconditions():
    params, sol, bank = _bank(3, 3.0, 1e-10)
    raw = mm.build(params, sol, 1e-10)
    with pytest.raises(ValueError):
        mm.run(raw, 4, 4)  # not sign-corrected
    with pytest.raises(ValueError):
        mm.run(bank, 0, 4)
    with pytest.raises(ValueError):
        mm.run(bank, 4, 3)  # output grid coarser than the iterate


def test_finer_output_grid_interpolates():
    _, _, haar = _bank(1, 0.0, 0.0)
    out = mm.run(haar, 4, 8)
    assert out.level == 8
    near = (out.t >= 0.0) & (out.t < 0.9)  # away from the jump at t=1
    assert np.max(np.abs(out.phi[near] - 1.0)) <= 1e-12


@pytest.mark.parametrize("nu,q", [(3, 3.0), (5, 15.0)])
def test_deltas_strictly_decreasing(nu, q):
    _, _, bank = _bank(nu, q, 1e-10)
    deltas = [mm.run(bank, it, it).delta for it in (2, 4, 6)]
    assert deltas[0] > deltas[1] > deltas[2]


def test_refinement_residual_haar():
    _, _, haar = _bank(1, 0.0, 0.0)
    out = mm.run(haar, 8, 8)
    assert mm.refinement_residual(out, haar) <= 1e-10


def test_refinement_residual_showcase_golden():
    _, _, bank = _bank(3, 3.0, 1e-10)
    res = mm.refinement_residual(mm.run(bank, 10, 10), bank)
    assert res == pytest.approx(REFINEMENT_RES_3_3_J10, rel=1e-6)


def test_refinement_residual_non_increasing_in_iterations():
    _, _, bank = _bank(3, 3.0, 1e-10)
    res = [
        mm.refinement_residual(mm.run(bank, it, it), bank) for it in (4, 6, 8, 10)
    ]
    assert all(r1 >= r2 for r1, r2 in zip(res, res[1:]))


def test_two_scale_identity_haar():
    params, sol, haar = _bank(1, 0.0, 0.0)
    closed = lambda u: -mm.transfer_H(params, sol, u)  # sign-corrected form
    assert mm.two_scale_residual(haar, closed, 6) <= 1e-10
    assert mm.two_scale_residual(haar, lambda u: mm.dtft(haar.h, u), 6) <= 1e-10


def test_two_scale_residual_showcase_reported():
    params, sol, bank = _bank(3, 3.0, 1e-10)
    closed = lambda u: -mm.transfer_H(params, sol, u)
    res = mm.two_scale_residual(bank, closed, 6)
    assert res <= 1e-9  # truncation-level, not rounding-level
    assert res == pytest.approx(TWO_SCALE_3_3_GOLDEN, rel=1e-3)
    # with the bank's own DTFT the identity is exact by construction
    assert mm.two_scale_residual(bank, lambda u: mm.dtft(bank.h, u), 6) <= 1e-12


def test_divergence_detection():
    bogus = FilterBank(1, 0.0, {0: 8.0, 1: 8.0}, {0: 0.7, 1: -0.7}, 0.0, True)
    with pytest.raises(mm.ConvergenceError):
        mm.run(bogus, 4, 4)


def test_wavelet_support_between_filter_extents():
    _, _, bank = _bank(3, 3.0, 1e-10)
    out = mm.run(bank, 6, 6)
    ls_h = bank.support("h")
    ls_g = bank.support("g")
    lo = 0.5 * (ls_h[0] + ls_g[0])
    hi = 0.5 * (ls_h[-1] + ls_g[-1])
    live = np.abs(out.psi) > 1e-12
    assert out.t[live][0] >= lo - 1.0 and out.t[live][-1] <= hi + 1.0


def _dense_kernel_psi(bank, iterations, level):
    """Reference form of run(): phi from the impulse refinement, psi by one
    convolution of phi with sqrt(2) g spread 2**iterations apart (a dense
    kernel that is mostly zeros)."""
    def dense(coeffs, dilation):
        idx, vals = tap_arrays(coeffs)
        arr = np.zeros((idx[-1] - idx[0]) * dilation + 1)
        arr[(idx - idx[0]) * dilation] = math.sqrt(2.0) * vals
        return int(idx[0]), arr

    hmin, hker = dense(bank.h, 1)
    v, start = np.array([1.0]), 0
    for _ in range(iterations):
        up = np.zeros(2 * len(v) - 1)
        up[::2] = v
        v, start = np.convolve(up, hker), 2 * start + hmin
    dil = 2 ** iterations
    gmin, gker = dense(bank.g, dil)
    psi_raw = np.convolve(v, gker)
    t_phi = (start + np.arange(len(v))) / dil
    t_psi = (start + gmin * dil + np.arange(len(psi_raw))) / (2 * dil)
    step = 2.0 ** (-level)
    k_lo = math.floor(min(t_phi[0], t_psi[0]) / step)
    k_hi = math.ceil(max(t_phi[-1], t_psi[-1]) / step)
    t = (k_lo + np.arange(k_hi - k_lo + 1)) * step
    return (
        t,
        np.interp(t, t_phi, v, left=0.0, right=0.0),
        np.interp(t, t_psi, psi_raw, left=0.0, right=0.0),
    )


@pytest.mark.parametrize("iterations", [4, 6, 10])
@pytest.mark.parametrize("nu,q", [(3, 3.0), (5, 15.0), (9, 20.0)])
def test_psi_from_g_seed_matches_dense_kernel(nu, q, iterations):
    _, _, bank = _bank(nu, q, 1e-10)
    out = mm.run(bank, iterations, iterations)
    t, phi, psi = _dense_kernel_psi(bank, iterations, iterations)
    assert np.array_equal(out.t, t)
    assert np.array_equal(out.phi, phi)
    assert np.max(np.abs(out.psi - psi)) <= 1e-13 * np.max(np.abs(psi))


def _g_seeded_psi(bank, iterations, level):
    """Reference form of run(): phi from the impulse refinement, psi from the
    same refinement passes seeded with sqrt(2) g (Psi^(w) = G(w/2) Phi^(w/2))."""
    def dense(coeffs):
        idx, vals = tap_arrays(coeffs)
        arr = np.zeros(idx[-1] - idx[0] + 1)
        arr[idx - idx[0]] = math.sqrt(2.0) * vals
        return int(idx[0]), arr

    hmin, hker = dense(bank.h)

    def refine(v, start):
        for _ in range(iterations):
            up = np.zeros(2 * len(v) - 1)
            up[::2] = v
            v, start = np.convolve(up, hker), 2 * start + hmin
        return v, start

    v, start = refine(np.array([1.0]), 0)
    gmin, gker = dense(bank.g)
    psi_raw, psi_start = refine(gker, gmin)
    t_phi = (start + np.arange(len(v))) / 2.0 ** iterations
    t_psi = (psi_start + np.arange(len(psi_raw))) / 2.0 ** (iterations + 1)
    step = 2.0 ** (-level)
    k_lo = math.floor(min(t_phi[0], t_psi[0]) / step)
    k_hi = math.ceil(max(t_phi[-1], t_psi[-1]) / step)
    t = (k_lo + np.arange(k_hi - k_lo + 1)) * step
    return (
        t,
        np.interp(t, t_phi, v, left=0.0, right=0.0),
        np.interp(t, t_psi, psi_raw, left=0.0, right=0.0),
    )


@pytest.mark.parametrize("extra_levels", [0, 2])
@pytest.mark.parametrize("iterations", [1, 4, 6, 10])
@pytest.mark.parametrize(
    "nu,q", [(1, 0.0), (3, 0.0), (3, 3.0), (5, 15.0), (7, 20.0), (9, 30.0)]
)
def test_psi_two_scale_matches_g_seeded_refinement(nu, q, iterations, extra_levels):
    _, _, bank = _bank(nu, q, 1e-10 if q else 0.0)
    level = iterations + extra_levels
    out = mm.run(bank, iterations, level)
    t, phi, psi = _g_seeded_psi(bank, iterations, level)
    assert np.array_equal(out.t, t)
    assert np.array_equal(out.phi, phi)
    assert np.max(np.abs(out.psi - psi)) <= 1e-13 * np.max(np.abs(psi))


def _interp_run(bank, iterations, level):
    """Reference form of run(): the final phi iterate and psi's node array
    psi_raw put onto the output grid by np.interp over their node times."""
    if not bank.sign_corrected:
        raise ValueError("cascade requires a sign-corrected bank (DC gain +1)")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if level < iterations:
        raise ValueError("level must be >= iterations")
    v, start = np.ones(1), 0
    sup_prev = 1.0
    for d, (nxt, nxt_start) in enumerate(_refine(bank, iterations, v, start), 1):
        sup = float(np.max(np.abs(nxt)))
        if sup > 10.0 * sup_prev:
            raise mm.ConvergenceError(
                f"cascade diverging: max|iterate| grew from {sup_prev:.3g} to {sup:.3g} "
                f"in pass {d}, over the 10x limit"
            )
        prev, prev_start, v, start, sup_prev = v, start, nxt, nxt_start, sup
    off = (-start) % 2
    delta = _aligned_sup_diff(prev, prev_start, v[off::2], (start + off) // 2)

    dil = 2 ** iterations
    gidx, gvals = tap_arrays(bank.g)
    gmin = int(gidx[0])
    psi_raw = np.zeros(len(v) + (int(gidx[-1]) - gmin) * dil)
    for l, gl in zip(gidx, gvals):
        off = (l - gmin) * dil
        psi_raw[off : off + len(v)] += math.sqrt(2.0) * gl * v
    psi_start = start + gmin * dil

    t_phi = (start + np.arange(len(v))) / dil
    t_psi = (psi_start + np.arange(len(psi_raw))) / (2 * dil)
    step = 2.0 ** (-level)
    k_lo = math.floor(min(t_phi[0], t_psi[0]) / step)
    k_hi = math.ceil(max(t_phi[-1], t_psi[-1]) / step)
    t = (k_lo + np.arange(k_hi - k_lo + 1)) * step
    phi = np.interp(t, t_phi, v, left=0.0, right=0.0)
    psi = np.interp(t, t_psi, psi_raw, left=0.0, right=0.0)
    return t, phi, psi, float(delta)


def _outcome(func, *args):
    try:
        return func(*args), None
    except (ValueError, mm.ConvergenceError) as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("nu", [1, 3, 5, 9])
def test_output_stage_bit_identical_to_interp(nu):
    # Nodes written into the grid and the linear fill between them give
    # np.interp's bits, signed zeros included; refusals are the same.
    compared = 0
    for q in (0.0, 3.0, 15.0, -20.0):
        params = mm.MathieuParams(nu, q)
        sol = mm.solve_even(params)
        for threshold in (0.0, 1e-10):
            bank = mm.sign_correct(mm.build(params, sol, threshold))
            for iterations in (1, 4, 10):
                for extra in (0, 1, 3):
                    out, err = _outcome(mm.run, bank, iterations, iterations + extra)
                    ref, ref_err = _outcome(_interp_run, bank, iterations, iterations + extra)
                    assert err == ref_err
                    if err is not None:
                        continue
                    for got, want in zip((out.t, out.phi, out.psi), ref[:3]):
                        assert np.array_equal(got, want)
                        assert np.array_equal(np.signbit(got), np.signbit(want))
                    assert out.delta == ref[3]
                    compared += 1
    assert compared > 0
