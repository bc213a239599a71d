import math

import numpy as np
import pytest

import mathieu_mra as mm
from mathieu_mra.cli import main

SQRT2_2 = math.sqrt(2.0) / 2.0

# Tap counts at threshold 1e-10.  Tap magnitudes depend only on |2l - nu|,
# so they come in equal pairs and any magnitude threshold keeps an even
# number of taps; acceptance criterion 3 checks 16/24 independently against
# scipy's Mathieu coefficients.
TAP_COUNTS = {(3, 3.0): 16, (5, 15.0): 24}
BOUNDARY_MAGS = {
    (3, 3.0): (2.502769e-09, 2.690581e-11),   # smallest kept, largest dropped
    (5, 15.0): (3.626329e-10, 9.177183e-12),
}

# Max power-complementarity residual over 8192 frequencies, recorded.
QMF_MAX_GOLDEN = {(3, 3.0): 0.95628433015002112, (5, 15.0): 0.6945812905397047}

G_MAG_HALFPI_3_3 = 0.14784395464471833  # |detail transfer| at pi/2, both routes


def _pair(nu, q, threshold=None):
    params = mm.MathieuParams(nu, q)
    sol = mm.solve_even(params)
    if threshold is None:
        return params, sol
    return params, sol, mm.build(params, sol, threshold)


def test_haar_limit_taps():
    _, _, bank = _pair(1, 0.0, 0.0)
    assert set(bank.h) == {0, 1} and set(bank.g) == {0, 1}
    assert bank.h[0] == pytest.approx(-SQRT2_2, abs=1e-14)
    assert bank.h[1] == pytest.approx(-SQRT2_2, abs=1e-14)
    assert bank.g[0] == pytest.approx(SQRT2_2, abs=1e-14)
    assert bank.g[1] == pytest.approx(-SQRT2_2, abs=1e-14)


def test_build_rejects_bad_inputs():
    params, sol = _pair(3, 3.0)
    with pytest.raises(ValueError):
        mm.build(mm.MathieuParams(3, 2.0), sol, 0.0)
    with pytest.raises(ValueError):
        mm.build(params, mm.solve_odd(params), 0.0)
    with pytest.raises(ValueError):
        mm.build(params, sol, -1.0)
    with pytest.raises(ValueError):
        mm.build(params, sol, 1.0)  # nothing survives


def test_build_refuses_a_nan_threshold_by_name(capsys):
    # NaN once passed the sign check and read as "threshold too large".
    params, sol = _pair(3, 3.0)
    with pytest.raises(ValueError, match="^threshold must not be NaN$"):
        mm.build(params, sol, math.nan)
    assert main(["filters", "--nu", "3", "--q", "3", "--threshold", "nan"]) == 2
    assert capsys.readouterr().err == "error: threshold must not be NaN\n"


@pytest.mark.parametrize("q,builds", [(200.0, True), (250.0, True), (300.0, False), (450.0, False)])
def test_build_refuses_ce0_at_round_off(q, builds):
    # ce(0) / (eps sum |A_k|) is 8.8e4, 3.3e3, 170 and 0.23 at these q, and
    # build asks for 1000; at q = 450 the exact ce(0) is -4.7e-17.
    params, sol = _pair(1, q)
    if builds:
        dc, _ = mm.normalization_residuals(mm.build(params, sol, 0.0))
        assert dc <= 1e-4
    else:
        with pytest.raises(mm.ConvergenceError, match="round-off"):
            mm.build(params, sol, 0.0)


@pytest.mark.parametrize("nu,q", [(3, 3.0), (5, 15.0)])
def test_truncation_tap_counts_and_boundaries(nu, q):
    params, sol, bank = _pair(nu, q, 1e-10)
    assert len(bank.h) == len(bank.g) == TAP_COUNTS[(nu, q)]
    kept = min(abs(v) for v in bank.h.values())
    full = mm.build(params, sol, 0.0)
    dropped = max(abs(v) for v in full.h.values() if abs(v) < 1e-10)
    kept_ref, dropped_ref = BOUNDARY_MAGS[(nu, q)]
    assert kept == pytest.approx(kept_ref, rel=1e-5)
    assert dropped == pytest.approx(dropped_ref, rel=1e-5)


def test_tap_magnitudes_pair_up():
    _, _, bank = _pair(3, 3.0, 1e-10)
    for l in bank.h:
        mirror = 3 - l  # |2l - nu| invariant partner
        assert mirror in bank.h
        assert bank.h[l] == bank.h[mirror]


@pytest.mark.parametrize("nu,q", [(1, 0.0), (3, 3.0), (5, 15.0)])
def test_symmetry_identity(nu, q):
    _, _, bank = _pair(nu, q, 1e-10 if q else 0.0)
    for l in range(1, 1 + max(bank.support("h"))):
        lhs = bank.h.get(-l)
        rhs = bank.h.get(l + nu)
        if lhs is None and rhs is None:
            continue
        assert lhs is not None and rhs is not None
        assert abs(lhs - rhs) <= 1e-10


@pytest.mark.parametrize("nu,q", [(3, 3.0), (5, 15.0)])
def test_normalising_conditions(nu, q):
    _, _, full = _pair(nu, q, 0.0)
    dc, alternating = mm.normalization_residuals(full)
    assert dc <= 1e-12
    assert alternating <= 1e-12
    _, _, bank = _pair(nu, q, 1e-10)
    dc, alternating = mm.normalization_residuals(bank)
    assert dc <= 1e-10
    assert alternating <= 1e-10


def test_dtft_haar_values():
    _, _, bank = _pair(1, 0.0, 0.0)
    assert mm.dtft(bank.h, 0.0) == pytest.approx(-1.0, abs=1e-14)
    assert abs(mm.dtft(bank.h, math.pi)) <= 1e-14


def test_dtft_vanishes_at_pi():
    _, _, bank = _pair(3, 3.0, 0.0)
    assert abs(mm.dtft(bank.h, math.pi)) <= 1e-9


@pytest.mark.parametrize("nu,q", [(3, 3.0), (5, 15.0)])
def test_dtft_matches_closed_forms_untruncated(nu, q):
    params, sol, bank = _pair(nu, q, 0.0)
    om = np.linspace(0.0, 2.0 * math.pi, 257)
    assert np.max(np.abs(mm.dtft(bank.h, om) - mm.transfer_H(params, sol, om))) <= 1e-8
    assert np.max(np.abs(mm.dtft(bank.g, om) - mm.transfer_G(params, sol, om))) <= 1e-8


def test_transfer_H_boundaries():
    params, sol = _pair(3, 3.0)
    assert abs(mm.transfer_H(params, sol, 0.0) + 1.0) <= 1e-14
    assert abs(mm.transfer_H(params, sol, math.pi)) <= 1e-12
    om = np.linspace(0.0, 2.0 * math.pi, 101)
    mag = np.abs(mm.transfer_H(params, sol, om))
    ref = np.abs(mm.evaluate(sol, om / 2.0)) / mm.value_at_zero(sol)
    assert np.max(np.abs(mag - ref)) <= 1e-14


def test_transfer_G_boundaries():
    params, sol = _pair(5, 15.0)
    assert abs(mm.transfer_G(params, sol, 0.0)) <= 1e-10
    assert abs(abs(mm.transfer_G(params, sol, math.pi)) - 1.0) <= 1e-10


def test_detail_magnitude_via_odd_solution():
    p10, _ = _pair(1, 0.0)
    assert mm.magnitude_G_via_se(p10, math.pi) == pytest.approx(1.0, abs=1e-12)
    p33, s33 = _pair(3, 3.0)
    assert mm.magnitude_G_via_se(p33, 0.0) <= 1e-12
    via_se = mm.magnitude_G_via_se(p33, math.pi / 2)
    direct = abs(mm.transfer_G(p33, s33, math.pi / 2))
    assert abs(via_se - direct) <= 1e-8
    assert via_se == pytest.approx(G_MAG_HALFPI_3_3, abs=1e-11)


def test_detail_magnitude_via_odd_solution_runs_one_eigensolve(monkeypatch):
    # The odd solve at -q reads the even solve's cache entry at q.
    calls = []
    eigh = np.linalg.eigh

    def counting(op):
        calls.append(len(op))
        return eigh(op)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    mm.core._eigenpair.cache_clear()
    mm.magnitude_G_via_se(mm.MathieuParams(3, 3.0), math.pi / 2)
    assert len(calls) == 1


def test_qmf_report_haar_exact():
    params, sol = _pair(1, 0.0)
    grid = mm.qmf_report(params, sol, 1024)
    assert np.max(grid.qmf_residual) <= 1e-12


@pytest.mark.parametrize("nu,q", [(3, 3.0), (5, 15.0)])
def test_qmf_residual_recorded_not_small(nu, q):
    params, sol = _pair(nu, q)
    grid = mm.qmf_report(params, sol, 8192)
    assert np.max(grid.qmf_residual) == pytest.approx(QMF_MAX_GOLDEN[(nu, q)], rel=1e-9)


def test_qmf_residual_decays_with_q():
    res = []
    for q in (0.1, 0.01, 0.001):
        params, sol = _pair(3, q)
        res.append(float(np.max(mm.qmf_report(params, sol, 2048).qmf_residual)))
    assert res[0] > res[1] > res[2]


@pytest.mark.parametrize("nu,q", [(1, 0.0), (3, 3.0), (5, 15.0), (9, 30.0)])
def test_qmf_report_matches_five_evaluations(nu, q):
    # Reference: H(w + pi) and the phase pairing evaluated directly at the
    # shifted frequencies instead of read off the sampled grid.
    params, sol = _pair(nu, q)
    grid = mm.qmf_report(params, sol, 1024)
    # one evaluation of ce for both transfers, bit for bit the closed forms
    assert np.array_equal(grid.H, mm.transfer_H(params, sol, grid.omegas))
    assert np.array_equal(grid.G, mm.transfer_G(params, sol, grid.omegas))
    H_shift = mm.transfer_H(params, sol, grid.omegas + math.pi)
    qmf = np.abs(np.abs(mm.transfer_H(params, sol, grid.omegas)) ** 2 + np.abs(H_shift) ** 2 - 1.0)
    assert np.max(np.abs(grid.qmf_residual - qmf)) <= 1e-13
    phase = mm.phase_pairing_residual(params, sol, grid.omegas)
    assert np.max(phase) <= 1e-10
    assert np.max(np.abs(grid.phase_residual - phase)) <= 1e-13
    assert not grid.phase_residual.flags.writeable


def test_qmf_report_validates_sampling():
    params, sol = _pair(1, 0.0)
    with pytest.raises(ValueError):
        mm.qmf_report(params, sol, 7)


def test_phase_pairing_identity_everywhere():
    params, sol = _pair(3, 3.0)
    om = 2.0 * math.pi * np.arange(8192) / 8192
    assert np.max(mm.phase_pairing_residual(params, sol, om)) <= 1e-10


def test_sign_correct():
    params, sol, bank = _pair(1, 0.0, 0.0)
    fixed = mm.sign_correct(bank)
    assert fixed.h[0] == pytest.approx(SQRT2_2, abs=1e-14)
    assert fixed.h[1] == pytest.approx(SQRT2_2, abs=1e-14)
    assert fixed.g == bank.g
    assert mm.dtft(fixed.h, 0.0) == pytest.approx(1.0, abs=1e-12)
    om = np.linspace(0.0, 2.0 * math.pi, 64)
    assert np.max(np.abs(np.abs(mm.dtft(fixed.h, om)) - np.abs(mm.dtft(bank.h, om)))) <= 1e-14
    with pytest.raises(ValueError):
        mm.sign_correct(fixed)


def test_zero_design_spot_checks():
    for nu, q in ((7, 15.0), (5, 1.0)):
        params, sol = _pair(nu, q)
        assert mm.count_transfer_zeros(params, sol, "H") == nu
        assert mm.count_transfer_zeros(params, sol, "G") == nu


@pytest.mark.parametrize("q", [-20.0, -1.0, 0.0, 0.5, 15.0, 40.0, 200.0])
@pytest.mark.parametrize("nu", [1, 3, 5, 7, 9, 11])
def test_three_zero_counts_equal_nu(nu, q):
    params, sol = _pair(nu, q)
    assert mm.count_zeros(sol) == nu
    assert mm.count_transfer_zeros(params, sol, "H") == nu
    assert mm.count_transfer_zeros(params, sol, "G") == nu


def test_count_transfer_zeros_rejects_unknown_filter():
    params, sol = _pair(3, 3.0)
    with pytest.raises(ValueError):
        mm.count_transfer_zeros(params, sol, "X")


def test_truncation_monotone_in_threshold():
    params, sol = _pair(3, 3.0)
    counts = []
    for thr in (0.0, 1e-14, 1e-10, 1e-6, 1e-2):
        counts.append(len(mm.build(params, sol, thr).h))
    assert all(c1 >= c2 for c1, c2 in zip(counts, counts[1:]))


def test_no_compact_support():
    # The untruncated bank keeps producing smaller taps as far as floating
    # point resolves them: support strictly exceeds the 1e-10 truncation and
    # the outermost magnitudes sit below any plausible compact cutoff.
    params, sol, full = _pair(3, 3.0, 0.0)
    trunc = mm.build(params, sol, 1e-10)
    assert len(full.h) > len(trunc.h)
    assert min(abs(v) for v in full.h.values()) < 1e-15
    mags = [abs(full.h[l]) for l in sorted(l for l in full.h if 2 * l - 3 > 0)]
    assert all(m1 >= m2 for m1, m2 in zip(mags[1:], mags[2:]))  # outward decay


def _loop_build(params, sol, threshold):
    """The two tap loops ``build`` ran before its vector form, kept as its reference."""
    nu, A = params.nu, sol.coeffs
    ce0 = mm.value_at_zero(sol)
    if ce0 <= mm.filterbank.CE0_FLOOR * np.sum(np.abs(A)):
        raise mm.ConvergenceError(
            f"ce(0) = {ce0:.3g} is within round-off of 0, so the taps have no "
            f"accurate scale (nu={nu}, q={params.q})"
        )
    mmax = 2 * sol.truncation_order - 1

    def keep(v):
        return v != 0.0 if threshold == 0.0 else abs(v) >= threshold

    h = {}
    for l in range((nu - mmax) // 2, (nu + mmax) // 2 + 1):
        m = abs(2 * l - nu)
        val = -math.sqrt(2.0) * A[(m - 1) // 2] / (2.0 * ce0)
        if keep(val):
            h[l] = val
    g = {}
    for l in range((2 - nu - mmax) // 2, (2 - nu + mmax) // 2 + 1):
        m = abs(2 * l + nu - 2)
        parity = 1.0 if l % 2 == 0 else -1.0
        val = math.sqrt(2.0) * parity * A[(m - 1) // 2] / (2.0 * ce0)
        if keep(val):
            g[l] = val
    if len(h) < 2 or len(g) < 2:
        raise ValueError("threshold too large: fewer than 2 taps survive")
    return h, g


def _taps_or_refusal(make):
    # (index, bits) in insertion order, so -0.0, order and every bit count
    try:
        h, g = make()
    except (ValueError, mm.ConvergenceError) as exc:
        return type(exc), str(exc)
    return [[(l, float(v).hex()) for l, v in taps.items()] for taps in (h, g)]


@pytest.mark.parametrize("nu", range(1, 20, 2))
def test_build_matches_tap_loops_bit_for_bit(nu):
    # _loop_build keeps the threshold branch build's one mask replaced:
    # v != 0 at threshold 0, |v| >= threshold otherwise.  At q = 0 (either
    # sign) every tap off the two-tap pair is an exact zero.
    qs = (0.0, -0.0, 0.5, 1.0, 3.0, -3.0, 5.0, 15.0, 20.0, -20.0, 30.0, 40.0, 50.0, 100.0, -150.0, 200.0)
    thresholds = (0.0, 1e-300, 1e-16, 1e-12, 1e-10, 1e-6, 1e-3, 0.05, 0.1, 0.3, math.inf)
    for q in qs:
        params, sol = _pair(nu, q)
        for thr in thresholds:
            def vector():
                bank = mm.build(params, sol, thr)
                return bank.h, bank.g
            got = _taps_or_refusal(vector)
            assert got == _taps_or_refusal(lambda: _loop_build(params, sol, thr)), (q, thr)
