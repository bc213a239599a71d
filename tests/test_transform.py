import math
import tracemalloc

import numpy as np
import pytest

import mathieu_mra as mm
import reference
from mathieu_mra import transform

# Round-trip sup errors for the seeded length-64 signal, recorded.
ROUNDTRIP_3_3_L3 = 1.2173002200267717
ROUNDTRIP_3_001_L3 = 0.00879340832244635


def _bank(nu, q, threshold=1e-10):
    params = mm.MathieuParams(nu, q)
    sol = mm.solve_even(params)
    return mm.sign_correct(mm.build(params, sol, threshold))


def _signal(n=64, seed=7):
    return np.random.default_rng(seed).standard_normal(n)


def test_constant_signal_haar():
    haar = _bank(1, 0.0, 0.0)
    res = mm.forward(np.full(16, 2.5), haar, 1)
    assert np.max(np.abs(res.details[0])) <= 1e-14
    assert np.max(np.abs(res.approx - 2.5 * math.sqrt(2.0))) <= 1e-12
    assert res.approx.size == 8


def test_impulse_haar_subbands():
    haar = _bank(1, 0.0, 0.0)
    x = np.zeros(8)
    x[0] = 1.0
    res = mm.forward(x, haar, 1)
    expected = np.array([math.sqrt(2.0) / 2.0, 0.0, 0.0, 0.0])
    assert np.max(np.abs(res.approx - expected)) <= 1e-14
    assert np.max(np.abs(res.details[0] - expected)) <= 1e-14


def test_subband_lengths_partition_signal():
    bank = _bank(3, 3.0)
    res = mm.forward(_signal(), bank, 3)
    total = res.approx.size + sum(d.size for d in res.details)
    assert total == res.length == 64
    assert [d.size for d in res.details] == [32, 16, 8]


def test_haar_round_trip_exact():
    haar = _bank(1, 0.0, 0.0)
    x = _signal()
    rec = mm.inverse(mm.forward(x, haar, 3), haar)
    assert np.max(np.abs(rec - x)) <= 1e-12


def test_zero_intensity_round_trip_exact_for_higher_order():
    # q = 0 gives a stretched two-tap pair for every odd order; the analysis/
    # synthesis pair stays orthonormal and reconstruction is exact.
    bank = _bank(3, 0.0, 0.0)
    x = _signal()
    rec = mm.inverse(mm.forward(x, bank, 3), bank)
    assert np.max(np.abs(rec - x)) <= 1e-12


def test_energy_conservation_at_zero_intensity():
    for nu in (1, 3):
        bank = _bank(nu, 0.0, 0.0)
        x = _signal()
        res = mm.forward(x, bank, 3)
        energy = np.sum(res.approx ** 2) + sum(np.sum(d ** 2) for d in res.details)
        assert abs(energy - np.sum(x ** 2)) <= 1e-10


def test_round_trip_error_small_q_bound_and_goldens():
    x = _signal()
    bank = _bank(3, 0.001)
    err = np.max(np.abs(mm.inverse(mm.forward(x, bank, 3), bank) - x))
    assert err <= 1e-3
    bank = _bank(3, 0.01)
    err = np.max(np.abs(mm.inverse(mm.forward(x, bank, 3), bank) - x))
    assert err == pytest.approx(ROUNDTRIP_3_001_L3, rel=1e-6)
    bank = _bank(3, 3.0)
    err = np.max(np.abs(mm.inverse(mm.forward(x, bank, 3), bank) - x))
    assert err == pytest.approx(ROUNDTRIP_3_3_L3, rel=1e-6)


def test_round_trip_error_monotone_in_q():
    x = _signal()
    errs = []
    for q in (0.001, 0.1, 3.0):
        bank = _bank(3, q)
        errs.append(float(np.max(np.abs(mm.inverse(mm.forward(x, bank, 3), bank) - x))))
    assert errs[0] < errs[1] < errs[2]


def test_linearity():
    bank = _bank(3, 3.0)
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal(64), rng.standard_normal(64)
    combo = mm.forward(2.0 * x - 3.0 * y, bank, 2)
    rx, ry = mm.forward(x, bank, 2), mm.forward(y, bank, 2)
    assert np.max(np.abs(combo.approx - 2.0 * rx.approx + 3.0 * ry.approx)) <= 1e-12
    for da, dx, dy in zip(combo.details, rx.details, ry.details):
        assert np.max(np.abs(da - 2.0 * dx + 3.0 * dy)) <= 1e-12


def test_forward_validations():
    bank = _bank(1, 0.0, 0.0)
    with pytest.raises(ValueError):
        mm.forward(np.ones(12), bank, 3)  # 12 not divisible by 8
    with pytest.raises(ValueError):
        mm.forward(np.ones(8), bank, 0)
    with pytest.raises(ValueError):
        mm.forward(np.ones((4, 2)), bank, 1)


def test_inverse_shape_mismatch():
    bank = _bank(1, 0.0, 0.0)
    res = mm.forward(_signal(16), bank, 2)
    broken = mm.DwtResult(res.levels, res.approx, [res.details[0][:-1], res.details[1]], res.length)
    with pytest.raises(ValueError):
        mm.inverse(broken, bank)


@pytest.mark.parametrize("nu,q", [(1, 0.0), (3, 0.0), (3, 3.0), (5, 5.0), (5, 15.0), (7, 20.0)])
def test_polyphase_matches_gather_reference_bit_for_bit(nu, q):
    bank = _bank(nu, q)
    if q:
        # Negative detail indices exercise the floor division of l // 2.
        assert min(bank.g) < 0 and min(bank.h) < 0
    rng = np.random.default_rng(nu * 100 + int(q))
    for k in range(1, 13):
        x = rng.standard_normal(2 ** k)
        for levels in range(1, k + 1):
            res = mm.forward(x, bank, levels)
            cur = x
            for d in res.details:
                cur, ref_d = reference.analysis_step(cur, bank)
                assert np.array_equal(d, ref_d)
            assert np.array_equal(res.approx, cur)
            ref = res.approx
            for d in reversed(res.details):
                ref = reference.synthesis_step(ref, d, bank)
            assert np.array_equal(mm.inverse(res, bank), ref)


BANKS = [(1, 0.0), (3, 0.0), (3, 3.0), (5, 5.0), (5, 15.0), (7, 20.0)]


def _same(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _assert_inverse_matches_reference(res, bank):
    ref = res.approx
    for d in reversed(res.details):
        ref = reference.synthesis_step(ref, d, bank)
    assert _same(mm.inverse(res, bank), ref)


def _assert_reference_bit_for_bit(x, bank, levels):
    """forward and inverse against the gather / np.add.at steps at every
    level, values and signs of zero both."""
    res = mm.forward(x, bank, levels)
    cur = x
    for d in res.details:
        cur, ref_d = reference.analysis_step(cur, bank)
        assert _same(d, ref_d)
    assert _same(res.approx, cur)
    _assert_inverse_matches_reference(res, bank)


@pytest.mark.parametrize("block", [1, 3, 8])
@pytest.mark.parametrize("nu,q", BANKS)
def test_block_seams_match_reference_bit_for_bit(monkeypatch, nu, q, block):
    # Small blocks put many seams in every level and a partial last block
    # where the block does not divide the level; at deep levels the windows
    # are longer than the phase they wrap.
    monkeypatch.setattr(transform, "_BLOCK", block)
    bank = _bank(nu, q)
    rng = np.random.default_rng(nu * 100 + int(q))
    for k in range(1, 8):
        _assert_reference_bit_for_bit(rng.standard_normal(2 ** k), bank, k)
    _assert_reference_bit_for_bit(rng.standard_normal(40), bank, 3)


def test_several_default_blocks_per_level_match_reference():
    # Level 1 has 2**16 + 2**12 outputs and level 2 2**15 + 2**11: full
    # blocks, then a partial last one.
    x = np.random.default_rng(17).standard_normal(2 ** 17 + 2 ** 13)
    assert x.size // 2 > transform._BLOCK
    _assert_reference_bit_for_bit(x, _bank(7, 20.0), 2)


@pytest.mark.parametrize("nu,q", BANKS)
def test_signed_zeros_match_reference(nu, q):
    # Every output sample starts from +0.0: a product of -0.0 alone, or of
    # zero with a negative tap, must not leave a -0.0 behind.
    bank = _bank(nu, q)
    x = np.random.default_rng(5).standard_normal(64)
    x[8:24], x[24:40] = 0.0, -0.0
    for sig in (x, np.zeros(64), np.full(64, -0.0)):
        _assert_reference_bit_for_bit(sig, bank, 4)
        # forward returns no -0.0, so give inverse signed-zero subbands.
        bands = mm.DwtResult(4, sig[:4], [sig[32:], sig[16:32], sig[8:16], sig[4:8]], 64)
        _assert_inverse_matches_reference(bands, bank)


@pytest.mark.parametrize("nu,q", BANKS)
def test_inverse_is_the_adjoint_of_forward(nu, q):
    # <forward(x), y> summed over the bands equals <x, inverse(y)>, to
    # 1e-12 of |x| |inverse(y)|, the Cauchy-Schwarz bound on the right side.
    bank = _bank(nu, q)
    rng = np.random.default_rng(nu * 100 + int(q))
    for k in (4, 10):
        for levels in range(1, k + 1):
            x = rng.standard_normal(2 ** k)
            y = rng.standard_normal(2 ** k)
            details = [y[2 ** (k - j):2 ** (k - j + 1)] for j in range(1, levels + 1)]
            bands = mm.DwtResult(levels, y[:2 ** (k - levels)], details, 2 ** k)
            res = mm.forward(x, bank, levels)
            lhs = res.approx @ bands.approx + sum(d @ e for d, e in zip(res.details, bands.details))
            back = mm.inverse(bands, bank)
            assert abs(lhs - x @ back) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(back)


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_and_inverse_make_no_full_size_scratch():
    # numpy reports its buffers to tracemalloc.  Outputs and the previous
    # level's approximation (or reconstruction) come to 1.5x the signal's
    # bytes in either direction and the block buffers to at most 0.625x;
    # one full-size phase copy or per-tap temporary brings the peak to 2.5x.
    bank = _bank(7, 20.0)
    x = np.random.default_rng(3).standard_normal(2 ** 18)
    res, forward_peak = _traced_peak(mm.forward, x, bank, 6)
    _, inverse_peak = _traced_peak(mm.inverse, res, bank)
    assert forward_peak < 2.5 * x.nbytes
    assert inverse_peak < 2.5 * x.nbytes
