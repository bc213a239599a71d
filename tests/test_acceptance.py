"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the recorded diagnostics.
"""

import json
import math
import time

import numpy as np
from scipy.special import mathieu_even_coef

import mathieu_mra as mm
from mathieu_mra.cli import main as cli_main

A_REF_3_3 = 9.915506290452134
A_REF_5_15 = 31.957821252172874

NUS = (1, 3, 5)
QS = (0.0, 1.0, 3.0, 15.0)
ZERO_NUS = (1, 3, 5, 7)

_EVEN_CACHE = {}


def even(nu, q):
    key = (nu, float(q))
    if key not in _EVEN_CACHE:
        params = mm.MathieuParams(nu, float(q))
        _EVEN_CACHE[key] = (params, mm.solve_even(params))
    return _EVEN_CACHE[key]


def corrected_bank(nu, q, threshold=1e-10):
    params, sol = even(nu, q)
    return mm.sign_correct(mm.build(params, sol, threshold))


def test_criterion_1_eigenvalue_reproduction():
    t0 = time.perf_counter()
    a33 = mm.solve_even(mm.MathieuParams(3, 3.0)).a
    t1 = time.perf_counter()
    a515 = mm.solve_even(mm.MathieuParams(5, 15.0)).a
    t2 = time.perf_counter()
    assert abs(a33 - A_REF_3_3) <= 1e-9
    assert abs(a515 - A_REF_5_15) <= 1e-9
    assert t1 - t0 < 1.0 and t2 - t1 < 1.0
    print(f"\ncriterion 1 (eigenvalue reproduction, each solve < 1 s): PASS "
          f"[diffs {a33 - A_REF_3_3:.2e}, {a515 - A_REF_5_15:.2e}]")


def test_criterion_2_oracle_agreement():
    worst = 0.0
    for nu in NUS:
        for q in QS:
            _, sol = even(nu, q)
            a_shoot = mm.shoot_even(nu, q, bracket=(sol.a - 0.5, sol.a + 0.5))
            worst = max(worst, abs(a_shoot - sol.a))
            assert abs(a_shoot - sol.a) <= 1e-8, (nu, q)
    _, s33 = even(3, 3.0)
    traj = mm.integrate(s33.a, 3.0, 1.0, 0.0, math.pi)
    sup = mm.compare(s33, traj)
    assert sup <= 1e-7
    print(f"criterion 2 (shooting vs matrix on {len(NUS) * len(QS)} pairs, "
          f"trajectory sup error): PASS [worst shoot gap {worst:.2e}, sup {sup:.2e}]")


def test_criterion_3_fir_truncation_count():
    # Each odd harmonic A_m feeds exactly two taps per filter (|2l - nu| = m
    # for h, |2l + nu - 2| = m for g, no fixed point for odd nu), so the kept
    # count is twice the number of harmonics whose tap magnitude
    # sqrt2 |A_m| / (2 |ce0|) reaches the threshold.  scipy's independent
    # coefficients fix that count; an odd count (such as 19) cannot occur.
    threshold = 1e-10
    expected = {(3, 3.0): 16, (5, 15.0): 24}
    boundaries = {}
    for (nu, q), count in expected.items():
        A = mathieu_even_coef(nu, q)
        mags = math.sqrt(2.0) * np.abs(A) / (2.0 * abs(np.sum(A)))
        assert 2 * int(np.sum(mags >= threshold)) == count, (nu, q)

        params, sol = even(nu, q)
        bank = mm.build(params, sol, threshold)
        assert len(bank.h) == len(bank.g) == count, (nu, q)
        assert {nu - l for l in bank.h} == set(bank.h)
        assert {2 - nu - l for l in bank.g} == set(bank.g)
        for e in range(1, 16):
            cut = mm.build(params, sol, 10.0 ** -e)
            assert len(cut.h) == len(cut.g) and len(cut.h) % 2 == 0, (nu, q, e)

        full = mm.build(params, sol, 0.0)
        kept = min(abs(v) for v in bank.h.values())
        dropped = max(abs(v) for v in full.h.values() if abs(v) < threshold)
        assert kept >= 2.0 * threshold and dropped <= threshold / 2.0, (nu, q)
        boundaries[(nu, q)] = (kept, dropped)
    print("criterion 3 (taps per filter at 1e-10 match scipy's independent "
          "coefficients: " + ", ".join(
              f"(nu={nu}, q={q}) {expected[(nu, q)]} kept, smallest kept "
              f"{kept:.6e}, largest dropped {dropped:.6e}"
              for (nu, q), (kept, dropped) in boundaries.items())
          + "): PASS [published count of 19 not reproduced: taps pair up, "
          "so any threshold keeps an even count]")


def test_criterion_4_limit_suite(tmp_path):
    for nu in NUS:
        _, sol = even(nu, 0.0)
        assert abs(sol.a - nu ** 2) <= 1e-12
    params, sol = even(1, 0.0)
    bank = mm.build(params, sol, 0.0)
    s = math.sqrt(2.0) / 2.0
    assert abs(bank.h[0] + s) <= 1e-14 and abs(bank.h[1] + s) <= 1e-14
    assert abs(bank.g[0] - s) <= 1e-14 and abs(bank.g[1] + s) <= 1e-14
    haar = mm.sign_correct(bank)
    x = np.random.default_rng(7).standard_normal(64)
    rec = mm.inverse(mm.forward(x, haar, 3), haar)
    roundtrip = float(np.max(np.abs(rec - x)))
    assert roundtrip <= 1e-12
    out = mm.run(haar, 6, 6)
    box = ((out.t >= 0.0) & (out.t < 1.0)).astype(float)
    box_err = float(np.max(np.abs(out.phi - box)))
    assert box_err <= 1e-12
    print(f"criterion 4 (zero-intensity limits: a = nu^2, exact two-tap pair, "
          f"round trip {roundtrip:.2e}, box fixed point {box_err:.2e}): PASS")


def test_criterion_5_identity_suite():
    om_dense = 2.0 * math.pi * np.arange(8192) / 8192
    om_coarse = np.linspace(0.0, 2.0 * math.pi, 129)
    for nu, q in ((3, 3.0), (5, 15.0)):
        params, sol = even(nu, q)
        # phase-pairing identity on 8192 frequencies
        assert np.max(mm.phase_pairing_residual(params, sol, om_dense)) <= 1e-10
        # untruncated tap DTFT vs closed forms
        full = mm.build(params, sol, 0.0)
        assert np.max(np.abs(mm.dtft(full.h, om_coarse)
                             - mm.transfer_H(params, sol, om_coarse))) <= 1e-8
        assert np.max(np.abs(mm.dtft(full.g, om_coarse)
                             - mm.transfer_G(params, sol, om_coarse))) <= 1e-8
        # detail magnitude through the odd solve at reversed intensity
        via_se = mm.magnitude_G_via_se(params, om_coarse)
        assert np.max(np.abs(via_se - np.abs(mm.transfer_G(params, sol, om_coarse)))) <= 1e-8
        # symmetry and both normalising conditions on the truncated bank
        bank = mm.build(params, sol, 1e-10)
        for l in range(1, max(bank.support("h")) + 1):
            left, right = bank.h.get(-l), bank.h.get(l + nu)
            if left is None and right is None:
                continue
            assert left is not None and right is not None
            assert abs(left - right) <= 1e-10
        dc, alternating = mm.normalization_residuals(bank)
        assert dc <= 1e-10 and alternating <= 1e-10
    print("criterion 5 (phase pairing 1e-10, DTFT vs closed forms 1e-8, "
          "sine-route magnitude 1e-8, symmetry and normalisation 1e-10): PASS")


def test_criterion_6_zero_design():
    for nu in ZERO_NUS:
        for q in QS:
            params, sol = even(nu, q)
            assert mm.count_transfer_zeros(params, sol, "H") == nu, (nu, q, "H")
            assert mm.count_transfer_zeros(params, sol, "G") == nu, (nu, q, "G")
    print(f"criterion 6 (|H| and |G| have exactly nu zeros per period, "
          f"nu in {ZERO_NUS}, q in {QS}): PASS")


def test_criterion_7_antiperiodicity():
    x = np.linspace(0.0, math.pi, 512, endpoint=False)
    for nu in ZERO_NUS:
        for q in QS:
            _, sol = even(nu, q)
            res = np.max(np.abs(mm.evaluate(sol, x + math.pi) + mm.evaluate(sol, x)))
            assert res <= 1e-10, (nu, q)
    print("criterion 7 (half-period antiperiodicity to 1e-10 on 512 points): PASS")


def test_criterion_8_honest_non_reproduction():
    # waveform approach is qualitative only: strictly shrinking updates
    for nu, q in ((3, 3.0), (5, 15.0)):
        bank = corrected_bank(nu, q)
        deltas = [mm.run(bank, it, it).delta for it in (2, 4, 6)]
        assert deltas[0] > deltas[1] > deltas[2], (nu, q, deltas)
    # power complementarity is recorded, never asserted small
    recorded = {}
    for nu, q in ((3, 3.0), (5, 15.0)):
        params, sol = even(nu, q)
        recorded[(nu, q)] = float(np.max(mm.qmf_report(params, sol, 8192).qmf_residual))
    decay = []
    for q in (0.1, 0.01, 0.001):
        params, sol = even(3, q)
        decay.append(float(np.max(mm.qmf_report(params, sol, 2048).qmf_residual)))
    assert decay[0] > decay[1] > decay[2]
    print(f"criterion 8 (qualitative cascade convergence; power-complementarity "
          f"residuals recorded {recorded}, q-decay {['%.3e' % d for d in decay]}): PASS")


def test_criterion_9_cli_determinism(tmp_path):
    sig = tmp_path / "sig.csv"
    values = np.random.default_rng(3).standard_normal(32)
    sig.write_text("x\n" + "\n".join(format(v, ".17g") for v in values) + "\n")
    jobs = [
        ("eigen", "--nu", "3", "--q", "3"),
        ("filters", "--nu", "5", "--q", "15", "--threshold", "1e-10"),
        ("spectrum", "--nu", "3", "--q", "3", "--samples", "256"),
        ("cascade", "--nu", "3", "--q", "3", "--iterations", "4"),
        ("dwt", "--nu", "3", "--q", "3", "--levels", "2", "--input", str(sig)),
    ]
    for i, job in enumerate(jobs):
        first = tmp_path / f"run{i}a.out"
        second = tmp_path / f"run{i}b.out"
        assert cli_main(list(job) + ["--output", str(first)]) == 0
        assert cli_main(list(job) + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), job
    payload = json.loads((tmp_path / "run0a.out").read_text())
    assert abs(payload["a"] - A_REF_3_3) <= 1e-9
    print("criterion 9 (byte-identical CLI outputs across reruns): PASS")
