"""The four workloads: inputs drawn from the seed, operations and their checks.

A workload hands the harness one round of operations at a time.  Every
round has the same make-up (the same operation kinds, design strata,
signal sizes and banks); only the drawn values change from round to round,
so a run that fits more rounds does more of the same work, and no result
can be reused from an earlier round.  Calls go through module attributes
(``core.solve_even``, ...) so that the traced run sees them.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import checks
from mathieu_mra import cascade, core, filterbank, oracle, transform

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THRESHOLD = 1e-10
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# q ranges per nu where the cascade converges: the transition operator of
# the truncated bank has spectral radius 1 and a subdominant eigenvalue
# below 1 (measured by domain.py; see README.md)
DOMAIN = {3: (1.0, 5.0), 5: (1.0, 15.0), 7: (1.0, 30.0), 9: (1.0, 30.0)}


@dataclass(frozen=True)
class Op:
    """One timed operation: ``prepare`` (untimed) makes its input, ``call``
    (timed) runs the program on it, ``check`` (untimed) verifies the output."""

    kind: str
    prepare: Callable
    call: Callable
    check: Callable


def design_sequence(seed):
    """Round r -> one design (nu, q) per nu of DOMAIN.  q walks a golden-ratio
    sequence from a seeded start, so any number of rounds covers each q
    range evenly and every seed gives the same spread of design costs."""
    start = np.random.default_rng([seed, 1]).random(len(DOMAIN))

    def designs(r):
        return [
            (nu, lo + (hi - lo) * ((s + r * GOLDEN) % 1.0))
            for s, (nu, (lo, hi)) in zip(start, DOMAIN.items())
        ]

    return designs


def _bank(nu, q):
    params = core.MathieuParams(nu, q)
    sol = core.solve_even(params)
    return filterbank.sign_correct(filterbank.build(params, sol, THRESHOLD))


def _ref_taps(nu, q):
    h, g, _ = checks.reference_taps(nu, q, THRESHOLD, True)
    return checks.as_arrays(h), checks.as_arrays(g)


# -- design-sweep ---------------------------------------------------------------


def characterise(nu, q):
    params = core.MathieuParams(nu, q)
    sol = core.solve_even(params)
    raw = filterbank.build(params, sol, THRESHOLD)
    bank = filterbank.sign_correct(raw)
    grid = filterbank.qmf_report(params, sol, 1024)
    zeros = (
        filterbank.count_transfer_zeros(params, sol, "H"),
        filterbank.count_transfer_zeros(params, sol, "G"),
        core.count_zeros(sol),
    )
    out = cascade.run(bank, 10, 10)
    return sol, raw, bank, grid, zeros, out


def check_design(nu, q, result):
    sol, raw, bank, grid, zeros, out = result
    checks.eigenvalue(nu, q, sol.a)
    checks.coefficients(nu, q, sol.coeffs)
    checks.taps(nu, q, raw.h, raw.g, THRESHOLD, sign_corrected=False)
    checks.taps(nu, q, bank.h, bank.g, THRESHOLD, sign_corrected=True)
    checks.spectrum(nu, q, grid.omegas, grid.H, grid.G, grid.qmf_residual)
    checks.zero_counts(nu, q, *zeros)
    checks.cascade(nu, q, 10, out.t, out.phi, out.psi)


class PerDesign:
    """One operation per design of ``design_sequence``: design-sweep runs
    ``characterise``, oracle-validate runs ``validate``, on the same designs."""

    def __init__(self, seed, workdir, kind, run, check):
        self.designs = design_sequence(seed)
        self.kind, self.run, self.check = kind, run, check

    def setup(self):
        pass

    def round(self, r):
        return [
            Op(
                self.kind,
                lambda nu=nu, q=q: (nu, q),
                lambda inp: self.run(*inp),
                lambda inp, res: self.check(*inp, res),
            )
            for nu, q in self.designs(r)
        ]


# -- dwt-roundtrip ----------------------------------------------------------------

# 2 taps (stretched Haar, exact reconstruction), then 16, 20, 24 and 28 taps
BANKS = ((3, 0.0), (3, 3.0), (5, 5.0), (5, 15.0), (7, 20.0))
SIZES = ((2 ** 12, 4), (2 ** 15, 5), (2 ** 18, 6))  # (samples, levels)


def make_signal(rng, n, kind):
    if kind == "noise":
        return rng.standard_normal(n)
    t = np.arange(n) / n
    f0, f1 = rng.uniform(1.0, 20.0), rng.uniform(n / 16, n / 4)
    return np.sin(2.0 * math.pi * (f0 * t + 0.5 * (f1 - f0) * t * t) + rng.uniform(0, 2 * math.pi))


class DwtRoundtrip:
    """forward then inverse on seeded signals; 15 operations per round cover
    every (bank, size) pair once, so the operation mix is fixed."""

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        self.banks = [_bank(nu, q) for nu, q in BANKS]

    def round(self, r):
        ops = []
        for i in range(len(BANKS) * len(SIZES)):
            b, (n, levels) = i % len(BANKS), SIZES[i % len(SIZES)]
            kind = ("noise", "chirp")[i % 2]
            seed = (self.seed, 2, r, i)
            ops.append(
                Op(
                    "roundtrip",
                    lambda b=b, n=n, levels=levels, kind=kind, seed=seed: (
                        b, levels, make_signal(np.random.default_rng(seed), n, kind)),
                    self.roundtrip,
                    self.check_roundtrip,
                )
            )
        return ops

    def roundtrip(self, inp):
        b, levels, x = inp
        res = transform.forward(x, self.banks[b], levels)
        return res, transform.inverse(res, self.banks[b])

    def check_roundtrip(self, inp, out):
        b, levels, x = inp
        res, y = out
        nu, q = BANKS[b]
        checks.taps(nu, q, self.banks[b].h, self.banks[b].g, THRESHOLD, sign_corrected=True)
        h, g = _ref_taps(nu, q)
        checks.forward(x, h, g, levels, res.approx, res.details)
        checks.inverse(res.approx, res.details, h, g, y, original=x if q == 0.0 else None)


# -- oracle-validate ------------------------------------------------------------------


def validate(nu, q):
    sol = core.solve_even(core.MathieuParams(nu, q))
    a_shoot = oracle.shoot_even(nu, q)
    traj = oracle.integrate(sol.a, q, 1.0, 0.0, math.pi)
    return sol, a_shoot, traj, oracle.compare(sol, traj)


def check_validate(nu, q, result):
    sol, a_shoot, traj, gap = result
    checks.eigenvalue(nu, q, sol.a)
    checks.shooting(nu, q, a_shoot)
    checks.trajectory(nu, q, traj.grid, traj.y, gap)


# -- cli-files ----------------------------------------------------------------------------

CLI_NU = 5
CLI_SIGNAL = 2 ** 14
CLI_LEVELS = 4
CLI_ITERATIONS, CLI_LEVEL = 8, 9


def _rows(path):
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[-1] != "":
        raise checks.CheckFailed(f"{path}: no final newline")
    return [ln.split(",") for ln in lines[:-1]]


def _columns(path, header):
    rows = _rows(path)
    if rows[0] != header.split(","):
        raise checks.CheckFailed(f"{path}: header {rows[0]}")
    return [np.array([float(v) for v in col]) for col in zip(*rows[1:])]


def _read_bands(path):
    rows = _rows(path)
    if rows[0] != ["band", "index", "value"]:
        raise checks.CheckFailed(f"{path}: header {rows[0]}")
    bands = {}
    for band, idx, val in rows[1:]:
        bands.setdefault(band, []).append((int(idx), float(val)))
    return {b: np.array([v for _, v in sorted(vals)]) for b, vals in bands.items()}


class CliFiles:
    """One ``python -m mathieu_mra`` process per operation, output to files.

    A round runs seven processes on one seeded design: eigen (json and
    csv), filters, spectrum, cascade, dwt on the seeded signal, and idwt on
    that dwt output.  Child processes run one at a time."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.signal_path = os.path.join(workdir, "signal.csv")
        start = np.random.default_rng([seed, 4]).random()
        lo, hi = DOMAIN[CLI_NU]
        self.q_of = lambda r: lo + (hi - lo) * ((start + r * GOLDEN) % 1.0)
        self.tracer = None  # set by the harness for the traced pass

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        x = make_signal(rng, CLI_SIGNAL, "chirp") + 0.25 * rng.standard_normal(CLI_SIGNAL)
        with open(self.signal_path, "w", newline="\n") as fh:
            fh.write("x\n" + "".join(format(v, ".17g") + "\n" for v in x))
        self.signal = x

    def round(self, r):
        q = self.q_of(r)
        design = ["--nu", str(CLI_NU), "--q", repr(q)]

        def out(name):
            return os.path.join(self.workdir, name)

        jobs = [
            ("eigen", ["--format", "json"], "eigen.json", self.check_eigen_json),
            ("eigen", ["--format", "csv"], "eigen.csv", self.check_eigen_csv),
            ("filters", [], "filters.csv", self.check_filters),
            ("spectrum", ["--samples", "1024"], "spectrum.csv", self.check_spectrum),
            ("cascade", ["--iterations", str(CLI_ITERATIONS), "--level", str(CLI_LEVEL)],
             "cascade.csv", self.check_cascade),
            ("dwt", ["--levels", str(CLI_LEVELS), "--input", self.signal_path], "dwt.csv",
             self.check_dwt),
            ("idwt", ["--input", out("dwt.csv")], "idwt.csv", self.check_idwt),
        ]
        return [
            Op(
                sub,
                lambda sub=sub, extra=extra, name=name: (sub, [sub] + design + extra + ["--output", out(name)], out(name)),
                self.run_cli,
                lambda inp, res, check=check, q=q: check(q, inp[2]),
            )
            for sub, extra, name, check in jobs
        ]

    def run_cli(self, inp):
        sub, argv, path = inp
        tracer = self.tracer
        if tracer is None:
            cmd = [sys.executable, "-m", "mathieu_mra"] + argv
        else:
            spans = os.path.join(self.workdir, "spans.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans] + argv
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"{sub} exited {proc.returncode}: {proc.stderr.strip()}")
        if tracer is not None:
            with open(spans) as fh:
                tracer.adopt(json.load(fh), parent=tracer.current())
        return path

    def check_eigen_json(self, q, path):
        with open(path) as fh:
            doc = json.load(fh)
        self._check_eigen(q, doc["nu"], doc["q"], doc["a"], doc["ce_at_zero"], doc["coeffs"],
                          doc["truncation_order"])

    def check_eigen_csv(self, q, path):
        rows = _rows(path)
        if rows[0] != ["field", "value"]:
            raise checks.CheckFailed(f"{path}: header {rows[0]}")
        fields = dict(rows[1:6])
        coeffs = [float(v) for k, v in rows[6:]]
        if [k for k, _ in rows[6:]] != [f"A{2 * i + 1}" for i in range(len(coeffs))]:
            raise checks.CheckFailed(f"{path}: coefficient rows out of order")
        self._check_eigen(q, int(fields["nu"]), float(fields["q"]), float(fields["a"]),
                          float(fields["ce_at_zero"]), coeffs, int(fields["truncation_order"]))

    def _check_eigen(self, q, nu, q_out, a, ce0, coeffs, order):
        if nu != CLI_NU or q_out != q or order != len(coeffs):
            raise checks.CheckFailed(f"eigen header: nu={nu} q={q_out!r} order={order}")
        checks.eigenvalue(nu, q, a)
        checks.coefficients(nu, q, coeffs, ce_at_zero=ce0)

    def check_filters(self, q, path):
        index, h, g = _columns(path, "index,h,g")
        if not np.array_equal(index, np.arange(index[0], index[-1] + 1)):
            raise checks.CheckFailed(f"{path}: index column is not consecutive")
        taps = {w: {int(l): v for l, v in zip(index, col) if v != 0.0} for w, col in (("h", h), ("g", g))}
        checks.taps(CLI_NU, q, taps["h"], taps["g"], THRESHOLD, sign_corrected=False)

    def check_spectrum(self, q, path):
        om, h_re, h_im, g_re, g_im, qmf = _columns(path, "omega,H_re,H_im,G_re,G_im,qmf_residual")
        checks.spectrum(CLI_NU, q, om, h_re + 1j * h_im, g_re + 1j * g_im, qmf)

    def check_cascade(self, q, path):
        t, phi, psi = _columns(path, "t,phi,psi")
        checks.cascade(CLI_NU, q, CLI_ITERATIONS, t, phi, psi)

    def _bands(self):
        bands = _read_bands(os.path.join(self.workdir, "dwt.csv"))
        want = {f"a{CLI_LEVELS}"} | {f"d{k}" for k in range(1, CLI_LEVELS + 1)}
        if set(bands) != want:
            raise checks.CheckFailed(f"dwt bands {sorted(bands)}")
        return bands[f"a{CLI_LEVELS}"], [bands[f"d{k}"] for k in range(1, CLI_LEVELS + 1)]

    def check_dwt(self, q, path):
        approx, details = self._bands()
        h, g = _ref_taps(CLI_NU, q)
        checks.forward(self.signal, h, g, CLI_LEVELS, approx, details)

    def check_idwt(self, q, path):
        (x,) = _columns(path, "x")
        approx, details = self._bands()
        h, g = _ref_taps(CLI_NU, q)
        checks.inverse(approx, details, h, g, x)


WORKLOADS = {
    "design-sweep": partial(PerDesign, kind="design", run=characterise, check=check_design),
    "dwt-roundtrip": DwtRoundtrip,
    "oracle-validate": partial(PerDesign, kind="validate", run=validate, check=check_validate),
    "cli-files": CliFiles,
}
