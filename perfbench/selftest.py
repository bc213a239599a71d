"""Perturbation self-test of the benchmark's output checks.

Usage (from the repository root): python3 perfbench/selftest.py

Each check first sees a real program output and must pass; then it sees
copies with one value moved slightly (a relative 1e-8 or less, a count off
by one, one tap dropped) and must fail every time.  The CLI checks read
real output files, each rewritten with one number perturbed.  Prints one
line per case and exits 1 if any check passes a perturbed output or fails
a correct one.
"""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ["PYTHONPATH"] = os.path.join(os.path.dirname(HERE), "src")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as W  # noqa: E402

failures = []


def expect(label, check, clean, perturbed):
    """``check(clean)`` passes; ``check(p)`` raises CheckFailed for each p."""
    try:
        check(clean)
    except checks.CheckFailed as exc:
        failures.append(f"{label}: rejects the real output: {exc}")
        print(f"FAIL {label}: rejects the real output")
        return
    for what, p in perturbed:
        try:
            check(p)
        except checks.CheckFailed:
            print(f"ok   {label}: caught {what}")
        else:
            failures.append(f"{label}: accepts {what}")
            print(f"FAIL {label}: accepts {what}")


def bump(arr, i, delta):
    out = np.array(arr, dtype=np.result_type(arr, float), copy=True)
    out[i] += delta
    return out


def design_cases():
    nu, q = 5, 11.0
    sol, raw, bank, grid, zeros, out = W.characterise(nu, q)
    expect("eigenvalue", lambda a: checks.eigenvalue(nu, q, a), sol.a,
           [("a * (1 + 1e-9)", sol.a * (1 + 1e-9))])
    expect("coefficients", lambda c: checks.coefficients(nu, q, c), sol.coeffs,
           [("A_3 + 1e-10", bump(sol.coeffs, 1, 1e-10)),
            ("tail term 1e-12", bump(sol.coeffs, len(sol.coeffs) - 1, 1e-12))])
    ce0 = float(np.sum(sol.coeffs))
    expect("ce(0)", lambda v: checks.coefficients(nu, q, sol.coeffs, ce_at_zero=v), ce0,
           [("ce(0) * (1 + 1e-10)", ce0 * (1 + 1e-10))])
    l0 = min(raw.h)
    l_mid = sorted(raw.h)[len(raw.h) // 2]
    expect("taps", lambda hg: checks.taps(nu, q, *hg, W.THRESHOLD, False), (raw.h, raw.g),
           [("h_mid + 1e-11", ({**raw.h, l_mid: raw.h[l_mid] + 1e-11}, raw.g)),
            ("outermost h tap dropped", ({l: v for l, v in raw.h.items() if l != l0}, raw.g)),
            ("sign-corrected h passed as raw", (bank.h, raw.g))])
    expect("spectrum", lambda s: checks.spectrum(nu, q, *s),
           (grid.omegas, grid.H, grid.G, grid.qmf_residual),
           [("H[100] + 1e-9", (grid.omegas, bump(grid.H, 100, 1e-9), grid.G, grid.qmf_residual)),
            ("G[300] + 1e-9j", (grid.omegas, grid.H, bump(grid.G, 300, 1e-9j), grid.qmf_residual)),
            ("qmf[5] + 1e-8", (grid.omegas, grid.H, grid.G, bump(grid.qmf_residual, 5, 1e-8)))])
    expect("zero counts", lambda z: checks.zero_counts(nu, q, *z), zeros,
           [("|H| count + 1", (zeros[0] + 1, zeros[1], zeros[2])),
            ("|G| count - 1", (zeros[0], zeros[1] - 1, zeros[2])),
            ("ce count + 1", (zeros[0], zeros[1], zeros[2] + 1))])
    k = int(np.argmax(np.abs(out.phi)))
    expect("cascade", lambda c: checks.cascade(nu, q, 10, *c), (out.t, out.phi, out.psi),
           [("phi at its peak * (1 + 1e-8)", (out.t, bump(out.phi, k, 1e-8 * out.phi[k]), out.psi)),
            ("psi[k] + 1e-8", (out.t, out.phi, bump(out.psi, k, 1e-8))),
            ("grid cut short", (out.t[:-40], out.phi[:-40], out.psi[:-40]))])


def dwt_cases():
    wl = W.DwtRoundtrip(7, None)
    wl.setup()
    for op in wl.round(0)[10:12]:  # 2^15 samples: q = 0 (2 taps) and 16 taps
        b, levels, x = op.prepare()
        res, y = op.call((b, levels, x))
        nu, q = W.BANKS[b]
        h, g = W._ref_taps(nu, q)
        expect(f"forward ({nu},{q})", lambda o: checks.forward(x, h, g, levels, *o),
               (res.approx, res.details),
               [("d1[3] + 1e-8", (res.approx, [bump(res.details[0], 3, 1e-8)] + res.details[1:])),
                ("a_L[0] + 1e-8", (bump(res.approx, 0, 1e-8), res.details))])
        original = x if q == 0.0 else None
        expect(f"inverse ({nu},{q})",
               lambda v: checks.inverse(res.approx, res.details, h, g, v, original), y,
               [("y[11] + 1e-8", bump(y, 11, 1e-8))])
        if original is not None:
            expect("q=0 reconstruction",
                   lambda v: checks.inverse(res.approx, res.details, h, g, y, v), x,
                   [("x[11] + 1e-8", bump(x, 11, 1e-8))])


def oracle_cases():
    nu, q = 7, 13.0
    sol, a_shoot, traj, gap = W.validate(nu, q)
    expect("shooting", lambda a: checks.shooting(nu, q, a), a_shoot,
           [("a_shoot + 2e-8", a_shoot + 2e-8)])
    mid = (len(traj.grid) - 1) // 2
    expect("trajectory", lambda t: checks.trajectory(nu, q, *t), (traj.grid, traj.y, gap),
           [("y(pi/2) + 1e-8", (traj.grid, bump(traj.y, mid, 1e-8), gap)),
            ("y[100] + 2e-7", (traj.grid, bump(traj.y, 100, 2e-7), gap)),
            ("compare gap + 1e-8", (traj.grid, traj.y, gap + 1e-8))])


def perturb_file(path, col, row=None, rel=1e-8):
    """Scale one value of column ``col`` by (1 + rel): the one in ``row``, or
    else the largest in magnitude."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    rows = [ln.split(",") for ln in lines]
    if row is None:
        row = max(range(1, len(rows) - 1), key=lambda i: abs(float(rows[i][col])))
    rows[row][col] = format(float(rows[row][col]) * (1 + rel), ".17g")
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(r) for r in rows))
    return row


def cli_cases():
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        wl = W.CliFiles(11, tmp)
        wl.setup()
        for op in wl.round(0):
            inp = op.prepare()
            path = op.call(inp)
            with open(path) as fh:
                text = fh.read()

            def check(content, op=op, inp=inp, path=path):
                with open(path, "w") as fh:
                    fh.write(content)
                op.check(inp, path)

            if path.endswith(".json"):
                a_line = next(ln for ln in text.split("\n") if '"a"' in ln)
                a = float(a_line.split(":")[1].rstrip(","))
                bad = [("a * (1 + 1e-9) in the file", text.replace(a_line, f'  "a": {a * (1 + 1e-9)!r},'))]
            else:
                # eigen.csv: the "a" row; elsewhere the largest value of a data column
                col, row = {"idwt.csv": (0, None), "dwt.csv": (2, None),
                            "eigen.csv": (1, 3)}.get(os.path.basename(path), (1, None))
                row = perturb_file(path, col, row)
                with open(path) as fh:
                    bad = [(f"row {row} col {col} * (1 + 1e-8) in the file", fh.read())]
            expect(f"cli {op.kind} {os.path.basename(path)}", check, text, bad)
            check(text)  # restore for the next subcommand (idwt reads dwt.csv)


if __name__ == "__main__":
    design_cases()
    dwt_cases()
    oracle_cases()
    cli_cases()
    print(f"{len(failures)} check(s) misbehaved" if failures else "every check passes real outputs and fails perturbed ones")
    sys.exit(1 if failures else 0)
