"""Command-line surface: deterministic file outputs for every subsystem.

All numbers are printed with 17 significant digits and '\n' line endings,
so identical flags always yield byte-identical files.
"""

import argparse
import math
import sys

import numpy as np

from . import cascade as cascade_mod
from . import filterbank as fb
from . import transform as tf
from .core import ConvergenceError, MathieuParams, count_zeros, solve_even, value_at_zero
from .oracle import DEFAULT_STEP, compare, integrate, shoot_even


def _fmt(x):
    return format(float(x), ".17g")


def _write(path, text):
    if path:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _prepare(args):
    params = MathieuParams(args.nu, args.q)
    sol = solve_even(params)
    return params, sol


def _bank(args):
    """The sign-corrected bank that cascade, dwt and idwt run on."""
    params, sol = _prepare(args)
    return fb.sign_correct(fb.build(params, sol, args.threshold))


def _cmd_eigen(args):
    params, sol = _prepare(args)
    coeffs = [_fmt(c) for c in sol.coeffs]
    if args.fmt == "json":
        lines = [
            "{",
            f'  "nu": {params.nu},',
            f'  "q": {_fmt(params.q)},',
            f'  "a": {_fmt(sol.a)},',
            f'  "ce_at_zero": {_fmt(value_at_zero(sol))},',
            f'  "coeffs": [{", ".join(coeffs)}],',
            f'  "truncation_order": {sol.truncation_order}',
            "}",
        ]
        _write(args.output, "\n".join(lines) + "\n")
    else:
        rows = ["field,value"]
        rows.append(f"nu,{params.nu}")
        rows.append(f"q,{_fmt(params.q)}")
        rows.append(f"a,{_fmt(sol.a)}")
        rows.append(f"ce_at_zero,{_fmt(value_at_zero(sol))}")
        rows.append(f"truncation_order,{sol.truncation_order}")
        for k, c in enumerate(sol.coeffs):
            rows.append(f"A{2 * k + 1},{_fmt(c)}")
        _write(args.output, "\n".join(rows) + "\n")
    return 0


def _cmd_filters(args):
    params, sol = _prepare(args)
    bank = fb.build(params, sol, args.threshold)
    lo = min(bank.support("h") + bank.support("g"))
    hi = max(bank.support("h") + bank.support("g"))
    rows = ["index,h,g"]
    for l in range(lo, hi + 1):
        rows.append(f"{l},{_fmt(bank.h.get(l, 0.0))},{_fmt(bank.g.get(l, 0.0))}")
    _write(args.output, "\n".join(rows) + "\n")
    return 0


def _cmd_spectrum(args):
    params, sol = _prepare(args)
    grid = fb.qmf_report(params, sol, args.samples)
    rows = ["omega,H_re,H_im,G_re,G_im,qmf_residual"]
    for w, H, G, r in zip(grid.omegas, grid.H, grid.G, grid.qmf_residual):
        rows.append(
            f"{_fmt(w)},{_fmt(H.real)},{_fmt(H.imag)},{_fmt(G.real)},{_fmt(G.imag)},{_fmt(r)}"
        )
    _write(args.output, "\n".join(rows) + "\n")
    return 0


def _cmd_cascade(args):
    bank = _bank(args)
    level = args.level if args.level else args.iterations
    out = cascade_mod.run(bank, args.iterations, level)
    rows = ["t,phi,psi"]
    for t, p, s in zip(out.t, out.phi, out.psi):
        rows.append(f"{_fmt(t)},{_fmt(p)},{_fmt(s)}")
    _write(args.output, "\n".join(rows) + "\n")
    return 0


def _number(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r} in CSV input")
    return value


def _read_signal(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "x":
        raise ValueError("signal CSV must have a single column with header 'x'")
    return np.array([_number(v) for v in lines[1:]])


def _read_bands(path):
    """Decomposition CSV written by dwt -> DwtResult; each band indexed 0..n-1."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "band,index,value":
        raise ValueError("decomposition CSV must have header 'band,index,value'")
    bands = {}
    for ln in lines[1:]:
        band, idx, val = ln.split(",")
        bands.setdefault(band, []).append((int(idx), _number(val)))
    for band, rows in bands.items():
        rows.sort()
        if [i for i, _ in rows] != list(range(len(rows))):
            raise ValueError(f"band {band} indices must be exactly 0..{len(rows) - 1}")
    approx_keys = [b for b in bands if b.startswith("a")]
    if len(approx_keys) != 1:
        raise ValueError("decomposition must contain exactly one approximation band")
    levels = int(approx_keys[0][1:])
    if levels < 1:
        raise ValueError(f"decomposition level must be >= 1, got {levels}")
    names = [f"d{lev}" for lev in range(1, levels + 1)]
    if set(bands) != {approx_keys[0], *names}:
        raise ValueError(f"decomposition bands must be exactly {approx_keys[0]} and d1..d{levels}")
    approx = np.array([v for _, v in bands[approx_keys[0]]])
    details = [np.array([v for _, v in bands[key]]) for key in names]
    return tf.DwtResult(levels, approx, details, approx.size * 2 ** levels)


def _cmd_dwt(args):
    bank = _bank(args)
    signal = _read_signal(args.input)
    res = tf.forward(signal, bank, args.levels)
    rows = ["band,index,value"]
    for i, v in enumerate(res.approx):
        rows.append(f"a{res.levels},{i},{_fmt(v)}")
    for lev, det in enumerate(res.details, start=1):
        for i, v in enumerate(det):
            rows.append(f"d{lev},{i},{_fmt(v)}")
    _write(args.output, "\n".join(rows) + "\n")
    return 0


def _cmd_idwt(args):
    bank = _bank(args)
    res = _read_bands(args.input)
    signal = tf.inverse(res, bank)
    rows = ["x"] + [_fmt(v) for v in signal]
    _write(args.output, "\n".join(rows) + "\n")
    return 0


def _cmd_validate(args):
    params, sol = _prepare(args)
    a_shoot = shoot_even(params.nu, params.q, bracket=(sol.a - 0.5, sol.a + 0.5))
    traj = integrate(sol.a, params.q, 1.0, 0.0, math.pi, step=DEFAULT_STEP)
    sup_err = compare(sol, traj)
    grid = fb.qmf_report(params, sol, args.samples)
    zeros_fn = count_zeros(sol)
    zeros_h = fb.count_transfer_zeros(params, sol, "H")
    zeros_g = fb.count_transfer_zeros(params, sol, "G")
    lines = [
        f"nu: {params.nu}",
        f"q: {_fmt(params.q)}",
        f"characteristic value (matrix): {_fmt(sol.a)}",
        f"characteristic value (shooting): {_fmt(a_shoot)}",
        f"matrix vs shooting difference: {_fmt(abs(sol.a - a_shoot))}",
        f"series vs trajectory sup error: {_fmt(sup_err)}",
        f"phase-pairing identity max residual: {_fmt(np.max(grid.phase_residual))}",
        f"power-complementarity max residual: {_fmt(np.max(grid.qmf_residual))}",
        f"series zeros on half period: {zeros_fn}",
        f"smoothing-transfer zeros on full period: {zeros_h}",
        f"detail-transfer zeros on full period: {zeros_g}",
    ]
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mathieu-mra",
        description="Elliptic-cylinder multiresolution analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, fmt_default=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--nu", type=int, required=True, help="odd characteristic exponent")
        p.add_argument("--q", type=float, required=True, help="intensity parameter")
        p.add_argument("--output", default="", help="output path (default: stdout)")
        if fmt_default:
            p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=fmt_default)
        return p

    command("eigen", _cmd_eigen, "characteristic value and series coefficients", fmt_default="json")

    p = command("filters", _cmd_filters, "truncated smoothing/detail tap table (CSV)")
    p.add_argument("--threshold", type=float, default=1e-10)

    p = command("spectrum", _cmd_spectrum, "sampled transfer functions and QMF residual (CSV)")
    p.add_argument("--samples", type=int, default=1024)

    p = command("cascade", _cmd_cascade, "scaling function / wavelet samples (CSV)")
    p.add_argument("--threshold", type=float, default=1e-10)
    p.add_argument("--iterations", type=int, default=6)
    p.add_argument("--level", type=int, default=0, help="output grid level (default: iterations)")

    p = command("dwt", _cmd_dwt, "multilevel periodic analysis of a CSV signal")
    p.add_argument("--threshold", type=float, default=1e-10)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--input", required=True, help="single-column CSV with header 'x'")

    p = command("idwt", _cmd_idwt, "synthesis from a dwt decomposition CSV")
    p.add_argument("--threshold", type=float, default=1e-10)
    p.add_argument("--input", required=True, help="CSV with header 'band,index,value'")

    p = command("validate", _cmd_validate, "cross-checks: shooting, trajectory, identities")
    p.add_argument("--samples", type=int, default=1024)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
