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
from .oracle import compare, integrate, shoot_even


def _fmt(x):
    return format(float(x), ".17g")


def _write(path, text):
    if path:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cells(column):
    """Text of one CSV column: a float array to 17 digits, anything else by str."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return map("{:.17g}".format, column.tolist())
    return map(str, column)


def _write_csv(path, header, *columns):
    """The header line, then one row per entry of the equal-length columns."""
    rows = map(",".join, zip(*map(_cells, columns)))
    _write(path, "\n".join([header, *rows]) + "\n")


def _read_lines(path, header, error):
    """Nonblank, stripped lines after the header; ValueError(error) unless it is ``header``."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != header:
        raise ValueError(error)
    return lines[1:]


def _numbers(texts):
    """float() of each text, refusing non-finite values."""
    values = np.array([float(t) for t in texts])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"non-finite value {texts[bad[0]]!r} in CSV input")
    return values


def _band_names(levels):
    return [f"a{levels}", *(f"d{lev}" for lev in range(1, levels + 1))]


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
    head = {"nu": params.nu, "q": _fmt(params.q), "a": _fmt(sol.a),
            "ce_at_zero": _fmt(value_at_zero(sol))}
    coeffs = list(_cells(sol.coeffs))
    if args.fmt == "json":
        lines = [
            "{",
            *(f'  "{name}": {value},' for name, value in head.items()),
            f'  "coeffs": [{", ".join(coeffs)}],',
            f'  "truncation_order": {sol.truncation_order}',
            "}",
        ]
        _write(args.output, "\n".join(lines) + "\n")
    else:
        fields = [*head, "truncation_order", *(f"A{m}" for m in sol.harmonics().tolist())]
        values = [*head.values(), sol.truncation_order, *coeffs]
        _write_csv(args.output, "field,value", fields, values)
    return 0


def _cmd_filters(args):
    params, sol = _prepare(args)
    bank = fb.build(params, sol, args.threshold)
    index = range(min(*bank.h, *bank.g), max(*bank.h, *bank.g) + 1)
    h, g = (np.array([taps.get(l, 0.0) for l in index]) for taps in (bank.h, bank.g))
    _write_csv(args.output, "index,h,g", index, h, g)
    return 0


def _cmd_spectrum(args):
    params, sol = _prepare(args)
    grid = fb.qmf_report(params, sol, args.samples)
    _write_csv(args.output, "omega,H_re,H_im,G_re,G_im,qmf_residual", grid.omegas,
               grid.H.real, grid.H.imag, grid.G.real, grid.G.imag, grid.qmf_residual)
    return 0


def _cmd_cascade(args):
    bank = _bank(args)
    level = args.level if args.level else args.iterations
    out = cascade_mod.run(bank, args.iterations, level)
    _write_csv(args.output, "t,phi,psi", out.t, out.phi, out.psi)
    return 0


def _read_bands(path):
    """Decomposition CSV written by dwt -> DwtResult; each band indexed 0..n-1."""
    bands = {}
    for ln in _read_lines(path, "band,index,value",
                          "decomposition CSV must have header 'band,index,value'"):
        band, idx, val = ln.split(",")
        bands.setdefault(band, []).append((int(idx), val))
    for band, rows in bands.items():
        rows.sort()
        if [i for i, _ in rows] != list(range(len(rows))):
            raise ValueError(f"band {band} indices must be exactly 0..{len(rows) - 1}")
    levels = len(bands) - 1
    if levels < 1:
        raise ValueError(f"decomposition level must be >= 1, got {levels}")
    names = _band_names(levels)
    if set(bands) != set(names):
        raise ValueError(f"decomposition bands must be exactly a{levels} and d1..d{levels}")
    approx, *details = (_numbers([v for _, v in bands[name]]) for name in names)
    return tf.DwtResult(levels, approx, details, approx.size * 2 ** levels)


def _cmd_dwt(args):
    bank = _bank(args)
    signal = _numbers(_read_lines(args.input, "x",
                                  "signal CSV must have a single column with header 'x'"))
    res = tf.forward(signal, bank, args.levels)
    bands = [res.approx, *res.details]
    _write_csv(args.output, "band,index,value",
               [name for name, b in zip(_band_names(res.levels), bands) for _ in range(b.size)],
               [i for b in bands for i in range(b.size)], np.concatenate(bands))
    return 0


def _cmd_idwt(args):
    bank = _bank(args)
    signal = tf.inverse(_read_bands(args.input), bank)
    _write_csv(args.output, "x", signal)
    return 0


def _cmd_validate(args):
    params, sol = _prepare(args)
    tol = 1e-10
    a_shoot = shoot_even(params.nu, params.q, tol=tol)
    traj = integrate(sol.a, params.q, 1.0, 0.0, math.pi)
    # Relative: the solution's amplitude, not the oracle, sets the absolute gap.
    sup_err = compare(sol, traj) / np.max(np.abs(traj.y))
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
        f"shooting tolerance: {_fmt(tol)}",
        f"series vs trajectory sup error relative to max|y|: {_fmt(sup_err)}",
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
