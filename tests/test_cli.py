import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mathieu_mra
from mathieu_mra.cli import main


def run_cli(*args):
    return main(list(args))


def read(path):
    return path.read_bytes()


def test_eigen_json(tmp_path, capsys):
    assert run_cli("eigen", "--nu", "3", "--q", "3") == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["a"] - 9.915506290452134) <= 1e-9
    assert payload["nu"] == 3
    assert set(payload) == {"nu", "q", "a", "ce_at_zero", "coeffs", "truncation_order"}
    assert len(payload["coeffs"]) == payload["truncation_order"]


def test_eigen_csv(tmp_path):
    out = tmp_path / "eig.csv"
    assert run_cli("eigen", "--nu", "1", "--q", "0", "--format", "csv", "--output", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "field,value"
    assert "a,1" in lines


SUBCOMMANDS = ("eigen", "filters", "spectrum", "cascade", "dwt", "idwt", "validate")


@pytest.mark.parametrize("nu", ["2", "0", "-3"])
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_even_order_rejected(tmp_path, capsys, command, nu):
    sig = tmp_path / "sig.csv"
    _write_signal(sig)
    dec = tmp_path / "dec.csv"
    _write_bands(dec, ["a1,0,1", "d1,0,0"])
    extra = {"dwt": ["--levels", "1", "--input", str(sig)], "idwt": ["--input", str(dec)]}
    out = tmp_path / "out"
    assert run_cli(command, "--nu", nu, "--q", "1", "--output", str(out),
                   *extra.get(command, [])) == 2
    assert "nu must be odd" in capsys.readouterr().err
    assert not out.exists()


def test_unparsable_flags_exit_2(capsys):
    assert run_cli("eigen", "--nu", "three", "--q", "1") == 2


def test_nonconvergence_exit_3(capsys):
    assert run_cli("eigen", "--nu", "1", "--q", "1e9") == 3
    assert "error" in capsys.readouterr().err


def test_filters_csv_schema(tmp_path):
    out = tmp_path / "filters.csv"
    assert run_cli("filters", "--nu", "5", "--q", "15", "--threshold", "1e-10",
                   "--output", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,h,g"
    rows = [ln.split(",") for ln in lines[1:]]
    indices = [int(r[0]) for r in rows]
    assert indices == list(range(min(indices), max(indices) + 1))  # union support
    h_nonzero = sum(1 for r in rows if float(r[1]) != 0.0)
    g_nonzero = sum(1 for r in rows if float(r[2]) != 0.0)
    assert h_nonzero == 24 and g_nonzero == 24  # measured truncation counts


def test_spectrum_csv_schema(tmp_path):
    out = tmp_path / "spec.csv"
    assert run_cli("spectrum", "--nu", "3", "--q", "3", "--samples", "64",
                   "--output", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "omega,H_re,H_im,G_re,G_im,qmf_residual"
    assert len(lines) == 65
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == -1.0


def test_cascade_csv(tmp_path):
    out = tmp_path / "cascade.csv"
    assert run_cli("cascade", "--nu", "1", "--q", "0", "--iterations", "4",
                   "--output", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,phi,psi"
    t, phi, psi = zip(*(map(float, ln.split(",")) for ln in lines[1:]))
    assert max(phi) == pytest.approx(1.0, abs=1e-12)
    assert min(psi) == pytest.approx(-1.0, abs=1e-12)


def _write_signal(path, n=32, seed=3):
    values = np.random.default_rng(seed).standard_normal(n)
    path.write_text("x\n" + "\n".join(format(v, ".17g") for v in values) + "\n")
    return values


def test_dwt_idwt_round_trip(tmp_path):
    sig = tmp_path / "sig.csv"
    dec = tmp_path / "dec.csv"
    rec = tmp_path / "rec.csv"
    values = _write_signal(sig)
    assert run_cli("dwt", "--nu", "3", "--q", "0", "--levels", "2",
                   "--input", str(sig), "--output", str(dec)) == 0
    lines = dec.read_text().splitlines()
    assert lines[0] == "band,index,value"
    bands = {ln.split(",")[0] for ln in lines[1:]}
    assert bands == {"a2", "d1", "d2"}
    assert run_cli("idwt", "--nu", "3", "--q", "0",
                   "--input", str(dec), "--output", str(rec)) == 0
    back = np.array([float(v) for v in rec.read_text().splitlines()[1:]])
    assert np.max(np.abs(back - values)) <= 1e-12


def test_dwt_rejects_bad_header(tmp_path):
    sig = tmp_path / "sig.csv"
    sig.write_text("y\n1.0\n2.0\n")
    assert run_cli("dwt", "--nu", "1", "--q", "0", "--levels", "1",
                   "--input", str(sig)) == 2


@pytest.mark.parametrize("value, code", [("1e308", 0), ("nan", 2), ("inf", 2), ("-inf", 2)])
def test_dwt_rejects_non_finite(tmp_path, capsys, value, code):
    sig = tmp_path / "sig.csv"
    out = tmp_path / "dec.csv"
    sig.write_text(f"x\n1.0\n{value}\n")
    assert run_cli("dwt", "--nu", "1", "--q", "0", "--levels", "1",
                   "--input", str(sig), "--output", str(out)) == code
    assert out.exists() == (code == 0)
    if code:
        assert "non-finite" in capsys.readouterr().err


def _write_bands(path, rows):
    path.write_text("band,index,value\n" + "".join(f"{r}\n" for r in rows))


IN_ORDER = ["a1,0,1", "a1,1,2", "d1,0,3", "d1,1,4"]


@pytest.mark.parametrize(
    "rows, code, message",
    [
        pytest.param(IN_ORDER, 0, None, id="in-order"),
        pytest.param(["d1,1,4", "a1,1,2", "d1,0,3", "a1,0,1"], 0, None, id="any-order"),
        pytest.param(["a1,0,1", "a1,0,2", "d1,0,3", "d1,1,4"], 2, "indices", id="repeated"),
        pytest.param(["a1,0,1", "a1,2,2", "d1,0,3", "d1,1,4"], 2, "indices", id="gap"),
        pytest.param(["a1,1,1", "a1,2,2", "d1,0,3", "d1,1,4"], 2, "indices", id="from-1"),
        pytest.param(["a1,0,1", "a1,1,2", "d1,-1,3", "d1,0,4"], 2, "indices", id="negative"),
        pytest.param(IN_ORDER + ["d2,0,5", "d2,1,6"], 2, "bands", id="stray-band"),
        pytest.param(["a2,0,1", "d2,0,3"], 2, "bands", id="missing-band"),
        pytest.param(["a1,0,1", "a1,1,inf", "d1,0,3", "d1,1,4"], 2, "non-finite", id="inf"),
        pytest.param(["a1,0,1", "a1,1,2", "d1,0,nan", "d1,1,4"], 2, "non-finite", id="nan"),
        pytest.param(["a0,0,5"], 2, "level", id="level-0"),
    ],
)
def test_idwt_band_checks(tmp_path, capsys, rows, code, message):
    dec = tmp_path / "dec.csv"
    out = tmp_path / "rec.csv"
    _write_bands(dec, rows)
    assert run_cli("idwt", "--nu", "1", "--q", "0",
                   "--input", str(dec), "--output", str(out)) == code
    if code:
        assert message in capsys.readouterr().err
        assert not out.exists()
    else:
        ref = tmp_path / "ref.csv"
        _write_bands(dec, IN_ORDER)
        assert run_cli("idwt", "--nu", "1", "--q", "0",
                       "--input", str(dec), "--output", str(ref)) == 0
        assert read(out) == read(ref)


def test_dwt_rejects_bad_length(tmp_path):
    sig = tmp_path / "sig.csv"
    _write_signal(sig, n=30)
    assert run_cli("dwt", "--nu", "1", "--q", "0", "--levels", "4",
                   "--input", str(sig)) == 2


def test_validate_report(tmp_path):
    out = tmp_path / "report.txt"
    assert run_cli("validate", "--nu", "3", "--q", "3", "--output", str(out)) == 0
    text = out.read_text()
    assert "matrix vs shooting difference: 0\nshooting tolerance: 1e-10\n" in text
    assert "phase-pairing identity max residual:" in text
    assert "power-complementarity max residual:" in text
    assert "smoothing-transfer zeros on full period: 3" in text
    assert "detail-transfer zeros on full period: 3" in text


def test_validate_sup_error_relative_to_amplitude(tmp_path):
    # At (1,50) max|y| is 3.9e4: the absolute gap reads 5.7e-7, the relative
    # one 1.5e-11, the same order as at designs of unit amplitude.
    out = tmp_path / "report.txt"
    assert run_cli("validate", "--nu", "1", "--q", "50", "--output", str(out)) == 0
    label = "series vs trajectory sup error relative to max|y|: "
    (line,) = [ln for ln in out.read_text().splitlines() if ln.startswith(label)]
    sol = mathieu_mra.solve_even(mathieu_mra.MathieuParams(1, 50.0))
    traj = mathieu_mra.integrate(sol.a, 50.0, 1.0, 0.0, math.pi)
    max_y = np.max(np.abs(traj.y))
    assert max_y > 3e4
    assert float(line[len(label):]) == mathieu_mra.compare(sol, traj) / max_y
    assert float(line[len(label):]) <= 1e-10


def test_validate_reuses_eigensolve_and_spectrum(tmp_path, monkeypatch):
    # The trajectory comparison evaluates the series once on 4097 points and
    # qmf_report once for H and G together; the printed phase-pairing residual
    # is qmf_report's, and the shooting bracket comes from the CLI's eigensolve.
    from mathieu_mra import filterbank, oracle

    sizes = []

    def recording(evaluate):
        def wrapped(sol, x):
            sizes.append(np.size(x))
            return evaluate(sol, x)
        return wrapped

    def no_solve(params):
        raise AssertionError("shoot_even solved the eigenproblem again")

    monkeypatch.setattr(filterbank, "evaluate", recording(filterbank.evaluate))
    monkeypatch.setattr(oracle, "evaluate", recording(oracle.evaluate))
    monkeypatch.setattr(oracle, "solve_even", no_solve)
    assert run_cli("validate", "--nu", "3", "--q", "3", "--output", str(tmp_path / "v")) == 0
    assert sizes == [4097, 2048]


@pytest.mark.parametrize("command", ["spectrum", "validate"])
def test_phase_pairing_failure_exit_3(tmp_path, capsys, command):
    # Round-off in ce breaks the 1e-10 phase-pairing check from q ~ 55 at nu = 1.
    assert run_cli(command, "--nu", "1", "--q", "50", "--output", str(tmp_path / "ok")) == 0
    assert capsys.readouterr().err == ""
    assert run_cli(command, "--nu", "1", "--q", "55", "--output", str(tmp_path / "bad")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: phase-pairing identity violated") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ("eigen", "--nu", "3", "--q", "3"),
        ("filters", "--nu", "3", "--q", "3"),
        ("spectrum", "--nu", "3", "--q", "3", "--samples", "128"),
        ("cascade", "--nu", "3", "--q", "3", "--iterations", "4"),
    ],
)
def test_byte_identical_reruns(tmp_path, args):
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    assert run_cli(*args, "--output", str(a)) == 0
    assert run_cli(*args, "--output", str(b)) == 0
    assert read(a) == read(b)


def _run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mathieu_mra.__file__)))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def _modules_after_import(prefix):
    # Every CLI process pays for what the package imports at start-up.
    code = "import sys, mathieu_mra.cli; print(sorted(m for m in sys.modules if m.startswith(sys.argv[1])))"
    return _run_python(code, prefix).strip()


def test_import_leaves_out_scipy_optimize():
    assert _modules_after_import("scipy.optimize") == "[]"


def test_import_leaves_out_scipy():
    assert _modules_after_import("scipy") == "[]"


def test_all_subcommands_run_without_scipy(tmp_path):
    sig = tmp_path / "sig.csv"
    _write_signal(sig)
    design = ["--nu", "3", "--q", "3"]
    runs = {
        "eigen.json": ["eigen", *design],
        "eigen.csv": ["eigen", *design, "--format", "csv"],
        "filters.csv": ["filters", *design],
        "spectrum.csv": ["spectrum", *design, "--samples", "64"],
        "cascade.csv": ["cascade", *design, "--iterations", "4"],
        "dec.csv": ["dwt", *design, "--levels", "2", "--input", str(sig)],
        "rec.csv": ["idwt", *design, "--input", "{dir}/dec.csv"],
        "validate.txt": ["validate", *design, "--samples", "64"],
    }
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "from mathieu_mra.cli import main\n"
        "out, runs = sys.argv[1], json.loads(sys.argv[2])\n"
        "for name, args in runs.items():\n"
        "    args = [a.format(dir=out) for a in args]\n"
        "    assert main([*args, '--output', f'{out}/{name}']) == 0, args\n"
    )
    for side in ("bare", "ref"):
        (tmp_path / side).mkdir()
    _run_python(code, str(tmp_path / "bare"), json.dumps(runs))
    for name, args in runs.items():
        args = [a.format(dir=tmp_path / "ref") for a in args]
        assert run_cli(*args, "--output", str(tmp_path / "ref" / name)) == 0
    for name in runs:
        assert read(tmp_path / "bare" / name) == read(tmp_path / "ref" / name), name


@pytest.mark.parametrize("level", ["50", "60"])
def test_oversized_grid_exit_2(tmp_path, capsys, level):
    # At level 50 the output grid needs 122 PiB, beyond any 64-bit address
    # space, so the request fails at once (MemoryError); at 60 numpy refuses
    # the shape itself (ValueError).
    out = tmp_path / "cascade.csv"
    assert run_cli("cascade", "--nu", "3", "--q", "3", "--iterations", "4", "--level", level,
                   "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _columns(path):
    """Header line and the text columns of a CSV written by the CLI."""
    header, *rows = path.read_text().splitlines()
    return header, list(zip(*(r.split(",") for r in rows)))


def _parsed(column):
    return _bits([float(v) for v in column])


def _crlf_with_blanks(path):
    path.write_bytes("\r\n\r\n".join(path.read_text().splitlines()).encode() + b"\r\n")


@pytest.mark.parametrize("nu, q", [(3, 3.0), (5, 15.0)])
def test_cli_values_are_the_library_arrays(tmp_path, nu, q):
    # Every number a CSV output prints parses back to the library's own value
    # bit for bit, so the 17-digit writer loses nothing.
    design = ["--nu", str(nu), "--q", repr(q)]
    params = mathieu_mra.MathieuParams(nu, q)
    sol = mathieu_mra.solve_even(params)
    raw = mathieu_mra.build(params, sol, 1e-10)
    bank = mathieu_mra.sign_correct(raw)

    def cli(name, *args):
        path = tmp_path / name
        assert run_cli(*args, *design, "--output", str(path)) == 0
        return path

    header, (fields, values) = _columns(cli("eigen.csv", "eigen", "--format", "csv"))
    harmonics = [f"A{2 * k + 1}" for k in range(sol.truncation_order)]
    assert header == "field,value"
    assert list(fields) == ["nu", "q", "a", "ce_at_zero", "truncation_order", *harmonics]
    scalars = [nu, q, sol.a, mathieu_mra.value_at_zero(sol), sol.truncation_order]
    assert np.array_equal(_parsed(values), _bits([*scalars, *sol.coeffs]))

    header, (index, *cols) = _columns(cli("filters.csv", "filters"))
    span = range(min(*raw.h, *raw.g), max(*raw.h, *raw.g) + 1)
    assert header == "index,h,g" and list(map(int, index)) == list(span)
    for col, taps in zip(cols, (raw.h, raw.g)):
        assert np.array_equal(_parsed(col), _bits([taps.get(l, 0.0) for l in span]))

    grid = mathieu_mra.qmf_report(params, sol, 64)
    _, cols = _columns(cli("spectrum.csv", "spectrum", "--samples", "64"))
    want = [grid.omegas, grid.H.real, grid.H.imag, grid.G.real, grid.G.imag, grid.qmf_residual]
    assert len(cols) == 6 and all(np.array_equal(_parsed(c), _bits(w)) for c, w in zip(cols, want))

    out = mathieu_mra.cascade.run(bank, 5, 7)
    _, cols = _columns(cli("cascade.csv", "cascade", "--iterations", "5", "--level", "7"))
    want = [out.t, out.phi, out.psi]
    assert len(cols) == 3 and all(np.array_equal(_parsed(c), _bits(w)) for c, w in zip(cols, want))

    # CRLF line endings and blank lines in either input read as plain lines.
    sig = tmp_path / "sig.csv"
    res = mathieu_mra.forward(_write_signal(sig, n=64), bank, 3)
    _crlf_with_blanks(sig)
    dec = cli("dec.csv", "dwt", "--levels", "3", "--input", str(sig))
    _, (names, index, values) = _columns(dec)
    bands = [res.approx, *res.details]
    assert list(names) == [n for n, b in zip(["a3", "d1", "d2", "d3"], bands) for _ in b]
    assert list(map(int, index)) == [i for b in bands for i in range(b.size)]
    assert np.array_equal(_parsed(values), _bits(np.concatenate(bands)))

    rec = cli("rec.csv", "idwt", "--input", str(dec))
    header, (x,) = _columns(rec)
    assert header == "x" and np.array_equal(_parsed(x), _bits(mathieu_mra.inverse(res, bank)))
    _crlf_with_blanks(dec)
    assert read(cli("rec_crlf.csv", "idwt", "--input", str(dec))) == read(rec)
