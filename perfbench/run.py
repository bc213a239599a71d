"""Benchmark of the Mathieu MRA toolkit: one closed-loop caller per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: design-sweep, dwt-roundtrip, oracle-validate, cli-files (see
README.md).  The run sets up its inputs several times (``setup_s`` is the
median), then repeats whole rounds of operations until ``--seconds`` of
wall time have passed, checking every output against an independent
reference outside the timed calls.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  A traced run also writes its spans to
``perfbench/out/trace-<workload>-<seed>.json``.
"""

import os

# One BLAS thread for this process and, through the environment, for every
# child it starts; set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import mathieu_mra; print(time.perf_counter() - t)"

# name, unit, span names, aggregate over one operation's spans:
# "ms" sums durations, "calls" counts spans, "sum:<attr>"/"max:<attr>" read
# the attribute each span recorded.  The value is the median over the
# operations that make at least one such call (0 if none does).
PER_LAYER = [
    ("core.solve_even_ms", "ms", ["core.solve_even"], "ms"),
    ("core.harmonics", "count", ["core.solve_even"], "max:harmonics"),
    ("core.evaluate_terms", "count", ["core.evaluate", "core.evaluate_derivative"], "sum:terms"),
    ("core.count_zeros_ms", "ms", ["core.count_zeros"], "ms"),
    ("filterbank.build_ms", "ms", ["filterbank.build"], "ms"),
    ("filterbank.taps", "count", ["filterbank.build"], "sum:taps"),
    ("filterbank.qmf_report_ms", "ms", ["filterbank.qmf_report"], "ms"),
    ("filterbank.count_transfer_zeros_ms", "ms", ["filterbank.count_transfer_zeros"], "ms"),
    ("cascade.run_ms", "ms", ["cascade.run"], "ms"),
    ("cascade.grid_points", "count", ["cascade.run"], "sum:grid_points"),
    ("transform.forward_ms", "ms", ["transform.forward"], "ms"),
    ("transform.inverse_ms", "ms", ["transform.inverse"], "ms"),
    ("transform.tap_passes", "count", ["transform.forward", "transform.inverse"], "sum:tap_passes"),
    ("oracle.shoot_even_ms", "ms", ["oracle.shoot_even"], "ms"),
    ("oracle.integrate_calls", "count", ["oracle.integrate"], "calls"),
    ("oracle.rk_steps", "count", ["oracle.integrate"], "sum:rk_steps"),
    ("oracle.integrate_ms", "ms", ["oracle.integrate"], "ms"),
    ("oracle.compare_ms", "ms", ["oracle.compare"], "ms"),
    ("cli.import_ms", "ms", ["cli.import"], "ms"),
] + [
    (f"cli.{sub}_ms", "ms", [f"cli.{sub}"], "ms")
    for sub in ("eigen", "filters", "spectrum", "cascade", "dwt", "idwt")
] + [
    ("cli.output_bytes", "bytes",
     [f"cli.{sub}" for sub in ("eigen", "filters", "spectrum", "cascade", "dwt", "idwt")],
     "sum:output_bytes"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("design-sweep", "dwt-roundtrip", "oracle-validate", "cli-files"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(wl):
    """Median over SETUP_REPS of: package import in a fresh process plus the
    workload's in-process input building."""
    samples = []
    for _ in range(SETUP_REPS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                               capture_output=True, text=True, timeout=120, check=True)
        t0 = time.perf_counter()
        wl.setup()
        samples.append(float(probe.stdout.split()[-1]) + time.perf_counter() - t0)
    return statistics.median(samples)


class Tally:
    """Operation outcomes and timings of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []  # operations that raised
        self.mismatches = []  # outputs that failed their check
        self.durations = []  # seconds per completed operation

    def execute(self, op, inp):
        """Run one operation; returns (seconds, output) or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.call(inp)
        except Exception as exc:  # the run goes on; the operation counts as failed
            self.failed += 1
            self.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            return None
        return time.perf_counter() - t0, out

    def check(self, op, inp, out):
        try:
            op.check(inp, out)
        except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            self.mismatches.append(f"{op.kind}: {type(exc).__name__}: {exc}")


def measure(wl, seconds):
    tally = Tally()
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for op in wl.round(r):
            inp = op.prepare()
            res = tally.execute(op, inp)
            if res is not None:
                tally.durations.append(res[0])
                tally.check(op, inp, res[1])
        r += 1
    return tally


def measure_traced(wl, seconds, tracer):
    """Each operation runs twice on the same input, untraced and traced, in
    alternating order; the traced spans give the per-layer figures and the
    paired times give the tracing overhead."""
    tally = Tally()
    ratios = []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(wl.round(r)):
            inp = op.prepare()
            times = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                    wl.tracer = tracer
                    with tracer.span("op", kind=op.kind):
                        res = tally.execute(op, inp)
                    tracer.uninstall()
                    wl.tracer = None
                else:
                    res = tally.execute(op, inp)
                if res is not None:
                    times[traced] = res[0]
                    tally.check(op, inp, res[1])
            if len(times) == 2:
                ratios.append(times[True] / times[False])
        r += 1
    return tally, ratios


def per_layer(spans, ratios):
    children = {}
    for sid, par, *_ in spans:
        children.setdefault(par, []).append(sid)

    def subtree(sid):
        stack, out = [sid], []
        while stack:
            s = stack.pop()
            out.append(spans[s])
            stack.extend(children.get(s, ()))
        return out

    ops = [subtree(s[0]) for s in spans if s[2] == "op"]
    metrics = {}
    for name, unit, names, agg in PER_LAYER:
        values = []
        for op_spans in ops:
            hits = [s for s in op_spans if s[2] in names]
            if not hits:
                continue
            if agg == "ms":
                values.append(1e3 * sum(s[4] - s[3] for s in hits))
            elif agg == "calls":
                values.append(len(hits))
            else:
                how, attr = agg.split(":")
                vals = [s[5][attr] for s in hits]
                values.append(max(vals) if how == "max" else sum(vals))
        metrics[name] = {"value": statistics.median(values) if values else 0, "unit": unit}
    overhead = 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return metrics


def write_trace(path, workload, seed, spans):
    summary = {
        name: {"calls": calls, "total_ms": 1e3 * total, "self_ms": 1e3 * own}
        for name, (calls, total, own) in sorted(tracing.self_times(spans).items())
    }
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "summary": summary, "spans": spans}, fh)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mathieu_mra", "__init__.py")):
        print(f"error: no mathieu_mra package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = setup_seconds(wl)
        if args.trace:
            tracer = tracing.Tracer()
            tally, ratios = measure_traced(wl, args.seconds, tracer)
            metrics = per_layer(tracer.spans, ratios)
            write_trace(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
                        args.workload, args.seed, tracer.spans)
        else:
            tally = measure(wl, args.seconds)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli-files" else resource.RUSAGE_SELF
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                # one closed-loop caller: completed operations per second it spent waiting on them
                "ops_per_s": {"value": len(tally.durations) / sum(tally.durations) if tally.durations else 0.0,
                              "unit": "1/s"},
                "op_p50_ms": {"value": 1e3 * statistics.median(tally.durations) if tally.durations else 0.0,
                              "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in (tally.errors + tally.mismatches)[:20]:
        print(msg, file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {tally.attempted}, failed = {tally.failed}, "
          f"check failures = {len(tally.mismatches)}")
    print(json.dumps({
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
