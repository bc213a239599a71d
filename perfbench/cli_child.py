"""Traced stand-in for ``python -m mathieu_mra``.

Usage: python3 cli_child.py SPANS_JSON SUBCOMMAND [FLAGS...]

Times the package import, runs ``cli.main`` on the remaining arguments with
the package's public functions traced, and writes the spans to SPANS_JSON
(``cli.import``, then ``cli.<subcommand>`` over the tree of layer calls).
"""

import os
import sys
import time

t0 = time.perf_counter()
from mathieu_mra import cli  # noqa: E402

t1 = time.perf_counter()

import json  # noqa: E402

from tracing import Tracer  # noqa: E402


def main(spans_path, argv):
    tracer = Tracer()
    tracer.spans.append([0, None, "cli.import", t0, t1, {}])
    tracer.install()
    try:
        with tracer.span(f"cli.{argv[0]}") as rec:
            code = cli.main(argv)
            out = argv[argv.index("--output") + 1]
            rec[5]["output_bytes"] = os.path.getsize(out) if code == 0 else 0
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
