"""Spans around the package's public functions, recorded from outside ``src/``.

:meth:`Tracer.install` replaces each traced function at every module
attribute of the package that holds it (``oracle.integrate`` as
``shoot_even`` looks it up, ``filterbank.evaluate``, ``cli``'s imports, ...)
and :meth:`Tracer.uninstall` puts the originals back.  A span is
``[id, parent, name, start, end, attrs]`` with ``perf_counter`` seconds;
spans stay in memory until the caller writes them out.  This module imports
nothing heavy, so the traced CLI child can time the package import first.
"""

import importlib
import time
from contextlib import contextmanager

MODULES = ("core", "filterbank", "cascade", "transform", "oracle", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _terms(args, kwargs, result):
    # points x harmonics of one series evaluation (the outer-product size)
    x = _arg(args, kwargs, 1, "x")
    return {"terms": getattr(x, "size", 1) * len(_arg(args, kwargs, 0, "sol").coeffs)}


def _tap_passes(bank, levels):
    # one vector pass per tap per level
    return {"tap_passes": levels * (len(bank.h) + len(bank.g))}


# (module, function) -> attrs recorded from the call's arguments and result
TRACED = {
    ("core", "solve_even"): lambda a, k, r: {"harmonics": r.truncation_order},
    ("core", "evaluate"): _terms,
    ("core", "evaluate_derivative"): _terms,
    ("core", "count_zeros"): None,
    ("core", "count_function_zeros"): None,
    ("filterbank", "build"): lambda a, k, r: {"taps": len(r.h) + len(r.g)},
    ("filterbank", "sign_correct"): None,
    ("filterbank", "transfer_H"): None,
    ("filterbank", "transfer_G"): None,
    ("filterbank", "qmf_report"): None,
    ("filterbank", "count_transfer_zeros"): None,
    ("cascade", "run"): lambda a, k, r: {"grid_points": len(r.t)},
    ("transform", "forward"): lambda a, k, r: _tap_passes(_arg(a, k, 1, "bank"), r.levels),
    ("transform", "inverse"): lambda a, k, r: _tap_passes(_arg(a, k, 1, "bank"), _arg(a, k, 0, "res").levels),
    ("oracle", "shoot_even"): None,
    ("oracle", "integrate"): lambda a, k, r: {"rk_steps": len(r.grid) - 1},
    ("oracle", "compare"): None,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    @contextmanager
    def span(self, name, **attrs):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, name, time.perf_counter(), None, attrs]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def current(self):
        """Id of the innermost open span."""
        return self._stack[-1]

    def _wrap(self, name, func, describe):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = func(*args, **kwargs)
                if describe is not None:
                    rec[5].update(describe(args, kwargs, result))
                return result

        return traced

    def install(self):
        mods = [importlib.import_module("mathieu_mra")] + [
            importlib.import_module(f"mathieu_mra.{m}") for m in MODULES
        ]
        for (mod, fname), describe in TRACED.items():
            func = getattr(importlib.import_module(f"mathieu_mra.{mod}"), fname)
            wrapper = self._wrap(f"{mod}.{fname}", func, describe)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is func:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, func))

    def uninstall(self):
        for m, attr, func in reversed(self._restore):
            setattr(m, attr, func)
        self._restore.clear()

    def adopt(self, spans, parent):
        """Append spans recorded in a child process under span ``parent``."""
        base = len(self.spans)
        for sid, par, name, start, end, attrs in spans:
            self.spans.append([base + sid, parent if par is None else base + par, name, start, end, attrs])


def self_times(spans):
    """Per span name: calls, total seconds and self seconds (duration minus
    the time its direct children cover; spans of one thread nest)."""
    child = [0.0] * len(spans)
    for sid, par, name, start, end, attrs in spans:
        if par is not None:
            child[par] += end - start
    out = {}
    for sid, par, name, start, end, attrs in spans:
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + end - start, own + end - start - child[sid])
    return out
