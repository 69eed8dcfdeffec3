"""Per-layer call tracing, installed from outside the package.

A function is wrapped at every bellcalc module namespace that binds it,
because ``from .numerics import lp_solve`` copies the name into the
importing module at import time.  Modules are reached through
``sys.modules``: the attribute ``bellcalc.seesaw`` is the re-exported
function, not the module.  The wrappers are removed when the context
manager exits, so untraced runs execute the package unmodified.

A wrapped call that starts while another call of the same function is
still open (``povm_update`` recursing for incomplete mode) is folded
into the outer call.  Self time is a call's duration minus the time
spent in wrapped children.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import scipy.sparse as sp

# layer name -> (defining module, function name)
TRACED = {
    "cli.main": ("bellcalc.cli", "main"),
    "io.load_document": ("bellcalc.io", "load_document"),
    "io.dump_document": ("bellcalc.io", "dump_document"),
    "classical._enumerated_extrema": ("bellcalc.classical", "_enumerated_extrema"),
    "classical.classical_value": ("bellcalc.classical", "classical_value"),
    "classical.is_local": ("bellcalc.classical", "is_local"),
    "violation.max_violation": ("bellcalc.violation", "max_violation"),
    "violation.noise_robustness": ("bellcalc.violation", "noise_robustness"),
    "violation.violation_report": ("bellcalc.violation", "violation_report"),
    "polytope.vertex_matrix": ("bellcalc.polytope", "vertex_matrix"),
    "numerics.lp_solve": ("bellcalc.numerics", "lp_solve"),
    "numerics.povm_update": ("bellcalc.numerics", "povm_update"),
    "numerics.eigh": ("bellcalc.numerics", "eigh"),
    "seesaw.seesaw": ("bellcalc.seesaw", "seesaw"),
    "seesaw.bell_operator": ("bellcalc.seesaw", "bell_operator"),
    "seesaw.reduced_operators": ("bellcalc.seesaw", "reduced_operators"),
    "core.behavior_from_quantum": ("bellcalc.core", "behavior_from_quantum"),
    "core.no_signaling_check": ("bellcalc.core", "no_signaling_check"),
}


def _count_assignments(st, args, kwargs, result):
    coeffs = args[0]
    st["assignments"] += coeffs.shape[2] ** coeffs.shape[0]


def _lp_sizes(st, args, kwargs, result):
    a = args[0].a
    rows, cols = a.shape
    st["rows"] += rows
    st["cols"] += cols
    st["nnz"] += a.nnz if sp.issparse(a) else int((a != 0).sum())
    st["shapes"].append((rows, cols))
    if result.status != "optimal":
        st["not_optimal"] += 1
    else:
        rel = result.duality_gap / (1.0 + abs(result.objective))
        st["max_rel_gap"] = max(st["max_rel_gap"], rel)


def _povm_iterations(st, args, kwargs, result):
    st["iterations"] += result.iterations
    st["max_final_gap"] = max(st["max_final_gap"], result.dual_bound - result.objective)


def _dumped_bytes(st, args, kwargs, result):
    st["bytes"] += len(result.encode("utf-8"))


# per-call counters beyond calls and times, with their starting values
EXTRAS = {
    "classical._enumerated_extrema": (_count_assignments, {"assignments": 0}),
    "numerics.lp_solve": (_lp_sizes, {"rows": 0, "cols": 0, "nnz": 0, "not_optimal": 0,
                                      "max_rel_gap": 0.0, "shapes": []}),
    "numerics.povm_update": (_povm_iterations, {"iterations": 0, "max_final_gap": 0.0}),
    "io.dump_document": (_dumped_bytes, {"bytes": 0}),
}


class Tracer:
    """Call counts, total and self times per traced function."""

    def __init__(self):
        self.stats = {}
        for name in TRACED:
            start = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            if name in EXTRAS:
                start.update({k: (list(v) if isinstance(v, list) else v)
                              for k, v in EXTRAS[name][1].items()})
            self.stats[name] = start
        self._open = []  # stack of [name, time in wrapped children]

    def wrap(self, name, fn):
        extra = EXTRAS.get(name, (None,))[0]
        st = self.stats[name]
        stack = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                st["calls"] += 1
                st["total_s"] += dt
                st["self_s"] += dt - frame[1]
            if extra is not None:
                extra(st, args, kwargs, result)
            return result

        return wrapper


def _bellcalc_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "bellcalc" or n.startswith("bellcalc."))]


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers at every binding; restore on exit."""
    modules = _bellcalc_modules()
    patched = []
    try:
        for name, (mod_name, attr) in TRACED.items():
            fn = getattr(sys.modules[mod_name], attr)
            wrapper = tracer.wrap(name, fn)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is fn]:
                    setattr(mod, key, wrapper)
                    patched.append((mod, key, fn))
        yield tracer
    finally:
        for mod, key, fn in reversed(patched):
            setattr(mod, key, fn)
