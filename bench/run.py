"""bellcalc benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the end-to-end metrics are measured with the package
unmodified, and scaled to a reference host speed (see ``Calibration``).  With ``--trace 1`` the per-layer metrics come from passes
run with wrappers installed around each module's functions (see
``tracing.py``), alternating with untraced passes that set the overhead
baseline.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
repeat every metric by name with its unit, plus the error rate.
"""

from __future__ import annotations

import os

# One BLAS thread on both sides of every comparison, set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, fields, is_dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# a run holds at least this many passes, so a pass-level median never rests on one pass
MIN_PASSES = 2
IMPORT_REPEATS = 5
# calibration kernel time at the reference host speed, and the spacing of samples
CALIBRATION_REF_S = 0.016
CALIBRATION_EVERY_S = 0.25
CALIBRATION_WINDOW_S = 2.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_s": "s",
    "time_to_target_s": "s",
    "peak_rss_mb": "MB",
}


def _st(layer, key):
    return lambda stats: stats[layer][key]


def _ratio(num, den):
    return lambda stats: num(stats) / den(stats) if den(stats) else 0.0


# name -> (unit, value from one traced pass's stats, is a deterministic count)
LAYER_METRICS = {
    "cli.main.calls": ("count", _st("cli.main", "calls"), True),
    "cli.main.self_s": ("s", _st("cli.main", "self_s"), False),
    "io.load_document.calls": ("count", _st("io.load_document", "calls"), True),
    "io.load_document.total_s": ("s", _st("io.load_document", "total_s"), False),
    "io.dump_document.calls": ("count", _st("io.dump_document", "calls"), True),
    "io.dump_document.total_s": ("s", _st("io.dump_document", "total_s"), False),
    "io.dump_document.bytes": ("bytes", _st("io.dump_document", "bytes"), True),
    "classical._enumerated_extrema.calls": ("count", _st("classical._enumerated_extrema", "calls"), True),
    "classical._enumerated_extrema.self_s": ("s", _st("classical._enumerated_extrema", "self_s"), False),
    "classical.assignments": ("count", _st("classical._enumerated_extrema", "assignments"), True),
    "classical.assignments_per_s": ("1/s", _ratio(_st("classical._enumerated_extrema", "assignments"),
                                                  _st("classical._enumerated_extrema", "total_s")), False),
    "classical.classical_value.calls": ("count", _st("classical.classical_value", "calls"), True),
    "classical.is_local.calls": ("count", _st("classical.is_local", "calls"), True),
    "classical.is_local.self_s": ("s", _st("classical.is_local", "self_s"), False),
    "violation.max_violation.calls": ("count", _st("violation.max_violation", "calls"), True),
    "violation.max_violation.self_s": ("s", _st("violation.max_violation", "self_s"), False),
    "violation.noise_robustness.calls": ("count", _st("violation.noise_robustness", "calls"), True),
    "violation.noise_robustness.self_s": ("s", _st("violation.noise_robustness", "self_s"), False),
    "violation.violation_report.calls": ("count", _st("violation.violation_report", "calls"), True),
    "polytope.vertex_matrix.calls": ("count", _st("polytope.vertex_matrix", "calls"), True),
    "polytope.vertex_matrix.total_s": ("s", _st("polytope.vertex_matrix", "total_s"), False),
    "numerics.lp_solve.calls": ("count", _st("numerics.lp_solve", "calls"), True),
    "numerics.lp_solve.total_s": ("s", _st("numerics.lp_solve", "total_s"), False),
    "numerics.lp_solve.rows": ("count", _st("numerics.lp_solve", "rows"), True),
    "numerics.lp_solve.cols": ("count", _st("numerics.lp_solve", "cols"), True),
    "numerics.lp_solve.nnz": ("count", _st("numerics.lp_solve", "nnz"), True),
    "numerics.lp_solve.not_optimal": ("count", _st("numerics.lp_solve", "not_optimal"), True),
    "numerics.lp_solve.max_rel_gap": ("1", _st("numerics.lp_solve", "max_rel_gap"), False),
    "numerics.povm_update.calls": ("count", _st("numerics.povm_update", "calls"), True),
    "numerics.povm_update.total_s": ("s", _st("numerics.povm_update", "total_s"), False),
    "numerics.povm_update.iterations": ("count", _st("numerics.povm_update", "iterations"), True),
    "numerics.povm_update.s_per_iteration": ("s", _ratio(_st("numerics.povm_update", "total_s"),
                                                         _st("numerics.povm_update", "iterations")), False),
    "numerics.povm_update.max_final_gap": ("1", _st("numerics.povm_update", "max_final_gap"), False),
    "numerics.eigh.calls": ("count", _st("numerics.eigh", "calls"), True),
    "numerics.eigh.total_s": ("s", _st("numerics.eigh", "total_s"), False),
    "seesaw.seesaw.calls": ("count", _st("seesaw.seesaw", "calls"), True),
    "seesaw.seesaw.self_s": ("s", _st("seesaw.seesaw", "self_s"), False),
    "seesaw.bell_operator.calls": ("count", _st("seesaw.bell_operator", "calls"), True),
    "seesaw.bell_operator.total_s": ("s", _st("seesaw.bell_operator", "total_s"), False),
    "seesaw.reduced_operators.calls": ("count", _st("seesaw.reduced_operators", "calls"), True),
    "seesaw.reduced_operators.total_s": ("s", _st("seesaw.reduced_operators", "total_s"), False),
    "core.behavior_from_quantum.total_s": ("s", _st("core.behavior_from_quantum", "total_s"), False),
    "core.no_signaling_check.total_s": ("s", _st("core.no_signaling_check", "total_s"), False),
}
# measured outside the traced passes
EXTRA_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.numpy_floor_s": "s",
    "seesaw.target_hit_ratio": "1",
    "trace.overhead_s": "s",
}


@dataclass
class Execution:
    label: str
    start: float
    seconds: float
    output: object
    failure: str | None


@dataclass
class Pass:
    wall: float
    runs: list[Execution]
    tracer: tracing.Tracer | None = None

    def outputs(self):
        return {r.label: r.output for r in self.runs}


def digest(obj, h=None):
    """Hash of a result's full content, to compare repeated runs exactly."""
    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode() + str(obj.shape).encode() + obj.tobytes())
    elif isinstance(obj, (bytes, str, int, float, bool, type(None))):
        h.update(type(obj).__name__.encode() + repr(obj).encode())
    elif isinstance(obj, (tuple, list)):
        h.update(b"[")
        for item in obj:
            digest(item, h)
        h.update(b"]")
    elif is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            digest(getattr(obj, f.name), h)
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")
    return h.hexdigest() if top else None


class Calibration:
    """Host speed, from a fixed kernel timed between tasks.

    A host that shares its cores drifts in speed, for imports, numpy
    calls and LP solves alike: by up to 1.7x within minutes on the 2-core
    virtual machine this benchmark was tuned on.  The kernel mixes the
    same kinds of work: an interpreter loop, small LAPACK calls and a
    memory-bound sort.
    A time is reported at the reference speed: multiplied by
    ``CALIBRATION_REF_S`` over the median of the samples taken within
    ``CALIBRATION_WINDOW_S`` of it (at least the one just before and the
    one just after), because the host's speed drifts within a run too.
    The unscaled times are printed beside them.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._matrix = m + m.conj().T
        self._array = rng.standard_normal(200_000)
        self.samples = []  # (start, seconds)
        self._last = -float("inf")

    def sample(self):
        """Time the kernel once; callers take samples only between timed work."""
        t0 = time.perf_counter()
        for _ in range(3):
            acc = 0
            for i in range(20_000):
                acc += i * i
            for _ in range(300):
                np.linalg.eigh(self._matrix)
            np.sort(self._array)
        self._last = time.perf_counter()
        self.samples.append((t0, self._last - t0))

    def maybe_sample(self):
        if time.perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.sample()

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` of work that began at ``start``, at the reference speed."""
        end = start + seconds
        before = [d for t, d in self.samples if t < start]
        after = [d for t, d in self.samples if t >= end]
        near = [d for t, d in self.samples
                if start - CALIBRATION_WINDOW_S <= t <= end + CALIBRATION_WINDOW_S]
        return seconds * CALIBRATION_REF_S / statistics.median(near + before[-1:] + after[:1])


def run_pass(tasks, tracer=None, calibration=None) -> Pass:
    """One pass over the task list; its wall time is the sum of the task times,
    so calibration samples taken between tasks are not counted."""
    runs = []
    elapsed = 0.0
    with tracing.traced(tracer) if tracer else nullcontext():
        for task in tasks:
            if calibration is not None:
                calibration.maybe_sample()
            t0 = time.perf_counter()
            try:
                output, failure = task.call(), None
            except Exception as exc:  # a failed task is counted, and the run goes on
                output, failure = None, f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            elapsed += seconds
            runs.append(Execution(task.label, t0, seconds, output, failure))
    return Pass(elapsed, runs, tracer)


def repeat_passes(tasks, seconds, modes=(False,), calibration=None) -> list[Pass]:
    """Passes until ``seconds`` have elapsed and at least ``MIN_PASSES`` have run,
    cycling through the traced/untraced ``modes``."""
    passes = []
    t0 = time.perf_counter()
    while len(passes) < max(MIN_PASSES, len(modes)) or time.perf_counter() - t0 < seconds:
        traced = modes[len(passes) % len(modes)]
        passes.append(run_pass(tasks, tracing.Tracer() if traced else None, calibration))
    return passes


def check_passes(tasks, passes) -> list[str]:
    """Check every execution; all executions of a task must agree exactly.

    The first pass is the reference for the agreement check.  A check
    runs once per distinct output; failures are stored on the execution.
    """
    by_label = {t.label: t for t in tasks}
    first, verdicts, failures = {}, {}, []
    for p in passes:
        outputs = p.outputs()
        for r in p.runs:
            if r.failure is None:
                d = digest(r.output)
                if first.setdefault(r.label, d) != d:
                    r.failure = "output differs from the first run of this task"
                else:
                    if (r.label, d) not in verdicts:
                        verdicts[r.label, d] = by_label[r.label].check(r.output, outputs)
                    r.failure = verdicts[r.label, d]
            if r.failure is not None:
                failures.append(f"{r.label}: {r.failure}")
    return failures


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_import_s(module: str) -> float:
    """Median time to import ``module`` in a fresh interpreter."""
    code = f"import time; t0 = time.perf_counter(); import {module}; print(time.perf_counter() - t0)"
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                             capture_output=True, check=True, text=True).stdout
        samples.append(float(out))
    return statistics.median(samples)


def setup_seconds(args, calibration) -> list[tuple[float, float]]:
    """(start, wall time) of fresh processes that import the package and set up."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--size", args.size]
    samples = []
    for _ in range(SETUP_REPEATS):
        calibration.sample()
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL)
        samples.append((t0, time.perf_counter() - t0))
    return samples


def build(args):
    sys.path.insert(0, str(SRC))
    bc = importlib.import_module("bellcalc")
    for mod in ("cli", "io", "polytope"):
        importlib.import_module(f"bellcalc.{mod}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    return workloads.build(args.workload, args.seed, args.size, bc, workdir, child_env())


def hit_target(wl, r: Execution) -> bool:
    return r.label == wl.target and r.failure is None and wl.reached(r.output)


def target_time(wl, p: Pass, seconds) -> float:
    """Time into the pass at which the target task returned a verified answer;
    a miss counts the whole pass.  ``seconds`` maps an execution to its time."""
    elapsed = 0.0
    for r in p.runs:
        elapsed += seconds(r)
        if hit_target(wl, r):
            break
    return elapsed


def end_to_end(args, wl, failures):
    calibration = Calibration()
    setup = [Execution("setup", t0, d, None, None) for t0, d in setup_seconds(args, calibration)]
    # cli-mix: the in-process run is the reference its subprocess bytes must match
    reference = [run_pass(wl.in_process)] if wl.in_process is not None else []
    passes = repeat_passes(wl.tasks, args.seconds, calibration=calibration)
    calibration.sample()
    if wl.in_process is not None:
        peak_kb = max(wl.child_rss_kb)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checked = reference + passes
    failures += check_passes(wl.in_process or wl.tasks, checked)
    misses = sum(not any(hit_target(wl, r) for r in p.runs) for p in passes)

    def timings(seconds):
        return {
            "setup_s": statistics.median(seconds(r) for r in setup),
            "wall_s": statistics.median(sum(seconds(r) for r in p.runs) for p in passes),
            "task_p50_s": statistics.median(seconds(r) for p in passes for r in p.runs),
            "time_to_target_s": statistics.median(target_time(wl, p, seconds) for p in passes),
        }

    raw = timings(lambda r: r.seconds)
    metrics = timings(lambda r: calibration.scaled(r.start, r.seconds))
    metrics["peak_rss_mb"] = peak_kb / 1024.0
    durations = [d for _, d in calibration.samples]
    notes = [f"calibration: {len(durations)} samples, median {statistics.median(durations):.4f} s, "
             f"wall_s scaled by {metrics['wall_s'] / raw['wall_s']:.4f}",
             "unscaled " + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items()),
             f"passes {len(passes)}, tasks per pass {len(wl.tasks)}, "
             f"target {wl.target!r} missed in {misses} of {len(passes)} passes",
             "pass wall min / median / max " + " / ".join(
                 f"{f(p.wall for p in passes):.3f}" for f in (min, statistics.median, max)) + " s"]
    attempted = sum(len(p.runs) for p in checked)
    return metrics, END_TO_END_UNITS, attempted, notes


def per_layer(args, wl, failures):
    tasks = wl.in_process or wl.tasks
    # untraced and traced passes alternate, so drift on the host hits both alike
    both = repeat_passes(tasks, args.seconds, modes=(False, True))
    attempted = sum(len(p.runs) for p in both)
    failures += check_passes(tasks, both)
    baseline = [p for p in both if p.tracer is None]
    passes = [p for p in both if p.tracer is not None]

    per_pass = [{name: fn(p.tracer.stats) for name, (_, fn, _) in LAYER_METRICS.items()}
                for p in passes]
    counts = [{name: vals[name] for name, (_, _, exact) in LAYER_METRICS.items() if exact}
              for vals in per_pass]
    attempted += 1
    if any(c != counts[0] for c in counts):
        failures.append("layer counts differ between identical traced passes")
    metrics = {name: (per_pass[0][name] if exact else statistics.median(v[name] for v in per_pass))
               for name, (_, _, exact) in LAYER_METRICS.items()}
    hits, runs = map(sum, zip(*(wl.target_seeds(p.outputs()) for p in passes)))
    metrics["seesaw.target_hit_ratio"] = hits / runs if runs else 0.0
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p in passes)
                                   - statistics.median(p.wall for p in baseline))
    notes = [f"untraced and traced passes {len(baseline)} + {len(passes)}"]
    if wl.cross_check is not None:
        def run_traced(fn):
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                fn()
            return tracer.stats
        problems = wl.cross_check(run_traced)
        attempted += 1
        failures += [f"cross-check: {m}" for m in problems]
        notes.append("exact-count cross-check " + ("failed" if problems else "passed"))
    metrics["cli.import_s"] = fresh_import_s("bellcalc.cli")
    metrics["cli.numpy_floor_s"] = fresh_import_s("numpy")
    units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()} | EXTRA_LAYER_UNITS
    return metrics, units, attempted, notes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload on small inputs, for smoke tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bellcalc" / "__init__.py").is_file():
        print(f"bench: no bellcalc package under {SRC}", file=sys.stderr)
        return 2
    wl = build(args)
    try:
        if args.setup_only:
            return 0
        failures = []
        measure = per_layer if args.trace else end_to_end
        metrics, units, attempted, notes = measure(args, wl, failures)
    finally:
        wl.close()
    for line in notes + failures[:20]:
        print(f"# {line}")
    print(f"# machine: nproc {os.cpu_count()}, python {sys.version.split()[0]}, numpy {np.__version__}, "
          f"scipy {importlib.import_module('scipy').__version__}, BLAS threads {BLAS_THREADS}, "
          f"cvxpy {'present' if importlib.util.find_spec('cvxpy') else 'absent'}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value} {units[name]}")
    print(f"{args.workload} error_rate {len(failures) / attempted} fraction "
          f"({len(failures)} of {attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
