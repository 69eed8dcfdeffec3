"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
import bellcalc  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload, trace, seed=3, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_tiny_run_is_correct_and_complete(workload):
    res = result(run_bench(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_tiny_run_matches_untraced_and_repeats_counts(workload):
    # the traced run fails its own check if a traced pass's stdout bytes or
    # API results differ from an untraced pass's
    first, second = result(run_bench(workload, 1)), result(run_bench(workload, 1))
    assert first["correct"] and second["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counts = {k for k, u in expected.items() if u in ("count", "bytes")}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("classical-enum", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _task(wl, label):
    return next(t for t in wl.tasks if t.label == label)


def test_checks_reject_wrong_answers():
    wl = workloads.classical_enum(3, "tiny", bellcalc)
    task = _task(wl, "chsh")
    cv, cvi, norm = task.call()
    assert task.check((cv, cvi, norm), {}) is None
    assert task.check((np.nextafter(cv, 3.0), cvi, norm), {}) is not None
    assert task.check((cv, cvi, 4.5 * cvi), {}) is not None

    wl = workloads.behavior_lp(3, "tiny", bellcalc)
    outputs = {t.label: t.call() for t in wl.tasks if t.label.startswith("chsh-opt/")}
    nu, witness = outputs["chsh-opt/nu"]
    assert _task(wl, "chsh-opt/nu").check((nu, witness), outputs) is None
    assert _task(wl, "chsh-opt/nu").check((nu + 1e-3, witness), outputs) is not None
    pi = outputs["chsh-opt/pi"]
    assert _task(wl, "chsh-opt/pi").check(pi * (1 + 1e-4), outputs) is not None

    wl = workloads.seesaw_magic(3, "tiny", bellcalc)
    task = _task(wl, "correlation")
    res = task.call()
    assert task.check(res, {}) is None
    forged = bellcalc.SeesawResult(res.value + 1e-6, res.model, res.converged, res.sweeps_used,
                                   res.per_seed_values, res.sweep_log)
    assert task.check(forged, {}) is not None
