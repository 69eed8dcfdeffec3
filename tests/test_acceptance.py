"""End-to-end acceptance gate.

One test per shipped guarantee, run in order; each prints a single
ACCEPTANCE line on success (visible through the -rA report), and every
assertion message carries the matching FAIL tag.  Tolerances and time
budgets are pinned here and nowhere else.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bellcalc import (
    Behavior,
    BellFunctional,
    Scenario,
    SeesawConfig,
    banach_norm,
    behavior_from_local,
    behavior_from_quantum,
    chsh_functional,
    classical_value,
    classical_value_incomplete,
    comm_bits,
    eq4_gap,
    is_local,
    magic_square_functional,
    max_violation,
    pair,
    seesaw,
    violation_report,
)
import bellcalc
from bellcalc import io as bio
from bellcalc.cli import main
from bellcalc.generators import random_correlation_functional, random_functional
from bellcalc.numerics import eigh, lp_solve, povm_update
from bellcalc.polytope import vertex_matrix
from bellcalc.seesaw import _random_model
from bellcalc.core import hermitian_part

from conftest import build_chsh_optimal_model, random_feasible_lp, random_local_model

ROOT2 = np.sqrt(2.0)


def test_01_chsh_classical_value_exact(tmp_path, capsys):
    path = tmp_path / "chsh.json"
    assert main(["gen", "chsh", "-o", str(path)]) == 0
    capsys.readouterr()
    t0 = time.perf_counter()
    code = main(["classical", str(path)])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0, "ACCEPTANCE 01 FAIL: classical command errored"
    value = json.loads(out)["payload"]["classical_value"]
    assert value == 2.0, f"ACCEPTANCE 01 FAIL: classical value {value!r} is not exactly 2"
    assert elapsed < 1.0, f"ACCEPTANCE 01 FAIL: took {elapsed:.2f}s, budget 1s"
    print(f"ACCEPTANCE 01 PASS: bell classical on chsh returned 2 exactly in {elapsed*1e3:.0f} ms")


def test_02_chsh_seesaw_reaches_tsirelson():
    chsh = chsh_functional()
    t0 = time.perf_counter()
    result = seesaw(chsh, SeesawConfig(dim=2, seeds=20))
    elapsed = time.perf_counter() - t0
    target = 2.0 * ROOT2
    assert abs(result.value - target) <= 1e-6, (
        f"ACCEPTANCE 02 FAIL: value {result.value!r} vs 2*sqrt(2), error {abs(result.value-target):.2e}"
    )
    ratio = result.value / classical_value(chsh)
    assert abs(ratio - ROOT2) <= 1e-6, (
        f"ACCEPTANCE 02 FAIL: ratio {ratio!r} vs sqrt(2), error {abs(ratio-ROOT2):.2e}"
    )
    assert elapsed < 10.0, f"ACCEPTANCE 02 FAIL: took {elapsed:.1f}s, budget 10s"
    print(
        f"ACCEPTANCE 02 PASS: see-saw d=2, 20 seeds hit {result.value:.9f} "
        f"(ratio {ratio:.9f}) in {elapsed:.1f}s"
    )


def test_03_correlation_ratios_below_grothendieck_ceiling():
    ceiling = 1.783 + 1e-3
    worst = 0.0
    t0 = time.perf_counter()
    for i in range(50):
        functional = random_correlation_functional(1 + (i % 3), seed=1000 + i)
        result = seesaw(functional, SeesawConfig(dim=8, seeds=4, rng_seed=i))
        ratio = result.value / classical_value(functional)
        worst = max(worst, ratio)
        assert ratio <= ceiling, (
            f"ACCEPTANCE 03 FAIL: functional {i} ratio {ratio!r} exceeds {ceiling}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"ACCEPTANCE 03 FAIL: took {elapsed:.0f}s, budget 300s"
    print(
        f"ACCEPTANCE 03 PASS: 50 correlation functionals at d=8, worst ratio "
        f"{worst:.6f} <= {ceiling} in {elapsed:.1f}s"
    )


def test_04_magic_square_game():
    magic = magic_square_functional()
    t0 = time.perf_counter()
    cv = classical_value(magic)
    assert cv == 8.0 / 9.0, f"ACCEPTANCE 04 FAIL: classical value {cv!r} is not exactly 8/9"
    result = seesaw(magic, SeesawConfig(dim=4, seeds=50, rng_seed=1))
    assert result.value >= 1.0 - 1e-3, (
        f"ACCEPTANCE 04 FAIL: see-saw d=4 reached only {result.value!r}"
    )
    nu, _ = max_violation(behavior_from_quantum(result.model))
    assert nu >= 9.0 / 8.0 - 2e-3, f"ACCEPTANCE 04 FAIL: nu {nu!r} below 9/8 - 2e-3"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"ACCEPTANCE 04 FAIL: took {elapsed:.0f}s, budget 600s"
    print(
        f"ACCEPTANCE 04 PASS: magic square classical 8/9 exact, see-saw value "
        f"{result.value:.9f}, nu {nu:.6f} in {elapsed:.0f}s"
    )


def test_05_noise_resistance_identity():
    rng = np.random.default_rng(20240822)
    scenario = Scenario(2, 2, 2, 2)
    worst = 0.0
    t0 = time.perf_counter()
    behaviors = [behavior_from_quantum(build_chsh_optimal_model())]
    behaviors += [
        behavior_from_quantum(_random_model(rng, scenario, 2, "complete"))
        for _ in range(100)
    ]
    for i, behavior in enumerate(behaviors):
        residual = violation_report(behavior).identity_residual
        worst = max(worst, residual)
        assert residual <= 1e-6, (
            f"ACCEPTANCE 05 FAIL: behavior {i} identity residual {residual:.3e}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"ACCEPTANCE 05 FAIL: took {elapsed:.0f}s, budget 300s"
    print(
        f"ACCEPTANCE 05 PASS: |nu - (2/pi - 1)| <= 1e-6 on CHSH-optimal plus "
        f"100 random behaviors (worst {worst:.2e}) in {elapsed:.1f}s"
    )


def test_06_banach_sandwich_exact():
    rng = np.random.default_rng(6)
    t0 = time.perf_counter()
    for i in range(200):
        na, nb = rng.integers(1, 4, size=2)
        ma, mb = rng.integers(1, 4, size=2)
        functional = BellFunctional(
            Scenario(int(na), int(nb), int(ma), int(mb)),
            rng.standard_normal((na, nb, ma, mb)),
        )
        cvi = classical_value_incomplete(functional)
        norm = banach_norm(functional)
        assert cvi <= norm, (
            f"ACCEPTANCE 06 FAIL: functional {i}: incomplete value {cvi!r} above norm {norm!r}"
        )
        assert norm <= 4.0 * cvi, (
            f"ACCEPTANCE 06 FAIL: functional {i}: norm {norm!r} above 4x incomplete value {cvi!r}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"ACCEPTANCE 06 FAIL: took {elapsed:.0f}s, budget 120s"
    print(
        f"ACCEPTANCE 06 PASS: incomplete <= norm <= 4x incomplete held exactly on "
        f"200 random functionals in {elapsed:.1f}s"
    )


def test_07_completion_dominance_pipeline():
    t0 = time.perf_counter()
    lhs_c, rhs_c = eq4_gap(chsh_functional(), SeesawConfig(dim=2, seeds=5))
    assert lhs_c >= rhs_c - 1e-6, (
        f"ACCEPTANCE 07 FAIL: CHSH lhs {lhs_c!r} below rhs {rhs_c!r} - 1e-6"
    )
    lhs_m, rhs_m = eq4_gap(magic_square_functional(), SeesawConfig(dim=4, seeds=5))
    assert lhs_m >= rhs_m - 1e-6, (
        f"ACCEPTANCE 07 FAIL: magic square lhs {lhs_m!r} below rhs {rhs_m!r} - 1e-6"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0, f"ACCEPTANCE 07 FAIL: took {elapsed:.0f}s, budget 900s"
    print(
        f"ACCEPTANCE 07 PASS: completed-model nu dominated the sub-normalized ratio "
        f"(CHSH gap {lhs_c-rhs_c:.2e}, magic square gap {lhs_m-rhs_m:.2e}) in {elapsed:.0f}s"
    )


def test_08_membership_certificates():
    rng = np.random.default_rng(8)
    scenario = Scenario(2, 2, 2, 2)
    quantum = behavior_from_quantum(build_chsh_optimal_model())
    t0 = time.perf_counter()
    for i in range(100):
        behavior = behavior_from_local(random_local_model(rng, scenario), scenario)
        cert = is_local(behavior)
        assert cert.verdict == "local", f"ACCEPTANCE 08 FAIL: mixture {i} verdict {cert.verdict}"
        assert cert.reconstruction_error <= 1e-8, (
            f"ACCEPTANCE 08 FAIL: mixture {i} reconstruction error {cert.reconstruction_error:.2e}"
        )
    d = vertex_matrix(scenario)
    for i in range(20):
        local = behavior_from_local(random_local_model(rng, scenario), scenario)
        probs = 0.9 * quantum.probs + 0.1 * local.probs
        cert = is_local(Behavior(scenario, probs))
        assert cert.verdict == "nonlocal", (
            f"ACCEPTANCE 08 FAIL: violating behavior {i} verdict {cert.verdict}"
        )
        assert cert.margin >= 1e-9, f"ACCEPTANCE 08 FAIL: behavior {i} margin {cert.margin:.2e}"
        # soundness: re-evaluate the separating functional on every vertex
        on_vertices = np.asarray(d @ cert.separating.coeffs.ravel()).ravel()
        value = pair(cert.separating, Behavior(scenario, probs))
        assert value >= float(on_vertices.max()) + 1e-9, (
            f"ACCEPTANCE 08 FAIL: behavior {i} separating functional is not sound"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"ACCEPTANCE 08 FAIL: took {elapsed:.0f}s, budget 120s"
    print(
        "ACCEPTANCE 08 PASS: 100 local mixtures certified local, 20 violating "
        f"behaviors certified nonlocal with sound witnesses in {elapsed:.1f}s"
    )


def test_09_communication_bound():
    rng = np.random.default_rng(9)
    scenario = Scenario(2, 2, 2, 2)
    quantum = behavior_from_quantum(build_chsh_optimal_model())
    bits = comm_bits(max_violation(quantum)[0])
    assert abs(bits - 0.5) <= 1e-6, f"ACCEPTANCE 09 FAIL: CHSH-optimal bits {bits!r}"
    uniform = Behavior(scenario, np.full(scenario.shape, 0.25))
    locals_ = [uniform] + [
        behavior_from_local(random_local_model(rng, scenario), scenario) for _ in range(5)
    ]
    for i, behavior in enumerate(locals_):
        b = comm_bits(max_violation(behavior)[0])
        assert b == 0.0, f"ACCEPTANCE 09 FAIL: local behavior {i} bits {b!r} not exactly 0"
    print(f"ACCEPTANCE 09 PASS: CHSH-optimal needs {bits:.9f} bits, local behaviors exactly 0")


def test_10_numerics_contracts():
    rng = np.random.default_rng(10)
    worst_gap = 0.0
    for i in range(500):
        lp = random_feasible_lp(rng)
        sol = lp_solve(lp)
        assert sol.status == "optimal", f"ACCEPTANCE 10 FAIL: LP {i} status {sol.status}"
        limit = 1e-7 * (1.0 + abs(sol.objective))
        worst_gap = max(worst_gap, sol.duality_gap / limit)
        assert sol.duality_gap <= limit, (
            f"ACCEPTANCE 10 FAIL: LP {i} duality gap {sol.duality_gap:.2e} above {limit:.2e}"
        )
    worst_resid = 0.0
    for i in range(100):
        dim = int(rng.integers(1, 17))
        h = hermitian_part(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        w, v = eigh(h)
        residual = float(np.max(np.abs(h @ v - v * w)))
        worst_resid = max(worst_resid, residual)
        assert residual <= 1e-10, f"ACCEPTANCE 10 FAIL: eigh residual {residual:.2e} on matrix {i}"
    worst_povm = 0.0
    for i in range(50):
        dim = int(rng.integers(2, 5))
        n_out = int(rng.integers(2, 5))
        reduced = [
            hermitian_part(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            for _ in range(n_out)
        ]
        result = povm_update(reduced, "complete")
        gap = result.dual_bound - result.objective
        worst_povm = max(worst_povm, gap)
        assert gap <= 1e-5, f"ACCEPTANCE 10 FAIL: povm_update gap {gap:.2e} on instance {i}"
    print(
        "ACCEPTANCE 10 PASS: 500 LPs within gap budget "
        f"(worst {worst_gap:.3f} of limit), 100 eigh residuals <= 1e-10 "
        f"(worst {worst_resid:.1e}), 50 povm updates within 1e-5 of dual bound "
        f"(worst {worst_povm:.1e})"
    )


def test_11_cli_byte_determinism(tmp_path):
    base = [sys.executable, "-m", "bellcalc"]
    # the subprocesses run in tmp_path, so a relative PYTHONPATH would not resolve
    src = str(Path(bellcalc.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def run(args):
        proc = subprocess.run(base + args, capture_output=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, (
            f"ACCEPTANCE 11 FAIL: {' '.join(args)} exited {proc.returncode}: {proc.stderr!r}"
        )
        return proc.stdout

    # fixtures the commands below consume
    chsh = tmp_path / "chsh.json"
    behavior_path = tmp_path / "behavior.json"
    lossy_path = tmp_path / "lossy.json"
    table_path = tmp_path / "table.json"
    run(["gen", "chsh", "-o", str(chsh)])
    quantum = behavior_from_quantum(build_chsh_optimal_model())
    behavior_path.write_text(
        bio.dump_document(bio.behavior_document(quantum, "chsh-optimal", "fixture")),
        encoding="utf-8")
    lossy = Behavior(quantum.scenario, 0.8 * quantum.probs, completeness="incomplete")
    lossy_path.write_text(
        bio.dump_document(bio.behavior_document(lossy, "lossy", "fixture")),
        encoding="utf-8")
    table_path.write_text(json.dumps({
        "weights": [[0.25, 0.25], [0.25, 0.25]],
        "win": [
            [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
            [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        ],
    }), encoding="utf-8")

    commands = [
        ["gen", "chsh"],
        ["gen", "magic-square"],
        ["gen", "random", "--na", "2", "--nb", "2", "--ma", "3", "--mb", "2", "--seed", "5"],
        ["gen", "game", "--table", str(table_path)],
        ["classical", str(chsh)],
        ["quantum", str(chsh), "--dim", "2", "--seeds", "2"],
        ["behavior", "nu", str(behavior_path)],
        ["behavior", "robustness", str(behavior_path)],
        ["behavior", "commbits", str(behavior_path)],
        ["behavior", "membership", str(behavior_path)],
        ["behavior", "complete", str(lossy_path)],
        ["witness", str(chsh), "--observed", "2.5", "--max-dim", "2", "--seeds", "2"],
        ["eq4", str(chsh), "--dim", "2", "--seeds", "2"],
    ]
    for args in commands:
        first = run(args)
        second = run(args)
        assert first == second, (
            f"ACCEPTANCE 11 FAIL: {' '.join(args)} produced different bytes across runs"
        )
        assert first.endswith(b"\n"), f"ACCEPTANCE 11 FAIL: {' '.join(args)} output unterminated"
    print(f"ACCEPTANCE 11 PASS: {len(commands)} CLI commands byte-stable across two runs")
