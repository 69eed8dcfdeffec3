"""Command line coverage: pipelines over JSON documents, determinism of
the emitted bytes, and the exit-code contract.

Commands run in-process through main(argv); stdout is captured per run.
The import-boundary tests run main in a fresh interpreter instead, since
an earlier test has already imported scipy into this one.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellcalc
from bellcalc import (
    Behavior,
    BellFunctional,
    DeterministicStrategy,
    DocumentError,
    GuardExceededError,
    LocalModel,
    QuantumModel,
    Scenario,
    behavior_from_local,
    behavior_from_quantum,
    classical_value,
    is_local,
    max_violation,
    noise_robustness,
    pair,
)
from bellcalc import io as bio
from bellcalc import numerics, violation
from bellcalc.cli import build_parser, main
from bellcalc.numerics import LpSolution
from bellcalc.seesaw import _random_model

from conftest import build_chsh_optimal_model, invalid_behavior_probs, random_local_model

ROOT2 = np.sqrt(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


def model_from_payload(payload) -> QuantumModel:
    """The QuantumModel a quantum_model document lists, [re, im] pairs joined."""
    def joined(key):
        pairs = np.asarray(payload[key], dtype=np.float64)
        return pairs[..., 0] + 1j * pairs[..., 1]

    return QuantumModel(payload["dim_a"], payload["dim_b"], joined("state"),
                        joined("alice_povms"), joined("bob_povms"),
                        completeness=payload["completeness"])


@pytest.fixture()
def chsh_file(tmp_path, capsys):
    path = tmp_path / "chsh.json"
    code, _, _ = run_cli(capsys, "gen", "chsh", "-o", str(path))
    assert code == 0
    return str(path)


@pytest.fixture()
def chsh_optimal_file(tmp_path, chsh_optimal_behavior):
    path = tmp_path / "chsh-optimal.json"
    doc = bio.behavior_document(chsh_optimal_behavior, "chsh-optimal", "test fixture")
    path.write_text(bio.dump_document(doc), encoding="utf-8")
    return str(path)


def test_gen_chsh_writes_and_prints_same_document(tmp_path, capsys):
    path = tmp_path / "chsh.json"
    doc = run_json(capsys, "gen", "chsh", "-o", str(path))
    assert doc["kind"] == "functional"
    assert doc["scenario"] == {"na": 2, "nb": 2, "ma": 2, "mb": 2}
    on_disk = json.loads(path.read_text(encoding="utf-8"))
    assert on_disk == doc


def test_classical_on_chsh(capsys, chsh_file):
    doc = run_json(capsys, "classical", chsh_file)
    payload = doc["payload"]
    assert payload["classical_value"] == 2.0
    assert payload["classical_value_incomplete"] == 2.0
    assert payload["banach_norm"] == 2.0
    assert payload["sandwich_ratio"] == 1.0


def test_classical_on_magic_square(tmp_path, capsys):
    path = tmp_path / "ms.json"
    run_json(capsys, "gen", "magic-square", "-o", str(path))
    doc = run_json(capsys, "classical", str(path))
    assert doc["payload"]["classical_value"] == 8.0 / 9.0


def test_output_bytes_are_deterministic(capsys, chsh_file):
    code1, out1, _ = run_cli(capsys, "classical", chsh_file)
    code2, out2, _ = run_cli(capsys, "classical", chsh_file)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run_cli(capsys, "quantum", chsh_file, "--dim", "2", "--seeds", "2")
    code4, out4, _ = run_cli(capsys, "quantum", chsh_file, "--dim", "2", "--seeds", "2")
    assert code3 == code4 == 0
    assert out3 == out4


def test_quantum_emits_reloadable_model(tmp_path, capsys, chsh_file, chsh):
    model_path = tmp_path / "model.json"
    doc = run_json(capsys, "quantum", chsh_file, "--dim", "2", "--seeds", "3",
                   "--emit-model", str(model_path))
    payload = doc["payload"]
    assert payload["value"] == pytest.approx(2.0 * ROOT2, abs=1e-8)
    assert payload["ratio"] == pytest.approx(ROOT2, abs=1e-8)
    assert payload["converged"] is True
    assert len(payload["per_seed_values"]) == 3
    assert payload["model_path"] == str(model_path)
    model = model_from_payload(bio.load_document(str(model_path), "quantum_model")["payload"])
    value = abs(pair(chsh, behavior_from_quantum(model)))
    assert value == pytest.approx(payload["value"], abs=1e-12)


def test_behavior_nu_full_report(capsys, chsh_optimal_file, chsh_optimal_behavior):
    doc = run_json(capsys, "behavior", "nu", chsh_optimal_file)
    payload = doc["payload"]
    assert payload["nu"] == pytest.approx(ROOT2, abs=1e-9)
    assert payload["identity_residual"] <= 1e-6
    assert payload["comm_bound_bits"] == pytest.approx(0.5, abs=1e-6)
    assert payload["boundary"] is False
    witness = bio.functional_from_document(payload["witness"])
    assert classical_value(witness) == 1.0
    assert abs(pair(witness, chsh_optimal_behavior)) == pytest.approx(payload["nu"], abs=1e-9)


def test_behavior_robustness_and_commbits(capsys, chsh_optimal_file):
    robustness = run_json(capsys, "behavior", "robustness", chsh_optimal_file)
    assert robustness["payload"]["pi"] == pytest.approx(2.0 / (ROOT2 + 1.0), abs=1e-7)
    commbits = run_json(capsys, "behavior", "commbits", chsh_optimal_file)
    assert commbits["payload"]["comm_bound_bits"] == pytest.approx(0.5, abs=1e-6)


def test_behavior_membership_local(tmp_path, capsys, rng, scenario_2222):
    behavior = behavior_from_local(random_local_model(rng, scenario_2222), scenario_2222)
    path = tmp_path / "local.json"
    path.write_text(bio.dump_document(
        bio.behavior_document(behavior, "local-mix", "test fixture")), encoding="utf-8")
    doc = run_json(capsys, "behavior", "membership", str(path))
    payload = doc["payload"]
    assert payload["verdict"] == "local"
    assert payload["reconstruction_error"] <= 1e-8
    model = LocalModel(tuple(
        (e["weight"], DeterministicStrategy(tuple(e["alice_outputs"]), tuple(e["bob_outputs"])))
        for e in payload["model"]))
    recon = behavior_from_local(model, scenario_2222)
    assert np.max(np.abs(recon.probs - behavior.probs)) <= 1e-8


def test_behavior_membership_nonlocal(capsys, chsh_optimal_file, chsh_optimal_behavior):
    doc = run_json(capsys, "behavior", "membership", chsh_optimal_file)
    payload = doc["payload"]
    assert payload["verdict"] == "nonlocal"
    assert payload["model"] is None
    separating = bio.functional_from_document(payload["separating"])
    assert pair(separating, chsh_optimal_behavior) == pytest.approx(
        payload["value_on_behavior"], abs=1e-12)
    assert payload["margin"] >= 1e-9


def test_behavior_complete_pipeline(tmp_path, capsys, rng, scenario_2222):
    base = behavior_from_local(random_local_model(rng, scenario_2222), scenario_2222)
    lossy = Behavior(scenario_2222, 0.6 * base.probs, completeness="incomplete")
    path = tmp_path / "lossy.json"
    path.write_text(bio.dump_document(
        bio.behavior_document(lossy, "lossy", "test fixture")), encoding="utf-8")
    doc = run_json(capsys, "behavior", "complete", str(path))
    assert doc["kind"] == "behavior"
    assert doc["metadata"]["name"] == "lossy-completed"
    completed = bio.behavior_from_document(doc)
    assert completed.is_complete
    assert completed.scenario == Scenario(2, 2, 3, 3)
    np.testing.assert_allclose(completed.probs[:, :, :2, :2], lossy.probs, atol=1e-12)


def test_eq4_command(capsys, chsh_file):
    doc = run_json(capsys, "eq4", chsh_file, "--dim", "2", "--seeds", "3")
    payload = doc["payload"]
    assert payload["rhs"] == pytest.approx(ROOT2, abs=1e-6)
    assert payload["holds"] is True
    assert payload["gap"] == payload["lhs_lower"] - payload["rhs"]


def test_witness_command(capsys, chsh_file):
    doc = run_json(capsys, "witness", chsh_file, "--observed", "2.5",
                   "--max-dim", "2", "--seeds", "4")
    payload = doc["payload"]
    assert payload["label"] == "HEURISTIC"
    assert [e["dim"] for e in payload["entries"]] == [1, 2]
    assert payload["entries"][0]["exceeded"] is True
    assert payload["entries"][1]["exceeded"] is False
    assert payload["warning"] is None


@pytest.mark.parametrize("observed", ["nan", "inf"])
def test_witness_non_finite_observation_exits_2_before_the_seesaw(capsys, chsh_file, monkeypatch,
                                                                   observed):
    def no_seesaw(*args, **kwargs):
        pytest.fail("the see-saw ran before the non-finite observed value was rejected")
    monkeypatch.setattr(importlib.import_module("bellcalc.violation"), "seesaw", no_seesaw)
    code, out, err = run_cli(capsys, "witness", chsh_file, "--observed", observed,
                             "--max-dim", "3", "--seeds", "1")
    assert (code, out) == (2, "")
    assert err == f"error: observed value must be finite, got {float(observed)!r}\n"


def test_gen_game(tmp_path, capsys):
    table = {
        "weights": [[0.25, 0.25], [0.25, 0.25]],
        "win": [[[[1, 0], [0, 1]]] * 2] * 2,
    }
    table["win"] = [
        [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
        [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
    ]
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(table), encoding="utf-8")
    out_path = tmp_path / "game.json"
    doc = run_json(capsys, "gen", "game", "--table", str(table_path), "-o", str(out_path))
    functional = bio.functional_from_document(doc)
    # the table above is the CHSH game; its classical value is 3/4
    assert classical_value(functional) == 0.75


CHSH_WIN = [
    [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
]


@pytest.mark.parametrize("table", [
    {"weights": "abc", "win": CHSH_WIN},
    {"weights": [[0.25, 0.25], [0.25, 0.25]], "win": [CHSH_WIN[0], [CHSH_WIN[1][0], [[0, 1]]]]},
    {"weights": [[0.25, 0.25], [0.25, float("nan")]], "win": CHSH_WIN},
], ids=["string-weights", "ragged-win", "nan-weight"])
def test_gen_game_rejects_a_malformed_table(tmp_path, capsys, table):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    code, out, err = run_cli(capsys, "gen", "game", "--table", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "weights" in err


def test_gen_game_requires_table(capsys):
    code, out, err = run_cli(capsys, "gen", "game")
    assert code == 2
    assert out == ""
    assert "table" in err


def test_gen_random_is_seed_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "gen", "random", "--na", "3", "--nb", "1",
                         "--ma", "2", "--mb", "3", "--seed", "7")
    _, out2, _ = run_cli(capsys, "gen", "random", "--na", "3", "--nb", "1",
                         "--ma", "2", "--mb", "3", "--seed", "7")
    _, out3, _ = run_cli(capsys, "gen", "random", "--na", "3", "--nb", "1",
                         "--ma", "2", "--mb", "3", "--seed", "8")
    assert out1 == out2
    assert out1 != out3
    doc = json.loads(out1)
    assert doc["scenario"] == {"na": 3, "nb": 1, "ma": 2, "mb": 3}


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": "1", "kind": ', encoding="utf-8")
    code, out, err = run_cli(capsys, "classical", str(path))
    assert code == 2
    assert out == ""
    assert "byte" in err


def test_missing_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "classical", "/nonexistent/input.json")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", [("classical",), ("gen", "game", "--table")],
                         ids=["classical", "gen-game-table"])
def test_non_utf8_input_exits_2(tmp_path, capsys, command):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read {path}: not UTF-8 (invalid start byte at byte 0)\n"


@pytest.mark.parametrize("command", [
    ("gen", "chsh", "-o"),
    ("quantum", "CHSH", "--dim", "2", "--seeds", "1", "--emit-model"),
], ids=["gen-output", "quantum-emit-model"])
def test_unwritable_output_exits_2(tmp_path, capsys, chsh_file, command):
    target = str(tmp_path / "no-such-dir" / "out.json")
    argv = [chsh_file if a == "CHSH" else a for a in command]
    code, out, err = run_cli(capsys, *argv, target)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_unwritable_emit_model_fails_before_the_seesaw(tmp_path, capsys, chsh_file, monkeypatch):
    def no_seesaw(*args, **kwargs):
        pytest.fail("the see-saw ran before the unwritable --emit-model path was reported")
    monkeypatch.setattr(importlib.import_module("bellcalc.cli"), "seesaw", no_seesaw)
    target = str(tmp_path / "no-such-dir" / "model.json")
    code, out, err = run_cli(capsys, "quantum", chsh_file, "--dim", "2", "--seeds", "1",
                             "--emit-model", target)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_failed_seesaw_leaves_emit_model_path_as_it_was(tmp_path, capsys, chsh_file, monkeypatch):
    def failing_seesaw(*args, **kwargs):
        raise GuardExceededError("see-saw stopped")
    monkeypatch.setattr(importlib.import_module("bellcalc.cli"), "seesaw", failing_seesaw)
    existing = tmp_path / "existing.json"
    existing.write_text("keep me\n", encoding="utf-8")
    fresh = tmp_path / "fresh.json"
    dangling = tmp_path / "dangling.json"  # a symlink whose target does not exist
    dangling.symlink_to(tmp_path / "target.json")
    for target in (existing, fresh, dangling):
        code, out, err = run_cli(capsys, "quantum", chsh_file, "--dim", "2", "--seeds", "1",
                                 "--emit-model", str(target))
        assert (code, out, err) == (3, "", "error: see-saw stopped\n")
    assert existing.read_text(encoding="utf-8") == "keep me\n"
    assert not fresh.exists()
    assert dangling.is_symlink() and not (tmp_path / "target.json").exists()


def test_wrong_kind_exits_2(capsys, chsh_file):
    # a functional document fed to a behavior command
    code, _, err = run_cli(capsys, "behavior", "nu", chsh_file)
    assert code == 2
    assert "behavior" in err


def test_guard_exit_3(capsys, chsh_file, monkeypatch):
    monkeypatch.setenv("BELL_GUARD_LIMIT", "3")
    code, out, err = run_cli(capsys, "classical", chsh_file)
    assert code == 3
    assert "BELL_GUARD_LIMIT" in err


def test_vertex_guard_trips_on_a_cached_vertex_matrix(capsys, chsh_optimal_behavior,
                                                      chsh_optimal_file, monkeypatch):
    # nu caches the 16-vertex matrix of 2x2x2x2; a limit of 3 must still trip
    max_violation(chsh_optimal_behavior)
    monkeypatch.setenv("BELL_GUARD_LIMIT", "3")
    for quantity in (max_violation, noise_robustness, is_local):
        with pytest.raises(GuardExceededError, match="BELL_GUARD_LIMIT"):
            quantity(chsh_optimal_behavior)
    code, _, err = run_cli(capsys, "behavior", "nu", chsh_optimal_file)
    assert code == 3
    assert "BELL_GUARD_LIMIT" in err


def test_membership_guard_exits_3_before_any_lp(capsys, chsh_optimal_file, monkeypatch):
    # the oracle enumerates 4 + 4 assignments of 2x2x2x2; a limit of 7 trips
    opened = []
    monkeypatch.setattr(numerics, "_run", lambda *args: opened.append(args))
    monkeypatch.setenv("BELL_GUARD_LIMIT", "7")
    code, out, err = run_cli(capsys, "behavior", "membership", chsh_optimal_file)
    assert (code, out, opened) == (3, "", [])
    assert err == ("error: membership oracle needs 8 assignments, above the guard of 7; "
                   "set BELL_GUARD_LIMIT to override (unsafe)\n")


@pytest.mark.parametrize("case", ["block-mass", "negative"])
def test_membership_of_an_invalid_behavior_exits_2(tmp_path, capsys, scenario_2222, case):
    path = tmp_path / "invalid.json"
    path.write_text(bio.dump_document(bio.behavior_document(
        Behavior(scenario_2222, invalid_behavior_probs(case)), case, "test fixture")),
        encoding="utf-8")
    code, out, err = run_cli(capsys, "behavior", "membership", str(path))
    assert code == 2
    assert out == ""
    assert "valid behavior" in err


def test_witness_max_dim_above_the_cap_exits_3_before_any_seesaw(capsys, chsh_file,
                                                                 monkeypatch):
    calls = []
    monkeypatch.setattr(violation, "seesaw", lambda *args, **kwargs: calls.append(args))
    code, out, err = run_cli(capsys, "witness", chsh_file, "--observed", "2.5",
                             "--max-dim", "65")
    assert code == 3
    assert out == ""
    assert "joint dimension 65^2" in err
    assert calls == []


@pytest.mark.parametrize("command", ["quantum", "eq4"])
def test_dim_above_the_joint_cap_exits_3(capsys, chsh_file, command):
    code, out, err = run_cli(capsys, command, chsh_file, "--dim", "65")
    assert code == 3
    assert out == ""
    assert "joint dimension 65^2" in err


@pytest.mark.parametrize("command, required", [
    ("quantum", ["--dim", "2"]),
    ("witness", ["--observed", "2.5", "--max-dim", "2"]),
    ("eq4", ["--dim", "2"]),
])
def test_seesaw_commands_share_seeds_and_rng_seed(command, required):
    parser = build_parser()
    args = parser.parse_args([command, "f.json", *required])
    assert (args.seeds, args.rng_seed) == (20, 0)
    args = parser.parse_args([command, "f.json", *required, "--seeds", "3", "--rng-seed", "7"])
    assert (args.seeds, args.rng_seed) == (3, 7)


def test_signaling_behavior_exits_4(tmp_path, capsys, scenario_2222):
    probs = np.full(scenario_2222.shape, 0.25)
    probs[0, 0] = [[0.4, 0.0], [0.1, 0.5]]
    path = tmp_path / "signaling.json"
    path.write_text(bio.dump_document(
        bio.behavior_document(Behavior(scenario_2222, probs), "sig", "test fixture")),
        encoding="utf-8")
    code, out, err = run_cli(capsys, "behavior", "nu", str(path))
    assert code == 4
    assert "signaling" in err


def test_behavior_signaling_within_the_tolerance_gets_nu(tmp_path, capsys, chsh_optimal_behavior):
    probs = chsh_optimal_behavior.probs.copy()
    probs[0, 0, 0, 0] += 1e-10
    probs[0, 0, 0, 1] -= 1e-10
    path = tmp_path / "leaky.json"
    path.write_text(bio.dump_document(
        bio.behavior_document(Behavior(chsh_optimal_behavior.scenario, probs), "leaky",
                              "test fixture")), encoding="utf-8")
    for quantity in ("nu", "commbits"):
        payload = run_json(capsys, "behavior", quantity, str(path))["payload"]
        assert payload["comm_bound_bits"] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("solver, argv, status, expected", [
    ("bellcalc.violation.lp_solve", ("behavior", "nu"), "failed", 5),
    ("bellcalc.violation.lp_solve", ("behavior", "nu"), "infeasible", 5),
    ("bellcalc.violation.lp_solve", ("behavior", "nu"), "unbounded", 5),
    ("bellcalc.violation.lp_solve", ("behavior", "robustness"), "failed", 5),
    ("bellcalc.numerics.RestrictedMaster.solve", ("behavior", "membership"), "failed", 5),
], ids=["nu-failed", "nu-infeasible", "nu-unbounded", "robustness-failed", "membership-failed"])
def test_solver_failure_exits_5(capsys, chsh_optimal_file, monkeypatch,
                                solver, argv, status, expected):
    # an LP without a certified optimum is the solver's failure, not the input's
    ended = LpSolution(status, None, None, None, np.inf, np.inf, np.inf, 0)
    monkeypatch.setattr(solver, lambda *args, **kwargs: ended)
    code, out, err = run_cli(capsys, *argv, chsh_optimal_file)
    assert code == expected
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if expected == 5:
        assert f"status {status!r}" in err


def test_membership_certifies_the_master_that_ended_pricing(capsys, chsh_optimal_file,
                                                           monkeypatch):
    # each round's answer goes unchecked into pricing: spoiling the primal
    # point of the last one alone, which the duals that ended pricing came
    # with, must still fail the certificate (exit 5)
    run, calls = numerics._run, []
    monkeypatch.setattr(numerics, "_run", lambda *args: calls.append(1) or run(*args))
    clean = run_json(capsys, "behavior", "membership", chsh_optimal_file)
    rounds = len(calls)

    def spoil_last(*args):
        calls.append(1)
        res = run(*args)
        if len(calls) == 2 * rounds:
            res["x"] = res["x"] + 1.0
        return res

    monkeypatch.setattr(numerics, "_run", spoil_last)
    code, out, err = run_cli(capsys, "behavior", "membership", chsh_optimal_file)
    assert clean["payload"]["verdict"] == "nonlocal"
    assert (code, out, len(calls)) == (5, "", 2 * rounds)
    assert err == "error: membership LP ended with status 'failed'\n"


@pytest.mark.parametrize("spoil", ["withheld column", "later round not optimal"])
def test_robustness_certifies_every_column_of_the_priced_lp(tmp_path, capsys, monkeypatch, spoil):
    # the pi LP is priced over a working set (three rounds on this local
    # qubit behavior, where the first round's worst column is needed); the
    # answer is certified on every posed column, so pricing that withholds
    # it, or a later round that ends without an optimum, exits 5
    behavior = behavior_from_quantum(_random_model(np.random.default_rng(8), Scenario(2, 2, 2, 2),
                                                   2, "complete"))
    path = str(tmp_path / "qubit.json")
    Path(path).write_text(bio.dump_document(bio.behavior_document(behavior, "qubit", "test")),
                          encoding="utf-8")
    posed, lp_solve = [], numerics.lp_solve

    def keep(lp, columns=None, rows=None):
        posed.append((lp, columns))
        return lp_solve(lp, columns, rows)

    monkeypatch.setattr(violation, "lp_solve", keep)
    clean = run_json(capsys, "behavior", "robustness", path)["payload"]
    if spoil == "withheld column":
        best, worst = numerics.best_columns, []

        def withholding(found, score, limit, exclude=()):
            worst[:] = worst or best(found, score, 1, exclude)  # the first round's worst column
            new = best(found, score, limit, exclude)
            return new[new != worst[0]]

        monkeypatch.setattr(numerics, "best_columns", withholding)
        sol = lp_solve(*posed[-1])
        assert sol.status == "failed" and sol.dual_residual > numerics.LP_DUAL_TOL
    else:
        run, calls = numerics._run, []

        def second_stops(highs, strategy):
            calls.append(strategy)
            res = run(highs, strategy)
            stopped = {**res, "status": SimpleNamespace(name="kIterationLimit")}
            return stopped if len(calls) == 2 else res

        monkeypatch.setattr(numerics, "_run", second_stops)
    code, out, err = run_cli(capsys, "behavior", "robustness", path)
    assert clean["pi"] == 1.0
    assert (code, out) == (5, "")
    assert err == "error: noise robustness LP ended with status 'failed'\n"


def test_non_finite_report_value_exits_2(capsys, chsh_optimal_file, monkeypatch):
    # the document writer rejects NaN; the command dumps its report where
    # its errors are caught, so it exits 2 with one line and prints nothing
    monkeypatch.setattr(importlib.import_module("bellcalc.cli"), "noise_robustness",
                        lambda behavior: float("nan"))
    code, out, err = run_cli(capsys, "behavior", "robustness", chsh_optimal_file)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_membership_out_of_memory_exits_3(capsys, chsh_optimal_file, monkeypatch):
    # a master HiGHS cannot allocate is a resource limit, not a crash
    def exhausted(self, c, columns):
        raise MemoryError("std::bad_alloc")

    monkeypatch.setattr(numerics.RestrictedMaster, "solve", exhausted)
    code, out, err = run_cli(capsys, "behavior", "membership", chsh_optimal_file)
    assert (code, out) == (3, "")
    assert err == "error: out of memory: std::bad_alloc\n"
    assert "Traceback" not in err


def test_capped_seesaw_exits_0_or_5(tmp_path, capsys):
    # three sweeps can end on POVM elements with negative eigenvalues; that
    # model is the see-saw's own, so the failure is the solver's (exit 5)
    path = str(tmp_path / "magic.json")
    assert run_cli(capsys, "gen", "magic-square", "-o", path)[0] == 0
    code, out, err = run_cli(capsys, "quantum", path, "--dim", "4", "--seeds", "1",
                             "--rng-seed", "110", "--sweeps", "3")
    assert code in (0, 5)
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_dim_exits_2(capsys, chsh_file):
    code, _, err = run_cli(capsys, "quantum", chsh_file, "--dim", "0", "--seeds", "1")
    assert code == 2
    assert "dim" in err


def test_argparse_usage_error_exits_2(capsys, chsh_file):
    with pytest.raises(SystemExit) as exc:
        main(["quantum", chsh_file])  # missing required --dim
    assert exc.value.code == 2


# Runs main(argv) in a fresh interpreter and reports the scipy modules it loaded.
_SCIPY_PROBE = """
import contextlib, io, json, sys
from bellcalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def scipy_modules_after(cwd, argv):
    src = str(Path(bellcalc.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], capture_output=True,
                          text=True, cwd=cwd, env=env, check=True)
    code, modules = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    return set(modules)


@pytest.fixture()
def cli_inputs(tmp_path, chsh_file, chsh_optimal_behavior):
    lossy = tmp_path / "lossy.json"
    lossy.write_text(bio.dump_document(bio.behavior_document(
        Behavior(chsh_optimal_behavior.scenario, 0.8 * chsh_optimal_behavior.probs,
                 completeness="incomplete"), "lossy", "test fixture")), encoding="utf-8")
    table = tmp_path / "table.json"
    table.write_text(json.dumps({
        "weights": [[0.25, 0.25], [0.25, 0.25]],
        "win": [[[[1, 0], [0, 1]], [[1, 0], [0, 1]]], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]],
    }), encoding="utf-8")
    return {"chsh": chsh_file, "lossy": str(lossy), "table": str(table)}


@pytest.mark.parametrize("argv", [
    ("gen", "chsh"),
    ("gen", "magic-square"),
    ("gen", "random", "--na", "2", "--nb", "2", "--ma", "3", "--mb", "2", "--seed", "5"),
    ("gen", "game", "--table", "{table}"),
    ("classical", "{chsh}"),
    ("quantum", "{chsh}", "--dim", "2", "--seeds", "1"),
    ("behavior", "complete", "{lossy}"),
    ("witness", "{chsh}", "--observed", "2.5", "--max-dim", "2", "--seeds", "1"),
], ids=["gen-chsh", "gen-magic-square", "gen-random", "gen-game", "classical", "quantum",
        "behavior-complete", "witness"])
def test_commands_without_an_lp_never_import_scipy(tmp_path, cli_inputs, argv):
    argv = [arg.format(**cli_inputs) for arg in argv]
    assert scipy_modules_after(tmp_path, argv) == set()


def test_lp_command_loads_highs_without_scipy_optimize(tmp_path, chsh_optimal_file):
    # HiGHS's extension module and its submodules, and scipy.sparse's compiled
    # loops, no other scipy module: neither the scipy.optimize package nor
    # the scipy.sparse package
    core, tools = "scipy.optimize._highspy._core", "scipy.sparse._sparsetools"
    modules = scipy_modules_after(tmp_path, ["behavior", "nu", chsh_optimal_file])
    assert {core, tools} <= modules
    assert {m for m in modules if m != tools and m != core and not m.startswith(core + ".")} \
        == set()


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-1e12, max_value=1e12),
    min_size=16, max_size=16,
))
def test_functional_document_round_trip_is_bit_exact(values):
    from bellcalc import BellFunctional  # noqa: PLC0415
    coeffs = np.array(values).reshape(2, 2, 2, 2)
    f = BellFunctional(Scenario(2, 2, 2, 2), coeffs)
    doc = bio.functional_document(f, "fuzz", "round trip")
    text = bio.dump_document(doc)
    back = bio.functional_from_document(bio.parse_document(text, "functional"))
    assert back.coeffs.tolist() == coeffs.tolist()


def test_numpy_values_are_written_as_plain_json():
    # numpy scalars as Python numbers, arrays as nested lists, and every
    # complex entry as [re, im]: the bytes the writer has always produced
    payload = {"float": np.float64(2 / 3), "int": np.int64(-7), "bool": np.bool_(True),
               "real": np.array([0.1, -2.5e-17]), "complex": np.array([[1 + 0.5j], [-0.25j]])}
    text = bio.dump_document(bio.document("report", None, payload, "numpy", "test"))
    assert text == """{
  "format_version": "1",
  "kind": "report",
  "scenario": null,
  "payload": {
    "float": 0.6666666666666666,
    "int": -7,
    "bool": true,
    "real": [
      0.1,
      -2.5e-17
    ],
    "complex": [
      [
        [
          1.0,
          0.5
        ]
      ],
      [
        [
          -0.0,
          -0.25
        ]
      ]
    ]
  },
  "metadata": {
    "name": "numpy",
    "provenance": "test"
  }
}
"""


def test_behavior_document_round_trip(chsh_optimal_behavior):
    doc = bio.behavior_document(chsh_optimal_behavior, "rt", "round trip")
    back = bio.behavior_from_document(bio.parse_document(bio.dump_document(doc), "behavior"))
    assert back.probs.tolist() == chsh_optimal_behavior.probs.tolist()
    assert back.completeness == chsh_optimal_behavior.completeness


def test_quantum_model_document_round_trip():
    model = build_chsh_optimal_model()
    doc = bio.quantum_model_document(model, "rt", "round trip")
    back = model_from_payload(bio.parse_document(bio.dump_document(doc), "quantum_model")["payload"])
    assert back.state.tolist() == np.asarray(model.state, dtype=complex).tolist()
    for orig, rebuilt in zip(model.alice_povms, back.alice_povms):
        for e1, e2 in zip(orig, rebuilt):
            assert np.asarray(e2).tolist() == np.asarray(e1, dtype=complex).tolist()


@pytest.mark.parametrize("header, match", [
    (None, "missing its scenario"),
    ({"na": 2, "nb": 2, "ma": 2}, "missing key 'mb'"),
    ({"na": 2, "nb": 0, "ma": 2, "mb": 2}, r"scenario\.nb must be a positive integer"),
    ({"na": 2, "nb": 2, "ma": True, "mb": 2}, r"scenario\.ma must be a positive integer"),
], ids=["missing", "missing-key", "zero", "bool"])
def test_document_readers_check_the_scenario_header(header, match, chsh, chsh_optimal_behavior):
    for doc, read in [(bio.functional_document(chsh, "bad", "test"), bio.functional_from_document),
                      (bio.behavior_document(chsh_optimal_behavior, "bad", "test"),
                       bio.behavior_from_document)]:
        doc = json.loads(bio.dump_document(doc))
        if header is None:
            del doc["scenario"]
        else:
            doc["scenario"] = header
        with pytest.raises(DocumentError, match=match):
            read(doc)


def test_quantum_ratio_is_null_for_a_zero_functional(tmp_path, capsys):
    path = tmp_path / "zero.json"
    zero = BellFunctional(Scenario(2, 2, 2, 2), np.zeros((2, 2, 2, 2)))
    path.write_text(bio.dump_document(bio.functional_document(zero, "zero", "test")), encoding="utf-8")
    payload = run_json(capsys, "quantum", str(path), "--dim", "2", "--seeds", "1")["payload"]
    assert payload["value"] == 0.0
    assert payload["ratio"] is None


def test_stdout_is_a_single_terminated_document(capsys, chsh_file):
    code, out, err = run_cli(capsys, "classical", chsh_file)
    assert code == 0
    assert out.endswith("\n")
    assert out.count('"format_version"') == 1
    # canonical: re-serializing the parsed document reproduces the bytes
    assert bio.dump_document(json.loads(out)) == out
