"""Command line coverage: pipelines over JSON documents, determinism of
the emitted bytes, and the exit-code contract.

Commands run in-process through main(argv); stdout is captured per run.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcalc import (
    GuardExceededError,
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
from bellcalc.cli import main

from conftest import build_chsh_optimal_model, random_local_model

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
    model_doc = bio.load_document(str(model_path), "quantum_model")
    model = bio.quantum_model_from_document(model_doc)
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
    model = bio.local_model_from_payload(payload["model"], scenario_2222)
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
    from bellcalc.core import Behavior  # noqa: PLC0415
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


def test_signaling_behavior_exits_4(tmp_path, capsys, scenario_2222):
    from bellcalc.core import Behavior  # noqa: PLC0415
    probs = np.full(scenario_2222.shape, 0.25)
    probs[0, 0] = [[0.4, 0.0], [0.1, 0.5]]
    path = tmp_path / "signaling.json"
    path.write_text(bio.dump_document(
        bio.behavior_document(Behavior(scenario_2222, probs), "sig", "test fixture")),
        encoding="utf-8")
    code, out, err = run_cli(capsys, "behavior", "nu", str(path))
    assert code == 4
    assert "signaling" in err


def test_bad_dim_exits_2(capsys, chsh_file):
    code, _, err = run_cli(capsys, "quantum", chsh_file, "--dim", "0", "--seeds", "1")
    assert code == 2
    assert "dim" in err


def test_argparse_usage_error_exits_2(capsys, chsh_file):
    with pytest.raises(SystemExit) as exc:
        main(["quantum", chsh_file])  # missing required --dim
    assert exc.value.code == 2


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


def test_behavior_document_round_trip(chsh_optimal_behavior):
    doc = bio.behavior_document(chsh_optimal_behavior, "rt", "round trip")
    back = bio.behavior_from_document(bio.parse_document(bio.dump_document(doc), "behavior"))
    assert back.probs.tolist() == chsh_optimal_behavior.probs.tolist()
    assert back.completeness == chsh_optimal_behavior.completeness


def test_quantum_model_document_round_trip():
    model = build_chsh_optimal_model()
    doc = bio.quantum_model_document(model, "rt", "round trip")
    back = bio.quantum_model_from_document(bio.parse_document(bio.dump_document(doc), "quantum_model"))
    assert back.state.tolist() == np.asarray(model.state, dtype=complex).tolist()
    for orig, rebuilt in zip(model.alice_povms, back.alice_povms):
        for e1, e2 in zip(orig, rebuilt):
            assert np.asarray(e2).tolist() == np.asarray(e1, dtype=complex).tolist()


def test_stdout_is_a_single_terminated_document(capsys, chsh_file):
    code, out, err = run_cli(capsys, "classical", chsh_file)
    assert code == 0
    assert out.endswith("\n")
    assert out.count('"format_version"') == 1
    # canonical: re-serializing the parsed document reproduces the bytes
    assert bio.dump_document(json.loads(out)) == out
