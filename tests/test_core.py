"""Scenario types, behavior factories, validation, no-signaling."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcalc import (
    Behavior,
    BellFunctional,
    DeterministicStrategy,
    InvariantViolation,
    LocalModel,
    QuantumModel,
    Scenario,
    ScenarioMismatchError,
    SeesawConfig,
    ValidationError,
    behavior_from_local,
    behavior_from_quantum,
    no_signaling_check,
    pair,
    seesaw,
    validate,
)
from bellcalc.core import hermitian_part, require_valid
from bellcalc.numerics import random_povms
from conftest import chsh_optimal_probs, random_local_model


def test_scenario_rejects_nonpositive_counts():
    with pytest.raises(ValidationError):
        Scenario(0, 1, 2, 2)
    with pytest.raises(ValidationError):
        Scenario(1, 1, 2, -2)


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("flag", [True, np.True_])
def test_scenario_rejects_bool_counts(position, flag):
    # True == 1 is an int to isinstance; the document reader refuses JSON true too
    counts = [2, 2, 2, 2]
    counts[position] = flag
    with pytest.raises(ValidationError, match="must be an integer >= 1"):
        Scenario(*counts)


def test_require_valid_raises_the_validate_report(scenario_2222):
    probs = np.full((2, 2, 2, 2), 0.25)
    require_valid(Behavior(scenario_2222, probs), "unused")
    probs[0, 0, 0, 0] = 0.5
    bad = Behavior(scenario_2222, probs)
    with pytest.raises(ValidationError, match="^behavior is bad: block mass = 1") as info:
        require_valid(bad, "behavior is bad")
    assert info.value.report == validate(bad)


def test_functional_shape_is_enforced(scenario_2222):
    with pytest.raises(ValidationError):
        BellFunctional(scenario_2222, np.zeros((2, 2, 2)))


def test_pair_on_deterministic_strategy_picks_coefficients(chsh):
    # all-zero outputs pick T[x][y][0][0] for every input pair
    strategy = DeterministicStrategy((0, 0), (0, 0))
    behavior = behavior_from_local(LocalModel(((1.0, strategy),)), chsh.scenario)
    expected = chsh.coeffs[:, :, 0, 0].sum()
    assert pair(chsh, behavior) == pytest.approx(expected, abs=1e-12)
    assert expected == 2.0


def test_pair_rejects_mismatched_scenarios(chsh):
    other = Scenario(2, 2, 3, 3)
    behavior = Behavior(other, np.full(other.shape, 1.0 / 9.0), "complete")
    with pytest.raises(ScenarioMismatchError):
        pair(chsh, behavior)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(-3, 3))
def test_pair_is_bilinear_in_the_functional(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    s = Scenario(2, 2, 2, 2)
    t1 = rng.standard_normal(s.shape)
    t2 = rng.standard_normal(s.shape)
    probs = np.full(s.shape, 0.25)
    q = Behavior(s, probs, "complete")
    lhs = pair(BellFunctional(s, alpha * t1 + beta * t2), q)
    rhs = alpha * pair(BellFunctional(s, t1), q) + beta * pair(BellFunctional(s, t2), q)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_behavior_from_local_accumulates_weights(scenario_2222, rng):
    model = random_local_model(rng, scenario_2222, n_strategies=4)
    behavior = behavior_from_local(model, scenario_2222)
    assert behavior.completeness == "complete"
    # each block must be a probability distribution
    np.testing.assert_allclose(behavior.probs.sum(axis=(2, 3)), 1.0, atol=1e-12)
    assert validate(behavior) == ()


def test_behavior_from_local_subnormalized_total(scenario_2222, rng):
    model = random_local_model(rng, scenario_2222, total=0.4)
    behavior = behavior_from_local(model, scenario_2222)
    assert behavior.completeness == "incomplete"
    np.testing.assert_allclose(behavior.probs.sum(axis=(2, 3)), 0.4, atol=1e-12)


def test_behavior_from_local_rejects_negative_weight(scenario_2222):
    strategy = DeterministicStrategy((0, 0), (0, 0))
    model = LocalModel(((-0.1, strategy), (1.1, strategy)))
    with pytest.raises(ValidationError):
        behavior_from_local(model, scenario_2222)


def test_behavior_from_local_rejects_overweight(scenario_2222):
    strategy = DeterministicStrategy((0, 0), (0, 0))
    model = LocalModel(((0.7, strategy), (0.7, strategy)))
    with pytest.raises(ValidationError):
        behavior_from_local(model, scenario_2222)


def test_behavior_from_local_rejects_out_of_range_outputs(scenario_2222):
    strategy = DeterministicStrategy((0, 5), (0, 0))
    with pytest.raises(ValidationError):
        behavior_from_local(LocalModel(((1.0, strategy),)), scenario_2222)


def test_quantum_behavior_matches_closed_form(chsh_optimal_model):
    behavior = behavior_from_quantum(chsh_optimal_model)
    np.testing.assert_allclose(behavior.probs, chsh_optimal_probs(), atol=1e-12)


def test_quantum_behavior_rejects_invalid_model(chsh_optimal_model):
    bad_state = np.asarray(chsh_optimal_model.state) * 2.0
    model = QuantumModel(
        2, 2, bad_state,
        chsh_optimal_model.alice_povms, chsh_optimal_model.bob_povms,
        completeness="complete",
    )
    with pytest.raises(ValidationError):
        behavior_from_quantum(model)


def test_validate_reports_negative_probability(scenario_2222):
    probs = np.full(scenario_2222.shape, 0.25)
    probs[0, 0, 0, 0] = -0.01
    probs[0, 0, 1, 1] = 0.27
    report = validate(Behavior(scenario_2222, probs, "complete"))
    assert any("negative" in v.constraint for v in report)
    locations = " ".join(v.location for v in report)
    assert "probs[0][0][0][0]" in locations


def test_validate_reports_overweight_incomplete_block(scenario_2222):
    probs = np.full(scenario_2222.shape, 0.3)
    report = validate(Behavior(scenario_2222, probs, "incomplete"))
    assert report
    assert all(v.constraint == "block mass <= 1" for v in report)


def test_validate_accepts_tiny_negative_slack(scenario_2222):
    probs = np.full(scenario_2222.shape, 0.25)
    probs[0, 0, 0, 0] = -5e-10  # within feasibility slack
    probs[0, 0, 1, 1] += 0.25 + 5e-10
    assert validate(Behavior(scenario_2222, probs, "complete")) == ()


def test_validate_quantum_model_catches_bad_povm(chsh_optimal_model):
    povms = [list(p) for p in chsh_optimal_model.alice_povms]
    povms[0][0] = povms[0][0] * 1.5  # no longer sums to identity
    model = QuantumModel(
        2, 2, chsh_optimal_model.state,
        tuple(tuple(p) for p in povms), chsh_optimal_model.bob_povms,
        completeness="complete",
    )
    report = validate(model)
    assert any("identity" in v.constraint for v in report)


def test_validate_quantum_model_catches_nonunit_trace(chsh_optimal_model):
    model = QuantumModel(
        2, 2, np.asarray(chsh_optimal_model.state) * 0.9,
        chsh_optimal_model.alice_povms, chsh_optimal_model.bob_povms,
        completeness="complete",
    )
    report = validate(model)
    assert any(v.constraint == "unit trace" for v in report)


@pytest.mark.parametrize("name, index", [
    ("state", (1, 2)), ("alice_povms", (0, 0, 0, 0)), ("bob_povms", (1, 1, 0, 1)),
])
def test_validate_quantum_model_flags_nonfinite_entries(chsh_optimal_model, name, index):
    arrays = {n: np.array(getattr(chsh_optimal_model, n)) for n in ("state", "alice_povms", "bob_povms")}
    arrays[name][index] = np.nan
    model = QuantumModel(2, 2, arrays["state"], arrays["alice_povms"], arrays["bob_povms"])
    assert validate(model) == (InvariantViolation("finite entries", f"{name}{list(index)}", np.inf),)
    with pytest.raises(ValidationError):
        behavior_from_quantum(model)


def _validate_one_element_at_a_time(obj):
    """validate on behaviors and quantum models, written entry by entry and
    matrix by matrix on public numpy, as the reference the stacked checks
    must match in order, text and slack bits."""
    eps = 1e-9
    out = []
    if isinstance(obj, Behavior):
        for x, y, a, b in itertools.product(*map(range, obj.scenario.shape)):
            if obj.probs[x, y, a, b] < -eps:
                out.append(InvariantViolation("nonnegative probability", f"probs[{x}][{y}][{a}][{b}]",
                                              float(-obj.probs[x, y, a, b])))
        for x, y in itertools.product(*map(range, obj.scenario.shape[:2])):
            s = float(obj.probs[x, y].sum())
            if obj.is_complete and abs(s - 1.0) > eps:
                out.append(InvariantViolation("block mass = 1", f"(x={x}, y={y})", abs(s - 1.0)))
            elif not obj.is_complete and s > 1.0 + eps:
                out.append(InvariantViolation("block mass <= 1", f"(x={x}, y={y})", s - 1.0))
        return out

    def check(mat, name):
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        if herm > eps:
            out.append(InvariantViolation("hermitian", name, herm))
            return
        w = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        if w[0] < -eps:
            out.append(InvariantViolation("positive semidefinite", name, float(-w[0])))

    check(obj.state, "state")
    tr = float(np.trace(obj.state).real)
    if abs(tr - 1.0) > eps:
        out.append(InvariantViolation("unit trace", "state", abs(tr - 1.0)))
    for party, povms in (("alice", obj.alice_povms), ("bob", obj.bob_povms)):
        for x, povm in enumerate(povms):
            for a, el in enumerate(povm):
                check(el, f"{party} POVM[{x}][{a}]")
            total = sum(povm)
            if obj.completeness == "complete":
                dev = float(np.max(np.abs(total - np.eye(len(total)))))
                if dev > eps:
                    out.append(InvariantViolation("POVM sums to identity", f"{party} input {x}", dev))
            else:
                w = np.linalg.eigvalsh(0.5 * (total + total.conj().T))
                if w[-1] > 1.0 + eps:
                    out.append(InvariantViolation("POVM sum below identity", f"{party} input {x}",
                                                  float(w[-1] - 1.0)))
    return out


def _bits(report):
    return [(v.constraint, v.location, v.slack.hex()) for v in report]


def test_validate_matches_the_per_element_reference_on_perturbed_models():
    rng = np.random.default_rng(11)
    flagged = set()
    for case in range(240):
        na, nb, ma, mb, d = (int(v) for v in rng.integers(1, 4, size=5))
        if case % 5 == 0:  # numpy's own sum over 9 outcomes would go pairwise
            ma, d = 9, 1
        mode = ("complete", "incomplete")[case % 2]
        v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        state = np.outer(v, v.conj()) / np.vdot(v, v).real
        stacks = [state[None, None], random_povms(rng, na, ma, d), random_povms(rng, nb, mb, d)]
        for stack in stacks:
            size = 10.0 ** rng.uniform(-11, -7)
            hit = rng.random(stack.shape[:2]) < 0.4
            noise = size * (rng.standard_normal(stack.shape) + 1j * rng.standard_normal(stack.shape))
            kind = case % 4
            if kind == 0:  # off Hermitian
                stack[hit] += noise[hit]
            elif kind == 1:  # a negative eigenvalue
                stack[hit] -= 30 * size * np.eye(stack.shape[-1])
            elif kind == 2:  # sums off the identity, traces off one
                stack[hit] *= 1.0 + 50 * size
            else:  # a Hermitian nudge either way
                stack[hit] += 100 * hermitian_part(noise)[hit]
        model = QuantumModel(d, d, stacks[0][0, 0], stacks[1], stacks[2], completeness=mode)
        report = validate(model)
        want = _validate_one_element_at_a_time(model)
        assert _bits(report) == _bits(want)
        flagged.update(r.constraint for r in report)
    assert flagged == {"hermitian", "positive semidefinite", "unit trace",
                       "POVM sums to identity", "POVM sum below identity"}


# s = 1 + 1e-9 is not above 1.0 + EPS_FEAS, yet s - 1.0 is above EPS_FEAS
# after rounding, so only the literal comparisons match the reference
EDGES = [1.0 + 1e-9, np.nextafter(1.0 + 1e-9, 2.0), 1.0 - 1e-9, np.nextafter(1.0 - 1e-9, 0.0)]


@pytest.mark.parametrize("mode", ["complete", "incomplete"])
def test_validate_matches_the_reference_at_the_tolerance_edges(mode):
    model = QuantumModel(1, 1, [[EDGES[0]]], np.reshape(EDGES, (4, 1, 1, 1)),
                         np.reshape(EDGES[::-1], (4, 1, 1, 1)), completeness=mode)
    behavior = Behavior(Scenario(2, 2, 1, 1), np.reshape(EDGES, (2, 2, 1, 1)), mode)
    for obj in (model, behavior):
        report = validate(obj)
        assert report and _bits(report) == _bits(_validate_one_element_at_a_time(obj))


def test_validate_matches_the_per_entry_reference_on_bad_block_masses():
    rng = np.random.default_rng(12)
    flagged = set()
    for case in range(200):
        shape = tuple(int(v) for v in rng.integers(1, 5, size=4))
        probs = rng.random(shape)
        probs /= probs.sum(axis=(2, 3), keepdims=True)
        probs *= 1.0 + 10.0 ** rng.uniform(-11, -7) * rng.standard_normal(shape[:2])[:, :, None, None]
        if case % 3 == 0:
            probs[rng.random(shape) < 0.2] = -10.0 ** rng.uniform(-11, -7)
        behavior = Behavior(Scenario(*shape), probs, ("complete", "incomplete")[case % 2])
        report = validate(behavior)
        want = _validate_one_element_at_a_time(behavior)
        assert _bits(report) == _bits(want)
        flagged.update(r.constraint for r in report)
    assert flagged == {"nonnegative probability", "block mass = 1", "block mass <= 1"}


def test_no_signaling_clean_for_local(local_behavior_2222):
    result = no_signaling_check(local_behavior_2222)
    assert result.ok
    assert result.max_residual <= 1e-12


def test_no_signaling_flags_constructed_leak(scenario_2222):
    probs = np.full(scenario_2222.shape, 0.25)
    # Alice's marginal for x=1 differs by 0.1 between Bob's inputs
    probs[1, 0] = np.array([[0.4, 0.0], [0.1, 0.5]])
    behavior = Behavior(scenario_2222, probs, "complete")
    result = no_signaling_check(behavior)
    assert not result.ok
    assert result.max_residual == pytest.approx(0.1, abs=1e-12)
    assert "alice" in result.location


def test_no_signaling_rejects_incomplete(scenario_2222):
    behavior = Behavior(scenario_2222, np.full(scenario_2222.shape, 0.1), "incomplete")
    with pytest.raises(ValidationError):
        no_signaling_check(behavior)


def test_hermitian_part_is_idempotent(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = hermitian_part(g)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
    np.testing.assert_allclose(hermitian_part(h), h, atol=1e-14)


def test_local_model_total_weight(scenario_2222, rng):
    model = random_local_model(rng, scenario_2222, total=0.8)
    assert model.total_weight == pytest.approx(0.8, abs=1e-12)
    assert model.completeness == "incomplete"


def test_quantum_model_holds_readonly_povm_stacks(chsh_optimal_model, chsh):
    found = seesaw(chsh, SeesawConfig(dim=2, seeds=1)).model
    for model in (chsh_optimal_model, found):
        for stack, dim in ((model.alice_povms, model.dim_a), (model.bob_povms, model.dim_b)):
            assert isinstance(stack, np.ndarray)
            assert stack.dtype == np.complex128
            assert stack.shape == (2, 2, dim, dim)
            assert not stack.flags.writeable
        assert model.scenario == Scenario(2, 2, 2, 2)


def test_quantum_model_copies_its_povms(chsh_optimal_model):
    povms = np.array(chsh_optimal_model.alice_povms)
    model = QuantumModel(2, 2, chsh_optimal_model.state, povms, chsh_optimal_model.bob_povms)
    povms[0, 0] = 0.0
    assert np.array_equal(model.alice_povms, chsh_optimal_model.alice_povms)


def test_quantum_model_rejects_bad_povm_layouts(chsh_optimal_model):
    state, bob = chsh_optimal_model.state, chsh_optimal_model.bob_povms
    e = np.eye(2) / 2
    with pytest.raises(ValidationError, match="same number of outcomes"):
        QuantumModel(2, 2, state, [[e, e], [e, e, np.zeros((2, 2))]], bob)
    with pytest.raises(ValidationError, match="at least one input"):
        QuantumModel(2, 2, state, [], bob)
    with pytest.raises(ValidationError, match=r"expected \(inputs, outcomes, 2, 2\)"):
        QuantumModel(2, 2, state, [[np.eye(3), np.eye(3)]], bob)
