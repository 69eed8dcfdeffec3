"""Alternating-optimization search: sub-step identities, known optima,
dimension chaining, and the guard rails.
"""

import importlib

import numpy as np
import pytest

from bellcalc import (
    BellFunctional,
    GuardExceededError,
    QuantumModel,
    Scenario,
    SeesawConfig,
    ValidationError,
    behavior_from_quantum,
    bell_operator,
    chsh_functional,
    classical_value,
    dimension_witness_report,
    magic_square_functional,
    pair,
    random_correlation_functional,
    random_functional,
    reduced_operators,
    seesaw,
    validate,
)
from bellcalc.classical import classical_floor, classical_value_for
from bellcalc.core import COMPLETE, INCOMPLETE
from bellcalc.numerics import random_povms
from bellcalc.seesaw import (MAX_COEFF_SUM, MAX_JOINT_DIM, _random_model, _repaired,
                             pad_quantum_model)

from conftest import build_chsh_optimal_model, build_magic_square_model

ROOT2 = np.sqrt(2.0)


def test_bell_operator_top_eigenvalue_is_tsirelson(chsh, chsh_optimal_model):
    op = bell_operator(chsh, chsh_optimal_model.alice_povms, chsh_optimal_model.bob_povms)
    w = np.linalg.eigvalsh(op)
    assert w[-1] == pytest.approx(2.0 * ROOT2, abs=1e-12)
    # traceless with symmetric spectrum in this configuration
    assert np.trace(op).real == pytest.approx(0.0, abs=1e-12)


def test_bell_operator_state_pairing(chsh, chsh_optimal_model):
    op = bell_operator(chsh, chsh_optimal_model.alice_povms, chsh_optimal_model.bob_povms)
    value = float(np.trace(op @ chsh_optimal_model.state).real)
    assert value == pytest.approx(pair(chsh, behavior_from_quantum(chsh_optimal_model)), abs=1e-12)


def test_bell_operator_rejects_wrong_layout(chsh, magic_square_model):
    with pytest.raises(ValidationError):
        bell_operator(chsh, magic_square_model.alice_povms, magic_square_model.bob_povms)


def _random_unequal_model(rng, scenario, dim_a, dim_b):
    """A complete model with local dimensions dim_a and dim_b."""
    na, nb, ma, mb = scenario.shape
    v = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    v /= np.linalg.norm(v)
    return QuantumModel(dim_a, dim_b, np.outer(v, v.conj()), random_povms(rng, na, ma, dim_a),
                        random_povms(rng, nb, mb, dim_b))


# CHSH at d = 3 for both parties, and a 2x3x3x2 functional at local
# dimensions 2 and 3, where a swapped na/nb, ma/mb or da/db cannot hide
@pytest.mark.parametrize("functional, dims, party", [
    (chsh_functional(), (3, 3), "alice"),
    (chsh_functional(), (3, 3), "bob"),
    (random_functional(2, 3, 3, 2, 11), (2, 3), "alice"),
    (random_functional(2, 3, 3, 2, 11), (2, 3), "bob"),
], ids=["alice", "bob", "2x3x3x2-d2x3-alice", "2x3x3x2-d2x3-bob"])
def test_reduced_operators_pairing_identity(functional, dims, party):
    scenario = functional.scenario
    model = _random_unequal_model(np.random.default_rng(5), scenario, *dims)
    reduced = reduced_operators(
        functional, model.state,
        model.bob_povms if party == "alice" else model.alice_povms, party,
    )
    # the identity must hold for any replacement POVMs of the named party
    other = _random_unequal_model(np.random.default_rng(17), scenario, *dims)
    replaced = QuantumModel(
        *dims, model.state,
        other.alice_povms if party == "alice" else model.alice_povms,
        other.bob_povms if party == "bob" else model.bob_povms,
    )
    povms = other.alice_povms if party == "alice" else other.bob_povms
    assert reduced.shape == povms.shape
    total = sum(
        float(np.trace(e @ r).real)
        for ops, block in zip(povms, reduced)
        for e, r in zip(ops, block)
    )
    assert total == pytest.approx(pair(functional, behavior_from_quantum(replaced)), abs=1e-10)


def test_reduced_operators_bad_party(chsh, chsh_optimal_model):
    with pytest.raises(ValidationError):
        reduced_operators(chsh, chsh_optimal_model.state, chsh_optimal_model.bob_povms, "carol")


def test_maximally_entangled_behavior_formula(rng):
    # for |phi> = sum_i |ii>/sqrt(d):  p(ab|xy) = tr(E_a^x (F_b^y)^T)/d
    d = 3
    scenario = Scenario(2, 2, 2, 2)
    model = _random_model(rng, scenario, d, "complete")
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    state = np.outer(phi, phi.conj())
    me = QuantumModel(d, d, state, model.alice_povms, model.bob_povms)
    behavior = behavior_from_quantum(me)
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    e = model.alice_povms[x][a]
                    f = model.bob_povms[y][b]
                    expected = float(np.trace(e @ f.T).real) / d
                    assert behavior.probs[x, y, a, b] == pytest.approx(expected, abs=1e-12)


def test_seesaw_chsh_reaches_tsirelson(chsh):
    result = seesaw(chsh, SeesawConfig(dim=2, seeds=5))
    assert result.value == pytest.approx(2.0 * ROOT2, abs=1e-9)
    assert result.converged
    assert len(result.per_seed_values) == 5
    # the reported value is recomputed from the returned model
    direct = abs(pair(chsh, behavior_from_quantum(result.model)))
    assert result.value == direct


def test_seesaw_dimension_one_cannot_beat_classical(rng):
    for _ in range(3):
        coeffs = rng.standard_normal((2, 2, 2, 2))
        f = BellFunctional(Scenario(2, 2, 2, 2), coeffs)
        result = seesaw(f, SeesawConfig(dim=1, seeds=4))
        assert result.value <= classical_value(f) + 1e-9


def test_seesaw_chsh_dimension_one_is_classical(chsh):
    result = seesaw(chsh, SeesawConfig(dim=1, seeds=8))
    assert result.value == pytest.approx(2.0, abs=1e-9)


def test_seesaw_warm_start_chains_dimensions(chsh):
    low = seesaw(chsh, SeesawConfig(dim=2, seeds=3))
    padded = pad_quantum_model(low.model, 3)
    high = seesaw(chsh, SeesawConfig(dim=3, seeds=1), init_models=(padded,))
    assert high.value >= low.value - 1e-9


def test_seesaw_sweep_log_monotone(chsh):
    result = seesaw(chsh, SeesawConfig(dim=2, seeds=2))
    log = result.sweep_log
    assert all(b >= a - 1e-12 for a, b in zip(log, log[1:]))


def test_seesaw_incomplete_mode_matches_complete_on_chsh(chsh):
    complete = seesaw(chsh, SeesawConfig(dim=2, seeds=3))
    cfg = SeesawConfig(dim=2, seeds=1, mode="incomplete")
    warm = seesaw(chsh, cfg, init_models=(complete.model,))
    assert warm.value >= complete.value - 1e-7
    assert warm.value <= 2.0 * ROOT2 + 1e-7


def test_magic_square_model_wins_always(magic_square, magic_square_model):
    value = pair(magic_square, behavior_from_quantum(magic_square_model))
    assert value == 1.0


def test_seesaw_magic_square_finds_perfect_strategy(magic_square):
    result = seesaw(magic_square, SeesawConfig(dim=4, seeds=1, rng_seed=1))
    assert result.value >= 1.0 - 1e-6


def test_quantum_ratio_chsh(chsh):
    ratio = seesaw(chsh, SeesawConfig(dim=2, seeds=5)).value / classical_value(chsh)
    assert ratio == pytest.approx(ROOT2, abs=1e-9)


def test_pad_quantum_model_preserves_behavior(chsh_optimal_model):
    padded = pad_quantum_model(chsh_optimal_model, 5)
    assert padded.dim_a == 5 and padded.dim_b == 5
    assert validate(padded) == ()
    np.testing.assert_allclose(
        behavior_from_quantum(padded).probs,
        behavior_from_quantum(chsh_optimal_model).probs,
        atol=1e-12,
    )


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("mode", ["complete", "incomplete"])
def test_pad_quantum_model_matches_per_element_padding(rng, dim, mode):
    model = _random_model(rng, Scenario(2, 2, 3, 2), dim, mode)
    alice = np.array(model.alice_povms)
    alice.imag[:, 0, 0, 0] = -0.0
    model = QuantumModel(dim, dim, model.state, alice, model.bob_povms, completeness=mode)
    big = dim + 2
    fill = np.zeros((big, big), dtype=np.complex128)
    fill[dim:, dim:] = np.eye(big - dim)

    def reference(povms):
        out = []
        for povm in povms:
            padded = []
            for a, el in enumerate(povm):
                m = np.zeros((big, big), dtype=np.complex128)
                m[:dim, :dim] = el
                padded.append(m + fill if a == 0 and mode == "complete" else m)
            out.append(padded)
        return np.array(out)

    padded = pad_quantum_model(model, big)
    assert padded.alice_povms.tobytes() == reference(model.alice_povms).tobytes()
    assert padded.bob_povms.tobytes() == reference(model.bob_povms).tobytes()
    # the identity fill is added, so outcome 0 carries +0.0 where it had -0.0
    sign = np.signbit(padded.alice_povms[:, 0, 0, 0].imag)
    assert not sign.any() if mode == "complete" else sign.all()


def test_pad_quantum_model_rejects_shrinking(chsh_optimal_model):
    with pytest.raises(ValidationError):
        pad_quantum_model(chsh_optimal_model, 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dim": 0},
        {"dim": 2, "seeds": 0},
        {"dim": 2, "max_sweeps": 0},
        {"dim": 2, "tol": 0.0},
        {"dim": 2, "mode": "sometimes"},
        # counts follow Scenario's integer rule; each of these once failed partway
        # through a run with TypeError, or in numpy with ValueError
        {"dim": 2, "seeds": 2.5},
        {"dim": True},
        {"dim": 2, "max_sweeps": 3.5},
        {"dim": 2, "rng_seed": 1.5},
        {"dim": 2, "rng_seed": -1},
    ],
)
def test_seesaw_config_validation(kwargs):
    with pytest.raises(ValidationError):
        SeesawConfig(**kwargs)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_generator_seeds_follow_the_integer_rule(seed):
    with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
        random_functional(2, 2, 2, 2, seed)
    with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
        random_correlation_functional(2, seed)


def test_seesaw_joint_dimension_guard(chsh):
    dim = int(np.sqrt(MAX_JOINT_DIM)) + 1
    with pytest.raises(GuardExceededError):
        seesaw(chsh, SeesawConfig(dim=dim, seeds=1))


@pytest.mark.parametrize("functional, dim", [(chsh_functional(), 2),
                                             (random_functional(2, 2, 3, 3, 1), 3)],
                         ids=["chsh", "2x2x3x3"])
def test_seesaw_scales_up_to_its_coefficient_bound(functional, dim):
    scale = MAX_COEFF_SUM / np.abs(functional.coeffs).sum()
    big = BellFunctional(functional.scenario, functional.coeffs * scale)
    cfg = SeesawConfig(dim=dim, seeds=2)
    with np.errstate(over="raise", invalid="raise"):  # no overflow inside the sweeps
        value = seesaw(big, cfg).value / scale
    assert value == pytest.approx(seesaw(functional, cfg).value, rel=1e-8)
    past = BellFunctional(functional.scenario, functional.coeffs * (1.01 * scale))
    with pytest.raises(ValidationError, match=r"sum \|T\| <= 1e\+150, this one has 1.01e\+150"):
        seesaw(past, cfg)


def test_seesaw_init_model_mismatches(chsh, chsh_optimal_model, magic_square_model):
    with pytest.raises(ValidationError):
        seesaw(chsh, SeesawConfig(dim=3, seeds=1), init_models=(chsh_optimal_model,))
    with pytest.raises(ValidationError):
        seesaw(chsh, SeesawConfig(dim=4, seeds=1), init_models=(magic_square_model,))


def test_seesaw_rejects_an_invalid_init_model_before_sweeping(chsh, chsh_optimal_model,
                                                             monkeypatch):
    def no_run(*args):
        pytest.fail("the see-saw swept before it checked its init model")
    monkeypatch.setattr(importlib.import_module("bellcalc.seesaw"), "_one_run", no_run)
    bad = QuantumModel(2, 2, np.asarray(chsh_optimal_model.state) * 2.0,
                       chsh_optimal_model.alice_povms, chsh_optimal_model.bob_povms)
    with pytest.raises(ValidationError, match="init model violates invariants: unit trace"):
        seesaw(chsh, SeesawConfig(dim=2, seeds=1), init_models=(bad,))


# povm_update's fixed point can end on POVM elements that are not PSD, as
# this capped magic-square run does; the see-saw repairs such a run's final
# model once and values the run from the repair
def test_seesaw_capped_sweeps_return_valid_povms(magic_square):
    result = seesaw(magic_square, SeesawConfig(dim=4, seeds=1, rng_seed=110, max_sweeps=3))
    assert validate(result.model) == ()
    assert result.value == abs(pair(magic_square, behavior_from_quantum(result.model)))


# The same defect in incomplete mode: the CLI's `quantum --dim 2 --seeds 5
# --incomplete` on `gen random --na 3 --nb 3 --ma 3 --mb 3 --seed 4` exited 5 on it
def test_seesaw_incomplete_returns_valid_povms():
    result = seesaw(random_functional(3, 3, 3, 3, 4),
                    SeesawConfig(dim=2, seeds=5, mode="incomplete"))
    assert validate(result.model) == ()


# n outcomes at local dimension n, the paper's regime: these runs ended on a
# non-PSD POVM, SolverError, before the final model was repaired
@pytest.mark.parametrize("s", [2, 3, 5])
def test_seesaw_repairs_the_final_model_at_three_outcomes(s):
    functional = random_functional(2, 2, 3, 3, s)
    result = seesaw(functional, SeesawConfig(dim=3, seeds=2, rng_seed=s))
    assert validate(result.model) == ()
    assert result.value == abs(pair(functional, behavior_from_quantum(result.model)))
    assert result.value >= classical_value(functional) - 1e-9


def test_seesaw_leaves_a_valid_final_model_alone(chsh, monkeypatch):
    def no_repair(model):
        pytest.fail("the see-saw repaired a model that validates")
    monkeypatch.setattr(importlib.import_module("bellcalc.seesaw"), "_repaired", no_repair)
    assert seesaw(chsh, SeesawConfig(dim=2, seeds=2)).value == pytest.approx(2.0 * ROOT2)


@pytest.mark.parametrize("mode", ["complete", "incomplete"])
def test_repaired_model_is_valid_and_keeps_the_state(rng, mode):
    model = _random_model(rng, Scenario(2, 3, 3, 2), 3, mode)
    # one element pushed below 0, and the sums pushed past I in incomplete mode
    alice = np.array(model.alice_povms) * (1.0 if mode == "complete" else 1.2)
    alice[0, 1] -= 0.05 * np.eye(3)
    broken = QuantumModel(3, 3, model.state, alice, model.bob_povms, completeness=mode)
    assert validate(broken) != ()
    repaired = _repaired(broken)
    assert validate(repaired) == ()
    assert repaired.completeness == mode
    assert repaired.state.tobytes() == model.state.tobytes()


def test_repaired_incomplete_sum_is_shrunk_only_where_it_exceeds_identity():
    # sum E = diag(1.5, 0.5): the first direction is cut to 1, the second kept
    povms = np.array([[np.diag([1.0, 0.25]), np.diag([0.5, 0.25])]], dtype=complex)
    state = np.eye(4) / 4
    model = QuantumModel(2, 2, state, povms, povms, completeness="incomplete")
    repaired = _repaired(model)
    np.testing.assert_allclose(sum(repaired.alice_povms[0]), np.diag([1.0, 0.5]), atol=1e-15)
    np.testing.assert_allclose(repaired.alice_povms[0, 0], np.diag([2.0 / 3.0, 0.25]),
                               atol=1e-15)


def test_seesaw_runs_from_an_init_model_within_the_hermitian_slack():
    # validate() accepts a Hermitian defect up to EPS_FEAS; the incomplete
    # dummy outcome's warm start, I - sum E, once tripled it past eigh's check
    functional = random_functional(2, 2, 3, 3, 0)
    model = _random_model(np.random.default_rng(0), functional.scenario, 2, "incomplete")
    alice = np.array(model.alice_povms) * 0.9
    alice[..., 0, 1] += 0.9e-9
    model = QuantumModel(2, 2, model.state, alice, np.array(model.bob_povms) * 0.9,
                         completeness="incomplete")
    assert validate(model) == ()
    result = seesaw(functional, SeesawConfig(dim=2, seeds=1, mode="incomplete"),
                    init_models=(model,))
    assert validate(result.model) == ()


# At d = 1 the quantum value is the classical value, yet the d = 1 runs of
# these 4x4x3x3 functionals ended up to 29% below it (complete-mode ratios
# 0.766, 0.713, 0.912, 0.891, 1 - 2.5e-12, 0.762) before the see-saw had a floor
@pytest.mark.parametrize("mode", [COMPLETE, INCOMPLETE])
@pytest.mark.parametrize("s", range(6))
def test_seesaw_never_reports_below_the_classical_value(s, mode):
    functional = random_functional(4, 4, 3, 3, s)
    result = seesaw(functional, SeesawConfig(dim=1, seeds=4, rng_seed=0, mode=mode))
    assert result.value >= classical_value_for(functional, mode) * (1.0 - 1e-12)
    assert validate(result.model) == ()
    assert result.value == abs(pair(functional, behavior_from_quantum(result.model)))


@pytest.mark.parametrize("mode", [COMPLETE, INCOMPLETE])
def test_the_floor_reports_the_embedded_strategy_and_keeps_the_runs(mode, monkeypatch):
    functional = random_functional(4, 4, 3, 3, 0)
    cfg = SeesawConfig(dim=1, seeds=4, rng_seed=0, mode=mode)
    seesaw_module = importlib.import_module("bellcalc.seesaw")
    povm_calls = []
    real_update = seesaw_module.povm_update

    def counted(*args, **kwargs):
        povm_calls.append(None)
        return real_update(*args, **kwargs)

    monkeypatch.setattr(seesaw_module, "povm_update", counted)
    monkeypatch.setenv("BELL_GUARD_LIMIT", "1")  # the oracle's 2 * 3^4 assignments exceed it
    skipped = seesaw(functional, cfg)
    calls = len(povm_calls)
    monkeypatch.delenv("BELL_GUARD_LIMIT")
    floored = seesaw(functional, cfg)
    classical = classical_value_for(functional, mode)
    assert skipped.value < classical and skipped.sweeps_used >= 1
    assert len(povm_calls) == 2 * calls  # the floor runs no povm_update
    assert floored.value >= classical * (1.0 - 1e-12)
    assert (floored.sweeps_used, floored.sweep_log, floored.converged) == (0, (), True)
    assert floored.per_seed_values == skipped.per_seed_values
    assert floored.model.state.tolist() == [[1.0]]
    for povms in (floored.model.alice_povms, floored.model.bob_povms):
        assert set(povms.ravel().tolist()) <= {0.0, 1.0}
    assert floored.model.completeness == mode


def test_the_floor_is_skipped_when_the_guard_cannot_be_read(monkeypatch):
    functional = random_functional(4, 4, 3, 3, 0)
    monkeypatch.setenv("BELL_GUARD_LIMIT", "lots")
    result = seesaw(functional, SeesawConfig(dim=1, seeds=4))
    monkeypatch.delenv("BELL_GUARD_LIMIT")
    assert result.sweeps_used >= 1
    assert result.value < classical_value(functional)


def test_the_incomplete_floor_abstains_where_every_output_loses():
    # Alice's input 1 costs 1 whatever she outputs, so the best subnormalized
    # strategy abstains there: value 10 against the classical 9
    coeffs = np.array([[[[10.0], [0.0]]], [[[-1.0], [-1.0]]]])
    functional = BellFunctional(Scenario(2, 1, 2, 1), coeffs)
    complete = classical_floor(functional, COMPLETE)
    assert pair(functional, behavior_from_quantum(complete)) == 9.0
    np.testing.assert_array_equal(complete.alice_povms[..., 0, 0], [[1, 0], [1, 0]])  # (0, 0)
    np.testing.assert_array_equal(complete.bob_povms[..., 0, 0], [[1]])  # (0,)
    model = classical_floor(functional, INCOMPLETE)
    assert (model.dim_a, model.dim_b, model.completeness) == (1, 1, INCOMPLETE)
    np.testing.assert_array_equal(model.state, [[1.0]])
    np.testing.assert_array_equal(model.alice_povms[..., 0, 0], [[1, 0], [0, 0]])
    np.testing.assert_array_equal(model.bob_povms[..., 0, 0], [[1]])
    assert pair(functional, behavior_from_quantum(model)) == 10.0
    padded = pad_quantum_model(model, 2)
    assert validate(padded) == ()
    assert pair(functional, behavior_from_quantum(padded)) == 10.0


def test_the_floor_takes_the_sign_of_the_larger_extreme():
    # max <T, D> is 1 and min is -3: the floor's strategy attains -3
    coeffs = np.array([[[[1.0], [-3.0]]]])
    functional = BellFunctional(Scenario(1, 1, 2, 1), coeffs)
    model = classical_floor(functional, COMPLETE)
    np.testing.assert_array_equal(model.alice_povms[..., 0, 0], [[0, 1]])  # output 1
    assert pair(functional, behavior_from_quantum(model)) == -3.0


@pytest.mark.parametrize("mode", [COMPLETE, INCOMPLETE])
def test_the_floor_is_the_padded_d1_model(mode):
    functional = random_functional(4, 4, 3, 3, 0)
    low = classical_floor(functional, mode)
    result = seesaw(functional, SeesawConfig(dim=2, seeds=1, mode=mode))
    assert result.sweeps_used == 0
    expected = pad_quantum_model(low, 2)
    for name in ("state", "alice_povms", "bob_povms"):
        assert getattr(result.model, name).tobytes() == getattr(expected, name).tobytes()
    # padding keeps the model valid and its behavior byte for byte
    high = pad_quantum_model(low, 3)
    assert validate(high) == ()
    assert behavior_from_quantum(high).probs.tobytes() == behavior_from_quantum(low).probs.tobytes()


@pytest.mark.parametrize("s", range(6))
def test_witness_rows_from_the_floor_are_nondecreasing(s):
    report = dimension_witness_report(random_functional(4, 4, 3, 3, s), 1.0, 2,
                                      SeesawConfig(dim=1, seeds=1))
    values = [e.best_value for e in report.entries]
    assert values[1] >= values[0]
