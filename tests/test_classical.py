"""Exact classical quantities against brute-force oracles, and the
local-polytope membership test.

The oracles below enumerate deterministic strategy pairs with plain
itertools loops, independent of the library's vectorized enumeration.
The prefix-shared enumeration is also checked bit for bit against the
gather-based reference in conftest.
"""

import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcalc import (
    BellFunctional,
    DeterministicStrategy,
    GuardExceededError,
    Scenario,
    ValidationError,
    banach_norm,
    behavior_from_local,
    behavior_from_quantum,
    chsh_functional,
    classical_value,
    classical_value_incomplete,
    is_local,
    magic_square_functional,
    pair,
    signed_extrema,
)
from bellcalc import classical, numerics, polytope
from bellcalc.core import Behavior
from bellcalc.generators import magic_square_column_bits, magic_square_row_bits
from bellcalc.numerics import lp_solve
from bellcalc.seesaw import _random_model

from conftest import (
    invalid_behavior_probs,
    pr_box_probs,
    random_local_model,
    reference_enumerated_extrema,
    reference_membership_lp,
)


def brute_force_extrema(functional):
    """(max, min) of <T, D> over all deterministic strategy pairs."""
    na, nb, ma, mb = functional.scenario.shape
    coeffs = functional.coeffs
    hi, lo = -np.inf, np.inf
    for alice in itertools.product(range(ma), repeat=na):
        for bob in itertools.product(range(mb), repeat=nb):
            total = math.fsum(coeffs[x, y, alice[x], bob[y]]
                              for x in range(na) for y in range(nb))
            hi, lo = max(hi, total), min(lo, total)
    return hi, lo


def brute_force_banach(functional):
    """max |<T, (signed A, signed B)>|, each input choosing output and sign."""
    na, nb, ma, mb = functional.scenario.shape
    coeffs = functional.coeffs
    best = 0.0
    alice_choices = list(itertools.product(range(ma), (1.0, -1.0)))
    bob_choices = list(itertools.product(range(mb), (1.0, -1.0)))
    for alice in itertools.product(alice_choices, repeat=na):
        for bob in itertools.product(bob_choices, repeat=nb):
            total = math.fsum(sa * sb * coeffs[x, y, a, b]
                              for x, (a, sa) in enumerate(alice)
                              for y, (b, sb) in enumerate(bob))
            best = max(best, abs(total))
    return best


def test_chsh_classical_value_exact(chsh):
    hi, lo = brute_force_extrema(chsh)
    assert hi == 2.0 and lo == -2.0
    assert classical_value(chsh) == 2.0


def test_chsh_signed_extrema_match_oracle(chsh):
    assert signed_extrema(chsh) == brute_force_extrema(chsh)


def test_chsh_banach_norm_exact(chsh):
    assert brute_force_banach(chsh) == 2.0
    assert banach_norm(chsh) == 2.0


def test_magic_square_classical_value_exact(magic_square):
    # 64 * 64 strategy pairs, checked cell by cell
    hi, lo = brute_force_extrema(magic_square)
    assert hi == 8.0 / 9.0
    assert classical_value(magic_square) == 8.0 / 9.0
    assert classical_value(magic_square) == hi


def test_magic_square_win_table_consistency(magic_square):
    # the coefficient tensor is 1/9 exactly on agreeing intersections
    na, nb, ma, mb = magic_square.scenario.shape
    for x, y, a, b in itertools.product(range(na), range(nb), range(ma), range(mb)):
        win = magic_square_row_bits(a)[y] == magic_square_column_bits(b)[x]
        assert magic_square.coeffs[x, y, a, b] == (1.0 / 9.0 if win else 0.0)


def test_random_functionals_match_oracle(rng):
    for _ in range(10):
        na, nb = rng.integers(1, 4, size=2)
        ma, mb = rng.integers(2, 4, size=2)
        coeffs = rng.standard_normal((na, nb, ma, mb))
        f = BellFunctional(Scenario(int(na), int(nb), int(ma), int(mb)), coeffs)
        hi, lo = brute_force_extrema(f)
        got_hi, got_lo = signed_extrema(f)
        assert got_hi == pytest.approx(hi, abs=1e-12)
        assert got_lo == pytest.approx(lo, abs=1e-12)
        assert classical_value(f) == pytest.approx(max(abs(hi), abs(lo)), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(0.0, 8.0), seed=st.integers(0, 2**31 - 1))
def test_classical_value_positive_homogeneity(scale, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((2, 2, 2, 2))
    f = BellFunctional(Scenario(2, 2, 2, 2), coeffs)
    scaled = BellFunctional(f.scenario, scale * coeffs)
    assert classical_value(scaled) == pytest.approx(scale * classical_value(f), rel=1e-12, abs=1e-12)
    assert banach_norm(scaled) == pytest.approx(scale * banach_norm(f), rel=1e-12, abs=1e-12)


def test_incomplete_value_sandwich(rng):
    for _ in range(20):
        coeffs = rng.standard_normal((2, 3, 2, 2))
        f = BellFunctional(Scenario(2, 3, 2, 2), coeffs)
        cv = classical_value(f)
        cvi = classical_value_incomplete(f)
        bn = banach_norm(f)
        assert cvi >= cv - 1e-12
        assert cvi <= bn + 1e-12
        assert bn <= 4.0 * cvi + 1e-12


def test_incomplete_value_all_negative_tensor():
    # abstention caps the maximum at zero, so the magnitude comes from
    # the most negative full answer
    coeffs = -np.ones((2, 2, 2, 2))
    f = BellFunctional(Scenario(2, 2, 2, 2), coeffs)
    assert classical_value(f) == 4.0
    assert classical_value_incomplete(f) == 4.0


def test_incomplete_value_abstention_helps():
    # one good block, one poisoned block: completing is forced to eat
    # the poison, abstaining is not
    coeffs = np.zeros((2, 1, 2, 2))
    coeffs[0, 0] = 1.0
    coeffs[1, 0] = -1.0
    f = BellFunctional(Scenario(2, 1, 2, 2), coeffs)
    assert classical_value(f) == pytest.approx(0.0, abs=0.0)
    assert classical_value_incomplete(f) == pytest.approx(1.0, abs=0.0)


def test_enum_guard_trips(monkeypatch):
    # CHSH enumerates 4 single-party assignments; a limit of 3 must trip
    monkeypatch.setenv("BELL_GUARD_LIMIT", "3")
    f = chsh_functional()
    with pytest.raises(GuardExceededError, match="BELL_GUARD_LIMIT"):
        classical_value(f)


def test_guard_rejects_garbage_override(monkeypatch):
    monkeypatch.setenv("BELL_GUARD_LIMIT", "lots")
    with pytest.raises(GuardExceededError, match="integer"):
        classical_value(chsh_functional())


def test_enum_guard_on_oversized_scenario():
    scenario = Scenario(9, 9, 8, 8)
    f = BellFunctional(scenario, np.zeros(scenario.shape))
    with pytest.raises(GuardExceededError):
        classical_value(f)


def test_enumeration_guard_messages_count_every_signed_assignment(monkeypatch):
    # CHSH: 4 assignments, 16 signed ones although banach_norm visits 8
    f = chsh_functional()
    monkeypatch.setenv("BELL_GUARD_LIMIT", "3")
    with pytest.raises(GuardExceededError) as exc:
        classical_value(f)
    assert str(exc.value) == ("classical value enumeration needs 4 assignments, above the "
                              "guard of 3; set BELL_GUARD_LIMIT to override (unsafe)")
    monkeypatch.setenv("BELL_GUARD_LIMIT", "15")
    with pytest.raises(GuardExceededError) as exc:
        banach_norm(f)
    assert str(exc.value) == ("signed enumeration needs 16 assignments, above the guard "
                              "of 15; set BELL_GUARD_LIMIT to override (unsafe)")
    monkeypatch.setenv("BELL_GUARD_LIMIT", "16")
    assert banach_norm(f) == 2.0


# na and nb >= 8, parties swapped before enumerating, one output on either
# side, three outputs (block counts that do not divide the prefixes at a
# block size of 200), 16, 17 and 130 responder inputs, and a party of one
# assignment against 9 and 130 responder inputs: numpy sums such a one-column
# block pairwise (8 accumulators, halves above 128), any other one row by row
BATTERY_SHAPES = [(8, 9, 2, 2), (9, 8, 2, 2), (3, 9, 1, 2), (9, 3, 2, 1), (6, 7, 3, 3),
                  (3, 16, 2, 2), (17, 3, 2, 2), (2, 130, 2, 2), (2, 9, 1, 2), (2, 130, 1, 2)]


def _battery_coeffs(rng, shape, kind):
    if kind == "normal":
        return rng.standard_normal(shape)
    if kind == "dyadic":
        return rng.integers(-16, 17, shape) / 32.0
    return -np.abs(rng.standard_normal(shape)) - 0.25  # all negative


def _every_quantity(f):
    return np.array([*signed_extrema(f), classical_value(f), classical_value_incomplete(f),
                     banach_norm(f)])


@pytest.mark.parametrize("chunk", [classical._CHUNK, 200])
@pytest.mark.parametrize("shape", BATTERY_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_prefix_shared_enumeration_matches_the_gather_reference_bit_for_bit(
        monkeypatch, shape, chunk):
    monkeypatch.setattr(classical, "_CHUNK", chunk)
    rng = np.random.default_rng(sum(shape))
    for kind in ("normal", "dyadic", "negative"):
        f = BellFunctional(Scenario(*shape), _battery_coeffs(rng, shape, kind))
        got = _every_quantity(f)
        with monkeypatch.context() as m:
            m.setattr(classical, "_enumerated_extrema", reference_enumerated_extrema)
            want = _every_quantity(f)
        assert got.tobytes() == want.tobytes(), (kind, got - want)


@pytest.mark.parametrize("shape", [(2, 3, 2, 2), (3, 9, 2, 2)], ids=lambda s: "x".join(map(str, s)))
def test_totals_of_negative_zeros_read_positive_zero_as_numpy_sums_them(monkeypatch, shape):
    # numpy's sum starts from +0.0, so a total of -0.0 terms reads +0.0
    rng = np.random.default_rng(sum(shape))
    zeros = np.full(shape, -0.0)
    mixed = np.where(rng.random(shape) < 0.5, -0.0, rng.standard_normal(shape))
    nonpositive = -(rng.integers(0, 3, shape) / 4.0)
    nonpositive[..., 0] = -0.0  # Bob's output 0 adds -0.0 terms only: the max total is a zero
    functionals = [BellFunctional(Scenario(*shape), c) for c in (zeros, mixed, nonpositive)]
    for f in functionals:
        got = _every_quantity(f)
        with monkeypatch.context() as m:
            m.setattr(classical, "_enumerated_extrema", reference_enumerated_extrema)
            want = _every_quantity(f)
        assert got.tobytes() == want.tobytes(), (f.coeffs, got, want)
    zeros_read = [*_every_quantity(functionals[0]), signed_extrema(functionals[2])[0]]
    assert [(v, math.copysign(1.0, v)) for v in zeros_read] == [(0.0, 1.0)] * 6


@pytest.mark.parametrize("shape", [(3, 5, 2, 2), (5, 3, 2, 2), (2, 4, 3, 2), (4, 4, 1, 2)],
                         ids=lambda s: "x".join(map(str, s)))
def test_each_classical_quantity_enumerates_once_the_tensor_its_guard_counted(monkeypatch, shape):
    # bench tracing counts coeffs.shape[2] ** coeffs.shape[0] assignments per call
    calls = []
    guard, enumerate_ = classical.check_guard, classical._enumerated_extrema

    def spy_guard(count, *args):
        calls.append(("guard", count))
        return guard(count, *args)

    def spy_enumerate(coeffs, reducer):
        calls.append((reducer, coeffs.shape[2] ** coeffs.shape[0]))
        return enumerate_(coeffs, reducer)

    monkeypatch.setattr(classical, "check_guard", spy_guard)
    monkeypatch.setattr(classical, "_enumerated_extrema", spy_enumerate)
    f = BellFunctional(Scenario(*shape), np.random.default_rng(1).standard_normal(shape))
    for quantity, reducer in ((classical_value, "signed"), (classical_value_incomplete, "signed"),
                              (banach_norm, "abs")):
        calls.clear()
        quantity(f)
        assert calls == [("guard", calls[0][1]), (reducer, calls[0][1])]


def test_banach_norm_visits_one_sign_of_input_0_without_loss(rng):
    # both halves of input 0 give the full signed enumeration bit for bit
    for shape in [(3, 4, 2, 3), (5, 2, 3, 2), (1, 3, 1, 2), (6, 6, 2, 2)]:
        c = rng.standard_normal(shape)
        full = np.array(reference_enumerated_extrema(np.concatenate([c, -c], axis=2), "abs"))
        for signed in (np.concatenate([c, -c], axis=2), np.concatenate([-c, c], axis=2)):
            half = np.array(classical._enumerated_extrema(signed, "abs"))
            assert half.tobytes() == full.tobytes()


def test_one_output_scenario_sums_its_inputs_in_order():
    # a single assignment on each side: the value is the left-to-right sum
    # of the coefficients (numpy would sum 12 contiguous ones pairwise)
    coeffs = np.random.default_rng(3).standard_normal((12, 1, 1, 1))
    total = functools.reduce(operator.add, coeffs.ravel().tolist())
    assert signed_extrema(BellFunctional(Scenario(12, 1, 1, 1), coeffs)) == (total, total)


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 3, 3, 2), (3, 1, 2, 4), (1, 1, 1, 1)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_local_model_from_weights_decodes_vertices_in_lexicographic_order(rng, shape):
    # vertex i * S_B + j pairs Alice's i-th and Bob's j-th assignment, each
    # in itertools.product order; weights at or below DROP_WEIGHT are left out
    na, nb, ma, mb = shape
    alice = list(itertools.product(range(ma), repeat=na))
    bob = list(itertools.product(range(mb), repeat=nb))
    weights = rng.random(len(alice) * len(bob))
    weights[rng.random(weights.size) < 0.4] = classical.DROP_WEIGHT
    model = classical.local_model_from_weights(Scenario(*shape), weights, np.arange(weights.size))
    expected = [(float(weights[v]), DeterministicStrategy(alice[v // len(bob)], bob[v % len(bob)]))
                for v in range(weights.size) if weights[v] > classical.DROP_WEIGHT]
    assert model.weights == tuple(expected)
    assert all(type(o) is int for _, s in model.weights for o in s.alice_outputs + s.bob_outputs)


def test_uniform_behavior_is_local(scenario_2222):
    probs = np.full(scenario_2222.shape, 0.25)
    cert = is_local(Behavior(scenario_2222, probs))
    assert cert.verdict == "local"
    recon = behavior_from_local(cert.model, scenario_2222)
    assert np.max(np.abs(recon.probs - probs)) <= 1e-8


def test_random_local_mixture_is_local(rng, scenario_2222):
    for _ in range(10):
        model = random_local_model(rng, scenario_2222)
        behavior = behavior_from_local(model, scenario_2222)
        cert = is_local(behavior)
        assert cert.verdict == "local"
        recon = behavior_from_local(cert.model, scenario_2222)
        assert np.max(np.abs(recon.probs - behavior.probs)) <= 1e-8


def test_chsh_optimal_behavior_is_nonlocal(chsh_optimal_behavior):
    cert = is_local(chsh_optimal_behavior)
    assert cert.verdict == "nonlocal"
    assert cert.model is None
    t = cert.separating
    # soundness, checked against a straight enumeration of all 16 vertices
    hi, _ = brute_force_extrema(t)
    assert hi == pytest.approx(cert.max_vertex_value, abs=1e-9)
    assert hi <= 1.0 + 1e-9
    value = pair(t, chsh_optimal_behavior)
    assert value == pytest.approx(cert.value_on_behavior, abs=1e-12)
    assert value - hi >= 1e-9
    assert cert.margin == pytest.approx(value - cert.max_vertex_value, abs=1e-12)


def test_pr_box_is_nonlocal(scenario_2222):
    cert = is_local(Behavior(scenario_2222, pr_box_probs()))
    assert cert.verdict == "nonlocal"
    # the PR box sits at CHSH value 4, classical 2; the margin is large
    assert cert.margin > 0.1


def test_critical_visibility_mixture_is_marginal(chsh_optimal_behavior, scenario_2222):
    # v * quantum + (1 - v) * uniform crosses the boundary at v = 1/sqrt(2)
    uniform = np.full(scenario_2222.shape, 0.25)
    v = 1.0 / np.sqrt(2.0)
    probs = v * chsh_optimal_behavior.probs + (1.0 - v) * uniform
    cert = is_local(Behavior(scenario_2222, probs))
    assert cert.verdict in ("local", "boundary")
    below = Behavior(scenario_2222, (v - 1e-4) * chsh_optimal_behavior.probs + (1.0 - v + 1e-4) * uniform)
    above = Behavior(scenario_2222, (v + 1e-4) * chsh_optimal_behavior.probs + (1.0 - v - 1e-4) * uniform)
    assert is_local(below).verdict == "local"
    assert is_local(above).verdict == "nonlocal"


def test_membership_rejects_incomplete(scenario_2222):
    probs = np.full(scenario_2222.shape, 0.2)
    with pytest.raises(ValidationError):
        is_local(Behavior(scenario_2222, probs, completeness="incomplete"))


@pytest.mark.parametrize("case", ["block-mass", "negative"])
def test_membership_rejects_invalid_behaviors(scenario_2222, case):
    with pytest.raises(ValidationError, match="valid behavior"):
        is_local(Behavior(scenario_2222, invalid_behavior_probs(case)))


def test_signaling_behavior_flagged_nonlocal_with_warning(scenario_2222):
    probs = np.full(scenario_2222.shape, 0.25)
    probs[0, 0] = [[0.4, 0.0], [0.1, 0.5]]
    cert = is_local(Behavior(scenario_2222, probs))
    assert cert.verdict == "nonlocal"
    assert cert.warning is not None


def _chsh_variants():
    """All 8 sign placements of the CHSH expression."""
    out = []
    for flip in range(4):
        for which in range(4):
            coeffs = np.zeros((2, 2, 2, 2))
            for x, y, a, b in itertools.product(range(2), repeat=4):
                sign = 1.0 if (a + b) % 2 == 0 else -1.0
                if x * 2 + y == which:
                    sign = -sign
                if flip in (1, 3) and x == 1:
                    sign = -sign
                if flip in (2, 3) and y == 1:
                    sign = -sign
                coeffs[x, y, a, b] = sign
            out.append(BellFunctional(Scenario(2, 2, 2, 2), coeffs))
    return out


def test_fine_criterion_cross_check(rng, scenario_2222, chsh_optimal_behavior):
    # in the 2x2x2x2 scenario, locality is equivalent to satisfying all
    # CHSH variants; cross-check the LP verdict against that criterion
    variants = _chsh_variants()
    uniform = np.full(scenario_2222.shape, 0.25)
    pr = pr_box_probs()
    checked = 0
    for _ in range(100):
        w = rng.dirichlet(np.ones(3))
        probs = w[0] * uniform + w[1] * pr + w[2] * chsh_optimal_behavior.probs
        behavior = Behavior(scenario_2222, probs)
        worst = max(pair(t, behavior) for t in variants)
        if abs(worst - 2.0) < 1e-6:
            continue  # too close to the facet to trust either side
        cert = is_local(behavior)
        assert cert.verdict == ("nonlocal" if worst > 2.0 else "local"), (worst, w)
        checked += 1
    assert checked >= 50


def test_quantum_behavior_membership_matches_visibility(rng):
    # random two-qubit models are often local; whenever the verdict is
    # nonlocal the certificate must separate soundly
    from conftest import build_chsh_optimal_model  # noqa: PLC0415

    base = behavior_from_quantum(build_chsh_optimal_model())
    for v in (0.1, 0.5, 0.9):
        probs = v * base.probs + (1.0 - v) * 0.25
        cert = is_local(Behavior(base.scenario, probs))
        if cert.verdict == "nonlocal":
            hi, _ = brute_force_extrema(cert.separating)
            assert pair(cert.separating, Behavior(base.scenario, probs)) > hi


# one output on a side, a party of 9 and of 15 inputs (its assignments then
# span several of the enumeration's blocks), integer coefficients for ties
@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 3, 3, 2), (3, 1, 2, 4), (9, 1, 3, 2),
                                   (1, 15, 2, 2), (3, 3, 4, 4)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_best_responses_are_the_lowest_best_vertices(rng, shape):
    scenario = Scenario(*shape)
    n_alice, n_bob = scenario.alice_strategy_count(), scenario.bob_strategy_count()
    for coeffs in (rng.standard_normal(shape), rng.integers(-1, 2, shape).astype(float)):
        vertices, values = classical.best_response_vertices(coeffs)
        table = (polytope.vertex_matrix(scenario) @ coeffs.ravel()).reshape(n_alice, n_bob)
        assert np.allclose(values, table.ravel()[vertices], rtol=0.0, atol=1e-12)
        alice_rows, bob_cols = np.divmod(vertices, n_bob)
        assert np.array_equal(alice_rows[:n_alice], np.arange(n_alice))
        assert np.array_equal(bob_cols[n_alice:], np.arange(n_bob))
        near_best = lambda t, axis: t >= t.max(axis=axis, keepdims=True) - 1e-12  # noqa: E731
        assert np.array_equal(bob_cols[:n_alice], near_best(table, 1).argmax(axis=1))
        assert np.array_equal(alice_rows[n_alice:], near_best(table, 0).argmax(axis=0))


def test_oracle_values_of_the_enumerated_party_are_the_enumerations_totals():
    # both reduce a block of best responses with one numpy sum over the
    # responder's 9 inputs, so the best value is signed_extrema's maximum
    for seed in range(200):
        coeffs = np.random.default_rng(seed).standard_normal((3, 9, 2, 2))
        _, values = classical.best_response_vertices(coeffs)
        best = values[:2 ** 3].max()  # Alice's assignments, Bob responding
        assert best.tobytes() == np.float64(signed_extrema(BellFunctional(
            Scenario(3, 9, 2, 2), coeffs))[0]).tobytes(), seed


def _membership_battery():
    """Seeded random behaviors: qubit ones, the same mixed with the PR box
    p(a, b|x, y) = [a - b = xy mod m] / m, and mixtures of a few vertices."""
    rng = np.random.default_rng(19)
    for shape in [(2, 2, 2, 2), (3, 3, 2, 2), (2, 2, 3, 3), (4, 4, 2, 2), (6, 6, 2, 2),
                  (3, 3, 4, 4)]:
        scenario = Scenario(*shape)
        x, y, a, b = np.ogrid[tuple(slice(0, n) for n in shape)]
        pr_box = ((a - b - x * y) % shape[2] == 0) / shape[2]
        for i in range(5):
            quantum = behavior_from_quantum(_random_model(rng, scenario, 2, "complete"))
            share = rng.uniform(0.2, 0.7) if i >= 3 else 0.0
            yield Behavior(scenario, share * pr_box + (1.0 - share) * quantum.probs)
        n = scenario.alice_strategy_count() * scenario.bob_strategy_count()
        weights = rng.random(n) * (rng.random(n) < min(1.0, 40 / n))
        yield behavior_from_local(classical.local_model_from_weights(
            scenario, weights / weights.sum(), np.arange(n)), scenario)


def test_column_generation_matches_the_full_vertex_lp(monkeypatch):
    # the restricted master ends at the distance of the full LP, with its
    # verdict; a nonlocal functional peaks at 1 over every vertex and
    # separates by the certified margin
    solve = numerics.RestrictedMaster.solve
    last = []
    monkeypatch.setattr(numerics.RestrictedMaster, "solve",
                        lambda self, *args: last.append(solve(self, *args)) or last[-1])
    verdicts = []
    for behavior in _membership_battery():
        reference = lp_solve(reference_membership_lp(behavior))
        assert reference.status == "optimal"
        cert = is_local(behavior)
        verdicts.append(cert.verdict)
        assert abs(last[-1].objective - reference.objective) <= 1e-9
        assert cert.verdict == ("local" if reference.objective <= classical.MEMBERSHIP_TOL
                                else "nonlocal")
        if cert.verdict == "local":
            rebuilt = behavior_from_local(cert.model, behavior.scenario).probs
            assert cert.reconstruction_error == np.abs(rebuilt - behavior.probs).max()
            assert cert.reconstruction_error <= 1e-12
            continue
        hi, _ = signed_extrema(cert.separating)
        assert abs(hi - 1.0) <= 1e-12 and cert.max_vertex_value == 1.0
        value = pair(cert.separating, behavior)
        assert abs(value - cert.value_on_behavior) <= 1e-12
        assert abs(cert.margin - reference.objective) <= 1e-9
        assert value - hi >= cert.margin - 1e-12 > 0.0
    assert verdicts.count("local") >= 10 and verdicts.count("nonlocal") >= 5


def test_membership_runs_the_oracle_once_per_master_answer(monkeypatch):
    # twice for the seeds, then once to price each round's optimum; the
    # separating functional's best vertex value comes from the last round
    oracle, solve, calls = classical.best_response_vertices, numerics.RestrictedMaster.solve, []
    monkeypatch.setattr(classical, "best_response_vertices",
                        lambda coeffs: calls.append("oracle") or oracle(coeffs))
    monkeypatch.setattr(numerics.RestrictedMaster, "solve",
                        lambda self, *args: calls.append("solve") or solve(self, *args))
    scenario = Scenario(3, 3, 3, 3)
    x, y, a, b = np.ogrid[0:3, 0:3, 0:3, 0:3]
    pr_box = ((a - b - x * y) % 3 == 0) / 3.0
    qubit = behavior_from_quantum(_random_model(np.random.default_rng(4), scenario, 2, "complete"))
    cert = is_local(Behavior(scenario, 0.4 * pr_box + 0.6 * qubit.probs))
    assert cert.verdict == "nonlocal"
    assert calls[:2] == ["oracle", "oracle"] and calls.count("solve") >= 2
    assert calls[2:] == ["solve", "oracle"] * calls.count("solve")


def test_membership_at_10x10x2x2_is_certified_without_the_vertex_matrix(monkeypatch):
    # a million vertices, ten times the vertex guard: the oracle prices them
    def refuse(scenario):
        raise AssertionError("membership built the vertex matrix")

    monkeypatch.setattr(polytope, "vertex_matrix", refuse)
    monkeypatch.setattr(polytope, "_vertex_matrix", refuse)
    # each round adds at most as many columns as the master has rows (801),
    # each seed functional as many; 4,096 assignments would offer more
    solve, added = numerics.RestrictedMaster.solve, []
    monkeypatch.setattr(numerics.RestrictedMaster, "solve",
                        lambda self, c, columns: added.append(len(c)) or solve(self, c, columns))
    scenario = Scenario(10, 10, 2, 2)
    qubit = behavior_from_quantum(_random_model(np.random.default_rng(10), scenario, 2,
                                                "complete"))
    x, y, a, b = np.ogrid[0:10, 0:10, 0:2, 0:2]
    pr_box = ((a + b + x * y) % 2 == 0) / 2.0
    mixed = Behavior(scenario, 0.3 * pr_box + 0.7 * qubit.probs)
    verdicts = []
    for behavior in (qubit, mixed):
        added.clear()
        cert = is_local(behavior)
        verdicts.append(cert.verdict)
        assert added[0] <= 1 + 2 * 801 and max(added[1:], default=0) <= 801
        if cert.verdict == "local":
            rebuilt = behavior_from_local(cert.model, scenario).probs
            assert cert.reconstruction_error == np.abs(rebuilt - behavior.probs).max() <= 1e-8
            continue
        hi, _ = signed_extrema(cert.separating)
        assert abs(hi - 1.0) <= 1e-12
        assert pair(cert.separating, behavior) - hi >= cert.margin - 1e-12 > 1e-3
    assert verdicts[1] == "nonlocal"


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 3, 2, 2), (2, 3, 3, 2), (3, 3, 4, 4),
                                   (3, 2, 1, 3)], ids=lambda shape: "x".join(map(str, shape)))
def test_collins_gisin_vertices_span_the_vertex_rows(shape):
    # each party answers 0 on every input, or on all inputs but one: the
    # (na(ma-1) + 1)(nb(mb-1) + 1) rows are independent and span every vertex row
    scenario = Scenario(*shape)
    na, nb, ma, mb = shape
    vertices = polytope.collins_gisin_vertices(scenario)
    assert len(vertices) == (na * (ma - 1) + 1) * (nb * (mb - 1) + 1)
    assert np.array_equal(vertices, np.unique(vertices))
    d = polytope.vertex_matrix(scenario)
    full = np.zeros(d.shape)
    full[np.repeat(np.arange(d.shape[0]), np.diff(d.indptr)), d.indices] = d.data
    assert np.linalg.matrix_rank(full[vertices]) == np.linalg.matrix_rank(full) == len(vertices)

    def flips(n_inputs, n_outputs):
        return {(0,) * n_inputs} | {tuple(a if k == x else 0 for k in range(n_inputs))
                                    for x in range(n_inputs) for a in range(1, n_outputs)}

    decoded = [(s.alice_outputs, s.bob_outputs)
               for s in polytope.strategies_from_vertices(scenario, vertices)]
    assert set(decoded) == set(itertools.product(flips(na, ma), flips(nb, mb)))


def test_vertex_rows_tables_only_the_given_assignments(monkeypatch):
    # a million assignments of Bob: rows of two vertices table two of each
    table = polytope.assignment_table
    sizes = []
    monkeypatch.setattr(polytope, "assignment_table",
                        lambda ids, *args: sizes.append(np.size(ids)) or table(ids, *args))
    scenario = Scenario(2, 20, 2, 2)
    alice, bob = np.array([3, 1]), np.array([5, (1 << 20) - 1])
    rows = polytope.vertex_rows(scenario, alice, bob)
    assert sizes == [2, 2]
    dense = np.zeros((2,) + scenario.shape)
    for k in range(2):
        for x, y in itertools.product(range(2), range(20)):
            dense[(k, x, y, table(alice[k], 2, 2)[x], table(bob[k], 20, 2)[y])] = 1.0
    assert rows.shape == (2, scenario.n_entries) and np.array_equal(rows.indptr, [0, 40, 80])
    assert np.array_equal(rows.indices, np.nonzero(dense.reshape(2, -1))[1])
    assert np.all(rows.data == 1.0)
