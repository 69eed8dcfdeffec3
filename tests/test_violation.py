"""Nonlocality quantities: the vertex-bounded violation measure nu, the
noise robustness pi, the identity linking them, behavior completion, and
the dimension witness.
"""

import itertools

import numpy as np
import pytest

from bellcalc import (
    Behavior,
    BellFunctional,
    Scenario,
    SeesawConfig,
    SignalingBehaviorError,
    UndefinedQuantityError,
    ValidationError,
    behavior_from_local,
    behavior_from_quantum,
    chsh_functional,
    classical_value,
    comm_bits,
    complete_behavior,
    dimension_witness_report,
    eq4_gap,
    magic_square_functional,
    max_violation,
    noise_robustness,
    pair,
    seesaw,
    validate,
    violation_report,
)
from bellcalc import numerics, violation
from bellcalc.core import QuantumModel, hermitian_part, no_signaling_check
from bellcalc.numerics import lp_solve
from bellcalc.seesaw import _random_model
from bellcalc.violation import complete_quantum_model

from conftest import build_chsh_optimal_model, random_local_model

ROOT2 = np.sqrt(2.0)


def _random_quantum_behavior(rng, dim=2):
    scenario = Scenario(2, 2, 2, 2)
    return behavior_from_quantum(_random_model(rng, scenario, dim, "complete"))


def test_uniform_behavior_sits_on_the_boundary(scenario_2222):
    b = Behavior(scenario_2222, np.full(scenario_2222.shape, 0.25))
    report = violation_report(b)
    assert report.nu == 1.0
    assert report.boundary
    assert report.pi == pytest.approx(1.0, abs=1e-7)
    assert report.comm_bound_bits == 0.0


def test_local_mixtures_have_trivial_nu(rng, scenario_2222):
    for _ in range(5):
        b = behavior_from_local(random_local_model(rng, scenario_2222), scenario_2222)
        report = violation_report(b)
        assert report.nu == 1.0
        assert report.boundary
        assert report.comm_bound_bits == 0.0


def test_chsh_optimal_nu_is_root_two(chsh_optimal_behavior):
    nu, witness = max_violation(chsh_optimal_behavior)
    assert nu == pytest.approx(ROOT2, abs=1e-9)
    # the witness is normalized to classical value exactly one and
    # reproduces nu through the pairing
    assert classical_value(witness) == 1.0
    assert abs(pair(witness, chsh_optimal_behavior)) == pytest.approx(nu, abs=1e-9)


def test_chsh_optimal_witness_has_chsh_signs(chsh_optimal_behavior):
    _, witness = max_violation(chsh_optimal_behavior)
    # correlator components: equal magnitude on all four blocks, an odd
    # number of negated blocks
    corr = np.einsum("xyab,a,b->xy", witness.coeffs,
                     np.array([1.0, -1.0]), np.array([1.0, -1.0]))
    mags = np.abs(corr)
    assert np.max(mags) == pytest.approx(np.min(mags), rel=1e-6)
    assert np.prod(np.sign(corr)) == -1.0


def test_chsh_optimal_pi_value(chsh_optimal_behavior):
    # the pi LP poses its mixture rows exactly, with right-hand side 0
    pi = noise_robustness(chsh_optimal_behavior)
    assert pi == pytest.approx(2.0 / (ROOT2 + 1.0), abs=1e-15)


def test_chsh_optimal_identity_residual(chsh_optimal_behavior):
    assert violation_report(chsh_optimal_behavior).identity_residual <= 1e-15


def test_chsh_optimal_communication_bits(chsh_optimal_behavior):
    bits = comm_bits(max_violation(chsh_optimal_behavior)[0])
    assert bits == pytest.approx(0.5, abs=1e-6)


def test_magic_square_communication_bits(magic_square_model):
    b = behavior_from_quantum(magic_square_model)
    nu, witness = max_violation(b)
    bits = comm_bits(max_violation(b)[0])
    assert bits == pytest.approx(np.log2(nu), abs=1e-12)
    # the game functional rescaled to classical value one already pays
    # 9/8 on this behavior, so at least log2(9/8) bits
    assert bits >= np.log2(9.0 / 8.0) - 1e-9
    # the witness reproves the reported nu independently of the LP
    assert abs(pair(witness, b)) / classical_value(witness) == pytest.approx(nu, abs=1e-9)


def test_identity_residual_on_random_models(rng):
    for _ in range(10):
        b = _random_quantum_behavior(rng)
        assert violation_report(b).identity_residual <= 1e-6


def test_nu_is_quasi_convex_along_local_mixtures(rng, chsh_optimal_behavior, scenario_2222):
    # mixing toward any local point can never raise nu
    nu_q, _ = max_violation(chsh_optimal_behavior)
    for _ in range(5):
        local = behavior_from_local(random_local_model(rng, scenario_2222), scenario_2222)
        for v in (0.0, 0.3, 0.7, 1.0):
            probs = v * chsh_optimal_behavior.probs + (1.0 - v) * local.probs
            nu_mix, _ = max_violation(Behavior(scenario_2222, probs))
            assert nu_mix <= nu_q + 1e-8


def test_pi_increases_when_mixed_with_local(chsh_optimal_behavior, scenario_2222):
    pi_q = noise_robustness(chsh_optimal_behavior)
    mixed = Behavior(
        scenario_2222,
        0.5 * chsh_optimal_behavior.probs + 0.5 * np.full(scenario_2222.shape, 0.25),
    )
    assert noise_robustness(mixed) >= pi_q + 1e-3


def _priced_pi_lps(monkeypatch):
    """Every (LP, column start set) max_violation and noise_robustness pose,
    as they pose them."""
    posed = []

    def keep(lp, columns=None, rows=None):
        posed.append((lp, columns))
        return lp_solve(lp, columns, rows)

    monkeypatch.setattr(violation, "lp_solve", keep)
    return posed


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 3, 2, 2), (4, 4, 2, 2), (3, 3, 3, 3),
                                   (3, 3, 4, 4)], ids=lambda shape: "x".join(map(str, shape)))
def test_priced_pi_matches_the_lp_without_a_start_set(monkeypatch, shape):
    # noise_robustness gives HiGHS a working set of columns and prices the
    # rest: pi is the LP's on every column from the start, up to roundoff,
    # exactly 1.0 on local mixtures, and nu = 2/pi - 1 still holds
    rng = np.random.default_rng(sum(shape))
    scenario = Scenario(*shape)
    posed = _priced_pi_lps(monkeypatch)
    quantum = [behavior_from_quantum(_random_model(rng, scenario, 2, "complete"))
               for _ in range(3)]
    local = [behavior_from_local(random_local_model(rng, scenario), scenario) for _ in range(3)]
    for i, behavior in enumerate(quantum + local):
        report = violation_report(behavior)
        lp, columns = posed[-1]
        assert columns is not None and len(columns) < lp.a.shape[1]
        full = lp_solve(lp)
        assert full.status == "optimal"
        assert abs(report.pi - min(max(full.objective, 0.0), 1.0)) <= 1e-9
        assert report.identity_residual <= 1e-6
        if i >= len(quantum):
            assert report.pi == 1.0


def test_priced_pi_from_a_start_set_without_a_feasible_point(monkeypatch, chsh_optimal_behavior):
    # lambda_0 alone has no feasible point (v = 0 and no mu leave v + sum mu
    # = 1 unmet): the working set's infeasibility proves nothing, so every
    # column joins, and that LP, by dual simplex again, gives pi
    posed = _priced_pi_lps(monkeypatch)
    pi = noise_robustness(chsh_optimal_behavior)
    lp, _ = posed[-1]
    run, strategies = numerics._run, []
    monkeypatch.setattr(numerics, "_run",
                        lambda highs, strategy: strategies.append(strategy) or run(highs, strategy))
    sol = lp_solve(lp, [1])
    assert sol.status == "optimal" and abs(sol.objective - pi) <= 1e-12
    assert strategies == [numerics._DUAL_SIMPLEX] * 2


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 3, 2, 2), (4, 4, 2, 2), (3, 3, 3, 3),
                                   (3, 3, 4, 4), (6, 6, 2, 2)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_sifted_nu_matches_the_lp_without_a_start_set(monkeypatch, shape):
    # max_violation gives HiGHS a working set of vertex rows and adds the
    # rows its answer violates: nu is the LP's on every row up to roundoff,
    # exactly 1.0 on local mixtures, and the witness attains it at classical
    # value 1; at 6x6x2x2 HiGHS never holds every row
    rng = np.random.default_rng(sum(shape))
    scenario = Scenario(*shape)
    posed = _priced_pi_lps(monkeypatch)
    run, held = numerics._run, []
    monkeypatch.setattr(numerics, "_run",
                        lambda highs, strategy: held.append(highs.getNumRow()) or run(highs, strategy))
    quantum = [behavior_from_quantum(_random_model(rng, scenario, 2, "complete"))
               for _ in range(3)]
    local = [behavior_from_local(random_local_model(rng, scenario), scenario) for _ in range(3)]
    for i, behavior in enumerate(quantum + local):
        held.clear()
        nu, witness = max_violation(behavior)
        lp, _ = posed[-1]
        n_vertices = lp.a.shape[0] // 2
        if shape == (6, 6, 2, 2):
            assert max(held) < n_vertices
        full = lp_solve(lp)
        assert full.status == "optimal"
        assert abs(nu - full.objective) <= 1e-9
        if i >= len(quantum):
            assert nu == 1.0
        assert abs(classical_value(witness) - 1.0) <= 1e-9
        assert abs(pair(witness, behavior) - nu) <= 1e-9


def test_nu_rejects_signaling(scenario_2222):
    probs = np.full(scenario_2222.shape, 0.25)
    probs[0, 0] = [[0.4, 0.0], [0.1, 0.5]]
    with pytest.raises(SignalingBehaviorError,
                       match="max_violation is undefined for signaling behaviors"):
        max_violation(Behavior(scenario_2222, probs))
    with pytest.raises(SignalingBehaviorError,
                       match="noise_robustness is undefined for signaling behaviors"):
        noise_robustness(Behavior(scenario_2222, probs))


def _no_signaling_rows(scenario):
    """(rows, right-hand side) of the normalization and marginal-equality
    constraints, one row per constraint, written out entry by entry."""
    na, nb, ma, mb = scenario.shape
    rows, rhs = [], []
    for x, y in itertools.product(range(na), range(nb)):
        row = np.zeros(scenario.shape)
        row[x, y] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for x, a, y in itertools.product(range(na), range(ma), range(nb - 1)):
        row = np.zeros(scenario.shape)
        row[x, y, a, :], row[x, y + 1, a, :] = 1.0, -1.0
        rows.append(row)
        rhs.append(0.0)
    for y, b, x in itertools.product(range(nb), range(mb), range(na - 1)):
        row = np.zeros(scenario.shape)
        row[x, y, :, b], row[x + 1, y, :, b] = 1.0, -1.0
        rows.append(row)
        rhs.append(0.0)
    return np.array(rows).reshape(len(rows), -1), np.array(rhs)


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 2, 4, 3), (1, 3, 2, 2), (3, 3, 4, 4)])
def test_no_signaling_projection_is_the_least_squares_one(shape):
    # the closed form equals the minimum-norm least-squares correction,
    # even for behaviors that signal at order one
    rng = np.random.default_rng(11)
    scenario = Scenario(*shape)
    rows, rhs = _no_signaling_rows(scenario)
    for _ in range(5):
        probs = rng.random(shape)
        probs /= probs.sum(axis=(2, 3), keepdims=True)
        probs[0, -1] = rng.dirichlet(np.ones(shape[2] * shape[3])).reshape(shape[2:])
        q = probs.ravel()
        reference = q - np.linalg.lstsq(rows, rows @ q - rhs, rcond=None)[0]
        projected = violation._no_signaling_projection(Behavior(scenario, probs))
        assert np.abs(projected - reference).max() <= 1e-14
        assert np.abs(rows @ projected - rhs).max() <= 1e-14


@pytest.mark.parametrize("leak", [1e-10, 1e-9, 5e-9])
def test_nu_of_a_behavior_signaling_below_the_tolerance(chsh_optimal_behavior, leak):
    # moving mass between two entries of one block signals by `leak`, which
    # the no-signaling check lets through; the LPs see the projection of the
    # behavior onto the no-signaling subspace, so nu stays finite and moves
    # from sqrt(2) by no more than the residual (plus LP roundoff)
    probs = chsh_optimal_behavior.probs.copy()
    probs[0, 0, 0, 0] += leak
    probs[0, 0, 0, 1] -= leak
    behavior = Behavior(chsh_optimal_behavior.scenario, probs)
    residual = no_signaling_check(behavior).max_residual
    assert leak * 0.99 <= residual <= 1e-8
    report = violation_report(behavior)
    assert abs(report.nu - ROOT2) <= residual + 1e-12
    # the witness attains nu on the projection, which is within the residual
    projected = violation._no_signaling_projection(behavior)
    assert np.abs(projected - probs.ravel()).max() <= residual
    assert abs(report.witness.coeffs.ravel() @ projected - report.nu) <= 1e-9
    assert report.identity_residual <= 1e-12


def test_nu_of_behaviors_rounded_to_ten_decimals():
    # behaviors typed in to 10 decimals signal at about 1e-10: every one of
    # them keeps a finite nu, within 1e-8 of the unrounded behavior's
    rng = np.random.default_rng(2)
    scenario = Scenario(3, 3, 2, 2)
    for _ in range(20):
        exact = behavior_from_quantum(_random_model(rng, scenario, 2, "complete"))
        probs = np.round(exact.probs, 10)
        probs /= probs.sum(axis=(2, 3), keepdims=True)
        rounded = Behavior(scenario, probs)
        assert 0.0 < no_signaling_check(rounded).max_residual <= 1e-8
        report = violation_report(rounded)
        assert abs(report.nu - max_violation(exact)[0]) <= 1e-8
        projected = violation._no_signaling_projection(rounded)
        assert abs(report.witness.coeffs.ravel() @ projected - report.nu) <= 1e-9
        assert report.identity_residual <= 1e-12


def test_pi_of_local_mixtures_rounded_to_ten_decimals():
    # rounding leaves a residual of about 1e-10 outside the span of the
    # vertices; the pi LP sees the projection, so v is not forced below 1,
    # and v's upper bound keeps it from landing an ulp under 1
    rng = np.random.default_rng(3)
    scenario = Scenario(3, 3, 2, 2)
    for _ in range(20):
        local = behavior_from_local(random_local_model(rng, scenario), scenario)
        probs = np.round(local.probs, 10)
        probs /= probs.sum(axis=(2, 3), keepdims=True)
        assert noise_robustness(Behavior(scenario, probs)) == 1.0


def test_nu_rejects_incomplete(scenario_2222):
    b = Behavior(scenario_2222, np.full(scenario_2222.shape, 0.2), completeness="incomplete")
    with pytest.raises(ValidationError):
        max_violation(b)


def test_complete_behavior_leaves_complete_input_alone(chsh_optimal_behavior):
    relabeled = Behavior(chsh_optimal_behavior.scenario, chsh_optimal_behavior.probs,
                         completeness="incomplete")
    done = complete_behavior(relabeled)
    assert done.is_complete
    assert done.scenario == Scenario(2, 2, 3, 3)
    np.testing.assert_allclose(done.probs[:, :, :2, :2], chsh_optimal_behavior.probs, atol=1e-12)
    assert np.max(np.abs(done.probs[:, :, 2, :])) == 0.0
    assert np.max(np.abs(done.probs[:, :, :, 2])) == 0.0


def test_complete_behavior_uniform_loss_stays_local(rng, scenario_2222):
    model = random_local_model(rng, scenario_2222)
    base = behavior_from_local(model, scenario_2222)
    scaled = Behavior(scenario_2222, 0.7 * base.probs, completeness="incomplete")
    done = complete_behavior(scaled)
    assert done.is_complete
    assert validate(done) == ()
    assert no_signaling_check(done).max_residual <= 1e-10
    from bellcalc import is_local  # noqa: PLC0415
    cert = is_local(done)
    assert cert.verdict == "local"


def test_complete_behavior_matches_completed_model(rng):
    # uniformly scaled POVMs: sqrt-mass completion reproduces the model
    # completion exactly
    scenario = Scenario(2, 2, 2, 2)
    model = _random_model(rng, scenario, 2, "complete")
    s = 0.9
    scaled = QuantumModel(
        2, 2, model.state,
        tuple(tuple(s * e for e in ops) for ops in model.alice_povms),
        tuple(tuple(s * e for e in ops) for ops in model.bob_povms),
        completeness="incomplete",
    )
    lossy = behavior_from_quantum(scaled)
    via_behavior = complete_behavior(lossy)
    via_model = behavior_from_quantum(complete_quantum_model(scaled))
    np.testing.assert_allclose(via_behavior.probs, via_model.probs, atol=1e-10)


def test_complete_behavior_rejects_overweight_block(scenario_2222):
    probs = np.full(scenario_2222.shape, 0.25)
    probs[1, 0] *= 1.2
    b = Behavior(scenario_2222, probs, completeness="incomplete")
    with pytest.raises(ValidationError, match=r"x=1.*y=0|\(1, 0\)"):
        complete_behavior(b)


def test_complete_behavior_rejects_inconsistent_deficits(scenario_2222):
    # Alice's missing mass depends on Bob's input, which no completion
    # can repair without signaling
    probs = np.full(scenario_2222.shape, 0.25)
    probs[0, 0, 0, :] *= 0.2
    b = Behavior(scenario_2222, probs, completeness="incomplete")
    with pytest.raises(ValidationError, match="no-signaling"):
        complete_behavior(b)


def test_complete_quantum_model_restriction(rng):
    scenario = Scenario(2, 2, 2, 2)
    model = _random_model(rng, scenario, 3, "incomplete")
    done = complete_quantum_model(model)
    assert done.completeness == "complete"
    assert validate(done) == ()
    restricted = behavior_from_quantum(done).probs[:, :, :2, :2]
    np.testing.assert_allclose(restricted, behavior_from_quantum(model).probs, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 3])
def test_complete_quantum_model_matches_per_element_sums(rng, dim):
    # nine outcomes: at d = 1 numpy's pairwise .sum(axis=1) would round
    # differently from adding the outcomes one at a time
    model = _random_model(rng, Scenario(6, 3, 9, 2), dim, "complete")
    scaled = QuantumModel(dim, dim, model.state, 0.7 * model.alice_povms,
                          0.9 * model.bob_povms, completeness="incomplete")
    done = complete_quantum_model(scaled)
    for got, povms in ((done.alice_povms, scaled.alice_povms),
                       (done.bob_povms, scaled.bob_povms)):
        want = np.array([list(p) + [hermitian_part(np.eye(dim) - sum(list(p)))] for p in povms])
        assert got.tobytes() == want.tobytes()


def test_eq4_chsh_gap_closes(chsh):
    lhs, rhs = eq4_gap(chsh, SeesawConfig(dim=2, seeds=5))
    assert rhs == pytest.approx(ROOT2, abs=1e-6)
    assert lhs >= rhs - 1e-6


def test_eq4_undefined_for_zero_functional():
    f = BellFunctional(Scenario(2, 2, 2, 2), np.zeros((2, 2, 2, 2)))
    with pytest.raises(UndefinedQuantityError):
        eq4_gap(f, SeesawConfig(dim=2, seeds=1))


def test_dimension_witness_flags_supraquantum(chsh):
    # 2 sqrt 2 + margin cannot be reached at any dimension here
    report = dimension_witness_report(chsh, observed=2.9, max_dim=3,
                                      cfg=SeesawConfig(dim=1, seeds=3))
    assert report.label == "HEURISTIC"
    assert all(e.exceeded for e in report.entries)
    assert report.warning is not None
    assert [e.dim for e in report.entries] == [1, 2, 3]


def test_dimension_witness_classical_value_needs_no_quantum(chsh):
    report = dimension_witness_report(chsh, observed=1.5, max_dim=2,
                                      cfg=SeesawConfig(dim=1, seeds=3))
    assert not report.entries[0].exceeded
    assert not report.entries[1].exceeded
    assert report.warning is None


def test_dimension_witness_separates_two_from_one(chsh):
    report = dimension_witness_report(chsh, observed=2.5, max_dim=2,
                                      cfg=SeesawConfig(dim=1, seeds=4))
    assert report.entries[0].exceeded          # 2.5 > 2 at dimension 1
    assert not report.entries[1].exceeded      # 2.5 < 2 sqrt 2
    assert report.warning is None
    assert report.observed == 2.5
    # chained warm starts keep the per-dimension values nondecreasing
    values = [e.best_value for e in report.entries]
    assert values == sorted(values)


def test_dimension_witness_rejects_negative_observation(chsh):
    # nan compares false against 0, so it needs its own check
    for observed in (-0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            dimension_witness_report(chsh, observed=observed, max_dim=2)


def test_violation_report_is_consistent(chsh_optimal_behavior):
    report = violation_report(chsh_optimal_behavior)
    assert report.nu == pytest.approx(ROOT2, abs=1e-9)
    assert report.identity_residual <= 1e-6
    assert report.comm_bound_bits == pytest.approx(0.5, abs=1e-6)
    assert not report.boundary
    assert abs(pair(report.witness, chsh_optimal_behavior)) == pytest.approx(report.nu, abs=1e-9)
