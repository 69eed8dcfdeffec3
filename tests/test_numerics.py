"""LP backend contracts, eigendecomposition, POVM sub-step solver.

The POVM solver is checked against an independent semidefinite
formulation (cvxpy, when installed) on small instances, against its own
dual bound everywhere else, and its stacked fixed point against the same
iteration taken one outcome at a time.
"""

import itertools

import numpy as np
import pytest

from bellcalc import ValidationError
from bellcalc.core import hermitian_part
from bellcalc.numerics import (
    EQ,
    GE,
    LE,
    MAX_POVM_ITERS,
    LinearProgram,
    _eigh_unchecked,
    _lapack_errors,
    eigh,
    lp_solve,
    povm_update,
    psd_project,
)
from bellcalc.seesaw import _random_povm

from conftest import random_feasible_lp


def test_lp_simple_upper_bound_and_dual_sign():
    # max x subject to x <= 3: optimum 3, the row's dual is +1
    lp = LinearProgram(
        c=np.array([1.0]), a=np.array([[1.0]]), rhs=np.array([3.0]),
        senses=[LE], lower=np.array([0.0]), upper=np.array([np.inf]),
        maximize=True,
    )
    sol = lp_solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.row_duals[0] == pytest.approx(1.0, abs=1e-9)


def test_lp_minimize_orientation_dual():
    # min -x subject to x <= 3: objective -3; relaxing the row by one
    # unit lowers the optimum by one, so the posed dual is -1
    lp = LinearProgram(
        c=np.array([-1.0]), a=np.array([[1.0]]), rhs=np.array([3.0]),
        senses=[LE], lower=np.array([0.0]), upper=np.array([np.inf]),
        maximize=False,
    )
    sol = lp_solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-3.0, abs=1e-9)
    assert sol.row_duals[0] == pytest.approx(-1.0, abs=1e-9)


def test_lp_equality_dual():
    # min x + y subject to x + y == 1: dual of the row is 1
    lp = LinearProgram(
        c=np.ones(2), a=np.ones((1, 2)), rhs=np.array([1.0]),
        senses=[EQ], lower=np.zeros(2), upper=np.full(2, np.inf),
        maximize=False,
    )
    sol = lp_solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.row_duals[0] == pytest.approx(1.0, abs=1e-9)


def test_lp_infeasible_detected():
    lp = LinearProgram(
        c=np.array([1.0]), a=np.array([[1.0]]), rhs=np.array([-1.0]),
        senses=[LE], lower=np.array([0.0]), upper=np.array([np.inf]),
        maximize=False,
    )
    assert lp_solve(lp).status == "infeasible"


def test_lp_solution_reports_simplex_iterations():
    rng = np.random.default_rng(12)
    counts = [lp_solve(random_feasible_lp(rng)).iterations for _ in range(5)]
    assert all(isinstance(n, int) for n in counts)
    assert max(counts) >= 1


def test_lp_unbounded_detected():
    lp = LinearProgram(
        c=np.array([1.0]), a=np.array([[1.0]]), rhs=np.array([0.0]),
        senses=[GE], lower=np.array([0.0]), upper=np.array([np.inf]),
        maximize=True,
    )
    assert lp_solve(lp).status == "unbounded"


def test_lp_random_sweep_certificates():
    rng = np.random.default_rng(7)
    for _ in range(100):
        lp = random_feasible_lp(rng)
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        assert sol.primal_residual <= 1e-8
        assert sol.dual_residual <= 1e-8
        assert sol.duality_gap <= 1e-7 * (1.0 + abs(sol.objective))


def test_lp_rejects_bad_senses():
    with pytest.raises(ValidationError):
        LinearProgram(
            c=np.array([1.0]), a=np.array([[1.0]]), rhs=np.array([1.0]),
            senses=["<"], lower=np.array([0.0]), upper=np.array([1.0]),
        )


def test_lp_rejects_shape_mismatch():
    with pytest.raises(ValidationError):
        LinearProgram(
            c=np.array([1.0, 2.0]), a=np.array([[1.0]]), rhs=np.array([1.0]),
            senses=[LE], lower=np.zeros(2), upper=np.ones(2),
        )


def test_eigh_contract_on_random_hermitian():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(1, 17))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = hermitian_part(g)
        w, v = eigh(h)
        assert np.all(np.diff(w) >= -1e-14)
        residual = np.max(np.abs(h @ v - v * w))
        assert residual <= 1e-10 * max(1.0, np.linalg.norm(h))


def test_hermitian_part_output_is_exactly_hermitian():
    # what lets _eigh_unchecked drop eigh's check: the defect it measures is
    # exactly 0 on a hermitian_part output and on a difference of two.
    # Equality, not bytes: 0.5 * z is a complex product, so a zero real part
    # can take its sign from the imaginary part; the callers therefore pass
    # the hermitian_part output that eigh itself would have made.
    rng = np.random.default_rng(8)
    for dim in range(1, 9):
        for shape in ((dim, dim), (4, dim, dim)):
            g = rng.standard_normal((2,) + shape) + 1j * rng.standard_normal((2,) + shape)
            g[rng.random(g.shape) < 0.2] = complex(-0.0, -0.0)
            g.real[rng.random(g.shape) < 0.2] = -0.0
            g.imag[rng.random(g.shape) < 0.2] = -0.0
            a, b = hermitian_part(g)
            for m in (a, a - b):
                assert np.array_equal(m, m.conj().swapaxes(-1, -2))
                assert np.array_equal(hermitian_part(m), m)
                w, v = eigh(m)
                got_w, got_v = _eigh_unchecked(hermitian_part(m))
                assert (w.tobytes(), v.tobytes()) == (got_w.tobytes(), got_v.tobytes())


def test_eigh_unchecked_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(9)
    for dim in range(1, 9):
        for shape in ((dim, dim), (5, dim, dim), (2, 3, dim, dim)):
            h = hermitian_part(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for m in (h, h.real.copy()):
                w, v = _eigh_unchecked(m)
                want_w, want_v = np.linalg.eigh(m)
                assert (w.dtype, v.dtype) == (want_w.dtype, want_v.dtype)
                assert w.tobytes() == want_w.tobytes()
                assert v.tobytes() == want_v.tobytes()


def test_eigh_unchecked_raises_on_nan():
    h = np.full((3, 3), np.nan, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigh(h)
    with pytest.raises(np.linalg.LinAlgError), _lapack_errors():
        _eigh_unchecked(h)
    with pytest.raises(np.linalg.LinAlgError):
        povm_update([h, np.eye(3)])  # two outcomes: the closed form's eigendecomposition


def test_povm_update_restores_the_floating_point_error_state():
    # the incomplete mode nests povm_update in itself; each level must put
    # back exactly the state it found, and leave no LinAlgError hook behind
    def hook(err, flag):
        pass
    rng = np.random.default_rng(13)
    reduced = _random_reduced(rng, 3, 3)
    with np.errstate(all="warn", call=hook):
        before = (np.geterr(), np.geterrcall())
        povm_update(reduced, "incomplete", warm_start=np.array(_random_povm(rng, 3, 3)) * 0.5)
        _random_povm(rng, 3, 4)
        assert (np.geterr(), np.geterrcall()) == before
    with pytest.warns(RuntimeWarning):
        np.sqrt(-np.ones(1))


def test_eigh_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        eigh(m)


def test_psd_project_properties(rng):
    g = hermitian_part(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    p = psd_project(g)
    w = np.linalg.eigvalsh(p)
    assert w[0] >= -1e-12
    np.testing.assert_allclose(psd_project(p), p, atol=1e-12)
    # already-psd input passes through
    q = p + np.eye(5)
    np.testing.assert_allclose(psd_project(q), q, atol=1e-12)


def test_eigh_and_psd_project_broadcast_bit_for_bit():
    rng = np.random.default_rng(41)
    for dim in (1, 3, 4, 6):
        stack = hermitian_part(rng.standard_normal((5, dim, dim))
                               + 1j * rng.standard_normal((5, dim, dim)))
        w, v = eigh(stack)
        projected = psd_project(stack)
        for k, h in enumerate(stack):
            single_w, single_v = eigh(h)
            assert w[k].tobytes() == single_w.tobytes()
            assert v[k].tobytes() == single_v.tobytes()
            assert projected[k].tobytes() == psd_project(h).tobytes()


def test_stack_with_one_non_hermitian_slice_is_rejected():
    stack = np.stack([np.eye(3, dtype=complex)] * 4)
    stack[2, 0, 1] = 1.0
    with pytest.raises(ValidationError):
        eigh(stack)
    with pytest.raises(ValidationError):
        psd_project(stack)


@pytest.mark.parametrize("reduced", [
    [np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)],
    [np.eye(2), np.eye(3), np.eye(2)],
    [np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3))],
    [np.ones(3)],
    [],
], ids=["non-hermitian", "mixed-shapes", "not-square", "vector", "empty"])
def test_povm_update_rejects_bad_reduced_operators(reduced):
    with pytest.raises(ValidationError):
        povm_update(reduced, "complete")


def _random_reduced(rng, dim, n_out):
    return [
        hermitian_part(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        for _ in range(n_out)
    ]


def _sdp_reference(reduced, mode):
    import cvxpy

    dim = reduced[0].shape[0]
    ops = [cvxpy.Variable((dim, dim), hermitian=True) for _ in reduced]
    total = sum(ops)
    constraints = [e >> 0 for e in ops]
    if mode == "complete":
        constraints.append(total == np.eye(dim))
    else:
        constraints.append(np.eye(dim) - total >> 0)
    objective = cvxpy.Maximize(
        sum(cvxpy.real(cvxpy.trace(r @ e)) for r, e in zip(reduced, ops))
    )
    problem = cvxpy.Problem(objective, constraints)
    problem.solve(solver=cvxpy.CLARABEL)
    # the interior-point reference sometimes stops at reduced accuracy;
    # still usable as a cross-check at the tolerance below
    assert problem.status in (cvxpy.OPTIMAL, cvxpy.OPTIMAL_INACCURATE)
    return float(problem.value)


def test_povm_update_single_outcome_is_identity():
    r = np.diag([1.0, -2.0]).astype(complex)
    result = povm_update([r], "complete")
    np.testing.assert_allclose(result.operators[0], np.eye(2), atol=1e-12)
    assert result.objective == pytest.approx(-1.0, abs=1e-12)


def test_povm_update_two_outcome_closed_form():
    # difference diag(1, -1): optimal projectors split the eigenspaces
    r1 = np.diag([1.0, 0.0]).astype(complex)
    r2 = np.diag([0.0, 1.0]).astype(complex)
    result = povm_update([r1, r2], "complete")
    np.testing.assert_allclose(result.operators[0], np.diag([1.0, 0.0]), atol=1e-10)
    np.testing.assert_allclose(result.operators[1], np.diag([0.0, 1.0]), atol=1e-10)
    assert result.objective == pytest.approx(2.0, abs=1e-10)
    assert result.dual_bound - result.objective <= 1e-8


def test_povm_update_equal_operators_any_povm_is_optimal(rng):
    r = hermitian_part(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    reduced = [r, r, r]
    result = povm_update(reduced, "complete")
    assert result.objective == pytest.approx(float(np.trace(r).real), abs=1e-8)


def test_povm_update_matches_sdp_complete():
    pytest.importorskip("cvxpy")
    rng = np.random.default_rng(23)
    for _ in range(8):
        dim = int(rng.integers(2, 7))
        n_out = int(rng.integers(2, 7))
        reduced = _random_reduced(rng, dim, n_out)
        result = povm_update(reduced, "complete")
        reference = _sdp_reference(reduced, "complete")
        assert abs(result.objective - reference) <= 5e-6
        total = sum(result.operators)
        np.testing.assert_allclose(total, np.eye(dim), atol=1e-8)


def test_povm_update_matches_sdp_incomplete():
    pytest.importorskip("cvxpy")
    rng = np.random.default_rng(29)
    for _ in range(6):
        dim = int(rng.integers(2, 6))
        n_out = int(rng.integers(2, 6))
        reduced = _random_reduced(rng, dim, n_out)
        result = povm_update(reduced, "incomplete")
        reference = _sdp_reference(reduced, "incomplete")
        assert abs(result.objective - reference) <= 5e-6
        w = np.linalg.eigvalsh(hermitian_part(sum(result.operators)))
        assert w[-1] <= 1.0 + 1e-8


def test_povm_update_incomplete_dominates_complete(rng):
    reduced = _random_reduced(rng, 4, 3)
    complete = povm_update(reduced, "complete")
    incomplete = povm_update(reduced, "incomplete")
    assert incomplete.objective >= complete.objective - 1e-9


def test_povm_update_warm_start_never_worse(rng):
    reduced = _random_reduced(rng, 4, 4)
    first = povm_update(reduced, "complete")
    again = povm_update(reduced, "complete", warm_start=first.operators)
    assert again.objective >= first.objective - 1e-12


def test_povm_update_log_is_monotone(rng):
    reduced = _random_reduced(rng, 5, 5)
    result = povm_update(reduced, "complete")
    log = result.objective_log
    assert all(b >= a - 1e-12 for a, b in zip(log, log[1:]))
    assert result.dual_bound >= result.objective - 1e-9


def test_povm_update_dual_bound_tightness_small():
    rng = np.random.default_rng(31)
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        n_out = int(rng.integers(2, 5))
        reduced = _random_reduced(rng, dim, n_out)
        result = povm_update(reduced, "complete")
        assert result.dual_bound - result.objective <= 1e-5


def _fixed_point_one_outcome_at_a_time(reduced, warm_start, gain_tol):
    """The fixed point of povm_update written per outcome on public numpy
    alone, as the reference the stacked iteration must match bit for bit."""
    def herm(m):
        return 0.5 * (m + m.conj().T)

    def inv_sqrt(m):
        w, v = np.linalg.eigh(m)
        keep = w > max(float(w[-1]), 0.0) * 1e-14
        return (v * np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)) @ v.conj().T

    def psd_part(m):
        w, v = np.linalg.eigh(m)
        return herm((v * np.maximum(w, 0.0)) @ v.conj().T)

    mats = [herm(np.asarray(r, dtype=complex)) for r in reduced]
    n_out, dim = len(mats), mats[0].shape[0]
    identity = np.eye(dim, dtype=complex)
    c = max(0.0, -min(float(np.linalg.eigvalsh(m)[0]) for m in mats)) + 1e-9
    shifted = [m + c * identity for m in mats]

    def objective(ops):
        return float(sum(np.trace(e @ r).real for e, r in zip(ops, mats)))

    if warm_start is None:
        current = [identity / n_out] * n_out
    else:
        current = [herm(np.asarray(w, dtype=complex)) for w in warm_start]
    log = [objective(current)]
    iterations = 0
    for iterations in range(1, 2001):
        l_inv = inv_sqrt(herm(sum(r @ e @ r for r, e in zip(shifted, current))))
        candidate = [psd_part(herm(l_inv @ r @ e @ r @ l_inv)) for r, e in zip(shifted, current)]
        defect = identity - sum(candidate)
        candidate = [e + defect / n_out for e in candidate]
        obj = objective(candidate)
        if obj <= log[-1]:
            break
        current = candidate
        log.append(obj)
        if log[-1] - log[-2] < gain_tol:
            break
    return current, iterations, log


@pytest.mark.parametrize("dim, n_out, warm", [
    (1, 4, False), (1, 6, False), (2, 3, True), (4, 4, True), (3, 6, False),
])
def test_povm_update_stacked_iteration_matches_per_outcome_loop(dim, n_out, warm):
    # the see-saw's loose stop, and the default that runs to a stall
    for gain_tol, seed in itertools.product((1e-10, 0.0), range(3)):
        rng = np.random.default_rng(seed)
        reduced = _random_reduced(rng, dim, n_out)
        ws = _random_povm(rng, dim, n_out) if warm else None
        result = povm_update(reduced, "complete", warm_start=ws, gain_tol=gain_tol)
        ops, iterations, log = _fixed_point_one_outcome_at_a_time(reduced, ws, gain_tol)
        assert iterations > 1
        assert result.iterations == iterations
        assert result.objective_log == tuple(log)
        assert result.objective == log[-1]
        for got, want in zip(result.operators, ops):
            assert got.tobytes() == want.tobytes()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known defect: the >2-outcome fixed point can stop at "
                          "MAX_POVM_ITERS short of the optimum")
def test_povm_update_reaches_the_dual_bound_before_the_cap():
    # instance 198 of 200 random ones drawn from this stream; the fixed
    # point hits the cap with a dual gap of 1.27e-5
    rng = np.random.default_rng(2026)
    for _ in range(199):
        dim, n_out = int(rng.integers(2, 7)), int(rng.integers(3, 7))
        reduced = _random_reduced(rng, dim, n_out)
    result = povm_update(reduced, "complete")
    assert result.iterations < MAX_POVM_ITERS and result.converged
    assert result.dual_bound - result.objective <= 1e-5
