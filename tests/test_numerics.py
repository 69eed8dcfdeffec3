"""LP backend contracts, eigendecomposition, POVM sub-step solver.

The LP layer is checked against scipy's linprog dual simplex, a second
front end to HiGHS that takes >= rows negated into <= form and never
folds a mirrored pair, and its HiGHS session, given every column in one
block, bit for bit against scipy's _highs_wrapper on the same model; its
certificates must reject HiGHS answers spoiled on purpose.  CsrMatrix, the
package's sparse matrix, is checked bit for bit against scipy.sparse and
against the numpy formulas it ran before it ran scipy's compiled loops.

The POVM solver is checked against an independent semidefinite
formulation (cvxpy, when installed) on small instances, against its own
dual bound everywhere else, and its stacked fixed point against the same
iteration taken one outcome at a time; random_povms likewise against the
same construction taken one element at a time.
"""

import importlib.util
import itertools
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
from scipy.optimize._highspy._highs_wrapper import _highs_wrapper

from bellcalc import (
    Scenario,
    SolverError,
    ValidationError,
    behavior_from_local,
    behavior_from_quantum,
    is_local,
    max_violation,
    noise_robustness,
)
from bellcalc import classical, numerics, violation
from bellcalc.core import EPS_FEAS, hermitian_part
from bellcalc.numerics import (
    EQ,
    GE,
    LE,
    LP_GAP_REL,
    MAX_POVM_ITERS,
    CsrMatrix,
    LinearProgram,
    _eigh_unchecked,
    _lapack_errors,
    complete_povms,
    eigh,
    lp_solve,
    povm_update,
    psd_project,
    random_povms,
)
from bellcalc.polytope import assignment_table, vertex_matrix
from bellcalc.seesaw import _random_model

from conftest import random_feasible_lp, reference_membership_lp


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


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["upper bound", "lower bound"])
def test_priced_column_enters_toward_its_finite_bound(sign):
    # max x0 + s x1, x0 + s x1 <= 1.5, x0 in [0, 1] and s x1 in [0, 1]: from
    # the start set {x0}, x1 improves the answer toward a finite bound, so
    # pricing lets it in (its multiplier's sign alone is not wrong)
    lp = LinearProgram(
        c=np.array([1.0, sign]), a=np.array([[1.0, sign]]), rhs=np.array([1.5]), senses=[LE],
        lower=np.array([0.0, min(sign, 0.0)]), upper=np.array([1.0, max(sign, 0.0)]),
        maximize=True,
    )
    sol = lp_solve(lp, [0])
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.5, abs=1e-9)
    assert sol.x[1] == pytest.approx(0.5 * sign, abs=1e-9)


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


@pytest.mark.parametrize("a", [np.array([[np.nan]]), CsrMatrix.from_dense([[np.inf]])],
                         ids=["dense", "sparse"])
def test_lp_rejects_non_finite_entries(a):
    with pytest.raises(ValidationError, match="finite"):
        LinearProgram(c=np.array([1.0]), a=a, rhs=np.array([1.0]), senses=[LE],
                      lower=np.array([0.0]), upper=np.array([1.0]))


@pytest.mark.parametrize("side, value", [("lower", np.nan), ("upper", np.nan),
                                         ("lower", np.inf), ("upper", -np.inf)])
def test_lp_rejects_bounds_no_value_meets(side, value):
    # HiGHS would end these as "failed", a solver error, though the input is at fault
    lower, upper = np.array([0.0, 0.0]), np.array([1.0, np.inf])
    (lower if side == "lower" else upper)[1] = value
    with pytest.raises(ValidationError, match="variable bounds"):
        LinearProgram(c=np.ones(2), a=np.ones((1, 2)), rhs=np.array([1.0]), senses=[LE],
                      lower=lower, upper=upper)


def _scipy_csr(a: CsrMatrix):
    return sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def _same_arrays(a: CsrMatrix, ref) -> bool:
    """a holds exactly the arrays of the scipy CSR matrix ref, bit for bit."""
    return (a.shape == ref.shape and a.indptr.dtype == a.indices.dtype == np.int32
            and all(u.tobytes() == np.asarray(v, u.dtype).tobytes() for u, v in
                    zip((a.indptr, a.indices, a.data), (ref.indptr, ref.indices, ref.data))))


def _dense_vertex_matrix(scenario):
    na, nb, ma, mb = scenario.shape
    sa, sb = scenario.alice_strategy_count(), scenario.bob_strategy_count()
    av, bv = assignment_table(np.arange(sa), na, ma), assignment_table(np.arange(sb), nb, mb)
    i, j, x, y = np.indices((sa, sb, na, nb))
    d = np.zeros((sa, sb, na, nb, ma, mb))
    d[i, j, x, y, av[i, x], bv[j, y]] = 1.0
    return d.reshape(sa * sb, -1)


def _csr_pairs():
    """(CsrMatrix, the same matrix in scipy CSR): 50 random ones with
    empty rows and columns, two about 2**16 columns wide, then four vertex
    matrices."""
    rng = np.random.default_rng(60)
    pairs = []
    for _ in range(50):
        m, n = (int(k) for k in rng.integers(1, 30, size=2))
        dense = rng.standard_normal((m, n)) * (rng.random((m, n)) < rng.random())
        pairs.append((CsrMatrix.from_dense(dense), sp.csr_matrix(dense)))
    # the widest matrix whose reference gather (_numpy_columns) sorts 16-bit
    # keys, and one column wider, whose last column would share the first
    # one's 16-bit key
    for n in (1 << 16, (1 << 16) + 1):
        dense = rng.standard_normal((5, n)) * (rng.random((5, n)) < 1e-3)
        dense[:, [0, n - 1]] = 1.0
        pairs.append((CsrMatrix.from_dense(dense), sp.csr_matrix(dense)))
    for shape in [(2, 2, 2, 2), (3, 3, 2, 2), (2, 3, 3, 2), (3, 3, 4, 4)]:
        scenario = Scenario(*shape)
        pairs.append((vertex_matrix(scenario), sp.csr_matrix(_dense_vertex_matrix(scenario))))
    return pairs


def test_csr_matrix_products_give_scipys_bits():
    # lp_solve's certificates once came from scipy's CSC products, vertex
    # values from its CSR product: both orders of summation agree
    rng = np.random.default_rng(61)
    for a, ref in _csr_pairs():
        assert _same_arrays(a, ref)
        x, y = rng.standard_normal(a.shape[1]), rng.standard_normal(a.shape[0])
        for form in (ref, ref.tocsc()):
            assert (a @ x).tobytes() == (form @ x).tobytes()
            assert (y @ a).tobytes() == (form.T @ y).tobytes()


def test_csr_matrix_rows_transpose_and_stacks_match_scipy():
    rng = np.random.default_rng(62)
    for a, ref in _csr_pairs():
        mask = rng.random(a.shape[0]) < 0.5
        assert _same_arrays(a[mask], ref[mask])
        assert _same_arrays(a.T, ref.T.tocsr())
        assert _same_arrays(-a, -ref)
        assert _same_arrays(CsrMatrix.vstack([a, -a, a]), sp.vstack([ref, -ref, ref], format="csr"))
        assert _same_arrays(CsrMatrix.hstack([a, -a, a]), sp.hstack([ref, -ref, ref], format="csr"))
        # what the bench's tracer reads of a matrix that is not scipy's
        assert int((a != 0).sum()) == ref.nnz


def test_csr_matrix_column_gather_transpose_and_row_views_match_scipy():
    # a.columns(mask) holds the columns mask selects as rows, a.T is the
    # gather of every column, and a mask selecting one run of rows gives
    # views of a's entries, copying none (the fold's a[le] and a[ge])
    rng = np.random.default_rng(64)
    for a, ref in _csr_pairs():
        m, n = a.shape
        single = np.arange(n) == rng.integers(n)
        for mask in (np.zeros(n, bool), np.ones(n, bool), rng.random(n) < 0.3, single):
            assert _same_arrays(a.columns(mask), ref[:, mask].T.tocsr())
        assert _same_arrays(a.T, a.columns(np.ones(n, bool)))
        starts = np.flatnonzero(np.diff(a.indptr))  # rows holding an entry
        if not starts.size:
            continue
        i = int(rng.choice(starts))
        run = (np.arange(m) >= i) & (np.arange(m) <= rng.integers(i, m))
        view = a[run]
        assert _same_arrays(view, ref[run])
        assert np.shares_memory(view.data, a.data) and np.shares_memory(view.indices, a.indices)


# CsrMatrix's numpy formulas before it ran scipy's compiled loops: the
# reference its kernels must match bit for bit
def _counts_indptr(counts):
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)


def _numpy_matmul(a, x):  # np.bincount adds each row's terms in stored order from +0.0
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    return np.bincount(rows, a.data * x[a.indices], a.shape[0])


def _numpy_rmatmul(a, y):
    return np.bincount(a.indices, a.data * np.repeat(y, np.diff(a.indptr)), a.shape[1])


def _numpy_columns(a, mask):  # the chosen entries, stably sorted by column
    chosen = np.flatnonzero(mask[a.indices])
    keys = a.indices[chosen]
    rows = np.repeat(np.arange(a.shape[0], dtype=np.int32),
                     np.diff(np.searchsorted(chosen, a.indptr)))
    order = np.argsort(keys.astype(np.uint16) if a.shape[1] <= 1 << 16 else keys, kind="stable")
    return CsrMatrix(_counts_indptr(np.bincount(keys, minlength=a.shape[1])[mask]), rows[order],
                     a.data[chosen[order]], (int(np.count_nonzero(mask)), a.shape[0]))


def _numpy_hstack(blocks):  # each block's entries scattered to their rows' slots
    counts = [np.diff(b.indptr) for b in blocks]
    indptr = _counts_indptr(sum(counts))
    indices, data = np.empty(indptr[-1], np.int32), np.empty(indptr[-1])
    ends, start = indptr[:-1].copy(), 0
    for b, count in zip(blocks, counts):
        slots = np.repeat(ends - b.indptr[:-1], count) + np.arange(len(b.data))
        indices[slots], data[slots] = b.indices + start, b.data
        ends += count
        start += b.shape[1]
    return CsrMatrix(indptr, indices, data, (blocks[0].shape[0], start))


def _same_matrix(a: CsrMatrix, b: CsrMatrix) -> bool:
    return a.shape == b.shape and all(
        u.dtype == v.dtype and u.tobytes() == v.tobytes()
        for u, v in zip((a.indptr, a.indices, a.data), (b.indptr, b.indices, b.data)))


def test_csr_matrix_kernels_give_the_numpy_formulas_bits():
    # products from vectors of signed zeros, cancelling terms and NaN, given
    # as strided views and as integers; gathers by empty, full, random and
    # single-column masks; stacks with a block of no entries; on matrices
    # with empty rows and columns, no entries at all and no rows or columns
    rng = np.random.default_rng(68)
    matrices = [a for a, _ in _csr_pairs()] + [
        CsrMatrix.from_dense(np.zeros(shape)) for shape in ((3, 4), (0, 3), (3, 0), (0, 0))]
    values = np.array([1.5, -1.5, 0.0, -0.0, 0.25, 1e16, -1e16, 1.0, np.nan])
    for a in matrices:
        m, n = a.shape
        for k, product, reference in ((n, a.__matmul__, _numpy_matmul),
                                      (m, a.__rmatmul__, _numpy_rmatmul)):
            wide = rng.choice(values[:-1], 2 * k)
            if k and rng.random() < 0.3:
                wide[rng.integers(2 * k)] = np.nan
            for v in (wide[::2], wide[1::2], wide[:k], rng.integers(-3, 4, k)):
                assert product(v).tobytes() == reference(a, v).tobytes()
        for mask in (np.zeros(n, bool), np.ones(n, bool), rng.random(n) < 0.3,
                     np.arange(n) == rng.integers(max(n, 1))):
            assert _same_matrix(a.columns(mask), _numpy_columns(a, mask))
        assert _same_matrix(a.T, _numpy_columns(a, np.ones(n, bool)))
        empty = CsrMatrix.from_dense(np.zeros((m, 2)))
        for blocks in ([a], [a, -a, a], [empty, a, empty]):
            assert _same_matrix(CsrMatrix.hstack(blocks), _numpy_hstack(blocks))


def test_csr_matrix_kernels_refuse_inputs_of_another_size():
    # the compiled loops read their inputs without a bounds check
    a = CsrMatrix.from_dense(np.ones((2, 3)))
    for v in (np.ones(2), np.ones(4), np.ones((3, 1))):
        with pytest.raises(ValueError, match="cannot multiply"):
            a @ v
    with pytest.raises(ValueError, match="cannot multiply"):
        np.ones(3) @ a
    with pytest.raises(ValueError, match="one row count"):
        CsrMatrix.hstack([a, CsrMatrix.from_dense(np.ones((3, 1)))])
    for mask in (np.ones(2, bool), np.ones(4, bool)):
        with pytest.raises(IndexError):
            a.columns(mask)


def _few_vertex_behavior(rng, scenario):
    """A mixture of about a tenth of the vertices, with zero entries."""
    n = scenario.alice_strategy_count() * scenario.bob_strategy_count()
    weights = rng.random(n) * (rng.random(n) < 0.1)
    behavior = behavior_from_local(
        classical.local_model_from_weights(scenario, weights / weights.sum(), np.arange(n)),
        scenario)
    assert (behavior.probs == 0).any()
    return behavior


def _posed_lps(monkeypatch, behavior):
    """The nu and pi LPs the package poses for the behavior, then the
    full-vertex membership LP of the tests' reference."""
    posed = []

    def keep(lp, columns=None, rows=None):
        posed.append(lp)
        return lp_solve(lp, columns, rows)

    monkeypatch.setattr(violation, "lp_solve", keep)
    max_violation(behavior)
    noise_robustness(behavior)
    return posed + [reference_membership_lp(behavior)]


@pytest.mark.parametrize("kind", ["quantum", "local"])
def test_posed_lps_are_the_scipy_assembly(monkeypatch, kind):
    # the nu and pi LPs keep their shapes (mirrored rows, no two-sided
    # rows) and every bit of the matrices scipy once assembled;
    # the pi LP's first column is the behavior projected onto the
    # no-signaling subspace, as the nu LP's objective is
    scenario = Scenario(3, 3, 2, 2)
    rng = np.random.default_rng(63)
    if kind == "quantum":
        behavior = behavior_from_quantum(_random_model(rng, scenario, 2, "complete"))
    else:
        behavior = _few_vertex_behavior(rng, scenario)
    nu_lp, pi_lp, _ = _posed_lps(monkeypatch, behavior)
    assert [lp.a.shape for lp in (nu_lp, pi_lp)] == [(128, 36), (74, 129)]
    d = sp.csr_matrix(_dense_vertex_matrix(scenario))
    dt = d.T.tocsr()
    assert _same_arrays(nu_lp.a, sp.vstack([d, d], format="csr"))
    projected = violation._no_signaling_projection(behavior)
    assert np.array_equal(nu_lp.c, projected)
    assert np.abs(projected - behavior.probs.ravel()).max() <= 1e-15
    mix = sp.hstack([sp.csr_matrix(projected[:, None]), -dt, dt], format="csr")
    ones, zeros = np.ones((1, 64)), np.zeros((1, 64))
    masses = sp.csr_matrix(np.block([[0.0, ones, zeros], [1.0, zeros, ones]]))
    assert _same_arrays(pi_lp.a, sp.vstack([mix, mix, masses], format="csr"))
    # the mixture rows hold exactly: 0 <= . <= 0, then the two unit masses
    assert np.array_equal(pi_lp.rhs, np.concatenate([np.zeros(72), [1.0, 1.0]]))
    assert np.array_equal(pi_lp.senses, np.repeat([LE, GE, EQ], [36, 36, 2]))


def _linprog_reference(lp):
    """(x, posed row duals, objective) from linprog's dual simplex, each
    >= row negated into <= form after the <= rows, the == rows apart."""
    le, ge, eq = (lp.senses == sense for sense in (LE, GE, EQ))
    a = _scipy_csr(lp.a)
    a_ub = sp.vstack([a[le], -a[ge]], format="csr") if (le | ge).any() else None
    b_ub = np.concatenate([lp.rhs[le], -lp.rhs[ge]]) if (le | ge).any() else None
    res = linprog(-lp.c if lp.maximize else lp.c, A_ub=a_ub, b_ub=b_ub,
                  A_eq=a[eq] if eq.any() else None, b_eq=lp.rhs[eq] if eq.any() else None,
                  bounds=np.column_stack([lp.lower, lp.upper]), method="highs-ds",
                  options={"presolve": True, "primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    y = np.zeros(len(lp.senses))
    n_le = int(le.sum())
    if a_ub is not None:
        y[le], y[ge] = res.ineqlin.marginals[:n_le], -res.ineqlin.marginals[n_le:]
    if eq.any():
        y[eq] = res.eqlin.marginals
    return res.x, -y if lp.maximize else y, float(lp.c @ res.x)


def _mirrored_lp(rng, maximize, nudge=0.0):
    """A random block posed as <= and again as >= (the >= copy's first
    coefficient moved by ``nudge``), then a few == rows; bounded."""
    n = int(rng.integers(2, 7))
    k = int(rng.integers(n, 2 * n + 4))
    n_eq = int(rng.integers(0, 3))
    block = rng.standard_normal((k, n))
    eqs = rng.standard_normal((n_eq, n))
    x0 = rng.standard_normal(n)
    twin = block.copy()
    twin[0, 0] += nudge
    a = np.vstack([block, twin, eqs])
    rhs = np.concatenate([block @ x0 + rng.random(k), twin @ x0 - rng.random(k), eqs @ x0])
    free = rng.random(n) < 0.5
    return LinearProgram(
        c=rng.standard_normal(n), a=CsrMatrix.from_dense(a) if rng.random() < 0.5 else a,
        rhs=rhs, senses=np.repeat([LE, GE, EQ], [k, k, n_eq]),
        lower=np.where(free, -np.inf, x0 - 1.0 - rng.random(n)),
        upper=np.where(free, np.inf, x0 + 1.0 + rng.random(n)), maximize=maximize,
    )


@pytest.fixture
def rows_to_highs(monkeypatch):
    """The row count of every LP that lp_solve hands HiGHS."""
    init, seen = numerics.RestrictedMaster.__init__, []

    def spy(master, lo, hi):
        seen.append(len(lo))
        init(master, lo, hi)

    monkeypatch.setattr(numerics.RestrictedMaster, "__init__", spy)
    return seen


@pytest.mark.parametrize("maximize", [True, False], ids=["max", "min"])
def test_mirrored_rows_are_folded_and_match_linprog(maximize, rows_to_highs):
    rng = np.random.default_rng(31 if maximize else 32)
    for _ in range(40):
        lp = _mirrored_lp(rng, maximize)
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        _, _, ref = _linprog_reference(lp)
        assert abs(sol.objective - ref) <= 1e-9 * (1.0 + abs(ref))
        k = int((lp.senses == LE).sum())
        assert rows_to_highs[-1] == len(lp.senses) - k
        # on each folded pair at most one dual is nonzero, with the posed sign
        y_le, y_ge = sol.row_duals[:k], sol.row_duals[k:2 * k]
        assert not np.any((y_le != 0) & (y_ge != 0))
        sign = 1.0 if maximize else -1.0
        assert np.all(sign * y_le >= 0) and np.all(sign * y_ge <= 0)


def test_near_mirror_is_not_folded(rows_to_highs):
    rng = np.random.default_rng(33)
    for i in range(20):
        lp = _mirrored_lp(rng, maximize=bool(i % 2), nudge=1e-3)
        sol = lp_solve(lp)
        assert rows_to_highs[-1] == len(lp.senses)
        assert sol.status == "optimal"
        _, _, ref = _linprog_reference(lp)
        assert abs(sol.objective - ref) <= 1e-9 * (1.0 + abs(ref))


@pytest.mark.parametrize("maximize", [True, False], ids=["max", "min"])
def test_mirrored_pair_with_crossed_bounds_is_infeasible(maximize, rows_to_highs):
    # x + 2y <= 1 and x + 2y >= 2: folded into one row with lo > hi
    lp = LinearProgram(
        c=np.ones(2), a=np.array([[1.0, 2.0], [1.0, 2.0]]), rhs=np.array([1.0, 2.0]),
        senses=[LE, GE], lower=np.zeros(2), upper=np.full(2, np.inf), maximize=maximize,
    )
    assert lp_solve(lp).status == "infeasible"
    assert rows_to_highs == [1]


def test_one_sided_rows_give_linprogs_bytes():
    # the reference membership LP poses <= rows followed by one == row:
    # nothing folds, and HiGHS gets exactly what linprog gave it
    rng = np.random.default_rng(44)
    behavior = behavior_from_quantum(_random_model(rng, Scenario(4, 4, 2, 2), 2, "complete"))
    lp = reference_membership_lp(behavior)
    sol = lp_solve(lp)
    x, y, objective = _linprog_reference(lp)
    assert sol.status == "optimal" and sol.objective > 0
    assert np.array_equal(sol.x, x)
    assert np.array_equal(sol.row_duals, y)
    assert sol.objective == objective


def test_infeasible_working_set_gets_every_other_column(monkeypatch):
    # a working set's infeasibility proves nothing: column 0 alone cannot
    # meet the == row, so the next round adds every column left out, and
    # the answer is the full LP's, with the iterations of both rounds
    solve, rounds = numerics.RestrictedMaster.solve, []

    def spy(master, c, *args):
        sol = solve(master, c, *args)
        rounds.append((len(c), sol.status, sol.iterations))
        return sol

    monkeypatch.setattr(numerics.RestrictedMaster, "solve", spy)
    lp = LinearProgram(c=np.array([1.0, 0.0, 2.0]), a=np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0]]),
                       rhs=np.array([3.0, 1.0]), senses=[LE, EQ], lower=np.zeros(3),
                       upper=np.full(3, 5.0))
    priced = lp_solve(lp, [0])
    assert [(n, status) for n, status, _ in rounds] == [(1, "infeasible"), (2, "optimal")]
    assert priced.iterations == sum(iterations for _, _, iterations in rounds)
    full = lp_solve(lp)
    assert priced.status == full.status == "optimal"
    assert np.array_equal(priced.x, full.x) and priced.objective == full.objective == 4.0


def test_row_start_set_without_an_optimum_gets_every_row(monkeypatch):
    # a working set of rows relaxes the LP, so its unboundedness proves
    # nothing: from row 0 alone the nu LP's next round holds every folded
    # row, and the answer is the LP's without a start set.  So it is on
    # acceptance 10's LPs, whose bounded columns keep every round optimal,
    # and on mirrored LPs, whose free columns leave many first rounds
    # unbounded.  A start set of rows and of columns at once is refused
    solve_rows, rounds = numerics.RestrictedMaster.solve_rows, []

    def spy(master, *args):
        sol = solve_rows(master, *args)
        rounds.append((len(master.lo), sol.status))
        return sol

    rng = np.random.default_rng(17)
    behavior = behavior_from_quantum(_random_model(rng, Scenario(3, 3, 2, 2), 2, "complete"))
    nu_lp = _posed_lps(monkeypatch, behavior)[0]
    with pytest.raises(ValidationError, match="columns or of rows, not both"):
        lp_solve(nu_lp, [0], [0])
    monkeypatch.setattr(numerics.RestrictedMaster, "solve_rows", spy)
    accept_rng = np.random.default_rng(10)  # acceptance 10's draws
    mirrored = [_mirrored_lp(rng, bool(i % 2)) for i in range(20)]
    fell_back = []
    for lp in [nu_lp] + [random_feasible_lp(accept_rng) for _ in range(100)] + mirrored:
        rounds.clear()
        sifted, full = lp_solve(lp, rows=[0]), lp_solve(lp)
        assert sifted.status == full.status == "optimal"
        assert abs(sifted.objective - full.objective) <= 1e-9 * (1.0 + abs(full.objective))
        if rounds[0][1] != "optimal":  # each mirrored pair is one folded row
            assert rounds[:2] == [(1, "unbounded"), (int((lp.senses != GE).sum()), "optimal")]
            fell_back.append(lp)
    assert fell_back[0] is nu_lp and len(fell_back) >= 6


def test_a_master_holding_every_column_is_not_priced(monkeypatch):
    # with every posed column in, pricing could add none: skip its product
    def refuse(*args):
        raise AssertionError("priced a master that holds every column")

    monkeypatch.setattr(numerics, "best_columns", refuse)
    rng = np.random.default_rng(3)
    for _ in range(5):
        lp = random_feasible_lp(rng)
        assert lp_solve(lp).status == "optimal"
        assert lp_solve(lp, np.arange(len(lp.c))[::-1]).status == "optimal"


def test_behavior_lps_transpose_nothing_and_multiply_once_per_priced_answer(monkeypatch):
    # nu, pi and membership transpose no matrix but the vertex matrix, once,
    # for its cached transpose: the transpose kernel otherwise sees only the
    # column blocks pi's rounds gather, each narrower than pi's rows.  The nu
    # LP multiplies its folded rows by x (a @ x) and the pi LP by y (y @ a)
    # once per priced answer; their certificates reuse the last of those and
    # take the full product from the other side
    tools = numerics._scipy_extension(numerics._SPARSETOOLS)
    transposed, full, priced = [], [], []
    tocsc, matmul, rmatmul = tools.csr_tocsc, CsrMatrix.__matmul__, CsrMatrix.__rmatmul__
    best = numerics.best_columns

    def transpose(n_row, n_col, indptr, *args):
        transposed.append((n_row, n_col, indptr))
        return tocsc(n_row, n_col, indptr, *args)

    def spy(product):
        def counted(a, v):
            full.append(a.shape)
            return product(a, v)
        return counted

    def counted_pricing(*args):
        priced.append(args)
        return best(*args)

    monkeypatch.setattr(tools, "csr_tocsc", transpose)
    monkeypatch.setattr(CsrMatrix, "__matmul__", spy(matmul))
    monkeypatch.setattr(CsrMatrix, "__rmatmul__", spy(rmatmul))
    monkeypatch.setattr(numerics, "best_columns", counted_pricing)
    rng = np.random.default_rng(66)
    rounds = []
    for scenario in (Scenario(3, 3, 2, 2), Scenario(2, 2, 3, 3), Scenario(3, 3, 3, 3)):
        vertices = vertex_matrix(scenario)
        vars(vertices).pop("T", None)  # transposed again, under the spy
        n_vertices, n_entries = vertices.shape
        pi_rows = (n_entries + 2, 1 + 2 * n_vertices)
        behavior = behavior_from_quantum(_random_model(rng, scenario, 2, "complete"))
        for run, shape in ((max_violation, (n_vertices, n_entries)), (noise_robustness, pi_rows)):
            full.clear()
            priced.clear()
            run(behavior)
            assert full.count(shape) == len(priced) + 1 >= 2
            rounds.append(len(priced))
        is_local(behavior)
        assert [t[:2] for t in transposed if t[2] is vertices.indptr] == [vertices.shape]
        blocks = [t[:2] for t in transposed if t[2] is not vertices.indptr]
        assert blocks and all(m == pi_rows[0] and n < pi_rows[1] for m, n in blocks)
        transposed.clear()
    assert max(rounds) >= 2


def test_working_set_products_give_the_full_products_bits(monkeypatch):
    # the certificate takes the full products a @ x and y @ a, whose bytes
    # are those of the sums over x's columns and y's rows that are not zero
    # alone: the terms left out are exact zeros of either sign, with
    # cancelling terms and a NaN too.  A NaN in x or in y still fails the LP
    rng = np.random.default_rng(67)
    for a, _ in _csr_pairs():
        x, y = (rng.choice([1.5, -1.5, 0.0, -0.0, 0.25], k) for k in (a.shape[1], a.shape[0]))
        for v in (x, y):
            if (v != 0).any() and rng.random() < 0.5:
                v[rng.choice(np.flatnonzero(v != 0))] = np.nan
        assert (x[x != 0] @ a.columns(x != 0)).tobytes() == (a @ x).tobytes()
        assert (y[y != 0] @ a[y != 0]).tobytes() == (y @ a).tobytes()
    # lp_solve's certificate products, on LPs without mirrored rows (a is
    # lp.a) solved with every column, from start sets of columns and of rows
    certified, checked = numerics._certified, []

    def spy(res, c, products, *args):
        if res["status"].name == "kOptimal":
            activity, reduced = products(res["x"], res["lambda"])
            assert activity.tobytes() == (lp.a @ res["x"]).tobytes()
            assert reduced.tobytes() == (res["lambda"] @ lp.a).tobytes()
            checked.append((res["x"] < 0).any())
        return certified(res, c, products, *args)

    monkeypatch.setattr(numerics, "_certified", spy)
    accept_rng = np.random.default_rng(10)  # acceptance 10's draws
    for _ in range(40):
        lp = random_feasible_lp(accept_rng)
        lp_solve(lp), lp_solve(lp, [0]), lp_solve(lp, rows=[0])
    assert len(checked) == 120 and sum(checked) >= 20
    monkeypatch.undo()
    behavior = behavior_from_quantum(_random_model(rng, Scenario(3, 3, 2, 2), 2, "complete"))
    nu_lp, pi_lp, _ = _posed_lps(monkeypatch, behavior)
    run = numerics._run

    for key in ("x", "lambda"):
        def spoiled(highs, strategy, key=key):
            res = run(highs, strategy)
            res[key][np.argmax(np.abs(res[key]))] = np.nan
            return res

        monkeypatch.setattr(numerics, "_run", spoiled)
        assert lp_solve(nu_lp, rows=[0, 1]).status == "failed"
        assert lp_solve(pi_lp, [0, 1, 2]).status == "failed"


@pytest.mark.parametrize("highs_status, status", [
    ("kInfeasible", "infeasible"), ("kModelError", "failed"), ("kUnbounded", "unbounded"),
    ("kUnboundedOrInfeasible", "failed"), ("kIterationLimit", "failed"), ("kTimeLimit", "failed"),
])
def test_highs_status_map(monkeypatch, highs_status, status):
    monkeypatch.setattr(numerics, "_run", lambda highs, strategy: {
        "x": None, "status": SimpleNamespace(name=highs_status), "simplex_nit": 17})
    sol = lp_solve(random_feasible_lp(np.random.default_rng(0)))
    assert (sol.status, sol.iterations, sol.x, sol.row_duals) == (status, 17, None, None)


def test_nan_solution_is_failed(monkeypatch):
    monkeypatch.setattr(numerics, "_run", lambda highs, strategy: {
        "x": np.array([np.nan]), "lambda": np.zeros(1),
        "status": SimpleNamespace(name="kOptimal"), "simplex_nit": 1})
    lp = LinearProgram(
        c=np.array([1.0]), a=np.array([[1.0]]), rhs=np.array([3.0]),
        senses=[LE], lower=np.array([0.0]), upper=np.array([np.inf]),
    )
    assert lp_solve(lp).status == "failed"


def _session_model(highs):
    """(costs, column-wise matrix, row bounds, column bounds) of the model a
    HiGHS session holds."""
    model = highs.getLp()
    a = model.a_matrix_
    # a session grown by rows holds them row-wise, one grown by columns column-wise
    form = {_core.MatrixFormat.kColwise: sp.csc_matrix, _core.MatrixFormat.kRowwise: sp.csr_matrix}
    cols = sp.csc_matrix(form[a.format_]((np.array(a.value_), np.array(a.index_),
                                          np.array(a.start_)),
                                         shape=(model.num_row_, model.num_col_)))
    return (np.array(model.col_cost_), cols, np.array(model.row_lower_),
            np.array(model.row_upper_), np.array(model.col_lower_), np.array(model.col_upper_))


def _perturb_highs(monkeypatch, defect):
    """Point _run at HiGHS with its optimal answer spoiled by one defect."""
    run = numerics._run

    def perturbed(highs, strategy):
        res = run(highs, strategy)
        _, cols, _, _, _, upper = _session_model(highs)
        x, lam = res["x"].copy(), res["lambda"].copy()
        i = int(np.argmax(np.abs(lam)))  # an active row: at hi when its dual is negative
        if defect == "row dual":
            lam[i] = -lam[i]
        elif defect == "column":
            j = int(np.flatnonzero(np.isfinite(upper))[0])
            x[j] = upper[j] + 1e-6
        else:  # one column moves row i's activity 1e-6 out of its range
            row = cols.toarray()[i]
            j = int(np.argmax(np.abs(row)))
            x[j] += (1e-6 if lam[i] < 0 else -1e-6) / row[j]
        return {**res, "x": x, "lambda": lam}

    monkeypatch.setattr(numerics, "_run", perturbed)


@pytest.mark.parametrize("defect", ["row dual", "column", "row"])
@pytest.mark.parametrize("folded", [True, False], ids=["folded", "unfolded"])
@pytest.mark.parametrize("maximize", [True, False], ids=["max", "min"])
def test_answer_its_certificates_disprove_is_failed(monkeypatch, rows_to_highs, defect, folded,
                                                   maximize):
    rng = np.random.default_rng(50)
    lps = [_mirrored_lp(rng, maximize, nudge=0.0 if folded else 1e-3) for _ in range(12)]
    lps = [lp for lp in lps if np.isfinite(lp.upper).any()]
    solved = [lp_solve(lp) for lp in lps]
    assert len(lps) >= 8
    assert all(sol.status == "optimal" and np.abs(sol.row_duals).max() > 1e-3 for sol in solved)
    _perturb_highs(monkeypatch, defect)
    for lp, sol in zip(lps, solved):
        perturbed = lp_solve(lp)
        assert rows_to_highs[-1] == len(lp.senses) - folded * int((lp.senses == LE).sum())
        assert perturbed.status == "failed", (defect, perturbed)
        if defect != "row dual":
            assert perturbed.primal_residual >= 0.99e-6
        assert not (np.array_equal(perturbed.x, sol.x)
                    and np.array_equal(perturbed.row_duals, sol.row_duals))


def test_highs_solve_gives_the_bits_of_scipys_wrapper(monkeypatch, chsh_optimal_behavior):
    # a session is handed the options of scipy's _highs_wrapper (which takes
    # presolve as a bool) and the simplex strategy the session chose, so
    # every pi LP solved without a start set and reference membership LP
    # comes back with the same x, row duals and iterations as the wrapper on
    # the model the session holds, and so does each nu LP's first row round.
    # A later nu round starts from the last basis, which the wrapper cannot
    # take: it ends in the wrapper's status with its objective within the gap
    # budget.  noise_robustness prices its pi LP over several rounds of one
    # session instead
    highs = _core._Highs()
    assert all(highs.setOptionValue(key, value) == _core.HighsStatus.kOk
               for key, value in numerics._HIGHS_OPTIONS.items())
    run, lp_solve_priced = numerics._run, violation.lp_solve
    sessions, priced = {}, []

    def spy(highs, strategy):
        model = _session_model(highs)
        res = run(highs, strategy)
        sessions.setdefault(highs, []).append((strategy, model, res))
        return res

    def pose(lp, columns=None, rows=None):
        priced.append((lp, columns))
        return lp_solve_priced(lp, columns, rows)

    def wrapper(strategy, c, cols, lo, hi, lower, upper):
        options = {**numerics._HIGHS_OPTIONS, "presolve": False, **strategy}
        return _highs_wrapper(c, cols.indptr, cols.indices, cols.data, lo, hi, lower, upper,
                              np.empty(0, np.uint8), options)

    rng = np.random.default_rng(7)
    random_behavior = behavior_from_quantum(_random_model(rng, Scenario(3, 3, 2, 2), 2, "complete"))
    local_behavior = _few_vertex_behavior(rng, Scenario(3, 3, 2, 2))
    # a qubit behavior whose nu LP takes a second row round
    rounds_behavior = behavior_from_quantum(_random_model(np.random.default_rng(0),
                                                          Scenario(4, 4, 2, 2), 2, "complete"))
    monkeypatch.setattr(numerics, "_run", spy)
    monkeypatch.setattr(violation, "lp_solve", pose)
    for behavior in (chsh_optimal_behavior, random_behavior, local_behavior, rounds_behavior):
        max_violation(behavior)
        pi = noise_robustness(behavior)
        pi_lp, columns = priced[-1]
        assert columns is not None and len(columns) < pi_lp.a.shape[1]
        assert abs(pi - min(max(lp_solve(pi_lp).objective, 0.0), 1.0)) <= 1e-12
        lp_solve(reference_membership_lp(behavior))
    # per behavior: the nu LP, the priced pi LP, the pi LP and membership's
    rounds = list(sessions.values())
    assert len(rounds) == 16
    one_round = [r for i, r in enumerate(rounds) if i % 4 > 1]
    assert all(len(r) == 1 for r in one_round)
    # pi and membership by dual simplex
    primal, dual = numerics._PRIMAL_SIMPLEX, numerics._DUAL_SIMPLEX
    assert [r[0][0] for r in one_round] == [dual, dual] * 4
    # a nu LP: primal simplex from the feasible origin, then dual simplex
    # from the last optimal basis each later round; a priced pi LP: dual
    # simplex first, then primal simplex
    nu_sessions = [[strategy for strategy, _, _ in r] for r in rounds[::4]]
    pi_sessions = [[strategy for strategy, _, _ in r] for r in rounds[1::4]]
    assert max(len(strategies) for strategies in nu_sessions) >= 2
    assert max(len(strategies) for strategies in pi_sessions) >= 2
    assert all(strategies == [primal] + [dual] * (len(strategies) - 1)
               for strategies in nu_sessions)
    assert all(strategies == [dual] + [primal] * (len(strategies) - 1)
               for strategies in pi_sessions)
    first_rounds = [r[:1] for r in rounds[::4]] + one_round
    for [(strategy, model, res)] in first_rounds:
        ref = wrapper(strategy, *model)
        assert res["status"] == ref["status"] == _core.HighsModelStatus.kOptimal
        assert res["simplex_nit"] == ref["simplex_nit"]
        assert np.array_equal(res["x"], ref["x"]) and np.array_equal(res["lambda"], ref["lambda"])
        c = model[0]
        assert c @ res["x"] == c @ ref["x"]  # lp_solve's objective
    for strategy, model, res in (round_ for r in rounds[::4] for round_ in r[1:]):
        ref, c = wrapper(strategy, *model), model[0]
        assert res["status"] == ref["status"] == _core.HighsModelStatus.kOptimal
        assert abs(c @ res["x"] - c @ ref["x"]) <= LP_GAP_REL * (1.0 + abs(c @ ref["x"]))


def _origin_feasible(lp):
    """x = 0 satisfies every posed row and bound."""
    rows = np.where(lp.senses == LE, lp.rhs >= 0.0,
                    np.where(lp.senses == GE, lp.rhs <= 0.0, lp.rhs == 0.0))
    return bool(rows.all() and np.all(lp.lower <= 0.0) and np.all(lp.upper >= 0.0))


def test_primal_simplex_exactly_from_a_feasible_origin_and_both_simplices_agree(monkeypatch):
    # lp_solve picks primal simplex when x = 0 is feasible and dual
    # otherwise.  Forced either way, the nu, pi and membership LPs and every
    # LP with a feasible origin end optimal with their certificates, and the
    # two objectives agree within the gap budget.  From an infeasible origin
    # HiGHS's primal simplex can end without a verdict (kUnknown, on 3 of
    # acceptance 10's LPs), which is why the rule keeps those on dual.
    rng = np.random.default_rng(16)
    lps = []
    for scenario in (Scenario(3, 3, 2, 2), Scenario(2, 2, 3, 3)):
        quantum = behavior_from_quantum(_random_model(rng, scenario, 2, "complete"))
        lps += _posed_lps(monkeypatch, quantum)  # nu, pi, membership
    monkeypatch.undo()
    accept_rng = np.random.default_rng(10)  # acceptance 10's draws
    lps += [random_feasible_lp(accept_rng) for _ in range(500)]
    run, chosen, forced = numerics._run, [], {}

    def forcing(highs, strategy):
        chosen.append(strategy)
        return run(highs, forced.get("strategy", strategy))

    monkeypatch.setattr(numerics, "_run", forcing)
    primal_simplex, dual_simplex = numerics._PRIMAL_SIMPLEX, numerics._DUAL_SIMPLEX
    expected = []
    for i, lp in enumerate(lps):
        forced.clear()
        lp_solve(lp)
        expected.append(primal_simplex if _origin_feasible(lp) else dual_simplex)
        solutions = []
        for strategy in (primal_simplex, dual_simplex):
            forced["strategy"] = strategy
            solutions.append(lp_solve(lp))
        primal, dual = solutions
        assert dual.status == "optimal", (i, dual)
        if primal.status != "optimal":
            assert i >= 6 and expected[-1] == dual_simplex and primal.x is None, (i, primal)
            continue
        assert abs(primal.objective - dual.objective) <= LP_GAP_REL * (1.0 + abs(dual.objective))
    assert chosen[::3] == expected
    assert expected[:6] == [primal_simplex, dual_simplex, dual_simplex] * 2
    assert 50 <= expected.count(primal_simplex) <= len(lps) - 50


def test_membership_master_runs_dual_simplex_first_then_primal(monkeypatch):
    # sum w = 1 excludes the origin, so the master's first solve, from no
    # basis, runs dual simplex (primal simplex from an infeasible origin can
    # end without a verdict, see the test above); each later round runs
    # primal simplex from the previous optimal basis, on the same session
    run = numerics._run
    sessions = {}

    def spy(highs, strategy):
        sessions.setdefault(highs, []).append(strategy)
        return run(highs, strategy)

    monkeypatch.setattr(numerics, "_run", spy)
    rng = np.random.default_rng(19)
    behaviors = [behavior_from_quantum(_random_model(rng, Scenario(*shape), 2, "complete"))
                 for shape in [(3, 3, 4, 4), (6, 6, 2, 2), (2, 2, 2, 2)] for _ in range(2)]
    for behavior in behaviors:
        is_local(behavior)
    sessions = list(sessions.values())
    assert len(sessions) == 6
    assert max(len(strategies) for strategies in sessions) >= 3
    for strategies in sessions:
        assert strategies[0] is numerics._DUAL_SIMPLEX
        assert all(strategy is numerics._PRIMAL_SIMPLEX for strategy in strategies[1:])


class _ScrambledSession:
    """A HiGHS session whose ``addCols`` calls, from the ``scrambled``-th on,
    get their first two column starts swapped: HiGHS rejects the block."""

    def __init__(self, highs, statuses, scrambled):
        self.highs, self.statuses, self.scrambled = highs, statuses, scrambled

    def __getattr__(self, name):
        return getattr(self.highs, name)

    def addCols(self, n, c, lower, upper, nnz, starts, indices, data):
        if len(self.statuses) + 1 >= self.scrambled:
            starts = starts.copy()
            starts[[0, 1]] = starts[[1, 0]]
        num_col = self.highs.getNumCol()
        status = self.highs.addCols(n, c, lower, upper, nnz, starts, indices, data)
        self.statuses.append((status, self.highs.getNumCol() - num_col))
        return status


def _scramble_session(monkeypatch, scrambled):
    """Scramble each session's addCols calls from the ``scrambled``-th on; the
    lists of every call's (status, columns added) and every _run's strategy."""
    session, statuses, runs = numerics._session, [], []
    monkeypatch.setattr(numerics, "_session",
                        lambda: _ScrambledSession(session(), statuses, scrambled))
    run = numerics._run
    monkeypatch.setattr(numerics, "_run", lambda highs, strategy: runs.append(strategy)
                        or run(highs, strategy))
    return statuses, runs


def test_model_highs_rejects_is_never_optimal(monkeypatch):
    # column starts that decrease: HiGHS rejects the block, adds none of
    # it, and the session answers kModelError without running HiGHS
    statuses, runs = _scramble_session(monkeypatch, 1)
    lp = LinearProgram(
        c=np.ones(2), a=np.array([[1.0, 2.0], [3.0, 1.0]]), rhs=np.array([4.0, 6.0]),
        senses=[LE, LE], lower=np.zeros(2), upper=np.full(2, np.inf),
    )
    sol = lp_solve(lp)
    assert statuses == [(_core.HighsStatus.kError, 0)] and runs == []
    assert sol.status == "failed" and sol.x is None


def test_priced_round_highs_rejects_ends_the_lp_failed(monkeypatch):
    # the pi LP of this qubit behavior is priced over three rounds; HiGHS
    # rejects the second round's block, so that round never runs and the
    # LP ends "failed": a solver error, not a crash on a short solution
    behavior = behavior_from_quantum(_random_model(np.random.default_rng(8), Scenario(2, 2, 2, 2),
                                                   2, "complete"))
    statuses, runs = _scramble_session(monkeypatch, 2)
    with pytest.raises(SolverError, match="status 'failed'"):
        noise_robustness(behavior)
    assert statuses == [(_core.HighsStatus.kOk, 17), (_core.HighsStatus.kError, 0)]
    assert runs == [numerics._DUAL_SIMPLEX]


# Runs code in a fresh interpreter that imports bellcalc from this checkout.
def run_fresh(code):
    src = str(Path(numerics.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_scipy_optimize_reuses_the_highs_module_the_session_loaded():
    out = run_fresh(
        "import sys\n"
        "from bellcalc import numerics\n"
        "numerics._session()\n"
        "core = sys.modules['scipy.optimize._highspy._core']\n"
        "print('scipy.optimize' in sys.modules)\n"
        "from scipy.optimize import linprog\n"
        "res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-3.0], method='highs-ds')\n"
        "print(res.status, res.fun, res.x.tolist() == [3.0, 0.0])\n"
        "print(sys.modules['scipy.optimize._highspy._core'] is core,\n"
        "      numerics._scipy_extension(numerics._HIGHS_CORE) is core)\n")
    assert out == ["False", "0", "3.0", "True", "True", "True"]


def test_session_reuses_the_highs_module_scipy_optimize_loaded():
    out = run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "import scipy.optimize\n"
        "core = sys.modules['scipy.optimize._highspy._core']\n"
        "import importlib.machinery\n"
        "from bellcalc import numerics\n"
        "def no_search(*args):\n"
        "    raise AssertionError('searched for a loaded module')\n"
        "importlib.machinery.PathFinder.find_spec = no_search\n"
        "lp = numerics.LinearProgram(c=np.array([1.0, 2.0]), a=np.array([[1.0, 1.0]]),\n"
        "    rhs=np.array([3.0]), senses=['>='], lower=np.zeros(2), upper=np.full(2, np.inf),\n"
        "    maximize=False)\n"
        "sol = numerics.lp_solve(lp)\n"
        "print(sol.status, sol.objective, numerics._scipy_extension(numerics._HIGHS_CORE) is core)\n")
    assert out == ["optimal", "3.0", "True"]


def test_csr_products_reuse_the_sparsetools_module_scipy_sparse_loaded():
    # the traced bench imports scipy.sparse before any product: CsrMatrix
    # runs on that package's compiled loops, loaded once, without a search
    out = run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "import scipy.sparse\n"
        "tools = sys.modules['scipy.sparse._sparsetools']\n"
        "import importlib.machinery\n"
        "from bellcalc import numerics\n"
        "def no_search(*args):\n"
        "    raise AssertionError('searched for a loaded module')\n"
        "importlib.machinery.PathFinder.find_spec = no_search\n"
        "a = numerics.CsrMatrix.from_dense([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])\n"
        "print(a @ np.ones(3), np.ones(2) @ a, a.T.shape, a.columns(np.array([1, 0, 1], bool)).shape)\n"
        "print(numerics._scipy_extension(numerics._SPARSETOOLS) is tools)\n")
    assert out == ["[3.", "3.]", "[1.", "3.", "2.]", "(3,", "2)", "(2,", "2)", "True"]


def test_csr_products_load_sparsetools_without_scipy_sparse():
    # loaded at the first product, not at import, and registered under its
    # name, so a later import of scipy.sparse reuses it
    out = run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from bellcalc import numerics\n"
        "a = numerics.CsrMatrix.from_dense([[1.0, 2.0]])\n"
        "print('scipy.sparse._sparsetools' in sys.modules)\n"
        "a @ np.ones(2)\n"
        "tools = sys.modules['scipy.sparse._sparsetools']\n"
        "print('scipy.sparse' in sys.modules)\n"
        "import scipy.sparse\n"
        "print(sys.modules['scipy.sparse._sparsetools'] is tools)\n")
    assert out == ["False", "False", "True"]


def _without_scipy_extension(monkeypatch, tmp_path, name):
    """Unload the extension ``name`` and point the search for it at an empty directory."""
    numerics._scipy_extension(name)
    monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name: SimpleNamespace(submodule_search_locations=[str(tmp_path)]))


def test_missing_highs_extension_names_the_scipy_floor(monkeypatch, tmp_path):
    _without_scipy_extension(monkeypatch, tmp_path, numerics._HIGHS_CORE)
    with pytest.raises(ImportError, match=r"scipy >= 1\.15"):
        numerics._session()


def test_missing_sparsetools_extension_names_the_scipy_floor(monkeypatch, tmp_path):
    _without_scipy_extension(monkeypatch, tmp_path, numerics._SPARSETOOLS)
    with pytest.raises(ImportError, match=r"scipy >= 1\.15"):
        CsrMatrix.from_dense([[1.0]]) @ np.ones(1)


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
    with pytest.raises(np.linalg.LinAlgError):
        _lapack_errors(_eigh_unchecked)(h)
    with pytest.raises(np.linalg.LinAlgError):
        povm_update([h, np.eye(3)])  # two outcomes: the closed form's eigendecomposition


def test_povm_update_restores_the_floating_point_error_state():
    # povm_update and random_povms run under one shared errstate; each call
    # must put back exactly the state it found, and leave no LinAlgError hook behind
    def hook(err, flag):
        pass
    rng = np.random.default_rng(13)
    reduced = _random_reduced(rng, 3, 3)
    with np.errstate(all="warn", call=hook):
        before = (np.geterr(), np.geterrcall())
        povm_update(reduced, "incomplete", warm_start=random_povms(rng, 1, 3, 3)[0] * 0.5)
        random_povms(rng, 1, 4, 3)
        assert (np.geterr(), np.geterrcall()) == before
    with pytest.warns(RuntimeWarning):
        np.sqrt(-np.ones(1))


def test_povm_update_incomplete_mode_is_one_call(monkeypatch):
    # the dummy outcome is appended in place: povm_update must not call itself
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return povm_update(*args, **kwargs)
    monkeypatch.setattr(numerics, "povm_update", counted)
    rng = np.random.default_rng(14)
    numerics.povm_update(_random_reduced(rng, 3, 3), "incomplete",
                         warm_start=random_povms(rng, 1, 3, 3)[0] * 0.5)
    assert len(calls) == 1


def test_eigh_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        eigh(m)


@pytest.mark.parametrize("scale, unit", [(1e-3, 1.0), (1.0, 1.0), (1e6, 1e6)],
                         ids=["small entries", "unit entries", "large entries"])
def test_eigh_and_povm_update_hold_one_hermitian_rule(scale, unit):
    # the largest |M - M^dagger| entry over max(1, the largest |M| entry), held to EPS_FEAS
    h = scale * np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    inside, outside = h.copy(), h.copy()
    inside[0, 1] += 0.9 * EPS_FEAS * unit
    outside[0, 1] += 1.1 * EPS_FEAS * unit
    eigh(inside)
    povm_update([inside, -inside, inside])
    with pytest.raises(ValidationError, match="not Hermitian"):
        eigh(outside)
    with pytest.raises(ValidationError, match="reduced operator 0 is not Hermitian"):
        povm_update([outside, -outside, outside])


@pytest.mark.parametrize("n_out", [2, 3])
@pytest.mark.parametrize("mode", ["complete", "incomplete"])
def test_povm_update_hermitizes_its_warm_start_once(mode, n_out):
    # a warm start within the Hermitian slack gives the bits of its Hermitian part;
    # the incomplete dummy, I - sum E, once added up three defects and failed eigh
    rng = np.random.default_rng(23)
    reduced = _random_reduced(rng, 2, n_out)
    ws = np.array(random_povms(rng, 1, n_out, 2)[0]) * 0.9
    ws[:, 0, 1] += 0.9 * EPS_FEAS
    got = povm_update(reduced, mode, warm_start=ws)
    want = povm_update(reduced, mode, warm_start=hermitian_part(ws))
    assert got.operators.tobytes() == want.operators.tobytes()
    assert (got.objective, got.iterations) == (want.objective, want.iterations)


def test_complete_povms_spreads_what_the_inverse_square_root_drops():
    # two copies of |0><0|: conjugated to |0><0| / 2 each, then |1><1| / 2 added to each
    blocks = np.array([[np.diag([1.0, 0.0])] * 2], dtype=complex)
    np.testing.assert_allclose(complete_povms(blocks)[0], [np.eye(2) / 2] * 2, atol=1e-15)


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
    # the fixed point stalls at its first step on exactly I, with tr R as
    # its objective, bit for bit
    rng = np.random.default_rng(20)
    for d in (1, 2, 3, 4, 6):
        r = hermitian_part(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        result = povm_update([r], "complete")
        assert np.array_equal(result.operators, np.eye(d)[None])
        assert result.objective == float(np.trace(r).real)
        assert (result.iterations, result.objective_log, result.converged) == (
            1, (result.objective,), True)


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


@pytest.mark.parametrize("mode", ["complete", "incomplete"])
@pytest.mark.parametrize("n_out", [1, 2, 3])
def test_povm_dual_matrix_is_a_feasible_dual_point(mode, n_out):
    # Y >= R_a for every outcome, and Y >= 0 (the dummy outcome's R = 0)
    # when incomplete, so tr(Y) bounds every POVM's objective from above
    rng = np.random.default_rng(40 + n_out)
    for _ in range(30):
        dim = int(rng.integers(1, 6))
        reduced = np.array(_random_reduced(rng, dim, n_out))
        result = povm_update(reduced, mode)
        y = result.dual_matrix
        if mode == "incomplete":
            reduced = np.concatenate([reduced, np.zeros((1, dim, dim))])
        scale = max(1.0, float(np.max(np.linalg.norm(reduced, ord=2, axis=(-2, -1)))))
        assert np.array_equal(y, y.conj().T)
        assert np.linalg.eigvalsh(y - reduced)[:, 0].min() >= -1e-12 * scale
        assert float(np.trace(y).real) == result.dual_bound
        assert result.dual_bound >= result.objective - 1e-12


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
        ws = random_povms(rng, 1, n_out, dim)[0] if warm else None
        result = povm_update(reduced, "complete", warm_start=ws, gain_tol=gain_tol)
        ops, iterations, log = _fixed_point_one_outcome_at_a_time(reduced, ws, gain_tol)
        assert iterations > 1
        assert result.iterations == iterations
        assert result.objective_log == tuple(log)
        assert result.objective == log[-1]
        for got, want in zip(result.operators, ops):
            assert got.tobytes() == want.tobytes()


def _random_povm_one_element_at_a_time(rng, dim, n_out):
    """One input's random POVM, drawn and built element by element on
    public numpy alone, as the reference random_povms must match bit for bit."""
    def herm(m):
        return 0.5 * (m + m.conj().T)

    blocks = []
    for _ in range(n_out):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        w, v = np.linalg.eigh(herm(herm(g)))
        blocks.append(herm((v * np.maximum(w, 0.0)) @ v.conj().T))
    w, v = np.linalg.eigh(herm(sum(blocks)))
    keep = w > max(float(w[-1]), 0.0) * 1e-14
    inv_sqrt = (v * np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)) @ v.conj().T
    els = [herm(inv_sqrt @ b @ inv_sqrt) for b in blocks]
    defect = np.eye(dim) - sum(els)
    return [herm(e + defect / n_out) for e in els]


@pytest.mark.parametrize("dim", range(1, 6))
def test_random_povms_match_the_per_element_loop(dim):
    # 9 outcomes: numpy's own sum over them would go pairwise, the builtin does not
    for n_out, n_in, seed in itertools.product((1, 2, 3, 4, 5, 9), (1, 3), range(2)):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_povms(got_rng, n_in, n_out, dim)
        want = [_random_povm_one_element_at_a_time(want_rng, dim, n_out) for _ in range(n_in)]
        assert got.shape == (n_in, n_out, dim, dim) and got.dtype == np.complex128
        assert got.tobytes() == np.array(want).tobytes()
        assert got_rng.random() == want_rng.random()  # the same draws consumed


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
