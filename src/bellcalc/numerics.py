"""Optimization and linear-algebra backends used by the analysis layers.

lp_solve wraps the HiGHS dual simplex behind a fixed contract: status in
{optimal, infeasible, unbounded, failed}, primal and dual vectors in the
orientation of the posed problem, and self-computed feasibility
residuals plus duality gap.  A solve whose own certificates miss the
contract is downgraded to "failed" rather than reported optimal.

povm_update solves  max sum_a tr(E_a R_a)  over POVMs {E_a}: the
two-outcome case in closed form, more outcomes through one monotone
fixed-point iteration on the (n_out, d, d) stack of all outcomes at
once, and the subnormalized variant by appending a dummy outcome with a
zero reduced operator.  Every result carries a dual certificate computed
once, on the final iterate.

eigh and psd_project broadcast over leading axes, so a whole stack of
matrices takes one LAPACK call; every (d, d) slice gets the same result
as it would on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .core import COMPLETE, INCOMPLETE, hermitian_part
from .errors import ValidationError

# Contract tolerances quoted by LpSolution consumers.
LP_PRIMAL_TOL = 1e-8
LP_DUAL_TOL = 1e-8
LP_GAP_REL = 1e-7

_HIGHS_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

LE, EQ, GE = "<=", "==", ">="

# Cap on povm_update's fixed-point iterations (more than two outcomes).
MAX_POVM_ITERS = 2000


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """max (or min) c.x subject to senses-typed rows and variable bounds.

    ``a`` may be a dense ndarray or a scipy sparse matrix; ``senses``
    holds one of "<=", "==", ">=" per row.  Bounds use +-inf for free
    directions.
    """

    c: np.ndarray
    a: object
    rhs: np.ndarray
    senses: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray
    maximize: bool = True

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        rhs = np.asarray(self.rhs, dtype=np.float64)
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        senses = tuple(self.senses)
        a = self.a if sp.issparse(self.a) else np.asarray(self.a, dtype=np.float64)
        m, n = a.shape
        if c.shape != (n,) or rhs.shape != (m,) or len(senses) != m:
            raise ValidationError("linear program dimensions are inconsistent")
        if lower.shape != (n,) or upper.shape != (n,):
            raise ValidationError("variable bound vectors must have one entry per column")
        if any(s not in (LE, EQ, GE) for s in senses):
            raise ValidationError(f"row senses must be one of {LE!r}, {EQ!r}, {GE!r}")
        entries = a.data if sp.issparse(a) else a
        if not (np.all(np.isfinite(entries)) and np.all(np.isfinite(c)) and np.all(np.isfinite(rhs))):
            raise ValidationError("linear program entries must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Solver outcome plus the certificates backing it.

    ``row_duals`` are sensitivities of the optimal objective to the row
    right-hand sides, in the orientation of the posed problem.  The
    residuals and ``duality_gap`` are recomputed here from scratch, not
    taken from the solver.
    """

    status: Literal["optimal", "infeasible", "unbounded", "failed"]
    x: np.ndarray | None
    row_duals: np.ndarray | None
    objective: float | None
    primal_residual: float
    dual_residual: float
    duality_gap: float


def _primal_residual(lp: LinearProgram, x: np.ndarray, le, ge, eq) -> float:
    """Worst violation of a row or bound; le, ge, eq mask the rows by sense."""
    gap = np.asarray(lp.a @ x).ravel() - lp.rhs
    violations = np.concatenate([gap[le], -gap[ge], np.abs(gap[eq]), lp.lower - x, x - lp.upper])
    return max(0.0, float(np.max(violations, initial=0.0)))  # +0.0, never -0.0


def _dual_certificates(lp: LinearProgram, y: np.ndarray, objective: float, le, ge):
    """Dual feasibility residual and duality gap for the posed problem;
    le and ge mask the <= and >= rows.

    Orientation: for a maximization, duals on <= rows are >= 0, on >=
    rows <= 0; a reduced cost c_j - (A^T y)_j that is positive must be
    absorbed by a finite upper bound, a negative one by a finite lower
    bound.  Minimization flips all of it.
    """
    sign = 1.0 if lp.maximize else -1.0
    z = lp.c - np.asarray(lp.a.T @ y).ravel()
    ys = sign * y
    zs = sign * z
    bad_hi = (zs > 0) & ~np.isfinite(lp.upper)
    bad_lo = (zs < 0) & ~np.isfinite(lp.lower)
    violations = np.concatenate([-ys[le], ys[ge], zs[bad_hi], -zs[bad_lo]])
    worst = max(0.0, float(np.max(violations, initial=0.0)))
    bound_term = np.where(zs > 0, np.where(np.isfinite(lp.upper), lp.upper, 0.0),
                          np.where(np.isfinite(lp.lower), lp.lower, 0.0))
    dual_obj = float(y @ lp.rhs + z @ bound_term)
    gap = abs(objective - dual_obj)
    return worst, gap


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve a LinearProgram deterministically with dual certificates."""
    senses = np.asarray(lp.senses)
    le, ge, eq = senses == LE, senses == GE, senses == EQ
    dense = not sp.issparse(lp.a)
    a = lp.a if dense else lp.a.tocsr()
    # >= rows are negated into <= form and follow the <= rows
    a_ub = b_ub = a_eq = b_eq = None
    if le.any() or ge.any():
        blocks = [a[le], -a[ge]]
        a_ub = np.vstack(blocks) if dense else sp.vstack(blocks, format="csr")
        b_ub = np.concatenate([lp.rhs[le], -lp.rhs[ge]])
    if eq.any():
        a_eq, b_eq = a[eq], lp.rhs[eq]

    c_min = -lp.c if lp.maximize else lp.c
    res = linprog(c_min, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=np.column_stack([lp.lower, lp.upper]), method="highs-ds",
                  options=dict(_HIGHS_OPTIONS))

    if res.status == 2:
        return LpSolution("infeasible", None, None, None, np.inf, np.inf, np.inf)
    if res.status == 3:
        return LpSolution("unbounded", None, None, None, np.inf, np.inf, np.inf)
    if res.status != 0 or res.x is None:
        return LpSolution("failed", None, None, None, np.inf, np.inf, np.inf)

    x = np.asarray(res.x, dtype=float)
    objective = float(lp.c @ x)
    # Reassemble row duals in posed orientation.  scipy's marginals are
    # d(min objective)/d(rhs of the scipy-form row); a >= row was negated
    # into <= form, and a posed maximization negates the objective.
    y = np.zeros(len(lp.senses))
    if a_ub is not None:
        n_le = int(le.sum())
        y[le] = res.ineqlin.marginals[:n_le]
        y[ge] = -res.ineqlin.marginals[n_le:]
    if a_eq is not None:
        y[eq] = res.eqlin.marginals
    if lp.maximize:
        y = -y

    primal_resid = _primal_residual(lp, x, le, ge, eq)
    dual_resid, gap = _dual_certificates(lp, y, objective, le, ge)
    status = "optimal"
    if (primal_resid > LP_PRIMAL_TOL or dual_resid > LP_DUAL_TOL
            or gap > LP_GAP_REL * (1.0 + abs(objective))):
        status = "failed"
    return LpSolution(status, x, y, objective, primal_resid, dual_resid, gap)


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues ascending, eigenvectors as columns of ``vectors``."""

    values: np.ndarray
    vectors: np.ndarray


def _squared_frobenius(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every (d, d) slice."""
    return (m * m.conj()).real.sum(axis=(-2, -1))


def eigh(matrix: np.ndarray) -> EigenDecomposition:
    """Hermitian eigendecomposition with the reconstruction contract,
    broadcast over leading axes.

    Rejects inputs where any (d, d) slice has a Hermitian defect above
    1e-9 relative to that slice's Frobenius norm, symmetrizes the rest,
    and guarantees ||H - V diag(w) V^dagger||_F <= 1e-10 ||H||_F with
    orthonormal V for every slice.
    """
    h = np.asarray(matrix)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise ValidationError(f"eigh expects square matrices, got shape {h.shape}")
    defect = _squared_frobenius(h - np.conj(np.swapaxes(h, -1, -2)))
    bad = defect > 1e-18 * np.maximum(_squared_frobenius(h), 1.0)
    if bad.any():
        worst = float(np.sqrt(defect[bad].max()))
        raise ValidationError(f"matrix is not Hermitian: defect {worst:.3g}")
    w, v = np.linalg.eigh(hermitian_part(h))
    return EigenDecomposition(w, v)


def psd_project(matrix: np.ndarray) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius norm, broadcast
    over leading axes.

    Symmetrize, clip negative eigenvalues at zero, reconstruct.
    Idempotent up to floating point.
    """
    dec = eigh(matrix)
    w = np.maximum(dec.values, 0.0)
    v = dec.vectors
    return hermitian_part((v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2))


@dataclass(frozen=True, eq=False)
class PovmUpdateResult:
    """Optimized POVM plus the certificates of how good it is.

    ``dual_matrix`` is the multiplier estimate Y ~ sum_a R_a E_a;
    ``dual_bound`` is tr of a feasibility-shifted Y, a true upper bound
    on the achievable objective.  ``objective_log`` is the monotone
    sequence of accepted objective values.
    """

    operators: tuple[np.ndarray, ...]
    objective: float
    converged: bool
    iterations: int
    dual_matrix: np.ndarray
    dual_bound: float
    objective_log: tuple[float, ...]


def _check_reduced_ops(reduced: Sequence[np.ndarray]) -> np.ndarray:
    """Validate the reduced operators and stack them Hermitized as (n_out, d, d)."""
    if len(reduced) == 0:
        raise ValidationError("povm_update needs at least one reduced operator")
    try:
        mats = np.asarray(reduced, dtype=np.complex128)
    except ValueError:
        raise ValidationError("reduced operators must all have one square shape (d, d)") from None
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValidationError(f"reduced operators must stack to (n_out, d, d), got shape {mats.shape}")
    defect = np.max(np.abs(mats - np.conj(np.swapaxes(mats, -1, -2))), axis=(-2, -1))
    bad = np.flatnonzero(defect > 1e-9 * np.maximum(np.max(np.abs(mats), axis=(-2, -1)), 1.0))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"reduced operator {i} is not Hermitian: defect {defect[i]:.3g}")
    return hermitian_part(mats)


def _povm_objective(operators, reduced) -> float:
    traces = np.trace(np.asarray(operators) @ reduced, axis1=-2, axis2=-1)
    return float(sum(traces.real))


def _dual_certificate(operators, reduced):
    """Feasible dual point for  min tr(Y) s.t. Y >= R_a  from a primal POVM.

    Starts from Y0 = herm(sum R_a E_a), which is exactly feasible at an
    optimum, and repairs any violation two ways, keeping the cheaper:
    a uniform shift by the worst positive eigenvalue, or adding the sum
    of the positive parts of every R_a - Y0 (each summand dominates its
    own violation, and the sum dominates each summand).
    """
    d = reduced.shape[-1]
    y0 = hermitian_part(sum(reduced @ np.asarray(operators)))
    w, v = np.linalg.eigh(hermitian_part(reduced - y0))
    deficit = max(0.0, float(np.max(w[:, -1])))
    if deficit <= 0.0:
        return y0, float(np.trace(y0).real)
    # positive parts have per-outcome rank, so they are summed one by one
    pos_trace = 0.0
    pos_sum = np.zeros_like(y0)
    for wa, va in zip(w, v):
        keep = wa > 0.0
        if keep.any():
            pos_trace += float(wa[keep].sum())
            pos_sum += (va[:, keep] * wa[keep]) @ va[:, keep].conj().T
    if pos_trace <= deficit * d:
        y = hermitian_part(y0 + pos_sum)
    else:
        y = y0 + deficit * np.eye(d)
    return y, float(np.trace(y).real)


def _two_outcome_exact(reduced):
    """Closed form for two outcomes: E_1 projects onto the strictly
    positive eigenspace of R_1 - R_2, ties going to E_2."""
    r1, r2 = reduced
    d = r1.shape[0]
    dec = eigh(r1 - r2)
    keep = dec.values > 0.0
    vecs = dec.vectors[:, keep]
    e1 = vecs @ vecs.conj().T
    e2 = np.eye(d) - e1
    objective = float(np.trace(r2).real + dec.values[keep].sum())
    # exact dual: Y = R_2 + positive part of (R_1 - R_2)
    pos = hermitian_part((dec.vectors * np.maximum(dec.values, 0.0)) @ dec.vectors.conj().T)
    y = hermitian_part(r2 + pos)
    return (hermitian_part(e1), hermitian_part(e2)), objective, y


def _inv_sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Pseudo inverse square root; tiny eigenvalues are dropped."""
    dec = eigh(mat)
    w = dec.values
    cutoff = max(float(w[-1]), 0.0) * 1e-14
    keep = w > cutoff
    inv = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    return (dec.vectors * inv) @ dec.vectors.conj().T


def povm_update(
    reduced: Sequence[np.ndarray],
    mode: str = COMPLETE,
    warm_start: Sequence[np.ndarray] | None = None,
    gain_tol: float = 0.0,
) -> PovmUpdateResult:
    """Maximize sum_a tr(E_a R_a) over POVMs.

    Parameters
    ----------
    reduced : Hermitian reduced operators R_a, one per outcome.
    mode : "complete" (sum E_a = I) or "incomplete" (sum E_a <= I); the
        incomplete case appends a dummy outcome with R = 0 and solves the
        complete problem one outcome larger.
    warm_start : optional POVM to improve upon; the result never scores below it.
    gain_tol : with more than two outcomes, the fixed-point iteration
        stops on a stall, on a step that gains less than this, or after
        MAX_POVM_ITERS steps.  The default 0 runs to a stall; callers that
        re-solve in an outer loop and only need monotone progress pass a
        small positive value.

    The dual certificate (``dual_matrix``, ``dual_bound``) is computed
    once, on the returned POVM.  Returns a PovmUpdateResult; ``converged``
    is False only when the iteration cap fired first.
    """
    mats = _check_reduced_ops(reduced)
    if mode == INCOMPLETE:
        d = mats.shape[-1]
        extended = np.concatenate([mats, np.zeros((1, d, d), dtype=np.complex128)])
        ws = None
        if warm_start is not None:
            tail = np.eye(d) - sum(np.asarray(warm_start, dtype=np.complex128))
            ws = list(warm_start) + [psd_project(tail)]
        inner = povm_update(extended, COMPLETE, ws, gain_tol)
        ops = inner.operators[:-1]
        objective = _povm_objective(ops, mats)
        return PovmUpdateResult(ops, objective, inner.converged, inner.iterations,
                                inner.dual_matrix, inner.dual_bound, inner.objective_log)
    if mode != COMPLETE:
        raise ValidationError(f"mode must be {COMPLETE!r} or {INCOMPLETE!r}")

    n_out, d = mats.shape[0], mats.shape[-1]
    identity = np.eye(d, dtype=np.complex128)

    if n_out == 1:
        ops = (identity.copy(),)
        obj = float(np.trace(mats[0]).real)
        y, bound = _dual_certificate(ops, mats)
        return PovmUpdateResult(ops, obj, True, 0, y, bound, (obj,))

    if n_out == 2:
        ops, obj, y = _two_outcome_exact(mats)
        if warm_start is not None:
            warm_obj = _povm_objective(warm_start, mats)
            if warm_obj > obj:  # possible only through rounding; keep the better POVM
                ops = tuple(hermitian_part(np.asarray(w, dtype=np.complex128)) for w in warm_start)
                obj = warm_obj
        return PovmUpdateResult(ops, obj, True, 0, y, float(np.trace(y).real), (obj,))

    # Shift to strictly positive operators; the objective moves by the
    # constant c*d which is subtracted back out of every report.
    min_eig = float(np.min(np.linalg.eigvalsh(mats)[:, 0]))
    c = max(0.0, -min_eig) + 1e-9
    shifted = mats + c * identity

    if warm_start is not None:
        current = hermitian_part(np.asarray(warm_start, dtype=np.complex128))
    else:
        current = np.repeat((identity / n_out)[None], n_out, axis=0)
    best_obj = _povm_objective(current, mats)
    log = [best_obj]
    iterations = 0
    converged = True
    # Matmul chains stay left to right and outcome sums use the builtin
    # sum (numpy's sum(0) goes pairwise at d = 1), so every iterate equals,
    # bit for bit, taking the outcomes one at a time.
    for iterations in range(1, MAX_POVM_ITERS + 1):
        lam = hermitian_part(sum(shifted @ current @ shifted))
        l_inv = _inv_sqrt_psd(lam)
        # the sandwich is Hermitian in exact arithmetic; flatten roundoff
        candidate = psd_project(hermitian_part(l_inv @ shifted @ current @ shifted @ l_inv))
        # redistribute whatever the pseudo-inverse cut off
        candidate = candidate + (identity - sum(candidate)) / n_out
        obj = _povm_objective(candidate, mats)
        if obj <= best_obj:
            break  # stalled; keep the monotone incumbent
        gain = obj - best_obj
        current = candidate
        best_obj = obj
        log.append(best_obj)
        if gain < gain_tol:
            break
    else:
        converged = False
    y, bound = _dual_certificate(current, mats)
    return PovmUpdateResult(tuple(current), best_obj, converged, iterations, y, bound, tuple(log))
