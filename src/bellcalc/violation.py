"""Behavior-centric quantities built on the local polytope.

The central number is nu(Q): the best value any Bell functional attains
on Q after normalizing the functional so its largest absolute value on
deterministic local behaviors is 1.  For local Q this is exactly 1; the
excess over 1 measures how far outside the local polytope Q sits.  The
companion quantity pi(Q) is the largest visibility v at which v*Q plus
some (1-v)-weighted mixture of deterministic behaviors is still local;
the two are linked by nu = 2/pi - 1, which this module checks rather
than assumes.  Both LPs pose Q projected onto the no-signaling subspace
and hold their constraints exactly there, so the identity's residual is
LP roundoff.

Also here: completion of sub-normalized behaviors and models by an
explicit extra outcome, the lower bound on classical one-way
communication needed to reproduce Q, and heuristic dimension reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .classical import (BOUNDARY_BAND, checked_complete, classical_value,
                        classical_value_incomplete, seed_vertices)
from .core import (
    Behavior,
    BellFunctional,
    COMPLETE,
    EPS_FEAS,
    INCOMPLETE,
    QuantumModel,
    Scenario,
    behavior_from_quantum,
    hermitian_part,
    no_signaling_check,
    pair,
    require_valid,
)
from .errors import (
    SignalingBehaviorError,
    SolverError,
    UndefinedQuantityError,
    ValidationError,
)
from .numerics import EQ, GE, LE, CsrMatrix, LinearProgram, lp_solve
from .polytope import collins_gisin_vertices, vertex_matrix
from .seesaw import SeesawConfig, pad_quantum_model, seesaw

# A dimension counts as contradicted only when the observed value beats
# the best found value by more than this.
WITNESS_MARGIN = 1e-9

HEURISTIC_LABEL = "HEURISTIC"


@dataclass(frozen=True, eq=False)
class ViolationReport:
    """nu and pi for one behavior, with the witness functional that
    attains nu (normalized to classical value 1) and derived bounds, in report key order."""

    nu: float
    pi: float
    identity_residual: float
    comm_bound_bits: float
    boundary: bool
    witness: BellFunctional


@dataclass(frozen=True)
class DimensionEntry:
    dim: int
    best_value: float
    exceeded: bool


@dataclass(frozen=True, eq=False)
class DimensionWitnessReport:
    """Per-dimension best values against an observed value.

    ``exceeded`` rows are evidence, not proof: the search lower-bounds
    the best quantum value at each dimension, so a missed optimum can
    flag a dimension that actually suffices.  ``label`` says so and is
    part of the output contract, and the field order is the report's key order.
    """

    observed: float
    label: str
    entries: tuple[DimensionEntry, ...]
    warning: str | None


def _checked_no_signaling(behavior: Behavior, what: str) -> None:
    ns = checked_complete(behavior, what)
    if not ns.ok:
        raise SignalingBehaviorError(f"{what} is undefined for signaling behaviors "
                                     f"(residual {ns.max_residual:.3e} at {ns.location})")


def _no_signaling_projection(behavior: Behavior) -> np.ndarray:
    """The flattened probabilities moved orthogonally onto the affine
    no-signaling subspace: every (x, y) block sums to 1, and each party's
    marginals agree across the other party's inputs.

    _checked_no_signaling lets a residual up to NS_TOL through, and in full
    coordinates the nu LP is unbounded along the functionals that vanish
    on that subspace; on the projection it is bounded.  Each block splits
    orthogonally into its mean, Alice's and Bob's centred marginals spread
    evenly over the other party's outputs, and a part with zero row and
    column sums.  The constraints bind the first three apart, so the
    projection sets each block's total to 1 and replaces each centred
    marginal by its mean over the other party's inputs: the least-squares
    solution of the normalization and marginal-equality rows, in closed form.
    """
    p = behavior.probs
    ma, mb = p.shape[2:]
    total = p.sum(axis=(2, 3), keepdims=True)
    alice = p.sum(axis=3, keepdims=True) - total / ma   # (x, y, a, 1)
    bob = p.sum(axis=2, keepdims=True) - total / mb     # (x, y, 1, b)
    return (p + (1.0 - total) / (ma * mb)
            + (alice.mean(axis=1, keepdims=True) - alice) / mb
            + (bob.mean(axis=0, keepdims=True) - bob) / ma).ravel()


def max_violation(behavior: Behavior) -> tuple[float, BellFunctional]:
    """Largest value of <T, Q> over functionals bounded by 1 on every
    deterministic behavior, with the optimizing functional.

    The optimum and the returned witness satisfy
    |pair(witness, Q)| / classical_value(witness) = nu up to solver
    tolerance; nu >= 1 for every complete no-signaling Q because the
    constant functional already achieves 1.  Values within 1e-9 of 1
    are snapped to exactly 1 (see ViolationReport.boundary).
    """
    _checked_no_signaling(behavior, "max_violation")
    scenario = behavior.scenario
    d = vertex_matrix(scenario)
    n_vertices = d.shape[0]
    a = CsrMatrix.vstack([d, d])
    rhs = np.concatenate([np.ones(n_vertices), -np.ones(n_vertices)])
    senses = np.repeat([LE, GE], n_vertices)
    n_entries = scenario.n_entries
    lp = LinearProgram(
        c=_no_signaling_projection(behavior),
        a=a,
        rhs=rhs,
        senses=senses,
        lower=np.full(n_entries, -np.inf),
        upper=np.full(n_entries, np.inf),
        maximize=True,
    )
    # HiGHS starts from the rows of a spanning set of vertices, on which the
    # projected objective is bounded, and of the best responses to Q
    sol = lp_solve(lp, rows=np.concatenate([collins_gisin_vertices(scenario),
                                            seed_vertices(behavior.probs)]))
    if sol.status != "optimal":
        raise SolverError(f"violation LP ended with status {sol.status!r}")
    nu = float(sol.objective)
    coeffs = sol.x.reshape(scenario.shape)
    witness = BellFunctional(scenario, coeffs)
    scale = classical_value(witness)
    if scale > 0.0:
        witness = BellFunctional(scenario, coeffs / scale)
    if pair(witness, behavior) < 0.0:
        witness = BellFunctional(scenario, -witness.coeffs)
    if abs(nu - 1.0) <= BOUNDARY_BAND:
        nu = 1.0
    return nu, witness


def noise_robustness(behavior: Behavior) -> float:
    """Largest v in [0, 1] such that v*Q plus a (1-v)-mass mixture of
    deterministic behaviors equals a convex combination of them.

    Linear in (v, mixture weights), so one LP; the feasible v form an
    interval [0, pi] and the optimum is pi(Q).
    """
    _checked_no_signaling(behavior, "noise_robustness")
    scenario = behavior.scenario
    dt = vertex_matrix(scenario).T        # (E, V)
    n_vertices = dt.shape[1]
    n_entries = scenario.n_entries
    q_col = CsrMatrix.from_dense(_no_signaling_projection(behavior)[:, None])
    # columns: [v | lambda (local part) | mu (noise part)]
    mix = CsrMatrix.hstack([q_col, -dt, dt])
    ones, zeros = np.ones((1, n_vertices)), np.zeros((1, n_vertices))
    masses = np.block([[0.0, ones, zeros], [1.0, zeros, ones]])  # sum lambda = 1, v + sum mu = 1
    # the zero rows as a mirrored <= / >= pair, which lp_solve folds into
    # lo = hi = 0: EQ rows would change the posed shape the bench pins
    a = CsrMatrix.vstack([mix, mix, CsrMatrix.from_dense(masses)])
    rhs = np.concatenate([np.zeros(2 * n_entries), [1.0, 1.0]])
    senses = np.repeat([LE, GE, EQ], [n_entries, n_entries, 2])
    n_cols = 1 + 2 * n_vertices
    c = np.zeros(n_cols)
    c[0] = 1.0
    upper = np.full(n_cols, np.inf)
    upper[0] = 1.0  # implied by v + sum mu = 1, but keeps local pi at exactly 1.0
    lp = LinearProgram(
        c=c, a=a, rhs=rhs, senses=senses,
        lower=np.zeros(n_cols), upper=upper, maximize=True,
    )
    seeds = seed_vertices(behavior.probs)  # start from v and the seeds' lambda = mu, v = 0
    sol = lp_solve(lp, np.concatenate([[0], 1 + seeds, 1 + n_vertices + seeds]))
    if sol.status != "optimal":
        raise SolverError(f"noise robustness LP ended with status {sol.status!r}")
    return float(min(max(sol.objective, 0.0), 1.0))


def comm_bits(nu: float) -> float:
    """Bits of classical communication that a violation nu demands:
    log2(nu), clipped at zero."""
    return max(0.0, math.log2(nu))


def violation_report(behavior: Behavior) -> ViolationReport:
    """nu, pi, their identity residual and the communication bound in
    one pass (each LP solved once)."""
    nu, witness = max_violation(behavior)
    pi = noise_robustness(behavior)
    return ViolationReport(
        nu=nu,
        pi=pi,
        identity_residual=abs(nu - (2.0 / pi - 1.0)),
        comm_bound_bits=comm_bits(nu),
        boundary=nu == 1.0,
        witness=witness,
    )


def complete_behavior(behavior: Behavior) -> Behavior:
    """Extend a sub-normalized behavior by one extra outcome per party.

    Each (x, y) block of mass R <= 1 keeps its entries; the new cross
    entries get the block's one-party marginals scaled by (1-s)/s with
    s = sqrt(R), and the new corner gets (1-s)^2, which restores total
    mass 1.  For behaviors coming from a uniformly sub-normalized model
    this reproduces the behavior of the completed model exactly.  The
    result must be no-signaling; if the block masses or marginals are
    inconsistent with that, the offending inputs are named.
    """
    require_valid(behavior, "complete_behavior requires a valid behavior")
    scenario = behavior.scenario
    probs = behavior.probs
    mass = probs.sum(axis=(2, 3))  # validate() bounded each block by 1 + EPS_FEAS
    na, nb, ma, mb = scenario.shape
    # blocks complete up to feasibility dust get exactly-zero dummies
    mass = np.where(np.abs(1.0 - mass) <= EPS_FEAS, 1.0, mass)
    s = np.sqrt(np.clip(mass, 0.0, 1.0))
    factor = np.divide(1.0 - s, s, out=np.zeros_like(s), where=s > 0.0)
    out = np.zeros((na, nb, ma + 1, mb + 1))
    out[:, :, :ma, :mb] = probs
    out[:, :, :ma, mb] = probs.sum(axis=3) * factor[:, :, None]
    out[:, :, ma, :mb] = probs.sum(axis=2) * factor[:, :, None]
    out[:, :, ma, mb] = np.where(s > 0.0, (1.0 - s) ** 2, 1.0)
    completed = Behavior(Scenario(na, nb, ma + 1, mb + 1), out, COMPLETE)
    ns = no_signaling_check(completed)
    if not ns.ok:
        raise ValidationError(
            "marginal deficits are inconsistent with a no-signaling completion "
            f"(residual {ns.max_residual:.3e} at {ns.location})"
        )
    return completed


def complete_quantum_model(model: QuantumModel) -> QuantumModel:
    """Append the identity deficit of every input as one extra POVM
    element.  The behavior of the result restricts to the original on
    the old outcomes and is complete by construction."""
    def extend(povms, dim):
        # builtin sum over the outcome axis, as numpy's pairwise sum
        # would round differently at d = 1
        dummy = hermitian_part(np.eye(dim) - sum(povms.swapaxes(0, 1)))
        return np.concatenate([povms, dummy[:, None]], axis=1)

    return QuantumModel(
        model.dim_a,
        model.dim_b,
        model.state,
        extend(model.alice_povms, model.dim_a),
        extend(model.bob_povms, model.dim_b),
        completeness=COMPLETE,
    )


def eq4_gap(functional: BellFunctional, cfg: SeesawConfig) -> tuple[float, float]:
    """Check that nu of a completed model dominates the sub-normalized
    quantum-to-classical ratio it came from.

    rhs = best sub-normalized quantum value found by the alternating
    search divided by the sub-normalized classical value; lhs = nu of
    the behavior of the best model after completion by an extra
    outcome.  lhs >= rhs holds for any valid completion because the
    functional, padded with zero coefficients on the extra outcomes,
    has classical value equal to the sub-normalized one.  Returns
    (lhs, rhs); the search mode is forced to sub-normalized regardless
    of cfg.mode.
    """
    cvi = classical_value_incomplete(functional)
    if cvi == 0.0:
        raise UndefinedQuantityError(
            "ratio undefined: the sub-normalized classical value is 0"
        )
    result = seesaw(functional, replace(cfg, mode=INCOMPLETE))
    rhs = result.value / cvi
    completed = behavior_from_quantum(complete_quantum_model(result.model))
    nu, _ = max_violation(completed)
    return nu, rhs


def dimension_witness_report(
    functional: BellFunctional,
    observed: float,
    max_dim: int,
    cfg: SeesawConfig | None = None,
) -> DimensionWitnessReport:
    """Best found value at each local dimension 1..max_dim versus an
    observed value.

    Each dimension's search is seeded with the previous dimension's
    best model (zero-padded), so reported values are nondecreasing in
    the dimension up to solver tolerance.
    """
    if not math.isfinite(observed):
        raise ValidationError(f"observed value must be finite, got {observed!r}")
    if observed < 0.0:
        raise ValidationError("observed value must be nonnegative")
    if max_dim < 1:
        raise ValidationError("max_dim must be >= 1")
    base = cfg if cfg is not None else SeesawConfig(dim=1)
    replace(base, dim=max_dim)  # trips the joint-dimension cap before any see-saw runs
    entries = []
    carried: QuantumModel | None = None
    for dim in range(1, max_dim + 1):
        inits = () if carried is None else (pad_quantum_model(carried, dim),)
        result = seesaw(functional, replace(base, dim=dim), init_models=inits)
        carried = result.model
        entries.append(
            DimensionEntry(
                dim=dim,
                best_value=result.value,
                exceeded=observed > result.value + WITNESS_MARGIN,
            )
        )
    warning = None
    if all(e.exceeded for e in entries):
        warning = (
            "observed value exceeds the best value found at every dimension; "
            "it may be unphysical, or the search may have missed better models"
        )
    return DimensionWitnessReport(
        observed=observed,
        label=HEURISTIC_LABEL,
        entries=tuple(entries),
        warning=warning,
    )
