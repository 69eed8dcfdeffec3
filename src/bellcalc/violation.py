"""Behavior-centric quantities built on the local polytope.

The central number is nu(Q): the best value any Bell functional attains
on Q after normalizing the functional so its largest absolute value on
deterministic local behaviors is 1.  For local Q this is exactly 1; the
excess over 1 measures how far outside the local polytope Q sits.  The
companion quantity pi(Q) is the largest visibility v at which v*Q plus
some (1-v)-weighted mixture of deterministic behaviors is still local;
the two are linked by nu = 2/pi - 1, which this module checks rather
than assumes.

Also here: completion of sub-normalized behaviors and models by an
explicit extra outcome, the lower bound on classical one-way
communication needed to reproduce Q, and heuristic dimension reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .classical import BOUNDARY_BAND, classical_value, classical_value_incomplete
from .core import (
    Behavior,
    BellFunctional,
    COMPLETE,
    EPS_FEAS,
    INCOMPLETE,
    NS_TOL,
    QuantumModel,
    Scenario,
    behavior_from_quantum,
    hermitian_part,
    no_signaling_check,
    pair,
    validate,
)
from .errors import (
    SignalingBehaviorError,
    UndefinedQuantityError,
    ValidationError,
)
from .numerics import EQ, GE, LE, LinearProgram, lp_solve
from .polytope import vertex_matrix
from .seesaw import SeesawConfig, pad_quantum_model, seesaw

# Entrywise slack on the mixture equality of the pi program.  Absorbs
# the no-signaling tolerance of the input; without it a residual of
# 1e-12 outside the vertex span would force v to 0.
PI_SLACK = 1e-9

# A dimension counts as contradicted only when the observed value beats
# the best found value by more than this.
WITNESS_MARGIN = 1e-9

HEURISTIC_LABEL = "HEURISTIC"

_SIGNALING_MSG = "LP unbounded / nu undefined for signaling behaviors"


@dataclass(frozen=True, eq=False)
class ViolationReport:
    """nu and pi for one behavior, with the witness functional that
    attains nu (normalized to classical value 1) and derived bounds."""

    nu: float
    witness: BellFunctional
    pi: float
    identity_residual: float
    comm_bound_bits: float
    boundary: bool


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
    part of the output contract.
    """

    observed: float
    entries: tuple[DimensionEntry, ...]
    label: str
    warning: str | None


def _checked_complete(behavior: Behavior, what: str) -> None:
    report = validate(behavior)
    if report:
        raise ValidationError(f"{what} requires a valid behavior", report)
    if not behavior.is_complete:
        raise ValidationError(f"{what} is defined for complete behaviors only")
    ns = no_signaling_check(behavior)
    if ns.max_residual > NS_TOL:
        raise SignalingBehaviorError(
            f"{_SIGNALING_MSG} (residual {ns.max_residual:.3e} at {ns.location})"
        )


def max_violation(behavior: Behavior) -> tuple[float, BellFunctional]:
    """Largest value of <T, Q> over functionals bounded by 1 on every
    deterministic behavior, with the optimizing functional.

    The optimum and the returned witness satisfy
    |pair(witness, Q)| / classical_value(witness) = nu up to solver
    tolerance; nu >= 1 for every complete no-signaling Q because the
    constant functional already achieves 1.  Values within 1e-9 of 1
    are snapped to exactly 1 (see ViolationReport.boundary).
    """
    _checked_complete(behavior, "max_violation")
    scenario = behavior.scenario
    d = vertex_matrix(scenario)
    n_vertices = d.shape[0]
    a = sp.vstack([d, d], format="csr")
    rhs = np.concatenate([np.ones(n_vertices), -np.ones(n_vertices)])
    senses = [LE] * n_vertices + [GE] * n_vertices
    n_entries = scenario.n_entries
    lp = LinearProgram(
        c=behavior.probs.ravel(),
        a=a,
        rhs=rhs,
        senses=senses,
        lower=np.full(n_entries, -np.inf),
        upper=np.full(n_entries, np.inf),
        maximize=True,
    )
    sol = lp_solve(lp)
    if sol.status == "unbounded":
        raise SignalingBehaviorError(_SIGNALING_MSG)
    if sol.status != "optimal":
        raise ValidationError(f"violation LP ended with status {sol.status!r}")
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
    _checked_complete(behavior, "noise_robustness")
    scenario = behavior.scenario
    dt = vertex_matrix(scenario).T.tocsr()        # (E, V)
    n_vertices = dt.shape[1]
    n_entries = scenario.n_entries
    q_col = sp.csr_matrix(behavior.probs.ravel().reshape(-1, 1))
    # columns: [v | lambda (local part) | mu (noise part)]
    mix = sp.hstack([q_col, -dt, dt], format="csr")
    ones_lam = sp.hstack(
        [sp.csr_matrix((1, 1)), sp.csr_matrix(np.ones((1, n_vertices))), sp.csr_matrix((1, n_vertices))]
    )
    ones_mu = sp.hstack(
        [sp.csr_matrix(np.ones((1, 1))), sp.csr_matrix((1, n_vertices)), sp.csr_matrix(np.ones((1, n_vertices)))]
    )
    a = sp.vstack([mix, mix, ones_lam, ones_mu], format="csr")
    rhs = np.concatenate([
        np.full(n_entries, PI_SLACK),
        np.full(n_entries, -PI_SLACK),
        [1.0, 1.0],
    ])
    senses = [LE] * n_entries + [GE] * n_entries + [EQ, EQ]
    n_cols = 1 + 2 * n_vertices
    c = np.zeros(n_cols)
    c[0] = 1.0
    upper = np.full(n_cols, np.inf)
    upper[0] = 1.0
    lp = LinearProgram(
        c=c, a=a, rhs=rhs, senses=senses,
        lower=np.zeros(n_cols), upper=upper, maximize=True,
    )
    sol = lp_solve(lp)
    if sol.status != "optimal":
        raise ValidationError(f"noise robustness LP ended with status {sol.status!r}")
    return float(min(max(sol.objective, 0.0), 1.0))


def check_noise_identity(behavior: Behavior) -> float:
    """|nu - (2/pi - 1)| from two independently solved programs."""
    nu, _ = max_violation(behavior)
    pi = noise_robustness(behavior)
    return abs(nu - (2.0 / pi - 1.0))


def comm_bits(nu: float) -> float:
    """Bits of classical communication that a violation nu demands:
    log2(nu), clipped at zero."""
    return max(0.0, math.log2(nu))


def comm_lower_bound(behavior: Behavior) -> float:
    """Bits of classical communication needed to reproduce Q."""
    nu, _ = max_violation(behavior)
    return comm_bits(nu)


def violation_report(behavior: Behavior) -> ViolationReport:
    """nu, pi, their identity residual and the communication bound in
    one pass (each LP solved once)."""
    nu, witness = max_violation(behavior)
    pi = noise_robustness(behavior)
    return ViolationReport(
        nu=nu,
        witness=witness,
        pi=pi,
        identity_residual=abs(nu - (2.0 / pi - 1.0)),
        comm_bound_bits=comm_bits(nu),
        boundary=nu == 1.0,
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
    report = validate(behavior)
    if report:
        raise ValidationError("complete_behavior requires a valid behavior", report)
    scenario = behavior.scenario
    probs = behavior.probs
    mass = probs.sum(axis=(2, 3))
    worst = np.unravel_index(np.argmax(mass), mass.shape)
    if mass[worst] > 1.0 + EPS_FEAS:
        raise ValidationError(
            f"block mass {mass[worst]:.12g} exceeds 1 at inputs (x={worst[0]}, y={worst[1]})"
        )
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
    if ns.max_residual > NS_TOL:
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
        eye = np.eye(dim)
        out = []
        for povm in povms:
            dummy = hermitian_part(eye - sum(povm))
            out.append(tuple(povm) + (dummy,))
        return tuple(out)

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
    if observed < 0.0:
        raise ValidationError("observed value must be nonnegative")
    if max_dim < 1:
        raise ValidationError("max_dim must be >= 1")
    base = cfg if cfg is not None else SeesawConfig(dim=1)
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
        entries=tuple(entries),
        label=HEURISTIC_LABEL,
        warning=warning,
    )
