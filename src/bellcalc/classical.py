"""Exact classical quantities of a Bell functional, and polytope membership.

The classical value is the largest |<T, P>| over mixtures of deterministic
strategies.  It is computed exactly: enumerate one party's deterministic
assignments, let the other party best-respond per input.  The subnormalized
variant adds an abstain output with zero coefficients to each party.  The
bilinear-form norm does the same enumeration over signed assignments,
with the responding party maximizing an absolute value.

Assignments sharing a prefix of inputs share its partial sum, about one add
of an (nb, mb) block each: O(ma**na nb mb) in all.  The norm visits one sign
of input 0 (flipping every sign keeps |value|); its guard counts all signs.

Membership of a behavior in the local polytope is decided by a Chebyshev
linear program over the polytope vertices; its dual yields a separating
functional when the behavior is outside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Behavior,
    BellFunctional,
    LocalModel,
    Scenario,
    no_signaling_check,
    validate,
)
from .errors import SolverError, ValidationError
from .numerics import EQ, LE, CsrMatrix, LinearProgram, lp_solve
from .polytope import (
    ENUM_GUARD,
    check_guard,
    strategies_from_vertices,
    vertex_matrix,
)

# A behavior reproduced by vertex weights to within this max-norm error
# counts as local.  Margins within BOUNDARY_BAND above that tolerance get
# no verdict ("boundary"); so does nu within BOUNDARY_BAND of 1, which is
# snapped to exactly 1.
MEMBERSHIP_TOL = 1e-8
BOUNDARY_BAND = 1e-9

# Vertex weights at or below this are left out of a reconstructed LocalModel.
DROP_WEIGHT = 1e-12

_CHUNK = 1 << 14


def _fewer_assignments_first(coeffs: np.ndarray, signs: int) -> tuple[np.ndarray, int]:
    """(coeffs, count) with Alice, whom _enumerated_extrema enumerates, the
    party of fewer (signs * outputs) ** inputs assignments, and their count."""
    na, nb, ma, mb = coeffs.shape
    if (signs * mb) ** nb < (signs * ma) ** na:
        return coeffs.transpose(1, 0, 3, 2), (signs * mb) ** nb
    return coeffs, (signs * ma) ** na


def _enumerated_extrema(coeffs: np.ndarray, reducer: str) -> tuple[float, float]:
    """Enumerate Alice assignments; Bob best-responds per input.

    Column s of a (b, y, s) level sums one prefix of Alice's inputs, adding
    inputs in order 0 .. na-1: the head prefixes are summed once, then
    extended in blocks of at most _CHUNK columns through the tail inputs.

    reducer "signed" tracks both max_b and min_b inner responses and
    returns (largest, smallest) totals; reducer "abs" maximizes
    max_b |...| and returns (largest, largest), visiting only the first
    half of input 0's outputs, whose second half must negate the first.
    """
    na, nb, ma, mb = coeffs.shape
    tt = np.ascontiguousarray(coeffs.transpose(0, 3, 1, 2))[..., None]  # (x, b, y, a, 1)

    def extend(level, inputs):
        for x in inputs:
            level = (level[:, :, None] + tt[x]).reshape(mb, nb, -1)
        return level

    def totals(per_y):
        # the sum over y runs on contiguous (nb,) rows, which numpy sums pairwise
        return np.ascontiguousarray(per_y.T).sum(axis=1)

    tail = max(k for k in range(na) if ma ** k <= _CHUNK)
    head = extend(tt[0, :, :, : ma // 2 if reducer == "abs" else ma, 0], range(1, na - tail))
    step = max(1, _CHUNK // ma ** tail)
    best_hi, best_lo = -np.inf, np.inf
    for start in range(0, head.shape[2], step):
        vals = extend(head[:, :, start:start + step], range(na - tail, na))
        if reducer == "abs":
            best_hi = best_lo = max(best_hi, float(totals(np.abs(vals).max(axis=0)).max()))
        else:
            best_hi = max(best_hi, float(totals(vals.max(axis=0)).max()))
            best_lo = min(best_lo, float(totals(vals.min(axis=0)).min()))
    return best_hi, best_lo


def signed_extrema(functional: BellFunctional) -> tuple[float, float]:
    """(max, min) of <T, D> over deterministic strategies D, exactly."""
    coeffs, count = _fewer_assignments_first(functional.coeffs, 1)
    check_guard(count, ENUM_GUARD, "classical value enumeration", "assignments")
    return _enumerated_extrema(coeffs, "signed")


def classical_value(functional: BellFunctional) -> float:
    """sup |<T, P>| over the local polytope: max(|max|, |min|) over vertices."""
    hi, lo = signed_extrema(functional)
    return max(abs(hi), abs(lo))


def _pad_abstain(functional: BellFunctional) -> BellFunctional:
    na, nb, ma, mb = functional.scenario.shape
    coeffs = np.zeros((na, nb, ma + 1, mb + 1))
    coeffs[:, :, :ma, :mb] = functional.coeffs
    return BellFunctional(Scenario(na, nb, ma + 1, mb + 1), coeffs)


def classical_value_incomplete(functional: BellFunctional) -> float:
    """sup |<T, P>| over subnormalized local behaviors.

    Equal to the classical value after granting each party an abstain
    output with zero coefficients.
    """
    return classical_value(_pad_abstain(functional))


def banach_norm(functional: BellFunctional) -> float:
    """Norm of T as a bilinear form on signed, per-input-normalized vectors.

    Each Alice input picks an output and a sign; Bob's best response per
    input is the largest |column sum|.  Enumerated exactly over the party
    with fewer signed assignments.
    """
    coeffs, count = _fewer_assignments_first(functional.coeffs, 2)
    check_guard(count, ENUM_GUARD, "signed enumeration", "assignments")
    signed = np.concatenate([coeffs, -coeffs], axis=2)  # outputs then negated outputs
    hi, _ = _enumerated_extrema(signed, "abs")
    return hi


@dataclass(frozen=True, eq=False)
class MembershipCertificate:
    """Outcome of the local-polytope membership test.

    verdict "local" comes with a reconstructing LocalModel; "nonlocal"
    with a separating functional whose value on every vertex is at most
    ``max_vertex_value`` (normalized to 1) while ``value_on_behavior``
    exceeds it by ``margin``.  Verdict "boundary" means the distance to
    the polytope fell inside the undecidable band.
    """

    verdict: str
    model: LocalModel | None = None
    reconstruction_error: float | None = None
    separating: BellFunctional | None = None
    value_on_behavior: float | None = None
    max_vertex_value: float | None = None
    margin: float | None = None
    warning: str | None = None


def _membership_lp(behavior: Behavior):
    scenario = behavior.scenario
    verts = vertex_matrix(scenario)  # (V, E) sparse
    n_vert, n_entries = verts.shape
    q = behavior.probs.reshape(-1)
    # variables: weights w (V), distance t (1); minimize t subject to
    #   sum_i w_i D_i - t <= q,  -(sum_i w_i D_i) - t <= -q,  sum w = 1
    dt, minus_t = verts.T, CsrMatrix.from_dense(-np.ones((n_entries, 1)))
    mass = CsrMatrix.from_dense(np.concatenate([np.ones(n_vert), [0.0]])[None])
    a = CsrMatrix.vstack([CsrMatrix.hstack([dt, minus_t]), CsrMatrix.hstack([-dt, minus_t]), mass])
    rhs = np.concatenate([q, -q, [1.0]])
    senses = np.repeat([LE, EQ], [2 * n_entries, 1])
    c = np.zeros(n_vert + 1)
    c[-1] = 1.0
    lower = np.zeros(n_vert + 1)
    upper = np.full(n_vert + 1, np.inf)
    lp = LinearProgram(c, a, rhs, senses, lower, upper, maximize=False)
    return lp_solve(lp), verts


def local_model_from_weights(scenario: Scenario, weights: np.ndarray) -> LocalModel:
    kept = np.flatnonzero(weights > DROP_WEIGHT)
    strategies = strategies_from_vertices(scenario, kept)
    return LocalModel(tuple(zip(weights[kept].tolist(), strategies)))


def is_local(behavior: Behavior) -> MembershipCertificate:
    """Decide membership of a complete, valid behavior in the local polytope.

    Signaling behaviors are accepted (they are simply nonlocal) but the
    certificate carries a warning.  Incomplete behaviors must be
    completed first.
    """
    report = validate(behavior)
    if report:
        raise ValidationError("membership requires a valid behavior", report)
    if not behavior.is_complete:
        raise ValidationError("membership is decided on complete behaviors; complete it first")
    scenario = behavior.scenario
    ns = no_signaling_check(behavior)
    warning = None
    if not ns.ok:
        warning = (
            f"behavior signals (worst residual {ns.max_residual:.3g} at {ns.location}); "
            "it cannot be local"
        )
    sol, verts = _membership_lp(behavior)
    if sol.status != "optimal":
        raise SolverError(f"membership LP ended with status {sol.status!r}")
    distance = float(sol.objective)
    if distance <= MEMBERSHIP_TOL:
        weights = sol.x[:-1]
        model = local_model_from_weights(scenario, weights)
        return MembershipCertificate(
            "local", model=model, reconstruction_error=distance, warning=warning
        )
    # Separating functional from the duals of the two inequality families:
    # S = duals(minus rows) - duals(plus rows) up to orientation, then
    # shifted so its best vertex value is exactly one.
    duals = sol.row_duals
    n_entries = scenario.n_entries
    s_vec = duals[:n_entries] - duals[n_entries:2 * n_entries]
    vertex_vals = verts @ s_vec
    value_q = float(np.sum(s_vec.reshape(scenario.shape) * behavior.probs))  # <S, P>
    if value_q - float(vertex_vals.max()) < 0:
        s_vec = -s_vec
        vertex_vals = -vertex_vals
        value_q = -value_q
    max_vertex = float(vertex_vals.max())
    # additive shift: every complete behavior has total mass Na*Nb, so a
    # constant tensor moves all vertex values and value_q equally
    shift = (1.0 - max_vertex) / (scenario.n_inputs_a * scenario.n_inputs_b)
    functional = BellFunctional(scenario, s_vec.reshape(scenario.shape) + shift)
    value_q = value_q + (1.0 - max_vertex)
    margin = value_q - 1.0
    verdict = "boundary" if margin <= MEMBERSHIP_TOL + BOUNDARY_BAND else "nonlocal"
    return MembershipCertificate(
        verdict,
        separating=functional,
        value_on_behavior=value_q,
        max_vertex_value=1.0,
        margin=margin,
        warning=warning,
    )
