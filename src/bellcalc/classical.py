"""Exact classical quantities of a Bell functional, and polytope membership.

The classical value is the largest |<T, P>| over mixtures of deterministic
strategies.  It is computed exactly: enumerate one party's deterministic
assignments, let the other party best-respond per input.  The subnormalized
variant adds an abstain output with zero coefficients to each party.  The
bilinear-form norm does the same enumeration over signed assignments,
with the responding party maximizing an absolute value.

Membership of a behavior in the local polytope is decided by a Chebyshev
linear program over the polytope vertices; its dual yields a separating
functional when the behavior is outside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import (
    Behavior,
    BellFunctional,
    EPS_FEAS,
    LocalModel,
    NS_TOL,
    Scenario,
    no_signaling_check,
    pair,
)
from .errors import ValidationError
from .numerics import EQ, LE, LinearProgram, LpSolution, lp_solve
from .polytope import (
    ENUM_GUARD,
    assignment_table,
    check_guard,
    strategy_from_vertex,
    vertex_matrix,
)

# A behavior reproduced by vertex weights to within this max-norm error
# counts as local.  Margins within BOUNDARY_BAND above that tolerance get
# no verdict ("boundary"); so does nu within BOUNDARY_BAND of 1, which is
# snapped to exactly 1.
MEMBERSHIP_TOL = 1e-8
BOUNDARY_BAND = 1e-9

_CHUNK = 1 << 14


def _swap_parties(coeffs: np.ndarray) -> np.ndarray:
    return coeffs.transpose(1, 0, 3, 2)


def _enumerated_extrema(coeffs: np.ndarray, reducer: str) -> tuple[float, float]:
    """Enumerate Alice assignments; Bob best-responds per input.

    reducer "signed" tracks both max_b and min_b inner responses and
    returns (largest, smallest) totals; reducer "abs" maximizes
    max_b |...| and returns (largest, largest).
    """
    na, nb, ma, mb = coeffs.shape
    count = ma ** na
    # value[s, y, b] = sum_x coeffs[x, y, assign[s, x], b]
    tt = coeffs.transpose(0, 2, 1, 3)  # (x, a, y, b)
    x_idx = np.arange(na)
    best_hi = -np.inf
    best_lo = np.inf
    for start in range(0, count, _CHUNK):
        assign = assignment_table(np.arange(start, min(start + _CHUNK, count)), na, ma)
        vals = tt[x_idx[None, :], assign].sum(axis=1)  # (chunk, y, b)
        if reducer == "abs":
            per_y = np.abs(vals).max(axis=2)
            totals = per_y.sum(axis=1)
            hi = float(totals.max())
            best_hi = max(best_hi, hi)
            best_lo = best_hi
        else:
            hi = float(vals.max(axis=2).sum(axis=1).max())
            lo = float(vals.min(axis=2).sum(axis=1).min())
            best_hi = max(best_hi, hi)
            best_lo = min(best_lo, lo)
    return best_hi, best_lo


def signed_extrema(functional: BellFunctional) -> tuple[float, float]:
    """(max, min) of <T, D> over deterministic strategies D, exactly."""
    coeffs = functional.coeffs
    na, nb, ma, mb = coeffs.shape
    if mb ** nb < ma ** na:
        coeffs = _swap_parties(coeffs)
        na, nb, ma, mb = coeffs.shape
    check_guard(ma ** na, ENUM_GUARD, "classical value enumeration", "assignments")
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
    coeffs = functional.coeffs
    na, nb, ma, mb = coeffs.shape
    if (2 * mb) ** nb < (2 * ma) ** na:
        coeffs = _swap_parties(coeffs)
        na, nb, ma, mb = coeffs.shape
    check_guard((2 * ma) ** na, ENUM_GUARD, "signed enumeration", "assignments")
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
    n_vert = verts.shape[0]
    n_entries = verts.shape[1]
    q = behavior.probs.reshape(-1)
    # variables: weights w (V), distance t (1); minimize t subject to
    #   sum_i w_i D_i - t <= q,  -(sum_i w_i D_i) - t <= -q,  sum w = 1
    a_plus = sp.hstack([verts.T, sp.csr_matrix(-np.ones((n_entries, 1)))], format="csr")
    a_minus = sp.hstack([-verts.T, sp.csr_matrix(-np.ones((n_entries, 1)))], format="csr")
    a_sum = sp.hstack([sp.csr_matrix(np.ones((1, n_vert))), sp.csr_matrix((1, 1))], format="csr")
    a = sp.vstack([a_plus, a_minus, a_sum], format="csr")
    rhs = np.concatenate([q, -q, [1.0]])
    senses = (LE,) * (2 * n_entries) + (EQ,)
    c = np.zeros(n_vert + 1)
    c[-1] = 1.0
    lower = np.zeros(n_vert + 1)
    upper = np.full(n_vert + 1, np.inf)
    lp = LinearProgram(c, a, rhs, senses, lower, upper, maximize=False)
    return lp_solve(lp), verts, n_entries


def local_model_from_weights(scenario: Scenario, weights: np.ndarray,
                             drop_below: float = 1e-12) -> LocalModel:
    entries = []
    for v in np.flatnonzero(weights > drop_below):
        entries.append((float(weights[v]), strategy_from_vertex(scenario, int(v))))
    return LocalModel(tuple(entries))


def is_local(behavior: Behavior) -> MembershipCertificate:
    """Decide membership of a complete behavior in the local polytope.

    Signaling behaviors are accepted (they are simply nonlocal) but the
    certificate carries a warning.  Incomplete behaviors must be
    completed first.
    """
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
    sol, verts, n_entries = _membership_lp(behavior)
    if sol.status != "optimal":
        raise ValidationError(f"membership LP ended with status {sol.status}")
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
    s_vec = duals[:n_entries] - duals[n_entries:2 * n_entries]
    functional = BellFunctional(scenario, s_vec.reshape(scenario.shape))
    vertex_vals = np.asarray(verts @ s_vec).ravel()
    value_q = pair(functional, behavior)
    if value_q - float(vertex_vals.max()) < 0:
        s_vec = -s_vec
        functional = BellFunctional(scenario, s_vec.reshape(scenario.shape))
        vertex_vals = -vertex_vals
        value_q = -value_q
    max_vertex = float(vertex_vals.max())
    # additive shift: every complete behavior has total mass Na*Nb, so a
    # constant tensor moves all vertex values and value_q equally
    shift = (1.0 - max_vertex) / (scenario.n_inputs_a * scenario.n_inputs_b)
    s_shifted = s_vec.reshape(scenario.shape) + shift
    functional = BellFunctional(scenario, s_shifted)
    value_q = value_q + (1.0 - max_vertex)
    margin = value_q - 1.0
    if margin <= MEMBERSHIP_TOL + BOUNDARY_BAND:
        return MembershipCertificate(
            "boundary",
            separating=functional,
            value_on_behavior=value_q,
            max_vertex_value=1.0,
            margin=margin,
            warning=warning,
        )
    return MembershipCertificate(
        "nonlocal",
        separating=functional,
        value_on_behavior=value_q,
        max_vertex_value=1.0,
        margin=margin,
        warning=warning,
    )
