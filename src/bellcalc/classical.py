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
Each block is reduced by numpy alone: Bob's best response per input (to
|...| for the norm), then numpy's sum over his inputs, the one reduction the
membership oracle takes too, so both give an assignment the same value.

Membership in the local polytope is a Chebyshev LP over the vertices, solved
by column generation: the same enumeration, best-responding to every assignment
of each party, prices all vertices against the restricted master's duals,
which yield a separating functional when the behavior is outside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    INCOMPLETE,
    Behavior,
    BellFunctional,
    LocalModel,
    NoSignalingResult,
    QuantumModel,
    Scenario,
    behavior_from_local,
    no_signaling_check,
    require_valid,
)
from .errors import GuardExceededError, SolverError, ValidationError
from .numerics import CsrMatrix, RestrictedMaster, best_columns
from .polytope import ENUM_GUARD, assignment_table, check_guard, strategies_from_vertices, vertex_rows

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


def _prefix_blocks(tt: np.ndarray, first: int):
    """Yield (B, Y, k) blocks of sums over Alice's assignments, tt (x, B, Y, a, 1):
    head prefixes (input 0's first ``first`` outputs on) are summed once, then
    extended in blocks of at most _CHUNK columns through the tail inputs."""
    (na, b, y, ma, _) = tt.shape

    def extend(level, inputs):
        for x in inputs:
            level = (level[:, :, None] + tt[x]).reshape(b, y, -1)
        return level

    tail = max(k for k in range(na) if ma ** k <= _CHUNK)
    head = extend(tt[0, :, :, :first, 0], range(1, na - tail))
    step = max(1, _CHUNK // ma ** tail)
    for start in range(0, head.shape[2], step):
        yield extend(head[:, :, start:start + step], range(na - tail, na))


def _enumerated_extrema(coeffs: np.ndarray, reducer: str) -> tuple[float, float]:
    """Enumerate Alice assignments; Bob best-responds per input.

    reducer "signed" tracks both max_b and min_b inner responses and
    returns (largest, smallest) totals; reducer "abs" maximizes
    max_b |...| and returns (largest, largest), visiting only the first
    half of input 0's outputs, whose second half must negate the first.

    Each (B, Y, k) block of k assignments is reduced as the oracle reduces
    it: abs for the norm, the best response over b, then sum over y.
    """
    ma = coeffs.shape[2]
    tt = coeffs.transpose(0, 3, 1, 2).copy()[..., None]  # (x, b, y, a, 1), ours to overwrite
    best_hi, best_lo = -np.inf, np.inf
    for vals in _prefix_blocks(tt, ma // 2 if reducer == "abs" else ma):
        if reducer == "abs":
            np.abs(vals, out=vals)
            best_hi = best_lo = max(best_hi, float(vals.max(axis=0).sum(axis=0).max()))
        else:
            best_hi = max(best_hi, float(vals.max(axis=0).sum(axis=0).max()))
            best_lo = min(best_lo, float(vals.min(axis=0).sum(axis=0).min()))
    return best_hi, best_lo


def best_response_vertices(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact classical oracle: for every assignment of each party (Alice's
    first, in id order) the vertex it forms with the other party's best response
    per input (lowest output, so vertex id, on ties), and its value <coeffs, D>."""
    n_bob = coeffs.shape[3] ** coeffs.shape[1]
    vertices, values = [], []
    for party, (own, other) in ((coeffs, (n_bob, 1)), (coeffs.transpose(1, 0, 3, 2), (1, n_bob))):
        na, nb, ma, mb = party.shape
        tt = np.ascontiguousarray(party.transpose(0, 3, 1, 2))[..., None]
        # the same blocks over each input's share of the assignment id
        ids = (np.arange(ma) * ma ** np.arange(na - 1, -1, -1)[:, None])[:, None, None, :, None]
        response, total = np.empty(ma ** na, np.int64), np.empty(ma ** na)
        for id_block, vals in zip(_prefix_blocks(ids, ma), _prefix_blocks(tt, ma)):
            best = vals.argmax(axis=0)  # (y, k)
            response[id_block.ravel()] = mb ** np.arange(nb - 1, -1, -1) @ best
            total[id_block.ravel()] = vals.max(axis=0).sum(axis=0)
        vertices.append(np.arange(ma ** na) * own + response * other)
        values.append(total)
    return np.concatenate(vertices), np.concatenate(values)


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


def classical_value_for(functional: BellFunctional, mode: str) -> float:
    """The classical value of a see-saw's mode: the denominator of its ratio."""
    if mode == INCOMPLETE:
        return classical_value_incomplete(functional)
    return classical_value(functional)


def classical_floor(functional: BellFunctional, mode: str) -> QuantumModel | None:
    """The oracle's optimal deterministic strategy as a d = 1 QuantumModel in
    ``mode``: state [[1]], element 1 on each input's chosen output and 0 on the
    others, all 0 on an input where the abstain-padded optimum (INCOMPLETE mode)
    abstains.  It is the oracle's best vertex on T or -T.  None, with nothing
    enumerated, when the oracle's assignment count exceeds ENUM_GUARD or its
    BELL_GUARD_LIMIT override."""
    target = _pad_abstain(functional) if mode == INCOMPLETE else functional
    na, nb, ma, mb = target.scenario.shape
    try:
        check_guard(ma ** na + mb ** nb, ENUM_GUARD, "classical floor", "assignments")
    except GuardExceededError:
        return None
    vertices, values = max((best_response_vertices(sign * target.coeffs) for sign in (1.0, -1.0)),
                           key=lambda found: found[1].max())
    alice, bob = divmod(int(vertices[values.argmax()]), mb ** nb)

    def povms(assignment, n_inputs, n_outputs, kept):  # (inputs, kept, 1, 1), one-hot
        return np.eye(n_outputs)[assignment_table(assignment, n_inputs, n_outputs), :kept, None, None]

    return QuantumModel(1, 1, [[1.0]], povms(alice, na, ma, functional.scenario.n_outputs_a),
                        povms(bob, nb, mb, functional.scenario.n_outputs_b), completeness=mode)


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


def local_model_from_weights(scenario: Scenario, weights: np.ndarray,
                             vertices: np.ndarray) -> LocalModel:
    """The LocalModel of vertex weights above DROP_WEIGHT; weight k is of
    vertex ``vertices[k]`` (ascending)."""
    kept = weights > DROP_WEIGHT
    return LocalModel(tuple(zip(weights[kept].tolist(),
                                strategies_from_vertices(scenario, vertices[kept]))))


def seed_vertices(probs: np.ndarray) -> np.ndarray:
    """The 2E + 1 best responses (E entries) to Q = ``probs`` and to Q - pA pB each
    (a third to a half of membership's rounds of Q's alone), ascending."""
    marginals = probs.sum(axis=3).mean(axis=1), probs.sum(axis=2).mean(axis=0)
    product = marginals[0][:, None, :, None] * marginals[1][None, :, None, :]
    return np.unique(np.concatenate([best_columns(*best_response_vertices(s), 2 * probs.size + 1)
                                     for s in (probs, probs - product)]))


def checked_complete(behavior: Behavior, what: str) -> NoSignalingResult:
    """The no-signaling check of a valid, complete behavior; ValidationError
    naming ``what`` for any other."""
    require_valid(behavior, f"{what} requires a valid behavior")
    if not behavior.is_complete:
        raise ValidationError(f"{what} is defined for complete behaviors only")
    return no_signaling_check(behavior)


def is_local(behavior: Behavior) -> MembershipCertificate:
    """Decide membership of a complete, valid behavior in the local polytope.

    Signaling behaviors are accepted (they are simply nonlocal) but the
    certificate carries a warning.  Incomplete behaviors must be
    completed first.
    """
    ns = checked_complete(behavior, "membership")
    warning = None if ns.ok else (f"behavior signals (worst residual {ns.max_residual:.3g} "
                                  f"at {ns.location}); it cannot be local")
    scenario = behavior.scenario
    check_guard(scenario.alice_strategy_count() + scenario.bob_strategy_count(), ENUM_GUARD,
                "membership oracle", "assignments")
    # Chebyshev distance: minimize t >= 0 over the weights w >= 0 of the
    # vertex columns so far, D.w - t <= q, -D.w - t <= -q, sum w = 1.  A
    # vertex's reduced cost is -(<S, D_v> + mu), S the difference of the two
    # row families' duals and mu the mass row's: the oracle prices them all.
    q, n_entries = behavior.probs.reshape(-1), scenario.n_entries
    master = RestrictedMaster(np.concatenate([np.full(2 * n_entries, -np.inf), [1.0]]),
                              np.concatenate([q, -q, [1.0]]))

    def vertex_columns(vertices):
        d = vertex_rows(scenario, *np.divmod(vertices, scenario.bob_strategy_count()))
        return (np.zeros(len(vertices)),
                CsrMatrix.hstack([d, -d, CsrMatrix.from_dense(np.ones((len(vertices), 1)))]))

    values = None  # the vertex values of the last pricing round, which ended it

    def price(sol):
        nonlocal values
        duals = sol.row_duals
        found, values = best_response_vertices(
            (duals[:n_entries] - duals[n_entries:2 * n_entries]).reshape(scenario.shape))
        return found, values + duals[-1]

    probs, vertices = behavior.probs, seed_vertices(behavior.probs)
    distance = CsrMatrix.from_dense(np.concatenate([-np.ones(2 * n_entries), [0.0]])[None])
    c, columns = vertex_columns(vertices)
    first = master.solve(np.concatenate([[1.0], c]), CsrMatrix.vstack([distance, columns]))
    # each round's answer goes unchecked into pricing; the last is certified
    vertices, sol = master.generate(first, vertices, vertex_columns, price)
    sol = master.certified() if sol.status == "optimal" else sol
    if sol.status != "optimal":
        raise SolverError(f"membership LP ended with status {sol.status!r}")
    if sol.objective <= MEMBERSHIP_TOL:
        order = np.argsort(vertices)
        model = local_model_from_weights(scenario, sol.x[1:][order], vertices[order])
        error = float(np.abs(behavior_from_local(model, scenario).probs - probs).max())
        return MembershipCertificate("local", model=model, reconstruction_error=error, warning=warning)
    # Separating functional S, shifted so its best vertex value is exactly
    # one: every complete behavior has total mass Na*Nb, so a constant
    # tensor moves all vertex values and <S, Q> equally
    s_vec = sol.row_duals[:n_entries] - sol.row_duals[n_entries:2 * n_entries]
    max_vertex = float(values.max())
    shift = (1.0 - max_vertex) / (scenario.n_inputs_a * scenario.n_inputs_b)
    functional = BellFunctional(scenario, s_vec.reshape(scenario.shape) + shift)
    value_q = float(np.sum(s_vec.reshape(scenario.shape) * probs)) + (1.0 - max_vertex)  # <S, Q>
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
