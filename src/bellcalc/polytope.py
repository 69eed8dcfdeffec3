"""Deterministic-strategy enumeration and the local polytope's vertex matrix.

Strategies are ordered lexicographically: Alice assignment index i encodes
her outputs in base n_outputs_a (most significant digit = input 0), Bob
likewise, and vertex v = i * (number of Bob strategies) + j.  Everything
downstream (tie-breaking, certificates, LP columns) relies on this order
being fixed.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .core import DeterministicStrategy, Scenario
from .errors import GuardExceededError
from .numerics import CsrMatrix

# Hard caps, overridable through BELL_GUARD_LIMIT (documented as unsafe):
# the number of single-party assignments a brute-force enumeration may
# visit, and the number of polytope vertices an LP may carry as columns.
ENUM_GUARD = 10_000_000
VERTEX_GUARD = 100_000

_ENV_GUARD = "BELL_GUARD_LIMIT"


def check_guard(count: int, default: int, what: str, unit: str) -> None:
    """Raise GuardExceededError when ``what`` needs more than the guard
    ``default``, or its BELL_GUARD_LIMIT override, of ``unit``."""
    raw = os.environ.get(_ENV_GUARD)
    try:
        limit = default if raw is None else int(raw)
    except ValueError as exc:
        raise GuardExceededError(f"{_ENV_GUARD} must be an integer, got {raw!r}") from exc
    if count > limit:
        raise GuardExceededError(
            f"{what} needs {count} {unit}, above the guard of {limit}; "
            f"set {_ENV_GUARD} to override (unsafe)"
        )


def assignment_table(ids, n_inputs: int, n_outputs: int) -> np.ndarray:
    """Outputs of the given single-party assignment ids (an int or an
    integer array), shape ids.shape + (n_inputs,).

    Assignment i holds its outputs in the lexicographic order described in
    the module docstring.
    """
    ids = np.asarray(ids)
    return np.stack(
        [(ids // n_outputs ** (n_inputs - 1 - k)) % n_outputs for k in range(n_inputs)], axis=-1
    )


def vertex_matrix(scenario: Scenario) -> CsrMatrix:
    """Sparse matrix of deterministic behaviors, one vertex per row.

    Shape (V, E) with V = S_A * S_B and E the flattened tensor size; the
    row for vertex v has a one at every entry (x, y, alpha(x), beta(y)),
    na * nb of them in ascending column order.  Rows follow the fixed
    lexicographic vertex order.  Every LP over the polytope goes through
    here, so this is where the vertex guard sits, ahead of the cache.
    """
    check_guard(scenario.alice_strategy_count() * scenario.bob_strategy_count(),
                VERTEX_GUARD, "vertex matrix", "polytope vertices")
    return _vertex_matrix(scenario)


@functools.lru_cache(maxsize=8)
def _vertex_matrix(scenario: Scenario) -> CsrMatrix:
    return vertex_rows(scenario, np.arange(scenario.alice_strategy_count())[:, None],
                       np.arange(scenario.bob_strategy_count()))


def vertex_rows(scenario: Scenario, alice: np.ndarray, bob: np.ndarray) -> CsrMatrix:
    """vertex_matrix's rows of the vertices (``alice``, ``bob``), assignment ids
    broadcast together: ones at entries ((x*nb + y)*ma + alpha(x))*mb + beta(y)."""
    na, nb, ma, mb = scenario.shape
    x_idx, y_idx = np.arange(na)[:, None], np.arange(nb)
    part_a = ((x_idx * nb + y_idx) * ma + assignment_table(alice, na, ma)[..., None]) * mb
    part_b = assignment_table(bob, nb, mb)[..., None, :]
    cols = (part_a.astype(np.int32) + part_b.astype(np.int32)).ravel()  # (vertices, na, nb)
    return CsrMatrix(np.arange(0, cols.size + 1, na * nb, dtype=np.int32), cols,
                     np.ones(cols.size), (cols.size // (na * nb), scenario.n_entries))


def collins_gisin_vertices(scenario: Scenario) -> np.ndarray:
    """The (na(ma-1) + 1)(nb(mb-1) + 1) vertices, ascending, whose rows span
    vertex_matrix's rows (the Collins-Gisin product basis, J. Phys. A 37,
    1775, 2004): each party answers 0 on every input, or on all inputs but
    one, which gets another output.  Assignment a on input x alone has id
    a * m**(n-1-x) in the order of the module docstring."""
    def flips(n_inputs, n_outputs):
        place = n_outputs ** np.arange(n_inputs - 1, -1, -1)[:, None]
        return np.append(0, np.arange(1, n_outputs) * place)

    alice = flips(scenario.n_inputs_a, scenario.n_outputs_a)
    bob = flips(scenario.n_inputs_b, scenario.n_outputs_b)
    return np.sort((alice[:, None] * scenario.bob_strategy_count() + bob).ravel())


def strategies_from_vertices(scenario: Scenario, vertices) -> list[DeterministicStrategy]:
    """Inverse of the vertex ordering: vertex indices -> strategies, decoded
    with one assignment_table call per party."""
    i, j = np.divmod(np.asarray(vertices), scenario.bob_strategy_count())
    alice = assignment_table(i, scenario.n_inputs_a, scenario.n_outputs_a)
    bob = assignment_table(j, scenario.n_inputs_b, scenario.n_outputs_b)
    return [DeterministicStrategy(tuple(a), tuple(b)) for a, b in zip(alice, bob)]
