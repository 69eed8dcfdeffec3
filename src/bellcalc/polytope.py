"""Deterministic-strategy enumeration and the local polytope's vertex matrix.

Strategies are ordered lexicographically: Alice assignment index i encodes
her outputs in base n_outputs_a (most significant digit = input 0), Bob
likewise, and vertex v = i * (number of Bob strategies) + j.  Everything
downstream (tie-breaking, certificates, LP columns) relies on this order
being fixed.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

from .core import DeterministicStrategy, Scenario
from .errors import GuardExceededError

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


_VERTEX_CACHE: dict[Scenario, sp.csr_matrix] = {}


def vertex_matrix(scenario: Scenario) -> sp.csr_matrix:
    """Sparse matrix of deterministic behaviors, one vertex per row.

    Shape (V, E) with V = S_A * S_B and E the flattened tensor size; the
    row for vertex v has a one at every entry (x, y, alpha(x), beta(y)).
    Rows follow the fixed lexicographic vertex order.  Every LP over the
    polytope goes through here, so this is where the vertex guard sits.
    """
    na, nb, ma, mb = scenario.shape
    sa = scenario.alice_strategy_count()
    sb = scenario.bob_strategy_count()
    check_guard(sa * sb, VERTEX_GUARD, "vertex matrix", "polytope vertices")
    cached = _VERTEX_CACHE.get(scenario)
    if cached is not None:
        return cached
    av = assignment_table(np.arange(sa), na, ma)  # (sa, na)
    bv = assignment_table(np.arange(sb), nb, mb)  # (sb, nb)
    # entry index for (x, y, a, b) = ((x*nb + y)*ma + a)*mb + b
    x_idx = np.arange(na)[None, :, None]     # broadcast over (i, x, y)
    y_idx = np.arange(nb)[None, None, :]
    a_part = av[:, :, None]                  # (sa, na, 1)
    cols_a = (x_idx * nb + y_idx) * ma + a_part          # (sa, na, nb)
    cols_a = cols_a.reshape(sa, na * nb)
    cols_b = bv[:, None, :] + np.zeros((1, na, 1), dtype=int)  # (sb, na, nb)
    cols_b = cols_b.reshape(sb, na * nb)
    # columns for vertex (i, j): cols_a[i]*mb + cols_b[j]
    cols = (cols_a[:, None, :] * mb + cols_b[None, :, :]).reshape(sa * sb * na * nb)
    rows = np.repeat(np.arange(sa * sb), na * nb)
    data = np.ones(cols.size)
    mat = sp.csr_matrix((data, (rows, cols)), shape=(sa * sb, scenario.n_entries))
    if len(_VERTEX_CACHE) >= 8:
        _VERTEX_CACHE.clear()
    _VERTEX_CACHE[scenario] = mat
    return mat


def strategy_from_vertex(scenario: Scenario, vertex: int) -> DeterministicStrategy:
    """Inverse of the vertex ordering: index -> strategy."""
    sb = scenario.bob_strategy_count()
    i, j = divmod(int(vertex), sb)
    alice = assignment_table(i, scenario.n_inputs_a, scenario.n_outputs_a)
    bob = assignment_table(j, scenario.n_inputs_b, scenario.n_outputs_b)
    return DeterministicStrategy(tuple(alice), tuple(bob))
