"""Independent references and input generators for the benchmark.

Nothing here calls into bellcalc.  Strategies are enumerated, behaviors
evaluated and models validated with plain numpy, so a defect in the
package cannot hide inside its own oracle.  Tensors are indexed
[x][y][a][b] as in the package.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 4096


def assignments(n_inputs: int, n_outputs: int) -> np.ndarray:
    """Every deterministic response function, shape (n_outputs**n_inputs, n_inputs)."""
    return np.indices((n_outputs,) * n_inputs).reshape(n_inputs, -1).T


def vertex_values(coeffs: np.ndarray) -> np.ndarray:
    """<T, D> on every deterministic behavior D, by brute force, shape (S_A, S_B)."""
    na, nb, ma, mb = coeffs.shape
    alice, bob = assignments(na, ma), assignments(nb, mb)
    # g[i, y, b] = sum_x T[x, y, alice[i, x], b]
    g = coeffs[np.arange(na)[None, :], :, alice, :].sum(axis=1)
    return g[:, np.arange(nb)[None, :], bob].sum(axis=2)


def classical_extrema(coeffs: np.ndarray) -> tuple[float, float]:
    """(max, min) of <T, D> over deterministic D: enumerate Bob, Alice best-responds.

    The package enumerates Alice when the parties tie, so on square
    scenarios this walks the other side of the polytope's product form.
    """
    na, nb, ma, mb = coeffs.shape
    bob = assignments(nb, mb)
    t = coeffs.transpose(1, 3, 0, 2)  # (y, b, x, a)
    hi, lo = -np.inf, np.inf
    for start in range(0, len(bob), _CHUNK):
        g = t[np.arange(nb)[None, :], bob[start:start + _CHUNK]].sum(axis=1)  # (chunk, x, a)
        hi = max(hi, float(g.max(axis=2).sum(axis=1).max()))
        lo = min(lo, float(g.min(axis=2).sum(axis=1).min()))
    return hi, lo


def classical_value(coeffs: np.ndarray) -> float:
    hi, lo = classical_extrema(coeffs)
    return max(abs(hi), abs(lo))


def classical_value_incomplete(coeffs: np.ndarray) -> float:
    """Classical value with an abstain output (zero coefficients) for each party."""
    return classical_value(np.pad(coeffs, ((0, 0), (0, 0), (0, 1), (0, 1))))


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


# --- quantum models ------------------------------------------------------


def behavior_of(state: np.ndarray, alice, bob) -> np.ndarray:
    """p(a,b|x,y) = Re tr(rho (E_a^x kron F_b^y)), one Kronecker product per entry."""
    na, ma = len(alice), len(alice[0])
    nb, mb = len(bob), len(bob[0])
    probs = np.empty((na, nb, ma, mb))
    for x in range(na):
        for y in range(nb):
            for a in range(ma):
                for b in range(mb):
                    joint = np.kron(alice[x][a], bob[y][b])
                    probs[x, y, a, b] = np.trace(state @ joint).real
    return probs


def model_defect(state: np.ndarray, alice, bob, complete: bool) -> float:
    """Worst violation of the quantum-model invariants.

    State: Hermitian, PSD, unit trace.  POVM elements: Hermitian, PSD,
    summing to the identity (complete) or to at most the identity.
    """
    def herm_psd(m):
        herm = float(np.max(np.abs(m - m.conj().T)))
        return max(herm, float(-np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]))

    worst = max(herm_psd(state), abs(float(np.trace(state).real) - 1.0))
    for povm in list(alice) + list(bob):
        eye = np.eye(povm[0].shape[0])
        for el in povm:
            worst = max(worst, herm_psd(el))
        rest = eye - sum(povm)
        worst = max(worst, float(np.max(np.abs(rest))) if complete else herm_psd(rest))
    return worst


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_povm(rng: np.random.Generator, dim: int, n_out: int) -> list[np.ndarray]:
    """Projective when n_out == dim, otherwise a full-rank random POVM."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if n_out == dim:
        q, _ = np.linalg.qr(g)
        return [np.outer(q[:, k], q[:, k].conj()) for k in range(dim)]
    blocks = []
    for _ in range(n_out):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(blocks))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    els = [inv_sqrt @ b @ inv_sqrt for b in blocks]
    return [0.5 * (e + e.conj().T) for e in els]


def random_quantum_behavior(rng: np.random.Generator, shape, dim: int) -> np.ndarray:
    na, nb, ma, mb = shape
    state = random_state(rng, dim * dim)
    alice = [random_povm(rng, dim, ma) for _ in range(na)]
    bob = [random_povm(rng, dim, mb) for _ in range(nb)]
    return behavior_of(state, alice, bob)


def random_local_behavior(rng: np.random.Generator, shape, n_strategies: int = 6) -> np.ndarray:
    """Dirichlet mixture of random deterministic strategies."""
    na, nb, ma, mb = shape
    probs = np.zeros(shape)
    for w in rng.dirichlet(np.ones(n_strategies)):
        alpha = rng.integers(0, ma, na)
        beta = rng.integers(0, mb, nb)
        probs[np.arange(na)[:, None], np.arange(nb)[None, :], alpha[:, None], beta[None, :]] += w
    return probs


def chsh_optimal_behavior() -> np.ndarray:
    """Tsirelson-optimal CHSH behavior: p(ab|xy) = (1 + (-1)^(a+b+xy)/sqrt2)/4."""
    x, y, a, b = np.indices((2, 2, 2, 2))
    return (1.0 + (-1.0) ** (a + b + x * y) / np.sqrt(2.0)) / 4.0
