"""Shared fixtures: hand-built models with known exact values.

The quantum models here are written out from explicit matrices rather
than produced by package code, so tests can use them as independent
references.
"""

from __future__ import annotations

import numpy as np
import pytest

from bellcalc import (
    Behavior,
    BellFunctional,
    DeterministicStrategy,
    LocalModel,
    QuantumModel,
    Scenario,
    behavior_from_local,
    chsh_functional,
    magic_square_functional,
)
from bellcalc.generators import magic_square_column_bits, magic_square_row_bits
from bellcalc.numerics import EQ, GE, LE, LinearProgram

I2 = np.eye(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_Y = 1j * PAULI_X @ PAULI_Z


def projective_pair(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Projectors of the binary observable cos(theta) Z + sin(theta) X."""
    obs = np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X
    return ((I2 + obs) / 2, (I2 - obs) / 2)


def build_chsh_optimal_model() -> QuantumModel:
    """Singlet-class state with measurement angles 0, pi/2 and +-pi/4.

    Gives correlators (-1)^{xy}/sqrt(2), hence value 2*sqrt(2) on the
    standard correlation functional.
    """
    phi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    state = np.outer(phi, phi.conj())
    alice = (projective_pair(0.0), projective_pair(np.pi / 2))
    bob = (projective_pair(np.pi / 4), projective_pair(-np.pi / 4))
    return QuantumModel(2, 2, state, alice, bob, completeness="complete")


def chsh_optimal_probs() -> np.ndarray:
    """The same behavior from the closed-form correlators, no operators
    involved: p(a,b|x,y) = (1 + (-1)^(a+b) (-1)^(xy)/sqrt(2)) / 4."""
    x, y, a, b = np.ogrid[0:2, 0:2, 0:2, 0:2]
    corr = (-1.0) ** (x * y) / np.sqrt(2.0)
    return (1.0 + (-1.0) ** (a + b) * corr) / 4.0


def build_magic_square_model() -> QuantumModel:
    """Two-qubit-pair strategy winning the magic square game always.

    The nine observables form a grid whose rows multiply to +identity
    and columns to -identity; Bob uses transposes against the
    maximally entangled state, which correlates his column bits with
    Alice's row bits perfectly.
    """
    grid = [
        [np.kron(I2, PAULI_Z), np.kron(PAULI_Z, I2), np.kron(PAULI_Z, PAULI_Z)],
        [np.kron(PAULI_X, I2), np.kron(I2, PAULI_X), np.kron(PAULI_X, PAULI_X)],
        [-np.kron(PAULI_X, PAULI_Z), -np.kron(PAULI_Z, PAULI_X), np.kron(PAULI_Y, PAULI_Y)],
    ]
    dim = 4
    phi = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        phi[i * dim + i] = 1.0 / 2.0
    state = np.outer(phi, phi.conj())

    def joint_projector(observables, bits):
        p = np.eye(dim, dtype=complex)
        for obs, t in zip(observables, bits):
            p = p @ (np.eye(dim) + (-1) ** t * obs) / 2
        return 0.5 * (p + p.conj().T)

    alice = tuple(
        tuple(joint_projector(grid[x], magic_square_row_bits(a)) for a in range(4))
        for x in range(3)
    )
    bob = tuple(
        tuple(
            joint_projector([grid[i][y].T for i in range(3)], magic_square_column_bits(b))
            for b in range(4)
        )
        for y in range(3)
    )
    return QuantumModel(dim, dim, state, alice, bob, completeness="complete")


def random_local_model(rng: np.random.Generator, scenario: Scenario,
                       n_strategies: int = 6, total: float = 1.0) -> LocalModel:
    weights = rng.dirichlet(np.ones(n_strategies)) * total
    strategies = [
        DeterministicStrategy(
            tuple(int(v) for v in rng.integers(0, scenario.n_outputs_a, scenario.n_inputs_a)),
            tuple(int(v) for v in rng.integers(0, scenario.n_outputs_b, scenario.n_inputs_b)),
        )
        for _ in range(n_strategies)
    ]
    return LocalModel(tuple((float(w), s) for w, s in zip(weights, strategies)))


def random_feasible_lp(rng: np.random.Generator) -> LinearProgram:
    """A bounded LP with a known interior point, mixed senses and
    finite bounds (so it can never be unbounded)."""
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 11))
    a = rng.standard_normal((m, n))
    lower = np.where(rng.random(n) < 0.7, 0.0, -rng.random(n) * 3.0)
    upper = lower + 0.5 + rng.random(n) * 4.0
    x0 = lower + (upper - lower) * rng.random(n)
    senses = rng.choice([LE, GE, EQ], size=m, p=[0.45, 0.45, 0.1])
    slack = rng.random(m) * 2.0
    rhs = a @ x0
    rhs = np.where(senses == LE, rhs + slack, rhs)
    rhs = np.where(senses == GE, rhs - slack, rhs)
    return LinearProgram(
        c=rng.standard_normal(n),
        a=a,
        rhs=rhs,
        senses=list(senses),
        lower=lower,
        upper=upper,
        maximize=bool(rng.random() < 0.5),
    )


def pr_box_probs() -> np.ndarray:
    """p(a,b|x,y) = 1/2 when a xor b = x and y, else 0."""
    x, y, a, b = np.ogrid[0:2, 0:2, 0:2, 0:2]
    return 0.5 * ((a ^ b) == (x & y))


@pytest.fixture(scope="session")
def chsh() -> BellFunctional:
    return chsh_functional()


@pytest.fixture(scope="session")
def magic_square() -> BellFunctional:
    return magic_square_functional()


@pytest.fixture(scope="session")
def chsh_optimal_model() -> QuantumModel:
    return build_chsh_optimal_model()


@pytest.fixture(scope="session")
def chsh_optimal_behavior(chsh_optimal_model) -> Behavior:
    from bellcalc import behavior_from_quantum

    return behavior_from_quantum(chsh_optimal_model)


@pytest.fixture(scope="session")
def magic_square_model() -> QuantumModel:
    return build_magic_square_model()


@pytest.fixture(scope="session")
def scenario_2222() -> Scenario:
    return Scenario(2, 2, 2, 2)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def local_behavior_2222(scenario_2222) -> Behavior:
    model = random_local_model(np.random.default_rng(42), scenario_2222)
    return behavior_from_local(model, scenario_2222)
