"""Built-in Bell functionals: CHSH, the magic square game, generic games,
and seeded Gaussian noise.

Magic square outcome encoding (fixed, relied on by serialized documents):
a row filling is three bits (t0, t1, t2) with even parity, a column
filling three bits with odd parity.  The first two bits are free and the
third is determined, so outcomes are indexed a = 2*t0 + t1 and
b = 2*u0 + u1, lexicographic in the free bits.  The game pays 1/9 when
Alice's bit in column y equals Bob's bit in row x.
"""

from __future__ import annotations

import numpy as np

from .core import BellFunctional, Scenario, checked_int
from .errors import ValidationError


def chsh_functional() -> BellFunctional:
    """Correlation game coefficients (-1)^(a + b + x*y) on the 2x2x2x2 scenario."""
    s = Scenario(2, 2, 2, 2)
    x, y, a, b = np.ogrid[0:2, 0:2, 0:2, 0:2]
    coeffs = np.where((a + b + x * y) % 2 == 0, 1.0, -1.0)
    return BellFunctional(s, coeffs)


def magic_square_row_bits(a: int) -> tuple[int, int, int]:
    """Decode Alice outcome a into an even-parity row filling."""
    t0, t1 = (a >> 1) & 1, a & 1
    return t0, t1, t0 ^ t1


def magic_square_column_bits(b: int) -> tuple[int, int, int]:
    """Decode Bob outcome b into an odd-parity column filling."""
    u0, u1 = (b >> 1) & 1, b & 1
    return u0, u1, u0 ^ u1 ^ 1


def magic_square_functional() -> BellFunctional:
    """The 3-input, 4-outcome magic square game, coefficients 1/9 per win."""
    rows = np.array([magic_square_row_bits(a) for a in range(4)])  # rows[a, y]
    cols = np.array([magic_square_column_bits(b) for b in range(4)])  # cols[b, x]
    win = rows.T[None, :, :, None] == cols.T[:, None, None, :]  # win[x, y, a, b]
    return BellFunctional(Scenario(3, 3, 4, 4), np.where(win, 1.0 / 9.0, 0.0))


def game_functional(weights: np.ndarray, win: np.ndarray) -> BellFunctional:
    """Functional of a generic game: input weights times the win predicate.

    ``weights`` has shape (Na, Nb) with finite nonnegative entries
    summing to one; ``win`` is a 0/1 tensor of shape (Na, Nb, Ma, Mb).
    """
    try:
        win = np.asarray(win, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"weights and win predicate must be numeric arrays: {e}") from e
    if win.ndim != 4:
        raise ValidationError(f"win predicate must be a 4-index tensor, got {win.ndim} indices")
    if weights.shape != win.shape[:2]:
        raise ValidationError(
            f"weights shape {weights.shape} does not match win inputs {win.shape[:2]}"
        )
    if not np.all(np.isfinite(weights)) or np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > 1e-9:
        raise ValidationError("input weights must be nonnegative and sum to 1")
    if not np.isin(win, (0.0, 1.0)).all():
        raise ValidationError("win predicate entries must be 0 or 1")
    s = Scenario(*win.shape)
    return BellFunctional(s, weights[:, :, None, None] * win)


def random_functional(n_inputs_a: int, n_inputs_b: int, n_outputs_a: int,
                      n_outputs_b: int, seed: int) -> BellFunctional:
    """I.i.d. standard normal coefficients from a fixed seed."""
    s = Scenario(n_inputs_a, n_inputs_b, n_outputs_a, n_outputs_b)
    rng = np.random.default_rng(checked_int(seed, "seed", 0))
    return BellFunctional(s, rng.standard_normal(s.shape))


def random_correlation_functional(n_inputs: int, seed: int) -> BellFunctional:
    """Two-outcome correlation-type coefficients s_xy * (-1)^(a+b), s_xy = +-1."""
    s = Scenario(n_inputs, n_inputs, 2, 2)
    rng = np.random.default_rng(checked_int(seed, "seed", 0))
    signs = rng.choice([-1.0, 1.0], size=(n_inputs, n_inputs))
    a, b = np.ogrid[0:2, 0:2]
    parity = np.where((a + b) % 2 == 0, 1.0, -1.0)
    return BellFunctional(s, signs[:, :, None, None] * parity[None, None, :, :])
