"""Alternating optimization of quantum models at fixed local dimension.

Lower-bounds sup |<T, Q>| over dimension-d quantum behaviors by cycling
three exactly-solvable sub-steps: the state moves to the top eigenvector
of the current Bell operator, then each party's POVMs are re-optimized
against their reduced operators input by input.  Every sub-step can only
raise the objective, so each seed produces a monotone value sequence.
The whole procedure runs on T and on -T and keeps the larger value,
which implements the absolute value in the target.

Seeds are independent restarts with per-seed RNG streams; one seed may
instead be warm-started from a caller-provided model, which is how
dimension chains reuse the best model found one dimension lower.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Behavior,
    BellFunctional,
    COMPLETE,
    INCOMPLETE,
    QuantumModel,
    behavior_from_quantum,
    hermitian_part,
    pair,
)
from .errors import GuardExceededError, UndefinedQuantityError, ValidationError
from .classical import classical_value
from .numerics import _inv_sqrt_psd, eigh, povm_update, psd_project

# Joint-space dimension cap; the Bell operator is dense (da*db)^2.
MAX_JOINT_DIM = 4096


@dataclass(frozen=True)
class SeesawConfig:
    """Knobs of one see-saw run.  ``dim`` is the local dimension used by
    both parties; ``tol`` is the sweep-gain stopping threshold."""

    dim: int
    seeds: int = 20
    max_sweeps: int = 2000
    tol: float = 1e-9
    rng_seed: int = 0
    mode: str = COMPLETE

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        if self.seeds < 1:
            raise ValidationError("seeds must be >= 1")
        if self.max_sweeps < 1:
            raise ValidationError("max_sweeps must be >= 1")
        if not (self.tol > 0.0):
            raise ValidationError("tol must be positive")
        if self.mode not in (COMPLETE, INCOMPLETE):
            raise ValidationError(f"mode must be {COMPLETE!r} or {INCOMPLETE!r}")


@dataclass(frozen=True, eq=False)
class SeesawResult:
    """Best model over all

    seeds and both signs, with its recomputed value |<T, Q(model)>|,
    the winning run's monotone sweep log, and the per-seed best values.
    """

    value: float
    model: QuantumModel
    converged: bool
    sweeps_used: int
    per_seed_values: tuple[float, ...]
    sweep_log: tuple[float, ...]


def bell_operator(functional: BellFunctional, alice_povms, bob_povms) -> np.ndarray:
    """B = sum T[x,y,a,b] E_a^x tensor F_b^y, Hermitian by construction."""
    es = np.stack([np.stack(list(p)) for p in alice_povms])
    fs = np.stack([np.stack(list(p)) for p in bob_povms])
    na, ma, da, _ = es.shape
    nb, mb, db, _ = fs.shape
    if functional.scenario.shape != (na, nb, ma, mb):
        raise ValidationError(
            f"POVM layout {(na, nb, ma, mb)} does not match scenario "
            f"{functional.scenario.shape}"
        )
    op = np.einsum("xyab,xaij,ybkl->ikjl", functional.coeffs, es, fs, optimize=True)
    return hermitian_part(op.reshape(da * db, da * db))


def reduced_operators(functional: BellFunctional, state: np.ndarray,
                      other_povms, party: str) -> list[list[np.ndarray]]:
    """Per-input reduced operators R_a^x for one party.

    They satisfy sum_{x,a} tr(E_a^x R_a^x) = <T, Q> for every POVM set
    of the named party, with the other party's POVMs and the state held
    fixed.  Hermitized so the defining identity holds for Hermitian E.
    """
    coeffs = functional.coeffs
    os_ = np.stack([np.stack(list(p)) for p in other_povms])
    if party == "alice":
        nb, mb, db, _ = os_.shape
        da = state.shape[0] // db
        rho4 = state.reshape(da, db, da, db)
        # partial trace over Bob of (1 tensor F) rho
        partial = np.einsum("ybkc,icjk->ybij", os_, rho4, optimize=True)
        raw = np.einsum("xyab,ybij->xaij", coeffs, partial, optimize=True)
    elif party == "bob":
        na, ma, da, _ = os_.shape
        db = state.shape[0] // da
        rho4 = state.reshape(da, db, da, db)
        partial = np.einsum("xaic,ckil->xakl", os_, rho4, optimize=True)
        raw = np.einsum("xyab,xakl->ybkl", coeffs, partial, optimize=True)
    else:
        raise ValidationError(f"party must be 'alice' or 'bob', got {party!r}")
    raw = hermitian_part(raw)
    return [[raw[x, a] for a in range(raw.shape[1])] for x in range(raw.shape[0])]


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _random_povm(rng: np.random.Generator, dim: int, n_out: int) -> list[np.ndarray]:
    blocks = []
    for _ in range(n_out):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(psd_project(hermitian_part(g)))
    inv_sqrt = _inv_sqrt_psd(hermitian_part(sum(blocks)))
    els = [hermitian_part(inv_sqrt @ b @ inv_sqrt) for b in blocks]
    # the conjugation leaves the discarded subspace empty; spread it evenly
    defect = np.eye(dim) - sum(els)
    return [hermitian_part(e + defect / n_out) for e in els]


def _random_model(rng: np.random.Generator, scenario, dim: int, mode: str) -> QuantumModel:
    na, nb, ma, mb = scenario.shape
    return QuantumModel(
        dim, dim,
        _random_state(rng, dim * dim),
        tuple(tuple(_random_povm(rng, dim, ma)) for _ in range(na)),
        tuple(tuple(_random_povm(rng, dim, mb)) for _ in range(nb)),
        completeness=mode,
    )


def pad_quantum_model(model: QuantumModel, dim: int) -> QuantumModel:
    """Embed a model into a larger local dimension by zero-padding.

    The behavior is unchanged.  In complete mode the identity deficit on
    the new directions is absorbed into outcome 0 of every input.
    """
    da, db = model.dim_a, model.dim_b
    if dim < max(da, db):
        raise ValidationError(f"target dimension {dim} is below the model's {max(da, db)}")
    rho4 = np.zeros((dim, dim, dim, dim), dtype=np.complex128)
    rho4[:da, :db, :da, :db] = model.state.reshape(da, db, da, db)
    state = rho4.reshape(dim * dim, dim * dim)

    def pad_side(povms, old_dim):
        fill = np.zeros((dim, dim), dtype=np.complex128)
        fill[old_dim:, old_dim:] = np.eye(dim - old_dim)
        out = []
        for povm in povms:
            padded = []
            for i, el in enumerate(povm):
                big = np.zeros((dim, dim), dtype=np.complex128)
                big[:old_dim, :old_dim] = el
                if i == 0 and model.completeness == COMPLETE:
                    big = big + fill
                padded.append(big)
            out.append(tuple(padded))
        return tuple(out)

    return QuantumModel(dim, dim, state, pad_side(model.alice_povms, da),
                        pad_side(model.bob_povms, db), completeness=model.completeness)


def _one_run(functional: BellFunctional, cfg: SeesawConfig, model: QuantumModel):
    """Sweep one model to a stall; returns (value, model, log, converged, sweeps)."""
    alice = [list(p) for p in model.alice_povms]
    bob = [list(p) for p in model.bob_povms]
    state = np.asarray(model.state)
    log = []
    prev = -np.inf
    converged = False
    sweeps = 0
    for sweeps in range(1, cfg.max_sweeps + 1):
        op = bell_operator(functional, alice, bob)
        dec = eigh(op)
        top = dec.vectors[:, -1]
        state = np.outer(top, top.conj())
        # loose inner stop: the outer sweeps re-solve every sub-step anyway
        for x, reduced in enumerate(reduced_operators(functional, state, bob, "alice")):
            upd = povm_update(reduced, cfg.mode, warm_start=alice[x], gain_tol=1e-10)
            alice[x] = list(upd.operators)
        value = 0.0
        for y, reduced in enumerate(reduced_operators(functional, state, alice, "bob")):
            upd = povm_update(reduced, cfg.mode, warm_start=bob[y], gain_tol=1e-10)
            bob[y] = list(upd.operators)
            value += upd.objective
        log.append(value)
        if value - prev < cfg.tol:
            converged = True
            break
        prev = value
    out = QuantumModel(cfg.dim, cfg.dim, state,
                       tuple(tuple(p) for p in alice),
                       tuple(tuple(p) for p in bob),
                       completeness=cfg.mode)
    return log[-1], out, log, converged, sweeps


def seesaw(functional: BellFunctional, cfg: SeesawConfig,
           init_models: tuple[QuantumModel, ...] = ()) -> SeesawResult:
    """Best-effort lower bound on sup |<T, Q>| at local dimension cfg.dim.

    ``init_models`` replace the random initialization of the first seeds
    (both sign runs start from the given model).  The reported value is
    recomputed from the returned model, so the invariant
    value == |pair(T, behavior_from_quantum(model))| holds to 1e-9.
    """
    if cfg.dim * cfg.dim > MAX_JOINT_DIM:
        raise GuardExceededError(
            f"joint dimension {cfg.dim}^2 exceeds the cap of {MAX_JOINT_DIM}"
        )
    scenario = functional.scenario
    for m in init_models:
        if m.dim_a != cfg.dim or m.dim_b != cfg.dim:
            raise ValidationError("init model dimension does not match cfg.dim")
        if m.scenario != scenario:
            raise ValidationError("init model scenario does not match the functional")
    neg = BellFunctional(scenario, -functional.coeffs)
    best = None  # (value, model, log, converged, sweeps)
    per_seed = []
    for seed_idx in range(cfg.seeds):
        seed_best = -np.inf
        for sign_idx, target in enumerate((functional, neg)):
            if seed_idx < len(init_models):
                model = init_models[seed_idx]
            else:
                rng = np.random.default_rng((cfg.rng_seed, seed_idx, sign_idx))
                model = _random_model(rng, scenario, cfg.dim, cfg.mode)
            run = _one_run(target, cfg, model)
            seed_best = max(seed_best, run[0])
            if best is None or run[0] > best[0]:
                best = run
        per_seed.append(seed_best)
    value, model, log, converged, sweeps = best
    behavior = behavior_from_quantum(model)
    final = abs(pair(functional, behavior))
    return SeesawResult(final, model, converged, sweeps, tuple(per_seed), tuple(log))


def quantum_ratio(functional: BellFunctional, cfg: SeesawConfig) -> float:
    """seesaw value divided by the exact classical value.

    Undefined (raises) when the classical value is zero.
    """
    cv = classical_value(functional)
    if cv == 0.0:
        raise UndefinedQuantityError("quantum/classical ratio is undefined: classical value is 0")
    return seesaw(functional, cfg).value / cv
