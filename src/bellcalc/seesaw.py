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

from dataclasses import dataclass

import numpy as np

from .classical import classical_floor
from .core import (
    BellFunctional,
    COMPLETE,
    INCOMPLETE,
    QuantumModel,
    behavior_from_quantum,
    checked_int,
    hermitian_part,
    pair,
    require_valid,
    validate,
)
from .errors import GuardExceededError, SolverError, ValidationError
from .numerics import complete_povms, eigh, povm_update, psd_project, random_povms

# Joint-space dimension cap, checked where a config is made; the Bell
# operator is dense (da*db)^2.
MAX_JOINT_DIM = 4096

# Largest sum of |T| the see-saw takes, checked before any sweep.  POVM
# elements and partial traces of a state have norm at most 1, so every
# entry of the Bell and reduced operators is at most sum |T|; povm_update
# squares reduced operators shifted to norm at most 2 sum |T| and adds them
# over outcomes, which stays below 4e300 times the outcome count: finite.
MAX_COEFF_SUM = 1e150


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
        for name, low in (("dim", 1), ("seeds", 1), ("max_sweeps", 1), ("rng_seed", 0)):
            object.__setattr__(self, name, checked_int(getattr(self, name), name, low))
        if not (self.tol > 0.0):
            raise ValidationError("tol must be positive")
        if self.mode not in (COMPLETE, INCOMPLETE):
            raise ValidationError(f"mode must be {COMPLETE!r} or {INCOMPLETE!r}")
        if self.dim * self.dim > MAX_JOINT_DIM:
            raise GuardExceededError(
                f"joint dimension {self.dim}^2 exceeds the cap of {MAX_JOINT_DIM}"
            )


@dataclass(frozen=True, eq=False)
class SeesawResult:
    """Best model over all seeds and both signs, or the padded classical floor
    when it beats them, with its recomputed value |<T, Q(model)>|, the winning
    run's monotone sweep log (empty for the floor), and the per-seed best values.
    """

    value: float
    model: QuantumModel
    converged: bool
    sweeps_used: int
    per_seed_values: tuple[float, ...]
    sweep_log: tuple[float, ...]


def bell_operator(functional: BellFunctional, alice_povms, bob_povms) -> np.ndarray:
    """B = sum T[x,y,a,b] E_a^x tensor F_b^y over (inputs, outcomes, d, d)
    POVM stacks, Hermitian by construction."""
    na, ma, da, _ = alice_povms.shape
    nb, mb, db, _ = bob_povms.shape
    if functional.scenario.shape != (na, nb, ma, mb):
        raise ValidationError(
            f"POVM layout {(na, nb, ma, mb)} does not match scenario "
            f"{functional.scenario.shape}"
        )
    op = np.einsum("xyab,xaij,ybkl->ikjl", functional.coeffs, alice_povms, bob_povms, optimize=True)
    return hermitian_part(op.reshape(da * db, da * db))


def reduced_operators(functional: BellFunctional, state: np.ndarray,
                      other_povms: np.ndarray, party: str) -> np.ndarray:
    """Reduced operators R_a^x of one party, as an (inputs, outcomes, d, d) stack.

    They satisfy sum_{x,a} tr(E_a^x R_a^x) = <T, Q> for every POVM set
    of the named party, with the other party's POVM stack and the state
    held fixed.  Hermitized so the defining identity holds for Hermitian E.
    Bob's are Alice's formula applied to the functional with the parties
    swapped and the state indexed Bob-major.
    """
    coeffs, d_other = functional.coeffs, other_povms.shape[-1]
    d = state.shape[0] // d_other
    if party == "alice":
        rho4 = state.reshape(d, d_other, d, d_other)
    elif party == "bob":
        coeffs = coeffs.transpose(1, 0, 3, 2)
        rho4 = state.reshape(d_other, d, d_other, d).transpose(1, 0, 3, 2)
    else:
        raise ValidationError(f"party must be 'alice' or 'bob', got {party!r}")
    # partial trace over the other party of (1 tensor F) rho
    partial = np.einsum("ybkc,icjk->ybij", other_povms, rho4, optimize=True)
    return hermitian_part(np.einsum("xyab,ybij->xaij", coeffs, partial, optimize=True))


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    # A run's first sweep replaces this state before reading it; the draw is
    # kept only so that the POVMs drawn after it keep their RNG stream.
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _random_model(rng: np.random.Generator, scenario, dim: int, mode: str) -> QuantumModel:
    na, nb, ma, mb = scenario.shape
    return QuantumModel(
        dim, dim,
        _random_state(rng, dim * dim),
        random_povms(rng, na, ma, dim),
        random_povms(rng, nb, mb, dim),
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
        big = np.zeros(povms.shape[:2] + (dim, dim), dtype=np.complex128)
        big[..., :old_dim, :old_dim] = povms
        if model.completeness == COMPLETE:
            fill = np.zeros((dim, dim), dtype=np.complex128)
            fill[old_dim:, old_dim:] = np.eye(dim - old_dim)
            # added, not assigned: a -0.0 entry of outcome 0 becomes +0.0
            big[:, 0] = big[:, 0] + fill
        return big

    return QuantumModel(dim, dim, state, pad_side(model.alice_povms, da),
                        pad_side(model.bob_povms, db), completeness=model.completeness)


def _one_run(functional: BellFunctional, cfg: SeesawConfig, model: QuantumModel):
    """Sweep one model to a stall; returns (value, model, log, converged, sweeps)."""
    alice = np.array(model.alice_povms)  # writable copies, updated input by input
    bob = np.array(model.bob_povms)
    log = []
    prev = -np.inf
    converged = False
    sweeps = 0
    for sweeps in range(1, cfg.max_sweeps + 1):
        op = bell_operator(functional, alice, bob)
        top = eigh(op)[1][:, -1]
        state = np.outer(top, top.conj())
        # Alice, then Bob against her new POVMs; the sweep's value is Bob's
        # sum.  Loose inner stop: the outer sweeps re-solve every sub-step.
        for party, povms, other in (("alice", alice, bob), ("bob", bob, alice)):
            value = 0.0
            for x, reduced in enumerate(reduced_operators(functional, state, other, party)):
                upd = povm_update(reduced, cfg.mode, warm_start=povms[x], gain_tol=1e-10)
                povms[x] = upd.operators
                value += upd.objective
        log.append(value)
        if value - prev < cfg.tol:
            converged = True
            break
        prev = value
    out = QuantumModel(cfg.dim, cfg.dim, state, alice, bob, completeness=cfg.mode)
    if not validate(out):
        return log[-1], out, log, converged, sweeps
    # the POVM fixed point can end on elements that are not PSD: repair them
    # once, with no further sweep, and value the run from the repaired model
    out = _repaired(out)
    return _checked_value(functional, out), out, log, converged, sweeps


def _repaired(model: QuantumModel) -> QuantumModel:
    """The model with every POVM element projected to PSD, then completed by
    complete_povms, or in incomplete mode each input's sum S shrunk to at most
    I by T = S^(-1/2) on the directions where S > 1 (T E T, T = I elsewhere)."""
    def repair(povms):
        blocks = psd_project(povms)
        if model.completeness == COMPLETE:
            return complete_povms(blocks)
        w, v = eigh(sum(blocks.swapaxes(0, 1)))
        t = ((v / np.sqrt(np.maximum(w, 1.0))[:, None, :]) @ v.conj().swapaxes(-1, -2))[:, None]
        return hermitian_part(t @ blocks @ t)

    return QuantumModel(model.dim_a, model.dim_b, model.state, repair(model.alice_povms),
                        repair(model.bob_povms), completeness=model.completeness)


def _checked_value(functional: BellFunctional, model: QuantumModel) -> float:
    """<T, Q(model)> of a model the see-saw made; SolverError if it breaks an invariant."""
    try:
        behavior = behavior_from_quantum(model)
    except ValidationError as e:  # the see-saw made this model, not the caller
        raise SolverError(f"see-saw ended on an invalid model: {e}") from None
    return pair(functional, behavior)


def seesaw(functional: BellFunctional, cfg: SeesawConfig,
           init_models: tuple[QuantumModel, ...] = ()) -> SeesawResult:
    """Best-effort lower bound on sup |<T, Q>| at local dimension cfg.dim.

    ``init_models`` replace the random initialization of the first seeds
    (both sign runs start from the given model).  The reported value is
    recomputed from the returned model, so the invariant
    value == |pair(T, behavior_from_quantum(model))| holds to 1e-9.
    A run that ends on invalid POVMs is valued from its _repaired model.
    The floor is classical_floor's d = 1 model, padded to cfg.dim by
    pad_quantum_model and valued like a run's; when its value is strictly
    above the best run's, it is the result, with sweeps_used 0, an empty
    sweep_log and converged True, and the runs' per-seed values stay.
    The floor is skipped where the classical oracle exceeds its guard.
    A functional whose sum |T| exceeds MAX_COEFF_SUM (or is not finite) or
    an init model that breaks an invariant raises ValidationError; a
    returned model that would break one raises SolverError.
    """
    scenario = functional.scenario
    total = float(np.sum(np.abs(functional.coeffs) / MAX_COEFF_SUM))  # cannot overflow
    if not total <= 1.0:  # NaN fails it too
        raise ValidationError(f"the see-saw takes functionals with sum |T| <= "
                              f"{MAX_COEFF_SUM:.0e}, this one has {total * MAX_COEFF_SUM:.3g}")
    for m in init_models:
        if m.dim_a != cfg.dim or m.dim_b != cfg.dim:
            raise ValidationError("init model dimension does not match cfg.dim")
        if m.scenario != scenario:
            raise ValidationError("init model scenario does not match the functional")
        require_valid(m, "init model violates invariants")
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
    floor = classical_floor(functional, cfg.mode)
    if floor is not None:  # one more candidate, kept only when it beats every run
        floor = pad_quantum_model(floor, cfg.dim)
        if abs(_checked_value(functional, floor)) > value:
            model, log, converged, sweeps = floor, (), True, 0
    return SeesawResult(abs(_checked_value(functional, model)), model, converged, sweeps,
                        tuple(per_seed), tuple(log))

