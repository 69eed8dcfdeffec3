"""Core value types for two-party Bell scenarios.

A scenario fixes the number of measurement settings (inputs) and outcomes
(outputs) per party.  On top of it live real coefficient tensors
(functionals), conditional probability tensors (behaviors), and the two
model classes that generate behaviors: mixtures of deterministic
strategies, and quantum states measured with POVMs.

Tensors are always indexed ``[x][y][a][b]``: Alice input, Bob input,
Alice output, Bob output.  Behaviors and models come in a complete
flavor (each (x,y) block is a probability distribution, POVMs sum to the
identity) and an incomplete one (mass at most one, POVM sums below the
identity).  The incomplete variants are first-class citizens here, not
error states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScenarioMismatchError, ValidationError

# Numerical slack accepted when validating probabilities, traces, POVM
# sums and weights.  Chosen once; everything downstream quotes it.
EPS_FEAS = 1e-9

# A behavior is treated as no-signaling when the worst marginal
# discrepancy stays below this.
NS_TOL = 1e-8

# Largest imaginary residue tolerated when a quantum expectation is cast
# to a real probability.
IMAG_TOL = 1e-9

COMPLETE = "complete"
INCOMPLETE = "incomplete"


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """0.5 * (M + M^dagger), broadcast over leading axes."""
    m = np.asarray(m)
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def checked_int(value, what: str, low: int) -> int:
    """``value`` as an int when it is an int or numpy integer, never a bool, and
    at least ``low``; ValidationError naming ``what`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValidationError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Scenario:
    """Input/output counts for the two parties.  All counts >= 1."""

    n_inputs_a: int
    n_inputs_b: int
    n_outputs_a: int
    n_outputs_b: int

    def __post_init__(self):
        for name in ("n_inputs_a", "n_inputs_b", "n_outputs_a", "n_outputs_b"):
            object.__setattr__(self, name, checked_int(getattr(self, name), f"scenario field {name}", 1))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (self.n_inputs_a, self.n_inputs_b, self.n_outputs_a, self.n_outputs_b)

    @property
    def n_entries(self) -> int:
        return self.n_inputs_a * self.n_inputs_b * self.n_outputs_a * self.n_outputs_b

    def alice_strategy_count(self) -> int:
        return self.n_outputs_a ** self.n_inputs_a

    def bob_strategy_count(self) -> int:
        return self.n_outputs_b ** self.n_inputs_b


def _coerce_tensor(scenario: Scenario, data, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.shape != scenario.shape:
        raise ValidationError(
            f"{what} tensor shape {arr.shape} does not match scenario {scenario.shape}"
        )
    return _readonly(arr.copy())


@dataclass(frozen=True, eq=False)
class BellFunctional:
    """Real coefficient tensor T[x][y][a][b] over a scenario."""

    scenario: Scenario
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coerce_tensor(self.scenario, self.coeffs, "coefficient"))


@dataclass(frozen=True, eq=False)
class Behavior:
    """Conditional probability tensor p(a,b|x,y), possibly subnormalized.

    ``completeness`` records whether each (x,y) block should sum to one
    (``complete``) or merely to at most one (``incomplete``).
    """

    scenario: Scenario
    probs: np.ndarray
    completeness: str = COMPLETE

    def __post_init__(self):
        if self.completeness not in (COMPLETE, INCOMPLETE):
            raise ValidationError(f"completeness must be {COMPLETE!r} or {INCOMPLETE!r}")
        object.__setattr__(self, "probs", _coerce_tensor(self.scenario, self.probs, "probability"))

    @property
    def is_complete(self) -> bool:
        return self.completeness == COMPLETE


def clipped_behavior(scenario: Scenario, probs: np.ndarray, completeness: str) -> Behavior:
    """Build a Behavior, zeroing entries in [-EPS_FEAS, 0).

    Entries below -EPS_FEAS are left alone so that validate() can report
    them; factories that guarantee nonnegativity use this to absorb
    floating-point dust.
    """
    probs = np.asarray(probs, dtype=np.float64).copy()
    tiny = (probs < 0.0) & (probs >= -EPS_FEAS)
    probs[tiny] = 0.0
    return Behavior(scenario, probs, completeness)


@dataclass(frozen=True)
class DeterministicStrategy:
    """A pair of deterministic response functions, one output per input."""

    alice_outputs: tuple[int, ...]
    bob_outputs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alice_outputs", tuple(int(v) for v in self.alice_outputs))
        object.__setattr__(self, "bob_outputs", tuple(int(v) for v in self.bob_outputs))

    def check_against(self, scenario: Scenario) -> None:
        parties = (("Alice", self.alice_outputs, scenario.n_inputs_a, scenario.n_outputs_a),
                   ("Bob", self.bob_outputs, scenario.n_inputs_b, scenario.n_outputs_b))
        for name, outputs, n_in, _ in parties:
            if len(outputs) != n_in:
                raise ValidationError(f"strategy defines {len(outputs)} {name} outputs, "
                                      f"scenario has {n_in} inputs")
        for name, outputs, _, n_out in parties:
            if any(o < 0 or o >= n_out for o in outputs):
                raise ValidationError(f"{name} outputs {outputs} out of range")


@dataclass(frozen=True)
class LocalModel:
    """Convex weights over deterministic strategies.

    Total weight 1 (complete) or below 1 (incomplete); the deficit is
    unexplained mass, not an error.
    """

    weights: tuple[tuple[float, DeterministicStrategy], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "weights",
            tuple((float(w), s) for w, s in self.weights),
        )

    @property
    def total_weight(self) -> float:
        return float(sum(w for w, _ in self.weights))

    @property
    def completeness(self) -> str:
        return COMPLETE if self.total_weight >= 1.0 - EPS_FEAS else INCOMPLETE


@dataclass(frozen=True, eq=False)
class QuantumModel:
    """Shared state plus per-input POVMs for both parties.

    ``state`` is a density matrix on the (dim_a * dim_b)-dimensional
    joint space, basis ordered Alice-major (index i*dim_b + k).
    ``alice_povms`` is one read-only complex array of shape
    (inputs, outcomes, dim_a, dim_a): ``alice_povms[x, a]`` is the POVM
    element of input x and outcome a; likewise for Bob.  Any nested
    sequence of that shape is accepted and coerced.
    """

    dim_a: int
    dim_b: int
    state: np.ndarray
    alice_povms: np.ndarray
    bob_povms: np.ndarray
    completeness: str = COMPLETE

    def __post_init__(self):
        if self.completeness not in (COMPLETE, INCOMPLETE):
            raise ValidationError(f"completeness must be {COMPLETE!r} or {INCOMPLETE!r}")
        da, db = int(self.dim_a), int(self.dim_b)
        if da < 1 or db < 1:
            raise ValidationError("local dimensions must be >= 1")
        object.__setattr__(self, "dim_a", da)
        object.__setattr__(self, "dim_b", db)
        state = np.asarray(self.state, dtype=np.complex128)
        if state.shape != (da * db, da * db):
            raise ValidationError(
                f"state has shape {state.shape}, expected ({da * db}, {da * db})"
            )
        object.__setattr__(self, "state", _readonly(state.copy()))
        for name, dim in (("alice_povms", da), ("bob_povms", db)):
            try:
                stack = np.array(getattr(self, name), dtype=np.complex128)
            except ValueError:
                raise ValidationError(f"{name}: every input must carry the same number of "
                                      f"outcomes, each a ({dim}, {dim}) matrix") from None
            if stack.ndim != 4 or 0 in stack.shape[:2] or stack.shape[2:] != (dim, dim):
                raise ValidationError(
                    f"{name} has shape {stack.shape}, expected (inputs, outcomes, {dim}, {dim}) "
                    "with at least one input and one outcome"
                )
            object.__setattr__(self, name, _readonly(stack))

    @property
    def scenario(self) -> Scenario:
        na, ma = self.alice_povms.shape[:2]
        nb, mb = self.bob_povms.shape[:2]
        return Scenario(na, nb, ma, mb)


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant: which constraint, where, and by how much."""

    constraint: str
    location: str
    slack: float

    def __str__(self):
        return f"{self.constraint} at {self.location}: slack {self.slack:.3g}"


@dataclass(frozen=True)
class NoSignalingResult:
    ok: bool
    max_residual: float
    location: str


def pair(functional: BellFunctional, behavior: Behavior) -> float:
    """Bilinear pairing <T, P> = sum_xyab T[x,y,a,b] * p(a,b|x,y)."""
    if functional.scenario != behavior.scenario:
        raise ScenarioMismatchError(
            f"functional scenario {functional.scenario.shape} vs "
            f"behavior scenario {behavior.scenario.shape}"
        )
    return float(np.sum(functional.coeffs * behavior.probs))


def behavior_from_local(model: LocalModel, scenario: Scenario) -> Behavior:
    """Mix the deterministic behaviors of a local model.

    Raises ValidationError for negative weights, total weight above one,
    or strategies that do not fit the scenario.
    """
    require_valid(model, "local model violates invariants")
    probs = np.zeros(scenario.shape)
    x, y = np.ix_(range(scenario.n_inputs_a), range(scenario.n_inputs_b))
    for w, strat in model.weights:
        strat.check_against(scenario)
        if w > 0.0:  # one entry per (x, y), so the fancy-indexed add has no repeats
            probs[x, y, np.array(strat.alice_outputs)[:, None], np.array(strat.bob_outputs)] += w
    return clipped_behavior(scenario, probs, model.completeness)


def behavior_from_quantum(model: QuantumModel) -> Behavior:
    """Evaluate p(a,b|x,y) = tr(rho (E_a^x tensor F_b^y)).

    The model is validated first; imaginary residues above IMAG_TOL are
    rejected rather than silently discarded.
    """
    require_valid(model, "quantum model violates invariants")
    da, db = model.dim_a, model.dim_b
    rho4 = model.state.reshape(da, db, da, db)
    # tr(rho (E tensor F)) = sum E[i,j] F[k,l] rho4[j,l,i,k]
    raw = np.einsum("xaij,ybkl,jlik->xyab", model.alice_povms, model.bob_povms, rho4, optimize=True)
    worst_imag = float(np.max(np.abs(raw.imag))) if raw.size else 0.0
    if worst_imag > IMAG_TOL:
        raise ValidationError(f"imaginary residue {worst_imag:.3g} exceeds {IMAG_TOL}")
    scenario = model.scenario
    return clipped_behavior(scenario, raw.real, model.completeness)


def _hermitian_psd_defects(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian defect and lowest eigenvalue of every (d, d) slice of a
    stack; the eigenvalue, of the Hermitian part, is taken only where the
    defect does not exceed EPS_FEAS, and is 0 elsewhere."""
    herm = np.max(np.abs(stack - stack.conj().swapaxes(-1, -2)), axis=(-2, -1))
    low = np.zeros(herm.shape)
    checked = ~(herm > EPS_FEAS)  # a NaN defect goes on to the eigenvalues
    low[checked] = np.linalg.eigvalsh(hermitian_part(stack[checked]))[:, 0]
    return herm, low


def _hermitian_psd_report(herm, low, location: str) -> list[InvariantViolation]:
    if herm > EPS_FEAS:
        return [InvariantViolation("hermitian", location, float(herm))]
    if low < -EPS_FEAS:
        return [InvariantViolation("positive semidefinite", location, float(-low))]
    return []


def _finite_report(name: str, array: np.ndarray) -> list[InvariantViolation]:
    """A "finite entries" violation at the first NaN or infinite entry, if any."""
    return [InvariantViolation("finite entries", f"{name}{[int(v) for v in idx]}", float("inf"))
            for idx in np.argwhere(~np.isfinite(array))[:1]]


def validate(obj) -> tuple[InvariantViolation, ...]:
    """Check the invariants of any core object; empty tuple means clean."""
    out: list[InvariantViolation] = []
    if isinstance(obj, BellFunctional):
        out += _finite_report("coeffs", obj.coeffs)
    elif isinstance(obj, Behavior):
        probs = obj.probs
        out += _finite_report("probs", probs)
        if out:
            return tuple(out)
        out += [InvariantViolation("nonnegative probability", f"probs[{x}][{y}][{a}][{b}]",
                                   float(-probs[x, y, a, b]))
                for x, y, a, b in np.argwhere(probs < -EPS_FEAS)]
        sums = probs.sum(axis=(2, 3))
        if obj.is_complete:
            name, slack = "block mass = 1", np.abs(sums - 1.0)
            bad = slack > EPS_FEAS
        else:
            name, slack = "block mass <= 1", sums - 1.0
            bad = sums > 1.0 + EPS_FEAS
        out += [InvariantViolation(name, f"(x={x}, y={y})", float(slack[x, y]))
                for x, y in np.argwhere(bad)]
    elif isinstance(obj, LocalModel):
        for i, (w, _) in enumerate(obj.weights):
            if w < -EPS_FEAS:
                out.append(InvariantViolation("nonnegative weight", f"weights[{i}]", float(-w)))
        total = obj.total_weight
        if total > 1.0 + EPS_FEAS:
            out.append(InvariantViolation("total weight <= 1", "weights", total - 1.0))
    elif isinstance(obj, QuantumModel):
        out += [v for name in ("state", "alice_povms", "bob_povms")
                for v in _finite_report(name, getattr(obj, name))]
        if out:
            return tuple(out)
        herm, low = _hermitian_psd_defects(obj.state[None])
        out += _hermitian_psd_report(herm[0], low[0], "state")
        tr = float(np.trace(obj.state).real)
        if abs(tr - 1.0) > EPS_FEAS:
            out.append(InvariantViolation("unit trace", "state", abs(tr - 1.0)))
        complete = obj.completeness == COMPLETE
        for party, povms in (("alice", obj.alice_povms), ("bob", obj.bob_povms)):
            herm, low = _hermitian_psd_defects(povms)
            totals = sum(povms.swapaxes(0, 1))  # per input, the outcomes added in order
            if complete:
                dev = np.max(np.abs(totals - np.eye(totals.shape[-1])), axis=(-2, -1))
            else:
                top = np.linalg.eigvalsh(hermitian_part(totals))[:, -1]
            for x in range(povms.shape[0]):
                for a in range(povms.shape[1]):
                    out += _hermitian_psd_report(herm[x, a], low[x, a], f"{party} POVM[{x}][{a}]")
                if complete and dev[x] > EPS_FEAS:
                    out.append(InvariantViolation("POVM sums to identity", f"{party} input {x}",
                                                  float(dev[x])))
                elif not complete and top[x] > 1.0 + EPS_FEAS:
                    out.append(InvariantViolation("POVM sum below identity", f"{party} input {x}",
                                                  float(top[x] - 1.0)))
    else:
        raise TypeError(f"validate() does not handle {type(obj).__name__}")
    return tuple(out)


def require_valid(obj, message: str) -> None:
    """Raise ValidationError(message, report) when validate(obj) reports anything."""
    report = validate(obj)
    if report:
        raise ValidationError(message, report)


def no_signaling_check(behavior: Behavior) -> NoSignalingResult:
    """Worst marginal discrepancy across the two no-signaling conditions.

    Alice's marginal of p must not depend on Bob's input and vice versa.
    Only defined for complete behaviors.
    """
    if not behavior.is_complete:
        raise ValidationError("no-signaling check is undefined for incomplete behaviors")
    probs = behavior.probs
    # marg[x, a, y] = sum_b p(ab|xy), spread across y must vanish; Bob's likewise
    margins = (("alice", "xa", probs.sum(axis=3).transpose(0, 2, 1)),
               ("bob", "yb", probs.sum(axis=2).transpose(1, 2, 0)))
    worst = 0.0
    location = ""
    for party, (i, o), marg in margins:  # strict >: Alice's marginal wins a tie
        spread = marg.max(axis=2) - marg.min(axis=2)
        if spread.size:
            s, t = np.unravel_index(int(np.argmax(spread)), spread.shape)
            if float(spread[s, t]) > worst:
                worst = float(spread[s, t])
                location = f"{party} marginal ({i}={int(s)}, {o}={int(t)})"
    return NoSignalingResult(worst <= NS_TOL, worst, location)
