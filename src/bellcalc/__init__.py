"""Exact and variational calculations for two-party Bell scenarios.

Tensors of coefficients or probabilities are indexed [x][y][a][b]
(inputs first, outputs second).  The package computes exact classical
quantities by strategy enumeration, lower-bounds quantum values by
alternating optimization, and answers behavior-level questions
(membership in the local polytope, maximal violation, noise
robustness, communication bounds) by linear programming.
"""

from .classical import (
    MembershipCertificate,
    banach_norm,
    classical_value,
    classical_value_incomplete,
    is_local,
    signed_extrema,
)
from .core import (
    Behavior,
    BellFunctional,
    COMPLETE,
    DeterministicStrategy,
    INCOMPLETE,
    InvariantViolation,
    LocalModel,
    NoSignalingResult,
    QuantumModel,
    Scenario,
    behavior_from_local,
    behavior_from_quantum,
    no_signaling_check,
    pair,
    validate,
)
from .errors import (
    BellError,
    DocumentError,
    GuardExceededError,
    ScenarioMismatchError,
    SignalingBehaviorError,
    SolverError,
    UndefinedQuantityError,
    ValidationError,
)
from .generators import (
    chsh_functional,
    game_functional,
    magic_square_functional,
    random_correlation_functional,
    random_functional,
)
from .seesaw import (
    SeesawConfig,
    SeesawResult,
    bell_operator,
    reduced_operators,
    seesaw,
)
from .violation import (
    DimensionEntry,
    DimensionWitnessReport,
    ViolationReport,
    comm_bits,
    complete_behavior,
    dimension_witness_report,
    eq4_gap,
    max_violation,
    noise_robustness,
    violation_report,
)

__all__ = [
    "Behavior",
    "BellError",
    "BellFunctional",
    "COMPLETE",
    "DeterministicStrategy",
    "DimensionEntry",
    "DimensionWitnessReport",
    "DocumentError",
    "GuardExceededError",
    "INCOMPLETE",
    "InvariantViolation",
    "LocalModel",
    "MembershipCertificate",
    "NoSignalingResult",
    "QuantumModel",
    "Scenario",
    "ScenarioMismatchError",
    "SeesawConfig",
    "SeesawResult",
    "SignalingBehaviorError",
    "SolverError",
    "UndefinedQuantityError",
    "ValidationError",
    "ViolationReport",
    "banach_norm",
    "behavior_from_local",
    "behavior_from_quantum",
    "bell_operator",
    "chsh_functional",
    "classical_value",
    "classical_value_incomplete",
    "comm_bits",
    "complete_behavior",
    "dimension_witness_report",
    "eq4_gap",
    "game_functional",
    "is_local",
    "magic_square_functional",
    "max_violation",
    "no_signaling_check",
    "noise_robustness",
    "pair",
    "random_correlation_functional",
    "random_functional",
    "reduced_operators",
    "seesaw",
    "signed_extrema",
    "validate",
    "violation_report",
]
