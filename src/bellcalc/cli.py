"""Command line front end.

Every command reads JSON documents, computes, and prints exactly one
JSON document to stdout at the end.  Output bytes are a pure function
of the command line and input files, so identical invocations produce
identical bytes.  Exit codes: 0 success, 2 parse or validation
problem, 3 resource guard exceeded, 4 the requested quantity is
undefined for the input (for example nu of a signaling behavior).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as bio
from .classical import banach_norm, classical_value, classical_value_incomplete, is_local
from .core import behavior_from_quantum
from .errors import (
    BellError,
    DocumentError,
    GuardExceededError,
    ScenarioMismatchError,
    UndefinedQuantityError,
    ValidationError,
)
from .generators import (
    chsh_functional,
    game_functional,
    magic_square_functional,
    random_functional,
)
from .seesaw import SeesawConfig, seesaw
from .violation import (
    comm_bits,
    complete_behavior,
    dimension_witness_report,
    eq4_gap,
    max_violation,
    noise_robustness,
    violation_report,
)

PARSE_EXIT = 2
GUARD_EXIT = 3
UNDEFINED_EXIT = 4

# eq4 "holds" when lhs >= rhs up to this slack, which absorbs the LP and
# see-saw roundoff on the two sides.
EQ4_SLACK = 1e-6


def _input_name(doc: dict, fallback: str = "input") -> str:
    meta = doc.get("metadata")
    if isinstance(meta, dict) and isinstance(meta.get("name"), str):
        return meta["name"]
    return fallback


def _report(scenario, payload: dict, name: str, provenance: str) -> dict:
    return bio.document("report", scenario, payload, name, provenance)


def _cmd_classical(args) -> dict:
    doc = bio.load_document(args.file, "functional")
    functional = bio.functional_from_document(doc)
    name = _input_name(doc)
    cv = classical_value(functional)
    cvi = classical_value_incomplete(functional)
    norm = banach_norm(functional)
    payload = {
        "classical_value": cv,
        "classical_value_incomplete": cvi,
        "banach_norm": norm,
        "sandwich_ratio": None if cvi == 0.0 else norm / cvi,
    }
    return _report(functional.scenario, payload, f"{name}-classical",
                   f"bell classical {name}")


def _seesaw_config(args) -> SeesawConfig:
    return SeesawConfig(
        dim=args.dim,
        seeds=args.seeds,
        max_sweeps=args.sweeps,
        tol=args.tol,
        rng_seed=args.rng_seed,
        mode="incomplete" if getattr(args, "incomplete", False) else "complete",
    )


def _cmd_quantum(args) -> dict:
    doc = bio.load_document(args.file, "functional")
    functional = bio.functional_from_document(doc)
    name = _input_name(doc)
    cfg = _seesaw_config(args)
    result = seesaw(functional, cfg)
    denom = (
        classical_value_incomplete(functional)
        if cfg.mode == "incomplete"
        else classical_value(functional)
    )
    flags = (
        f"--dim {cfg.dim} --seeds {cfg.seeds} --sweeps {cfg.max_sweeps} "
        f"--tol {cfg.tol!r} --rng-seed {cfg.rng_seed}"
    )
    if cfg.mode == "incomplete":
        flags += " --incomplete"
    model_path = None
    if args.emit_model is not None:
        model_doc = bio.quantum_model_document(
            result.model,
            f"{name}-seesaw-d{cfg.dim}",
            f"bell quantum {name} {flags}",
        )
        with open(args.emit_model, "w", encoding="utf-8") as fh:
            fh.write(bio.dump_document(model_doc))
        model_path = args.emit_model
    payload = {
        "value": result.value,
        "ratio": None if denom == 0.0 else result.value / denom,
        "converged": result.converged,
        "sweeps_used": result.sweeps_used,
        "per_seed_values": list(result.per_seed_values),
        "model_path": model_path,
    }
    return _report(functional.scenario, payload, f"{name}-quantum-d{cfg.dim}",
                   f"bell quantum {name} {flags}")


def _cmd_behavior(args) -> dict:
    doc = bio.load_document(args.file, "behavior")
    behavior = bio.behavior_from_document(doc)
    name = _input_name(doc)
    provenance = f"bell behavior {args.quantity} {name}"
    scenario = behavior.scenario
    if args.quantity == "complete":
        completed = complete_behavior(behavior)
        return bio.behavior_document(completed, f"{name}-completed", provenance)
    if args.quantity == "membership":
        cert = is_local(behavior)
        payload = {
            "verdict": cert.verdict,
            "model": None if cert.model is None else bio.local_model_payload(cert.model),
            "reconstruction_error": cert.reconstruction_error,
            "separating": None if cert.separating is None else bio.functional_document(
                cert.separating, f"{name}-separating", provenance),
            "value_on_behavior": cert.value_on_behavior,
            "max_vertex_value": cert.max_vertex_value,
            "margin": cert.margin,
            "warning": cert.warning,
        }
        return _report(scenario, payload, f"{name}-membership", provenance)
    if args.quantity == "robustness":
        payload = {"pi": noise_robustness(behavior)}
    elif args.quantity == "commbits":
        nu, _ = max_violation(behavior)
        payload = {"comm_bound_bits": comm_bits(nu), "nu": nu}
    else:  # nu: the full report, whose identity check needs both LPs
        report = violation_report(behavior)
        payload = {
            "nu": report.nu,
            "pi": report.pi,
            "identity_residual": report.identity_residual,
            "comm_bound_bits": report.comm_bound_bits,
            "boundary": report.boundary,
            "witness": bio.functional_document(
                report.witness, f"{name}-witness", provenance),
        }
    return _report(scenario, payload, f"{name}-{args.quantity}", provenance)


def _cmd_witness(args) -> dict:
    doc = bio.load_document(args.file, "functional")
    functional = bio.functional_from_document(doc)
    name = _input_name(doc)
    cfg = SeesawConfig(dim=1, seeds=args.seeds, rng_seed=args.rng_seed)
    report = dimension_witness_report(functional, args.observed, args.max_dim, cfg)
    payload = {
        "observed": report.observed,
        "label": report.label,
        "entries": [
            {"dim": e.dim, "best_value": e.best_value, "exceeded": e.exceeded}
            for e in report.entries
        ],
        "warning": report.warning,
    }
    provenance = (
        f"bell witness {name} --observed {args.observed!r} --max-dim {args.max_dim} "
        f"--seeds {args.seeds} --rng-seed {args.rng_seed}"
    )
    return _report(functional.scenario, payload, f"{name}-witness-report", provenance)


def _cmd_eq4(args) -> dict:
    doc = bio.load_document(args.file, "functional")
    functional = bio.functional_from_document(doc)
    name = _input_name(doc)
    cfg = SeesawConfig(dim=args.dim, seeds=args.seeds, rng_seed=args.rng_seed)
    lhs, rhs = eq4_gap(functional, cfg)
    payload = {
        "lhs_lower": lhs,
        "rhs": rhs,
        "gap": lhs - rhs,
        "holds": lhs >= rhs - EQ4_SLACK,
    }
    provenance = (
        f"bell eq4 {name} --dim {args.dim} --seeds {args.seeds} "
        f"--rng-seed {args.rng_seed}"
    )
    return _report(functional.scenario, payload, f"{name}-eq4-d{args.dim}", provenance)


def _game_table(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise DocumentError(
            f"JSON parse error at byte {e.pos} (line {e.lineno}, column {e.colno}): {e.msg}"
        ) from e
    if not isinstance(raw, dict) or "weights" not in raw or "win" not in raw:
        raise DocumentError("game table must be an object with 'weights' and 'win'")
    return raw["weights"], raw["win"]


def _cmd_gen(args) -> dict:
    if args.name == "chsh":
        functional = chsh_functional()
        doc_name, provenance = "chsh", "bell gen chsh"
    elif args.name == "magic-square":
        functional = magic_square_functional()
        doc_name, provenance = "magic-square", "bell gen magic-square"
    elif args.name == "random":
        functional = random_functional(args.na, args.nb, args.ma, args.mb, args.seed)
        doc_name = f"random-{args.na}x{args.nb}x{args.ma}x{args.mb}-seed{args.seed}"
        provenance = (
            f"bell gen random --na {args.na} --nb {args.nb} --ma {args.ma} "
            f"--mb {args.mb} --seed {args.seed}"
        )
    else:  # game
        if args.table is None:
            raise DocumentError("gen game requires --table FILE")
        weights, win = _game_table(args.table)
        functional = game_functional(weights, win)
        doc_name, provenance = "game", f"bell gen game --table {args.table}"
    doc = bio.functional_document(functional, doc_name, provenance)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(bio.dump_document(doc))
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bell",
        description="Bell functional and behavior calculator with JSON documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classical", help="exact classical quantities of a functional")
    p.add_argument("file")
    p.set_defaults(run=_cmd_classical)

    p = sub.add_parser("quantum", help="see-saw lower bound at fixed local dimension")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--sweeps", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--incomplete", action="store_true")
    p.add_argument("--emit-model", default=None, metavar="PATH")
    p.set_defaults(run=_cmd_quantum)

    p = sub.add_parser("behavior", help="behavior-level quantities")
    p.add_argument("quantity", choices=["nu", "robustness", "commbits", "membership", "complete"])
    p.add_argument("file")
    p.set_defaults(run=_cmd_behavior)

    p = sub.add_parser("witness", help="per-dimension best values versus an observed value")
    p.add_argument("file")
    p.add_argument("--observed", type=float, required=True)
    p.add_argument("--max-dim", type=int, required=True)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(run=_cmd_witness)

    p = sub.add_parser("eq4", help="completed-model violation versus sub-normalized ratio")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(run=_cmd_eq4)

    p = sub.add_parser("gen", help="built-in functional generators")
    p.add_argument("name", choices=["chsh", "magic-square", "game", "random"])
    p.add_argument("-o", "--output", default=None, metavar="PATH")
    p.add_argument("--table", default=None, metavar="FILE", help="game description JSON")
    p.add_argument("--na", type=int, default=2)
    p.add_argument("--nb", type=int, default=2)
    p.add_argument("--ma", type=int, default=2)
    p.add_argument("--mb", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.run(args)
    except (DocumentError, ValidationError, ScenarioMismatchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return PARSE_EXIT
    except GuardExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return GUARD_EXIT
    except UndefinedQuantityError as e:
        print(f"error: {e}", file=sys.stderr)
        return UNDEFINED_EXIT
    except BellError as e:
        print(f"error: {e}", file=sys.stderr)
        return PARSE_EXIT
    sys.stdout.write(bio.dump_document(doc))
    return 0
