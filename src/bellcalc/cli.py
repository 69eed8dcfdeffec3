"""Command line front end.

Every command reads JSON documents, computes, and prints exactly one
JSON document to stdout at the end.  Output bytes are a pure function
of the command line and input files, so identical invocations produce
identical bytes.  Exit codes: 0 success, else the ``exit_code`` of the
package error raised (see ``errors``); an eigendecomposition that does
not finish exits as a SolverError, and exhausted memory as a
GuardExceededError.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io as bio
from .classical import (banach_norm, classical_value, classical_value_for,
                        classical_value_incomplete, is_local)
from .core import COMPLETE, INCOMPLETE
from .errors import BellError, DocumentError, GuardExceededError, SolverError
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

# eq4 "holds" when lhs >= rhs up to this slack, which absorbs the LP and
# see-saw roundoff on the two sides.
EQ4_SLACK = 1e-6


def _input_name(doc: dict) -> str:
    meta = doc.get("metadata")
    if isinstance(meta, dict) and isinstance(meta.get("name"), str):
        return meta["name"]
    return "input"


def _flags(args, *names: str) -> str:
    """`--name value!r` for each named option at its parsed value; a switch
    as `--name` when set and not at all when unset."""
    values = ((n, getattr(args, n.replace("-", "_"))) for n in names)
    return " ".join(f"--{n}" if v is True else f"--{n} {v!r}" for n, v in values if v is not False)


def _load_functional(path: str):
    """(functional, name) from a functional document."""
    doc = bio.load_document(path, "functional")
    return bio.functional_from_document(doc), _input_name(doc)


def _cmd_classical(args) -> dict:
    functional, name = _load_functional(args.file)
    cv = classical_value(functional)
    cvi = classical_value_incomplete(functional)
    norm = banach_norm(functional)
    payload = {
        "classical_value": cv,
        "classical_value_incomplete": cvi,
        "banach_norm": norm,
        "sandwich_ratio": None if cvi == 0.0 else norm / cvi,
    }
    return bio.document("report", functional.scenario, payload, f"{name}-classical",
                        f"bell classical {name}")


def _cmd_quantum(args) -> dict:
    functional, name = _load_functional(args.file)
    cfg = SeesawConfig(dim=args.dim, seeds=args.seeds, max_sweeps=args.sweeps, tol=args.tol,
                       rng_seed=args.rng_seed, mode=INCOMPLETE if args.incomplete else COMPLETE)
    if args.emit_model is not None:  # fail before the see-saw, not after it
        bio.check_writable(args.emit_model)
    result = seesaw(functional, cfg)
    denom = classical_value_for(functional, cfg.mode)
    provenance = f"bell quantum {name} " + _flags(args, "dim", "seeds", "sweeps", "tol",
                                                  "rng-seed", "incomplete")
    model_path = None
    if args.emit_model is not None:
        model_doc = bio.quantum_model_document(result.model, f"{name}-seesaw-d{cfg.dim}",
                                               provenance)
        bio.write_text(args.emit_model, bio.dump_document(model_doc))
        model_path = args.emit_model
    payload = {
        "value": result.value,
        "ratio": None if denom == 0.0 else result.value / denom,
        "converged": result.converged,
        "sweeps_used": result.sweeps_used,
        "per_seed_values": list(result.per_seed_values),
        "model_path": model_path,
    }
    return bio.document("report", functional.scenario, payload,
                        f"{name}-quantum-d{cfg.dim}", provenance)


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
        payload = dict(
            vars(cert),
            model=None if cert.model is None else bio.local_model_payload(cert.model),
            separating=None if cert.separating is None else bio.functional_document(
                cert.separating, f"{name}-separating", provenance),
        )
        return bio.document("report", scenario, payload, f"{name}-membership", provenance)
    if args.quantity == "robustness":
        payload = {"pi": noise_robustness(behavior)}
    elif args.quantity == "commbits":
        nu, _ = max_violation(behavior)
        payload = {"comm_bound_bits": comm_bits(nu), "nu": nu}
    else:  # nu: the full report, whose identity check needs both LPs
        report = violation_report(behavior)
        payload = dict(vars(report), witness=bio.functional_document(
            report.witness, f"{name}-witness", provenance))
    return bio.document("report", scenario, payload, f"{name}-{args.quantity}", provenance)


def _cmd_witness(args) -> dict:
    functional, name = _load_functional(args.file)
    cfg = SeesawConfig(dim=1, seeds=args.seeds, rng_seed=args.rng_seed)
    report = dimension_witness_report(functional, args.observed, args.max_dim, cfg)
    payload = dict(vars(report), entries=[vars(e) for e in report.entries])
    return bio.document("report", functional.scenario, payload, f"{name}-witness-report",
                        f"bell witness {name} "
                        + _flags(args, "observed", "max-dim", "seeds", "rng-seed"))


def _cmd_eq4(args) -> dict:
    functional, name = _load_functional(args.file)
    cfg = SeesawConfig(dim=args.dim, seeds=args.seeds, rng_seed=args.rng_seed)
    lhs, rhs = eq4_gap(functional, cfg)
    payload = {
        "lhs_lower": lhs,
        "rhs": rhs,
        "gap": lhs - rhs,
        "holds": lhs >= rhs - EQ4_SLACK,
    }
    return bio.document("report", functional.scenario, payload, f"{name}-eq4-d{args.dim}",
                        f"bell eq4 {name} " + _flags(args, "dim", "seeds", "rng-seed"))


def _game_table(path: str):
    raw = bio.parse_json(bio.read_text(path))
    if not isinstance(raw, dict) or "weights" not in raw or "win" not in raw:
        raise DocumentError("game table must be an object with 'weights' and 'win'")
    where = "game table 'weights' and 'win' each"
    return bio.float_array(raw["weights"], where), bio.float_array(raw["win"], where)


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
        provenance = "bell gen random " + _flags(args, "na", "nb", "ma", "mb", "seed")
    else:  # game
        if args.table is None:
            raise DocumentError("gen game requires --table FILE")
        weights, win = _game_table(args.table)
        functional = game_functional(weights, win)
        doc_name, provenance = "game", f"bell gen game --table {args.table}"
    doc = bio.functional_document(functional, doc_name, provenance)
    if args.output is not None:
        bio.write_text(args.output, bio.dump_document(doc))
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bell",
        description="Bell functional and behavior calculator with JSON documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the see-saw commands share their restart flags
    restarts = argparse.ArgumentParser(add_help=False)
    restarts.add_argument("--seeds", type=int, default=20)
    restarts.add_argument("--rng-seed", type=int, default=0)

    p = sub.add_parser("classical", help="exact classical quantities of a functional")
    p.add_argument("file")
    p.set_defaults(run=_cmd_classical)

    p = sub.add_parser("quantum", parents=[restarts],
                       help="see-saw lower bound at fixed local dimension")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--sweeps", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--incomplete", action="store_true")
    p.add_argument("--emit-model", default=None, metavar="PATH")
    p.set_defaults(run=_cmd_quantum)

    p = sub.add_parser("behavior", help="behavior-level quantities")
    p.add_argument("quantity", choices=["nu", "robustness", "commbits", "membership", "complete"])
    p.add_argument("file")
    p.set_defaults(run=_cmd_behavior)

    p = sub.add_parser("witness", parents=[restarts],
                       help="per-dimension best values versus an observed value")
    p.add_argument("file")
    p.add_argument("--observed", type=float, required=True)
    p.add_argument("--max-dim", type=int, required=True)
    p.set_defaults(run=_cmd_witness)

    p = sub.add_parser("eq4", parents=[restarts],
                       help="completed-model violation versus sub-normalized ratio")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
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
        with np.errstate(all="ignore"):  # stderr holds one error line at most, no warnings
            text = bio.dump_document(args.run(args))
    except (BellError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        # LAPACK's LinAlgError is an eigendecomposition that did not finish
        return e.exit_code if isinstance(e, BellError) else SolverError.exit_code
    except MemoryError as e:
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return GuardExceededError.exit_code
    sys.stdout.write(text)
    return 0
