"""Canonical JSON documents for functionals, behaviors, models, reports.

One fixed layout so files are diffable and stable across runs:

    {
      "format_version": "1",
      "kind": "functional" | "behavior" | "quantum_model" | "report",
      "scenario": {"na": .., "nb": .., "ma": .., "mb": ..},
      "payload": { ...kind specific... },
      "metadata": {"name": .., "provenance": ..}
    }

Coefficient and probability tensors nest as [x][y][a][b]; numpy values
stay in payloads until json's one walk writes them, any complex value as
[re, im], and NaN or infinity is rejected.  Numbers are written with
shortest round-trip formatting, so parse(serialize(x)) reproduces x
bit for bit; serializers are pure functions of their inputs (no
timestamps), which is what makes command output byte-reproducible.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .core import (
    Behavior,
    BellFunctional,
    COMPLETE,
    INCOMPLETE,
    LocalModel,
    QuantumModel,
    Scenario,
)
from .errors import DocumentError

FORMAT_VERSION = "1"


def document(kind: str, scenario: Scenario, payload: dict, name: str, provenance: str) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "scenario": {
            "na": scenario.n_inputs_a,
            "nb": scenario.n_inputs_b,
            "ma": scenario.n_outputs_a,
            "mb": scenario.n_outputs_b,
        },
        "payload": payload,
        "metadata": {"name": name, "provenance": provenance},
    }


def _json_default(value):
    """A complex number as [re, im]; a numpy array or scalar as Python values."""
    return [value.real, value.imag] if isinstance(value, complex) else value.tolist()


def dump_document(doc: dict) -> str:
    """Serialize with a trailing newline; floats keep full precision.  A
    non-finite number raises DocumentError."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False, default=_json_default) + "\n"
    except ValueError as e:
        raise DocumentError("a document cannot hold a non-finite number") from e


def read_text(path: str) -> str:
    """Contents of a UTF-8 file; an unreadable or non-UTF-8 file raises DocumentError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise DocumentError(f"cannot read {path}: not UTF-8 ({e.reason} at byte {e.start})") from e


def check_writable(path: str) -> None:
    """Raise DocumentError now if path cannot be opened for writing.

    Opening for append leaves an existing file as it is; a file that the
    check itself creates, also at the target of a dangling symlink, is
    removed again.
    """
    existed = os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as e:
        raise DocumentError(f"cannot write {path}: {e.strerror}") from e
    if not existed:
        os.remove(os.path.realpath(path))


def write_text(path: str, text: str) -> None:
    """Write a UTF-8 file; one that cannot be written raises DocumentError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise DocumentError(f"cannot write {path}: {e.strerror}") from e


def parse_json(text: str):
    """Parsed JSON value; what the parser refuses raises DocumentError (syntax: naming where)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(
            f"JSON parse error at byte {e.pos} (line {e.lineno}, column {e.colno}): {e.msg}"
        ) from e
    except (RecursionError, ValueError) as e:  # nesting too deep, an integer past the digit limit
        raise DocumentError(f"JSON parse error: {e}") from e


def parse_document(text: str, expect_kind: str) -> dict:
    doc = parse_json(text)
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DocumentError(
            f"format_version must be {FORMAT_VERSION!r}, got {version!r}"
        )
    kind = doc.get("kind")
    if kind != expect_kind:
        raise DocumentError(f"expected a {expect_kind} document, got {kind!r}")
    if "payload" not in doc or not isinstance(doc["payload"], dict):
        raise DocumentError("document payload must be an object")
    return doc


def load_document(path: str, expect_kind: str) -> dict:
    return parse_document(read_text(path), expect_kind)


def float_array(value, where: str) -> np.ndarray:
    """value as a float64 array: a rectangular nest of JSON numbers (int or
    float, never bool), each finite as a float64; else DocumentError."""
    cells = np.array(value, dtype=object)  # a ragged nest keeps its lists as cells
    try:
        if all(type(v) in (int, float) for v in cells.reshape(-1)):  # bool subclasses int
            arr = cells.astype(np.float64)
            if np.isfinite(arr).all():
                return arr
    except OverflowError:  # an integer past the float64 range
        pass
    raise DocumentError(f"{where} must be a rectangular array of finite JSON numbers")


def _read_tensor(doc, key: str) -> tuple[Scenario, np.ndarray, dict]:
    """(scenario, payload[key] as a float array of the scenario's shape, payload)."""
    if not isinstance(doc, dict) or not isinstance(doc.get("payload"), dict):
        raise DocumentError("document payload must be an object")
    raw = doc.get("scenario")
    if not isinstance(raw, dict):
        raise DocumentError("document is missing its scenario object")
    try:
        fields = {k: raw[k] for k in ("na", "nb", "ma", "mb")}
    except KeyError as e:
        raise DocumentError(f"scenario is missing key {e.args[0]!r}") from e
    for k, value in fields.items():
        if type(value) is not int or value < 1:  # bool subclasses int
            raise DocumentError(f"scenario.{k} must be a positive integer")
    scenario, payload = Scenario(*fields.values()), doc["payload"]
    if key not in payload:
        raise DocumentError(f"payload is missing {key!r}")
    arr = float_array(payload[key], f"payload.{key}")
    if arr.shape != scenario.shape:
        raise DocumentError(f"payload.{key} has shape {arr.shape}, expected {scenario.shape}")
    return scenario, arr, payload


# -- functionals --------------------------------------------------------

def functional_document(functional: BellFunctional, name: str, provenance: str) -> dict:
    return document(
        "functional", functional.scenario,
        {"coeffs": functional.coeffs}, name, provenance,
    )


def functional_from_document(doc: dict) -> BellFunctional:
    scenario, coeffs, _ = _read_tensor(doc, "coeffs")
    return BellFunctional(scenario, coeffs)


# -- behaviors ----------------------------------------------------------

def behavior_document(behavior: Behavior, name: str, provenance: str) -> dict:
    return document(
        "behavior", behavior.scenario,
        {"completeness": behavior.completeness, "probs": behavior.probs},
        name, provenance,
    )


def behavior_from_document(doc: dict) -> Behavior:
    scenario, probs, payload = _read_tensor(doc, "probs")
    flag = payload.get("completeness")
    if flag not in (COMPLETE, INCOMPLETE):
        raise DocumentError(
            f"payload.completeness must be {COMPLETE!r} or {INCOMPLETE!r}, got {flag!r}"
        )
    return Behavior(scenario, probs, flag)


# -- quantum models -----------------------------------------------------

def quantum_model_document(model: QuantumModel, name: str, provenance: str) -> dict:
    payload = {
        "dim_a": model.dim_a,
        "dim_b": model.dim_b,
        "completeness": model.completeness,
        "state": model.state,
        "alice_povms": model.alice_povms,
        "bob_povms": model.bob_povms,
    }
    return document("quantum_model", model.scenario, payload, name, provenance)


# -- local models (embedded in membership reports) ----------------------

def local_model_payload(model: LocalModel) -> list:
    return [dict(weight=w, **vars(strategy)) for w, strategy in model.weights]
