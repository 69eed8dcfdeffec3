"""The four benchmark workloads.

Each is a closed loop: one client in one process sends the next task
when the previous one has returned.  A workload is an ordered task list
(one pass); the runner repeats passes for the requested time.  Every
task carries a check against an independent reference from
``oracles``; a failed check counts as an error, it is never skipped.

Sizes come from profiling on a 2-core machine: a pass
must fit the run length several times over where inputs vary with the
seed, so the 7x7x2x2 LPs (2.4 s to 4.9 s and 700 MB each) appear only
in the traced run's size cross-check, and the magic-square see-saw is
pinned to ``rng_seed=1`` (acceptance 04), because one of its seeds
costs anywhere from 2 s to 9 s and a run holds only two or three passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

NAMES = ("cli-mix", "seesaw-magic", "behavior-lp", "classical-enum")

# acceptance 04 threshold for the magic-square see-saw
TARGET = 1.0 - 1e-3
# acceptance 03 ceiling on quantum/classical for correlation functionals
GROTHENDIECK_CEILING = 1.783 + 1e-3
SQRT2 = math.sqrt(2.0)


@dataclass
class Task:
    label: str
    call: Callable[[], object]
    # (output, outputs of the same pass by label) -> failure message or None
    check: Callable[[object, dict], str | None]


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    # label of the task whose verified answer ends time_to_target_s
    target: str
    reached: Callable[[object], bool] = lambda out: True
    # in-process variant of the task list (cli-mix); it gives the
    # reference bytes and is what the traced run wraps
    in_process: list[Task] | None = None
    # traced run only: exact counts to reproduce; returns failures
    cross_check: Callable[[Callable], list[str]] | None = None
    # (seeds reaching the target, seeds run) in one pass's outputs
    target_seeds: Callable[[dict], tuple[int, int]] = lambda outputs: (0, 0)
    child_rss_kb: list[int] = field(default_factory=list)
    workdir: Path | None = None

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                self.workdir.parent.rmdir()


def _pair(coeffs, probs) -> float:
    return float(np.sum(coeffs * probs))


def _first_failure(*checks):
    for failed, message in checks:
        if failed:
            return message
    return None


# --- classical-enum --------------------------------------------------------

CLASSICAL_SHAPES = {
    "full": [(10, 10, 2, 2), (9, 9, 2, 2), (7, 7, 3, 3), (8, 8, 2, 2), (6, 6, 3, 3),
             (5, 5, 4, 4), (4, 4, 2, 2)],
    "tiny": [(4, 4, 2, 2), (3, 3, 3, 3)],
}
BRUTE_FORCE_VERTICES = 1 << 16


def _classical_check(coeffs, exact=None):
    def check(out, outputs):
        cv, cvi, norm = out
        ref_cv = oracles.classical_value(coeffs)
        ref_cvi = oracles.classical_value_incomplete(coeffs)
        na, nb, ma, mb = coeffs.shape
        brute = None
        if ma ** na * mb ** nb <= BRUTE_FORCE_VERTICES:
            vals = oracles.vertex_values(coeffs)
            brute = max(abs(float(vals.max())), abs(float(vals.min())))
        return _first_failure(
            (exact is not None and cv != exact, f"classical value {cv!r} is not exactly {exact!r}"),
            (not oracles.close(cv, ref_cv, 1e-9), f"classical value {cv!r}, reference {ref_cv!r}"),
            (brute is not None and not oracles.close(cv, brute, 1e-9),
             f"classical value {cv!r}, brute force over vertices {brute!r}"),
            (not oracles.close(cvi, ref_cvi, 1e-9),
             f"incomplete value {cvi!r}, reference {ref_cvi!r}"),
            (cv > cvi * (1.0 + 1e-12), f"classical value {cv!r} above incomplete value {cvi!r}"),
            (not cvi <= norm <= 4.0 * cvi, f"sandwich {cvi!r} <= {norm!r} <= 4x fails"),
        )
    return check


def classical_enum(seed: int, size: str, bc) -> Workload:
    rng = np.random.default_rng(seed)
    functionals = [("chsh", bc.chsh_functional(), 2.0),
                   ("magic-square", bc.magic_square_functional(), 8.0 / 9.0)]
    for shape in CLASSICAL_SHAPES[size]:
        name = "random-" + "x".join(map(str, shape))
        functionals.append((name, bc.BellFunctional(bc.Scenario(*shape),
                                                    rng.standard_normal(shape)), None))
    # largest first: its exact trio is the target
    functionals = functionals[2:] + functionals[:2]

    def trio(f):
        return lambda: (bc.classical_value(f), bc.classical_value_incomplete(f), bc.banach_norm(f))

    tasks = [Task(name, trio(f), _classical_check(np.array(f.coeffs), exact))
             for name, f, exact in functionals]
    bc.classical_value(bc.chsh_functional())  # warm-up
    return Workload("classical-enum", tasks, target=tasks[0].label)


# --- behavior-lp -----------------------------------------------------------

BEHAVIOR_SETS = {
    # (label, shape, kind): kind is quantum (random d=2 model) or local (mixture)
    "full": [("q6622a", (6, 6, 2, 2), "quantum"), ("q6622b", (6, 6, 2, 2), "quantum"),
             ("l6622", (6, 6, 2, 2), "local"), ("q3344", (3, 3, 4, 4), "quantum"),
             ("l3344", (3, 3, 4, 4), "local"), ("chsh-opt", (2, 2, 2, 2), "chsh")],
    "tiny": [("q3322", (3, 3, 2, 2), "quantum"), ("l3322", (3, 3, 2, 2), "local"),
             ("chsh-opt", (2, 2, 2, 2), "chsh")],
}


def _nu_check(probs, kind):
    def check(out, outputs):
        nu, witness = out
        vals = oracles.vertex_values(np.array(witness.coeffs))
        cv = max(abs(float(vals.max())), abs(float(vals.min())))
        on_q = _pair(witness.coeffs, probs)
        return _first_failure(
            (nu < 1.0, f"nu {nu!r} below 1"),
            (not oracles.close(cv, 1.0, 1e-6), f"witness classical value {cv!r}, expected 1"),
            (not oracles.close(on_q, nu, 1e-6), f"witness gives {on_q!r} on Q, nu is {nu!r}"),
            (kind == "local" and nu != 1.0, f"local mixture has nu {nu!r}, expected exactly 1"),
            (kind == "chsh" and not oracles.close(nu, SQRT2, 1e-6),
             f"CHSH-optimal nu {nu!r}, expected sqrt(2)"),
        )
    return check


def _pi_check(label, kind):
    def check(pi, outputs):
        nu_out = outputs.get(f"{label}/nu")
        if nu_out is None:
            return "nu of the same behavior is missing"
        nu = nu_out[0]
        residual = abs(nu - (2.0 / pi - 1.0)) if pi > 0.0 else math.inf
        return _first_failure(
            (not 0.0 < pi <= 1.0, f"pi {pi!r} outside (0, 1]"),
            (residual > 1e-6, f"|nu - (2/pi - 1)| = {residual:.3e} above 1e-6"),
            (kind == "local" and pi < 1.0 - 1e-9, f"local mixture has pi {pi!r}"),
        )
    return check


def _membership_check(label, probs, kind):
    def check(cert, outputs):
        nu_out = outputs.get(f"{label}/nu")
        if nu_out is None:
            return "nu of the same behavior is missing"
        nu = nu_out[0]
        if kind == "local" and cert.verdict != "local":
            return f"local mixture certified {cert.verdict}"
        if cert.verdict == "local":
            rebuilt = np.zeros_like(probs)
            na, nb = probs.shape[:2]
            for w, s in cert.model.weights:
                rebuilt[np.arange(na)[:, None], np.arange(nb)[None, :],
                        np.array(s.alice_outputs)[:, None], np.array(s.bob_outputs)[None, :]] += w
            error = float(np.max(np.abs(rebuilt - probs)))
            return _first_failure(
                (cert.reconstruction_error > 1e-8,
                 f"reconstruction error {cert.reconstruction_error:.3e} above 1e-8"),
                (error > 1e-7, f"local model rebuilds Q only to {error:.3e}"),
                (nu > 1.0 + 1e-6, f"certified local but nu is {nu!r}"),
            )
        if cert.verdict == "nonlocal":
            vals = oracles.vertex_values(np.array(cert.separating.coeffs))
            top = float(vals.max())
            on_q = _pair(cert.separating.coeffs, probs)
            return _first_failure(
                (not oracles.close(top, 1.0, 1e-9), f"separating functional peaks at {top!r} on vertices"),
                (on_q < top + 1e-9, f"separating functional is not sound: {on_q!r} vs {top!r}"),
                (nu <= 1.0, f"certified nonlocal but nu is {nu!r}"),
            )
        return _first_failure((abs(nu - 1.0) > 1e-6, f"boundary verdict but nu is {nu!r}"))
    return check


def behavior_lp(seed: int, size: str, bc) -> Workload:
    rng = np.random.default_rng(seed)
    tasks = []
    for label, shape, kind in BEHAVIOR_SETS[size]:
        if kind == "quantum":
            probs = oracles.random_quantum_behavior(rng, shape, dim=2)
        elif kind == "local":
            probs = oracles.random_local_behavior(rng, shape)
        else:
            probs = oracles.chsh_optimal_behavior()
        probs = np.maximum(probs, 0.0)
        behavior = bc.Behavior(bc.Scenario(*shape), probs)
        tasks += [
            Task(f"{label}/nu", lambda b=behavior: bc.max_violation(b), _nu_check(probs, kind)),
            Task(f"{label}/pi", lambda b=behavior: bc.noise_robustness(b), _pi_check(label, kind)),
            Task(f"{label}/membership", lambda b=behavior: bc.is_local(b),
                 _membership_check(label, probs, kind)),
        ]
        sys.modules["bellcalc.polytope"].vertex_matrix(bc.Scenario(*shape))  # warm-up

    def cross_check(run_traced):
        # posed LP sizes at 7x7x2x2 (V = 16,384 vertices, 196 entries)
        probs = np.maximum(oracles.random_quantum_behavior(rng, (7, 7, 2, 2), dim=2), 0.0)
        behavior = bc.Behavior(bc.Scenario(7, 7, 2, 2), probs)
        stats = run_traced(lambda: (bc.max_violation(behavior), bc.noise_robustness(behavior)))
        shapes = stats["numerics.lp_solve"]["shapes"]
        expected = [(32768, 196), (394, 32769)]
        return [] if shapes == expected else [f"7x7x2x2 LP shapes {shapes}, expected {expected}"]

    # the nu-pi identity of the first 6x6x2x2 quantum behavior is the target
    return Workload("behavior-lp", tasks, target=tasks[1].label,
                    cross_check=cross_check if size == "full" else None)


# --- seesaw-magic ----------------------------------------------------------

# Some random correlation functionals converge over thousands of sweeps
# (19 s instead of 0.4 s at 4 inputs); the cap keeps that call a small,
# seed-independent share of the pass.
CORRELATION_SWEEPS = 50
SEESAW_SIZES = {
    # (magic-square dimension, correlation inputs, correlation dimension)
    "full": (4, 4, 8),
    "tiny": (2, 3, 2),
}


def _seesaw_check(coeffs, upper):
    def check(res, outputs):
        m = res.model
        complete = m.completeness == "complete"
        defect = oracles.model_defect(m.state, m.alice_povms, m.bob_povms, complete)
        value = abs(_pair(coeffs, oracles.behavior_of(m.state, m.alice_povms, m.bob_povms)))
        return _first_failure(
            (defect > 1e-8, f"model violates quantum invariants by {defect:.3e}"),
            (abs(value - res.value) > 1e-9, f"reported {res.value!r}, model gives {value!r}"),
            (res.value > upper + 1e-9, f"value {res.value!r} above the bound {upper!r}"),
        )
    return check


def seesaw_magic(seed: int, size: str, bc) -> Workload:
    rng = np.random.default_rng(seed)
    dim, n_corr, corr_dim = SEESAW_SIZES[size]
    magic = bc.magic_square_functional()
    corr = bc.random_correlation_functional(n_corr, seed=int(rng.integers(1 << 31)))
    corr_seed = int(rng.integers(1 << 31))
    corr_bound = GROTHENDIECK_CEILING * oracles.classical_value(np.array(corr.coeffs))
    magic_coeffs = np.array(magic.coeffs)
    tasks = [
        Task("magic-complete",
             lambda: bc.seesaw(magic, bc.SeesawConfig(dim=dim, seeds=1, rng_seed=1)),
             _seesaw_check(magic_coeffs, 1.0)),
        Task("magic-incomplete",
             lambda: bc.seesaw(magic, bc.SeesawConfig(dim=dim, seeds=1, rng_seed=1,
                                                      mode="incomplete")),
             _seesaw_check(magic_coeffs, 1.0)),
        Task("correlation",
             lambda: bc.seesaw(corr, bc.SeesawConfig(dim=corr_dim, seeds=4, rng_seed=corr_seed,
                                                     max_sweeps=CORRELATION_SWEEPS)),
             _seesaw_check(np.array(corr.coeffs), corr_bound)),
    ]
    bc.seesaw(bc.chsh_functional(), bc.SeesawConfig(dim=2, seeds=1))  # warm-up

    def cross_check(run_traced):
        # 3 seeds, rng_seed=1, d=4, complete: counts recorded when the benchmark was defined
        stats = run_traced(lambda: bc.seesaw(magic, bc.SeesawConfig(dim=4, seeds=3, rng_seed=1)))
        povm = stats["numerics.povm_update"]
        got = (povm["calls"], povm["iterations"])
        return [] if got == (480, 63830) else [f"povm_update calls, iterations {got}, expected (480, 63830)"]

    def target_seeds(outputs):
        res = outputs.get("magic-complete")
        if res is None:
            return 0, 1
        return sum(v >= TARGET for v in res.per_seed_values), len(res.per_seed_values)

    return Workload("seesaw-magic", tasks, target="magic-complete",
                    reached=lambda res: res.value >= TARGET,
                    cross_check=cross_check if size == "full" else None,
                    target_seeds=target_seeds)


# --- cli-mix ---------------------------------------------------------------


def _cli_check(argv):
    def check(out, outputs):
        code, stdout = out
        if code != 0:
            return f"exited {code}"
        if not stdout.endswith(b"\n"):
            return "output is not newline-terminated"
        payload = json.loads(stdout)["payload"]
        if argv[0] == "classical" and payload["classical_value"] != 2.0:
            return f"CHSH classical value {payload['classical_value']!r}, expected exactly 2"
        if argv[0] == "quantum" and abs(payload["value"] - 2.0 * SQRT2) > 1e-6:
            return f"CHSH see-saw value {payload['value']!r}, expected 2*sqrt(2)"
        return None
    return check


def cli_mix(seed: int, size: str, bc, workdir: Path, env: dict) -> Workload:
    """The 13 commands of acceptance 11, each as ``python -m bellcalc``."""
    bio = sys.modules["bellcalc.io"]
    cli = sys.modules["bellcalc.cli"]
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    def fixture(name, doc):
        path = workdir / name
        path.write_text(bio.dump_document(doc) if isinstance(doc, dict) else doc, encoding="utf-8")
        return str(path)

    chsh = fixture("chsh.json", bio.functional_document(bc.chsh_functional(), "chsh", "bell gen chsh"))
    probs = np.maximum(oracles.random_quantum_behavior(rng, (2, 2, 2, 2), dim=2), 0.0)
    quantum = bc.Behavior(bc.Scenario(2, 2, 2, 2), probs)
    behavior = fixture("behavior.json", bio.behavior_document(quantum, "random-d2", "fixture"))
    lossy = fixture("lossy.json", bio.behavior_document(
        bc.Behavior(quantum.scenario, 0.8 * probs, completeness="incomplete"), "lossy", "fixture"))
    table = fixture("table.json", json.dumps({
        "weights": [[0.25, 0.25], [0.25, 0.25]],
        "win": rng.integers(0, 2, (2, 2, 2, 2)).tolist(),
    }))
    gen_seed = str(int(rng.integers(1 << 31)))
    commands = [
        ["gen", "chsh"],
        ["gen", "magic-square"],
        ["gen", "random", "--na", "2", "--nb", "2", "--ma", "3", "--mb", "2", "--seed", gen_seed],
        ["gen", "game", "--table", table],
        ["classical", chsh],
        ["quantum", chsh, "--dim", "2", "--seeds", "2"],
        ["behavior", "nu", behavior],
        ["behavior", "robustness", behavior],
        ["behavior", "commbits", behavior],
        ["behavior", "membership", behavior],
        ["behavior", "complete", lossy],
        ["witness", chsh, "--observed", "2.5", "--max-dim", "2", "--seeds", "2"],
        ["eq4", chsh, "--dim", "2", "--seeds", "2"],
    ]
    if size == "tiny":
        commands = commands[4:7]
    wl = Workload("cli-mix", [], target="quantum", workdir=workdir)

    def subprocess_call(argv):
        def call():
            with open(workdir / "stderr.txt", "wb") as err:
                proc = subprocess.Popen([sys.executable, "-m", "bellcalc", *argv],
                                        cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=err)
                stdout = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            wl.child_rss_kb.append(usage.ru_maxrss)
            return proc.returncode, stdout
        return call

    def in_process_call(argv):
        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            return code, buf.getvalue().encode("utf-8")
        return call

    labels = [" ".join(argv[:2] if argv[0] in ("gen", "behavior") else argv[:1]) for argv in commands]
    wl.tasks = [Task(lbl, subprocess_call(argv), _cli_check(argv))
                for lbl, argv in zip(labels, commands)]
    wl.in_process = [Task(lbl, in_process_call(argv), _cli_check(argv))
                     for lbl, argv in zip(labels, commands)]
    return wl


def build(name: str, seed: int, size: str, bc, workdir: Path, env: dict) -> Workload:
    if name == "cli-mix":
        return cli_mix(seed, size, bc, workdir, env)
    return {"seesaw-magic": seesaw_magic, "behavior-lp": behavior_lp,
            "classical-enum": classical_enum}[name](seed, size, bc)
