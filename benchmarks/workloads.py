"""The benchmark's workloads: configs, CLI passes and output checks.

Each workload is one closed-loop client that runs passes back to back.
A pass is one or more ``ensvar`` CLI invocations, made in-process through
``ensvar.cli.main`` with every output written to a file.  The workload
seed is the only input: the problem and study seeds are derived from it
by fixed offsets, so seed 0 reproduces the paper-facing configs exactly
(C03's second problem, C08 scaled up, and a mid-size exact smoother).

This module imports nothing from numpy or ensvar at import time, so the
set-up probe can load it before it measures ``import ensvar``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

CSV_COLUMNS = ["sweep_value", "p_order", "replicates", "error_estimate", "stderr_estimate", "wall_ms"]


@dataclass(frozen=True)
class Workload:
    """One workload: its config text, its CLI calls and its output check.

    ``commands`` maps (config path, output dir) to a list of
    ``(output name, argv)``; each argv writes the named output file.
    ``check`` returns a list of problems with one pass's outputs (empty
    when they are correct).  ``canonical`` strips the run-dependent parts
    of the outputs (the ``wall_ms`` column); two passes of one workload
    must give equal canonical outputs.
    """

    name: str
    why: str
    config: Callable[[int, bool], str]
    commands: Callable[[str, str], list]
    check: Callable[[dict, dict], list]
    canonical: Callable[[dict], dict]
    prepare: Callable[[object], dict] = lambda problem: {}


# --- study workloads ---------------------------------------------------------


def _enks_rate_config(seed: int, smoke: bool) -> str:
    replicates = 10 if smoke else 50
    return (
        f"problem: {{name: linear-chain, m: 2, k: 3, seed: {11 + seed}}}\n"
        "study:\n"
        "  kind: enks-vs-ks\n"
        "  sweep: [100, 1000, 10000]\n"
        f"  replicates: {replicates}\n"
        "  p_order: 2\n"
        f"  seed: {20 + seed}\n"
    )


def _tau_rate_config(seed: int, smoke: bool) -> str:
    members, replicates = (50, 4) if smoke else (400, 16)
    return (
        "problem: {name: w2-quadratic}\n"
        "lm:\n"
        "  gamma: 1\n"
        "  max_iterations: 2\n"
        "  mode: finite-difference\n"
        f"  ensemble_sizes: [{members}]\n"
        "study:\n"
        "  kind: tau-sweep\n"
        "  sweep: [1.0e-1, 1.0e-2, 1.0e-3, 1.0e-4]\n"
        f"  replicates: {replicates}\n"
        "  p_order: 2\n"
        f"  seed: {22 + seed}\n"
    )


def _study_commands(config: str, outdir: str) -> list:
    out = f"{outdir}/study.csv"
    return [("study.csv", ["study", "--config", config, "--out", out])]


def _parse_csv(text: str) -> tuple[list, list]:
    """Rows of a study CSV as floats; problems if it is malformed."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_COLUMNS:
        return [], [f"study CSV header is {rows[0] if rows else None}, expected {CSV_COLUMNS}"]
    values = []
    for row in rows[1:]:
        try:
            values.append([float(v) for v in row])
        except ValueError:
            return [], [f"study CSV row {row} is not numeric"]
    if any(not math.isfinite(v) for row in values for v in row):
        return [], ["study CSV holds a non-finite number"]
    return values, []


def _loglog_slope(xs: list, ys: list) -> float:
    """Least-squares slope of log(y) against log(x), in plain Python."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx


def _slope_check(low: float, high: float) -> Callable[[dict, dict], list]:
    def check(outputs: dict, context: dict) -> list:
        values, problems = _parse_csv(outputs["study.csv"])
        if problems:
            return problems
        if len(values) < 2 or any(row[3] <= 0 for row in values):
            return [f"study CSV has {len(values)} rows or a non-positive error"]
        slope = _loglog_slope([row[0] for row in values], [row[3] for row in values])
        if not low <= slope <= high:
            return [f"log-log slope {slope:.4f} outside [{low}, {high}]"]
        return []

    return check


def _strip_wall_ms(outputs: dict) -> dict:
    rows = list(csv.reader(io.StringIO(outputs["study.csv"])))
    if not rows or "wall_ms" not in rows[0]:
        return dict(outputs)
    drop = rows[0].index("wall_ms")
    return {"study.csv": "\n".join(",".join(r[:drop] + r[drop + 1 :]) for r in rows)}


# --- exact smoother ------------------------------------------------------------


def _exact_config(seed: int, smoke: bool) -> str:
    size = 4 if smoke else 24
    return (
        f"problem: {{name: linear-chain, m: {size}, k: {size}, seed: {5 + seed}}}\n"
        "lm: {gamma: 0, max_iterations: 1, mode: exact}\n"
    )


def _exact_commands(config: str, outdir: str) -> list:
    return [
        ("ks.json", ["run-ks", "--config", config, "--out", f"{outdir}/ks.json"]),
        ("lm.json", ["run-lm", "--config", config, "--out", f"{outdir}/lm.json"]),
    ]


def _exact_prepare(problem) -> dict:
    # C01's independent oracle: the block normal equations, solved once.
    from ensvar.kalman import ks_least_squares_oracle

    return {"oracle": [float(v) for v in ks_least_squares_oracle(problem)]}


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def _flat_numbers(value) -> list:
    """Every number in a parsed JSON document, depth first."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _flat_numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _flat_numbers(v)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    return []


def _relative_gap(a: list, b: list) -> float:
    if len(a) != len(b):
        return math.inf
    gap = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    return gap / max(math.sqrt(sum(y * y for y in b)), 1e-300)


def _exact_check(outputs: dict, context: dict) -> list:
    docs = {}
    for name in ("ks.json", "lm.json"):
        try:
            docs[name] = json.loads(outputs[name], parse_constant=_reject_constant)
        except ValueError as exc:
            return [f"{name} is not strict JSON: {exc}"]
        if any(not math.isfinite(v) for v in _flat_numbers(docs[name])):
            return [f"{name} holds a non-finite number"]
    ks_mean = _flat_numbers(docs["ks.json"]["mean"])
    problems = []
    gap = _relative_gap(ks_mean, context["oracle"])
    if gap > 1e-8:
        problems.append(f"run-ks mean is {gap:.3e} relative from the least-squares oracle")
    iterates = docs["lm.json"]["iterates"]
    one_shot = _flat_numbers(iterates[1]) if len(iterates) == 2 else []
    gap = _relative_gap(one_shot, ks_mean)
    if gap > 1e-8:
        problems.append(f"run-lm one-shot iterate is {gap:.3e} relative from the run-ks mean")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="enks-rate",
            why="EnKS vs exact-covariance reference at large N and tiny state: keyed draws and ensemble passes dominate",
            config=_enks_rate_config,
            commands=_study_commands,
            check=_slope_check(-0.7, -0.3),
            canonical=_strip_wall_ms,
        ),
        Workload(
            name="tau-rate",
            why="finite-difference vs tangent LM tau sweep: bound by per-member Python calls to operators and fd_directional",
            config=_tau_rate_config,
            commands=_study_commands,
            check=_slope_check(0.7, 1.3),
            canonical=_strip_wall_ms,
        ),
        Workload(
            name="exact-smoother",
            why="run-ks then exact one-shot run-lm at m=k=24: no draws; the Kalman recursion, PSD checks and JSON writer dominate",
            config=_exact_config,
            commands=_exact_commands,
            check=_exact_check,
            canonical=lambda outputs: dict(outputs),
            prepare=_exact_prepare,
        ),
    )
}
