"""Convergence-study orchestration: sweeps, replication, and emission.

A study realizes one of the package's limit statements as a finite sweep:

* ``enks-vs-ks``: member-1 gap between the EnKS and the exact-covariance
  reference run, swept over ensemble size N (expected log-log slope about
  -1/2);
* ``lm-enks-vs-lm``: final-iterate gap between the tangent-ensemble LM
  solver and the exact LM solver, swept over N (slope about -1/2);
* ``tau-sweep``: final-iterate gap between the finite-difference and
  tangent-ensemble solvers under shared draws, swept over the step tau
  (slope about +1).

Every cell is replicated with per-replicate seeds derived from the root
seed, and coupled arms within a replicate always consume identical keyed
draws.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .ensemble import coupled_member_diffs
from .errors import ValidationError
from .fourdvar import LMConfig, enks_4dvar_run, lm_enks_tangent_run, lm_exact_run
from .numerics import empirical_lp_norm, fit_loglog_slope
from .problem import AssimilationProblem, validate_problem
from .streams import PerturbationStream, derive_seed

__all__ = ["StudySpec", "StudyRow", "StudyResult", "run_study", "emit", "render_csv", "render_json", "json_text"]

_KINDS = ("enks-vs-ks", "lm-enks-vs-lm", "tau-sweep")
_CSV_COLUMNS = ("sweep_value", "p_order", "replicates", "error_estimate", "stderr_estimate", "wall_ms")


@dataclass(frozen=True)
class StudySpec:
    """One convergence study: what to sweep, how often, on which problem."""

    kind: str
    sweep: tuple[float, ...]
    replicates: int
    problem: AssimilationProblem
    p_order: float = 2.0
    seed: int = 0
    lm: LMConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(f"study kind must be one of {_KINDS}, got {self.kind!r}")
        sweep = tuple(float(v) for v in self.sweep)
        object.__setattr__(self, "sweep", sweep)
        if len(sweep) < 1:
            raise ValidationError("sweep must contain at least one value")
        if not all(np.isfinite(v) and v > 0 for v in sweep):
            raise ValidationError(f"sweep values must be finite and positive, got {sweep}")
        diffs = np.diff(sweep)
        if len(sweep) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValidationError("sweep values must be strictly monotone")
        if self.replicates < 1:
            raise ValidationError(f"replicates must be >= 1, got {self.replicates}")
        if self.p_order < 1:
            raise ValidationError(f"p_order must be >= 1, got {self.p_order}")
        if self.kind in ("lm-enks-vs-lm", "tau-sweep") and self.lm is None:
            raise ValidationError(f"study kind {self.kind!r} requires an LM config")


@dataclass(frozen=True)
class StudyRow:
    sweep_value: float
    error_estimate: float
    stderr_estimate: float
    raw_errors: tuple[float, ...]
    wall_ms: float


@dataclass(frozen=True)
class StudyResult:
    kind: str
    p_order: float
    replicates: int
    seed: int
    rows: tuple[StudyRow, ...]
    slope: float | None
    intercept: float | None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "p_order": self.p_order,
            "replicates": self.replicates,
            "seed": self.seed,
            "slope": self.slope,
            "intercept": self.intercept,
            "rows": [
                {
                    "sweep_value": r.sweep_value,
                    "error_estimate": r.error_estimate,
                    "stderr_estimate": r.stderr_estimate,
                    "wall_ms": r.wall_ms,
                    "raw_errors": list(r.raw_errors),
                }
                for r in self.rows
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StudyResult":
        rows = tuple(
            StudyRow(
                sweep_value=float(r["sweep_value"]),
                error_estimate=float(r["error_estimate"]),
                stderr_estimate=float(r["stderr_estimate"]),
                raw_errors=tuple(float(v) for v in r["raw_errors"]),
                wall_ms=float(r["wall_ms"]),
            )
            for r in doc["rows"]
        )
        return cls(
            kind=doc["kind"],
            p_order=float(doc["p_order"]),
            replicates=int(doc["replicates"]),
            seed=int(doc["seed"]),
            rows=rows,
            slope=None if doc["slope"] is None else float(doc["slope"]),
            intercept=None if doc["intercept"] is None else float(doc["intercept"]),
        )


def _summarize(diffs: list[np.ndarray], p_order: float) -> tuple[float, float, tuple[float, ...]]:
    norms = [float(np.linalg.norm(np.asarray(d).reshape(-1))) for d in diffs]
    estimate = empirical_lp_norm(diffs, p_order)
    # Descriptive spread: standard error of the mean per-replicate norm.
    stderr = float(np.std(norms, ddof=1) / np.sqrt(len(norms))) if len(norms) > 1 else 0.0
    return estimate, stderr, tuple(norms)


def _enks_vs_ks_rows(spec: StudySpec) -> list[StudyRow]:
    if not spec.problem.all_linear:
        raise ValidationError("enks-vs-ks studies require a fully linear problem")
    rows = []
    for value in spec.sweep:
        n = int(value)
        if n != value or n < 2:
            raise ValidationError(f"enks-vs-ks sweep values must be integers >= 2, got {value}")
        t0 = time.perf_counter()
        diffs = coupled_member_diffs(
            spec.problem, n, PerturbationStream(spec.seed), spec.replicates
        )
        wall = 1e3 * (time.perf_counter() - t0)
        estimate, stderr, raw = _summarize(diffs, spec.p_order)
        rows.append(StudyRow(float(value), estimate, stderr, raw, wall))
    return rows


def _lm_enks_vs_lm_rows(spec: StudySpec) -> list[StudyRow]:
    base = spec.lm
    exact = lm_exact_run(spec.problem, replace(base, mode="exact", ensemble_sizes=()))
    target = exact.iterates[-1].composite
    rows = []
    for value in spec.sweep:
        n = int(value)
        if n != value or n < 2:
            raise ValidationError(f"lm-enks-vs-lm sweep values must be integers >= 2, got {value}")
        cfg = replace(base, mode="tangent", ensemble_sizes=(n,))
        t0 = time.perf_counter()
        diffs = []
        for r in range(spec.replicates):
            stream = PerturbationStream(derive_seed(spec.seed, r))
            run = lm_enks_tangent_run(spec.problem, cfg, stream)
            diffs.append(run.iterates[-1].composite - target)
        wall = 1e3 * (time.perf_counter() - t0)
        estimate, stderr, raw = _summarize(diffs, spec.p_order)
        rows.append(StudyRow(float(value), estimate, stderr, raw, wall))
    return rows


def _tau_sweep_rows(spec: StudySpec) -> list[StudyRow]:
    base = spec.lm
    # Tangent-mode oracle per replicate, shared across all tau cells.
    targets = []
    for r in range(spec.replicates):
        stream = PerturbationStream(derive_seed(spec.seed, r))
        run = lm_enks_tangent_run(spec.problem, replace(base, mode="tangent"), stream)
        targets.append(run.iterates[-1].composite)
    rows = []
    for value in spec.sweep:
        cfg = replace(base, mode="finite-difference", tau=float(value))
        t0 = time.perf_counter()
        diffs = []
        for r in range(spec.replicates):
            stream = PerturbationStream(derive_seed(spec.seed, r))
            run = enks_4dvar_run(spec.problem, cfg, stream)
            diffs.append(run.iterates[-1].composite - targets[r])
        wall = 1e3 * (time.perf_counter() - t0)
        estimate, stderr, raw = _summarize(diffs, spec.p_order)
        rows.append(StudyRow(float(value), estimate, stderr, raw, wall))
    return rows


def run_study(spec: StudySpec) -> StudyResult:
    """Run every cell of a study and fit the log-log rate."""
    validate_problem(spec.problem)
    runner = {
        "enks-vs-ks": _enks_vs_ks_rows,
        "lm-enks-vs-lm": _lm_enks_vs_lm_rows,
        "tau-sweep": _tau_sweep_rows,
    }[spec.kind]
    rows = runner(spec)

    slope = intercept = None
    estimates = [r.error_estimate for r in rows]
    if len(rows) >= 2 and all(e > 0 for e in estimates):
        slope, intercept = fit_loglog_slope([r.sweep_value for r in rows], estimates)
    return StudyResult(
        kind=spec.kind,
        p_order=spec.p_order,
        replicates=spec.replicates,
        seed=spec.seed,
        rows=tuple(rows),
        slope=slope,
        intercept=intercept,
    )


def _fmt(value) -> str:
    """Numbers with 17 significant digits (lossless for float64).

    JSON and CSV have no standard spelling of nan or inf, so a non-finite
    number raises instead of being written.
    """
    if isinstance(value, bool) or value is None:
        return "null" if value is None else ("true" if value else "false")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"cannot write non-finite number {value} to the output")
        return f"{value:.17g}"
    raise TypeError(f"unsupported scalar {type(value)!r}")


def json_text(value, indent: int = 0) -> str:
    pad = "  " * indent
    if (
        isinstance(value, (list, tuple))
        and value
        and set(map(type, value)) == {float}
        and all(map(math.isfinite, value))
    ):
        # A row of finite floats, formatted in one pass exactly as _fmt would;
        # a row holding nan or inf takes the recursion, where _fmt refuses it.
        body = (",\n" + pad + "  ").join(["%.17g"] * len(value)) % tuple(value)
        return pad + "[\n" + pad + "  " + body + "\n" + pad + "]"
    if isinstance(value, dict):
        items = [
            f'{pad}  {json.dumps(k)}: {json_text(v, indent + 1).lstrip()}'
            for k, v in value.items()
        ]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = [f"{pad}  {json_text(v, indent + 1).lstrip()}" for v in value]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else pad + "[]"
    if isinstance(value, str):
        return pad + json.dumps(value)
    return pad + _fmt(value)


def render_csv(result: StudyResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in result.rows:
        writer.writerow(
            [
                _fmt(row.sweep_value),
                _fmt(result.p_order),
                str(result.replicates),
                _fmt(row.error_estimate),
                _fmt(row.stderr_estimate),
                _fmt(row.wall_ms),
            ]
        )
    return buf.getvalue()


def render_json(result: StudyResult) -> str:
    return json_text(result.to_dict()) + "\n"


def emit(result: StudyResult, format: str, path) -> None:
    """Write a study result to ``path`` as CSV or JSON."""
    if format == "csv":
        text = render_csv(result)
    elif format == "json":
        text = render_json(result)
    else:
        raise ValidationError(f"format must be 'csv' or 'json', got {format!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
