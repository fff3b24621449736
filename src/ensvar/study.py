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

Every output of the package, study CSV and JSON and the CLI's run
documents, is written by :func:`emit`, to a file or to stdout.  JSON is
streamed piece by piece through one writer, which :func:`json_text` also
uses, so the document never exists as one string.  A symmetric matrix is
written row by row and each mirrored pair is formatted once: only the
formatted upper-triangle entries that later rows still need stay in
memory.  A document holding a non-finite number is refused before its
first byte is written.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .ensemble import _coupled_diffs
from .errors import ValidationError
from .fourdvar import LMConfig, _lm_ensemble_runs, lm_exact_run
from .numerics import empirical_lp_norm, fit_loglog_slope
from .problem import AssimilationProblem, _validated_factors
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
        if self.kind in ("enks-vs-ks", "lm-enks-vs-lm") and not all(v == int(v) >= 2 for v in sweep):
            raise ValidationError(f"{self.kind} sweep values must be integers >= 2, got {sweep}")


@dataclass(frozen=True)
class StudyRow:
    """One sweep cell.  ``wall_ms`` is the cell's wall time.  An
    enks-vs-ks study runs all its ensemble sizes in one coupled pass, and
    a tau-sweep all its cells in one lock-step pass, tangent arm included;
    both give each row an equal share of that pass's time."""

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


def _enks_vs_ks_rows(spec: StudySpec, factors) -> list[StudyRow]:
    # One coupled pass runs every ensemble size on shared draws; its time
    # is split evenly over the rows.
    if not spec.problem.all_linear:
        raise ValidationError("enks-vs-ks studies require a fully linear problem")
    t0 = time.perf_counter()
    cells = _coupled_diffs(
        spec.problem, tuple(int(v) for v in spec.sweep), PerturbationStream(spec.seed), spec.replicates, factors
    )
    wall = 1e3 * (time.perf_counter() - t0) / len(spec.sweep)
    return [
        StudyRow(value, *_summarize(cell, spec.p_order), wall)
        for value, cell in zip(spec.sweep, cells)
    ]


def _lm_enks_vs_lm_rows(spec: StudySpec, factors) -> list[StudyRow]:
    base = spec.lm
    exact = lm_exact_run(spec.problem, replace(base, mode="exact", ensemble_sizes=()))
    target = exact.iterates[-1].composite
    rows = []
    for value in spec.sweep:
        cfg = replace(base, mode="tangent", ensemble_sizes=(int(value),))
        t0 = time.perf_counter()
        diffs = []
        for r in range(spec.replicates):
            stream = PerturbationStream(derive_seed(spec.seed, r))
            (run,) = _lm_ensemble_runs(spec.problem, cfg, stream, None, (None,), factors, keep_ensembles=False)
            diffs.append(run.iterates[-1].composite - target)
        wall = 1e3 * (time.perf_counter() - t0)
        estimate, stderr, raw = _summarize(diffs, spec.p_order)
        rows.append(StudyRow(float(value), estimate, stderr, raw, wall))
    return rows


def _tau_sweep_rows(spec: StudySpec, factors) -> list[StudyRow]:
    # One keyed pass per replicate runs the tangent arm and every tau arm
    # on shared draws; the pass's time is split evenly over the tau rows.
    t0 = time.perf_counter()
    diffs = [[] for _ in spec.sweep]
    for r in range(spec.replicates):
        stream = PerturbationStream(derive_seed(spec.seed, r))
        tangent, *fd = _lm_ensemble_runs(
            spec.problem, spec.lm, stream, None, (None, *spec.sweep), factors, keep_ensembles=False
        )
        for cell, run in zip(diffs, fd):
            cell.append(run.iterates[-1].composite - tangent.iterates[-1].composite)
    wall = 1e3 * (time.perf_counter() - t0) / len(spec.sweep)
    return [
        StudyRow(value, *_summarize(cell, spec.p_order), wall)
        for value, cell in zip(spec.sweep, diffs)
    ]


def run_study(spec: StudySpec) -> StudyResult:
    """Run every cell of a study and fit the log-log rate."""
    factors = _validated_factors(spec.problem)
    runner = {
        "enks-vs-ks": _enks_vs_ks_rows,
        "lm-enks-vs-lm": _lm_enks_vs_lm_rows,
        "tau-sweep": _tau_sweep_rows,
    }[spec.kind]
    rows = runner(spec, factors)

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


def _check_finite(value) -> None:
    """Refuse a document holding a non-finite number, before any of it is written."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind != "f":
            _check_finite(value.tolist())
        elif not np.isfinite(value).all():
            _fmt(float(value[~np.isfinite(value)][0]))
    elif isinstance(value, (dict, list, tuple)):
        for v in value.values() if isinstance(value, dict) else value:
            _check_finite(v)
    elif isinstance(value, float) and not math.isfinite(value):
        _fmt(value)


def _write_symmetric(a: np.ndarray, write, pad: str) -> None:
    """A square matrix equal to its transpose, as ``_write_json`` writes it.

    Each mirrored pair is formatted once, from the upper triangle, and each
    row is written as soon as it is assembled.  A row's entries right of
    the diagonal are held only until the rows below have used them.
    """
    row_pad = pad + "  "
    sep = ",\n" + row_pad + "  "
    pending = []  # per written row, its unused upper entries, last column first
    for i in range(len(a)):
        upper = ("%.17g\n" * (len(a) - i) % tuple(a[i, i:].tolist())).split("\n")[:-1]
        row = sep.join([p.pop() for p in pending] + upper)
        write(("[\n" if i == 0 else ",\n") + row_pad + "[\n" + row_pad + "  " + row + "\n" + row_pad + "]")
        pending.append(upper[:0:-1])
    write("\n" + pad + "]")


def _write_json(value, write, pad: str) -> None:
    """Write a checked document piece by piece, indented by ``pad``
    everywhere but before its first character."""
    inner = pad + "  "
    if isinstance(value, np.ndarray):
        # Compared as bits, so a 0.0 mirrored by a -0.0 is not symmetric.
        if (
            value.dtype == np.float64
            and value.ndim == 2
            and value.shape[0] == value.shape[1] > 0
            and (value.view(np.uint64) == value.view(np.uint64).T).all()
        ):
            _write_symmetric(value, write, pad)
        else:
            _write_json(value.tolist(), write, pad)
    elif isinstance(value, (list, tuple)) and value and set(map(type, value)) == {float}:
        # A row of floats, formatted in one pass exactly as _fmt would.
        write("[\n" + inner + (",\n" + inner).join(["%.17g"] * len(value)) % tuple(value) + "\n" + pad + "]")
    elif isinstance(value, dict):
        write("{\n")
        for n, (k, v) in enumerate(value.items()):
            write((",\n" if n else "") + f"{inner}{json.dumps(k)}: ")
            _write_json(v, write, inner)
        write("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        write("[\n")
        for n, v in enumerate(value):
            write((",\n" if n else "") + inner)
            _write_json(v, write, inner)
        write("\n" + pad + "]")
    elif isinstance(value, str):
        write(json.dumps(value))
    else:
        write(_fmt(value))


def json_text(value, indent: int = 0) -> str:
    """A document as JSON text, two spaces per level, starting at ``indent``."""
    _check_finite(value)
    pieces = ["  " * indent]
    _write_json(value, pieces.append, pieces[0])
    return "".join(pieces)


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


def emit(result, format: str, path=None) -> None:
    """Write a study result as CSV or JSON, or a run document as JSON.

    The output goes to ``path``, or to stdout when ``path`` is None.  A
    document the writers refuse raises before the first byte is written.
    """
    study = isinstance(result, StudyResult)
    if format not in ("csv", "json"):
        raise ValidationError(f"format must be 'csv' or 'json', got {format!r}")
    if format == "csv":
        if not study:
            raise ValidationError("csv output is only defined for study results")
        text = render_csv(result)
    else:
        doc = result.to_dict() if study else result
        _check_finite(doc)
    with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as fh:
        if format == "csv":
            fh.write(text)
        else:
            _write_json(doc, fh.write, "")
            fh.write("\n")
