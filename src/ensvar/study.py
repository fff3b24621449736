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

A study result is declared once, by its dataclasses: its JSON document
is their fields in order (``to_dict`` is ``dataclasses.asdict``), its
CSV looks each column up by name, and ``from_dict`` reads a document
through ``streams._record``.  ``StudySpec``, ``StudyResult`` and
``StudyRow`` share one reader table, ``_STUDY_READERS``, that checks
each field's type and range; their constructors run it, and so do
``from_dict`` and the config's ``study`` section, so a document is read
by the rules a spec applies.  The quantities are read by ``streams``'
readers: each sweep value is finite and > 0 (``_positive``), an N sweep
is also checked by the ensemble-size rule (``_size``) though it keeps its
floats, ``p_order`` is the L^p order ``numerics.empirical_lp_norm`` reads
(``_p_order``), and ``seed`` is a seed in [0, 2**64) (``_seed``).
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace

import numpy as np

from .ensemble import _coupled_pass
from .errors import ValidationError
from .fourdvar import LMConfig, _lm_pass, lm_exact_run
from .numerics import empirical_lp_norm, fit_loglog_slope
from .problem import AssimilationProblem
from .streams import (PerturbationStream, _count, _each, _p_order, _positive, _read_fields, _real, _record, _rule, _seed,
                      _size, derive_seed)

__all__ = ["StudySpec", "StudyRow", "StudyResult", "run_study", "emit", "render_csv", "render_json", "json_text"]

_KINDS = ("enks-vs-ks", "lm-enks-vs-lm", "tau-sweep")
_CSV_COLUMNS = ("sweep_value", "p_order", "replicates", "error_estimate", "stderr_estimate", "wall_ms")


def _sweep(name: str, value) -> tuple[float, ...]:
    """Sweep values: at least one, each finite and > 0 (``streams._positive``),
    strictly monotone."""
    sweep = _each(_positive)(name, value)
    if len(sweep) < 1:
        raise ValidationError(f"{name} must contain at least one value")
    diffs = np.diff(sweep)
    if len(sweep) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValidationError(f"{name} values must be strictly monotone")
    return sweep


def _row(name: str, value) -> "StudyRow":
    """A study row, or the mapping of one a document holds read as one."""
    return value if isinstance(value, StudyRow) else _record(StudyRow, _STUDY_READERS, name, value)


def _optional_real(name: str, value) -> float | None:
    return None if value is None else _real(name, value)


# The fields of StudySpec, StudyResult and StudyRow, each with the reader
# that checks its type and range, called as ``read(name, value)``.  A name
# two records share (kind, replicates, p_order, seed) has one reader, so a
# study result's document is read by its spec's rules.
_STUDY_READERS = {
    "kind": _rule(None, f"one of {_KINDS}", lambda kind: isinstance(kind, str) and kind in _KINDS),
    "sweep": _sweep,
    "replicates": _count,
    "problem": _rule(None, "an AssimilationProblem", lambda problem: isinstance(problem, AssimilationProblem)),
    "p_order": _p_order,
    "seed": _seed,
    "lm": _rule(None, "an LMConfig or None", lambda lm: isinstance(lm, (LMConfig, type(None)))),
    "slope": _optional_real,
    "intercept": _optional_real,
    "rows": _each(_row),
    "sweep_value": _real,
    "error_estimate": _real,
    "stderr_estimate": _real,
    "wall_ms": _real,
    "raw_errors": _each(_real),
}


@dataclass(frozen=True)
class StudySpec:
    """One convergence study: what to sweep, how often, on which problem.

    Each field is read by its reader in ``_STUDY_READERS``, which a config's
    ``study`` section is read by too.  An N sweep is checked by the rule
    of an ensemble size.  An LM study's arms are ensemble-mode
    copies of ``lm``, which check their own rules (gamma > 0 among them)
    when :func:`run_study` builds them, before any cell runs.
    """

    kind: str
    sweep: tuple[float, ...]
    replicates: int
    problem: AssimilationProblem
    p_order: float = 2.0
    seed: int = 0
    lm: LMConfig | None = None

    def __post_init__(self) -> None:
        _read_fields(self, _STUDY_READERS)
        if self.kind in ("lm-enks-vs-lm", "tau-sweep") and self.lm is None:
            raise ValidationError(f"study kind {self.kind!r} requires an LM config")
        if self.kind in ("enks-vs-ks", "lm-enks-vs-lm"):
            _each(_size)("sweep", self.sweep)  # checked only: the sweep keeps its floats


@dataclass(frozen=True)
class StudyRow:
    """One sweep cell.  Every study kind runs all its cells in one keyed
    pass per replicate: an enks-vs-ks or lm-enks-vs-lm study one arm per
    ensemble size, a tau-sweep one arm per tau beside its tangent arm.
    ``wall_ms`` is each row's equal share of those passes' time."""

    sweep_value: float
    error_estimate: float
    stderr_estimate: float
    wall_ms: float
    raw_errors: tuple[float, ...]

    def __post_init__(self) -> None:
        _read_fields(self, _STUDY_READERS)


@dataclass(frozen=True)
class StudyResult:
    """A study's outcome.  Its JSON document is its fields in order, each
    row a mapping of the row's fields in order, so a field added here is
    written and read with no other edit but its reader in ``_STUDY_READERS``."""

    kind: str
    p_order: float
    replicates: int
    seed: int
    slope: float | None
    intercept: float | None
    rows: tuple[StudyRow, ...]

    def __post_init__(self) -> None:
        _read_fields(self, _STUDY_READERS)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "StudyResult":
        """The result a document holds, each field read by the rule its
        constructor and ``StudySpec`` apply: a boolean or a string is not a
        number, a count or seed must be whole, replicates at least 1, p_order
        finite and at least 1, and a seed in [0, 2**64).  A missing or
        unknown key, or a value of the wrong type or range, raises
        ``ValidationError`` naming the field."""
        return _record(cls, _STUDY_READERS, "study result", doc)


def _summarize(value: float, diffs: list[np.ndarray], p_order: float, wall_ms: float) -> StudyRow:
    norms = [float(np.linalg.norm(np.asarray(d).reshape(-1))) for d in diffs]
    estimate = empirical_lp_norm(diffs, p_order)
    # Descriptive spread: standard error of the mean per-replicate norm.
    stderr = float(np.std(norms, ddof=1) / np.sqrt(len(norms))) if len(norms) > 1 else 0.0
    return StudyRow(value, estimate, stderr, wall_ms, tuple(norms))


def _enks_vs_ks_pass(spec: StudySpec):
    # Every ensemble size is an EnKS arm of one coupled pass, against one
    # exact reference member; the normal equations are factored once per
    # study.  The pass reads the problem's matrices, refusing a nonlinear one.
    return _coupled_pass(spec.problem, tuple(int(v) for v in spec.sweep))


def _lm_enks_vs_lm_pass(spec: StudySpec):
    # Every ensemble size is a tangent arm of one LM pass, against the
    # final iterate of exact LM; the arms are built first, so that their
    # own rules (gamma > 0) refuse a study before the exact run.
    arms = tuple(replace(spec.lm, mode="tangent", ensemble_sizes=(int(v),)) for v in spec.sweep)
    target = lm_exact_run(spec.problem, replace(spec.lm, mode="exact", ensemble_sizes=())).iterates[-1].composite
    lm_pass = _lm_pass(spec.problem, arms, keep_ensembles=False)
    return lambda stream: [run.iterates[-1].composite - target for run in lm_pass(stream)]


def _tau_sweep_pass(spec: StudySpec):
    # Every tau is a finite-difference arm of one LM pass, against its
    # tangent arm.
    arms = (replace(spec.lm, mode="tangent"), *(replace(spec.lm, mode="finite-difference", tau=v) for v in spec.sweep))
    lm_pass = _lm_pass(spec.problem, arms, keep_ensembles=False)

    def one_pass(stream) -> list[np.ndarray]:
        tangent, *fd = lm_pass(stream)
        return [run.iterates[-1].composite - tangent.iterates[-1].composite for run in fd]

    return one_pass


def run_study(spec: StudySpec) -> StudyResult:
    """Run every cell of a study and fit the log-log rate.

    Every kind sets its keyed pass up once and runs it once per replicate,
    on the replicate's derived seed, giving each cell its error; the time
    of the passes, their set-up included, is split evenly over the rows.
    """
    t0 = time.perf_counter()
    passes = {"enks-vs-ks": _enks_vs_ks_pass, "lm-enks-vs-lm": _lm_enks_vs_lm_pass, "tau-sweep": _tau_sweep_pass}
    one_pass = passes[spec.kind](spec)
    cells = [[] for _ in spec.sweep]
    for r in range(spec.replicates):
        for cell, diff in zip(cells, one_pass(PerturbationStream(derive_seed(spec.seed, r))), strict=True):
            cell.append(diff)
    wall = 1e3 * (time.perf_counter() - t0) / len(spec.sweep)
    rows = [_summarize(value, cell, spec.p_order, wall) for value, cell in zip(spec.sweep, cells)]

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
    """The study as CSV, one line per row.  Every field is a number or a
    column name, none holding a comma, quote or line break, so no field
    is quoted and the lines are the fields joined by commas."""
    lines = [",".join(_CSV_COLUMNS)]
    for row in result.rows:
        cells = vars(result) | vars(row)  # each column by name, from the row or the result
        lines.append(",".join(_fmt(cells[column]) for column in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


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
