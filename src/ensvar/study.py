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
uses, so the document never exists as one string.  The numbers of a
float64 array are formatted by one numpy kernel, byte for byte as
``'%.17g'`` formats them, each into a fixed-width slot of bytes; a row
is joined from its slots by one boolean compress and written as soon as
it is joined, so no Python string is built per number.  A symmetric
matrix has its upper triangle formatted once, and each row gathers its
slots from it.  A document holding a non-finite number is refused before
its first byte is written.

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

import functools
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


# The %.17g kernel: the bytes of f"{v:.17g}" for a chunk of finite float64
# values at once, each left-aligned in a zero-padded _SLOT-byte slot.  The
# 17 digits of |v| are the integer nearest y = |v| * 10**p, for
# p = 16 - floor(log10 |v|).  y is summed from Dekker's (1971) exact product
# of |v| and the hi part of 10**p, plus |v| times its lo part, to within
# 1e-14.  '%.17g' formats, one by one, the values the kernel cannot vouch
# for: those outside [_SMALLEST, _LARGEST], those whose y lies within
# _TIE_MARGIN of a half, and those whose y is below 10**16 or rounds to
# 10**17 (floor(log10) can be one off beside a power of ten).
_SLOT = 24  # the longest %.17g of a float64: -1.2345678901234567e-308
_CHUNK = 4096  # values per kernel call, which bounds its temporaries
_GATHER = 512  # slots per gather
_SMALLEST, _LARGEST = 1e-280, 1e290  # |v| and 10**p stay clear of under- and overflow
_POWERS = range(16 - 290, 16 + 282)  # every p = 16 - floor(log10 |v|) of that range
_TIE_MARGIN = 1e-9
_LAST_DIGIT = np.arange(1, 18, dtype=np.uint8)[:, None]  # each digit's place, from 1


def _split(v):
    """Dekker's split of ``v`` into two halves of 26 significant bits each."""
    c = v * 134217729.0  # 2**27 + 1
    high = c - (c - v)
    return high, v - high


def _template(negative: int, case: int, kept: int) -> list[int]:
    """The source row of each character of a slot: digits 0-16, then '.',
    '0', '-', 'e', the exponent's sign and its three digits.  ``case`` 0-20
    is fixed notation with exponent case - 4; 21 and 22 are exponent
    notation with two and three exponent digits.  ``kept`` digits remain
    once trailing zeros go, but a fixed number keeps its whole digits."""
    if case > 20:  # d.ddde+dd
        body = [0] + [17] * (kept > 1) + list(range(1, kept)) + [20, 21] + [22] * (case == 22) + [23, 24]
    elif case < 4:  # 0.0ddd
        body = [18, 17] + [18] * (3 - case) + list(range(kept))
    else:  # ddd.ddd
        whole = case - 3
        body = list(range(whole)) + [17] * (kept > whole) + list(range(whole, kept))
    return [19] * negative + body


@functools.cache
def _kernel_tables():
    """Per p in ``_POWERS``: 10**p as hi, hi's two halves and lo, its
    notation case (times 17) and its exponent's four characters.  And the
    templates, as offsets into a chunk's (26, _CHUNK) source block.

    Python's int/int division and int-to-float conversion round correctly,
    so hi is the double nearest 10**p and lo the double nearest 10**p - hi.
    """
    powers, cases, exponents = [], [], b""
    for p in _POWERS:
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        powers.append((hi, *_split(hi), (num * hi_den - hi_num * den) / (den * hi_den)))
        e = 16 - p
        cases.append(17 * (e + 4 if -4 <= e < 17 else 21 if abs(e) < 100 else 22))
        exponents += b"%c%03d" % (b"-+"[e >= 0], abs(e))
    templates = [
        (columns := _template(negative, case, kept)) + [25] * (_SLOT - len(columns))
        for negative in range(2)
        for case in range(23)
        for kept in range(1, 18)
    ]
    exponents = np.frombuffer(exponents, np.uint8).reshape(-1, 4).T.copy()
    return np.array(powers).T.copy(), np.array(cases), exponents, np.array(templates) * _CHUNK


def _nearest(x: np.ndarray):
    """Per value of ``x``: the integer n nearest |x| * 10**p, the row of p in
    the kernel's tables, and whether '%.17g' must format the value instead.
    Zero has n = 0 and p = 16."""
    powers = _kernel_tables()[0]
    a = np.abs(x)
    zero = a == 0
    fast = (a >= _SMALLEST) & (a <= _LARGEST)
    a[~fast] = 1.0  # zero and the fallbacks: n then comes out finite
    row = (16 - _POWERS.start - np.floor(np.log10(a))).astype(np.intp)
    hi, hi_high, hi_low, lo = np.take(powers, row, axis=1)
    h = a * hi
    a_high, a_low = _split(a)
    t = (((a_high * hi_high - h) + a_high * hi_low + a_low * hi_high) + a_low * hi_low) + a * lo  # y - h
    nearest = np.rint(t)
    n = h.astype(np.int64) + nearest.astype(np.int64)
    fallback = ~(fast | zero) | (np.abs(t - nearest) > 0.5 - _TIE_MARGIN)
    fallback |= (n < 10**16) | ((n == 10**16) & (t < nearest)) | (n >= 10**17)
    n[zero] = 0
    return n, row, fallback


def _format_chunk(x: np.ndarray, slots: np.ndarray) -> None:
    """Write the slots of at most ``_CHUNK`` finite float64 values to ``slots``."""
    _, cases, exponents, templates = _kernel_tables()
    n, row, fallback = _nearest(x)
    size = len(x)
    source = np.empty((26, _CHUNK), np.uint8)
    digits = source[:17, :size]
    place = 0
    for part, count in ((n // 10**9, 8), (n % 10**9, 9)):
        part = part.astype(np.int32)
        for unit in (10**k for k in range(count - 1, -1, -1)):
            digit = part // unit
            digits[place] = digit
            part -= digit * unit
            place += 1
    kept = np.max((digits != 0) * _LAST_DIGIT, axis=0, initial=1)
    digits += ord("0")
    source[17:21, :size] = np.frombuffer(b".0-e", np.uint8)[:, None]
    source[21:25, :size] = np.take(exponents, row, axis=1)
    source[25] = 0
    keys = cases[row] + 23 * 17 * np.signbit(x) + kept - 1  # the template of (sign, case, kept)
    for first in range(0, size, _GATHER):  # in parts: an index takes 8 bytes per character
        index = np.take(templates, keys[first : first + _GATHER], axis=0)
        index += np.arange(first, first + len(index))[:, None]
        np.take(source.reshape(-1), index, out=slots[first : first + _GATHER], mode="clip")
    for i in np.flatnonzero(fallback):
        text = b"%.17g" % x[i]
        slots[i] = 0
        slots[i, : len(text)] = np.frombuffer(text, np.uint8)


def _slots(values: np.ndarray, sep: bytes) -> np.ndarray:
    """Each of the finite float64 ``values`` as its slot followed by ``sep``."""
    slots = np.empty((len(values), _SLOT + len(sep)), np.uint8)
    slots[:, _SLOT:] = np.frombuffer(sep, np.uint8)
    for start in range(0, len(values), _CHUNK):
        _format_chunk(values[start : start + _CHUNK], slots[start : start + _CHUNK, :_SLOT])
    return slots


def _joined(block: np.ndarray, cut: int) -> list[str]:
    """Each row of a (rows, entries, width) block of slots as one string: its
    padding dropped by one boolean compress, and its last ``cut`` bytes (the
    last entry's separator) cut."""
    keep = block != 0
    text = str(block[keep], "ascii")
    ends = np.cumsum(np.count_nonzero(keep.reshape(len(block), -1), axis=1)).tolist()
    return [text[start : end - cut] for start, end in zip([0, *ends], ends)]


def _write_array(a: np.ndarray, write, pad: str) -> None:
    """A float64 vector or matrix with no empty axis, as ``_write_json``
    writes its ``tolist()``, each row written as soon as it is joined.

    Each block of rows is formatted by the kernel, or, for a matrix equal to
    its transpose bit for bit, gathered from its upper triangle, which is
    formatted once.
    """
    rows = a.reshape(-1, a.shape[-1])
    n, m = rows.shape
    row_pad = pad if a.ndim == 1 else pad + "  "
    sep = (",\n" + row_pad + "  ").encode()
    # Compared as bits, so a 0.0 mirrored by a -0.0 is not symmetric.
    bits = rows.view(np.uint64)
    upper = None
    if a.ndim == 2 and n == m and (bits == bits.T).all():
        upper = _slots(a[np.triu(np.ones((n, n), bool))], sep)
        offsets = np.cumsum(np.arange(n, 0, -1)) - n  # (i, j) for i <= j is at offsets[i] + j
    step = max(1, _CHUNK // m)
    for first in range(0, n, step):
        last = min(n, first + step)
        if upper is None:
            block = _slots(rows[first:last].reshape(-1), sep).reshape(last - first, m, -1)
        else:
            i, j = np.arange(first, last)[:, None], np.arange(m)
            block = np.take(upper, offsets[np.minimum(i, j)] + np.maximum(i, j), axis=0)
        for k, text in enumerate(_joined(block, len(sep))):
            opening = "" if a.ndim == 1 else ("[\n" if first + k == 0 else ",\n") + row_pad
            write(opening + "[\n" + row_pad + "  " + text + "\n" + row_pad + "]")
    if a.ndim == 2:
        write("\n" + pad + "]")


def _write_json(value, write, pad: str) -> None:
    """Write a checked document piece by piece, indented by ``pad``
    everywhere but before its first character."""
    inner = pad + "  "
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64 or value.size == 0 or value.ndim == 0:
            _write_json(value.tolist(), write, pad)
        elif value.ndim > 2:
            _write_json(list(value), write, pad)
        else:
            _write_array(value, write, pad)
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
