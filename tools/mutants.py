"""Replay the repository's mutation checks.

A mutant is one exact edit of a file under ``src/ensvar``: an ``old``
text that occurs once in the file, and the ``new`` text that replaces
it.  Each names the tests that must kill it, that is, fail on the edited
code.  Standard library only::

    python3 tools/mutants.py ID [ID ...]     # run the named mutants
    python3 tools/mutants.py --all           # run every mutant, one at a time

A run copies ``src/``, ``tests/`` and ``pyproject.toml`` (whose pytest
settings turn warnings into errors) to a temporary directory, applies the
edit there and runs the mutant's tests with ``python -m pytest -x -q`` in
a subprocess whose ``PYTHONPATH`` is the copy's ``src``.  Each run gets
at most ``_MEMORY_LIMIT`` bytes of address space and ``_TIMEOUT``
seconds, so a mutant that drops a size check fails instead of filling the
machine's memory; a run that times out kills its mutant.  The result is
``killed``, ``survived`` or ``error`` (the edit does not apply, no test
was collected, or pytest itself failed), with the run's time.

A mutant that lives stays in the list with ``survives`` giving the
reason: an equivalent edit, or a gap in the tests that ``CHANGES.md``
records on a ``FOUND:`` line.  The exit status is 0 when every mutant
run ended as the list expects.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
_MEMORY_LIMIT = 4 * 2**30
_TIMEOUT = 600


class Mutant(NamedTuple):
    id: str
    pr: int  # the change that first checked it
    file: str  # under src/ensvar
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    survives: str = ""  # why the mutant is expected to live, if it is


MUTANTS = (
    # The %.17g writer kernel and the checks that came with it.
    Mutant(
        "format-below-1e16-rounded", 35, "study.py",
        "fallback |= (n < 10**16) | ((n == 10**16) & (t < nearest)) | (n >= 10**17)",
        "fallback |= (n < 10**16) | (n >= 10**17)",
        ("tests/test_study.py::TestFormatKernel",),
    ),
    Mutant(
        "format-below-1e16-dropped", 35, "study.py",
        "fallback |= (n < 10**16) | ((n == 10**16) & (t < nearest)) | (n >= 10**17)",
        "fallback |= n >= 10**17",
        ("tests/test_study.py::TestFormatKernel",),
    ),
    Mutant(
        "format-tie-margin-dropped", 35, "study.py",
        "(np.abs(t - nearest) > 0.5 - _TIE_MARGIN)",
        "(np.abs(t - nearest) > 0.5)",
        ("tests/test_study.py::TestFormatKernel",),
    ),
    Mutant(
        "format-lo-dropped", 35, "study.py",
        "+ a_low * hi_low) + a * lo  # y - h",
        "+ a_low * hi_low)  # y - h",
        ("tests/test_study.py::TestFormatKernel",),
    ),
    Mutant(
        "format-range-check-dropped", 35, "study.py",
        "fast = (a >= _SMALLEST) & (a <= _LARGEST)",
        "fast = a == a",
        ("tests/test_study.py::TestFormatKernel",),
    ),
    Mutant(
        "format-fallback-loop-skipped", 35, "study.py",
        "for i in np.flatnonzero(fallback):",
        "for i in np.flatnonzero(fallback)[:0]:",
        ("tests/test_study.py::TestFormatKernel",),
    ),
    Mutant(
        "format-kept-floor-zero", 35, "study.py",
        "axis=0, initial=1)",
        "axis=0, initial=0)",
        ("tests/test_study.py::TestFormatKernel",),
    ),
    Mutant(
        "format-triangle-offsets-off-by-one", 35, "study.py",
        "offsets = np.cumsum(np.arange(n, 0, -1)) - n",
        "offsets = np.cumsum(np.arange(n, 0, -1)) - n - 1",
        ("tests/test_study.py::TestJsonText",),
    ),
    Mutant(
        "jacobian-linear-branch-dropped", 35, "problem.py",
        "        if self.linear:\n            return self.as_matrix(np.size(x))\n",
        "",
        ("tests/test_fourdvar.py::TestExactLM",),
    ),
    Mutant(
        "matrix-column-check-dropped", 35, "problem.py",
        "    if op.matrix is not None and op.matrix.shape[1] != in_dim:\n"
        "        _expect_shape(f\"{name} matrix\", op.matrix.shape, (out_dim, in_dim))\n",
        "",
        ("tests/test_problem.py::test_a_matrix_with_another_column_count_is_refused_by_its_shape",),
    ),
    Mutant(
        "record-prefix-dropped", 35, "streams.py",
        'raise type(exc)(f"{name} field {exc}") from None',
        "raise",
        ("tests/test_cli.py::test_an_ensemble_size_sweep_refusal_names_its_section_and_field",),
    ),
    # The SPD kernel on numpy's own LAPACK.
    Mutant(
        "factor-lower-mask-dropped", 36, "numerics.py",
        "np.copyto(factor, a, where=_lower_triangle(n) if n <= 64 else np.tri(n, dtype=bool))",
        "np.copyto(factor, a)",
        ("tests/test_numerics.py::TestCholesky",),
    ),
    Mutant(
        "factor-info-ignored", 36, "numerics.py",
        "if info[0]:",
        "if False:",
        ("tests/test_numerics.py::TestCholesky",),
    ),
    Mutant(
        "finite-always-true", 36, "numerics.py",
        "return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())",
        "return True",
        ("tests/test_numerics.py::TestKernel",),
    ),
    Mutant(
        "as-matrix-cache-bypassed", 36, "problem.py",
        "if in_dim not in self._built:",
        "if True:",
        ("tests/test_fourdvar.py::TestExactLM::test_linear_operator_without_a_matrix_is_materialized_once",),
    ),
    Mutant(
        "solve-shape-check-dropped", 36, "numerics.py",
        "if lower.shape != (n, n) or b.shape[:1] != (n,):",
        "if False:",
        ("tests/test_numerics.py::TestKernel",),
    ),
    Mutant(
        "lapack-resolution-check-bypassed", 36, "numerics.py",
        "if all(hasattr(library, name) for name in names):",
        "if True:",
        ("tests/test_numerics.py::TestLapackHandle",),
    ),
    Mutant(
        "positive-definite-always-true", 36, "numerics.py",
        "    except NotSPDError:\n        return False\n",
        "    except NotSPDError:\n        return True\n",
        ("tests/test_numerics.py::TestPositiveDefinite",),
    ),
    Mutant(
        "solve-writes-into-b", 36, "numerics.py",
        'x = np.array(b, dtype=float, order="F")',
        'x = np.asarray(b, dtype=float, order="F")',
        ("tests/test_numerics.py::TestSpdSolve::test_right_hand_side_is_left_as_it_was",
         "tests/test_numerics.py::TestLapackHandle::test_direct_calls_match_scipy"),
    ),
    # One per refusal that first ran in tier-1 with the namespace change.
    Mutant(
        "member-keys-distinct-dropped", 37, "ensemble.py",
        "if len(set(members.tolist())) != members.size:",
        "if False:",
        ("tests/test_ensemble.py::TestEnKS::test_rejects_repeated_member_keys",),
    ),
    Mutant(
        "lm-result-objective-check-dropped", 37, "fourdvar.py",
        "if not all(np.isfinite(v) for v in self.objectives):",
        "if False:",
        ("tests/test_fourdvar.py::TestDispatcherAndConfig::test_result_refuses_a_non_finite_objective",),
    ),
    Mutant(
        "lm-exact-mode-check-dropped", 37, "fourdvar.py",
        "    if cfg.mode != \"exact\":\n        raise ValidationError(f\"lm_exact_run",
        "    if False:\n        raise ValidationError(f\"lm_exact_run",
        ("tests/test_fourdvar.py::TestDispatcherAndConfig::test_each_runner_refuses_another_mode",),
    ),
    Mutant(
        "lm-tangent-mode-check-dropped", 37, "fourdvar.py",
        "    if cfg.mode != \"tangent\":\n        raise ValidationError(f\"lm_enks_tangent_run",
        "    if False:\n        raise ValidationError(f\"lm_enks_tangent_run",
        ("tests/test_fourdvar.py::TestDispatcherAndConfig::test_each_runner_refuses_another_mode",),
    ),
    Mutant(
        "lm-fd-mode-check-dropped", 37, "fourdvar.py",
        "    if cfg.mode != \"finite-difference\":\n        raise ValidationError(\n",
        "    if False:\n        raise ValidationError(\n",
        ("tests/test_fourdvar.py::TestDispatcherAndConfig::test_each_runner_refuses_another_mode",),
    ),
    Mutant(
        "spd-square-check-dropped", 37, "numerics.py",
        "if a.shape[0] != a.shape[1]:",
        "if False:",
        ("tests/test_numerics.py::TestCholesky::test_not_square",),
    ),
    Mutant(
        "slope-length-check-dropped", 37, "numerics.py",
        "if xs.size != ys.size:",
        "if False:",
        ("tests/test_numerics.py::TestSlopeFit::test_rejects_unequal_lengths",),
    ),
    Mutant(
        "as-matrix-linear-check-dropped", 37, "problem.py",
        "if not self.linear:",
        "if False:",
        ("tests/test_problem.py::test_nonlinear_operator_has_no_matrix",),
    ),
    Mutant(
        "draw-dimension-limit-dropped", 37, "streams.py",
        "if (dim + 1) // 2 >= _INDEX_LIMIT:",
        "if False:",
        ("tests/test_streams.py::test_draw_members_refuses_a_dimension_beyond_its_counter_before_allocating",),
    ),
    Mutant(
        "members-rank-check-dropped", 37, "streams.py",
        "if keys.ndim != 1:",
        "if False:",
        ("tests/test_streams.py::test_draw_members_refuses_members_that_are_not_1d",),
    ),
    Mutant(
        "empty-sweep-check-dropped", 37, "study.py",
        "if len(sweep) < 1:",
        "if False:",
        ("tests/test_study.py::TestSpecValidation::test_requires_a_sweep_value",),
    ),
    Mutant(
        "json-key-check-dropped", 37, "study.py",
        "if not isinstance(key, str):",
        "if False:",
        ("tests/test_study.py::TestJsonText::test_refuses_a_key_that_is_not_a_string",
         "tests/test_study.py::TestNoPartialOutput::test_a_document_of_no_json_type_is_refused_before_the_first_byte"),
    ),
    Mutant(
        "json-scalar-check-dropped", 37, "study.py",
        "    elif not isinstance(value, str):\n        _fmt(value)\n",
        "    elif isinstance(value, float) and not math.isfinite(value):\n        _fmt(value)\n",
        ("tests/test_study.py::TestNoPartialOutput",),
    ),
    Mutant(
        "record-cross-field-reraise-prefixed", 37, "streams.py",
        "        if re.match(r\"\\w*\", str(exc)).group() not in values:\n            raise\n",
        "",
        ("tests/test_cli.py::test_every_config_refusal_is_one_error_line",),
    ),
)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_LIMIT, _MEMORY_LIMIT))


def _pytest(args: list[str], cwd: Path, **options) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *args],
        cwd=cwd, env=env, capture_output=True, text=True, **options,
    )


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How many times the mutant's ``old`` text occurs in its file."""
    return (root / "src" / "ensvar" / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def collected(selections, root: Path = ROOT) -> dict[str, int]:
    """The number of tests each node id selects, from one collection run."""
    selections = sorted(set(selections))
    result = _pytest(["--collect-only", "-q", *selections], root)
    ids = [line for line in result.stdout.splitlines() if line.startswith("tests/")]
    return {s: sum(i == s or i.startswith((s + "::", s + "[")) for i in ids) for s in selections}


def run(mutant: Mutant) -> tuple[str, float, str]:
    """``(outcome, seconds, detail)`` of one mutant on a fresh copy of the tree."""
    start, count = time.perf_counter(), occurrences(mutant)
    if count != 1:
        return "error", 0.0, f"old text occurs {count} times in {mutant.file}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        path = copy / "src" / "ensvar" / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        try:
            # preexec_fn is unsafe in a process with threads; this tool starts none.
            result = _pytest(["-x", "-q", *mutant.tests], copy, timeout=_TIMEOUT, preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            return "killed", time.perf_counter() - start, f"timed out after {_TIMEOUT} s"
    lines = (result.stdout + result.stderr).strip().splitlines()
    # pytest: 0 every test passed, 1 a test failed, 2 a collection error (the
    # edited module does not import), 5 no test collected.
    outcome = {0: "survived", 1: "killed", 2: "killed"}.get(result.returncode, "error")
    return outcome, time.perf_counter() - start, lines[-1] if lines else f"exit {result.returncode}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Replay the repository's mutation checks.")
    parser.add_argument("ids", nargs="*", help="mutants to run")
    parser.add_argument("--all", action="store_true", help="run every mutant")
    args = parser.parse_args(argv)
    by_id = {m.id: m for m in MUTANTS}
    unknown = [i for i in args.ids if i not in by_id]
    if unknown or not (args.all or args.ids):
        parser.error(f"unknown mutants: {unknown}" if unknown else "name mutants or pass --all")
    chosen = MUTANTS if args.all else [by_id[i] for i in args.ids]
    start, outcomes, unexpected = time.perf_counter(), Counter(), 0
    for m in chosen:
        outcome, seconds, detail = run(m)
        outcomes[outcome] += 1
        expected = "survived" if m.survives else "killed"
        unexpected += outcome != expected
        flag = "" if outcome == expected else "  UNEXPECTED"
        print(f"{m.id:<40} {outcome:<8} {seconds:6.1f} s  {detail}{flag}", flush=True)
    tally = ", ".join(f"{outcomes[o]} {o}" for o in ("killed", "survived", "error"))
    print(f"{len(chosen)} mutants: {tally}, {unexpected} unexpected, in {time.perf_counter() - start:.0f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
