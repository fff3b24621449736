import csv
import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensvar import LMConfig, StudyResult, StudySpec, ValidationError, emit, run_study
from ensvar.study import json_text, render_csv, render_json


def _strip_wall(csv_text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(csv_text)))
    drop = rows[0].index("wall_ms")
    return [r[:drop] + r[drop + 1 :] for r in rows]


class TestSpecValidation:
    def test_requires_monotone_sweep(self, w1):
        with pytest.raises(ValidationError):
            StudySpec(kind="enks-vs-ks", sweep=(10, 5, 20), replicates=2, problem=w1)

    def test_requires_positive_sweep(self, w1):
        with pytest.raises(ValidationError):
            StudySpec(kind="enks-vs-ks", sweep=(0, 10), replicates=2, problem=w1)

    @pytest.mark.parametrize("sweep", [(np.nan,), (1e-2, np.inf), (np.nan, 1e-3)])
    def test_rejects_non_finite_sweep(self, w1, sweep):
        with pytest.raises(ValidationError, match="sweep"):
            StudySpec(kind="enks-vs-ks", sweep=sweep, replicates=2, problem=w1)

    def test_requires_replicates(self, w1):
        with pytest.raises(ValidationError):
            StudySpec(kind="enks-vs-ks", sweep=(10,), replicates=0, problem=w1)

    def test_unknown_kind(self, w1):
        with pytest.raises(ValidationError):
            StudySpec(kind="enkf-vs-kf", sweep=(10,), replicates=1, problem=w1)

    def test_lm_studies_need_lm_config(self, w2):
        with pytest.raises(ValidationError):
            StudySpec(kind="tau-sweep", sweep=(0.1,), replicates=1, problem=w2)

    def test_enks_study_rejects_nonlinear_problem(self, w2):
        spec = StudySpec(kind="enks-vs-ks", sweep=(16,), replicates=1, problem=w2)
        with pytest.raises(ValidationError):
            run_study(spec)


class TestRunStudy:
    def test_single_cell_has_no_slope(self, w1):
        spec = StudySpec(kind="enks-vs-ks", sweep=(32,), replicates=1, problem=w1, seed=3)
        result = run_study(spec)
        assert len(result.rows) == 1
        assert result.slope is None and result.intercept is None
        assert len(result.rows[0].raw_errors) == 1

    def test_enks_rate_study(self, w1):
        spec = StudySpec(
            kind="enks-vs-ks", sweep=(100, 1000), replicates=20, problem=w1, seed=7
        )
        result = run_study(spec)
        assert result.rows[1].error_estimate < result.rows[0].error_estimate
        assert result.slope < 0

    def test_lm_enks_study(self, w2):
        lm = LMConfig(gamma=1.0, max_iterations=2, mode="tangent", ensemble_sizes=(16,))
        spec = StudySpec(
            kind="lm-enks-vs-lm", sweep=(50, 400), replicates=10, problem=w2, seed=9, lm=lm
        )
        result = run_study(spec)
        assert result.rows[1].error_estimate < result.rows[0].error_estimate

    def test_tau_sweep_study(self, w2):
        lm = LMConfig(gamma=1.0, max_iterations=2, mode="finite-difference", ensemble_sizes=(64,))
        spec = StudySpec(
            kind="tau-sweep", sweep=(1e-1, 1e-3), replicates=3, problem=w2, seed=11, lm=lm
        )
        result = run_study(spec)
        assert result.rows[1].error_estimate < result.rows[0].error_estimate
        assert 0.7 <= result.slope <= 1.3

    def test_deterministic_modulo_wall_time(self, w1):
        spec = StudySpec(kind="enks-vs-ks", sweep=(32, 64), replicates=4, problem=w1, seed=5)
        a, b = run_study(spec), run_study(spec)
        assert _strip_wall(render_csv(a)) == _strip_wall(render_csv(b))
        assert [r.raw_errors for r in a.rows] == [r.raw_errors for r in b.rows]


class TestEmission:
    def test_csv_rows_and_header(self, w1, tmp_path):
        spec = StudySpec(kind="enks-vs-ks", sweep=(16, 32, 64), replicates=2, problem=w1)
        result = run_study(spec)
        path = tmp_path / "out.csv"
        emit(result, "csv", path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["sweep_value", "p_order", "replicates",
                           "error_estimate", "stderr_estimate", "wall_ms"]
        assert len(rows) == 4
        for row in rows[1:]:
            assert all(np.isfinite(float(v)) for v in row)

    def test_json_round_trip(self, w1, tmp_path):
        spec = StudySpec(kind="enks-vs-ks", sweep=(16, 32), replicates=3, problem=w1, seed=2)
        result = run_study(spec)
        path = tmp_path / "out.json"
        emit(result, "json", path)
        doc = json.loads(path.read_text())
        assert StudyResult.from_dict(doc) == result

    def test_json_17_digit_numbers(self, w1):
        spec = StudySpec(kind="enks-vs-ks", sweep=(16,), replicates=2, problem=w1)
        result = run_study(spec)
        parsed = json.loads(render_json(result))
        assert parsed["rows"][0]["error_estimate"] == result.rows[0].error_estimate

    def test_unknown_format_rejected(self, w1, tmp_path):
        spec = StudySpec(kind="enks-vs-ks", sweep=(16,), replicates=1, problem=w1)
        with pytest.raises(ValidationError):
            emit(run_study(spec), "xml", tmp_path / "x")


def _recursive_json_text(value, indent: int = 0) -> str:
    """The element-by-element writer that json_text must reproduce byte for byte."""
    pad = "  " * indent
    if isinstance(value, dict):
        items = [
            f'{pad}  {json.dumps(k)}: {_recursive_json_text(v, indent + 1).lstrip()}'
            for k, v in value.items()
        ]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = [f"{pad}  {_recursive_json_text(v, indent + 1).lstrip()}" for v in value]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else pad + "[]"
    if isinstance(value, str):
        return pad + json.dumps(value)
    if isinstance(value, bool) or value is None:
        return pad + ("null" if value is None else ("true" if value else "false"))
    if isinstance(value, int):
        return pad + str(value)
    return pad + f"{value:.17g}"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(_FINITE, st.integers(), st.booleans(), st.none(), st.text(max_size=3))
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(_FINITE, max_size=6),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=40,
)


class TestJsonText:
    @pytest.mark.parametrize(
        "doc",
        [
            [1.5, -0.0, 5e-324, 1e300, -1e-300, 0.1],
            [1.0, 2, True, None, 3.5],
            [False, 0.0],
            [0, 1, 2],
            [],
            [[], [1.0], [[2.0, 3.0], []]],
            {"a": [[1.0, 2.0], [3.0, 4.0]], "b": (5.0, 6.0), "c": [1.0, "x"]},
            [np.float64(0.25), 0.5],
        ],
    )
    def test_matches_recursive_writer(self, doc):
        for indent in (0, 2):
            assert json_text(doc, indent) == _recursive_json_text(doc, indent)

    @settings(max_examples=100, deadline=None)
    @given(_DOCS)
    def test_matches_recursive_writer_on_random_documents(self, doc):
        assert json_text(doc) == _recursive_json_text(doc)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("wrap", [lambda v: [1.0, v], lambda v: [1, v], lambda v: {"x": v}])
    def test_refuses_non_finite(self, bad, wrap):
        with pytest.raises(ValidationError, match="non-finite"):
            json_text(wrap(bad))

    def test_csv_refuses_non_finite(self, w1):
        spec = StudySpec(kind="enks-vs-ks", sweep=(16,), replicates=1, problem=w1)
        result = run_study(spec)
        bad = replace(result, rows=(replace(result.rows[0], error_estimate=np.nan),))
        with pytest.raises(ValidationError, match="non-finite"):
            render_csv(bad)
