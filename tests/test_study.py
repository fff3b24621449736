import csv
import io
import json

import numpy as np
import pytest

from ensvar import LMConfig, StudyResult, StudySpec, ValidationError, emit, run_study
from ensvar.study import render_csv, render_json


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
