import csv
import io
import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensvar import LMConfig, PerturbationStream, StudyResult, StudySpec, ValidationError, emit, make_toy_problem, run_study
from ensvar import study as study_module
from ensvar.study import json_text, render_csv, render_json


_PINNED_ENKS_CSV = Path(__file__).parent / "data" / "enks_vs_ks_linear_chain_m2_k3.csv"


def _pinned_enks_spec() -> StudySpec:
    problem = make_toy_problem("linear-chain", m=2, k=3, seed=11)
    return StudySpec(kind="enks-vs-ks", sweep=(16, 64), replicates=4, problem=problem, seed=20)


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

    @pytest.mark.parametrize("kind", ["enks-vs-ks", "lm-enks-vs-lm"])
    @pytest.mark.parametrize("sweep", [(100, 2000, 2500.5), (1, 10)])
    def test_ensemble_sizes_checked_before_any_cell(self, w1, kind, sweep, monkeypatch):
        ran = []
        for name in ("_coupled_diffs", "lm_exact_run", "_lm_ensemble_runs"):
            monkeypatch.setattr(study_module, name, lambda *args, _name=name, **kwargs: ran.append(_name))
        lm = LMConfig(gamma=1.0, max_iterations=1, mode="tangent", ensemble_sizes=(16,))
        with pytest.raises(ValidationError, match="sweep values must be integers >= 2"):
            run_study(StudySpec(kind=kind, sweep=sweep, replicates=1, problem=w1, lm=lm))
        assert ran == []

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

    @pytest.mark.parametrize("replicates", [1, 3])
    def test_tau_sweep_draws_one_lm_run_per_replicate(self, w2, monkeypatch, replicates):
        # Every tau arm shares the tangent arm's draws: one LM run's worth
        # of draw calls per replicate, J * (1 + 2k), not (1 + T) times that.
        calls = []
        original = PerturbationStream.draw_members

        def counted(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PerturbationStream, "draw_members", counted)
        lm = LMConfig(gamma=1.0, max_iterations=2, mode="finite-difference", ensemble_sizes=(16,))
        spec = StudySpec(
            kind="tau-sweep", sweep=(1e-1, 1e-2, 1e-3, 1e-4), replicates=replicates,
            problem=w2, seed=3, lm=lm,
        )
        run_study(spec)
        assert len(calls) == replicates * lm.max_iterations * (1 + 2 * w2.horizon)

    def test_tau_sweep_wall_time_covers_the_tangent_arm(self, w2, monkeypatch):
        # A clock that ticks once per draw: the rows' wall times must add up
        # to every draw of the sweep, the tangent arm's included, in equal shares.
        ticks = [0]
        original = PerturbationStream.draw_members

        def ticking(self, *args, **kwargs):
            ticks[0] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PerturbationStream, "draw_members", ticking)
        monkeypatch.setattr(study_module, "time", SimpleNamespace(perf_counter=lambda: float(ticks[0])))
        lm = LMConfig(gamma=1.0, max_iterations=2, mode="finite-difference", ensemble_sizes=(16,))
        spec = StudySpec(kind="tau-sweep", sweep=(1e-1, 1e-2, 1e-3), replicates=2, problem=w2, lm=lm)
        rows = run_study(spec).rows
        assert [r.wall_ms for r in rows] == [rows[0].wall_ms] * 3
        assert sum(r.wall_ms for r in rows) == pytest.approx(1e3 * ticks[0])

    def test_enks_study_validates_once(self, monkeypatch):
        # run_study validates the problem and runs the exact recursion once;
        # the coupled pass takes its factors and serves every sweep value.
        problem = make_toy_problem("linear-chain", m=2, k=3, seed=1)
        calls = {"_validated_factors": 0, "_column_recursion": 0}
        for name in calls:
            for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "ensvar"]:
                original = getattr(module, name, None)
                if original is not None:

                    def counted(*args, _name=name, _original=original, **kwargs):
                        calls[_name] += 1
                        return _original(*args, **kwargs)

                    monkeypatch.setattr(module, name, counted)
        run_study(StudySpec(kind="enks-vs-ks", sweep=(8, 16, 32), replicates=2, problem=problem, seed=3))
        assert calls == {"_validated_factors": 1, "_column_recursion": 1}

    @pytest.mark.parametrize("replicates, sweep", [(1, (16, 64)), (3, (100, 20, 7))])
    def test_enks_study_draws_each_key_once_at_max_size(self, monkeypatch, replicates, sweep):
        # Every sweep value shares one draw per key at the largest size:
        # one coupled replicate's worth of draw calls, 1 + 2k, per replicate.
        problem = make_toy_problem("linear-chain", m=2, k=3, seed=1)
        calls = []
        original = PerturbationStream.draw_members

        def counted(self, phase, iteration, time_index, kind, members, dim):
            calls.append(tuple(np.asarray(members).tolist()))
            return original(self, phase, iteration, time_index, kind, members, dim)

        monkeypatch.setattr(PerturbationStream, "draw_members", counted)
        run_study(StudySpec(kind="enks-vs-ks", sweep=sweep, replicates=replicates, problem=problem, seed=3))
        assert len(calls) == replicates * (1 + 2 * problem.horizon)
        assert all(members == tuple(range(max(sweep))) for members in calls)

    def test_enks_study_csv_pinned(self):
        # Pinned bit for bit, wall time aside: a change of the ensemble
        # step's layout or arithmetic has to report its bit movement.
        got = _strip_wall(render_csv(run_study(_pinned_enks_spec())))
        assert got == list(csv.reader(io.StringIO(_PINNED_ENKS_CSV.read_text())))

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


_SYMMETRIC = np.array([[2.0, 0.1, -1e-300], [0.1, 1e300, 5e-324], [-1e-300, 5e-324, 0.3]])


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

    @pytest.mark.parametrize(
        "array",
        [
            _SYMMETRIC,
            _SYMMETRIC[:1, :1],
            np.arange(12.0).reshape(3, 4),
            np.arange(9.0).reshape(3, 3),
            np.array([0.5, -0.0, 1e-300]),
            np.zeros(0),
            np.zeros((0, 0)),
            np.zeros((2, 0)),
            np.array([[1.0, 0.0], [-0.0, 1.0]]),
            np.array([[1.0, -0.0], [-0.0, 1.0]]),
            np.array([[1, 2], [2, 1]]),
        ],
    )
    def test_arrays_match_recursive_writer(self, array):
        for indent in (0, 2):
            assert json_text(array, indent) == _recursive_json_text(array.tolist(), indent)
            assert json_text({"a": array}, indent) == _recursive_json_text({"a": array.tolist()}, indent)

    def test_mirrored_zeros_keep_their_signs(self):
        text = json_text(np.array([[1.0, 0.0], [-0.0, 1.0]]))
        assert json.loads(text) == [[1.0, 0.0], [-0.0, 1.0]]
        assert "-0" in text.split("]")[1] and "-0" not in text.split("]")[0]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(_FINITE, min_size=n * n, max_size=n * n)))
    def test_symmetric_arrays_match_recursive_writer(self, values):
        n = int(round(len(values) ** 0.5))
        a = np.array(values).reshape(n, n)
        lower = np.tril_indices(n, -1)
        a[lower] = a.T[lower]
        assert json_text(a, 1) == _recursive_json_text(a.tolist(), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_refuses_non_finite_array(self, bad, where):
        symmetric = _SYMMETRIC.copy()
        symmetric[where] = symmetric[where[::-1]] = bad
        for array in (symmetric, symmetric[:, :2], symmetric[0]):
            with pytest.raises(ValidationError, match="cannot write non-finite number"):
                json_text(array)

    def test_csv_refuses_non_finite(self, w1):
        spec = StudySpec(kind="enks-vs-ks", sweep=(16,), replicates=1, problem=w1)
        result = run_study(spec)
        bad = replace(result, rows=(replace(result.rows[0], error_estimate=np.nan),))
        with pytest.raises(ValidationError, match="non-finite"):
            render_csv(bad)


def _plain(value):
    """A document with its arrays as nested lists, for _recursive_json_text."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


_STREAM_CORPUS = [
    {"run": {"covariance": _SYMMETRIC, "mean": np.array([0.5, -0.0, 1e-300])}, "n": 3},
    {"mirrored": np.array([[1.0, 0.0], [-0.0, 1.0]]), "same": np.array([[1.0, -0.0], [-0.0, 1.0]])},
    {"empty": [], "none": np.zeros(0), "nothing": {}, "nested": [[], [[]]]},
    {"text": 'quote " backslash \\ newline \n tab \t accent é separator \u2028', "key \"x\"": "\x00"},
    [np.float64(0.25), 0.5, 7, True, None, "s", (1.0, 2.0)],
    np.arange(9.0).reshape(3, 3),
]


class TestStreamedWriter:
    @pytest.mark.parametrize("doc", _STREAM_CORPUS)
    def test_list_sink_matches_recursive_writer(self, doc):
        for indent in (0, 1, 3):
            assert json_text(doc, indent) == _recursive_json_text(_plain(doc), indent)

    @pytest.mark.parametrize("doc", _STREAM_CORPUS)
    def test_emit_matches_recursive_writer(self, doc, tmp_path, capsys):
        expected = _recursive_json_text(_plain(doc)) + "\n"
        path = tmp_path / "doc.json"
        emit(doc, "json", path)
        assert path.read_bytes() == expected.encode("utf-8")
        emit(doc, "json")
        assert capsys.readouterr().out == expected

    def test_emit_writes_a_study_result_as_render_json(self, w1, tmp_path):
        result = run_study(StudySpec(kind="enks-vs-ks", sweep=(16, 32), replicates=2, problem=w1))
        path = tmp_path / "study.json"
        emit(result, "json", path)
        assert path.read_text() == render_json(result)

    def test_symmetric_matrix_is_written_row_by_row(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40, 40))
        a = a + a.T
        pieces = []
        study_module._write_json({"covariance": a}, pieces.append, "")
        text = "".join(pieces)
        assert text == _recursive_json_text({"covariance": a.tolist()})
        assert max(map(len, pieces)) < len(text) / 20

    def test_csv_is_only_for_study_results(self, tmp_path):
        path = tmp_path / "doc.csv"
        with pytest.raises(ValidationError, match="csv"):
            emit({"a": 1.0}, "csv", path)
        assert not path.exists()


class TestNoPartialOutput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "place",
        [
            lambda bad: {"first": [1.0, 2.0], "covariance": np.eye(30), "last": [1.0, bad]},
            lambda bad: {"first": "x", "covariance": np.where(np.eye(30) > 0, bad, 0.5)},
            lambda bad: [np.eye(30), np.arange(4.0), np.array([[0.0, bad]])],
        ],
    )
    def test_refused_before_the_first_byte(self, tmp_path, capsys, bad, place):
        doc = place(bad)
        path = tmp_path / "doc.json"
        with pytest.raises(ValidationError, match="cannot write non-finite number"):
            emit(doc, "json", path)
        assert not path.exists()
        with pytest.raises(ValidationError, match="cannot write non-finite number"):
            emit(doc, "json")
        assert capsys.readouterr().out == ""

    def test_refused_csv_writes_no_file(self, w1, tmp_path):
        result = run_study(StudySpec(kind="enks-vs-ks", sweep=(16,), replicates=1, problem=w1))
        bad = replace(result, rows=(replace(result.rows[0], stderr_estimate=np.inf),))
        path = tmp_path / "study.csv"
        with pytest.raises(ValidationError, match="non-finite"):
            emit(bad, "csv", path)
        assert not path.exists()
