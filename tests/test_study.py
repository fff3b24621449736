import csv
import io
import json
import re
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensvar import (
    AssimilationProblem,
    EnsvarError,
    GaussianEstimate,
    LMConfig,
    Operator,
    PerturbationStream,
    StudyResult,
    StudySpec,
    Trajectory,
    ValidationError,
    coupled_member_diffs,
    derive_seed,
    emit,
    empirical_lp_norm,
    enks_run,
    lm_run,
    make_toy_problem,
    run_study,
)
from ensvar import fourdvar
from ensvar import study as study_module
from ensvar.fourdvar import _LM_READERS
from ensvar.streams import _record
from ensvar.study import _STUDY_READERS, StudyRow, json_text, render_csv, render_json


_PINNED_ENKS_CSV = Path(__file__).parent / "data" / "enks_vs_ks_linear_chain_m2_k3.csv"


def _pinned_enks_spec() -> StudySpec:
    problem = make_toy_problem("linear-chain", m=2, k=3, seed=11)
    return StudySpec(kind="enks-vs-ks", sweep=(16, 64), replicates=4, problem=problem, seed=20)


# A study document as StudyResult.to_dict writes it.
_ROW_DOC = {"sweep_value": 16.0, "error_estimate": 0.5, "stderr_estimate": 0.1, "wall_ms": 2.0, "raw_errors": [0.4, 0.6]}
_RESULT_DOC = {"kind": "enks-vs-ks", "p_order": 2.0, "replicates": 2, "seed": 3, "slope": None, "intercept": None,
               "rows": [_ROW_DOC]}


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

    @pytest.mark.parametrize("p_order", [np.inf, np.nan])
    def test_rejects_non_finite_p_order(self, p_order):
        # An infinite p would make every error estimate 1.0 and the slope 0.0.
        problem = make_toy_problem("linear-chain", m=2, k=3, seed=11)
        with pytest.raises(ValidationError, match=r"^p_order must be finite and >= 1, got (inf|nan)$"):
            StudySpec(kind="enks-vs-ks", sweep=(16, 64), replicates=3, problem=problem, seed=1, p_order=p_order)

    @pytest.mark.parametrize("replicates", [2.5, "3", None])
    def test_replicates_must_be_a_whole_number(self, w1, replicates):
        with pytest.raises(ValidationError, match=r"^replicates must be an integer, got "):
            StudySpec(kind="enks-vs-ks", sweep=(10,), replicates=replicates, problem=w1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"replicates": True}, "replicates must be an integer, got True"),
            ({"sweep": 5}, "sweep must be a sequence, got 5"),
            ({"sweep": ("a",)}, "sweep[1] must be a real number, got 'a'"),
            ({"sweep": (16, True)}, "sweep[2] must be a real number, got True"),
            ({"sweep": "ab"}, "sweep must be a sequence, got 'ab'"),
            ({"p_order": "x"}, "p_order must be a real number, got 'x'"),
            ({"lm": "x"}, "lm must be an LMConfig or None, got 'x'"),
            ({"problem": None}, "problem must be an AssimilationProblem, got None"),
            ({"seed": -1}, "seed must be in [0, 2**64), got -1"),
            ({"seed": 2**64}, "seed must be in [0, 2**64), got 18446744073709551616"),
            ({"seed": "x"}, "seed must be an integer, got 'x'"),
            ({"seed": False}, "seed must be an integer, got False"),
        ],
    )
    def test_refuses_fields_of_the_wrong_type_when_built(self, w1, kwargs, message):
        # Each was a raw TypeError, ValueError or AttributeError, a boolean
        # read as a number, or (the seeds) a refusal only once the study ran.
        spec = {"kind": "enks-vs-ks", "sweep": (16, 32), "replicates": 2, "problem": w1, **kwargs}
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            StudySpec(**spec)

    def test_whole_float_replicates_become_an_int(self, w1):
        spec = StudySpec(kind="enks-vs-ks", sweep=(10,), replicates=np.float64(3.0), problem=w1)
        assert spec.replicates == 3 and type(spec.replicates) is int

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
        for name in ("_coupled_pass", "lm_exact_run", "_lm_pass"):
            monkeypatch.setattr(study_module, name, lambda *args, _name=name, **kwargs: ran.append(_name))
        lm = LMConfig(gamma=1.0, max_iterations=1, mode="tangent", ensemble_sizes=(16,))
        with pytest.raises(ValidationError, match=r"^sweep\[[13]\] must be (an integer|>= 2), got (2500\.5|1)$"):
            run_study(StudySpec(kind=kind, sweep=sweep, replicates=1, problem=w1, lm=lm))
        assert ran == []

    @pytest.mark.parametrize("kind, sweep", [("lm-enks-vs-lm", (16, 32)), ("tau-sweep", (1e-1, 1e-2))])
    def test_zero_gamma_refused_before_any_cell(self, w2, kind, sweep, monkeypatch):
        ran = []
        for name in ("_coupled_pass", "lm_exact_run", "_lm_pass"):
            monkeypatch.setattr(study_module, name, lambda *args, _name=name, **kwargs: ran.append(_name))
        # An exact-mode config takes gamma = 0; the study's ensemble arms
        # are refused by LMConfig's own rule when run_study builds them.
        lm = LMConfig(gamma=0.0, max_iterations=1, mode="exact", ensemble_sizes=(16,))
        spec = StudySpec(kind=kind, sweep=sweep, replicates=1, problem=w2, lm=lm)
        with pytest.raises(ValidationError, match=r"^ensemble LM modes require gamma > 0$"):
            run_study(spec)
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
    def test_tau_sweep_draws_one_lm_run_per_replicate(self, w2, draw_log, replicates):
        # Every tau arm shares the tangent arm's draws: one LM run's worth
        # of keys per replicate, J * (1 + 2k), not (1 + T) times that.
        lm = LMConfig(gamma=1.0, max_iterations=2, mode="finite-difference", ensemble_sizes=(16,))
        spec = StudySpec(
            kind="tau-sweep", sweep=(1e-1, 1e-2, 1e-3, 1e-4), replicates=replicates,
            problem=w2, seed=3, lm=lm,
        )
        run_study(spec)
        assert len(draw_log) == replicates * lm.max_iterations * (1 + 2 * w2.horizon)

    @pytest.mark.parametrize("replicates", [1, 3])
    def test_lm_enks_study_draws_one_lm_run_per_replicate(self, w2, draw_log, replicates):
        # Every ensemble size is an arm of one LM pass: one run's worth of
        # keys per replicate, each drawn once, at the largest size.
        lm = LMConfig(gamma=1.0, max_iterations=2, mode="tangent", ensemble_sizes=(16,))
        spec = StudySpec(kind="lm-enks-vs-lm", sweep=(8, 32, 128), replicates=replicates, problem=w2, seed=3, lm=lm)
        run_study(spec)
        assert len(draw_log) == replicates * lm.max_iterations * (1 + 2 * w2.horizon)
        assert {members for *_, members, _ in draw_log} == {tuple(range(128))}

    def test_lm_enks_study_cells_equal_one_size_runs(self, w2):
        # Each cell's raw errors are those of separate tangent runs at its
        # size, on the replicates' derived seeds, against exact LM.
        lm = LMConfig(gamma=1.0, max_iterations=2, mode="tangent", ensemble_sizes=(16,))
        spec = StudySpec(kind="lm-enks-vs-lm", sweep=(8, 64), replicates=3, problem=w2, seed=4, lm=lm)
        target = lm_run(w2, replace(lm, mode="exact")).iterates[-1].composite
        for row in run_study(spec).rows:
            cfg = replace(lm, ensemble_sizes=(int(row.sweep_value),))
            runs = [lm_run(w2, cfg, PerturbationStream(derive_seed(4, r))) for r in range(3)]
            assert row.raw_errors == tuple(float(np.linalg.norm(run.iterates[-1].composite - target)) for run in runs)

    def test_tau_sweep_cells_equal_separate_runs(self, w2):
        # Each cell's raw errors are the final-iterate gaps between separate
        # finite-difference and tangent runs on the replicates' derived seeds.
        lm = LMConfig(gamma=1.0, max_iterations=2, mode="finite-difference", ensemble_sizes=(16,))
        spec = StudySpec(kind="tau-sweep", sweep=(1e-1, 1e-3), replicates=3, problem=w2, seed=4, lm=lm)
        streams = [PerturbationStream(derive_seed(4, r)) for r in range(3)]
        tangent = [lm_run(w2, replace(lm, mode="tangent"), s).iterates[-1].composite for s in streams]
        for row in run_study(spec).rows:
            fd = [lm_run(w2, replace(lm, tau=row.sweep_value), s).iterates[-1].composite for s in streams]
            assert row.raw_errors == tuple(float(np.linalg.norm(a - b)) for a, b in zip(fd, tangent, strict=True))

    @pytest.mark.parametrize("kind, sweep", [("lm-enks-vs-lm", (8, 16)), ("tau-sweep", (1e-1, 1e-2))])
    def test_lm_pass_set_up_once_per_study(self, w2, kind, sweep, monkeypatch):
        # The start, its objective and the augmented covariances depend on no
        # draw, so a study works them out once, whatever its replicates; an
        # lm-enks-vs-lm study's exact target starts once more.
        calls = Counter()
        for name in ("_start", "_augmented_noise_cov"):

            def counting(*args, _name=name, _original=getattr(fourdvar, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(fourdvar, name, counting)
        lm = LMConfig(gamma=1.0, max_iterations=2, mode="tangent", ensemble_sizes=(16,))
        for replicates in (1, 3):
            calls.clear()
            run_study(StudySpec(kind=kind, sweep=sweep, replicates=replicates, problem=w2, lm=lm))
            assert calls == {"_start": 1 + (kind == "lm-enks-vs-lm"), "_augmented_noise_cov": w2.horizon}

    def test_tau_sweep_wall_time_covers_the_tangent_arm(self, w2, monkeypatch):
        # A clock that ticks once per draw pass: the rows' wall times must add
        # up to every draw of the sweep, the tangent arm's included, in equal shares.
        ticks = [0]

        def ticking(original):
            def draw(self, *args, **kwargs):
                ticks[0] += 1
                return original(self, *args, **kwargs)

            return draw

        for name in ("draw_members", "draw_keys"):
            monkeypatch.setattr(PerturbationStream, name, ticking(getattr(PerturbationStream, name)))
        monkeypatch.setattr(study_module, "time", SimpleNamespace(perf_counter=lambda: float(ticks[0])))
        lm = LMConfig(gamma=1.0, max_iterations=2, mode="finite-difference", ensemble_sizes=(16,))
        spec = StudySpec(kind="tau-sweep", sweep=(1e-1, 1e-2, 1e-3), replicates=2, problem=w2, lm=lm)
        rows = run_study(spec).rows
        assert [r.wall_ms for r in rows] == [rows[0].wall_ms] * 3
        assert ticks[0] > 0 and sum(r.wall_ms for r in rows) == pytest.approx(1e3 * ticks[0])

    def test_enks_study_validates_once(self, monkeypatch):
        # The problem is validated once, when it is built, and run_study
        # runs no check; the exact normal equations are factored once and
        # the coupled pass serves every sweep value.
        problem = make_toy_problem("linear-chain", m=2, k=3, seed=1)
        calls = {"_validated_factors": 0, "_block_factor": 0}
        for name in calls:
            for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "ensvar"]:
                original = getattr(module, name, None)
                if original is not None:

                    def counted(*args, _name=name, _original=original, **kwargs):
                        calls[_name] += 1
                        return _original(*args, **kwargs)

                    monkeypatch.setattr(module, name, counted)
        problem = replace(problem)
        assert calls == {"_validated_factors": 1, "_block_factor": 0}
        run_study(StudySpec(kind="enks-vs-ks", sweep=(8, 16, 32), replicates=2, problem=problem, seed=3))
        assert calls == {"_validated_factors": 1, "_block_factor": 1}

    @pytest.mark.parametrize("replicates, sweep", [(1, (16, 64)), (3, (100, 20, 7))])
    def test_enks_study_draws_each_key_once_at_max_size(self, draw_log, replicates, sweep):
        # Every sweep value shares one draw per key at the largest size:
        # one coupled replicate's worth of draw calls, 1 + 2k, per replicate.
        problem = make_toy_problem("linear-chain", m=2, k=3, seed=1)
        run_study(StudySpec(kind="enks-vs-ks", sweep=sweep, replicates=replicates, problem=problem, seed=3))
        calls = [members for *_, members, _ in draw_log]
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

    def test_json_keys_are_the_dataclass_fields_in_order(self, w1):
        # The document is the dataclasses, so a field added later is written with no other edit.
        result = run_study(StudySpec(kind="enks-vs-ks", sweep=(16, 32), replicates=2, problem=w1))
        doc = json.loads(render_json(result))
        assert list(doc) == [field.name for field in fields(StudyResult)]
        assert [list(row) for row in doc["rows"]] == [[field.name for field in fields(StudyRow)]] * 2

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"p_order": True}, "study result field p_order must be a real number, got True"),
            ({"replicates": "3"}, "study result field replicates must be an integer, got '3'"),
            ({"replicates": 2.7}, "study result field replicates must be an integer, got 2.7"),
            ({"seed": -1}, "study result field seed must be in [0, 2**64), got -1"),
            ({"slope": None, "intercept": "0"}, "study result field intercept must be a real number, got '0'"),
            ({"kind": "enkf"}, "study result field kind must be one of ('enks-vs-ks', 'lm-enks-vs-lm', 'tau-sweep'), got 'enkf'"),
            ({"extra": 1}, "unknown keys in study result section: ['extra']"),
            ({"rows": 5}, "study result field rows must be a sequence, got 5"),
            ({"rows": _ROW_DOC}, f"study result field rows must be a sequence, got {_ROW_DOC!r}"),
            ({"rows": ""}, "study result field rows must be a sequence, got ''"),
            ({"rows": {}}, "study result field rows must be a sequence, got {}"),
            ({"rows": [{**_ROW_DOC, "raw_errors": {}}]},
             "study result field rows[1] field raw_errors must be a sequence, got {}"),
            ({"rows": [{**_ROW_DOC, "sweep_value": "16"}]},
             "study result field rows[1] field sweep_value must be a real number, got '16'"),
            ({"rows": [{**_ROW_DOC, "raw_errors": [0.5, False]}]},
             "study result field rows[1] field raw_errors[2] must be a real number, got False"),
        ],
    )
    def test_from_dict_refuses_a_field_of_the_wrong_type(self, edit, message):
        # At the parent each was read as a number, truncated, or a raw TypeError.
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            StudyResult.from_dict({**_RESULT_DOC, **edit})

    @pytest.mark.parametrize("field, value", [("replicates", -5), ("p_order", 0.5), ("p_order", np.nan)])
    def test_from_dict_refuses_what_a_spec_refuses(self, w1, field, value):
        # Each was read into a result, and a result built directly checked
        # nothing: both are read by the rule StudySpec applies.
        with pytest.raises(ValidationError) as refused:
            StudySpec(**{"kind": "enks-vs-ks", "sweep": (16, 32), "replicates": 2, "problem": w1, field: value})
        message = f"study result field {refused.value}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            StudyResult.from_dict({**_RESULT_DOC, field: value})
        with pytest.raises(ValidationError, match=f"^{re.escape(str(refused.value))}$"):
            replace(StudyResult.from_dict(_RESULT_DOC), **{field: value})

    @pytest.mark.parametrize("in_row", [False, True])
    def test_from_dict_refuses_a_missing_key(self, in_row):
        # Each was a raw KeyError.
        keys, name = (_ROW_DOC, "study result field rows[1]") if in_row else (_RESULT_DOC, "study result")
        for key in keys:
            short = {k: v for k, v in keys.items() if k != key}
            doc = {**_RESULT_DOC, "rows": [short]} if in_row else short
            with pytest.raises(ValidationError, match=f"^{re.escape(f'{name} section requires a {key} value')}$"):
                StudyResult.from_dict(doc)

    def test_json_17_digit_numbers(self, w1):
        spec = StudySpec(kind="enks-vs-ks", sweep=(16,), replicates=2, problem=w1)
        result = run_study(spec)
        parsed = json.loads(render_json(result))
        assert parsed["rows"][0]["error_estimate"] == result.rows[0].error_estimate

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4)
            | st.sampled_from([(-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308), (3.0, -1e22, 2.0**60, -7.0)]),
            max_size=6,
        ),
        replicates=st.integers(1, 10**6),
    )
    def test_csv_matches_csv_module_writer(self, values, replicates):
        # The csv module's writer is the oracle: render_csv joins the same
        # fields by hand and must give the same bytes.
        rows = tuple(StudyRow(v, e, se, wall, ()) for v, e, se, wall in values)
        result = StudyResult("tau-sweep", 2.0, replicates, 0, None, None, rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["sweep_value", "p_order", "replicates", "error_estimate", "stderr_estimate", "wall_ms"])
        for v, e, se, wall in values:
            writer.writerow(["%.17g" % v, "2", str(replicates), "%.17g" % e, "%.17g" % se, "%.17g" % wall])
        assert render_csv(result) == buf.getvalue()

    def test_csv_peak_memory_is_small(self):
        rows = tuple(StudyRow(10.0**n, -(2.0**-n), 5e-324, 1e300, ()) for n in range(4))
        result = StudyResult("enks-vs-ks", 2.0, 50, 0, None, None, rows)
        render_csv(result)
        tracemalloc.start()
        try:
            render_csv(result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

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


def _kernel_texts(values) -> list[str]:
    """What the %.17g kernel writes for each value, its padding dropped."""
    slots = study_module._slots(np.asarray(values, dtype=float), b"")
    return [bytes(slot[slot != 0]).decode("ascii") for slot in slots]


def _around_powers_of_ten(ulps: int) -> np.ndarray:
    """Every power of ten a float64 holds, with its ``ulps`` neighbours on each side."""
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    steps = [powers]
    for direction in (0.0, np.inf):
        v = powers
        for _ in range(ulps):
            v = np.nextafter(v, direction)
            steps.append(v)
    return np.concatenate(steps)


class TestFormatKernel:
    """The kernel writes each float64 exactly as f"{v:.17g}" does, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_FINITE, min_size=1, max_size=40))
    def test_matches_python_on_any_finite_floats(self, values):
        assert _kernel_texts(values) == [f"{v:.17g}" for v in values]

    def test_matches_python_on_random_bit_patterns(self):
        values = np.random.default_rng(11).integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        assert _kernel_texts(values) == [f"{v:.17g}" for v in values.tolist()]

    def test_matches_python_at_the_edges(self):
        edges = [
            0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            1e16, np.nextafter(1e16, 0), np.nextafter(1e16, np.inf),
            1e17, np.nextafter(1e17, 0), np.nextafter(1e17, np.inf),
            9.9999999999999999e-5, 1e-4, 1e-5, 1e-280, 1e290,
            1125899906842624.25, 3 * 2.0**-24, 0.5, 2.5, 1.0, 100.0, 123456789012345678.0,
        ]
        values = np.concatenate([edges, _around_powers_of_ten(40)])
        values = np.concatenate([values, -values])
        assert _kernel_texts(values) == [f"{v:.17g}" for v in values.tolist()]

    def test_values_it_cannot_vouch_for_fall_back_and_still_match(self):
        # Subnormal, beyond the table, an exact tie, a tie beside a power of ten,
        # and floor(log10) one too high just below a power of ten.
        values = np.array([5e-324, 1e300, 1125899906842624.25, 3 * 2.0**-24, 9.9999999999999997e-65])
        assert study_module._nearest(values)[2].all()
        assert _kernel_texts(values) == [f"{v:.17g}" for v in values.tolist()]
        assert _kernel_texts(values)[2:4] == ["1125899906842624.2", "1.7881393432617188e-07"]

    @pytest.mark.parametrize("shape", [(130, 130), (70, 130), (3, 9000)])
    def test_arrays_spanning_several_chunks_match_recursive_writer(self, shape):
        a = np.random.default_rng(5).standard_normal(shape) * np.logspace(-30, 30, shape[1])
        if shape[0] == shape[1]:
            a = a + a.T
            assert a.size // 2 > 2 * study_module._CHUNK
        assert json_text({"a": a}, 1) == _recursive_json_text({"a": a.tolist()}, 1)


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


# Any value a JSON or YAML document can hold, nan and the infinities included.
_JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# The same with small finite numbers: a valid toy size or step builds a
# problem that large (k=10**30 never returns), so sizes stay small enough
# to build in milliseconds.
_SMALL_JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-1.0, 1.0)
    | st.sampled_from([np.nan, np.inf, -np.inf]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_LM_FIELDS = {"gamma": 1.0, "max_iterations": 2, "mode": "tangent", "ensemble_sizes": (8,), "tau": 1e-3,
              "initial_trajectory": None}
_STUDY_FIELDS = {"kind": "tau-sweep", "sweep": (0.1, 0.01), "replicates": 2, "p_order": 2.0, "seed": 3,
                 "problem": make_toy_problem("w2-quadratic"), "lm": LMConfig(**_LM_FIELDS)}
_W1 = make_toy_problem("w1-linear")
_TOY_PARAMETERS = {"w1-linear": {}, "linear-chain": {"m": 2, "k": 2, "seed": 0}, "lorenz63": {"k": 1, "dt": 0.05}}


def _one_field_replaced(build, fields: dict) -> list:
    """(label, make) per field: ``make(value)`` calls ``build`` with that one field replaced."""
    return [(f"{build.__qualname__} {name}", lambda value, name=name: build(**{**fields, name: value})) for name in fields]


def _study_document(**doc) -> StudyResult:
    return StudyResult.from_dict(doc)


def _study_row(**row) -> StudyResult:
    return StudyResult.from_dict({**_RESULT_DOC, "rows": [row]})


# A config's lm and study sections as YAML gives them, each read by its
# section reader as load_config reads it.
_LM_SECTION = {"gamma": 1.0, "max_iterations": 2, "mode": "tangent", "ensemble_sizes": [8], "tau": 1e-3,
               "initial_trajectory": [[0.0], [1.0]]}
_STUDY_SECTION = {"kind": "tau-sweep", "sweep": [0.1, 0.01], "replicates": 2, "p_order": 2, "seed": 3}
_SECTION_READERS = {
    "lm": lambda section: _record(LMConfig, _LM_READERS, "lm", section),
    "study": lambda section: _record(StudySpec, _STUDY_READERS, "study", section,
                                     problem=_STUDY_FIELDS["problem"], lm=_STUDY_FIELDS["lm"]),
}
# What a rule between two fields refuses, which names no one field.
_CROSS_FIELD_RULES = re.compile(
    r"^(ensemble LM modes require gamma > 0|ensemble mode requires a nonempty ensemble_sizes schedule"
    r"|sweep\[\d+\] must be (an integer|>= 2), got .*)$"
)
_SECTION_CASES = [
    (f"{section} field {name}", lambda value, read=_SECTION_READERS[section], doc=doc, name=name: read({**doc, name: value}))
    for section, doc in (("lm", _LM_SECTION), ("study", _STUDY_SECTION))
    for name in doc
]

_CASES = (
    _SECTION_CASES
    + _one_field_replaced(LMConfig, _LM_FIELDS)
    + _one_field_replaced(StudySpec, _STUDY_FIELDS)
    + _one_field_replaced(AssimilationProblem, {name: getattr(_W1, name) for name in _W1.__dataclass_fields__})
    + _one_field_replaced(Trajectory.from_composite, {"vec": [1.0, 2.0], "state_dim": 1})
    + _one_field_replaced(GaussianEstimate, {"mean": np.zeros(1), "covariance": np.eye(1)})
    + _one_field_replaced(Operator.from_matrix, {"a": np.eye(1)})
    + _one_field_replaced(_study_document, _RESULT_DOC)
    + _one_field_replaced(_study_row, _ROW_DOC)
)
_TOY_CASES = _one_field_replaced(make_toy_problem, {"name": "w1-linear"}) + [
    (f"{toy} {name}", lambda value, toy=toy, name=name, params=params: make_toy_problem(toy, **{**params, name: value}))
    for toy, params in _TOY_PARAMETERS.items()
    for name in [*params, "extra"]
]
# Callers of the quantity readers: label, call, and the name every refusal
# of the value begins with.  An ensemble size is drawn small, since a valid
# one runs an ensemble that large.
_KEY = {"phase": 1, "iteration": 2, "time_index": 3, "kind": 1}
_READER_CASES = [
    *[(f"draw_members {c}", lambda v, c=c: PerturbationStream(0).draw_members(**{**_KEY, c: v}, members=[0, 1], dim=2),
       f"draw key component {c}") for c in _KEY],
    ("derive_seed root_seed", lambda v: derive_seed(v, 0), "seed"),
    ("derive_seed index", lambda v: derive_seed(0, v), "derivation index"),
    ("empirical_lp_norm p", lambda v: empirical_lp_norm([[3.0, 4.0], [1.0]], v), "p"),
    ("Trajectory", Trajectory, "trajectory states"),
]
_SIZE_CASES = [
    ("enks_run n_members", lambda v: enks_run(_W1, v, PerturbationStream(0)), "n_members"),
    ("coupled_member_diffs n_members", lambda v: coupled_member_diffs(_W1, v, PerturbationStream(0), 1), "n_members"),
]
_NAMES = {label: name for label, _, name in _READER_CASES + _SIZE_CASES}


@settings(max_examples=900, deadline=None)
@given(
    case=st.tuples(st.sampled_from(_CASES + [case[:2] for case in _READER_CASES]), _JSON_LIKE)
    | st.tuples(st.sampled_from(_TOY_CASES + [case[:2] for case in _SIZE_CASES]), _SMALL_JSON_LIKE),
)
def test_any_json_like_field_gives_an_instance_or_a_validation_error(case):
    # Each type checks its own fields: whatever one field (or one toy
    # parameter) holds, the constructor returns or raises an EnsvarError,
    # never another error.  A config section's refusal names the section
    # and the field, unless a rule between two fields refused it; a
    # quantity reader's refusal begins with the value's name.
    (label, make), value = case
    try:
        make(value)
    except EnsvarError as exc:
        if label.startswith(("lm field ", "study field ")):
            assert str(exc).startswith(label) or _CROSS_FIELD_RULES.match(str(exc)), str(exc)
        if label in _NAMES:
            assert str(exc).startswith((f"{_NAMES[label]} ", f"{_NAMES[label]}:")), str(exc)
