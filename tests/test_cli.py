import argparse
import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import ensvar
from ensvar import config
from ensvar.cli import main
from ensvar.config import load_config

W1_CONFIG = """\
# scalar one-step linear fixture
problem:
  state_dim: 1
  horizon: 1
  x_b: [0.0]
  B: [[1.0]]
  M: [[[1.0]]]
  mu: [[0.0]]
  Q: [[[1.0]]]
  H: [[[1.0]]]
  R: [[[1.0]]]
  y: [[3.0]]

lm:
  gamma: 1.0
  max_iterations: 2
  mode: tangent
  ensemble_sizes: [64]

study:
  kind: enks-vs-ks
  sweep: [32, 128]
  replicates: 5
  p_order: 2
  seed: 12
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "w1.yaml"
    path.write_text(W1_CONFIG)
    return path


def _strip_wall(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index("wall_ms")
    return [r[:drop] + r[drop + 1 :] for r in rows]


def test_run_kf(config_path, tmp_path, capsys):
    out = tmp_path / "kf.json"
    assert main(["run-kf", "--config", str(config_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["algorithm"] == "kf"
    assert doc["means"][-1][0] == pytest.approx(2.0, abs=1e-10)
    assert doc["covariances"][-1][0][0] == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_run_ks(config_path, capsys):
    assert main(["run-ks", "--config", str(config_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["mean"], [1.0, 2.0], atol=1e-10)


def test_run_enks(config_path, capsys):
    assert main(["run-enks", "--config", str(config_path), "--members", "4000", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_members"] == 4000
    np.testing.assert_allclose(doc["sample_mean"], [1.0, 2.0], atol=0.15)


def test_run_lm_mode_flag(config_path, capsys):
    assert main(["run-lm", "--config", str(config_path), "--mode", "exact"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "exact"
    assert len(doc["iterates"]) == 3
    assert doc["objectives"][-1] <= doc["objectives"][0]


def test_run_lm_uses_config_mode(config_path, capsys):
    assert main(["run-lm", "--config", str(config_path), "--seed", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "tangent"


def test_study_csv_deterministic_modulo_wall(config_path, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["study", "--config", str(config_path), "--out", str(out1)]) == 0
    assert main(["study", "--config", str(config_path), "--out", str(out2)]) == 0
    assert _strip_wall(out1.read_text()) == _strip_wall(out2.read_text())


def test_study_seed_override_changes_output(config_path, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["study", "--config", str(config_path), "--out", str(out1), "--seed", "1"]) == 0
    assert main(["study", "--config", str(config_path), "--out", str(out2), "--seed", "2"]) == 0
    assert _strip_wall(out1.read_text()) != _strip_wall(out2.read_text())


def test_study_json_format(config_path, capsys):
    assert main(["study", "--config", str(config_path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "enks-vs-ks"
    assert len(doc["rows"]) == 2


def test_missing_config_is_io_error(tmp_path, capsys):
    assert main(["run-kf", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_unwritable_out_is_io_error(config_path, capsys):
    assert main(["study", "--config", str(config_path), "--out", "/nonexistent/x.csv"]) == 2


def test_invalid_config_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(W1_CONFIG.replace("R: [[[1.0]]]", "R: [[[0.0]]]"))
    assert main(["run-kf", "--config", str(bad)]) == 1


def test_unknown_config_key_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(W1_CONFIG.replace("seed: 12", "seeed: 12"))
    assert main(["study", "--config", str(bad)]) == 1


def test_csv_format_rejected_for_runs(config_path, capsys):
    assert main(["run-kf", "--config", str(config_path), "--format", "csv"]) == 1


def test_bad_usage_is_validation_error(capsys):
    assert main(["run-kf"]) == 1
    assert main(["frobnicate", "--config", "x"]) == 1


def test_one_call_leaves_no_parser_as_garbage(config_path, tmp_path):
    # argparse's parsers hold reference cycles: one built per call would
    # stay allocated until the collector runs.
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        assert main(["run-ks", "--config", str(config_path), "--out", str(tmp_path / "ks.json")]) == 0
        gc.collect()
        parsers = [obj for obj in gc.garbage if isinstance(obj, argparse.ArgumentParser)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert parsers == []


def test_named_problem_config(tmp_path, capsys):
    path = tmp_path / "named.yaml"
    path.write_text(
        "problem:\n  name: linear-chain\n  m: 2\n  k: 3\n  seed: 7\n"
    )
    assert main(["run-ks", "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["mean"]) == 8


@pytest.mark.parametrize(
    "problem,named",
    [
        ("{name: linear-chain, m: 2}", "toy 'linear-chain': missing a required argument: 'k'"),
        ("{name: linear-chain, m: two, k: 3, seed: 1}", "toy 'linear-chain' parameter m"),
        ("{name: linear-chain, m: 2.5, k: 3, seed: 1}", "toy 'linear-chain' parameter m must be an integer, got 2.5"),
        ("{name: linear-chain, m: 2, k: 3, seed: -1}", "toy 'linear-chain' parameter seed must be in [0, 2**64), got -1"),
        ("{name: w1-linear, 1: 2}", "toy 'w1-linear'"),
        ("{name: [w1-linear]}", "unknown toy problem"),
    ],
)
def test_malformed_toy_parameters_are_validation_errors(tmp_path, capsys, problem, named):
    path = tmp_path / "toy.yaml"
    path.write_text(f"problem: {problem}\n")
    assert main(["run-ks", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "old,new,named",
    [
        ("x_b: [0.0]", 'x_b: ["a"]', "problem field x_b"),
        ("M: [[[1.0]]]", "M: 3", "problem field M"),
        ("horizon: 1", "horizon: [1]", "problem field horizon"),
        ("horizon: 1", "horizon: 1.5", "problem field horizon"),
        ("gamma: 1.0", "gamma: abc", "lm field gamma"),
        ("ensemble_sizes: [64]", "ensemble_sizes: 64", "lm field ensemble_sizes"),
        ("replicates: 5", "replicates: five", "study field replicates"),
    ],
)
def test_malformed_config_values_are_validation_errors(tmp_path, capsys, old, new, named):
    path = tmp_path / "bad.yaml"
    assert old in W1_CONFIG
    path.write_text(W1_CONFIG.replace(old, new))
    assert main(["study", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "verb, text, message",
    [
        ("run-ks", "problem: 3\n", "problem section must be a mapping"),
        ("run-ks", W1_CONFIG.replace("  state_dim: 1\n", ""), "problem section requires a state_dim value"),
        ("run-ks", W1_CONFIG.replace("  horizon: 1\n", "  horizon: 1\n  extra: 1\n"), "unknown keys in problem section: ['extra']"),
        ("run-ks", W1_CONFIG.replace("M: [[[1.0]]]", "M: [[[1.0]], [[1.0]]]"), "problem field M has 2 entries, expected 1"),
        ("run-ks", W1_CONFIG.split("lm:")[0] + "lm: 3\n", "lm section must be a mapping"),
        (
            "run-ks",
            W1_CONFIG.replace("  gamma: 1.0\n", "  gamma: 1.0\n  initial_trajectory: [[.nan], [0.0]]\n"),
            "lm field initial_trajectory must be finite, non-empty and at most 2-d, got array([[nan], [ 0.]])",
        ),
        ("run-ks", W1_CONFIG.replace("  gamma: 1.0\n", ""), "lm section requires a gamma value"),
        ("run-ks", W1_CONFIG.replace("  gamma: 1.0\n", "  gamma: 1.0\n  gama: 1.0\n"), "unknown keys in lm section: ['gama']"),
        ("run-ks", W1_CONFIG.split("study:")[0] + "study: [1]\n", "study section must be a mapping"),
        ("run-ks", W1_CONFIG.replace("  kind: enks-vs-ks\n", ""), "study section requires a kind value"),
        ("run-ks", W1_CONFIG.replace("  sweep: [32, 128]\n", ""), "study section requires a sweep value"),
        ("run-ks", W1_CONFIG.replace("  replicates: 5\n", ""), "study section requires a replicates value"),
        (
            "run-ks",
            W1_CONFIG.split("lm:")[0] + "study: {kind: tau-sweep, sweep: [0.1], replicates: 1}\n",
            "study kind 'tau-sweep' requires an LM config",
        ),
        ("run-ks", "[1, 2]\n", "config must be a mapping with a problem section"),
        ("run-ks", "lm: {gamma: 1.0}\n", "config requires a problem section"),
        ("run-ks", W1_CONFIG + "extra: 1\n", "unknown keys in top-level section: ['extra']"),
        ("run-lm", W1_CONFIG.split("lm:")[0], "run-lm requires an lm section in the config"),
        ("study", W1_CONFIG.split("study:")[0], "study command requires a study section in the config"),
    ],
)
def test_every_config_refusal_is_one_error_line(tmp_path, capsys, verb, text, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert main([verb, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("replicates: 5", "replicates: true", "study field replicates must be an integer, got True"),
        ("replicates: 5", 'replicates: "2"', "study field replicates must be an integer, got '2'"),
        ("sweep: [32, 128]", "sweep: [32, true]", "study field sweep[2] must be a real number, got True"),
        ("p_order: 2", 'p_order: "2"', "study field p_order must be a real number, got '2'"),
        ("gamma: 1.0", "gamma: true", "lm field gamma must be a real number, got True"),
        ("max_iterations: 2", "max_iterations: false", "lm field max_iterations must be an integer, got False"),
        ("ensemble_sizes: [64]", 'ensemble_sizes: ["64"]', "lm field ensemble_sizes[1] must be an integer, got '64'"),
        ("gamma: 1.0", f"gamma: {_HUGE}", "lm field gamma must be finite and >= 0, got inf"),
        ("horizon: 1", "horizon: true", "problem field horizon must be an integer, got True"),
    ],
)
def test_booleans_and_quoted_numbers_are_not_numbers(tmp_path, capsys, old, new, message):
    # YAML reads true and "2" as a bool and a str; neither is taken as 1 or 2.
    path = tmp_path / "bad.yaml"
    assert old in W1_CONFIG
    path.write_text(W1_CONFIG.replace(old, new))
    assert main(["study", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


_MODES, _KINDS = "('exact', 'tangent', 'finite-difference')", "('enks-vs-ks', 'lm-enks-vs-lm', 'tau-sweep')"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("gamma: 1.0", "gamma: -1", "lm field gamma must be finite and >= 0, got -1.0"),
        ("gamma: 1.0\n", "gamma: 1.0\n  tau: 0\n", "lm field tau must be finite and > 0, got 0.0"),
        ("max_iterations: 2", "max_iterations: 0", "lm field max_iterations must be >= 1, got 0"),
        ("ensemble_sizes: [64]", "ensemble_sizes: [1]", "lm field ensemble_sizes[1] must be >= 2, got 1"),
        ("ensemble_sizes: [64]", 'ensemble_sizes: ""', "lm field ensemble_sizes must be a sequence, got ''"),
        ("mode: tangent", "mode: newton", f"lm field mode must be one of {_MODES}, got 'newton'"),
        ("replicates: 5", "replicates: 0", "study field replicates must be >= 1, got 0"),
        ("p_order: 2", "p_order: 0.5", "study field p_order must be finite and >= 1, got 0.5"),
        ("seed: 12", "seed: -1", "study field seed must be in [0, 2**64), got -1"),
        ("sweep: [32, 128]", 'sweep: "ab"', "study field sweep must be a sequence, got 'ab'"),
        ("kind: enks-vs-ks", "kind: 5", f"study field kind must be one of {_KINDS}, got 5"),
    ],
)
def test_every_range_refusal_names_its_section_and_field(tmp_path, capsys, old, new, message):
    # Each range was checked by the constructor alone, under the bare field
    # name ("gamma must be ..."); "" read as no sizes, and "ab" as two values.
    path = tmp_path / "bad.yaml"
    assert old in W1_CONFIG
    path.write_text(W1_CONFIG.replace(old, new))
    assert main(["study", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "sweep, message",
    [
        ("[1, 128]", "study field sweep[1] must be >= 2, got 1"),
        ("[16.5, 128]", "study field sweep[1] must be an integer, got 16.5"),
    ],
)
def test_an_ensemble_size_sweep_refusal_names_its_section_and_field(tmp_path, capsys, sweep, message):
    # The N-sweep rule depends on the kind, so StudySpec runs it after its
    # fields are read; it printed "error: sweep[1] must be >= 2, got 1".
    path = tmp_path / "bad.yaml"
    path.write_text(W1_CONFIG.replace("sweep: [32, 128]", f"sweep: {sweep}"))
    assert main(["study", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "problem, message",
    [
        ("{name: linear-chain, m: true, k: 3, seed: 1}", "toy 'linear-chain' parameter m must be an integer, got True"),
        ('{name: linear-chain, m: "2", k: 3, seed: 1}', "toy 'linear-chain' parameter m must be an integer, got '2'"),
        ('{name: lorenz63, k: 2, dt: "0.1"}', "toy 'lorenz63' parameter dt must be a real number, got '0.1'"),
        ("{name: lorenz63, k: 2, dt: true}", "toy 'lorenz63' parameter dt must be a real number, got True"),
    ],
)
def test_toy_parameters_refuse_booleans_and_quoted_numbers(tmp_path, capsys, problem, message):
    path = tmp_path / "toy.yaml"
    path.write_text(f"problem: {problem}\n")
    assert main(["run-ks", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_toy_past_the_size_bound_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "huge.yaml"
    path.write_text("problem: {name: linear-chain, m: 1000000000000000000000000000000, k: 1, seed: 0}\n")
    assert main(["run-ks", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: linear-chain needs m*(k+1) <= 32768, got m={10**30}, k=1\n" and captured.out == ""


def test_a_lorenz63_step_past_the_substep_bound_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "long_step.yaml"
    path.write_text("problem: {name: lorenz63, k: 1, dt: 1.0e300}\n")
    assert main(["run-ks", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: lorenz63 needs ceil(dt / 0.01) <= 1000 RK4 substeps a step, got dt=1e+300\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("x_b: [0.0]", "x_b: [true]", "problem field x_b must hold real numbers, got True"),
        ("y: [[3.0]]", 'y: [["3.0"]]', "problem field y[1] must hold real numbers, got '3.0'"),
        ("B: [[1.0]]", "B: [[1, true]]", "problem field B must hold real numbers, got True"),
        ("M: [[[1.0]]]", "M: [[[null]]]", "problem field M[1] must hold real numbers, got None"),
        ("H: [[[1.0]]]", "H: [[[yes]]]", "problem field H[1] must hold real numbers, got True"),
        (
            "  gamma: 1.0\n",
            "  gamma: 1.0\n  initial_trajectory: [[0.0], [false]]\n",
            "lm field initial_trajectory must hold real numbers, got False",
        ),
    ],
)
def test_booleans_and_quoted_numbers_inside_arrays_are_not_numbers(tmp_path, capsys, old, new, message):
    # numpy would read [true] as [1.0], [["3.0"]] as [[3.0]] and [[1, true]] as [[1.0, 1.0]].
    path = tmp_path / "bad.yaml"
    assert old in W1_CONFIG
    path.write_text(W1_CONFIG.replace(old, new))
    assert main(["run-kf", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_ragged_matrix_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(W1_CONFIG.replace("B: [[1.0]]", "B: [[1.0], [1.0, 2.0]]"))
    assert main(["run-kf", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: problem field B: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_plain_numbers_with_an_exponent_are_floats(tmp_path):
    # YAML 1.1 reads 1e0 and 3.0e0 as text (it wants a dot and a signed
    # exponent); the config reads them as YAML 1.2 does, as floats.
    plain, reference, quoted = tmp_path / "plain.yaml", tmp_path / "reference.yaml", tmp_path / "quoted.yaml"
    plain.write_text(
        W1_CONFIG.replace("y: [[3.0]]", "y: [[3.0e0]]").replace("gamma: 1.0", "gamma: 1e0")
        .replace("sweep: [32, 128]", "sweep: [3.2E1, 1.28e2]").replace("p_order: 2", "p_order: .2e1")
    )
    reference.write_text(W1_CONFIG)
    got, want = load_config(plain), load_config(reference)
    assert got.problem.observations[0].tolist() == want.problem.observations[0].tolist() == [3.0]
    assert got.lm == want.lm and got.study.sweep == (32.0, 128.0) and got.study.p_order == 2.0
    quoted.write_text(W1_CONFIG.replace("y: [[3.0]]", 'y: [["3.0e0"]]'))
    with pytest.raises(ensvar.ValidationError, match=r"^problem field y\[1\] must hold real numbers, got '3\.0e0'$"):
        load_config(quoted)


def test_run_given_csv_gets_the_parsers_refusal(config_path, capsys):
    assert main(["run-ks", "--config", str(config_path), "--format", "csv"]) == 1
    assert capsys.readouterr().err.startswith("error: argument --format: invalid choice: 'csv'")


_LOADERS = [yaml.SafeLoader] + [yaml.CSafeLoader] * yaml.__with_libyaml__


@pytest.mark.parametrize("loader", _LOADERS, ids=lambda loader: loader.__name__)
def test_yaml_syntax_error_is_validation_error(tmp_path, capsys, monkeypatch, loader):
    # libyaml's parser and the pure-Python one refuse a syntax error alike.
    monkeypatch.setattr(config, "_LOADER", loader)
    path = tmp_path / "bad.yaml"
    path.write_text(W1_CONFIG.replace("x_b: [0.0]", "x_b: [0.0"))
    assert main(["run-ks", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config is not valid YAML")
    assert "Traceback" not in err


def test_yaml_loaders_read_equal_documents():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    for text in (W1_CONFIG, example):
        docs = [yaml.load(text, Loader=loader) for loader in _LOADERS]
        assert isinstance(docs[0], dict) and all(doc == docs[0] for doc in docs)


def test_run_lm_non_finite_tau_is_validation_error(tmp_path, capsys):
    path = tmp_path / "nan_tau.yaml"
    path.write_text(
        W1_CONFIG.replace("mode: tangent", "mode: finite-difference\n  tau: .nan")
    )
    assert main(["run-lm", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tau" in err
    assert "Traceback" not in err


def test_non_finite_p_order_is_refused_before_the_study_runs(tmp_path, capsys, monkeypatch):
    # Refused when the config is loaded, not by the writer after every cell ran.
    ran = []
    monkeypatch.setattr("ensvar.cli.run_study", ran.append)
    path = tmp_path / "inf_p.yaml"
    path.write_text(W1_CONFIG.replace("p_order: 2", "p_order: .inf"))
    assert main(["study", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: study field p_order must be finite and >= 1, got inf\n"
    assert ran == []


@pytest.mark.parametrize("verb", ["run-ks", "run-lm", "study"])
def test_each_verb_checks_the_problem_once(config_path, tmp_path, monkeypatch, verb):
    # Every module's binding of the problem checks is counted: the config's
    # problem is checked when it is built, and no runner checks it again.
    calls = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ensvar" and hasattr(module, "_validated_factors"):

            def counted(problem, _original=module._validated_factors):
                calls.append(problem)
                return _original(problem)

            monkeypatch.setattr(module, "_validated_factors", counted)
    assert main([verb, "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("verb", ["run-kf", "run-ks"])
def test_non_finite_observation_is_validation_error(tmp_path, capsys, verb):
    path = tmp_path / "nan_y.yaml"
    path.write_text(W1_CONFIG.replace("y: [[3.0]]", "y: [[.nan]]"))
    assert main([verb, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "observations[1]" in captured.err
    assert "Traceback" not in captured.err and "nan" not in captured.out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("verb", ["run-kf", "run-ks", "run-enks"])
def test_non_finite_result_is_not_written(tmp_path, capsys, verb):
    # Finite inputs whose unobserved forecast overflows: the mean, or the
    # ensemble's sample products, become non-finite.  The run is refused
    # with one error line, and no numpy warning comes before it.
    path = tmp_path / "overflow.yaml"
    unobserved = W1_CONFIG.replace("H: [[[1.0]]]", "H: [[[0.0]]]")
    path.write_text(unobserved.replace("x_b: [0.0]", "x_b: [1.0e308]").replace("M: [[[1.0]]]", "M: [[[10.0]]]"))
    out = tmp_path / "out.json"
    assert main([verb, "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines(keepends=True)
    assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n")
    assert "non-finite" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_exact_lm_step_is_validation_error(tmp_path, capsys):
    # The start objective overflows to inf, so the run stops before its
    # first step, whose normal equations would overflow too; no numpy
    # warning reaches stderr.
    path = tmp_path / "overflow_lm.yaml"
    path.write_text(
        "problem: {name: w2-quadratic}\n"
        "lm: {gamma: 1, max_iterations: 1, mode: exact, initial_trajectory: [[1.0e153], [1.0e153]]}\n"
    )
    out = tmp_path / "lm.json"
    assert main(["run-lm", "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: LM start objective is non-finite (inf) at the initial trajectory\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("to_file", [True, False])
def test_refused_document_writes_nothing(config_path, tmp_path, capsys, monkeypatch, to_file):
    # A nan in the last row of a large covariance is refused before the
    # first byte of the document reaches the file or stdout.
    covariance = np.eye(40)
    covariance[-1, -1] = np.nan
    estimate = SimpleNamespace(mean=np.zeros(40), covariance=covariance)
    monkeypatch.setattr("ensvar.cli.ks_run", lambda problem: SimpleNamespace(estimate=estimate))
    out = tmp_path / "ks.json"
    args = ["run-ks", "--config", str(config_path)] + (["--out", str(out)] if to_file else [])
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: cannot write non-finite number nan to the output\n"
    assert captured.out == "" and not out.exists()


def test_run_ks_output_is_streamed(tmp_path, capsys):
    # The composite covariance is (m(k+1))^2 numbers.  Writing it must not
    # hold the document, or copies of it, in memory: the peak stays within
    # twice the bytes written (about five times when the document was
    # built as one string).  The first run takes the one-time allocations
    # of a first config load outside the traced one.
    path = tmp_path / "chain.yaml"
    path.write_text("problem: {name: linear-chain, m: 12, k: 12, seed: 5}\n")
    out = tmp_path / "ks.json"
    args = ["run-ks", "--config", str(path), "--out", str(out)]
    assert main(args) == 0
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.stat().st_size
    assert main(args[:3]) == 0
    assert capsys.readouterr().out == out.read_text()


_IMPORT_GRAPH_SCRIPT = """\
import sys
from pathlib import Path

import ensvar
from ensvar.cli import main

config = Path(sys.argv[1])
tau = Path(sys.argv[2])
runs = [["run-kf"], ["run-ks"], ["run-enks", "--members", "8"]]
runs += [["run-lm", "--mode", mode] for mode in ("exact", "tangent", "finite-difference")]
for verb in runs:
    assert main([verb[0], "--config", str(config), *verb[1:]]) == 0, verb
for path in (config, tau):
    assert main(["study", "--config", str(path)]) == 0, path
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_cli_runs_never_import_scipy(config_path, tmp_path):
    # The SPD kernel takes its LAPACK from numpy's OpenBLAS: loading scipy
    # would bring a second OpenBLAS thread pool and cost start-up.  One
    # fresh process runs every verb, so the import can be neither present
    # at start nor deferred into a pass.
    tau = tmp_path / "tau.yaml"
    tau.write_text(
        "problem: {name: w2-quadratic}\n"
        "lm: {gamma: 1.0, max_iterations: 2, mode: tangent, ensemble_sizes: [16]}\n"
        "study: {kind: tau-sweep, sweep: [0.1, 0.01], replicates: 2, p_order: 2, seed: 3}\n"
    )
    src = str(Path(ensvar.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH_SCRIPT, str(config_path), str(tau)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _entry_point(*args) -> subprocess.CompletedProcess:
    """``python -m ensvar.cli`` in a fresh process on this checkout's sources."""
    src = str(Path(ensvar.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "ensvar.cli", *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize(
    "verb, formats",
    [("run-kf", {"json"}), ("run-ks", {"json"}), ("run-enks", {"json"}), ("run-lm", {"json"}), ("study", {"csv", "json"})],
)
def test_entry_point_help_lists_the_formats_of_its_verb(verb, formats):
    proc = _entry_point(verb, "--help")
    assert proc.returncode == 0, proc.stderr
    choices = re.findall(r"--format \{([^}]*)\}", proc.stdout)
    assert choices and all(set(c.split(",")) == formats for c in choices)


def test_entry_point_writes_the_bytes_of_main(config_path, tmp_path):
    out, in_process = tmp_path / "ks-process.json", tmp_path / "ks-main.json"
    proc = _entry_point("run-ks", "--config", str(config_path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert main(["run-ks", "--config", str(config_path), "--out", str(in_process)]) == 0
    assert out.read_bytes() == in_process.read_bytes()


def test_entry_point_refuses_a_boolean_inside_an_array(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(W1_CONFIG.replace("x_b: [0.0]", "x_b: [true]"))
    proc = _entry_point("run-kf", "--config", str(bad))
    assert proc.returncode == 1
    assert proc.stderr == "error: problem field x_b must hold real numbers, got True\n" and proc.stdout == ""


@pytest.mark.parametrize("case, status", [("bad-config", 1), ("missing-config", 2), ("unwritable-out", 2)])
def test_entry_point_exit_status(config_path, tmp_path, case, status):
    bad = tmp_path / "bad.yaml"
    bad.write_text(W1_CONFIG.replace("R: [[[1.0]]]", "R: [[[0.0]]]"))
    config, out = {
        "bad-config": (bad, tmp_path / "out.json"),
        "missing-config": (tmp_path / "nope.yaml", tmp_path / "out.json"),
        "unwritable-out": (config_path, tmp_path / "no-such-dir" / "out.json"),
    }[case]
    proc = _entry_point("run-kf", "--config", str(config), "--out", str(out))
    assert proc.returncode == status
    assert proc.stderr.startswith(("error: ", "i/o error: ")) and "Traceback" not in proc.stderr
