import argparse
import csv
import gc
import io
import json
import os
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
        ("{name: linear-chain, m: 2.5, k: 3, seed: 1}", "toy 'linear-chain' parameter m: 2.5 is not a whole number"),
        ("{name: linear-chain, m: 2, k: 3, seed: -1}", "seed >= 0"),
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
    assert capsys.readouterr().err == "error: p_order must be finite and >= 1, got inf\n"
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
assert "scipy.linalg" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_cli_runs_never_import_scipy_linalg(config_path, tmp_path):
    # scipy.linalg costs a quarter second of start-up; its LAPACK wrappers
    # are loaded without it.  One fresh process runs every verb, so the
    # import can be neither present at start nor deferred into a pass.
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
