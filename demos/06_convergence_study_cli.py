"""Driving convergence studies programmatically and from the CLI.

A study packages a sweep (over ensemble size or finite-difference step),
replication with derived per-replicate seeds, and a fitted log-log rate.
The same spec can be written as a YAML file and run through the ``ensvar
study`` command; identical config and seed give byte-identical CSV up to
the wall-clock column.
"""

import tempfile
from pathlib import Path

from ensvar import LMConfig, StudySpec, emit, make_toy_problem, run_study
from ensvar.cli import main

# Programmatic: tau sweep of the derivative-free solver against the
# tangent solver under shared noise.
spec = StudySpec(
    kind="tau-sweep",
    sweep=(1e-1, 1e-2, 1e-3, 1e-4),
    replicates=5,
    problem=make_toy_problem("w2-quadratic"),
    p_order=2.0,
    seed=22,
    lm=LMConfig(gamma=1.0, max_iterations=2, mode="finite-difference", ensemble_sizes=(200,)),
)
result = run_study(spec)
print("tau sweep on the quadratic toy problem:")
for row in result.rows:
    print(f"  tau={row.sweep_value:8.0e}  error={row.error_estimate:.3e}  "
          f"stderr={row.stderr_estimate:.1e}")
print(f"  fitted slope: {result.slope:+.3f}  (first-order differencing: +1)\n")

with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    emit(result, "csv", workdir / "tau_sweep.csv")
    print(f"CSV written to {workdir / 'tau_sweep.csv'}:\n")
    print((workdir / "tau_sweep.csv").read_text())

    # The same thing through the CLI, from a config file.
    config = workdir / "study.yaml"
    config.write_text(
        """\
problem:
  name: w1-linear

study:
  kind: enks-vs-ks
  sweep: [100, 1000]
  replicates: 20
  p_order: 2
  seed: 7
"""
    )
    print(f"running: ensvar study --config {config} --out {workdir / 'enks.csv'}")
    code = main(["study", "--config", str(config), "--out", str(workdir / "enks.csv")])
    print(f"exit code {code}\n")
    print((workdir / "enks.csv").read_text())
