"""YAML config loading: sections ``problem``, ``lm``, ``study``.

The problem section names a toy from the zoo (``name`` plus its
parameters) or spells out a linear problem explicitly, with matrices as
row-major nested lists:

.. code-block:: yaml

    problem:
      state_dim: 1
      horizon: 1
      x_b: [0.0]
      B: [[1.0]]
      M: [[[1.0]]]     # one matrix per time step
      mu: [[0.0]]
      Q: [[[1.0]]]
      H: [[[1.0]]]
      R: [[[1.0]]]
      y: [[3.0]]

    lm:
      gamma: 1.0
      tau: 1.0e-3
      ensemble_sizes: [200]
      max_iterations: 2
      mode: tangent

    study:
      kind: tau-sweep
      sweep: [1.0e-1, 1.0e-2, 1.0e-3, 1.0e-4]
      replicates: 8
      p_order: 2
      seed: 1

Nonlinear operators cannot be written in a text file; nonlinear problems
are reached through the named zoo entries.

A section is a mapping of known keys holding the required ones, each
value read under its YAML name (``lm field gamma``) or refused with a
``ValidationError`` naming the field.  ``streams._fields`` reads the
explicit ``problem`` section by this module's key table.  The ``lm`` and
``study`` sections are read by ``streams._record`` through the reader
tables of ``LMConfig`` and ``StudySpec`` (``fourdvar._LM_READERS``,
``study._STUDY_READERS``), which their constructors run too: a field's
type and range are checked in one place, and a section requires the
fields that have no default.  A nested list in ``initial_trajectory``
becomes a ``Trajectory`` in its reader.  YAML's ``true``/``false`` and
quoted numbers (``"2"``) are not numbers, inside vectors and matrices
too.  A toy section's parameters are read by ``make_toy_problem``, as
they are for a Python caller.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import yaml

from .errors import ValidationError
from .fourdvar import _LM_READERS, LMConfig
from .problem import AssimilationProblem, Operator
from .streams import _count, _each, _fields, _record, _reject_unknown, _reals
from .study import _STUDY_READERS, StudySpec
from .toys import make_toy_problem

__all__ = ["LoadedConfig", "load_config"]

_PER_STEP_FIELDS = ("M", "mu", "Q", "H", "R", "y")


class _Loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """libyaml's C parser where PyYAML was built with it (the same documents,
    about seven times faster on a workload config), reading a plain scalar
    with an exponent as YAML 1.2 does: ``1e5`` and ``1.0e308`` are floats,
    where YAML 1.1 wants a dot and a signed exponent and reads them as text."""


_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$")
_Loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, list("-+.0123456789"))
_LOADER = _Loader


# The explicit problem section's keys with the reader of their YAML
# values, called as ``read(field name, value)``.
_PROBLEM_FIELDS = {
    "state_dim": _count,
    "horizon": _count,
    "x_b": _reals,
    "B": _reals,
    **dict.fromkeys(_PER_STEP_FIELDS, _each(_reals)),
}


@dataclass(frozen=True)
class LoadedConfig:
    problem: AssimilationProblem
    lm: LMConfig | None
    study: StudySpec | None


def _problem_from_section(section) -> AssimilationProblem:
    if isinstance(section, dict) and "name" in section:
        # A key that is not a string names no parameter: the toy refuses it as unknown.
        return make_toy_problem(section["name"], **{str(k): v for k, v in section.items() if k != "name"})
    fields = _fields(section, "problem", _PROBLEM_FIELDS, _PROBLEM_FIELDS)
    horizon = fields["horizon"]
    for key in _PER_STEP_FIELDS:
        if len(fields[key]) != horizon:
            raise ValidationError(f"problem field {key} has {len(fields[key])} entries, expected {horizon}")
    return AssimilationProblem(
        state_dim=fields["state_dim"],
        horizon=horizon,
        background_mean=fields["x_b"],
        background_cov=fields["B"],
        model_ops=tuple(Operator.from_matrix(a) for a in fields["M"]),
        forcings=fields["mu"],
        model_noise_covs=fields["Q"],
        obs_ops=tuple(Operator.from_matrix(h) for h in fields["H"]),
        obs_noise_covs=fields["R"],
        observations=fields["y"],
    )


def load_config(path) -> LoadedConfig:
    """Parse a config file into problem/LM/study objects."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise ValidationError(f"config is not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("config must be a mapping with a problem section")
    _reject_unknown(doc, {"problem", "lm", "study"}, "top-level")
    if "problem" not in doc:
        raise ValidationError("config requires a problem section")
    problem = _problem_from_section(doc["problem"])
    lm = _record(LMConfig, _LM_READERS, "lm", doc["lm"]) if "lm" in doc else None
    study = _record(StudySpec, _STUDY_READERS, "study", doc["study"], problem=problem, lm=lm) if "study" in doc else None
    return LoadedConfig(problem=problem, lm=lm, study=study)
