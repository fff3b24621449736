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

One reader, ``_fields``, reads the explicit ``problem``, ``lm`` and
``study`` sections: a mapping of known keys holding the required ones,
each value converted by its key's converter or refused with a
``ValidationError`` naming the field.  YAML's ``true``/``false`` and
quoted numbers (``"2"``) are refused wherever a number is read.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

from .errors import EnsvarError, ValidationError
from .fourdvar import LMConfig
from .problem import AssimilationProblem, Operator, Trajectory
from .study import StudySpec
from .toys import _toy_builder, make_toy_problem

__all__ = ["LoadedConfig", "load_config"]

_PER_STEP_FIELDS = ("M", "mu", "Q", "H", "R", "y")
# libyaml's C parser where PyYAML was built with it: the same documents,
# about seven times faster on a workload config.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _float_array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _number(value, kind=float):
    # YAML's true/false and quoted numbers read as bool and str: neither is a number.
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a number")
    return kind(value)


def _integer(value) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return _number(value, int)


# Each section's keys with the converter of their YAML values.
_PROBLEM_FIELDS = {
    "state_dim": _integer,
    "horizon": _integer,
    "x_b": _float_array,
    "B": _float_array,
    **dict.fromkeys(_PER_STEP_FIELDS, lambda steps: tuple(_float_array(v) for v in steps)),
}
_LM_FIELDS = {
    "gamma": _number,
    "tau": _number,
    "ensemble_sizes": lambda v: tuple(_integer(n) for n in v),
    "max_iterations": _integer,
    "mode": str,
    "initial_trajectory": lambda v: Trajectory(_float_array(v)),
}
_STUDY_FIELDS = {
    "kind": str,
    "sweep": lambda v: tuple(_number(x) for x in v),
    "replicates": _integer,
    "p_order": _number,
    "seed": _integer,
}


@dataclass(frozen=True)
class LoadedConfig:
    problem: AssimilationProblem
    lm: LMConfig | None
    study: StudySpec | None


def _reject_unknown(section: dict, allowed, name: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown keys in {name} section: {sorted(unknown, key=str)}")


def _converted(what: str, convert: Callable, value):
    """``convert(value)``; a TypeError, ValueError or OverflowError from a
    malformed YAML value becomes a ValidationError naming ``what`` (the
    field or the toy).
    """
    try:
        return convert(value)
    except EnsvarError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what}: {exc}") from None


def _fields(section, name: str, converters: dict, required) -> dict:
    """A section's values by key, each converted: the one reader of the
    explicit ``problem`` section and the ``lm`` and ``study`` sections.
    The section must be a mapping of known keys holding every required one."""
    if not isinstance(section, dict):
        raise ValidationError(f"{name} section must be a mapping")
    _reject_unknown(section, converters, name)
    for key in required:
        if key not in section:
            raise ValidationError(f"{name} section requires a {key} value")
    return {
        key: _converted(f"{name} field {key}", convert, section[key])
        for key, convert in converters.items()
        if key in section
    }


def _toy_problem(name, params: dict) -> AssimilationProblem:
    """Bind the toy parameters to the builder's signature, converting each by its annotation."""
    signature = inspect.signature(_toy_builder(name), eval_str=True)
    bound = _converted(f"toy {name!r}", lambda p: signature.bind(**p), params)
    kwargs = {}
    for key, value in bound.arguments.items():
        convert = _integer if signature.parameters[key].annotation is int else _number
        kwargs[key] = _converted(f"toy {name!r} parameter {key}", convert, value)
    return make_toy_problem(name, **kwargs)


def _problem_from_section(section) -> AssimilationProblem:
    if isinstance(section, dict) and "name" in section:
        return _toy_problem(section["name"], {k: v for k, v in section.items() if k != "name"})
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
    lm = LMConfig(**_fields(doc["lm"], "lm", _LM_FIELDS, ("gamma",))) if "lm" in doc else None
    study = None
    if "study" in doc:
        fields = _fields(doc["study"], "study", _STUDY_FIELDS, ("kind", "sweep", "replicates"))
        study = StudySpec(**fields, problem=problem, lm=lm)
    return LoadedConfig(problem=problem, lm=lm, study=study)
