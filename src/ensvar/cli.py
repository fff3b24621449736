"""Command-line interface.

One verb per algorithm plus one for convergence studies:

    ensvar run-kf   --config cfg.yaml [--out PATH] [--format json]
    ensvar run-ks   --config cfg.yaml [--out PATH] [--format json]
    ensvar run-enks --config cfg.yaml [--members N] [--seed S] ...
    ensvar run-lm   --config cfg.yaml [--mode MODE] [--seed S] ...
    ensvar study    --config cfg.yaml [--seed S] [--out PATH] [--format csv|json]

Every verb takes one path: :func:`main` parses, loads the config once,
runs the verb's ``(config, args)`` function from ``_VERBS`` and writes
its result once (:func:`ensvar.study.emit`).  ``study`` writes csv (the
default) or json and keeps the config's seed unless ``--seed`` is given;
the run verbs write json only and default ``--seed`` to 0.

Exit codes: 0 success, 1 validation error (bad config or usage), 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .ensemble import enks_run
from .errors import ValidationError
from .config import load_config
from .fourdvar import _MODES, lm_run
from .kalman import kf_run, ks_run
from .numerics import sample_covariance, sample_mean
from .streams import PerturbationStream
from .study import emit, run_study


class _Parser(argparse.ArgumentParser):
    # Usage problems are validation errors (exit 1), not I/O errors.
    def error(self, message):
        raise ValidationError(message)


def _run_kf(cfg, args) -> dict:
    estimates = kf_run(cfg.problem).estimates
    return {"algorithm": "kf", "means": [e.mean for e in estimates], "covariances": [e.covariance for e in estimates]}


def _run_ks(cfg, args) -> dict:
    estimate = ks_run(cfg.problem).estimate
    return {"algorithm": "ks", "mean": estimate.mean, "covariance": estimate.covariance}


def _run_enks(cfg, args) -> dict:
    result = enks_run(cfg.problem, args.members, PerturbationStream(args.seed))
    final = result.analysis_ensembles[-1]
    return {
        "algorithm": "enks",
        "n_members": args.members,
        "seed": args.seed,
        "sample_mean": sample_mean(final),
        "sample_covariance": sample_covariance(final),
    }


def _run_lm(cfg, args) -> dict:
    if cfg.lm is None:
        raise ValidationError("run-lm requires an lm section in the config")
    lm_cfg = cfg.lm if args.mode is None else replace(cfg.lm, mode=args.mode)
    stream = None if lm_cfg.mode == "exact" else PerturbationStream(args.seed)
    result = lm_run(cfg.problem, lm_cfg, stream)
    return {
        "algorithm": "lm",
        "mode": result.mode,
        "seed": args.seed,
        "iterates": [t.states for t in result.iterates],
        "objectives": list(result.objectives),
        "max_member_norms": list(result.max_member_norms),
    }


def _study(cfg, args):
    if cfg.study is None:
        raise ValidationError("study command requires a study section in the config")
    return run_study(cfg.study if args.seed is None else replace(cfg.study, seed=args.seed))


# Each verb: its function of (config, arguments), its --format choices
# (the first is the default), its --seed default (None keeps the config's
# seed) and the options only it takes.
_VERBS = {
    "run-kf": (_run_kf, ("json",), 0, {}),
    "run-ks": (_run_ks, ("json",), 0, {}),
    "run-enks": (_run_enks, ("json",), 0, {"--members": dict(type=int, default=100, help="ensemble size")}),
    "run-lm": (_run_lm, ("json",), 0, {"--mode": dict(choices=_MODES, default=None, help="solver variant")}),
    "study": (_study, ("csv", "json"), None, {}),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="ensvar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, formats, seed, options) in _VERBS.items():
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="YAML config path")
        seed_help = "the config's seed" if seed is None else seed
        p.add_argument("--seed", type=int, default=seed, help=f"root seed (u64; default: {seed_help})")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=formats, default=formats[0], help="output format (default: %(default)s)")
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


# Built once per process: argparse's parsers hold reference cycles, so a
# parser built per call would stay allocated until the collector runs.
_PARSER = _build_parser()


def main(argv=None) -> int:
    """Parse ``argv`` (default: ``sys.argv[1:]``), load the config, run the
    verb and write its result; returns the exit code."""
    try:
        args = _PARSER.parse_args(argv)
        emit(args.run(load_config(args.config), args), args.format, args.out)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
