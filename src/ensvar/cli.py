"""Command-line interface.

One verb per algorithm plus one for convergence studies:

    ensvar run-kf   --config cfg.yaml [--out PATH] [--format json]
    ensvar run-ks   --config cfg.yaml [--out PATH] [--format json]
    ensvar run-enks --config cfg.yaml [--members N] [--seed S] ...
    ensvar run-lm   --config cfg.yaml [--mode MODE] [--seed S] ...
    ensvar study    --config cfg.yaml [--seed S] [--out PATH] [--format csv|json]

Exit codes: 0 success, 1 validation error, 2 I/O error.
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="ensvar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run-kf", "run-ks", "run-enks", "run-lm", "study"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--seed", type=int, default=None, help="root seed (u64)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default=None,
            help="output format (study: csv or json; runs: json)",
        )
        if name == "run-enks":
            p.add_argument("--members", type=int, default=100, help="ensemble size")
        if name == "run-lm":
            p.add_argument("--mode", choices=_MODES, default=None, help="solver variant")
    return parser


# Built once per process: argparse's parsers hold reference cycles, so a
# parser built per call would stay allocated until the collector runs.
_PARSER = _build_parser()


def _cmd_run_kf(args) -> dict:
    cfg = load_config(args.config)
    result = kf_run(cfg.problem)
    return {
        "algorithm": "kf",
        "means": [e.mean for e in result.estimates],
        "covariances": [e.covariance for e in result.estimates],
    }


def _cmd_run_ks(args) -> dict:
    cfg = load_config(args.config)
    result = ks_run(cfg.problem)
    return {
        "algorithm": "ks",
        "mean": result.estimate.mean,
        "covariance": result.estimate.covariance,
    }


def _cmd_run_enks(args) -> dict:
    cfg = load_config(args.config)
    seed = 0 if args.seed is None else args.seed
    result = enks_run(cfg.problem, args.members, PerturbationStream(seed))
    final = result.analysis_ensembles[-1]
    return {
        "algorithm": "enks",
        "n_members": args.members,
        "seed": seed,
        "sample_mean": sample_mean(final),
        "sample_covariance": sample_covariance(final),
    }


def _cmd_run_lm(args) -> dict:
    cfg = load_config(args.config)
    if cfg.lm is None:
        raise ValidationError("run-lm requires an lm section in the config")
    lm_cfg = cfg.lm if args.mode is None else replace(cfg.lm, mode=args.mode)
    seed = 0 if args.seed is None else args.seed
    stream = None if lm_cfg.mode == "exact" else PerturbationStream(seed)
    result = lm_run(cfg.problem, lm_cfg, stream)
    return {
        "algorithm": "lm",
        "mode": result.mode,
        "seed": seed,
        "iterates": [t.states for t in result.iterates],
        "objectives": list(result.objectives),
        "max_member_norms": list(result.max_member_norms),
    }


def main(argv=None) -> int:
    args_list = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(args_list)
        if args.command == "study":
            cfg = load_config(args.config)
            if cfg.study is None:
                raise ValidationError("study command requires a study section in the config")
            spec = cfg.study
            if args.seed is not None:
                spec = replace(spec, seed=args.seed)
            emit(run_study(spec), args.format or "csv", args.out)
            return 0
        if args.format == "csv":
            raise ValidationError("csv output is only defined for the study command")
        doc = {
            "run-kf": _cmd_run_kf,
            "run-ks": _cmd_run_ks,
            "run-enks": _cmd_run_enks,
            "run-lm": _cmd_run_lm,
        }[args.command](args)
        emit(doc, "json", args.out)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
