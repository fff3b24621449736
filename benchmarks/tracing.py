"""Outside-in span tracing of ensvar's layers for the benchmark's traced run.

The tracer wraps the public functions of each ensvar module from outside
the package and rebinds every name that refers to them, in every ensvar
module: a name bound with ``from .x import y`` is a separate reference,
and a span placed only on the defining module would miss calls made
through it.  It also times ``GaussianEstimate`` construction through the
name bound in ``kalman``, and gives problems built by ``make_toy_problem``
counting operators, so operator evaluations are counted where they happen.

Each call becomes a span ``(name, start, end, parent, pass_id)``, kept
in memory and written out at the end of the run.  A span's self time is
its duration minus the time its child spans cover.  Counts are taken at
the same boundaries, by hooks whose own time is recorded as
``trace.hooks`` spans, so it is not charged to any layer.  Nothing here changes a computed number: wrappers call the
originals with the same arguments, and a counting operator calls the
original ``apply``.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("streams", "numerics", "problem", "kalman", "ensemble", "fourdvar", "toys", "study", "config", "cli")
_WRITERS = frozenset({"study.json_text", "study.render_csv", "study.render_json", "study.emit"})
_ENSEMBLE_RUNS = ("ensemble.enkf_run", "ensemble.enks_run", "ensemble.reference_enks_run")
_LM_RUNS = ("fourdvar.lm_exact_run", "fourdvar.lm_enks_tangent_run", "fourdvar.enks_4dvar_run")

# Per-layer metrics of one traced pass, with their units.
PER_LAYER = {
    "streams.draw_calls": "count",
    "streams.normals": "count",
    "streams.self_s": "s",
    "streams.redraw_ratio": "1",
    "problem.validate_calls": "count",
    "problem.validate_s": "s",
    "problem.estimates": "count",
    "problem.estimate_s": "s",
    "numerics.calls": "count",
    "numerics.self_s": "s",
    "kalman.ks_calls": "count",
    "kalman.self_s": "s",
    "kalman.retained_mb": "MB",
    "ensemble.runs": "count",
    "ensemble.member_steps": "count",
    "ensemble.self_s": "s",
    "ensemble.retained_mb": "MB",
    "fourdvar.lm_iterations": "count",
    "fourdvar.fd_calls": "count",
    "fourdvar.objective_calls": "count",
    "fourdvar.objective_s": "s",
    "fourdvar.self_s": "s",
    "toys.model_evals": "count",
    "toys.obs_evals": "count",
    "toys.evals_per_member_step": "1",
    "toys.build_s": "s",
    "study.replicates": "count",
    "study.self_s": "s",
    "study.writer_s": "s",
    "study.output_mb": "MB",
    "config.load_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "1",
}

# Sizes in PER_LAYER and how each is obtained.
SIZE_SOURCES = {
    "kalman.retained_mb": "computed: nbytes of the distinct arrays held by the largest ks_run result",
    "ensemble.retained_mb": "computed: nbytes of the distinct arrays held by the largest ensemble-run result",
    "study.output_mb": "measured: size of the files the CLI wrote in the pass",
}


def retained_mb(obj) -> float:
    """Megabytes of the distinct array buffers reachable from a result."""
    seen, total, todo = set(), 0, [obj]
    while todo:
        x = todo.pop()
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            if id(x) not in seen:
                seen.add(id(x))
                total += x.nbytes
        elif isinstance(x, (tuple, list)):
            if x and not isinstance(x[0], (int, float)):  # scalars hold no buffers
                todo.extend(x)
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))
    return total / 1e6


class Tracer:
    """Spans and counts for traced passes; ``install`` / ``uninstall`` rebind.

    With ``keep_spans`` every pass's spans are kept for ``write_spans``;
    otherwise only the current pass's are held.
    """

    def __init__(self, keep_spans: bool = False) -> None:
        self.keep_spans = keep_spans
        self.spans: list = []
        self.pass_id = -1
        self._pass_start = 0
        self._stack: list = []
        self._bindings: list = []
        self._counts: Counter = Counter()
        self._draw_requests: set = set()
        self._draw_signature = None

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        """Rebind every ensvar name of a public function to its traced wrapper."""
        hooks = {
            "kalman.ks_run": (None, self._after_ks),
            "toys.make_toy_problem": (None, self._counting_problem),
            "study.run_study": (None, self._after_study),
            **{name: (None, self._after_ensemble) for name in _ENSEMBLE_RUNS},
            **{name: (None, self._after_lm) for name in _LM_RUNS},
            "fourdvar.enks_4dvar_run": (self._before_fd_run, self._after_lm),
        }
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"ensvar.{layer}"]
            for attr in getattr(module, "__all__", ("main",)):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[fn] = self._wrap(name, fn, *hooks.get(name, (None, None)))
        for modname, module in list(sys.modules.items()):
            if modname == "ensvar" or modname.startswith("ensvar."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._bind(module, attr, wrappers[value])

        stream_cls = sys.modules["ensvar.streams"].PerturbationStream
        self._draw_signature = inspect.signature(stream_cls.draw_members)
        self._bind(
            stream_cls,
            "draw_members",
            self._wrap("streams.draw_members", stream_cls.draw_members, None, self._after_draw),
        )
        kalman = sys.modules["ensvar.kalman"]
        self._bind(kalman, "GaussianEstimate", self._wrap("problem.GaussianEstimate", kalman.GaussianEstimate))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def _bind(self, owner, attr: str, wrapper) -> None:
        self._bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        busy = False

        def traced(*args, **kwargs):
            nonlocal busy
            if busy:  # a recursive call (json_text) stays inside the outer span
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if before is not None:
                hook_start = clock()
                token = before(args, kwargs)
                spans.append(("trace.hooks", hook_start, clock(), parent, self.pass_id))
            else:
                token = None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            busy = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                busy = False
                stack.pop()
                spans[index] = (name, start, end, parent, self.pass_id)
            if after is not None:
                result = after(args, kwargs, result, token)
                spans.append(("trace.hooks", end, clock(), parent, self.pass_id))
            return result

        return traced

    # --- counting hooks ------------------------------------------------------

    def _after_draw(self, args, kwargs, result, token):
        call = self._draw_signature.bind(*args, **kwargs).arguments
        members = hash(np.asarray(call["members"], dtype=np.int64).tobytes())
        request = (call["self"].seed, int(call["phase"]), int(call["iteration"]),
                   int(call["time_index"]), int(call["kind"]), int(call["dim"]), members)
        self._draw_requests.add(request)
        self._counts["streams.normals"] += result.size
        return result

    def _after_ks(self, args, kwargs, result, token):
        self._peak("kalman.retained_mb", retained_mb(result))
        return result

    def _after_ensemble(self, args, kwargs, result, token):
        steps = len(result.analysis_ensembles) - 1
        self._counts["ensemble.member_steps"] += len(result.member_indices) * steps
        self._peak("ensemble.retained_mb", retained_mb(result))
        return result

    def _before_fd_run(self, args, kwargs):
        return self._counts["toys.model_evals"]

    def _after_lm(self, args, kwargs, result, token):
        iterations = len(result.iterates) - 1
        self._counts["fourdvar.lm_iterations"] += iterations
        if token is not None:  # the finite-difference arm
            horizon = result.iterates[0].horizon
            self._counts["fd_model_evals"] += self._counts["toys.model_evals"] - token
            self._counts["fd_member_steps"] += sum(e.shape[0] for e in result.ensembles) * horizon
        return result

    def _after_study(self, args, kwargs, result, token):
        self._counts["study.replicates"] += len(result.rows) * result.replicates
        return result

    def _counting_problem(self, args, kwargs, problem, token):
        operator = sys.modules["ensvar.problem"].Operator
        counts = self._counts

        def counting(op, key):
            apply = op.apply

            def counted(x):
                counts[key] += 1
                return apply(x)

            return operator(apply=counted, jacobian=op.jacobian, linear=op.linear, matrix=op.matrix)

        return dataclasses.replace(
            problem,
            model_ops=tuple(counting(op, "toys.model_evals") for op in problem.model_ops),
            obs_ops=tuple(counting(op, "toys.obs_evals") for op in problem.obs_ops),
        )

    def _peak(self, key: str, value: float) -> None:
        self._counts[key] = max(self._counts[key], value)

    # --- per-pass summary -----------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        if not self.keep_spans:  # a long traced run would otherwise hold millions
            self.spans.clear()
        self._pass_start = len(self.spans)
        self._counts.clear()  # cleared, not replaced: counting operators hold it
        self._draw_requests.clear()

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the pass since ``begin_pass``.

        ``study.output_mb`` and ``trace.overhead_ratio`` are measured by
        the caller, which sees the output files and the untraced passes.
        """
        spans = self.spans
        indices = range(self._pass_start, len(spans))
        covered = defaultdict(float)
        for i in indices:
            _, start, end, parent, _ = spans[i]
            if parent >= 0:
                covered[parent] += end - start
        self_s, calls, inclusive, writer_s = Counter(), Counter(), Counter(), 0.0
        for i in indices:
            name, start, end, parent, _ = spans[i]
            self_s[name.split(".", 1)[0]] += end - start - covered[i]
            calls[name] += 1
            inclusive[name] += end - start
            if name in _WRITERS and (parent < 0 or spans[parent][0] not in _WRITERS):
                writer_s += end - start
        counts = self._counts
        distinct = len(self._draw_requests)
        fd_steps = counts["fd_member_steps"]
        return {
            "streams.draw_calls": calls["streams.draw_members"],
            "streams.normals": counts["streams.normals"],
            "streams.self_s": self_s["streams"],
            "streams.redraw_ratio": calls["streams.draw_members"] / distinct if distinct else 0.0,
            "problem.validate_calls": calls["problem.validate_problem"],
            "problem.validate_s": inclusive["problem.validate_problem"],
            "problem.estimates": calls["problem.GaussianEstimate"],
            "problem.estimate_s": inclusive["problem.GaussianEstimate"],
            "numerics.calls": sum(n for name, n in calls.items() if name.startswith("numerics.")),
            "numerics.self_s": self_s["numerics"],
            "kalman.ks_calls": calls["kalman.ks_run"],
            "kalman.self_s": self_s["kalman"],
            "kalman.retained_mb": counts["kalman.retained_mb"],
            "ensemble.runs": sum(calls[name] for name in _ENSEMBLE_RUNS),
            "ensemble.member_steps": counts["ensemble.member_steps"],
            "ensemble.self_s": self_s["ensemble"],
            "ensemble.retained_mb": counts["ensemble.retained_mb"],
            "fourdvar.lm_iterations": counts["fourdvar.lm_iterations"],
            "fourdvar.fd_calls": calls["fourdvar.fd_directional"],
            "fourdvar.objective_calls": calls["fourdvar.objective"],
            "fourdvar.objective_s": inclusive["fourdvar.objective"],
            "fourdvar.self_s": self_s["fourdvar"],
            "toys.model_evals": counts["toys.model_evals"],
            "toys.obs_evals": counts["toys.obs_evals"],
            "toys.evals_per_member_step": counts["fd_model_evals"] / fd_steps if fd_steps else 0.0,
            "toys.build_s": inclusive["toys.make_toy_problem"],
            "study.replicates": counts["study.replicates"],
            "study.self_s": self_s["study"],
            "study.writer_s": writer_s,
            "config.load_s": inclusive["config.load_config"],
            "cli.self_s": self_s["cli"],
        }

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id}) + "\n")
