"""End-to-end benchmark of ensvar's paper workloads, driven through its CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py                # every workload, every end-to-end metric
    python3 benchmarks/run.py --smoke        # tiny sizes, every workload once, both modes

Each workload (see ``workloads.py``) is one closed-loop client in this
process: it runs passes of ``ensvar.cli.main`` back to back for
``--seconds`` seconds and checks every pass's outputs outside the timed
region.  With ``--trace 0`` the last line reports the end-to-end metrics:

* ``wall_ref_s`` / ``cpu_ref_s``: median wall and process CPU time (all
  threads) of one pass, at the reference host speed (see below);
* ``peak_mb``: peak ``tracemalloc`` allocation of the first pass, which
  is untimed;
* ``setup_s``: median time from starting a fresh process to ready
  (``import ensvar``, write the config, first ``load_config``), at the
  reference host speed;
* ``pass_ratio``: passes whose outputs passed their checks / passes run,
  i.e. 1 - fail_ratio (a metric that is never 0).

With ``--trace 1`` the client alternates untraced and traced passes (see
``tracing.py``) and reports the per-layer metrics of the traced passes,
whose outputs must equal the untraced ones.  ``--spans PATH`` writes the
recorded spans as JSON lines.  All outputs go to a temporary directory in
the checkout, removed at exit.

On a few cores of a shared host, speed drifts by tens of percent over
minutes, and the drift moves the wall and CPU time of a pass alike.  So
each pass is bracketed by a host probe: a fixed kernel, independent of
ensvar, of the same kind of work (Python calls into small numpy
operations).  A pass's time, and each set-up time, is scaled by
``PROBE_REF_S`` over the mean of the two probe times around it, which
cancels most of the drift and leaves any change in ensvar's own cost in
full.  The raw medians and the probe median are printed beside the
metrics.

The BLAS thread count is fixed to the number of usable CPUs before numpy
loads: that is what users get by default, and the exact path's speed
depends on it, so it is set and recorded rather than left implicit.
"""

import os
import sys

NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "peak_mb": "MB", "setup_s": "s", "pass_ratio": "1"}
SIZE_SOURCES = {"peak_mb": "measured: tracemalloc peak over the first pass", **tracing.SIZE_SOURCES}
SETUP_REPEATS = 5
MIN_PASSES = 3
# Probe time at the reference host speed: about the median of host_probe()
# on the 2-vCPU VM the benchmark was written on.
PROBE_REF_S = 0.05


def import_ensvar():
    """Import ensvar from this checkout's sources, never from elsewhere."""
    if not (SRC / "ensvar" / "__init__.py").is_file():
        raise SystemExit(f"error: ensvar sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import ensvar.cli

    if Path(ensvar.__file__).resolve().parent != SRC / "ensvar":
        raise SystemExit(f"error: imported ensvar from {ensvar.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas_threads_source": "set to nproc before numpy import",
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


class Client:
    """One closed-loop client: runs a workload's passes and checks them."""

    def __init__(self, workload, seed: int, smoke: bool, workdir: Path) -> None:
        from ensvar.config import load_config

        self.workload = workload
        self.workdir = workdir
        self.config = workdir / "config.yaml"
        self.config.write_text(workload.config(seed, smoke), encoding="utf-8")
        self.context = workload.prepare(load_config(self.config).problem)
        self.commands = workload.commands(str(self.config), str(workdir))
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.output_mb = 0.0

    def run(self):
        """One pass: (wall_s, cpu_s) if it succeeded and its outputs check, else None."""
        cli = sys.modules["ensvar.cli"]
        for name, _ in self.commands:
            (self.workdir / name).unlink(missing_ok=True)
        gc.collect()
        self.attempted += 1
        error = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            for _, argv in self.commands:
                code = cli.main(argv)
                if code != 0:
                    error = f"ensvar {argv[0]} exited with {code}"
                    break
        except Exception as exc:  # a crash is a failed pass, not a failed benchmark
            error = f"ensvar raised {exc!r}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        problems = [error] if error else self._check()
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        return wall, cpu

    def _check(self) -> list:
        paths = [self.workdir / name for name, _ in self.commands]
        try:
            outputs = {p.name: p.read_text(encoding="utf-8") for p in paths}
        except OSError as exc:
            return [f"cannot read an output: {exc}"]
        self.output_mb = sum(p.stat().st_size for p in paths) / 1e6
        try:
            problems = self.workload.check(outputs, self.context)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"malformed output: {exc!r}"]
        canonical = self.workload.canonical(outputs)
        if self.reference is None:
            self.reference = canonical
        elif canonical != self.reference:
            problems.append("outputs differ from the first pass's, ignoring wall_ms")
        return problems


def setup_times(name: str, seed: int, smoke: bool, workdir: Path, repeats: int) -> tuple:
    """Start-to-ready times of fresh processes, raw and at the reference host speed.

    The first process fills the bytecode cache and is not counted.  Each
    time is scaled by the host probes taken just before and after it.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", name,
           "--seed", str(seed), "--out", str(workdir)] + (["--smoke"] if smoke else [])
    raw, scaled = [], []
    probe = host_probe()
    for i in range(repeats + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe for {name} failed with exit code {code}")
        after = host_probe()
        if i:
            raw.append(ready - start)
            scaled.append((ready - start) * PROBE_REF_S * 2 / (probe + after))
        probe = after
    return raw, scaled


def host_probe() -> float:
    """Seconds a fixed kernel, independent of ensvar, takes at the host's current speed."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
    b = np.linspace(0.0, 2.0, 400).reshape(8, 50)
    start = time.perf_counter()
    for _ in range(6000):
        c = a @ b * 0.5 + b
        a[0, 0] = float(np.sum(c * c)) % 1.0
    return time.perf_counter() - start


def tail(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    k = n - 10
    if k < 1:
        return "no percentile has 10 passes beyond it"
    return f"p{100 * k / n:.0f} {sorted(samples)[k - 1]:.4f} s"


def _listing(samples: list) -> str:
    return ", ".join(f"{t:.4f}" for t in samples)


def _keep_going(deadline: float, client: Client, minimum: int) -> bool:
    return time.perf_counter() < deadline or client.attempted < minimum


def measure(workload, seed: int, seconds: float, smoke: bool, workdir: Path) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    raw_setup, setup = setup_times(workload.name, seed, smoke, workdir, 1 if smoke else SETUP_REPEATS)
    client = Client(workload, seed, smoke, workdir)
    # The untimed first pass measures peak memory, as a fresh CLI process
    # sees it, and fixes the reference outputs.
    tracemalloc.start()
    try:
        client.run()
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    samples, probes = [], [host_probe()]
    deadline = time.perf_counter() + seconds
    while _keep_going(deadline, client, 1 + MIN_PASSES):
        result = client.run()
        probes.append(host_probe())
        if result is not None:
            samples.append((*result, PROBE_REF_S * 2 / (probes[-2] + probes[-1])))
    walls = [w * scale for w, _, scale in samples]
    median = statistics.median
    metrics = {
        "wall_ref_s": median(walls) if walls else float("nan"),
        "cpu_ref_s": median(c * scale for _, c, scale in samples) if samples else float("nan"),
        "peak_mb": peak_mb,
        "setup_s": median(setup),
        "pass_ratio": (client.attempted - client.failed) / client.attempted,
    }
    notes = [
        f"wall_ref_s samples {_listing(walls)}",
        f"raw medians: wall_s {median(w for w, _, _ in samples):.4f} s, cpu_s {median(c for _, c, _ in samples):.4f} s"
        f", setup_s {median(raw_setup):.4f} s" if samples else "raw medians: no passes",
        f"host probe median {median(probes):.4f} s (reference {PROBE_REF_S} s) over {len(probes)} probes",
        f"setup_s samples {_listing(setup)}",
    ]
    annotations = {"wall_ref_s": f"median of {len(walls)}; {tail(walls)}"}
    return {"client": client, "metrics": metrics, "units": END_TO_END, "notes": notes,
            "annotations": annotations}


def measure_traced(workload, seed: int, seconds: float, smoke: bool, workdir: Path, tracer) -> dict:
    """Per-layer metrics of one workload: untraced and traced passes alternate."""
    client = Client(workload, seed, smoke, workdir)
    client.run()  # warm-up and reference outputs, untraced
    plain, traced, rows = [], [], []
    deadline = time.perf_counter() + seconds
    while _keep_going(deadline, client, 1 + 2 * MIN_PASSES):
        result = client.run()
        if result is not None:
            plain.append(result[0])
        tracer.begin_pass(len(rows))
        tracer.install()
        try:
            result = client.run()
        finally:
            tracer.uninstall()
        if result is not None:
            traced.append(result[0])
            rows.append({**tracer.pass_metrics(), "study.output_mb": client.output_mb})
    metrics = {name: statistics.median(row[name] for row in rows) if rows else float("nan")
               for name in tracing.PER_LAYER if name != "trace.overhead_ratio"}
    ratio = statistics.median(traced) / statistics.median(plain) if traced and plain else float("nan")
    metrics["trace.overhead_ratio"] = ratio
    notes = [f"{len(traced)} traced and {len(plain)} untraced passes"]
    return {"client": client, "metrics": metrics, "units": tracing.PER_LAYER, "notes": notes}


def report(name: str, seed: int, outcome: dict) -> None:
    client = outcome["client"]
    print(f"workload {name} (seed {seed}): {client.attempted} passes, {client.failed} failed")
    annotations = outcome.get("annotations", {})
    for metric, value in outcome["metrics"].items():
        unit = outcome["units"][metric]
        print(f"  {metric:28s} {value:14.6g} {unit:5s} {annotations.get(metric, '')}".rstrip())
    for note in outcome["notes"]:
        print(f"  {note}")
    print(f"  fail_ratio {client.failed / client.attempted:g} ({client.failed} of {client.attempted} passes)")
    for problem in client.problems[:5]:
        print(f"  FAILED: {problem}")


def result_line(outcomes: dict) -> dict:
    single = len(outcomes) == 1
    metrics = {}
    for name, outcome in outcomes.items():
        for metric, value in outcome["metrics"].items():
            key = metric if single else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": outcome["units"][metric]}
    attempted = sum(o["client"].attempted for o in outcomes.values())
    failed = sum(o["client"].failed for o in outcomes.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 gives the reference configs")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass, both trace modes")
    parser.add_argument("--spans", default=None, help="write the traced run's spans here (JSON lines)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import_ensvar()
    # Turn SIGTERM into an exit, so the temporary directory is still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print("env " + json.dumps(environment()))
    print("sizes " + json.dumps(SIZE_SOURCES))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.smoke else (args.trace,)
    seconds = 0.0 if args.smoke else args.seconds
    tracer = tracing.Tracer(keep_spans=args.spans is not None)
    outcomes = {}
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        for name in names:
            for mode in modes:
                workdir = Path(tmp) / f"{name}-{mode}"
                workdir.mkdir()
                if mode:
                    outcome = measure_traced(WORKLOADS[name], args.seed, seconds, args.smoke, workdir, tracer)
                else:
                    outcome = measure(WORKLOADS[name], args.seed, seconds, args.smoke, workdir)
                report(name, args.seed, outcome)
                outcomes[name if len(modes) == 1 else f"{name}.trace{mode}"] = outcome
    if args.spans:
        tracer.write_spans(args.spans)
    print(json.dumps(result_line(outcomes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
