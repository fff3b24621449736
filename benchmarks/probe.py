"""Set-up probe: one process from start to ready, for the ``setup_s`` metric.

Ready means: ``import ensvar``, write the workload's config file, and
load it once with ``load_config``.  The probe then prints ``ready``; the
parent times from starting this process to reading that line.

    python3 benchmarks/probe.py --workload NAME --seed N --out DIR [--smoke]
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import ensvar  # noqa: E402,F401  (the import is what is timed)
from ensvar.config import load_config  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    path = Path(args.out) / "probe.yaml"
    path.write_text(WORKLOADS[args.workload].config(args.seed, args.smoke), encoding="utf-8")
    load_config(path)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
