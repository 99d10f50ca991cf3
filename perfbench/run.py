"""layerfuse benchmark: train_fuse, decode_fuse and sweep_small.

Run from the repository root:

    python3 perfbench/run.py --workload train_fuse --seed 0 --seconds 30 --trace 0

Without --workload every workload runs in turn, each in its own process.
Every run is single-process and closed-loop: the next operation starts when
the previous one returns. BLAS is pinned to one thread before numpy loads.

Times are reported at reference speed: a fixed probe loop runs before and
after every set-up and operation and every 50 ms inside it, and each one's
wall time is scaled by how fast the probe ran around and inside it (see
speed.py), because the shared host's speed swings by up to 1.5x within and
between runs. The wall-clock figures, the op_ms_p90, the sample count and
the probe's speed are printed in parentheses beside them and written to the
result file.

--trace 0 measures the end-to-end metrics with no instrumentation. --trace 1
wraps the package's public functions from outside (see tracing.py), traces
the first half of the run and runs the second half untraced, and reports
per-layer self times and counts plus the tracing overhead. It then replays
the first operations from a fresh set-up and flags any exact count that
differs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The environment, every metric and the error
rate are also written to .perfbench/results/, and with --trace 1 the spans
as JSON lines beside them.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train_fuse", "decode_fuse", "sweep_small")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                   help="one workload (default: all, one process each)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="operation time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    """Run every workload in a child process and pass its output through."""
    import json
    import subprocess

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "layerfuse" / "__init__.py").is_file():
        print(f"error: no layerfuse sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import layerfuse
    if Path(layerfuse.__file__).resolve().parent != (SRC / "layerfuse").resolve():
        print(f"error: imported layerfuse from {layerfuse.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import bench
    return bench.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
