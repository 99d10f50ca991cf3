"""Measurement loop, metrics and result output for one workload."""
from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from speed import SpeedProbe
from workloads import WORKLOADS

# Per-layer metrics: name -> (kind, layer, count key). "ms" is the layer's
# self time per operation ("setup_ms" per set-up), "calls" its calls per
# operation and "count" or "bytes" what its wrapper counts per operation; the other
# kinds are derived in measure_traced.
PER_LAYER = {
    "tensor.backward.ms": ("ms", "tensor.backward", None),
    "tensor.tape_nodes": ("count", "tensor.backward", "tensor.tape_nodes"),
    "tensor.cross_entropy.ms": ("ms", "tensor.cross_entropy", None),
    "attention.multi_head_attention.ms": ("ms", "attention.multi_head_attention", None),
    "attention.multi_head_attention.calls": ("calls", "attention.multi_head_attention", None),
    "fusion.fuse_attention.ms": ("ms", "fusion.fuse_attention", None),
    "fusion.fuse_attention.calls": ("calls", "fusion.fuse_attention", None),
    "fusion.accumulate_previous.ms": ("ms", "fusion.accumulate_previous", None),
    "model.encode.ms": ("ms", "model.encode", None),
    "model.decode.ms": ("ms", "model.decode", None),
    "model.decode.positions_per_token": ("positions_per_token", "model.decode", None),
    "training.train_step.ms": ("ms", "training.train_step", None),
    "training.greedy_decode.ms": ("ms", "training.greedy_decode", None),
    "training.greedy_decode.tokens": ("count", "training.greedy_decode",
                                      "training.greedy_decode.tokens"),
    "training.save_checkpoint.ms": ("ms", "training.save_checkpoint", None),
    "training.save_checkpoint.calls": ("calls", "training.save_checkpoint", None),
    "training.save_checkpoint.bytes": ("bytes", "training.save_checkpoint",
                                       "training.save_checkpoint.bytes"),
    "compgen.generate_corpus.ms": ("ms", "compgen.generate_corpus", None),
    "setup.compgen.generate_corpus.ms": ("setup_ms", "compgen.generate_corpus", None),
    "compgen.write_corpus.ms": ("ms", "compgen.write_corpus", None),
    "compgen.cter.ms": ("ms", "compgen.cter", None),
    "cli.cmd_sweep.ms": ("ms", "cli.cmd_sweep", None),
    "trace.op.ms": ("op_ms", None, None),
    "trace.overhead_pct": ("overhead_pct", None, None),
}
UNITS = {"ms": "ms", "calls": "count", "count": "count", "bytes": "bytes", "setup_ms": "ms",
         "positions_per_token": "count", "op_ms": "ms", "overhead_pct": "%"}


class Run:
    """Set up a workload, run its operations for a time budget, check them.

    A speed probe runs before and after every set-up and operation and at
    intervals inside each operation, never inside a timed span; ``scale``
    holds each one's wall-to-reference factor, keyed by operation index or
    set-up name (see speed.py).
    """

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.probe = SpeedProbe(workload.probe_iters)
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.tokens = 0
        self.op_s: list[float] = []
        self.op_ref_s: list[float] = []
        self.scale: dict = {}

    def setup(self, reps: int, src: Path | None = None) -> tuple[list[float], list[float]]:
        """Set up ``reps`` times; with ``src``, each set-up first times a fresh import.

        Returns the wall and the reference seconds of each set-up.
        """
        wall, ref = [], []
        self.probe.edge()
        for k in range(reps):
            t = import_seconds(src) if src is not None else 0.0
            _, dt = self._timed("setup", f"setup{k}", self.wl.setup, self.tracer is not None)
            wall.append(t + dt)
            ref.append((t + dt) * self.scale[f"setup{k}"])
        gc.collect()  # operations start from a collected heap in every run
        return wall, ref

    def ops(self, budget_s: float, traced: bool = False, max_ops: int | None = None):
        """Run operations until their summed wall time reaches ``budget_s``."""
        spent, first = 0.0, self.next_op
        self.probe.edge()
        while (spent < budget_s or self.next_op == first) and (
                max_ops is None or self.next_op - first < max_ops):
            i = self.next_op
            self.next_op += 1
            self.attempted += 1
            try:
                args = self.wl.prepare(i)
                result, dt = self._timed("op", i, lambda: self.wl.op(args), traced)
                spent += dt
                self.op_s.append(dt)
                self.op_ref_s.append(dt * self.scale[i])
                ok, tokens = self.wl.check(i, args, result)
                self.tokens += tokens
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                self.failed += 1
                print(f"check failed: {self.wl.name} operation {i}", file=sys.stderr)
        return range(first, self.next_op)

    def _timed(self, root: str, key, fn, traced: bool):
        """Call ``fn`` with the probe ticking; return its result and seconds.

        Traced, ``fn`` runs in a root span ``root`` with id ``key`` and the
        tracer's clock stops while the probe runs; untraced, the probe's time
        is subtracted. The probe runs once more afterwards, and the call's
        wall-to-reference factor is stored as ``scale[key]``.
        """
        clock = self.tracer.now if traced else time.perf_counter
        pause = self.tracer.pause if traced else contextlib.nullcontext
        span = self.tracer.root(root, key) if traced else contextlib.nullcontext()
        ticks_s = self.probe.ticks_s
        t0 = clock()
        try:
            with self.probe.ticking(pause), span:
                result = fn()
        finally:
            dt = clock() - t0
            if not traced:
                dt -= self.probe.ticks_s - ticks_s
            self.probe.edge()
            self.scale[key] = self.probe.take()
        return result, dt


def import_seconds(src: Path) -> float:
    """Time ``import numpy, layerfuse`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import numpy, layerfuse; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True, timeout=120).stdout)


def latency_metrics(op_s: list[float], tokens: int) -> dict:
    ms = [t * 1e3 for t in op_s]
    return {
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[-1]
                      if len(ms) > 1 else ms[0], "ms"),
        "tokens_per_s": (tokens / sum(op_s), "tokens/s"),
    }


def measure(name: str, seed: int, seconds: float, workdir: Path,
            tiny: bool = False) -> dict:
    """Untraced run: the end-to-end metrics, at reference speed.

    ``extra`` holds what is reported but not a BENCHMARK.json metric: the
    sample count, the p90 (sweep_small has too few operations for a steady
    one), the wall-clock figures and the probe's speed.
    """
    run = Run(WORKLOADS[name](seed, workdir, tiny))
    src = Path(sys.modules["layerfuse"].__file__).parent.parent
    setup_wall, setup_ref = run.setup(run.wl.setup_reps, src)
    run.ops(seconds)
    ref = latency_metrics(run.op_ref_s, run.tokens)
    wall = latency_metrics(run.op_s, run.tokens)
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "op_ms_p50_ref": ref["op_ms_p50"],
        "tokens_per_s_ref": ref["tokens_per_s"],
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "samples": (len(run.op_s), "count"),
        "op_ms_p90_ref": ref["op_ms_p90"],
        "wall_setup_s": (statistics.median(setup_wall), "s"),
        **{f"wall_{k}": v for k, v in wall.items()},
        "probe_iter_us_p50": (statistics.median(run.probe.samples) * 1e6, "us"),
    }
    return {"run": run, "metrics": metrics, "extra": extra, "attempted": run.attempted,
            "failed": run.failed, "unstable": []}


def measure_traced(name: str, seed: int, seconds: float, workdir: Path,
                   tiny: bool = False) -> dict:
    """Traced run: per-layer metrics, tracing overhead, exact-count check.

    Times are at reference speed, like the untraced run's.
    """
    wl_cls = WORKLOADS[name]
    tracer = tracing.Tracer()
    with tracer:
        run = Run(wl_cls(seed, workdir, tiny), tracer)
        run.setup(run.wl.setup_reps)
        traced_ops = run.ops(seconds / 2, traced=True)
    traced_s = run.op_ref_s[:]
    run.ops(seconds / 2)
    untraced_s = run.op_ref_s[len(traced_s):]

    replay_tracer = tracing.Tracer()
    with replay_tracer:
        replay = Run(wl_cls(seed, workdir, tiny), replay_tracer)
        replay.setup(1)
        replay_ops = replay.ops(0.0, traced=True,
                                max_ops=min(run.wl.replay_ops, len(traced_ops)))
    first = tracer.exact_counts(replay_ops)
    again = replay_tracer.exact_counts(replay_ops)
    unstable = sorted({k for a, b in zip(first, again) for k in a if a[k] != b[k]})

    ops = tracer.summary("op", run.scale)
    setup = tracer.summary("setup", run.scale)
    tokens = ops["counts"].get("training.greedy_decode.tokens", 0)
    derived = {
        "positions_per_token": (ops["counts"].get("model.decode.positions", 0) / tokens
                                if tokens else 0.0),
        "op_ms": ops["op_ms"],
        "overhead_pct": 100.0 * (statistics.fmean(traced_s)
                                 / statistics.fmean(untraced_s) - 1.0),
    }
    metrics = {}
    for metric, (kind, layer, key) in PER_LAYER.items():
        if layer in tracer.absent:
            continue
        if kind == "ms":
            value = ops["self_ms"].get(layer, 0.0)
        elif kind == "setup_ms":
            value = setup["self_ms"].get(layer, 0.0)
        elif kind == "calls":
            value = ops["calls"].get(layer, 0.0)
        elif kind in ("count", "bytes"):
            value = ops["counts"].get(key, 0.0)
        else:
            value = derived[kind]
        metrics[metric] = (value, UNITS[kind])
    return {"run": run, "tracer": tracer, "metrics": metrics, "unstable": unstable,
            "attempted": run.attempted + replay.attempted,
            "failed": run.failed + replay.failed}


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "seed": seed,
    }


def main(args, root: Path) -> int:
    out_dir = root / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=root / ".perfbench"))
    try:
        measure_fn = measure_traced if args.trace else measure
        res = measure_fn(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run, metrics, unstable = res["run"], res["metrics"], res["unstable"]
    attempted, failed = res["attempted"], res["failed"]
    absent = run.tracer.absent if args.trace else []
    if args.trace:
        res["tracer"].write(out_dir / f"{args.workload}-s{args.seed}.spans.jsonl")
    if unstable:
        print("exact-count self-check FLAGGED, differs on replay: " + ", ".join(unstable))
    if absent:
        print("absent per-layer metrics (target gone): " + ", ".join(absent))
    correct = failed == 0 and not unstable
    env = environment(root, args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {len(run.op_s)} operations, "
          f"error_rate {failed / attempted:.6f} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    for name, (value, unit) in res.get("extra", {}).items():
        print(f"  ({name}){' ' * (38 - len(name))}{value:14.4f} {unit}")
    print(f"correct: {'yes' if correct else 'NO'}")
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "env": env, "correct": correct, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "samples": len(run.op_s),
        "unstable_counts": unstable, "absent": absent,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in res.get("extra", {}).items()},
    }
    path = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0
