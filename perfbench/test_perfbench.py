"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from layerfuse import training  # noqa: E402

NAMES = list(workloads.WORKLOADS)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Self time outside every listed layer (the benchmark's own glue around one
# call into the package) may be at most this share of the traced op time.
SELF_TIME_TOLERANCE = 0.05


def test_workload_names_agree():
    import run
    assert list(run.WORKLOAD_NAMES) == NAMES == [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_reports_every_end_to_end_metric(name, tmp_path):
    res = bench.measure(name, 3, 0.3, tmp_path, tiny=True)
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert {k: unit for k, (_, unit) in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value, _ in res["metrics"].values())


def test_times_at_reference_speed_are_wall_times(tmp_path, monkeypatch):
    monkeypatch.setattr(speed.SpeedProbe, "take", lambda self: 1.0)
    res = bench.measure("decode_fuse", 3, 0.2, tmp_path, tiny=True)
    extra = res["extra"]
    for name in ("op_ms_p50", "tokens_per_s"):
        assert res["metrics"][name + "_ref"][0] == pytest.approx(extra["wall_" + name][0])
    assert extra["op_ms_p90_ref"][0] == pytest.approx(extra["wall_op_ms_p90"][0])
    assert res["metrics"]["setup_s"][0] == pytest.approx(extra["wall_setup_s"][0])


def test_probe_factor_is_reference_over_window_mean():
    probe = speed.SpeedProbe(5)
    probe.window = [speed.REF_ITER_S, 2 * speed.REF_ITER_S, 3 * speed.REF_ITER_S]
    assert probe.take() == pytest.approx(0.5)
    assert probe.window == [3 * speed.REF_ITER_S]


class BusyWait(workloads.Workload):
    """Each operation spins for a fixed wall time."""

    name = "busy"

    def setup(self):
        pass

    def prepare(self, i):
        return 0.3

    def op(self, seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def check(self, i, args, result):
        return True, 1


def test_probe_ticks_inside_an_operation_and_is_not_timed(tmp_path):
    run = bench.Run(BusyWait(0, tmp_path))
    run.ops(0.0)
    ticks = len(run.probe.samples) - 2   # one probe before and one after
    assert ticks >= 0.3 / speed.TICK_S - 2 and run.probe.ticks_s > 0
    assert run.op_s[0] == pytest.approx(0.3 - run.probe.ticks_s, abs=0.02)
    assert run.op_ref_s[0] == pytest.approx(run.op_s[0] * run.scale[0])


def test_decode_check_catches_a_wrong_token(tmp_path, monkeypatch):
    real = training.greedy_decode

    def corrupted(*args, **kwargs):
        tokens, truncated = real(*args, **kwargs)
        return tokens[:-1] + [4 if tokens[-1] == 3 else 3], truncated

    monkeypatch.setattr(training, "greedy_decode", corrupted)
    res = bench.measure("decode_fuse", 3, 0.2, tmp_path, tiny=True)
    assert res["failed"] == res["attempted"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_self_times_add_up_to_the_traced_op_time(name, tmp_path):
    res = bench.measure_traced(name, 3, 0.4, tmp_path, tiny=True)
    metrics = res["metrics"]
    listed = sum(value for metric, (value, _) in metrics.items()
                 if metric.endswith(".ms") and not metric.startswith(("setup.", "trace.")))
    op_ms = metrics["trace.op.ms"][0]
    assert abs(op_ms - listed) <= SELF_TIME_TOLERANCE * op_ms
    assert res["failed"] == 0 and not res["unstable"]
    assert {k: unit for k, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("name", NAMES)
def test_exact_counts_repeat_across_same_seed_runs(name, tmp_path):
    first = bench.measure_traced(name, 5, 0.2, tmp_path, tiny=True)["metrics"]
    again = bench.measure_traced(name, 5, 0.2, tmp_path, tiny=True)["metrics"]
    keys = ["tensor.tape_nodes", "model.decode.positions_per_token",
            "attention.multi_head_attention.calls", "fusion.fuse_attention.calls",
            "training.save_checkpoint.bytes"]
    assert [first[k] for k in keys] == [again[k] for k in keys]


def test_decode_positions_per_token_is_the_prefix_mean(tmp_path):
    metrics = bench.measure_traced("decode_fuse", 0, 0.2, tmp_path, tiny=True)["metrics"]
    max_new = metrics["training.greedy_decode.tokens"][0]
    assert metrics["model.decode.positions_per_token"][0] == (max_new + 1) / 2


def test_inputs_come_from_the_seed(tmp_path):
    def inputs(seed):
        train = workloads.TrainFuse(seed, tmp_path, tiny=True)
        train.setup()
        decode = workloads.DecodeFuse(seed, tmp_path, tiny=True)
        decode.setup()
        batch = train.prepare(0)
        return ([a.tolist() for triple in batch for a in triple],
                [s.tolist() for s in decode.sources],
                train.model.parameters()["src_embed"].data)

    base, again, other = inputs(0), inputs(0), inputs(7)
    assert base[:2] == again[:2] and np.array_equal(base[2], again[2])
    assert base[0] != other[0] and base[1] != other[1]
    assert not np.array_equal(base[2], other[2])
    assert bench.measure("train_fuse", 7, 0.2, tmp_path, tiny=True)["failed"] == 0


def test_missing_wrapper_target_is_reported_absent(tmp_path, monkeypatch):
    targets = [t if t[0] != "cli.cmd_sweep" else ("cli.cmd_sweep", "layerfuse.cli", "gone")
               for t in tracing.TARGETS]
    monkeypatch.setattr(tracing, "TARGETS", tuple(targets))
    res = bench.measure_traced("decode_fuse", 0, 0.2, tmp_path, tiny=True)
    assert res["tracer"].absent == ["cli.cmd_sweep"]
    assert "cli.cmd_sweep.ms" not in res["metrics"]
    assert "model.decode.ms" in res["metrics"] and res["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_fuse", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
