"""Span tracing of layerfuse from outside the package.

The tracer wraps public functions of each layerfuse module where they are
called: every module global (and class attribute) bound to a target
function is replaced by a wrapper while the tracer is installed, and
restored afterwards. The package itself is never edited.

Spans live in memory as [name, start, end, parent, op_id] records. A span is
recorded only inside a root span opened by the benchmark (one operation or
one set-up), so checks that call into the package between operations leave
no trace. Self time is a span's duration minus the durations of its direct
children.

Counting work (walking the tape, stat-ing a checkpoint) happens with the
clock paused, so it adds to no span.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (layer metric prefix, module, attribute path). A target that no longer
# exists is reported absent instead of failing the run.
TARGETS = (
    ("tensor.backward", "layerfuse.tensor", "backward"),
    ("tensor.cross_entropy", "layerfuse.tensor", "cross_entropy"),
    ("attention.multi_head_attention", "layerfuse.attention", "multi_head_attention"),
    ("fusion.fuse_attention", "layerfuse.fusion", "fuse_attention"),
    ("fusion.accumulate_previous", "layerfuse.fusion", "accumulate_previous"),
    ("model.encode", "layerfuse.model", "Seq2SeqModel.encode"),
    ("model.decode", "layerfuse.model", "Seq2SeqModel.decode"),
    ("training.train_step", "layerfuse.training", "train_step"),
    ("training.greedy_decode", "layerfuse.training", "greedy_decode"),
    ("training.save_checkpoint", "layerfuse.training", "save_checkpoint"),
    ("compgen.generate_corpus", "layerfuse.compgen", "generate_corpus"),
    ("compgen.write_corpus", "layerfuse.compgen", "write_corpus"),
    ("compgen.cter", "layerfuse.compgen", "cter"),
    ("cli.cmd_sweep", "layerfuse.cli", "cmd_sweep"),
)

# Counts that must repeat exactly across two runs with the same seed.
EXACT_COUNTS = (
    "tensor.tape_nodes",
    "model.decode.positions",
    "training.greedy_decode.tokens",
    "attention.multi_head_attention.calls",
    "fusion.fuse_attention.calls",
    "training.save_checkpoint.bytes",
)


class Tracer:
    """In-memory span recorder with a pausable clock."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op_id]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._paused = 0.0
        self._op_id: int | None = None
        self._patches: list[tuple] = []

    # -- clock ---------------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextlib.contextmanager
    def pause(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    # -- spans ---------------------------------------------------------------

    @property
    def recording(self) -> bool:
        return bool(self._stack)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.now(), None, parent, self._op_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.now()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order")

    @contextlib.contextmanager
    def root(self, name: str, op_id):
        """A root span: one operation or one set-up."""
        self._op_id = op_id
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)
            self._op_id = None

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def count(self, key: str, n: int) -> None:
        self.counts[self._op_id][key] += n

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, attr in TARGETS:
            try:
                owner, leaf, fn = _resolve(module_name, attr)
            except (ImportError, AttributeError):
                self.absent.append(layer)
                continue
            wrapper = _wrap(self, layer, fn)
            if owner is sys.modules[module_name]:
                # Patch every layerfuse module that imported the function.
                for mod in _layerfuse_modules():
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, name, value))
                            setattr(mod, name, wrapper)
            else:
                self._patches.append((owner, leaf, fn))
                setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like ``spans``."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self, root: str, scale: dict) -> dict:
        """Means over the roots named ``root``: root ms, self ms, calls, counts.

        Each root's times are multiplied by ``scale[op_id]``.
        """
        own = self.self_times()
        roots = {s[4] for s in self.spans if s[0] == root and s[3] < 0}
        ms: Counter = Counter()
        calls: Counter = Counter()
        op_ms = 0.0
        for s, self_t in zip(self.spans, own):
            if s[4] not in roots:
                continue
            if s[3] < 0:
                op_ms += (s[2] - s[1]) * scale[s[4]]
            else:
                ms[s[0]] += self_t * scale[s[4]]
                calls[s[0]] += 1
        n = len(roots)
        counts: Counter = Counter()
        for op_id in roots:
            counts.update(self.counts.get(op_id, {}))
        return {
            "op_ms": op_ms * 1e3 / max(n, 1),
            "self_ms": {k: v * 1e3 / max(n, 1) for k, v in ms.items()},
            "calls": {k: v / max(n, 1) for k, v in calls.items()},
            "counts": {k: v / max(n, 1) for k, v in counts.items()},
        }

    def exact_counts(self, op_ids) -> list[dict]:
        """The EXACT_COUNTS of each listed operation, with span call counts."""
        out = []
        for op_id in op_ids:
            calls = Counter(s[0] for s in self.spans if s[4] == op_id and s[3] >= 0)
            row = {}
            for key in EXACT_COUNTS:
                layer, _, what = key.rpartition(".")
                row[key] = (calls.get(layer, 0) if what == "calls"
                            else self.counts.get(op_id, {}).get(key, 0))
            out.append(row)
        return out

    def write(self, path) -> None:
        """Write spans as JSON lines: name, start_s, end_s, parent, op_id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start_s": start, "end_s": end,
                                     "parent": parent, "op_id": op_id}) + "\n")


def _layerfuse_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "layerfuse" or n.startswith("layerfuse."))]


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def _wrap(tracer: Tracer, layer: str, fn):
    """A span around ``fn`` plus the counts this layer reports."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        if layer == "tensor.backward":
            from layerfuse.tensor import Tape
            with tracer.pause():
                tracer.count("tensor.tape_nodes", len(Tape.trace(args[0]).nodes))
        elif layer == "model.decode" and tracer.inside("training.greedy_decode"):
            tracer.count("model.decode.positions", len(args[1]))
        idx = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if layer == "training.greedy_decode":
            tracer.count("training.greedy_decode.tokens", len(result[0]))
        elif layer == "training.save_checkpoint":
            with tracer.pause():
                tracer.count("training.save_checkpoint.bytes",
                             os.path.getsize(args[0]))
        return result

    return wrapper
