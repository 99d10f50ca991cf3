"""Machine-speed probe: report times as they would read at a fixed speed.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 1.5x, within seconds as well as between runs. A process's CPU time slows
with it, so neither wall nor CPU time of a fixed operation repeats from one
run to the next. The benchmark therefore times a fixed probe loop right
before and right after every timed set-up and operation, and every TICK_S
seconds inside an operation (from a SIGALRM handler, with the probe's own
time taken out of the operation's), and reports the operation's time scaled
to reference speed:

    ref_time = wall_time * REF_ITER_S / probe_iter_s

where ``probe_iter_s`` is the mean per-iteration time of the probes around
and inside it. The probe mixes small NumPy operations with JSON encoding of
small records, the two kinds of work the program does, and calls nothing in
layerfuse, so a change to the program cannot move it. On an unshared
machine running at reference speed, reference times are wall times.
"""
from __future__ import annotations

import contextlib
import json
import signal
import time

import numpy as np

# Seconds per probe iteration that defines reference speed: about what a fast
# spell of the 2-core Xeon host the benchmark was written on gives (numpy
# 2.4.6, OpenBLAS 0.3.31, 1 BLAS thread).
REF_ITER_S = 70e-6
# Inside an operation: a probe of TICK_ITERS iterations (about 0.5 ms) every
# TICK_S seconds, about 1% of the operation's time.
TICK_S = 0.05
TICK_ITERS = 6


class SpeedProbe:
    """A fixed loop timed between and inside operations.

    ``take`` returns the wall-to-reference factor for the work since the
    previous ``take`` and starts the next window from the last probe.
    """

    def __init__(self, edge_iters: int):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((16, 64))
        self.w = rng.standard_normal((64, 64)) * 0.1
        self.edge_iters = edge_iters
        self.samples: list[float] = []   # seconds per iteration, every probe
        self.window: list[float] = []    # the same, since the last take
        self.ticks_s = 0.0               # seconds spent in probes inside operations

    def _run(self, iters: int) -> float:
        t0 = time.perf_counter()
        _loop(self.x, self.w, iters)
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed / iters)
        self.window.append(elapsed / iters)
        return elapsed

    def edge(self) -> None:
        """Probe between two timed spans."""
        self._run(self.edge_iters)

    @contextlib.contextmanager
    def ticking(self, pause=contextlib.nullcontext):
        """Probe every TICK_S seconds inside the block, each probe under ``pause()``."""

        def tick(signum, frame):
            with pause():
                self.ticks_s += self._run(TICK_ITERS)

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def take(self) -> float:
        """Factor from wall to reference time for the work in the current window."""
        factor = REF_ITER_S / (sum(self.window) / len(self.window))
        self.window = self.window[-1:]
        return factor


def _loop(x, w, iters: int) -> float:
    """Small NumPy operations, as the tensor layer does, and JSON encoding of
    small records, as the corpus and result writers do."""
    total = 0.0
    for k in range(iters):
        h = np.maximum(x @ w, 0.0)
        e = np.exp(h - h.max(axis=1, keepdims=True))
        x = e / e.sum(axis=1, keepdims=True)
        x = np.concatenate([x[:, 32:], x[:, :32]], axis=1) * 1.0
        rows = [{"k": k, "i": i, "v": float(x[0, i]), "src": "a b c d e f", "ctx": [1, 2, 3]}
                for i in range(10)]
        total += len("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    return total
