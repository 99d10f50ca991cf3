"""In-process paired timing of ``train_step`` in a parent and a change checkout.

    python3 tools/step_pairs.py PARENT_DIR CHANGE_DIR [--variant fuse] [--episodes 8]

Loads each checkout's ``src/layerfuse`` into this one process as a package of
its own, with one BLAS thread set before numpy loads, so both sides share the
interpreter, the numpy build and the host's state of the moment. Each side
builds the CLI's default model section for the variant on the default corpus
and trains it with ``TrainConfig(seed=0)``. An episode resets both sides'
parameters and Adam state, then times STEPS ``train_step`` calls of one side
and then of the other, the parent first in even episodes and the change first
in odd ones.

It prints each side's median step time with quartiles over all episodes, in
how many episodes the change's median step was lower, both sides' last losses
and the largest absolute parameter difference after the last episode. It
exits 1 when the last losses differ by more than 1e-9 relative, the
train_fuse benchmark's same-seed tolerance.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
SIDES = ("parent", "change")
STEPS = 20
LOSS_REL_TOL = 1e-9


def load_package(name: str, checkout: Path):
    """Import ``checkout``'s src/layerfuse under the package name ``name``."""
    src = checkout / "src" / "layerfuse"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Side:
    """One checkout's model, training set and optimizer state."""

    def __init__(self, checkout: Path, name: str, variant: str):
        load_package(name, checkout)
        cli, compgen, model, self.training = (
            importlib.import_module(f"{name}.{m}")
            for m in ("cli", "compgen", "model", "training"))
        corpus = compgen.generate_corpus(compgen.CorpusSpec())
        self.train_set = compgen.triples(corpus.train, corpus.src_vocab, corpus.tgt_vocab)
        section = dict(cli.default_config()["model"])
        section.update(src_vocab=len(corpus.src_vocab), tgt_vocab=len(corpus.tgt_vocab))
        self.model = model.Seq2SeqModel(model.ModelConfig(**section).with_variant(variant))
        self.cfg = self.training.TrainConfig(seed=0)
        self.initial = {n: p.data.copy() for n, p in self.model.parameters().items()}

    def episode(self) -> tuple[list[float], float]:
        """Train STEPS steps from the initial model; returns (step ms, last loss)."""
        for name, p in self.model.parameters().items():
            p.data = self.initial[name].copy()
        state = self.training.init_state(self.model, self.cfg)
        times, loss = [], None
        gc.collect()
        for _ in range(STEPS):
            idx = self.training.batch_indices(state.step, len(self.train_set), self.cfg)
            batch = [self.train_set[k] for k in idx]
            t0 = time.perf_counter()
            loss = self.training.train_step(self.model, batch, self.cfg, state)["loss"]
            times.append((time.perf_counter() - t0) * 1000.0)
        return times, loss


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--variant", default="fuse")
    p.add_argument("--episodes", type=int, default=8)
    args = p.parse_args(argv)
    if args.episodes < 1:
        p.error("--episodes must be >= 1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import numpy as np  # numpy reads the thread setting when it loads

    sys.dont_write_bytecode = True  # leave both checkouts as they are
    print(f"blas threads {BLAS_THREADS} (OMP, OPENBLAS, MKL), numpy {np.__version__}, "
          f"variant {args.variant}, {args.episodes} episodes of {STEPS} steps per side",
          flush=True)
    sides = {side: Side(getattr(args, side), f"_step_pairs_{side}", args.variant)
             for side in SIDES}
    times = {side: [] for side in SIDES}
    losses, change_lower = {}, 0
    for e in range(args.episodes):
        medians = {}
        for side in (SIDES if e % 2 == 0 else SIDES[::-1]):
            step_ms, losses[side] = sides[side].episode()
            times[side] += step_ms
            medians[side] = statistics.median(step_ms)
        change_lower += medians["change"] < medians["parent"]
        print(f"episode {e}: " + "  ".join(f"{side} {medians[side]:.2f} ms"
                                            for side in SIDES), file=sys.stderr, flush=True)
    for side in SIDES:
        q1, q2, q3 = statistics.quantiles(times[side], n=4, method="inclusive")
        print(f"{side}: median step {q2:.2f} ms [q1 {q1:.2f}, q3 {q3:.2f}]")
    print(f"change median step lower in {change_lower}/{args.episodes} episodes")
    print("last loss: " + "  ".join(f"{side} {losses[side]!r}" for side in SIDES))
    params = {side: sides[side].model.parameters() for side in SIDES}
    if params["parent"].keys() != params["change"].keys():
        print("error: the two models' parameter names differ", file=sys.stderr)
        return 1
    diff = max(float(np.max(np.abs(p.data - params["change"][name].data)))
               for name, p in params["parent"].items())
    print(f"largest absolute parameter difference: {diff!r}")
    parent_loss, change_loss = losses["parent"], losses["change"]
    if abs(change_loss - parent_loss) > LOSS_REL_TOL * abs(parent_loss):
        print(f"error: last losses differ by more than {LOSS_REL_TOL} relative",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
