"""In-process paired timing of ``train_step``, greedy decoding or corpus
generation in a parent and a change checkout.

    python3 tools/step_pairs.py PARENT_DIR CHANGE_DIR
        [--op train|decode|greedy|corpus] [--variant fuse] [--episodes 8]

Loads each checkout's ``src/layerfuse`` into this one process twice, each
copy a package of its own, with one BLAS thread set before numpy loads, so
both sides share the interpreter, the numpy build and the host's state of the
moment. Each copy builds the CLI's default model section for the variant on
the default corpus. A side's first copy loads before the other side's and
its second after it, and episodes switch copies every two episodes, so
neither side gains from the load order. An episode is one or more pairs; a
pair runs one operation on each side. The side that runs first alternates
from pair to pair, and from episode to episode for the same pair, so each
copy runs both orders. Every op prints each side's median time with
quartiles over all episodes, in how many pairs the change's median was
lower, and the median over the pairs of the change's median divided by the
parent's.

``--op train`` (the default) trains with ``TrainConfig(seed=0)``: an episode
is one pair, which resets both sides' parameters and Adam state and times
STEPS ``train_step`` calls per side. It also prints both sides' last losses
and the largest absolute parameter difference after the last episode. It
exits 1 when the last losses differ by more than 1e-9 relative, the
train_fuse benchmark's same-seed tolerance.

``--op decode`` times one ``greedy_decode_batch`` of the default corpus's
cg_test sources per side and episode, with the untrained model and EOS an id
outside the target vocabulary, as the decode_fuse benchmark has it, so every
row decodes the CLI's full ``eval_max_new_tokens`` budget. ``--op greedy``
times decode_fuse's own operation in the same setting: an episode is one pair
per cg_test source, each a lone ``greedy_decode`` of that source. Both exit 1
when the two sides' decoded tokens differ.

``--op corpus`` times ``generate_corpus(CorpusSpec())`` plus ``write_corpus``
per side and episode, the two calls sweep_small's operation makes once each;
each side writes into a temporary directory of its own outside both
checkouts, and no model is built. It exits 1 when the two sides wrote
different files.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
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
    """One checkout's default model for the variant on the default corpus."""

    def __init__(self, checkout: Path, name: str, variant: str):
        load_package(name, checkout)
        self.cli, self.compgen, model, self.training = (
            importlib.import_module(f"{name}.{m}")
            for m in ("cli", "compgen", "model", "training"))
        self.corpus = self.compgen.generate_corpus(self.compgen.CorpusSpec())
        section = dict(self.cli.default_config()["model"])
        section.update(src_vocab=len(self.corpus.src_vocab),
                       tgt_vocab=len(self.corpus.tgt_vocab))
        self.model = model.Seq2SeqModel(model.ModelConfig(**section).with_variant(variant))


class TrainSide(Side):
    """A side that trains; an episode is STEPS ``train_step`` calls."""

    unit, work, pairs = "step", f"{STEPS} steps", 1

    def __init__(self, *args):
        super().__init__(*args)
        corpus = self.corpus
        self.train_set = self.compgen.triples(corpus.train, corpus.src_vocab,
                                              corpus.tgt_vocab)
        self.cfg = self.training.TrainConfig(seed=0)
        self.initial = {n: p.data.copy() for n, p in self.model.parameters().items()}

    def run(self, _) -> tuple[list[float], float]:
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


class DecodeSide(Side):
    """A side that decodes; an episode is one ``greedy_decode_batch`` of the
    cg_test sources."""

    unit, work, pairs = "decode", "one cg_test decode", 1
    differ = "decoded different tokens"

    def __init__(self, *args):
        super().__init__(*args)
        corpus = self.corpus
        self.sources = [corpus.src_vocab.encode(ex.src) for ex in corpus.cg_test]
        self.eos = len(corpus.tgt_vocab)  # never emitted: every row runs the budget
        self.max_new = self.cli.default_config()["eval_max_new_tokens"]

    def run(self, _) -> tuple[list[float], list]:
        """Decode every source; returns ([ms], the decoded (tokens, truncated) pairs)."""
        gc.collect()
        t0 = time.perf_counter()
        decoded = self.training.greedy_decode_batch(
            self.model, self.sources, self.compgen.BOS, self.eos, self.max_new)
        return [(time.perf_counter() - t0) * 1000.0], decoded

    @staticmethod
    def summary(outputs) -> str:
        decoded = [pair for output in outputs for pair in output]
        tokens = sum(len(ids) for ids, _ in decoded)
        return f"{len(decoded)} sources, {tokens} tokens on the change side"


class GreedySide(DecodeSide):
    """A side that decodes as decode_fuse does; a pair is one lone
    ``greedy_decode`` of one cg_test source."""

    work = "one lone decode of each cg_test source"

    @property
    def pairs(self) -> int:
        return len(self.sources)

    def run(self, i: int) -> tuple[list[float], list]:
        """Decode source i; returns ([ms], [its (tokens, truncated) pair])."""
        t0 = time.perf_counter()
        decoded = self.training.greedy_decode(
            self.model, self.sources[i], self.compgen.BOS, self.eos, self.max_new)
        return [(time.perf_counter() - t0) * 1000.0], [decoded]


class CorpusSide:
    """A side that builds the default corpus; an episode generates it and
    writes it into the side's temporary directory."""

    unit, work, pairs = "corpus", "one default corpus written", 1
    differ = "wrote different files"

    def __init__(self, checkout: Path, name: str, variant: str):
        load_package(name, checkout)
        self.compgen = importlib.import_module(f"{name}.compgen")
        self.tmp = tempfile.TemporaryDirectory(prefix=f"{name}-")
        self.out = Path(self.tmp.name)

    def run(self, _) -> tuple[list[float], dict]:
        """Generate and write the corpus; returns ([ms], {file: (bytes, sha256)})."""
        gc.collect()
        t0 = time.perf_counter()
        compgen = self.compgen
        compgen.write_corpus(compgen.generate_corpus(compgen.CorpusSpec()), self.out)
        ms = (time.perf_counter() - t0) * 1000.0
        return [ms], {f.name: (f.stat().st_size, hashlib.sha256(f.read_bytes()).hexdigest())
                      for f in sorted(self.out.iterdir())}

    @staticmethod
    def summary(outputs) -> str:
        (files,) = outputs
        size = sum(n for n, _ in files.values())
        return f"{len(files)} files, {size} bytes on the change side"


SIDE_CLASSES = {"train": TrainSide, "decode": DecodeSide, "greedy": GreedySide,
                "corpus": CorpusSide}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--op", choices=tuple(SIDE_CLASSES), default="train")
    p.add_argument("--variant", default="fuse")
    p.add_argument("--episodes", type=int, default=8)
    args = p.parse_args(argv)
    if args.episodes < 1:
        p.error("--episodes must be >= 1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import numpy as np  # numpy reads the thread setting when it loads

    sys.dont_write_bytecode = True  # leave both checkouts as they are
    side_class = SIDE_CLASSES[args.op]
    unit = side_class.unit
    print(f"blas threads {BLAS_THREADS} (OMP, OPENBLAS, MKL), numpy {np.__version__}, "
          f"variant {args.variant}, {args.episodes} episodes of {side_class.work} per side",
          flush=True)
    # Copy 0 loads the parent first, copy 1 the change.
    copies = [{}, {}]
    for c, order in enumerate((SIDES, SIDES[::-1])):
        for side in order:
            copies[c][side] = side_class(getattr(args, side), f"_step_pairs_{side}{c}",
                                         args.variant)
    pairs = copies[0]["change"].pairs
    times = {side: [] for side in SIDES}
    outputs = {side: [None] * pairs for side in SIDES}  # the last episode's, by pair
    change_lower, ratios = 0, []
    for e in range(args.episodes):
        sides = copies[e // 2 % 2]
        episode_ms = {side: [] for side in SIDES}
        for i in range(pairs):
            medians = {}
            for side in (SIDES if (e + i) % 2 == 0 else SIDES[::-1]):
                op_ms, outputs[side][i] = sides[side].run(i)
                episode_ms[side] += op_ms
                medians[side] = statistics.median(op_ms)
            change_lower += medians["change"] < medians["parent"]
            ratios.append(medians["change"] / medians["parent"])
        print(f"episode {e}: " + "  ".join(
            f"{side} {statistics.median(episode_ms[side]):.2f} ms" for side in SIDES),
            file=sys.stderr, flush=True)
        for side in SIDES:
            times[side] += episode_ms[side]
    for side in SIDES:
        # One time in all (one decode or corpus episode): its quartiles are that time.
        q1, q2, q3 = (statistics.quantiles(times[side], n=4, method="inclusive")
                      if len(times[side]) > 1 else times[side] * 3)
        print(f"{side}: median {unit} {q2:.2f} ms [q1 {q1:.2f}, q3 {q3:.2f}]")
    print(f"change median {unit} lower in {change_lower}/{len(ratios)} pairs")
    print(f"median change/parent ratio: {statistics.median(ratios):.3f}")
    if side_class is not TrainSide:
        same = outputs["parent"] == outputs["change"]
        print(f"outputs: {'identical' if same else 'DIFFERENT'} "
              f"({side_class.summary(outputs['change'])})")
        if not same:
            print(f"error: the two sides {side_class.differ}", file=sys.stderr)
        return 0 if same else 1
    results = {side: outputs[side][0] for side in SIDES}
    print("last loss: " + "  ".join(f"{side} {results[side]!r}" for side in SIDES))
    params = {side: sides[side].model.parameters() for side in SIDES}
    if params["parent"].keys() != params["change"].keys():
        print("error: the two models' parameter names differ", file=sys.stderr)
        return 1
    diff = max(float(np.max(np.abs(p.data - params["change"][name].data)))
               for name, p in params["parent"].items())
    print(f"largest absolute parameter difference: {diff!r}")
    parent_loss, change_loss = results["parent"], results["change"]
    if abs(change_loss - parent_loss) > LOSS_REL_TOL * abs(parent_loss):
        print(f"error: last losses differ by more than {LOSS_REL_TOL} relative",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
