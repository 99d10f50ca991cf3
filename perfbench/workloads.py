"""The benchmark's three workloads.

Each workload builds all of its inputs in ``setup``: the default corpus, and
from the seed the model, the batch order and dropout, or the decode order.
It prepares one operation at a time outside the timed span (``prepare``),
runs the operation (``op``, the only timed call) and checks its output
outside the timed span (``check``). A check returns (ok, tokens): whether the output is
correct and how many tokens the operation processed.

``tiny=True`` shrinks every size so the benchmark's own tests run in
seconds; the benchmark itself always runs the full sizes.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from pathlib import Path

import numpy as np

from layerfuse import cli, compgen, training
from layerfuse.compgen import BOS, EOS, CorpusSpec
from layerfuse.model import ModelConfig, Seq2SeqModel
from layerfuse.tensor import no_grad

TINY_MODEL = {"d_model": 16, "n_heads": 2, "d_ffn": 32, "n_enc_layers": 1,
              "n_dec_layers": 1, "max_len": 24}
TINY_CORPUS = {"n_np": 6, "n_vp": 6, "n_pp": 6, "n_mod": 6, "n_context_tokens": 8,
               "n_contexts": 6, "max_context_len": 6, "n_train": 120, "n_dev": 8,
               "n_test": 8, "n_cg_compounds": 3, "contexts_per_compound": 2}

# train_fuse checks the loss after the last step of each episode against the
# value recorded here for seed 0. Another seed starts from another model and
# batch order, so its loss is held to a band around that value instead:
# seeds 0-19 gave 5.105 to 5.405 nats.
EPISODE_STEPS = 20
REFERENCE_SEED = 0
REFERENCE_FINAL_LOSS = 5.270375306348031
SAME_SEED_REL_TOL = 1e-9
OTHER_SEED_ABS_TOL = 0.3


class Workload:
    """Shared sizes and configs; subclasses define setup, prepare, op, check."""

    name = ""
    setup_reps = 5     # set-up runs per benchmark run; setup_s is their median
    replay_ops = 2     # operations re-run from a fresh set-up for the count check
    probe_iters = 16   # speed-probe iterations before and after each operation

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.tiny = tiny
        if tiny:
            self.probe_iters = 5

    def model_config(self, corpus, variant: str) -> ModelConfig:
        section = dict(cli.default_config()["model"])
        if self.tiny:
            section.update(TINY_MODEL)
        section.update(src_vocab=len(corpus.src_vocab), tgt_vocab=len(corpus.tgt_vocab),
                       seed=self.seed)
        return ModelConfig(**section).with_variant(variant)

    def corpus_spec(self, **overrides) -> CorpusSpec:
        # The corpus is the CLI's default one for every seed: a step's cost is
        # set by its sentence count, so per-seed corpora would only move the
        # metrics through their mean sentence length.
        fields = dict(TINY_CORPUS) if self.tiny else {}
        fields.update(overrides)
        return CorpusSpec(**fields)


class TrainFuse(Workload):
    """One operation is one ``train_step`` of the fuse variant, batch 16.

    Training runs in episodes of EPISODE_STEPS steps from the seeded initial
    model, so each episode must repeat the first one's losses exactly.
    """

    name = "train_fuse"
    probe_iters = 60

    def setup(self) -> None:
        corpus = compgen.generate_corpus(self.corpus_spec())
        self.train_set = compgen.triples(corpus.train, corpus.src_vocab, corpus.tgt_vocab)
        self.model = Seq2SeqModel(self.model_config(corpus, "fuse"))
        self.cfg = training.TrainConfig(seed=self.seed, batch_size=4 if self.tiny else 16)
        self.initial = {n: p.data.copy() for n, p in self.model.parameters().items()}
        self.episode_steps = 3 if self.tiny else EPISODE_STEPS
        self.first_losses: list[float] = []

    def prepare(self, i: int):
        if i % self.episode_steps == 0:
            for name, p in self.model.parameters().items():
                p.data = self.initial[name].copy()
            self.state = training.init_state(self.model, self.cfg)
        idx = training.batch_indices(self.state.step, len(self.train_set), self.cfg)
        return [self.train_set[k] for k in idx]

    def op(self, batch):
        return training.train_step(self.model, batch, self.cfg, self.state)

    def check(self, i, batch, result):
        loss = result["loss"]
        step = i % self.episode_steps
        ok = math.isfinite(loss)
        if i < self.episode_steps:
            self.first_losses.append(loss)
        else:
            ok = ok and loss == self.first_losses[step]
        if step == self.episode_steps - 1 and not self.tiny:
            ok = ok and final_loss_ok(loss, self.seed)
        return ok, sum(len(tgt_out) for _, _, tgt_out in batch)


def final_loss_ok(loss: float, seed: int) -> bool:
    if seed == REFERENCE_SEED:
        return abs(loss - REFERENCE_FINAL_LOSS) <= SAME_SEED_REL_TOL * REFERENCE_FINAL_LOSS
    return abs(loss - REFERENCE_FINAL_LOSS) <= OTHER_SEED_ABS_TOL


class DecodeFuse(Workload):
    """One operation is one ``greedy_decode`` of a cg_test source.

    The model is untrained and EOS is an id outside the target vocabulary,
    so every sentence decodes exactly ``max_new`` tokens.
    """

    name = "decode_fuse"

    def setup(self) -> None:
        corpus = compgen.generate_corpus(self.corpus_spec())
        self.model = Seq2SeqModel(self.model_config(corpus, "fuse"))
        order = np.random.default_rng(self.seed).permutation(len(corpus.cg_test))
        self.sources = [corpus.src_vocab.encode(corpus.cg_test[k].src) for k in order]
        self.eos = len(corpus.tgt_vocab)
        self.max_new = 5 if self.tiny else cli.default_config()["eval_max_new_tokens"]

    def prepare(self, i: int):
        return self.sources[i % len(self.sources)]

    def op(self, src):
        return training.greedy_decode(self.model, src, BOS, self.eos, self.max_new)

    def check(self, i, src, result):
        tokens, truncated = result
        return (len(tokens) == self.max_new and truncated
                and decode_consistent(self.model, src, tokens)), len(tokens)


def decode_consistent(model, src, tokens) -> bool:
    """A teacher-forced forward over [BOS] + tokens re-predicts every token."""
    with no_grad():
        logits = model.forward(src, np.asarray([BOS] + list(tokens), dtype=np.int64))
    return np.array_equal(np.argmax(logits.data[:len(tokens)], axis=1), tokens)


class SweepSmall(Workload):
    """One operation is one in-process ``layerfuse sweep`` call.

    vanilla and accum, the workload seed as model and training seed, a few
    training steps and a small held-out split; each call writes into a fresh
    directory.
    """

    name = "sweep_small"
    variants = ("vanilla", "accum")
    replay_ops = 1
    probe_iters = 100
    steps = 4   # training steps per variant
    n_cg = 2    # held-out compounds, so few sentences to decode

    def setup(self) -> None:
        self.corpus = compgen.generate_corpus(self.corpus_spec(n_cg_compounds=self.n_cg))
        self.models = {v: Seq2SeqModel(self.model_config(self.corpus, v))
                       for v in self.variants}
        self.reference = None

    def prepare(self, i: int):
        out = self.workdir / f"sweep-{i}"
        argv = ["sweep", "--variants", ",".join(self.variants), "--seeds", str(self.seed),
                "--out", str(out), "--set", f"train.steps={self.steps}",
                "--set", f"corpus.n_cg_compounds={self.n_cg}"]
        if self.tiny:
            argv += [f"--set=model.{k}={v}" for k, v in TINY_MODEL.items()]
            argv += [f"--set=corpus.{k}={v}" for k, v in TINY_CORPUS.items()
                     if k != "n_cg_compounds"]
        return argv, out

    def op(self, args):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(args[0])

    def check(self, i, args, rc):
        if self.reference is None:
            self.reference = self._reference()
        ref = self.reference
        out = args[1]
        try:
            return rc == 0 and self._outputs_ok(out, ref), ref["tokens"]
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _outputs_ok(self, out: Path, ref: dict) -> bool:
        with open(out / "sweep_results.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if [r["variant"] for r in rows] != list(self.variants):
            return False
        for row in rows:
            rates = [float(row[k]) for k in ("cter_instance", "cter_aggregate", "exact_match")]
            if int(row["added_params"]) != 0 or not all(0.0 <= r <= 1.0 for r in rates):
                return False
            expected = ref["metrics"][row["variant"]]
            if (float(row["exact_match"]), float(row["cter_instance"])) != expected:
                return False
            model, _ = training.load_checkpoint(
                out / "runs" / f"{row['variant']}-s{self.seed}" / "checkpoint.npz")
            trained = ref["params"][row["variant"]]
            for name, p in model.parameters().items():
                if not np.array_equal(p.data, trained[name]):
                    return False
        return True

    def _reference(self) -> dict:
        """Train and decode each variant through the library, not the CLI.

        Gives the parameters each checkpoint must hold, the metrics each row
        must report and the tokens one sweep trains on and emits.
        """
        corpus = self.corpus
        train_set = compgen.triples(corpus.train, corpus.src_vocab, corpus.tgt_vocab)
        cfg = training.TrainConfig(steps=self.steps, seed=self.seed)
        max_new = cli.default_config()["eval_max_new_tokens"]
        trained_tokens = sum(
            len(train_set[k][2])
            for s in range(self.steps)
            for k in training.batch_indices(s, len(train_set), cfg))
        ref = {"params": {}, "metrics": {}, "tokens": 0}
        for variant, model in self.models.items():
            training.train_loop(model, train_set, cfg)
            ref["params"][variant] = {n: p.data.copy() for n, p in model.parameters().items()}
            preds = []
            for ex in corpus.cg_test:
                ids, _ = training.greedy_decode(
                    model, corpus.src_vocab.encode(ex.src), BOS, EOS, max_new)
                preds.append(corpus.tgt_vocab.decode(ids))
                ref["tokens"] += len(ids)
            ref["metrics"][variant] = (
                compgen.exact_match(preds, [ex.tgt for ex in corpus.cg_test]),
                compgen.cter(preds, corpus.cg_test, corpus.dictionary).instance_rate)
            ref["tokens"] += trained_tokens
        return ref


WORKLOADS = {w.name: w for w in (TrainFuse, DecodeFuse, SweepSmall)}
