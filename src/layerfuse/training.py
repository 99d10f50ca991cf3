"""Training loop, Adam with inverse-sqrt warmup schedule, greedy decoding,
and bit-exact checkpointing.

All randomness is derived functionally from (seed, purpose tag, step), so a
resumed run consumes exactly the same batch order and dropout masks as an
uninterrupted one; checkpoints only need to persist the step counter and the
optimizer moments.

A batch is a list of (src_ids, tgt_in_ids, tgt_out_ids) triples. A step
right-pads its sources and target inputs to [B, T] id arrays and runs them
as one forward and one backward. The forward runs on the real positions
only, as rows (see Seq2SeqModel), so its logits line up with the real
targets concatenated, and padded keys are masked. The step loss is the
summed token NLL of the real targets divided by their count (mean over
tokens). Dropout masks are drawn sentence by sentence (see
Seq2SeqModel.dropout_masks), as if the sentences ran one at a time.
"""
from __future__ import annotations

import contextlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .attention import pad_ids
from .fileio import atomic_write, check_number_fields
from .fusion import FusionError
from .model import DecodeState, ModelConfig, Seq2SeqModel
from .tensor import ShapeError, Tensor, backward, cross_entropy, no_grad

__all__ = [
    "TrainConfig",
    "TrainState",
    "TrainingError",
    "CheckpointError",
    "lr_at",
    "init_state",
    "PaddedBatch",
    "pad_batch",
    "batch_loss",
    "train_step",
    "train_loop",
    "eval_loss",
    "token_accuracy",
    "extract_fuse_probs",
    "greedy_decode",
    "greedy_decode_batch",
    "save_checkpoint",
    "load_checkpoint",
]

# Purpose tags for functional RNG derivation.
_TAG_ORDER = 1
_TAG_DROPOUT = 2

# Sentences per padded forward in eval_loss and token_accuracy, and per
# length-sorted chunk of greedy_decode_batch.
EVAL_BATCH = 64

CHECKPOINT_VERSION = 2

# Adam's betas and epsilon, fixed at the Transformer's (Vaswani et al. 2017).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9


class TrainingError(RuntimeError):
    """Numeric failure during training (non-finite loss)."""


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings; construction refuses a bad one."""

    steps: int = 600
    batch_size: int = 16
    lr: float = 2e-3
    warmup: int = 200
    label_smoothing: float = 0.1
    clip_norm: float = 1.0
    seed: int = 0
    checkpoint_interval: int = 200

    def __post_init__(self) -> None:
        check_number_fields(self)
        if self.steps < 1 or self.batch_size < 1 or self.warmup < 1:
            raise ValueError("steps >= 1, batch_size >= 1 and warmup >= 1 required")
        if self.lr <= 0 or self.clip_norm <= 0:
            raise ValueError("lr and clip_norm must be positive")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainState:
    """Optimizer step counter plus Adam moments, keyed by parameter name."""

    step: int = 0
    seed: int = 0
    adam_m: dict = field(default_factory=dict)
    adam_v: dict = field(default_factory=dict)
    best_dev_loss: float | None = None


def init_state(model: Seq2SeqModel, cfg: TrainConfig) -> TrainState:
    state = TrainState(step=0, seed=cfg.seed)
    for name, p in model.parameters().items():
        state.adam_m[name] = np.zeros_like(p.data)
        state.adam_v[name] = np.zeros_like(p.data)
    return state


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to cfg.lr at step == warmup, then inverse-sqrt decay."""
    if step < 1:
        raise ValueError(f"schedule is defined for step >= 1, got {step}")
    return cfg.lr * min(step / cfg.warmup, math.sqrt(cfg.warmup / step))


def _global_grad_norm(params: dict) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    return math.sqrt(total)


def batch_indices(step0: int, n_examples: int, cfg: TrainConfig) -> np.ndarray:
    """Deterministic batch schedule: epoch-wise seeded permutations."""
    bs = min(cfg.batch_size, n_examples)
    per_epoch = n_examples // bs
    epoch, slot = divmod(step0, per_epoch)
    order = np.random.default_rng([cfg.seed, _TAG_ORDER, epoch]).permutation(n_examples)
    return order[slot * bs:(slot + 1) * bs]


class PaddedBatch(NamedTuple):
    """Sentence triples as right-padded [B, T] id arrays and real lengths,
    plus ``targets``, the real targets concatenated in sentence order [N].

    Pad cells hold id 0 but are never read as tokens: padded keys are
    masked, and the forward gives logits for the real positions only.
    """

    src: np.ndarray
    src_len: np.ndarray
    tgt_in: np.ndarray
    targets: np.ndarray
    tgt_len: np.ndarray


def pad_batch(triples) -> PaddedBatch:
    """Pad a list of (src_ids, tgt_in_ids, tgt_out_ids) triples."""
    for _, tgt_in_ids, tgt_out_ids in triples:
        if len(tgt_in_ids) != len(tgt_out_ids):
            raise ShapeError(
                f"target input length {len(tgt_in_ids)} != output length "
                f"{len(tgt_out_ids)}"
            )
    src, src_len = pad_ids([t[0] for t in triples])
    tgt_in, tgt_len = pad_ids([t[1] for t in triples])
    targets = np.concatenate([np.asarray(t[2], dtype=np.int64) for t in triples])
    return PaddedBatch(src, src_len, tgt_in, targets, tgt_len)


def batch_loss(model: Seq2SeqModel, batch: PaddedBatch, label_smoothing: float,
               drop_rng=None) -> Tensor:
    """Summed token NLL of the real targets divided by their count."""
    logits = model.forward(batch.src, batch.tgt_in, src_lengths=batch.src_len,
                           tgt_lengths=batch.tgt_len, drop_rng=drop_rng)
    nll = cross_entropy(logits, batch.targets, label_smoothing, reduction="sum")
    return nll * (1.0 / len(batch.targets))


def train_step(model: Seq2SeqModel, batch, cfg: TrainConfig, state: TrainState) -> dict:
    """One optimizer step over a batch of sentence triples."""
    state.step += 1
    lr = lr_at(state.step, cfg)
    drop_rng = (
        np.random.default_rng([cfg.seed, _TAG_DROPOUT, state.step])
        if model.config.dropout > 0.0 else None
    )
    model.zero_grad()
    loss = batch_loss(model, pad_batch(batch), cfg.label_smoothing, drop_rng)
    loss_val = loss.item()
    if not math.isfinite(loss_val):
        raise TrainingError(f"non-finite loss {loss_val!r} at step {state.step}")
    backward(loss)

    params = model.parameters()
    grad_norm = _global_grad_norm(params)
    scale = cfg.clip_norm / grad_norm if grad_norm > cfg.clip_norm else 1.0
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if scale != 1.0:
            g = g * scale
        m = state.adam_m[name] = b1 * state.adam_m[name] + (1.0 - b1) * g
        v = state.adam_v[name] = b2 * state.adam_v[name] + (1.0 - b2) * (g * g)
        p.data = p.data - lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    return {"loss": loss_val, "lr": lr, "grad_norm": grad_norm}


def _eval_chunks(model: Seq2SeqModel, triples):
    """The teacher-forced pass without a tape or dropout, one EVAL_BATCH chunk
    of sentence triples at a time.

    Yields each chunk's (logits [N, V], targets [N], encoder LayerCache,
    decoder LayerCache): the rows of its N real target positions in sentence
    order, and each side's history over its real positions.
    """
    triples = list(triples)
    with no_grad():
        for i in range(0, len(triples), EVAL_BATCH):
            batch = pad_batch(triples[i:i + EVAL_BATCH])
            enc_out, enc = model.encode(batch.src, lengths=batch.src_len)
            logits, dec = model.decode(batch.tgt_in, enc_out, src_lengths=batch.src_len,
                                       tgt_lengths=batch.tgt_len)
            yield logits, batch.targets, enc, dec


def eval_loss(model: Seq2SeqModel, triples, label_smoothing: float = 0.0) -> float:
    """Teacher-forced mean token loss without dropout."""
    total = 0.0
    tokens = 0
    for logits, targets, _, _ in _eval_chunks(model, triples):
        total += cross_entropy(logits, targets, label_smoothing, reduction="sum").item()
        tokens += len(targets)
    return total / max(tokens, 1)


def token_accuracy(model: Seq2SeqModel, triples) -> float:
    """Fraction of teacher-forced positions whose argmax hits the target."""
    hits = 0
    tokens = 0
    for logits, targets, _, _ in _eval_chunks(model, triples):
        hits += int(np.sum(np.argmax(logits.data, axis=1) == targets))
        tokens += len(targets)
    return hits / max(tokens, 1)


def extract_fuse_probs(model: Seq2SeqModel, triples) -> dict[str, dict[int, np.ndarray]]:
    """Mean fuse-attention distribution of each fused layer over sentence triples.

    Each side's ``LayerCache.fuse_probs`` hold its real positions only; the
    rows of every chunk are averaged flat over every (sentence, position,
    head), so each average is a distribution.
    Returns {side: {layer_idx: probs[len n_history]}} with 0-based layer
    indices; layer 0's history holds only the embedding, so its row is [1.0].
    Raises FusionError when the model has no fuse-attention sublayers.
    """
    if not model.config.fuses:
        raise FusionError(
            f"variant {model.config.variant!r} has no fuse-attention sublayers to inspect"
        )
    rows: dict[str, dict[int, list]] = {}
    for _, _, enc, dec in _eval_chunks(model, triples):
        for side, cache in (("encoder", enc), ("decoder", dec)):
            for k, probs in cache.fuse_probs.items():
                rows.setdefault(side, {}).setdefault(k, []).append(probs.reshape(-1, k + 1))
    if not rows:
        raise ShapeError("extract_fuse_probs over no sequences")
    return {side: {k: np.concatenate(chunks).mean(axis=0) for k, chunks in layers.items()}
            for side, layers in rows.items()}


def train_loop(
    model: Seq2SeqModel,
    train_set,
    cfg: TrainConfig,
    dev_set=None,
    out_dir: str | Path | None = None,
    log_stream=None,
    state: TrainState | None = None,
) -> tuple[TrainState, list[dict]]:
    """Run cfg.steps optimizer steps (continuing from ``state`` if given).

    Writes one JSON line per step to ``log_stream`` and, when ``out_dir`` is
    set, saves checkpoint.npz every checkpoint_interval steps and once at the
    end, plus best.npz whenever the dev loss improves (never without a
    ``dev_set``). Returns the final state and the list of per-step records.
    """
    if not train_set:
        raise ValueError("empty training set")
    if state is None:
        state = init_state(model, cfg)
    out_path = Path(out_dir) if out_dir is not None else None
    history: list[dict] = []
    while state.step < cfg.steps:
        batch = [train_set[i] for i in batch_indices(state.step, len(train_set), cfg)]
        t0 = time.perf_counter()
        rec = train_step(model, batch, cfg, state)
        rec["wall_ms"] = (time.perf_counter() - t0) * 1000.0
        rec["step"] = state.step
        at_interval = state.step % cfg.checkpoint_interval == 0
        if (at_interval or state.step == cfg.steps) and dev_set:
            dev = eval_loss(model, dev_set, cfg.label_smoothing)
            rec["dev_loss"] = dev
            if state.best_dev_loss is None or dev < state.best_dev_loss:
                state.best_dev_loss = dev
                if out_path is not None:
                    save_checkpoint(out_path / "best.npz", model, state)
        if out_path is not None and at_interval and state.step < cfg.steps:
            save_checkpoint(out_path / "checkpoint.npz", model, state)
        if log_stream is not None:
            log_stream.write(json.dumps(rec, sort_keys=True) + "\n")
        history.append(rec)
    if out_path is not None:
        save_checkpoint(out_path / "checkpoint.npz", model, state)
    return state, history


def greedy_decode(
    model: Seq2SeqModel,
    src_ids,
    bos_id: int,
    eos_id: int,
    max_new_tokens: int,
) -> tuple[list[int], bool]:
    """Argmax decoding until EOS; returns (tokens, truncated).

    The emitted list excludes BOS/EOS and holds at most
    min(max_new_tokens, max_len - 1) tokens. ``truncated`` is True when that
    budget ran out before EOS appeared.

    Decoding is incremental: the source is encoded once, and each step hands
    the whole prefix [t] to ``model.decode`` with one DecodeState, so only
    the newest position runs through the decoder.
    """
    budget = _budget(model, max_new_tokens)
    (result,) = _greedy(model, np.asarray(src_ids, dtype=np.int64), None,
                        bos_id, eos_id, budget)
    return result


def greedy_decode_batch(
    model: Seq2SeqModel,
    sources,
    bos_id: int,
    eos_id: int,
    max_new_tokens: int,
) -> list[tuple[list[int], bool]]:
    """``greedy_decode`` of every source in ``sources``, run in batches.

    The sources are sorted by length, so a batch pads little, and each chunk
    of EVAL_BATCH is right-padded into one [B, S] batch and encoded once.
    Each step runs one new position per row still decoding; a row that emits
    EOS leaves the batch and its DecodeState. Returns one (tokens, truncated)
    pair per source, in input order.
    """
    budget = _budget(model, max_new_tokens)
    order = sorted(range(len(sources)), key=lambda i: len(sources[i]))
    results = [None] * len(sources)
    for start in range(0, len(order), EVAL_BATCH):
        chunk = order[start:start + EVAL_BATCH]
        src, lengths = pad_ids([sources[i] for i in chunk])
        decoded = _greedy(model, src, lengths, bos_id, eos_id, budget)
        for i, result in zip(chunk, decoded):
            results[i] = result
    return results


def _budget(model: Seq2SeqModel, max_new_tokens: int) -> int:
    if max_new_tokens < 1:
        raise ValueError("max_new_tokens must be >= 1")
    return min(max_new_tokens, model.config.max_len - 1)


def _greedy(model, src, src_lengths, bos_id, eos_id, budget):
    """The decode loop of one source [S] or a padded batch [B, S].

    Returns a (tokens, truncated) pair per source. The loop keeps the
    prefixes as [rows, t] whatever the source's form, and hands ``decode``
    an unbatched [t] prefix for a single source; a step's logits are one row
    per prefix. ``live`` maps each row of the shrinking batch to its source.
    """
    batched = src.ndim == 2
    prefix = np.full((len(src) if batched else 1, 1), bos_id, dtype=np.int64)
    live = np.arange(len(prefix))
    results = [None] * len(prefix)
    with no_grad():
        enc_out, _ = model.encode(src, lengths=src_lengths)
        state = DecodeState()
        for _ in range(budget):
            logits, _ = model.decode(prefix if batched else prefix[0], enc_out,
                                     src_lengths=src_lengths, state=state)
            nxt = logits.data.argmax(axis=-1)
            stopped = nxt == eos_id
            if stopped.any():
                for row, ids in zip(live[stopped], prefix[stopped]):
                    results[row] = (ids[1:].tolist(), False)
                going = ~stopped
                if not going.any():
                    return results
                live, prefix, nxt = live[going], prefix[going], nxt[going]
                state.keep(going)
            prefix = np.concatenate([prefix, nxt[:, None]], axis=1)
    for row, ids in zip(live, prefix):
        results[row] = (ids[1:].tolist(), True)
    return results


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(path: str | Path, model: Seq2SeqModel, state: TrainState) -> None:
    """Single-file .npz: versioned JSON meta + raw float64 parameter and Adam
    moment buffers."""
    meta = {
        "format": "layerfuse-checkpoint",
        "version": CHECKPOINT_VERSION,
        "model_config": model.config.to_dict(),
        "step": state.step,
        "seed": state.seed,
        "best_dev_loss": state.best_dev_loss,
    }
    arrays: dict[str, np.ndarray] = {
        "meta": np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                              dtype=np.uint8)
    }
    for name, p in model.parameters().items():
        arrays[f"param/{name}"] = p.data
    for name, m in state.adam_m.items():
        arrays[f"adam_m/{name}"] = m
    for name, v in state.adam_v.items():
        arrays[f"adam_v/{name}"] = v
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str | Path) -> tuple[Seq2SeqModel, TrainState]:
    """Rebuild the model and its optimizer state from a checkpoint.

    Raises CheckpointError for a file that is not a well-formed checkpoint.
    """
    # The file is opened here, so it is closed even when np.load fails.
    with contextlib.ExitStack() as files:
        try:
            fh = files.enter_context(open(path, "rb"))
            archive = files.enter_context(np.load(fh, allow_pickle=False))
        except FileNotFoundError:
            raise
        except Exception as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        try:
            meta = json.loads(bytes(_entry(archive, path, "meta").tobytes()).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path} meta entry is corrupt: {exc}") from exc
        if not isinstance(meta, dict) or meta.get("format") != "layerfuse-checkpoint":
            raise CheckpointError(f"{path} is not a checkpoint file")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path} has version {meta.get('version')}, "
                f"expected {CHECKPOINT_VERSION}"
            )
        try:
            model = Seq2SeqModel(ModelConfig(**meta["model_config"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path} has a bad model_config: {exc}") from exc
        for name, p in model.parameters().items():
            p.data = _stored_array(archive, path, f"param/{name}", p.data.shape)
        try:
            state = TrainState(step=meta["step"], seed=meta["seed"],
                               best_dev_loss=meta.get("best_dev_loss"))
        except KeyError as exc:
            raise CheckpointError(f"{path} meta has no {exc} entry") from exc
        check_number_fields(state, lambda msg: CheckpointError(f"{path} meta: {msg}"))
        best = state.best_dev_loss
        if best is not None and type(best) not in (int, float):
            raise CheckpointError(f"{path} meta: best_dev_loss {best!r} is not a number")
        for name, p in model.parameters().items():
            for kind, store in (("adam_m", state.adam_m), ("adam_v", state.adam_v)):
                store[name] = _stored_array(archive, path, f"{kind}/{name}", p.data.shape)
    return model, state


def _entry(archive, path, key: str) -> np.ndarray:
    """The checkpoint's array ``key``; CheckpointError if it is missing or
    unreadable (a corrupt zip member, say)."""
    if key not in archive.files:
        raise CheckpointError(f"{path} is missing {key}")
    try:
        return archive[key]
    except Exception as exc:
        raise CheckpointError(f"{path} entry {key} is unreadable: {exc}") from exc


def _stored_array(archive, path, key: str, shape: tuple) -> np.ndarray:
    """A copy of the checkpoint's float64 array ``key``, which must have ``shape``."""
    arr = _entry(archive, path, key)
    if arr.dtype != np.float64 or arr.shape != shape:
        raise CheckpointError(
            f"{path} {key} is {arr.dtype} {arr.shape}, expected float64 {shape}"
        )
    return np.array(arr)
