"""Encoder-decoder transformer with optional cross-layer fusion.

Post-layer-norm convention throughout: sublayer output is
layer_norm(x + dropout(sublayer(x))), applied to every sublayer, fuse-attention
included, by the one stack loop ``_run_stack``; fuse-attention's norm has no
learnable affine. Embeddings are learned, absolute, scaled by sqrt(d_model);
source/target tables and the output projection are all untied. Attention
projections carry no biases.

Token ids are a grid: a batch [B, T] right-padded to its rows' ``lengths``
(default: all T), or one sentence [T], a batch of one with no pads. Inside
each stack the activations are the grid's N = sum(lengths) real rows [N, d]
in sentence order (N = T for a lone sentence), so embeddings, dropout, layer
norms, the FFN, fuse-attention and the output projection skip any pads.
Attention takes its keys and values from the grid; only attention.Packing
knows whether a row is padded. So ``encode`` returns its top output on the
grid, zero at any pads, and ``decode`` reads the source lengths only for the
key mask. Padded source keys are masked out of encoder self-attention and
decoder cross-attention; decoder self-attention needs no padding mask, since
causality already keeps every real position from seeing the pads after it.

Every forward keeps a per-side LayerCache: the embedding output plus each
layer's output, the tensor actually fed to each layer (which differs from
the previous output only in accum mode), and each fused layer's
fuse-attention probabilities.

Decoding runs on a DecodeState, which keeps the source mask and each
decoder layer's self-attention keys and values and its cross-attention keys
and values of the encoder output, so a longer prefix runs only its new
positions through the stack. Fuse-attention and accum need nothing more,
since each position's layer history is its own.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .attention import (
    AttentionParams,
    KVCache,
    Packing,
    _xavier,
    make_causal_mask,
    multi_head_attention,
)
from .fileio import check_number_fields
from .fusion import VARIANT_NAMES, accumulate_previous, fuse_attention
from .tensor import ShapeError, Tensor, embedding_lookup, layer_norm

__all__ = ["ModelConfig", "LayerCache", "DecodeState", "Seq2SeqModel"]


@dataclass(frozen=True)
class ModelConfig:
    """The model's shape, variant and seed; construction refuses a bad one."""

    src_vocab: int
    tgt_vocab: int
    d_model: int = 64
    n_heads: int = 4
    d_ffn: int = 128
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    max_len: int = 48
    dropout: float = 0.1
    variant: str = "fuse"
    seed: int = 0

    def __post_init__(self) -> None:
        check_number_fields(self)
        if self.n_heads < 1 or self.d_model < 1 or self.d_model % self.n_heads != 0:
            raise ValueError(
                f"n_heads {self.n_heads} must be >= 1 and d_model "
                f"{self.d_model} a positive multiple of it"
            )
        if self.src_vocab < 1 or self.tgt_vocab < 1:
            raise ValueError("vocab sizes must be >= 1")
        if self.n_enc_layers < 1 or self.n_dec_layers < 1:
            raise ValueError("layer counts must be >= 1")
        if self.d_ffn < 1 or self.max_len < 1:
            raise ValueError("d_ffn and max_len must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.variant not in VARIANT_NAMES:
            raise ValueError(f"variant must be one of {', '.join(VARIANT_NAMES)}, "
                             f"got {self.variant!r}")

    def fused_layers(self, side: str) -> list[int]:
        """0-based indices of the layers on ``side`` that carry fuse-attention."""
        # side[:3] is "enc" or "dec": fuse_enc and fuse_dec fuse one side each.
        if self.variant not in ("fuse", "fuse_top", f"fuse_{side[:3]}"):
            return []
        n = self.n_enc_layers if side == "encoder" else self.n_dec_layers
        return [n - 1] if self.variant == "fuse_top" else list(range(n))

    @property
    def fuses(self) -> bool:
        """Whether any layer carries fuse-attention."""
        return bool(self.fused_layers("encoder") or self.fused_layers("decoder"))

    def with_variant(self, name: str) -> "ModelConfig":
        return replace(self, variant=name)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class LayerCache:
    """Per-forward history of one stack (encoder or decoder).

    outputs[0] is the embedding output; outputs[j] is layer j-1's output.
    layer_inputs[k] is the tensor actually consumed by layer k.
    fuse_probs[k] is fused layer k's fuse-attention probabilities
    [N, h, k + 1] over its history; unfused layers have no entry. Every
    entry is rows [N, ...], N = T for a lone sentence.
    """

    outputs: list = field(default_factory=list)
    layer_inputs: list = field(default_factory=list)
    fuse_probs: dict = field(default_factory=dict)


@dataclass
class DecodeState:
    """What ``Seq2SeqModel.decode`` keeps about one prefix between calls.

    ``ids`` is the target prefix already run and ``src_mask`` the mask of
    the real encoder keys (None without padding). ``self_kv[k]`` holds
    decoder layer k's self-attention keys and values for those positions and
    ``cross_kv[k]`` its cross-attention keys and values of the encoder
    output; ``padded`` marks a prefix with pads, which no call may extend.
    A new state is empty; the first decode fills it. A batch of prefixes
    keeps its rows on axis 0 of ``ids``, ``src_mask`` and every cache.
    """

    ids: np.ndarray | None = None
    src_mask: np.ndarray | None = None
    padded: bool = False
    self_kv: list = field(default_factory=list)
    cross_kv: list = field(default_factory=list)

    def cached_positions(self, ids: np.ndarray) -> int:
        """How many leading positions of the prefix ``ids`` are cached.

        Raises ShapeError unless ``ids`` is the cached prefix plus at least
        one position, and the cached prefix has no pads.
        """
        if self.ids is None:
            return 0
        if self.padded:
            raise ShapeError(f"the padded prefix {self.ids.tolist()} cannot be extended")
        n = self.ids.shape[-1]
        if ids.shape[-1] <= n or not np.array_equal(ids[..., :n], self.ids):
            raise ShapeError(
                f"prefix {ids.tolist()} does not extend the decoded prefix "
                f"{self.ids.tolist()}"
            )
        return n

    def keep(self, rows) -> None:
        """Keep only batch rows ``rows`` (indices or a boolean mask) of the
        cached prefix, source mask, keys and values, for a batch that drops
        finished rows.

        The kept keys and values are new tensors with no gradient history.
        """
        self.ids = self.ids[rows]
        if self.src_mask is not None:
            self.src_mask = self.src_mask[rows]
        for cache in self.self_kv + self.cross_kv:
            cache.k, cache.v = Tensor(cache.k.data[rows]), Tensor(cache.v.data[rows])


class _LayerNormParams:
    def __init__(self, reg, prefix: str, d: int):
        self.gamma = reg.add(f"{prefix}.gamma", np.ones(d))
        self.beta = reg.add(f"{prefix}.beta", np.zeros(d))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class _FeedForward:
    def __init__(self, reg, prefix: str, rng, d: int, d_ffn: int):
        self.w1 = reg.add(f"{prefix}.w1", _xavier(rng, d, d_ffn))
        self.b1 = reg.add(f"{prefix}.b1", np.zeros(d_ffn))
        self.w2 = reg.add(f"{prefix}.w2", _xavier(rng, d_ffn, d))
        self.b2 = reg.add(f"{prefix}.b2", np.zeros(d))

    def __call__(self, x: Tensor) -> Tensor:
        return (x.matmul(self.w1) + self.b1).relu().matmul(self.w2) + self.b2


class _Registry:
    def __init__(self):
        self.params: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray) -> Tensor:
        t = Tensor(array, requires_grad=True)
        self.params[name] = t
        return t

    def add_attention(self, prefix: str, params: AttentionParams) -> AttentionParams:
        self.params.update(params.named(prefix))
        return params


def _dropper(masks):
    """Inverted dropout applying pre-drawn masks in order, or None (eval)."""
    if masks is None:
        return None
    it = iter(masks)
    return lambda x: x * Tensor(next(it))


class _Layer:
    """One post-norm layer's parameters and sublayers: self-attention,
    cross-attention over the encoder output (decoder layers only),
    fuse-attention over the layer history (fused layers only) and the
    feed-forward block, run in that order by ``Seq2SeqModel._run_stack``."""

    def __init__(self, reg, prefix: str, rng, cfg: ModelConfig, *, cross: bool,
                 fused: bool):
        d, h = cfg.d_model, cfg.n_heads

        def attention(name):
            return reg.add_attention(f"{prefix}.{name}", AttentionParams.create(rng, d, h))

        # Creation order fixes the RNG draws and the parameter order.
        self.self_attn = attention("self")
        self.cross_attn = attention("cross") if cross else None
        self.fuse_params = attention("fuse") if fused else None
        self.norm_self = _LayerNormParams(reg, f"{prefix}.norm_self", d)
        self.norm_cross = (_LayerNormParams(reg, f"{prefix}.norm_cross", d)
                           if cross else None)
        self.ffn = _FeedForward(reg, f"{prefix}.ffn", rng, d, cfg.d_ffn)
        self.norm_ffn = _LayerNormParams(reg, f"{prefix}.norm_ffn", d)

    def self_block(self, x, packing, mask=None, drop=None, cache=None):
        out, _ = multi_head_attention(x, packing.pad(x), self.self_attn, mask, cache,
                                      packing)
        return _residual(x, out, self.norm_self, drop)

    def cross_block(self, x, enc_out, packing, mask=None, drop=None, cache=None):
        out, _ = multi_head_attention(x, enc_out, self.cross_attn, mask, cache, packing)
        return _residual(x, out, self.norm_cross, drop)

    def ffn_block(self, x, drop=None):
        return _residual(x, self.ffn(x), self.norm_ffn, drop)

    @property
    def dropout_sites(self) -> int:
        return 2 + (self.cross_attn is not None) + (self.fuse_params is not None)


def _residual(x, out, norm, drop):
    """norm(x + dropout(out))."""
    if drop is not None:
        out = drop(out)
    return norm(x + out)


# Fuse-attention's post-norm has no learnable affine, so that sublayer adds
# only its attention projections to the parameter count.
_plain_norm = partial(layer_norm, gamma=Tensor(1.0), beta=Tensor(0.0))


class Seq2SeqModel:
    """Transformer encoder-decoder over integer token ids.

    All parameters live in a name -> Tensor registry created in a fixed
    order from config.seed, so construction is deterministic.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        reg = _Registry()
        d = config.d_model
        emb_std = 1.0 / math.sqrt(d)
        self.src_embed = reg.add(
            "src_embed", rng.normal(0.0, emb_std, size=(config.src_vocab, d))
        )
        self.src_pos = reg.add(
            "src_pos", rng.normal(0.0, emb_std, size=(config.max_len, d))
        )
        self.tgt_embed = reg.add(
            "tgt_embed", rng.normal(0.0, emb_std, size=(config.tgt_vocab, d))
        )
        self.tgt_pos = reg.add(
            "tgt_pos", rng.normal(0.0, emb_std, size=(config.max_len, d))
        )
        enc_fused = config.fused_layers("encoder")
        self.enc_layers = [
            _Layer(reg, f"enc.{k}", rng, config, cross=False, fused=k in enc_fused)
            for k in range(config.n_enc_layers)
        ]
        dec_fused = config.fused_layers("decoder")
        self.dec_layers = [
            _Layer(reg, f"dec.{k}", rng, config, cross=True, fused=k in dec_fused)
            for k in range(config.n_dec_layers)
        ]
        self.out_proj = reg.add("out.w", _xavier(rng, d, config.tgt_vocab))
        self._params = reg.params

    # -- parameters ----------------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        return self._params

    def param_count(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    # -- forward -------------------------------------------------------------

    def embed(self, ids: np.ndarray, side: str, packing: Packing,
              start: int = 0) -> Tensor:
        """Scaled token embeddings plus positions of the real ids of the grid
        ``ids`` [B, T] or [T], as the rows [N, d] of its ``packing``.

        Each row's ids sit at positions ``start``, ``start + 1``, ...
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size < 1:
            raise ShapeError("cannot embed an empty sequence")
        n = start + ids.shape[-1]
        if n > self.config.max_len:
            raise ShapeError(
                f"sequence length {n} exceeds max_len {self.config.max_len}"
            )
        table, pos = (
            (self.src_embed, self.src_pos) if side == "encoder"
            else (self.tgt_embed, self.tgt_pos)
        )
        scaled = embedding_lookup(table, packing.take(ids)) * math.sqrt(self.config.d_model)
        return scaled + embedding_lookup(pos, packing.positions + start)

    def encode(self, src_ids, *, lengths=None, drop_masks=None):
        """Run the encoder stack; returns (top output, LayerCache).

        ``lengths`` gives the real length of each row of a batch [B, S]
        (default: all S). The grid runs as its real rows, padded keys are
        masked out of self-attention, and the top output is spread onto the
        grid [B, S, d] or [S, d], zero at any pads, while the cache holds the
        rows [N, d].
        ``drop_masks`` are the dropout masks of the stack's sublayers, in
        forward order (see ``dropout_masks``); None runs without dropout.
        """
        src_ids = np.asarray(src_ids, dtype=np.int64)
        packing = Packing.of(lengths, src_ids.shape)
        h = self.embed(src_ids, "encoder", packing)
        cache = self._run_stack("encoder", h, packing, drop_masks, packing.key_mask)
        return packing.pad(cache.outputs[-1]), cache

    def decode(self, tgt_prefix_ids, enc_out, *, src_lengths=None, tgt_lengths=None,
               drop_masks=None, state=None):
        """Run the decoder stack on a target prefix; returns (logits, cache).

        ``state`` is a DecodeState (default: a fresh one). The prefix is
        always the whole prefix, but only the positions the state has not
        seen run through the causally masked stack, so logits and the cache,
        ``fuse_probs`` included, cover those positions. Logits are the rows
        [N, V] of those positions in sentence order, [t, V] for a lone
        prefix; one new position per sentence gives one row each, which
        scores its next token. A later call must pass the previous prefix
        plus at least one position, or it raises ShapeError, as it does
        after a padded prefix.

        ``enc_out`` is what ``encode`` returned, on the grid [S, d] or
        [B, S, d]. ``src_lengths``, the real length of each of its rows, only
        masks out its pad keys; lengths that do not fit that grid raise
        ShapeError. ``tgt_lengths`` gives the real lengths of a padded target
        batch [B, t], whose logits then cover its real positions only, and
        which no later call may extend. These three are read on the state's
        first call only.
        """
        ids = np.asarray(tgt_prefix_ids, dtype=np.int64)
        state = DecodeState() if state is None else state
        start = state.cached_positions(ids)
        if start == 0:
            state.src_mask = Packing.of(src_lengths, enc_out.shape[:-1],
                                        "the encoder output's grid").key_mask
            state.self_kv = [KVCache() for _ in self.dec_layers]
            state.cross_kv = [KVCache(static=True) for _ in self.dec_layers]
        new = ids[..., start:]
        packing = Packing.of(None if start else tgt_lengths, new.shape)
        state.padded = packing.key_mask is not None
        h = self.embed(new, "decoder", packing, start)
        # The newest position sees every key: one new row needs no mask.
        mask = None if new.shape[-1] == 1 else make_causal_mask(ids.shape[-1])[start:]
        cache = self._run_stack("decoder", h, packing, drop_masks, mask, enc_out, state)
        state.ids = ids
        return cache.outputs[-1].matmul(self.out_proj), cache

    def _run_stack(self, side, h, packing, drop_masks, mask, enc_out=None,
                   state=None) -> LayerCache:
        """Run the embedding output ``h``, the rows [N, d] of the grid
        ``packing``, through every layer of ``side``: self-attention, then
        cross-attention over ``enc_out`` (decoder only), fuse-attention
        (fused layers only) and the feed-forward block, each sublayer as
        norm(x + dropout(out)). The decoder passes its DecodeState, whose
        source mask and KVCaches its layers read.
        """
        drop = _dropper(drop_masks)
        if drop is not None:
            h = drop(h)
        cache = LayerCache(outputs=[h])
        accum = self.config.variant == "accum"
        layers = self.enc_layers if side == "encoder" else self.dec_layers
        for k, layer in enumerate(layers):
            x = accumulate_previous(cache.outputs) if accum else cache.outputs[-1]
            cache.layer_inputs.append(x)
            a = layer.self_block(x, packing, mask, drop, state.self_kv[k] if state else None)
            if layer.cross_attn is not None:
                a = layer.cross_block(a, enc_out, packing, state.src_mask, drop,
                                      state.cross_kv[k])
            if layer.fuse_params is not None:
                out, cache.fuse_probs[k] = fuse_attention(a, cache.outputs,
                                                          layer.fuse_params)
                a = _residual(a, out, _plain_norm, drop)
            cache.outputs.append(layer.ffn_block(a, drop))
        return cache

    def forward(self, src_ids, tgt_in_ids, *, src_lengths=None, tgt_lengths=None,
                drop_rng=None) -> Tensor:
        """Teacher-forced logits: the rows [N, V] of the real target
        positions in sentence order, [T, V] for one sentence pair
        (``encode`` and ``decode`` also return each side's LayerCache)."""
        src_ids = np.asarray(src_ids, dtype=np.int64)
        tgt_in_ids = np.asarray(tgt_in_ids, dtype=np.int64)
        if src_ids.shape[:-1] != tgt_in_ids.shape[:-1]:
            raise ShapeError(
                f"source batch {src_ids.shape} and target batch "
                f"{tgt_in_ids.shape} disagree"
            )
        enc_drop, dec_drop = self.dropout_masks(
            drop_rng, src_ids, src_lengths, tgt_in_ids, tgt_lengths)
        enc_out, _ = self.encode(src_ids, lengths=src_lengths, drop_masks=enc_drop)
        logits, _ = self.decode(tgt_in_ids, enc_out, src_lengths=src_lengths,
                                tgt_lengths=tgt_lengths, drop_masks=dec_drop)
        return logits

    def dropout_masks(self, rng, src_ids, src_lengths, tgt_ids, tgt_lengths):
        """Inverted-dropout masks of every encoder and decoder sublayer.

        Returns (encoder masks, decoder masks), each a list in forward order
        shaped like the activations, the rows [N, d] of their grid, or
        (None, None) when ``rng`` is None or the rate is 0. Each sentence
        draws rng.random((length, d_model)) per sublayer: its encoder
        embedding, then self, fuse and ffn in each encoder layer, then its
        decoder embedding and self, cross, fuse and ffn in each decoder
        layer, before the next sentence draws. That is the order in which
        sentences run one at a time consume the stream, so a batch
        reproduces their masks exactly.
        """
        rate = self.config.dropout
        if rng is None or rate == 0.0:
            return None, None
        d = self.config.d_model
        sides = []
        for ids, lengths, layers in ((src_ids, src_lengths, self.enc_layers),
                                     (tgt_ids, tgt_lengths, self.dec_layers)):
            lengths = Packing.of(lengths, ids.shape).lengths
            n_sites = 1 + sum(layer.dropout_sites for layer in layers)
            sides.append((lengths, np.cumsum(lengths) - lengths,
                          np.empty((n_sites, sum(lengths), d))))
        scale = 1.0 / (1.0 - rate)
        for b in range(len(sides[0][0])):
            for lengths, starts, masks in sides:
                # One block draw equals the per-sublayer draws in sequence.
                draw = rng.random((len(masks), lengths[b], d))
                masks[:, starts[b]:starts[b] + lengths[b]] = (draw >= rate) * scale
        return tuple(list(masks) for _, _, masks in sides)

