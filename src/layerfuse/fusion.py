"""Cross-layer fuse-attention and the representation-fusion variants.

The fuse-attention sublayer lets a layer attend, separately at every
position, over that position's representations from all earlier layers
(embedding included). Keys never cross positions: position t sees only its
own layer history, so decoder causality is preserved by construction.

Variants:
  vanilla   no fusion; plain transformer layers
  fuse      fuse-attention in every layer of the selected sides
  fuse_top  fuse-attention only in the topmost layer of the selected sides
  accum     no fuse-attention; the input of layer i is replaced by the
            elementwise sum of all previous layer outputs (adds no params)
"""
from __future__ import annotations

import math

import numpy as np

from .attention import AttentionParams, pad_ids
from .tensor import Tensor, layer_norm, no_grad, softmax, stack

__all__ = [
    "FusionError",
    "MODES",
    "SIDES",
    "VARIANT_NAMES",
    "parse_variant",
    "variant_name",
    "side_selected",
    "fused_layer_indices",
    "accumulates",
    "accumulate_previous",
    "fuse_attention_core",
    "fuse_attention",
    "FuseProbRecorder",
    "extract_fuse_probs",
]


class FusionError(ValueError):
    """Misconfigured fusion: empty layer history, bad variant name, etc."""


MODES = ("vanilla", "fuse", "accum", "fuse_top")
SIDES = ("encoder", "decoder", "both")

# Shorthand variant names used by configs, the CLI and sweep tables.
VARIANT_NAMES = {
    "vanilla": ("vanilla", "both"),
    "fuse": ("fuse", "both"),
    "fuse_enc": ("fuse", "encoder"),
    "fuse_dec": ("fuse", "decoder"),
    "fuse_top": ("fuse_top", "both"),
    "accum": ("accum", "both"),
}


def parse_variant(name: str) -> tuple[str, str]:
    """Map a shorthand variant name to (fusion_mode, fusion_sides)."""
    try:
        return VARIANT_NAMES[name]
    except KeyError:
        raise FusionError(
            f"unknown variant {name!r}; expected one of {sorted(VARIANT_NAMES)}"
        ) from None


def variant_name(mode: str, sides: str) -> str:
    for name, pair in VARIANT_NAMES.items():
        if pair == (mode, sides):
            return name
    return f"{mode}_{sides}"


def side_selected(sides: str, side: str) -> bool:
    if sides not in SIDES:
        raise FusionError(f"unknown fusion side {sides!r}")
    return sides == "both" or sides == side


def fused_layer_indices(mode: str, sides: str, side: str, n_layers: int) -> list[int]:
    """Indices (0-based) of the layers on ``side`` that carry fuse-attention."""
    if mode not in MODES:
        raise FusionError(f"unknown fusion mode {mode!r}")
    if mode in ("vanilla", "accum") or not side_selected(sides, side):
        return []
    if mode == "fuse_top":
        return [n_layers - 1] if n_layers > 0 else []
    return list(range(n_layers))


def accumulates(mode: str, sides: str, side: str) -> bool:
    return mode == "accum" and side_selected(sides, side)


def accumulate_previous(outputs) -> Tensor:
    """Elementwise sum of layer outputs, folded left in ascending layer order.

    The fold order is part of the contract: accumulation is deterministic and
    reproducible bit for bit.
    """
    outputs = list(outputs)
    if not outputs:
        raise FusionError("accumulate_previous over an empty history")
    total = outputs[0]
    for t in outputs[1:]:
        total = total + t
    return total


def fuse_attention_core(
    query_state: Tensor,
    prev_outputs,
    params: AttentionParams,
    layer_mask: np.ndarray | None = None,
) -> tuple[Tensor, list[Tensor]]:
    """Multi-head attention over each position's own layer history.

    Equivalent to running scaled dot attention once per position with that
    position's stacked history as keys/values. The history is one stacked
    [n_history, ..., seq, d] tensor, and every head, position and history
    entry is scored in one elementwise product: the score of entry j is the
    dot product of the projected query and projected entry j at the same
    position. ``query_state`` is [..., seq, d] with optional batch axes.
    Returns the pre-residual output [..., seq, d] and per-head probability
    arrays [..., seq, n_history] as tensors off the tape.

    ``layer_mask`` (length n_history, True = attendable) masks history rows;
    an empty attendable set is an error.
    """
    prev_outputs = list(prev_outputs)
    n_hist = len(prev_outputs)
    if n_hist == 0:
        raise FusionError("fuse-attention with an empty layer history")
    h = params.n_heads
    history = stack(prev_outputs)
    q = _per_head(query_state.matmul(params.w_q), h)
    k = _per_head(history.matmul(params.w_k), h)
    scores = (q * k).sum(axis=-1) * (1.0 / math.sqrt(params.d_k))
    if layer_mask is not None:
        layer_mask = np.asarray(layer_mask, dtype=bool)
        if layer_mask.shape != (n_hist,):
            raise FusionError(
                f"layer_mask shape {layer_mask.shape} != ({n_hist},)"
            )
        if not layer_mask.any():
            raise FusionError("layer_mask leaves no attendable layer")
        bias = np.where(layer_mask, 0.0, -1e9)
        scores = scores + Tensor(bias.reshape((n_hist,) + (1,) * (scores.ndim - 1)))
    probs = softmax(scores, axis=0)                      # [n_hist, ..., seq, h]
    v = _per_head(history.matmul(params.w_v), h)
    mixed = (probs.reshape(*probs.shape, 1) * v).sum(axis=0)
    merged = mixed.reshape(*mixed.shape[:-2], mixed.shape[-2] * mixed.shape[-1])
    per_head = np.moveaxis(probs.data, (0, -1), (-1, 0))  # [h, ..., seq, n_hist]
    return merged.matmul(params.w_o), [Tensor(p) for p in per_head]


def _per_head(x: Tensor, n_heads: int) -> Tensor:
    """[..., h*d] -> [..., h, d]."""
    return x.reshape(*x.shape[:-1], n_heads, x.shape[-1] // n_heads)


_NORM_CONSTS: dict[int, tuple[Tensor, Tensor]] = {}


def _plain_norm_params(d: int) -> tuple[Tensor, Tensor]:
    # Affine-free post-norm: fixed gamma=1, beta=0 so the sublayer adds only
    # the attention projections to the parameter count.
    if d not in _NORM_CONSTS:
        _NORM_CONSTS[d] = (Tensor(np.ones(d)), Tensor(np.zeros(d)))
    return _NORM_CONSTS[d]


def fuse_attention(
    query_state: Tensor,
    prev_outputs,
    params: AttentionParams,
    layer_mask: np.ndarray | None = None,
    *,
    eps: float = 1e-5,
    dropout=None,
) -> tuple[Tensor, list[Tensor]]:
    """Fuse-attention sublayer: core attention, residual, post-norm.

    The post-norm carries no learnable affine (see _plain_norm_params).
    ``dropout`` is an optional callable applied to the core output.
    """
    core, probs = fuse_attention_core(query_state, prev_outputs, params, layer_mask)
    if dropout is not None:
        core = dropout(core)
    gamma, beta = _plain_norm_params(query_state.shape[-1])
    return layer_norm(query_state + core, gamma, beta, eps), probs


class FuseProbRecorder:
    """Running average of fuse-attention probabilities per (side, layer).

    The average is flat over every (example, head, position) triple, so each
    recorded row is a distribution and the average stays one.
    """

    def __init__(self):
        self._sums: dict[tuple[str, int], np.ndarray] = {}
        self._counts: dict[tuple[str, int], int] = {}

    def add(self, side: str, layer_idx: int, probs_per_head) -> None:
        """Record per-head probability rows, each shaped [..., n_history]."""
        rows = np.concatenate(
            [p.data.reshape(-1, p.shape[-1]) for p in probs_per_head], axis=0)
        key = (side, layer_idx)
        if key in self._sums:
            self._sums[key] = self._sums[key] + rows.sum(axis=0)
            self._counts[key] += rows.shape[0]
        else:
            self._sums[key] = rows.sum(axis=0)
            self._counts[key] = rows.shape[0]

    def averaged(self) -> dict[str, dict[int, np.ndarray]]:
        out: dict[str, dict[int, np.ndarray]] = {}
        for (side, layer_idx), total in sorted(self._sums.items()):
            out.setdefault(side, {})[layer_idx] = total / self._counts[(side, layer_idx)]
        return out


def extract_fuse_probs(model, batch) -> dict[str, dict[int, np.ndarray]]:
    """Average fuse-attention distributions over a batch of (src, tgt_in) pairs.

    The pairs run as one padded forward; only real positions are recorded.
    Returns {side: {layer_idx: probs[len n_history]}} with 0-based layer
    indices; layer 0's history holds only the embedding, so its row is [1.0].
    Raises FusionError when the model has no fuse-attention sublayers.
    """
    cfg = model.config
    if not (cfg.fused_layers("encoder") or cfg.fused_layers("decoder")):
        raise FusionError(
            f"variant {cfg.variant!r} has no fuse-attention sublayers to inspect"
        )
    recorder = FuseProbRecorder()
    src, src_len = pad_ids([src_ids for src_ids, _ in batch])
    tgt_in, tgt_len = pad_ids([tgt_in_ids for _, tgt_in_ids in batch])
    with no_grad():
        model.forward(src, tgt_in, src_lengths=src_len, tgt_lengths=tgt_len,
                      recorder=recorder)
    return recorder.averaged()
