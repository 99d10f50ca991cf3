"""The representation-fusion variants, accumulation and fuse-attention.

Fuse-attention lets a layer attend, separately at every position, over that
position's representations from all earlier layers (embedding included):
multi_head_attention with one query per position and that position's
stacked history as the key sequence, returning the pre-residual output. Keys
never cross positions, so decoder causality is preserved by construction.
Layer 0 attends over the embedding alone with weight exactly 1: its output
is the embedding's value and output projection, and its w_q and w_k get no
gradient, keeping their initial values (they still count among the
parameters).

Variants, by the names in VARIANT_NAMES, the only values of
ModelConfig.variant:
  vanilla   no fusion; plain transformer layers
  fuse      fuse-attention in every layer of both sides
  fuse_enc  fuse-attention in every encoder layer
  fuse_dec  fuse-attention in every decoder layer
  fuse_top  fuse-attention only in the topmost layer of both sides
  accum     no fuse-attention; the input of layer i on both sides is replaced
            by the elementwise sum of all previous layer outputs (adds no
            params)
"""
from __future__ import annotations

import numpy as np

from .attention import AttentionParams, multi_head_attention
from .tensor import Tensor, stack

__all__ = [
    "FusionError",
    "VARIANT_NAMES",
    "accumulate_previous",
    "fuse_attention_core",
    "fuse_attention",
]


class FusionError(ValueError):
    """Misconfigured fusion: empty layer history, a bad layer mask, or an
    unfused model's fuse-attention probabilities."""


# The variant names, in the order of the CLI's default sweep.
VARIANT_NAMES = ("vanilla", "fuse", "fuse_enc", "fuse_dec", "fuse_top", "accum")


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


def fuse_attention(
    query_state: Tensor,
    prev_outputs,
    params: AttentionParams,
    layer_mask: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Multi-head attention over each position's own layer history.

    ``query_state`` is [..., seq, d] with optional batch axes; position t's
    keys and values are its n_history earlier states, stacked on axis -2.
    Returns the pre-residual output [..., seq, d] and the probabilities
    [..., seq, h, n_history] as one array, as multi_head_attention does.

    ``layer_mask`` (length n_history, True = attendable) masks history rows;
    an empty attendable set is an error.
    """
    prev_outputs = list(prev_outputs)
    n_hist = len(prev_outputs)
    if n_hist == 0:
        raise FusionError("fuse-attention with an empty layer history")
    mask = None
    if layer_mask is not None:
        mask = np.asarray(layer_mask, dtype=bool)
        if mask.shape != (n_hist,):
            raise FusionError(f"layer_mask shape {mask.shape} != ({n_hist},)")
        if not mask.any():
            raise FusionError("layer_mask leaves no attendable layer")
        mask = mask[None, :]
    if n_hist == 1:
        # Softmax over one key is exactly 1.0 and sends exactly 0 back to the
        # scores, so the attention output is the entry's value projection and
        # w_q and w_k take no part (their gradient stays None).
        out = prev_outputs[0].matmul(params.w_v).matmul(params.w_o)
        return out, np.ones((*query_state.shape[:-1], params.n_heads, 1))
    history = stack(prev_outputs, axis=-2)
    query = query_state.reshape(*query_state.shape[:-1], 1, query_state.shape[-1])
    out, probs = multi_head_attention(query, history, params, mask)
    return out.reshape(*query_state.shape), probs.data[..., 0, :]


def fuse_attention_core(query_state: Tensor, prev_outputs, params: AttentionParams,
                        layer_mask: np.ndarray | None = None) -> tuple[Tensor, list[Tensor]]:
    """``fuse_attention`` with the probabilities as one [..., seq, n_history]
    tensor per head, off the tape."""
    out, probs = fuse_attention(query_state, prev_outputs, params, layer_mask)
    return out, [Tensor(p) for p in np.moveaxis(probs, -2, 0)]
