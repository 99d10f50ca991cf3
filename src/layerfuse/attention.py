"""Scaled dot-product attention and multi-head attention.

Operands carry optional leading batch axes: one sentence is [n, d], a padded
batch [B, n, d]. Masks are boolean arrays shaped [n_queries, n_keys], or
[B, n_queries or 1, n_keys] for a batch; True marks an attendable key.
Masking is additive: blocked scores get -1e9 before the softmax, which
underflows to an exact probability of 0.0 in float64 after max subtraction.

Keys and values come from a memory on the grid. Queries alone may be the
packed real rows [N, d] of a padded batch (see Packing): they meet the grid
only in the score and context products.

A KVCache keeps one attention site's projected keys and values between
calls, for decoding one position at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, concat, gather_rows, scatter_rows, softmax

__all__ = [
    "AttentionParams",
    "KVCache",
    "MaskError",
    "MASK_BIAS",
    "Packing",
    "make_causal_mask",
    "pad_ids",
    "scaled_dot_attention",
    "multi_head_attention",
]

MASK_BIAS = -1e9


class MaskError(ValueError):
    """A query row is left with no attendable key."""


def make_causal_mask(n: int) -> np.ndarray:
    """Lower-triangular mask: position t may attend keys 0..t."""
    if n < 1:
        raise MaskError(f"causal mask needs n >= 1, got {n}")
    return np.tril(np.ones((n, n), dtype=bool))


def pad_ids(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id sequences into one [B, T] array; returns (ids, lengths).

    Pad cells hold id 0; ``lengths`` is what Packing.of takes.
    """
    lengths = np.array([len(q) for q in seqs], dtype=np.int64)
    ids = np.zeros((len(seqs), int(lengths.max())), dtype=np.int64)
    for row, q in zip(ids, seqs):
        row[:len(q)] = q
    return ids, lengths


class Packing:
    """Where the real rows of a right-padded [B, width] batch sit.

    ``real`` is the [B, width] grid of real cells, the first ``lengths[b]``
    of row b. A padded batch's activations are its N = sum(lengths) real
    rows, in sentence order, as one [N, d] array; ``index`` holds their flat
    positions b * width + t in the padded grid.
    """

    def __init__(self, lengths: np.ndarray, width: int):
        self.lengths = lengths
        self.width = width
        self.real = np.arange(width) < lengths[:, None]
        self.index = np.flatnonzero(self.real)

    @classmethod
    def of(cls, lengths, shape: tuple, name: str = "padded ids") -> Packing | None:
        """The Packing of a right-padded grid of ``shape`` [T] or [B, T] whose
        rows have the real ``lengths``, or None when ``lengths`` is None or no
        row is padded; ``name`` names the grid in the ShapeError of a misfit."""
        if lengths is None:
            return None
        rows, width = math.prod(shape[:-1]), shape[-1]
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (rows,) or (lengths < 1).any() or (lengths > width).any():
            raise ShapeError(
                f"lengths {lengths.tolist()} do not fit {name} {tuple(shape)}"
            )
        return None if (lengths == width).all() else cls(lengths, width)

    @property
    def key_mask(self) -> np.ndarray:
        """[B, 1, width] mask of the real keys, the same for every query."""
        return self.real[:, None, :]

    @property
    def positions(self) -> np.ndarray:
        """Each packed row's position in its sentence."""
        return self.index % self.width

    def take(self, ids: np.ndarray) -> np.ndarray:
        """The packed real entries of padded ids [B, width]."""
        return ids.reshape(-1)[self.index]

    def pad(self, x: Tensor) -> Tensor:
        """Packed rows [N, w] to the padded grid [B, width, w], zero at pads."""
        return scatter_rows(x, self.index, (len(self.lengths), self.width, x.shape[-1]))

    def pack(self, x: Tensor) -> Tensor:
        """The real rows [N, w] of a padded grid [B, width, w]."""
        return gather_rows(x, self.index)


def _mask_bias(mask: np.ndarray, shape: tuple) -> np.ndarray:
    try:
        np.broadcast_to(mask, shape)
    except ValueError:
        raise ShapeError(f"mask shape {mask.shape} does not match scores {shape}") from None
    if not mask.any(axis=-1).all():
        raise MaskError("a query row has every key masked out")
    return np.where(mask, 0.0, MASK_BIAS)


def scaled_dot_attention(
    q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None
) -> tuple[Tensor, Tensor]:
    """softmax(q k^T / sqrt(d_k)) v over the last two axes of q, k, v.

    Leading axes are batch axes. Returns (output, probs); probs rows are
    stochastic over attendable keys and exactly zero on masked ones.
    """
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeError("scaled_dot_attention expects q, k, v of rank >= 2")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"q/k width mismatch: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"k/v length mismatch: {k.shape} vs {v.shape}")
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = q.matmul(k.swapaxes(-1, -2)) * scale
    if mask is not None:
        scores = scores + Tensor(_mask_bias(np.asarray(mask, dtype=bool), scores.shape))
    probs = softmax(scores, axis=-1)
    return probs.matmul(v), probs


@dataclass
class AttentionParams:
    """Query, key and value projections plus the output projection.

    w_q, w_k, w_v are [d, h*d_k] with head i as column block i; w_o is
    [h*d_k, d]. No bias terms anywhere.
    """

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    n_heads: int

    @property
    def d_k(self) -> int:
        return self.w_q.shape[1] // self.n_heads

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{name}": getattr(self, name)
                for name in ("w_q", "w_k", "w_v", "w_o")}

    @classmethod
    def create(cls, rng: np.random.Generator, d_model: int, n_heads: int) -> "AttentionParams":
        """Xavier-uniform init, one draw per head: all q heads, then k, then v, then w_o."""
        if d_model % n_heads != 0:
            raise ShapeError(f"d_model {d_model} not divisible by n_heads {n_heads}")
        d_k = d_model // n_heads

        def heads() -> np.ndarray:
            return np.concatenate(
                [_xavier(rng, d_model, d_k) for _ in range(n_heads)], axis=1)

        w_q, w_k, w_v = heads(), heads(), heads()
        w_o = _xavier(rng, d_model, d_model)
        return cls(*(Tensor(w, requires_grad=True) for w in (w_q, w_k, w_v, w_o)), n_heads)


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    """[..., n, h*d] -> [..., h, n, d]: one attention problem per head."""
    *lead, n, width = x.shape
    return x.reshape(*lead, n, n_heads, width // n_heads).swapaxes(-2, -3)


def _merge_heads(x: Tensor) -> Tensor:
    """[..., h, n, d] -> [..., n, h*d], heads concatenated in head order."""
    *lead, h, n, d = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, n, h * d)


@dataclass
class KVCache:
    """One attention site's projected keys and values, [..., h, n, d_k] each.

    ``multi_head_attention`` fills an empty cache with the keys and values it
    projects. Later calls use a ``static`` cache (attention over a fixed
    memory, such as the encoder output) as it is, without reading ``memory``;
    any other cache gains the new keys and values after its own.
    """

    static: bool = False
    k: Tensor | None = None
    v: Tensor | None = None


def multi_head_attention(
    query: Tensor,
    memory: Tensor,
    params: AttentionParams,
    mask: np.ndarray | None = None,
    cache: KVCache | None = None,
    packing: Packing | None = None,
) -> tuple[Tensor, Tensor]:
    """Concatenate per-head scaled dot attention and project back to d_model.

    The queries come from ``query``, the keys and values from ``memory``.
    All heads run as one [..., h, n, d_k] attention. Head outputs are
    concatenated in head order before the w_o projection. Returns (output,
    probs), probs shaped [..., h, n_queries, n_keys]. With a ``cache`` the
    queries attend over the cached keys and values (see KVCache), so
    ``mask`` covers those too.

    ``memory`` is always on the grid: one sentence [n, d] or a padded batch
    [B, n, d]. Only ``query`` may be packed: a ``packing`` marks it as the
    real rows [N, d] of a padded batch, whose projected queries are spread
    onto the grid, zero at pads, and whose output comes back as packed rows.
    """
    h = params.n_heads
    q = query.matmul(params.w_q)
    q = _split_heads(q if packing is None else packing.pad(q), h)
    if cache is not None and cache.static and cache.k is not None:
        k, v = cache.k, cache.v
    else:
        k = _split_heads(memory.matmul(params.w_k), h)
        v = _split_heads(memory.matmul(params.w_v), h)
        if cache is not None:
            if cache.k is not None:
                k = concat([cache.k, k], axis=-2)
                v = concat([cache.v, v], axis=-2)
            cache.k, cache.v = k, v
    if mask is not None and np.ndim(mask) > 2:
        mask = np.expand_dims(mask, -3)  # one mask for every head
    out, probs = scaled_dot_attention(q, k, v, mask)
    out = _merge_heads(out)
    return (out if packing is None else packing.pack(out)).matmul(params.w_o), probs
