"""Scaled dot-product attention and multi-head attention.

Operands carry optional leading batch axes: one sentence is [n, d], a
batch's grid [B, n, d]. Masks are boolean arrays shaped [n_queries, n_keys], or
[B, n_queries or 1, n_keys] for a batch; True marks an attendable key.
Masking is additive: blocked scores get -1e9 before the softmax, which
underflows to an exact probability of 0.0 in float64 after max subtraction.

Keys and values come from a memory on the grid. Queries alone may be the
packed real rows [N, d] of a grid (see Packing): they meet the grid only in
the score and context products.

A KVCache keeps one attention site's projected keys and values between
calls, for decoding one position at a time.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import (ShapeError, Tensor, concat, gather_rows, merge_heads, scatter_rows,
                     softmax, split_heads)

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

    Pad cells hold id 0; ``lengths`` is what Packing.of takes. Raises
    ShapeError when there are no sequences.
    """
    if len(seqs) == 0:
        raise ShapeError("no sequences to pad")
    lengths = np.array([len(q) for q in seqs], dtype=np.int64)
    ids = np.zeros((len(seqs), int(lengths.max())), dtype=np.int64)
    for row, q in zip(ids, seqs):
        row[:len(q)] = q
    return ids, lengths


class Packing:
    """Where the real rows of a right-padded grid of ids sit.

    The grid ``shape`` is a batch [B, width] or a lone sentence [width], a
    batch of one with no pads. Its activations are its N = sum(lengths) real
    rows in sentence order, [N, d]; ``real`` is the [B, width] array of real
    cells and ``index`` the rows' flat positions b * width + t in the grid.
    With no padded row, ``key_mask`` is None and ``pad`` and ``pack`` only
    reshape; a lone sentence's rows [T, d] are its grid.
    """

    def __init__(self, lengths: np.ndarray, shape: tuple):
        self.lengths = lengths
        self.shape = tuple(shape)
        self.real = np.arange(self.shape[-1]) < lengths[:, None]
        self.index = np.flatnonzero(self.real)
        # [B, 1, width] mask of the real keys, the same for every query.
        self.key_mask = None if self.index.size == self.real.size else self.real[:, None, :]

    @classmethod
    def of(cls, lengths, shape: tuple, name: str = "padded ids") -> Packing:
        """The Packing of a right-padded grid [B, T] whose rows have the
        integer real ``lengths`` (default: all T), or of a lone sentence [T],
        whose only lengths are [T]. Lengths that are not integers or do not
        fit raise ShapeError; ``name`` names the grid in its message."""
        rows, width = math.prod(shape[:-1]), shape[-1]
        shortest = 1 if len(shape) > 1 else width
        if lengths is None and width >= shortest:  # the default fits
            return _unpadded(tuple(shape))
        given = np.asarray(lengths, dtype=object)  # asarray reads [True, 4] as [1, 4]
        try:
            lengths = np.asarray(lengths)
        except ValueError:  # ragged rows: not integers, refused below
            lengths = given
        if (lengths.dtype.kind not in "iu" or lengths.shape != (rows,)
                or any(isinstance(n, (bool, np.bool_)) for n in given.flat)
                or ((lengths < shortest) | (lengths > width)).any()):
            raise ShapeError(
                f"lengths {given.tolist()} do not fit {name} {tuple(shape)}"
            )
        return cls(lengths, shape)

    @property
    def positions(self) -> np.ndarray:
        """Each packed row's position in its sentence."""
        return self.index % self.shape[-1]

    def take(self, ids: np.ndarray) -> np.ndarray:
        """The packed real entries of the ids grid."""
        return ids.reshape(-1)[self.index]

    def pad(self, x: Tensor) -> Tensor:
        """Packed rows [N, w] to the grid [..., width, w], zero at pads."""
        if self.key_mask is not None:
            return scatter_rows(x, self.index, (*self.shape, x.shape[-1]))
        return x if len(self.shape) == 1 else x.reshape(*self.shape, x.shape[-1])

    def pack(self, x: Tensor) -> Tensor:
        """The real rows [N, w] of a grid [..., width, w]."""
        if self.key_mask is not None:
            return gather_rows(x, self.index)
        return x if len(self.shape) == 1 else x.reshape(-1, x.shape[-1])


@functools.cache
def _unpadded(shape: tuple) -> Packing:
    """The one Packing of an unpadded grid ``shape``, shared by every caller,
    so its arrays are read-only."""
    packing = Packing(np.full(math.prod(shape[:-1]), shape[-1]), shape)
    for array in (packing.lengths, packing.real, packing.index):
        array.flags.writeable = False
    return packing


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

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{name}": getattr(self, name)
                for name in ("w_q", "w_k", "w_v", "w_o")}

    @classmethod
    def create(cls, rng: np.random.Generator, d_model: int, n_heads: int) -> "AttentionParams":
        """Xavier-uniform init of each [d, d_k] head, one draw per projection: q, k, v, w_o."""
        if d_model % n_heads != 0:
            raise ShapeError(f"d_model {d_model} not divisible by n_heads {n_heads}")
        d_k = d_model // n_heads
        limit = math.sqrt(6.0 / (d_model + d_k))

        def heads() -> np.ndarray:
            w = rng.uniform(-limit, limit, size=(n_heads, d_model, d_k))
            return np.concatenate(w, axis=1)  # [d, h*d_k], head i as column block i

        w_q, w_k, w_v = heads(), heads(), heads()
        w_o = _xavier(rng, d_model, d_model)
        return cls(*(Tensor(w, requires_grad=True) for w in (w_q, w_k, w_v, w_o)), n_heads)


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


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

    ``memory`` is always on the grid: one sentence [n, d] or a batch
    [B, n, d]. Only ``query`` may be packed: a ``packing`` marks it as the
    real rows [N, d] of that grid, whose projected queries are spread onto
    the grid, zero at any pads, and whose output comes back as packed rows.
    Without one, ``query`` is on a grid too.
    """
    h = params.n_heads
    q = query.matmul(params.w_q)
    q = split_heads(q if packing is None else packing.pad(q), h)
    if cache is not None and cache.static and cache.k is not None:
        k, v = cache.k, cache.v
    else:
        k = split_heads(memory.matmul(params.w_k), h)
        v = split_heads(memory.matmul(params.w_v), h)
        if cache is not None:
            if cache.k is not None:
                k = concat([cache.k, k], axis=-2)
                v = concat([cache.v, v], axis=-2)
            cache.k, cache.v = k, v
    if mask is not None and np.ndim(mask) > 2:
        mask = np.expand_dims(mask, -3)  # one mask for every head
    out, probs = scaled_dot_attention(q, k, v, mask)
    out = merge_heads(out)
    return (out if packing is None else packing.pack(out)).matmul(params.w_o), probs
