"""Dense float64 tensors with reverse-mode automatic differentiation.

The array payload is numpy; differentiation is a hand-rolled tape. Every
operation that participates in a gradient records its parents and a backward
closure on the output tensor. ``backward`` walks a topologically ordered
trace exactly once, so gradient accumulation order is deterministic and two
identical forwards produce bit-identical gradients.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "GradError",
    "no_grad",
    "backward",
    "concat",
    "cross_entropy",
    "embedding_lookup",
    "gather_rows",
    "grad_check",
    "layer_norm",
    "merge_heads",
    "scatter_rows",
    "softmax",
    "split_heads",
    "stack",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GradError(RuntimeError):
    """Autodiff misuse: backward on a non-scalar or on a value off the tape."""


_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (values only)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def reshape(self, *shape: int) -> "Tensor":
        data = self.data.reshape(shape)
        def bw(g, a=self):
            _accum(a, g.reshape(a.data.shape))
        return _result(data, (self,), bw)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        # ndarray methods here and in softmax: the same ufunc work as the
        # np.* functions without their Python dispatch.
        data = self.data.swapaxes(axis1, axis2)
        def bw(g, a=self, axis1=axis1, axis2=axis2):
            _accum(a, g.swapaxes(axis1, axis2))
        return _result(data, (self,), bw)

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _astensor(other)
        data = self.data + other.data
        def bw(g, a=self, b=other):
            if a.requires_grad:
                _accum(a, _unbroadcast(g, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(g, b.data.shape))
        return _result(data, (self, other), bw)

    __radd__ = __add__

    def __neg__(self):
        def bw(g, a=self):
            _accum(a, -g)
        return _result(-self.data, (self,), bw)

    def __sub__(self, other):
        return self + (-_astensor(other))

    def __rsub__(self, other):
        return _astensor(other) + (-self)

    def __mul__(self, other):
        other = _astensor(other)
        data = self.data * other.data
        def bw(g, a=self, b=other):
            if a.requires_grad:
                _accum(a, _unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(g * a.data, b.data.shape))
        return _result(data, (self, other), bw)

    __rmul__ = __mul__

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product over the last two axes; leading axes broadcast.

        A stack of matrices times a shared 2D matrix runs as one product over
        all the stack's rows, forward and backward.
        """
        lhs, rhs = self.data, other.data
        if lhs.ndim < 2 or rhs.ndim < 2 or lhs.shape[-1] != rhs.shape[-2]:
            raise ShapeError(f"matmul operands do not fit: {self.shape} @ {other.shape}")
        if lhs.ndim > 2 and rhs.ndim == 2 and lhs.size > lhs.shape[-2] * lhs.shape[-1]:
            data = (_rows(lhs) @ rhs).reshape(lhs.shape[:-1] + rhs.shape[-1:])
        else:
            try:
                data = np.matmul(lhs, rhs)
            except ValueError as exc:
                raise ShapeError(
                    f"matmul batch dims disagree: {self.shape} @ {other.shape}"
                ) from exc
        def bw(g, a=self, b=other):
            if b.data.ndim == 2:
                if a.requires_grad:
                    _accum(a, (_rows(g) @ b.data.T).reshape(a.data.shape))
                if b.requires_grad:
                    _accum(b, _rows(a.data).T @ _rows(g))
                return
            if a.requires_grad:
                _accum(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)),
                                       a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g),
                                       b.data.shape))
        return _result(data, (self, other), bw)

    __matmul__ = matmul

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        def bw(g, a=self, axis=axis, keepdims=keepdims):
            if axis is None:
                ga = np.broadcast_to(g, a.data.shape)
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                ga = np.broadcast_to(gg, a.data.shape)
            _accum(a, ga)
        return _result(data, (self,), bw)

    def cols(self, start: int, stop: int) -> "Tensor":
        """Column slice of a 2D tensor, kept on the tape."""
        if self.data.ndim != 2:
            raise ShapeError(f"cols expects a 2D tensor, got shape {self.shape}")
        data = self.data[:, start:stop]
        def bw(g, a=self, start=start, stop=stop):
            ga = np.zeros_like(a.data)
            ga[:, start:stop] = g
            _accum(a, ga)
        return _result(data, (self,), bw)

    def relu(self) -> "Tensor":
        # Subgradient at 0 is 0 (strict > in the mask).
        data = np.maximum(self.data, 0.0)
        def bw(g, a=self, mask=self.data > 0):
            _accum(a, g * mask)
        return _result(data, (self,), bw)


# -- graph plumbing ---------------------------------------------------------


def _astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _rows(x: np.ndarray) -> np.ndarray:
    """View a stack of matrices as one matrix of all their rows."""
    return x.reshape(-1, x.shape[-1])


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape of the broadcast operand."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


class Tape:
    """Topologically ordered record of the ops reachable from a root tensor.

    ``nodes`` lists every reachable tensor with parents before children; the
    backward pass visits each exactly once, in reverse.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: list):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)

    def backward_from(self, root: Tensor) -> None:
        """Run each node's backward closure once, children before parents.

        The pass consumes the tape and the graph: once an interior node has
        passed its gradient on, its gradient, closure and parent links are
        dropped, so gradients and saved activations are freed during the
        pass instead of all living until it ends. Leaves keep ``.grad``.
        """
        root.grad = np.ones_like(root.data)
        nodes = self.nodes
        while nodes:
            node = nodes.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = None
            node._parents = ()


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf reachable from ``loss``.

    The graph below ``loss`` is spent afterwards; run a new forward before
    the next backward.
    """
    if loss.data.size != 1:
        raise GradError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise GradError("backward on a tensor that does not require grad")
    Tape.trace(loss).backward_from(loss)


# -- free-function ops ------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Row-stochastic softmax with max subtraction for stability."""
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=axis, keepdims=True)
    p = e / s
    def bw(g, a=x, p=p, axis=axis):
        dot = (g * p).sum(axis=axis, keepdims=True)
        _accum(a, p * (g - dot))
    return _result(p, (x,), bw)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    ts = tuple(tensors)
    if not ts:
        raise ShapeError("concat of an empty sequence")
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = tuple(t.data.shape[axis] for t in ts)
    def bw(g, ts=ts, sizes=sizes, axis=axis):
        off = 0
        index: list = [slice(None)] * g.ndim
        for t, size in zip(ts, sizes):
            index[axis] = slice(off, off + size)
            _accum(t, g[tuple(index)])
            off += size
    return _result(data, ts, bw)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join same-shape tensors along a new axis."""
    ts = tuple(tensors)
    if not ts:
        raise ShapeError("stack of an empty sequence")
    data = np.stack([t.data for t in ts], axis=axis)
    def bw(g, ts=ts, axis=axis):
        for i, t in enumerate(ts):
            _accum(t, np.take(g, i, axis=axis))
    return _result(data, ts, bw)


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Rows ``index`` of ``x`` viewed as one matrix of rows, [len(index), w].

    The indices must be distinct, so the backward is a plain indexed store.
    """
    data = _rows(x.data)[index]
    def bw(g, a=x, index=index):
        ga = np.zeros((a.data.size // a.data.shape[-1], a.data.shape[-1]))
        ga[index] = g
        _accum(a, ga.reshape(a.data.shape))
    return _result(data, (x,), bw)


def scatter_rows(x: Tensor, index: np.ndarray, shape: tuple) -> Tensor:
    """A zero tensor of ``shape`` whose rows ``index`` hold the rows of the
    2D ``x``, the rows counted as in ``gather_rows``; its inverse."""
    data = np.zeros((math.prod(shape[:-1]), shape[-1]))
    data[index] = x.data
    def bw(g, a=x, index=index):
        _accum(a, _rows(g)[index])
    return _result(data.reshape(shape), (x,), bw)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """[..., n, h*d] -> [..., h, n, d]: one attention problem per head."""
    *lead, n, width = x.data.shape
    data = x.data.reshape(*lead, n, n_heads, width // n_heads).swapaxes(-2, -3)
    def bw(g, a=x):
        _accum(a, g.swapaxes(-2, -3).reshape(a.data.shape))
    return _result(data, (x,), bw)


def merge_heads(x: Tensor) -> Tensor:
    """[..., h, n, d] -> [..., n, h*d], heads concatenated in head order;
    the inverse of ``split_heads``."""
    *lead, h, n, d = x.data.shape
    data = x.data.swapaxes(-2, -3).reshape(*lead, n, h * d)
    def bw(g, a=x):
        _accum(a, g.reshape(*lead, n, h, d).swapaxes(-2, -3))
    return _result(data, (x,), bw)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` for an id array of any rank >= 1.

    The output has shape ids.shape + (width,); gradients scatter-add back
    into the rows.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim < 1:
        raise ShapeError(f"embedding ids must have rank >= 1, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding id out of range [0, {table.data.shape[0]}): "
            f"min={ids.min()} max={ids.max()}"
        )
    data = table.data[ids]
    def bw(g, table=table, ids=ids):
        ga = np.zeros_like(table.data)
        np.add.at(ga, ids.reshape(-1), _rows(g))
        _accum(table, ga)
    return _result(data, (table,), bw)


def _mean_last(x: np.ndarray) -> np.ndarray:
    # Bit-identical to np.mean(x, axis=-1, keepdims=True), minus its dispatch.
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    xc = x.data - _mean_last(x.data)
    inv = 1.0 / np.sqrt(_mean_last(xc * xc) + eps)
    xhat = xc * inv
    data = gamma.data * xhat + beta.data
    def bw(g, x=x, gamma=gamma, beta=beta, xhat=xhat, inv=inv):
        if gamma.requires_grad:
            _accum(gamma, _rows(g * xhat).sum(axis=0))
        if beta.requires_grad:
            _accum(beta, _rows(g).sum(axis=0))
        gx = g * gamma.data
        _accum(x, inv * (gx - _mean_last(gx) - xhat * _mean_last(gx * xhat)))
    return _result(data, (x, gamma, beta), bw)


def cross_entropy(
    logits: Tensor,
    targets,
    label_smoothing: float = 0.0,
    reduction: str = "mean",
) -> Tensor:
    """Cross entropy of integer targets under softmax(logits).

    With label smoothing eps the target distribution is
    (1-eps) * onehot + eps/V, spread over the whole vocabulary; eps=0 reduces
    to the plain formula bitwise. ``reduction`` is "mean" (over tokens) or
    "sum".
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2D logits, got {logits.shape}")
    if targets.ndim != 1 or targets.shape[0] != logits.data.shape[0]:
        raise ShapeError(
            f"targets shape {targets.shape} does not match logits {logits.shape}"
        )
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    if not 0.0 <= label_smoothing < 1.0:
        raise ValueError(f"label_smoothing must be in [0, 1), got {label_smoothing}")
    n, vocab = logits.data.shape
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise IndexError(
            f"target id out of range [0, {vocab}): min={targets.min()} "
            f"max={targets.max()}"
        )
    rows = np.arange(n)
    m = np.max(logits.data, axis=1, keepdims=True)
    e = np.exp(logits.data - m)
    z = np.sum(e, axis=1)
    p = e / z[:, None]
    lse = m[:, 0] + np.log(z)
    picked = logits.data[rows, targets]
    eps = label_smoothing
    per_token = lse - (1.0 - eps) * picked - (eps / vocab) * logits.data.sum(axis=1)
    value = per_token.mean() if reduction == "mean" else per_token.sum()
    def bw(g, logits=logits, p=p, targets=targets, eps=eps, n=n, vocab=vocab,
           reduction=reduction, rows=rows):
        q = np.full((n, vocab), eps / vocab)
        q[rows, targets] += 1.0 - eps
        scale = g / n if reduction == "mean" else g
        _accum(logits, (p - q) * scale)
    return _result(np.asarray(value), (logits,), bw)


# -- finite-difference oracle ----------------------------------------------


def grad_check(
    f,
    *,
    wrt: Iterable[Tensor],
    eps: float = 1e-5,
    max_coords: int | None = None,
    seed: int = 0,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` is called as f() with the differentiation targets listed in
    ``wrt``. The relative error per coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8). ``max_coords``
    caps the checked coordinates per tensor (seeded sample); by default
    every coordinate is checked. ``f`` must be deterministic.
    """
    tensors = list(wrt)
    for t in tensors:
        t.grad = None
    loss = f()
    if loss.data.size != 1:
        raise GradError("grad_check needs a scalar-valued f")
    backward(loss)
    analytic = [
        np.zeros_like(t.data) if t.grad is None else np.asarray(t.grad, dtype=np.float64)
        for t in tensors
    ]
    rng = np.random.default_rng(seed)
    worst = 0.0
    with no_grad():
        for t, ana in zip(tensors, analytic):
            size = t.data.size
            if max_coords is None or size <= max_coords:
                flat_idx = range(size)
            else:
                chosen = rng.choice(size, size=max_coords, replace=False)
                chosen.sort()
                flat_idx = chosen.tolist()
            ana_flat = ana.reshape(-1)
            for i in flat_idx:
                index = np.unravel_index(i, t.data.shape)
                orig = t.data[index]
                t.data[index] = orig + eps
                plus = float(f().data.reshape(()))
                t.data[index] = orig - eps
                minus = float(f().data.reshape(()))
                t.data[index] = orig
                numeric = (plus - minus) / (2.0 * eps)
                rel = abs(ana_flat[i] - numeric) / max(
                    abs(ana_flat[i]), abs(numeric), 1e-8
                )
                if rel > worst:
                    worst = rel
    return worst
