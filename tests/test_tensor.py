"""Autodiff core: forward values against naive oracles, gradients against FD."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfuse.tensor import (
    GradError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    concat,
    cross_entropy,
    embedding_lookup,
    grad_check,
    layer_norm,
    merge_heads,
    no_grad,
    softmax,
    split_heads,
)
from oracles import (
    naive_cross_entropy,
    naive_layer_norm,
    naive_matmul,
    naive_softmax_rows,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# -- matmul --------------------------------------------------------------------


def test_matmul_identity():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = Tensor(np.eye(2)).matmul(a)
    assert np.array_equal(out.data, a.data)


def test_matmul_basis_selection():
    sel = Tensor(np.array([[1.0, 0.0]]))
    col = Tensor(np.array([[2.0], [5.0]]))
    assert np.array_equal(sel.matmul(col).data, [[2.0]])


def test_matmul_matches_triple_loop():
    a = rng(1).standard_normal((3, 4))
    b = rng(2).standard_normal((4, 2))
    out = Tensor(a).matmul(Tensor(b))
    assert np.max(np.abs(out.data - naive_matmul(a, b))) <= 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))).matmul(Tensor(np.ones((2, 3))))


def test_matmul_gradient():
    a = Tensor(rng(3).standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng(4).standard_normal((4, 2)), requires_grad=True)
    err = grad_check(lambda: a.matmul(b).sum(), wrt=[a, b])
    assert err < 1e-6


# -- softmax -------------------------------------------------------------------


def test_softmax_symmetry():
    out = softmax(Tensor(np.array([[0.0, 0.0]])))
    assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-15)


@pytest.mark.parametrize("c", [-50.0, 0.0, 3.25, 700.0])
def test_softmax_shift_invariance(c):
    out = softmax(Tensor(np.array([[c, c + math.log(3.0)]])))
    assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_matches_naive():
    x = rng(5).standard_normal((1, 8))
    out = softmax(Tensor(x))
    assert np.max(np.abs(out.data - naive_softmax_rows(x))) < 1e-12


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=9))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_are_distributions(vals):
    out = softmax(Tensor(np.array([vals])))
    assert abs(out.data.sum() - 1.0) < 1e-12
    assert (out.data >= 0).all()


def test_softmax_gradient():
    x = Tensor(rng(6).standard_normal((3, 5)), requires_grad=True)
    w = Tensor(rng(7).standard_normal((3, 5)))
    err = grad_check(lambda: (softmax(x) * w).sum(), wrt=[x])
    assert err < 1e-5


# -- relu ----------------------------------------------------------------------


def test_relu_values():
    out = Tensor(np.array([-1.0, 0.0, 2.0])).relu()
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_all_negative():
    out = Tensor(np.array([-3.0, -0.5, -1e-9])).relu()
    assert np.array_equal(out.data, np.zeros(3))


def test_relu_gradient_indicator():
    x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
    backward(x.relu().sum())
    assert np.array_equal(x.grad, [0.0, 1.0])


# -- layer norm ------------------------------------------------------------------


def test_layer_norm_constant_rows():
    g = Tensor(np.ones(4))
    b = Tensor(np.zeros(4))
    out = layer_norm(Tensor(np.full((2, 4), 7.0)), g, b)
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_already_normalized():
    g = Tensor(np.ones(2))
    b = Tensor(np.zeros(2))
    out = layer_norm(Tensor(np.array([[1.0, -1.0]])), g, b, eps=1e-12)
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_matches_two_pass():
    x = rng(8).standard_normal((3, 6))
    g = rng(9).standard_normal(6)
    b = rng(10).standard_normal(6)
    out = layer_norm(Tensor(x), Tensor(g), Tensor(b))
    assert np.max(np.abs(out.data - naive_layer_norm(x, g, b))) < 1e-10


def test_layer_norm_gradient():
    x = Tensor(rng(11).standard_normal((2, 5)), requires_grad=True)
    g = Tensor(rng(12).standard_normal(5), requires_grad=True)
    b = Tensor(rng(13).standard_normal(5), requires_grad=True)
    w = Tensor(rng(14).standard_normal((2, 5)))
    err = grad_check(lambda: (layer_norm(x, g, b) * w).sum(), wrt=[x, g, b])
    assert err < 1e-4


# -- cross entropy ---------------------------------------------------------------


def test_cross_entropy_uniform():
    logits = Tensor(np.zeros((4, 7)))
    loss = cross_entropy(logits, np.array([0, 3, 6, 2]))
    assert abs(loss.item() - math.log(7.0)) < 1e-12


def test_cross_entropy_vanishes_with_margin():
    targets = np.array([1])
    losses = []
    for margin in (2.0, 10.0, 30.0):
        logits = np.zeros((1, 5))
        logits[0, 1] = margin
        losses.append(cross_entropy(Tensor(logits), targets).item())
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-10


def test_cross_entropy_matches_direct_formula():
    logits = rng(15).standard_normal((3, 5))
    targets = np.array([4, 0, 2])
    got = cross_entropy(Tensor(logits), targets).item()
    assert abs(got - naive_cross_entropy(logits, targets)) < 1e-10


def test_cross_entropy_smoothed_matches_direct_formula():
    logits = rng(16).standard_normal((4, 6))
    targets = np.array([1, 5, 0, 3])
    got = cross_entropy(Tensor(logits), targets, label_smoothing=0.1).item()
    want = naive_cross_entropy(logits, targets, smoothing=0.1)
    assert abs(got - want) < 1e-10


def test_cross_entropy_sum_reduction():
    logits = rng(17).standard_normal((3, 4))
    targets = np.array([0, 1, 2])
    mean = cross_entropy(Tensor(logits), targets).item()
    total = cross_entropy(Tensor(logits), targets, reduction="sum").item()
    assert abs(total - 3 * mean) < 1e-12


def test_cross_entropy_rejects_bad_targets():
    with pytest.raises(IndexError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))


def test_cross_entropy_gradient():
    x = Tensor(rng(18).standard_normal((4, 6)), requires_grad=True)
    targets = np.array([0, 5, 2, 2])
    err = grad_check(lambda: cross_entropy(x, targets, label_smoothing=0.1),
                     wrt=[x])
    assert err < 1e-6


# -- backward --------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    backward(x.sum())
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_quadratic():
    x = Tensor(np.array([2.0]), requires_grad=True)
    backward((x * x).sum())
    assert np.array_equal(x.grad, [4.0])


def test_backward_two_layer_model_matches_fd():
    w1 = Tensor(rng(19).standard_normal((4, 8)) * 0.5, requires_grad=True)
    b1 = Tensor(rng(20).standard_normal(8) * 0.1, requires_grad=True)
    w2 = Tensor(rng(21).standard_normal((8, 3)) * 0.5, requires_grad=True)
    x = Tensor(rng(22).standard_normal((5, 4)))
    targets = np.array([0, 2, 1, 1, 0])

    def f():
        hidden = (x.matmul(w1) + b1).relu()
        return cross_entropy(hidden.matmul(w2), targets)

    assert grad_check(f, wrt=[w1, b1, w2]) < 1e-4


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(GradError):
        backward(x + x)


def test_backward_requires_grad_root():
    x = Tensor(np.ones(3))
    with pytest.raises(GradError):
        backward(x.sum())


def test_gradients_accumulate_across_reuse():
    x = Tensor(np.array([3.0]), requires_grad=True)
    backward((x * x + x).sum())
    assert np.array_equal(x.grad, [7.0])


def test_backward_is_deterministic():
    x = Tensor(rng(23).standard_normal((3, 3)), requires_grad=True)
    w = Tensor(rng(24).standard_normal((3, 3)), requires_grad=True)

    def run():
        x.grad = None
        w.grad = None
        backward((softmax(x.matmul(w)) * x).sum())
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


# -- grad_check handles the stated shapes ------------------------------------------


def test_grad_check_sum_is_tiny():
    x = Tensor(rng(25).standard_normal((3, 4)), requires_grad=True)
    assert grad_check(lambda: x.sum(), wrt=[x]) < 1e-10


def test_grad_check_softmax_ce_composite():
    x = Tensor(rng(26).standard_normal((4, 5)), requires_grad=True)
    targets = np.array([1, 0, 4, 3])
    assert grad_check(lambda: cross_entropy(x, targets), wrt=[x]) < 1e-4


def test_grad_check_fused_encoder_layer():
    from layerfuse.model import ModelConfig, Seq2SeqModel

    cfg = ModelConfig(src_vocab=6, tgt_vocab=6, d_model=8, n_heads=2, d_ffn=8,
                      n_enc_layers=1, n_dec_layers=1, max_len=5, dropout=0.0,
                      variant="fuse_enc", seed=3)
    model = Seq2SeqModel(cfg)
    src = np.array([3, 4, 5])
    proj = Tensor(rng(40).standard_normal((8, 6)))
    targets = np.array([1, 4, 2])

    def f():
        out, _ = model.encode(src)
        return cross_entropy(out.matmul(proj), targets)

    # The source side: embeddings and every enc.* parameter, fuse-attention's included.
    enc = {name: p for name, p in model.parameters().items()
           if name.startswith(("src_", "enc."))}
    assert "enc.0.fuse.w_q" in enc
    err = grad_check(f, wrt=list(enc.values()), max_coords=8, seed=7)
    assert err < 1e-4


# -- broadcasting, slicing, lookup --------------------------------------------------


def test_add_broadcast_gradient():
    x = Tensor(rng(27).standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng(28).standard_normal(4), requires_grad=True)
    backward((x + b).sum())
    assert np.array_equal(b.grad, np.full(4, 3.0))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_mul_broadcast_gradient():
    x = Tensor(rng(29).standard_normal((2, 3)), requires_grad=True)
    s = Tensor(np.array([[2.0], [3.0]]), requires_grad=True)
    err = grad_check(lambda: (x * s).sum(), wrt=[x, s])
    assert err < 1e-6


@pytest.mark.parametrize("op", ["add", "mul"])
def test_backward_skips_a_constant_operand(op, monkeypatch):
    import layerfuse.tensor as tensor

    calls = []
    unbroadcast = tensor._unbroadcast
    monkeypatch.setattr(tensor, "_unbroadcast",
                        lambda g, shape: calls.append(shape) or unbroadcast(g, shape))
    a = Tensor(rng(30).standard_normal((2, 3)), requires_grad=True)
    c = Tensor(rng(31).standard_normal((2, 3)))
    backward((a + c if op == "add" else a * c).sum())
    assert calls == [(2, 3)]
    assert c.grad is None
    assert np.array_equal(a.grad, np.ones((2, 3)) if op == "add" else c.data)


def test_sum_axis_keepdims():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert x.sum(axis=1, keepdims=True).shape == (2, 1)
    assert np.array_equal(x.sum(axis=0).data, [3.0, 5.0, 7.0])


def test_cols_slice_and_gradient():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    sl = x.cols(1, 3)
    assert np.array_equal(sl.data, x.data[:, 1:3])
    backward(sl.sum())
    want = np.zeros((3, 4))
    want[:, 1:3] = 1.0
    assert np.array_equal(x.grad, want)


def test_concat_roundtrip_and_gradient():
    a = Tensor(rng(30).standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng(31).standard_normal((2, 2)), requires_grad=True)
    joined = concat([a, b], axis=1)
    assert np.array_equal(joined.data[:, :3], a.data)
    assert np.array_equal(joined.data[:, 3:], b.data)
    err = grad_check(lambda: (concat([a, b], axis=1)
                              * concat([a, b], axis=1)).sum(), wrt=[a, b])
    assert err < 1e-6


def test_split_and_merge_heads_are_one_op_each_and_inverse():
    x = Tensor(rng(40).standard_normal((2, 3, 6)), requires_grad=True)
    heads = split_heads(x, 2)
    assert np.array_equal(heads.data, x.data.reshape(2, 3, 2, 3).swapaxes(-2, -3))
    merged = merge_heads(heads)
    assert np.array_equal(merged.data, x.data)
    assert merged._parents == (heads,) and heads._parents == (x,)
    w = Tensor(rng(41).standard_normal((2, 2, 3, 3)))
    err = grad_check(lambda: (merge_heads(split_heads(x, 2) * w) * x).sum(), wrt=[x])
    assert err < 1e-6


def test_embedding_lookup_forward_and_scatter():
    table = Tensor(rng(32).standard_normal((5, 3)), requires_grad=True)
    ids = np.array([4, 0, 4])
    out = embedding_lookup(table, ids)
    assert np.array_equal(out.data, table.data[ids])
    backward(out.sum())
    assert np.array_equal(table.grad[4], np.full(3, 2.0))
    assert np.array_equal(table.grad[0], np.ones(3))
    assert np.array_equal(table.grad[1], np.zeros(3))


def test_embedding_lookup_range_check():
    table = Tensor(np.zeros((4, 2)))
    with pytest.raises(IndexError):
        embedding_lookup(table, np.array([0, 4]))
    with pytest.raises(IndexError):
        embedding_lookup(table, np.array([-1]))


# -- graph bookkeeping ---------------------------------------------------------------


def test_no_grad_disables_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = (x * x).sum()
    assert not out.requires_grad
    with pytest.raises(GradError):
        backward(out)


def test_tape_orders_parents_before_children():
    x = Tensor(np.ones(2), requires_grad=True)
    y = x * 2.0
    z = (y + x).sum()
    order = Tape.trace(z).nodes
    assert order.index(x) < order.index(y) < order.index(z)


def test_item_rejects_non_scalar():
    with pytest.raises(ShapeError):
        Tensor(np.ones(2)).item()
