"""Masks, scaled dot attention, and the multi-head wrapper."""
import numpy as np
import pytest

from layerfuse.attention import (
    AttentionParams,
    MaskError,
    Packing,
    make_causal_mask,
    multi_head_attention,
    scaled_dot_attention,
)
from layerfuse.tensor import ShapeError, Tensor, concat
from oracles import naive_attention


def rng(seed=0):
    return np.random.default_rng(seed)


# -- causal mask -----------------------------------------------------------------


def test_causal_mask_single_position():
    assert np.array_equal(make_causal_mask(1), [[True]])


def test_causal_mask_membership():
    m = make_causal_mask(3)
    assert m.dtype == bool
    assert np.array_equal(m[2], [True, True, True])
    assert np.array_equal(m[0], [True, False, False])
    assert np.array_equal(m[1], [True, True, False])


def test_causal_mask_composes_with_padding_by_and():
    causal = make_causal_mask(4)
    pad = Packing.of([2, 4], (2, 4)).key_mask
    combined = causal & pad
    assert combined.shape == (2, 4, 4)
    for i in range(4):
        for j in range(4):
            assert combined[0, i, j] == (j <= i and j < 2)
            assert combined[1, i, j] == (j <= i)


def test_causal_mask_rejects_empty():
    with pytest.raises(ValueError):
        make_causal_mask(0)


# -- padding mask: Packing.key_mask ---------------------------------------------


def test_padding_mask_prefix():
    packing = Packing.of([2, 3], (2, 4))
    assert np.array_equal(packing.real, [[True, True, False, False],
                                         [True, True, True, False]])
    m = packing.key_mask
    assert m.shape == (2, 1, 4)
    assert np.array_equal(m[:, 0], packing.real)
    assert np.array_equal(packing.index, [0, 1, 4, 5, 6])


def test_padding_mask_full_length():
    """No padded row, no Packing and so no padding mask."""
    assert Packing.of(None, (2, 4)) is None
    assert Packing.of([4, 4], (2, 4)) is None
    assert Packing.of([4], (4,)) is None


def test_padding_mask_mixed_lengths_match_per_example_oracle():
    lengths = [1, 3, 4, 2]
    m = Packing.of(lengths, (4, 4)).key_mask
    for b, n in enumerate(lengths):
        for j in range(4):
            assert m[b, 0, j] == (j < n)


def test_padding_mask_rejects_bad_lengths():
    # A length of 0, a length above the width, an extra row and a missing one.
    for lengths in ([0, 4], [2, 5], [2, 4, 4], [2]):
        with pytest.raises(ShapeError, match="do not fit padded ids"):
            Packing.of(lengths, (2, 4))


# -- scaled dot attention -----------------------------------------------------------


def test_attention_single_key_copies_value():
    q = Tensor(rng(1).standard_normal((3, 4)))
    k = Tensor(rng(2).standard_normal((1, 4)))
    v = Tensor(rng(3).standard_normal((1, 5)))
    out, probs = scaled_dot_attention(q, k, v)
    assert np.array_equal(probs.data, np.ones((3, 1)))
    for i in range(3):
        assert np.array_equal(out.data[i], v.data[0])


def test_attention_mask_selects_single_key():
    q = Tensor(rng(4).standard_normal((2, 4)))
    k = Tensor(rng(5).standard_normal((5, 4)))
    v = Tensor(rng(6).standard_normal((5, 3)))
    j = 3
    mask = np.zeros((2, 5), dtype=bool)
    mask[:, j] = True
    out, probs = scaled_dot_attention(q, k, v, mask)
    assert np.allclose(out.data, np.broadcast_to(v.data[j], (2, 3)), atol=1e-12)
    assert probs.data[0, j] == pytest.approx(1.0, abs=1e-12)


def test_attention_matches_naive_oracle():
    q = rng(7).standard_normal((2, 4))
    k = rng(8).standard_normal((3, 4))
    v = rng(9).standard_normal((3, 6))
    out, probs = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
    want_out, want_probs = naive_attention(q, k, v)
    assert np.max(np.abs(out.data - want_out)) < 1e-12
    assert np.max(np.abs(probs.data - want_probs)) < 1e-12


def test_attention_masked_entries_exactly_zero():
    q = rng(10).standard_normal((4, 4))
    k = rng(11).standard_normal((4, 4))
    v = rng(12).standard_normal((4, 4))
    mask = make_causal_mask(4)
    _, probs = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), mask)
    assert (probs.data[~mask] == 0.0).all()
    assert np.abs(probs.data.sum(axis=1) - 1.0).max() < 1e-9


def test_attention_all_masked_row_raises():
    q = Tensor(np.ones((2, 3)))
    k = Tensor(np.ones((2, 3)))
    v = Tensor(np.ones((2, 3)))
    mask = np.array([[True, True], [False, False]])
    with pytest.raises(MaskError):
        scaled_dot_attention(q, k, v, mask)


def test_attention_shape_checks():
    with pytest.raises(ShapeError):
        scaled_dot_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))),
                             Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        scaled_dot_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))),
                             Tensor(np.ones((3, 3))))


# -- multi-head wrapper ------------------------------------------------------------


def _identity_params(d):
    eye = lambda: Tensor(np.eye(d))
    return AttentionParams(w_q=eye(), w_k=eye(), w_v=eye(), w_o=eye(), n_heads=1)


def test_single_identity_head_equals_scaled_dot():
    d = 4
    x = Tensor(rng(13).standard_normal((3, d)))
    got, _ = multi_head_attention(x, x, _identity_params(d))
    want, _ = scaled_dot_attention(x, x, x)
    assert np.array_equal(got.data, want.data)


def test_zero_values_give_zero_output():
    params = AttentionParams.create(rng(14), d_model=6, n_heads=2)
    params.w_v = Tensor(np.zeros((6, 6)))
    q = Tensor(rng(15).standard_normal((3, 6)))
    out, _ = multi_head_attention(q, q, params)
    assert np.array_equal(out.data, np.zeros((3, 6)))


def test_two_heads_match_concat_oracle():
    d, h = 6, 2
    params = AttentionParams.create(rng(16), d_model=d, n_heads=h)
    q = Tensor(rng(17).standard_normal((4, d)))
    memory = Tensor(rng(18).standard_normal((5, d)))
    got, _ = multi_head_attention(q, memory, params)

    d_k = d // h
    heads = []
    for i in range(h):
        lo, hi = i * d_k, (i + 1) * d_k
        out, _ = scaled_dot_attention(
            q.matmul(params.w_q.cols(lo, hi)), memory.matmul(params.w_k.cols(lo, hi)),
            memory.matmul(params.w_v.cols(lo, hi)))
        heads.append(out)
    want = concat(heads, axis=1).matmul(params.w_o)
    assert np.max(np.abs(got.data - want.data)) < 1e-12


def test_multi_head_respects_mask():
    d = 4
    params = AttentionParams.create(rng(20), d_model=d, n_heads=2)
    x = Tensor(rng(21).standard_normal((3, d)))
    causal = make_causal_mask(3)
    _, probs = multi_head_attention(x, x, params, mask=causal)
    assert probs.shape == (2, 3, 3)
    assert (probs.data[:, ~causal] == 0.0).all()


def test_params_create_shapes_and_names():
    params = AttentionParams.create(rng(22), d_model=8, n_heads=4)
    assert params.n_heads == 4 and params.d_k == 2
    named = params.named("enc.0.self")
    assert list(named) == [f"enc.0.self.{w}" for w in ("w_q", "w_k", "w_v", "w_o")]
    for t in named.values():
        assert t.shape == (8, 8) and t.requires_grad
    # One Xavier draw per head, all q heads, then k, then v, then w_o: head i
    # is column block i.
    r, limit = rng(22), np.sqrt(6.0 / (8 + 2))
    for w in (params.w_q, params.w_k, params.w_v):
        for i in range(4):
            want = r.uniform(-limit, limit, size=(8, 2))
            assert np.array_equal(w.data[:, 2 * i:2 * i + 2], want)
    assert np.array_equal(params.w_o.data,
                          r.uniform(-np.sqrt(6.0 / 16), np.sqrt(6.0 / 16), size=(8, 8)))


def test_params_create_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        AttentionParams.create(rng(23), d_model=6, n_heads=4)
