"""Cross-layer fusion: history stacking, accumulation, fuse attention, probes."""
import numpy as np
import pytest

from layerfuse.attention import AttentionParams, Packing, multi_head_attention
from layerfuse.fusion import (
    VARIANT_NAMES,
    FusionError,
    accumulate_previous,
    fuse_attention,
    fuse_attention_core,
)
from layerfuse.model import ModelConfig, Seq2SeqModel
from layerfuse.tensor import Tensor, concat, layer_norm, stack
from layerfuse.training import extract_fuse_probs
from oracles import naive_fuse_attention


def rng(seed=0):
    return np.random.default_rng(seed)


def history(seed, n_layers, seq, d):
    r = rng(seed)
    return [Tensor(r.standard_normal((seq, d))) for _ in range(n_layers)]


# -- variant naming ---------------------------------------------------------------


def variant_config(name, n_enc_layers=3, n_dec_layers=3):
    cfg = ModelConfig(src_vocab=5, tgt_vocab=5, d_model=8, n_heads=2,
                      n_enc_layers=n_enc_layers, n_dec_layers=n_dec_layers)
    return cfg.with_variant(name)


def test_variant_round_trips():
    for name in VARIANT_NAMES:
        cfg = variant_config(name)
        assert cfg.variant == name
        assert ModelConfig(**cfg.to_dict()) == cfg


def test_with_variant_rejects_unknown():
    with pytest.raises(ValueError, match="variant must be one of .*, got 'dense'"):
        variant_config("dense")


# Each variant's fused layers (encoder, decoder) at 3 encoder and 2 decoder
# layers: every layer of the fused sides, or the top layer of each side.
FUSED_LAYERS = {
    "vanilla": ([], []),
    "fuse": ([0, 1, 2], [0, 1]),
    "fuse_enc": ([0, 1, 2], []),
    "fuse_dec": ([], [0, 1]),
    "fuse_top": ([2], [1]),
    "accum": ([], []),
}


def test_fused_layer_indices_by_mode():
    assert tuple(FUSED_LAYERS) == VARIANT_NAMES
    for name, (enc, dec) in FUSED_LAYERS.items():
        cfg = variant_config(name, n_dec_layers=2)
        assert (cfg.fused_layers("encoder"), cfg.fused_layers("decoder")) == (enc, dec), name
    assert variant_config("fuse_top", 1, 1).fused_layers("encoder") == [0]


def test_fuses_flags_the_fused_variants():
    fused = {name for name in VARIANT_NAMES if variant_config(name).fuses}
    assert fused == {"fuse", "fuse_enc", "fuse_dec", "fuse_top"}
    for name in VARIANT_NAMES:
        cfg = variant_config(name)
        assert cfg.fuses == bool(cfg.fused_layers("encoder") or cfg.fused_layers("decoder"))


# -- accumulation ---------------------------------------------------------------------


def test_accumulate_single_entry_is_identity():
    outs = history(5, 1, 3, 4)
    assert np.array_equal(accumulate_previous(outs).data, outs[0].data)


def test_accumulate_two_entries_exact_sum():
    a, b = history(6, 2, 3, 4)
    assert np.array_equal(accumulate_previous([a, b]).data, a.data + b.data)


def test_accumulate_is_fold_left_bitwise():
    outs = history(7, 5, 3, 4)
    total = outs[0].data
    for t in outs[1:]:
        total = total + t.data
    assert np.array_equal(accumulate_previous(outs).data, total)


def test_accumulate_fold_direction_agrees_on_exact_values():
    # Integer-valued doubles add exactly, so both fold directions must agree
    # bitwise; the shipped order is fold-left.
    r = rng(8)
    outs = [Tensor(r.integers(-50, 50, size=(3, 4)).astype(float))
            for _ in range(4)]
    left = outs[0].data
    for t in outs[1:]:
        left = left + t.data
    right = outs[-1].data
    for t in reversed(outs[:-1]):
        right = t.data + right
    got = accumulate_previous(outs).data
    assert np.array_equal(got, left) and np.array_equal(got, right)


def test_accumulate_rejects_empty():
    with pytest.raises(FusionError):
        accumulate_previous([])


def test_accumulate_stays_on_tape():
    outs = [Tensor(np.ones((2, 2)), requires_grad=True) for _ in range(3)]
    from layerfuse.tensor import backward
    backward(accumulate_previous(outs).sum())
    for t in outs:
        assert np.array_equal(t.grad, np.ones((2, 2)))


# -- fuse attention ---------------------------------------------------------------------


def test_fuse_single_history_prob_one_and_projection():
    d, h = 6, 2
    params = AttentionParams.create(rng(9), d_model=d, n_heads=h)
    outs = history(10, 1, 4, d)
    core, probs = fuse_attention_core(Tensor(outs[0].data.copy()), outs, params)
    for p in probs:
        assert np.allclose(p.data, 1.0, atol=1e-12)
    h0 = outs[0]
    d_k = d // h
    want = concat([h0.matmul(params.w_v.cols(i * d_k, (i + 1) * d_k)) for i in range(h)],
                  axis=1).matmul(params.w_o)
    assert np.max(np.abs(core.data - want.data)) < 1e-12


@pytest.mark.parametrize("lead", [(), (3,)], ids=["T_d", "B_T_d"])
@pytest.mark.parametrize("layer_mask", [None, [True]])
def test_fuse_one_entry_history_is_the_stacked_attention_bitwise(lead, layer_mask):
    d, h, seq = 6, 2, 4
    params = AttentionParams.create(rng(33), d_model=d, n_heads=h)
    r = rng(34)
    entry = Tensor(r.standard_normal((*lead, seq, d)))
    q = Tensor(r.standard_normal((*lead, seq, d)))
    core, probs = fuse_attention_core(q, [entry], params, layer_mask=layer_mask)
    mask = None if layer_mask is None else np.array([layer_mask])
    want, want_probs = multi_head_attention(q.reshape(*lead, seq, 1, d),
                                            stack([entry], axis=-2), params, mask)
    assert np.array_equal(core.data, want.data.reshape(core.shape))
    assert np.array_equal(np.stack([p.data for p in probs], axis=-2),
                          want_probs.data[..., 0, :])


def test_fuse_identical_histories_give_identical_outputs():
    d = 4
    params = AttentionParams.create(rng(11), d_model=d, n_heads=2)
    row = rng(12).standard_normal(d)
    outs = [Tensor(np.stack([row, row])) for _ in range(3)]
    q = Tensor(np.stack([row, row]))
    core, _ = fuse_attention_core(q, outs, params)
    assert np.array_equal(core.data[0], core.data[1])


def test_fuse_matches_per_position_oracle():
    d, h, seq, n_hist = 6, 2, 5, 3
    params = AttentionParams.create(rng(13), d_model=d, n_heads=h)
    outs = history(14, n_hist, seq, d)
    q = Tensor(rng(15).standard_normal((seq, d)))
    core, probs = fuse_attention_core(q, outs, params)
    want_out, want_probs = naive_fuse_attention(
        q.data, [t.data for t in outs], params)
    assert np.max(np.abs(core.data - want_out)) < 1e-12
    for i in range(h):
        assert np.max(np.abs(probs[i].data - want_probs[i])) < 1e-12


def test_fuse_batch_with_layer_mask_matches_oracle_per_sentence():
    d, h, batch, seq, n_hist = 6, 2, 3, 4, 3
    params = AttentionParams.create(rng(31), d_model=d, n_heads=h)
    r = rng(32)
    outs = [Tensor(r.standard_normal((batch, seq, d))) for _ in range(n_hist)]
    q = Tensor(r.standard_normal((batch, seq, d)))
    mask = np.array([True, False, True])
    core, probs = fuse_attention_core(q, outs, params, layer_mask=mask)
    assert core.shape == (batch, seq, d)
    assert [p.shape for p in probs] == [(batch, seq, n_hist)] * h
    for b in range(batch):
        want_out, want_probs = naive_fuse_attention(
            q.data[b], [t.data[b] for t in outs], params, mask)
        assert np.max(np.abs(core.data[b] - want_out)) < 1e-12
        for i in range(h):
            assert np.max(np.abs(probs[i].data[b] - want_probs[i])) < 1e-12


def test_fuse_probability_rows_normalized():
    params = AttentionParams.create(rng(16), d_model=4, n_heads=2)
    outs = history(17, 4, 6, 4)
    _, probs = fuse_attention_core(Tensor(rng(18).standard_normal((6, 4))),
                                   outs, params)
    for p in probs:
        assert p.shape == (6, 4)
        assert np.abs(p.data.sum(axis=1) - 1.0).max() < 1e-9


def test_fuse_layer_mask_zeroes_masked_layers():
    params = AttentionParams.create(rng(19), d_model=4, n_heads=1)
    outs = history(20, 3, 2, 4)
    mask = np.array([True, False, True])
    _, probs = fuse_attention_core(Tensor(rng(21).standard_normal((2, 4))),
                                   outs, params, layer_mask=mask)
    assert (probs[0].data[:, 1] == 0.0).all()
    assert np.abs(probs[0].data.sum(axis=1) - 1.0).max() < 1e-9


def test_fuse_layer_mask_validation():
    params = AttentionParams.create(rng(22), d_model=4, n_heads=1)
    outs = history(23, 2, 2, 4)
    q = Tensor(np.ones((2, 4)))
    with pytest.raises(FusionError):
        fuse_attention_core(q, outs, params, layer_mask=np.array([False, False]))
    with pytest.raises(FusionError):
        fuse_attention_core(q, outs, params, layer_mask=np.array([True]))
    with pytest.raises(FusionError):
        fuse_attention_core(q, [], params)


def test_fuse_sublayer_is_residual_plus_plain_norm():
    d = 4
    params = AttentionParams.create(rng(24), d_model=d, n_heads=2)
    outs = history(25, 2, 3, d)
    q = Tensor(rng(26).standard_normal((3, d)))
    got, probs = fuse_attention(q, outs, params)
    core, per_head = fuse_attention_core(q, outs, params)
    assert np.array_equal(got.data, core.data)
    # One [seq, h, n_history] array holding the per-head rows.
    assert np.array_equal(np.moveaxis(probs, -2, 0), [p.data for p in per_head])
    # In the model, fuse-attention is a residual sublayer between self-attention
    # and the feed-forward block, with an affine-free post-norm.
    model = _tiny_model("fuse_enc")
    src = np.array([3, 5, 7, 4])
    _, cache = model.encode(src)
    d = model.config.d_model
    for k, layer in enumerate(model.enc_layers):
        a = layer.self_block(cache.layer_inputs[k], Packing.of(None, src.shape))
        core, _ = fuse_attention_core(a, cache.outputs[:k + 1], layer.fuse_params)
        want = layer.ffn_block(layer_norm(a + core, Tensor(np.ones(d)), Tensor(np.zeros(d))))
        assert np.array_equal(cache.outputs[k + 1].data, want.data), k


# -- model-level extraction ------------------------------------------------------------


def _tiny_model(variant):
    cfg = ModelConfig(src_vocab=8, tgt_vocab=8, d_model=8, n_heads=2, d_ffn=8,
                      n_enc_layers=2, n_dec_layers=2, max_len=6, dropout=0.0,
                      seed=5).with_variant(variant)
    return Seq2SeqModel(cfg)


def _tiny_batch(n=3):
    r = rng(30)
    return [(r.integers(3, 8, size=4), r.integers(3, 8, size=3), r.integers(3, 8, size=3))
            for _ in range(n)]


def test_extract_fuse_probs_structure():
    probs = extract_fuse_probs(_tiny_model("fuse"), _tiny_batch())
    assert set(probs) == {"encoder", "decoder"}
    for side in probs:
        assert sorted(probs[side]) == [0, 1]
        for layer_idx, row in probs[side].items():
            assert row.shape == (layer_idx + 1,)
            assert abs(row.sum() - 1.0) < 1e-9


def test_extract_fuse_probs_top_only():
    probs = extract_fuse_probs(_tiny_model("fuse_top"), _tiny_batch())
    assert sorted(probs["encoder"]) == [1]
    assert sorted(probs["decoder"]) == [1]


def test_extract_fuse_probs_single_side():
    probs = extract_fuse_probs(_tiny_model("fuse_dec"), _tiny_batch())
    assert set(probs) == {"decoder"}


def test_extract_fuse_probs_rejects_unfused_variants():
    for variant in ("vanilla", "accum"):
        with pytest.raises(FusionError):
            extract_fuse_probs(_tiny_model(variant), _tiny_batch())
