"""Encoder-decoder wiring: embeddings, sublayers, caches, variants."""
import dataclasses
import hashlib

import numpy as np
import pytest

from layerfuse.attention import Packing, make_causal_mask, multi_head_attention
from layerfuse.fusion import accumulate_previous
from layerfuse.model import (
    DecodeState,
    ModelConfig,
    Seq2SeqModel,
    _FeedForward,
)
from layerfuse.tensor import ShapeError, Tensor, layer_norm, no_grad
from oracles import reference_forward


def rng(seed=0):
    return np.random.default_rng(seed)


def lone(x):
    """The one-row Packing of a lone sentence: ids [T] or its rows [T, d]."""
    return Packing.of(None, x.shape[:1])


def tiny_config(**kw):
    base = dict(src_vocab=9, tgt_vocab=9, d_model=8, n_heads=2, d_ffn=12,
                n_enc_layers=2, n_dec_layers=2, max_len=7, dropout=0.0,
                variant="vanilla", seed=1)
    base.update(kw)
    return ModelConfig(**base)


def weights_of(model):
    return {name: t.data for name, t in model.parameters().items()}


# -- config ---------------------------------------------------------------------


def test_config_round_trip():
    cfg = tiny_config(variant="fuse_dec")
    assert ModelConfig(**cfg.to_dict()) == cfg


def test_config_variant_shorthand():
    assert tiny_config().with_variant("fuse_enc").variant == "fuse_enc"
    assert tiny_config().with_variant("accum") == tiny_config(variant="accum")


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(d_model=6, n_heads=4)
    with pytest.raises(ValueError):
        tiny_config(dropout=1.5)
    with pytest.raises(ValueError):
        tiny_config(variant="dense")
    with pytest.raises(ValueError):
        tiny_config(src_vocab=0)
    tiny_config(n_enc_layers=1, n_dec_layers=1)


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        tiny_config().d_model = 16


@pytest.mark.parametrize("kw, detail", [
    (dict(variant="dense"), "variant"),
    (dict(variant=""), "variant"),
    (dict(variant=5), "variant"),
    (dict(variant=["fuse"]), "variant"),
    (dict(n_enc_layers=0), "layer counts"),
    (dict(n_dec_layers=0), "layer counts"),
])
def test_config_refuses_unknown_variants_and_empty_stacks(kw, detail):
    with pytest.raises(ValueError, match=detail):
        tiny_config(**kw)


def test_config_fused_layer_listing():
    cfg = tiny_config(variant="fuse_top", n_enc_layers=3)
    assert cfg.fused_layers("encoder") == [2]
    assert cfg.fused_layers("decoder") == [1]
    assert cfg.fuses
    accum = tiny_config(variant="accum")
    assert accum.fused_layers("encoder") == accum.fused_layers("decoder") == []
    assert not accum.fuses


# -- embeddings --------------------------------------------------------------------


def test_zero_embedding_table_leaves_positional_rows():
    model = Seq2SeqModel(tiny_config())
    model.src_embed.data[:] = 0.0
    ids = np.array([3, 5, 3])
    out = model.embed(ids, "encoder", lone(ids))
    assert np.array_equal(out.data, model.src_pos.data[:3])


def test_embed_single_token_shape():
    model = Seq2SeqModel(tiny_config())
    ids = np.array([4])
    assert model.embed(ids, "encoder", lone(ids)).shape == (1, 8)


def test_repeated_token_rows_differ_by_positional_rows():
    model = Seq2SeqModel(tiny_config())
    ids = np.array([6, 6])
    out = model.embed(ids, "encoder", lone(ids))
    diff = out.data[0] - out.data[1]
    want = model.src_pos.data[0] - model.src_pos.data[1]
    assert np.max(np.abs(diff - want)) < 1e-12


def test_embed_length_checks():
    model = Seq2SeqModel(tiny_config(max_len=3))
    for ids in (np.array([], dtype=np.int64), np.array([1, 2, 3, 4])):
        with pytest.raises(ShapeError):
            model.embed(ids, "encoder", lone(ids))


# -- encoder layer ----------------------------------------------------------------


def test_encoder_self_block_single_position():
    model = Seq2SeqModel(tiny_config())
    layer = model.enc_layers[0]
    x = Tensor(rng(2).standard_normal((1, 8)))
    got = layer.self_block(x, lone(x))
    # single key: attention output reduces to the value path of x itself
    want, probs = multi_head_attention(x, x, layer.self_attn)
    want = layer_norm(x + want, layer.norm_self.gamma, layer.norm_self.beta)
    assert np.array_equal(got.data, want.data)
    assert np.array_equal(probs.data, np.ones((layer.self_attn.n_heads, 1, 1)))


def test_encoder_identical_positions_identical_rows():
    model = Seq2SeqModel(tiny_config())
    row = rng(3).standard_normal(8)
    x = Tensor(np.stack([row, row]))
    out = model.enc_layers[0].self_block(x, lone(x))
    assert np.array_equal(out.data[0], out.data[1])


def test_encoder_layer_matches_composed_primitives():
    model = Seq2SeqModel(tiny_config())
    layer = model.enc_layers[1]
    x = Tensor(rng(4).standard_normal((4, 8)))
    got = layer.ffn_block(layer.self_block(x, lone(x)))

    a, _ = multi_head_attention(x, x, layer.self_attn)
    a = layer_norm(x + a, layer.norm_self.gamma, layer.norm_self.beta)
    f = layer.ffn(a)
    want = layer_norm(a + f, layer.norm_ffn.gamma, layer.norm_ffn.beta)
    assert np.array_equal(got.data, want.data)


# -- decoder layer ----------------------------------------------------------------


def test_decoder_position_zero_attends_itself_only():
    model = Seq2SeqModel(tiny_config())
    layer = model.dec_layers[0]
    x = Tensor(rng(5).standard_normal((3, 8)))
    got = layer.self_block(x, lone(x), make_causal_mask(3))
    first = Tensor(x.data[:1].copy())
    solo = layer.self_block(first, lone(first), make_causal_mask(1))
    assert np.allclose(got.data[0], solo.data[0], atol=1e-12)


def test_causal_mask_ignores_future_rows():
    model = Seq2SeqModel(tiny_config())
    layer = model.dec_layers[0]
    x = rng(6).standard_normal((4, 8))
    base = layer.self_block(Tensor(x.copy()), lone(x), make_causal_mask(4))
    x2 = x.copy()
    x2[2:] = rng(7).standard_normal((2, 8))
    moved = layer.self_block(Tensor(x2), lone(x2), make_causal_mask(4))
    assert np.array_equal(base.data[:2], moved.data[:2])


def test_single_position_causal_equals_unmasked():
    model = Seq2SeqModel(tiny_config())
    layer = model.dec_layers[0]
    x = Tensor(rng(8).standard_normal((1, 8)))
    masked, _ = multi_head_attention(x, x, layer.self_attn, make_causal_mask(1))
    plain, _ = multi_head_attention(x, x, layer.self_attn)
    assert np.array_equal(masked.data, plain.data)


def test_cross_attention_single_encoder_key():
    model = Seq2SeqModel(tiny_config())
    layer = model.dec_layers[0]
    x = Tensor(rng(9).standard_normal((3, 8)))
    enc = Tensor(rng(10).standard_normal((1, 8)))
    got = layer.cross_block(x, enc, lone(x))
    want, _ = multi_head_attention(x, enc, layer.cross_attn)
    want = layer_norm(x + want, layer.norm_cross.gamma, layer.norm_cross.beta)
    assert np.array_equal(got.data, want.data)
    # every decoder position receives the same projected encoder vector
    added = multi_head_attention(x, enc, layer.cross_attn)[0].data
    assert np.allclose(added[0], added[1], atol=1e-12)
    assert np.allclose(added[0], added[2], atol=1e-12)


def test_cross_attention_zero_memory_is_residual_only():
    model = Seq2SeqModel(tiny_config())
    layer = model.dec_layers[1]
    x = Tensor(rng(11).standard_normal((2, 8)))
    enc = Tensor(np.zeros((3, 8)))
    got = layer.cross_block(x, enc, lone(x))
    want = layer_norm(x, layer.norm_cross.gamma, layer.norm_cross.beta)
    assert np.array_equal(got.data, want.data)


# -- feed-forward ------------------------------------------------------------------


class _Reg:
    def __init__(self):
        self.params = {}

    def add(self, name, array):
        t = Tensor(array, requires_grad=True)
        self.params[name] = t
        return t

    add_init = None


def _make_ffn(d, d_ffn, seed):
    reg = _Reg()
    reg.add_init = lambda name, t: reg.params.setdefault(name, t)
    return _FeedForward(reg, "ffn", rng(seed), d, d_ffn)


def test_ffn_zero_weights_pass_through_zero():
    ffn = _make_ffn(4, 6, 12)
    ffn.w1.data[:] = 0.0
    ffn.w2.data[:] = 0.0
    x = Tensor(rng(13).standard_normal((2, 4)))
    assert np.array_equal(ffn(x).data, np.zeros((2, 4)))


def test_ffn_dead_relu_outputs_second_bias():
    ffn = _make_ffn(4, 6, 14)
    ffn.w1.data[:] = 0.0
    ffn.b1.data[:] = -1.0
    ffn.b2.data[:] = rng(15).standard_normal(4)
    x = Tensor(rng(16).standard_normal((3, 4)))
    out = ffn(x)
    assert np.array_equal(out.data, np.broadcast_to(ffn.b2.data, (3, 4)))


def test_ffn_matches_explicit_loop():
    ffn = _make_ffn(4, 6, 17)
    x = rng(18).standard_normal((3, 4))
    got = ffn(Tensor(x)).data
    for i in range(3):
        hidden = np.maximum(x[i] @ ffn.w1.data + ffn.b1.data, 0.0)
        want = hidden @ ffn.w2.data + ffn.b2.data
        assert np.max(np.abs(got[i] - want)) < 1e-12


# -- stacks -------------------------------------------------------------------------


def test_encoder_cache_length_invariant():
    model = Seq2SeqModel(tiny_config(n_enc_layers=2))
    _, cache = model.encode(np.array([3, 4]))
    assert len(cache.outputs) == model.config.n_enc_layers + 1
    assert len(cache.layer_inputs) == model.config.n_enc_layers


def test_vanilla_forward_matches_flat_reference():
    cfg = tiny_config(seed=21)
    model = Seq2SeqModel(cfg)
    src = np.array([3, 7, 2, 5])
    tgt_in = np.array([1, 4, 6])
    with no_grad():
        logits = model.forward(src, tgt_in)
    want = reference_forward(weights_of(model), cfg.n_heads,
                             cfg.n_enc_layers, cfg.n_dec_layers, src, tgt_in)
    assert np.array_equal(logits.data, want)


def test_decode_single_prefix_logit_shape():
    model = Seq2SeqModel(tiny_config())
    enc_out, _ = model.encode(np.array([3, 4, 5]))
    logits, _ = model.decode(np.array([1]), enc_out)
    assert logits.shape == (1, 9)


@pytest.mark.parametrize(
    "variant", ["vanilla", "fuse", "fuse_enc", "fuse_dec", "fuse_top", "accum"])
def test_extending_prefix_keeps_earlier_logits(variant):
    model = Seq2SeqModel(tiny_config().with_variant(variant))
    with no_grad():
        enc_out, _ = model.encode(np.array([3, 4, 5, 6]))
        short, _ = model.decode(np.array([1, 4, 7]), enc_out)
        long, _ = model.decode(np.array([1, 4, 7, 2, 8]), enc_out)
    assert np.array_equal(short.data, long.data[:3])


@pytest.mark.parametrize(
    "variant", ["vanilla", "fuse", "fuse_enc", "fuse_dec", "fuse_top", "accum"])
def test_future_token_perturbation_is_invisible(variant):
    model = Seq2SeqModel(tiny_config().with_variant(variant))
    src = np.array([3, 4, 5])
    with no_grad():
        enc_out, _ = model.encode(src)
        a, _ = model.decode(np.array([1, 5, 2, 7]), enc_out)
        b, _ = model.decode(np.array([1, 5, 8, 3]), enc_out)
    assert np.array_equal(a.data[:2], b.data[:2])
    assert not np.array_equal(a.data[2:], b.data[2:])


def test_accum_layer_inputs_are_fold_left_sums():
    model = Seq2SeqModel(tiny_config(variant="accum"))
    with no_grad():
        _, cache = model.encode(np.array([3, 4, 5]))
    for i, consumed in enumerate(cache.layer_inputs):
        want = accumulate_previous(cache.outputs[: i + 1])
        assert np.array_equal(consumed.data, want.data)


def test_fuse_model_cache_inputs_are_previous_outputs():
    model = Seq2SeqModel(tiny_config(variant="fuse"))
    with no_grad():
        _, cache = model.encode(np.array([3, 4]))
    for i, consumed in enumerate(cache.layer_inputs):
        assert consumed is cache.outputs[i]


@pytest.mark.parametrize(
    "variant", ["vanilla", "fuse", "fuse_enc", "fuse_dec", "fuse_top", "accum"])
def test_cache_fuse_probs_hold_each_fused_layer(variant):
    cfg = tiny_config(n_enc_layers=3).with_variant(variant)
    model = Seq2SeqModel(cfg)
    with no_grad():
        enc_out, enc = model.encode(np.array([3, 4, 5, 6]))
        _, dec = model.decode(np.array([1, 5, 7]), enc_out)
    for side, cache, seq in (("encoder", enc, 4), ("decoder", dec, 3)):
        assert sorted(cache.fuse_probs) == cfg.fused_layers(side)
        for k, probs in cache.fuse_probs.items():
            assert probs.shape == (seq, cfg.n_heads, k + 1)
            assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) <= 1e-12
            if k == 0:  # the embedding is layer 0's whole history
                assert np.array_equal(probs, np.ones_like(probs))
    if variant in ("vanilla", "accum"):
        assert enc.fuse_probs == {} and dec.fuse_probs == {}


@pytest.mark.parametrize("variant", ["fuse", "fuse_dec", "fuse_top"])
def test_incremental_decode_fuse_probs_cover_the_new_positions(variant):
    cfg = tiny_config().with_variant(variant)
    model = Seq2SeqModel(cfg)
    prefix = np.array([1, 5, 7, 2, 8])
    state = DecodeState()
    with no_grad():
        enc_out, _ = model.encode(np.array([3, 4, 5, 6]))
        _, full = model.decode(prefix, enc_out)
        for start, stop in ((0, 2), (2, 3), (3, 5)):
            _, cache = model.decode(prefix[:stop], enc_out, state=state)
            assert sorted(cache.fuse_probs) == cfg.fused_layers("decoder")
            for k, probs in cache.fuse_probs.items():
                assert probs.shape == (stop - start, cfg.n_heads, k + 1)
                assert np.max(np.abs(probs - full.fuse_probs[k][start:stop])) <= 1e-12


# -- parameter registry ---------------------------------------------------------------


def test_construction_is_deterministic():
    a = Seq2SeqModel(tiny_config(seed=33))
    b = Seq2SeqModel(tiny_config(seed=33))
    pa, pb = a.parameters(), b.parameters()
    assert list(pa) == list(pb)
    for name in pa:
        assert np.array_equal(pa[name].data, pb[name].data)


def test_fused_variants_add_exactly_attention_blocks():
    d = 8
    base = Seq2SeqModel(tiny_config()).param_count()
    fuse = Seq2SeqModel(tiny_config(variant="fuse")).param_count()
    top = Seq2SeqModel(tiny_config(variant="fuse_top")).param_count()
    accum = Seq2SeqModel(tiny_config(variant="accum")).param_count()
    enc_only = Seq2SeqModel(
        tiny_config(variant="fuse_enc")).param_count()
    assert fuse - base == 4 * 4 * d * d
    assert top - base == 2 * 4 * d * d
    assert enc_only - base == 2 * 4 * d * d
    assert accum == base


def test_param_names_follow_registry_scheme():
    model = Seq2SeqModel(tiny_config(variant="fuse"))
    names = set(model.parameters())
    assert "src_embed" in names and "out.w" in names
    assert "enc.0.self.w_q" in names
    assert "enc.1.fuse.w_o" in names
    assert "dec.0.cross.w_v" in names
    assert not any(".h0." in name for name in names)
    assert "dec.1.norm_ffn.beta" in names


# Tensor count, then sha256 prefixes of the newline-joined tensor names and of
# the concatenated initial tensor bytes, per variant of tiny_config(), taken in
# the per-head view: each attention projection counts as one
# {prefix}.h{i}.w_q|w_k|w_v tensor per head (its column block) ahead of
# {prefix}.w_o. A change to creation order, names or RNG draws changes these.
PINNED_CONSTRUCTION = {
    "vanilla": (83, "cba41c8fb34469ec1f76acd7105e9050",
                "420290760b144cd700efaf5c7ca9132e"),
    "fuse": (111, "eb0f9def7d75adb80fec8118e66ef991",
             "f8ce47f9348c6e2388b5b9736e7e008b"),
    "fuse_enc": (97, "f5464a84a93bf44d1a1d661f76120f6a",
                 "ef791838a60abd3b352d6760a9e05cf6"),
    "fuse_dec": (97, "5f2f37d8a51980937f0cc3e2d62c001b",
                 "d00d96b705065b7c8156e267e66ec965"),
    "fuse_top": (97, "727c3afd8b3d81d1042ee21d2bb9e62e",
                 "d4641df0d8b17206c3ce974541a0edf0"),
    "accum": (83, "cba41c8fb34469ec1f76acd7105e9050",
              "420290760b144cd700efaf5c7ca9132e"),
}

# Parameter tensors per variant of tiny_config(): four per attention module.
TENSOR_COUNTS = {"vanilla": 65, "accum": 65, "fuse": 81,
                 "fuse_enc": 73, "fuse_dec": 73, "fuse_top": 73}


def per_head_view(params, n_heads):
    out = {}
    for name, p in params.items():
        prefix, _, leaf = name.rpartition(".")
        if leaf in ("w_q", "w_k", "w_v"):
            continue
        if leaf == "w_o":
            for i in range(n_heads):
                for w in ("w_q", "w_k", "w_v"):
                    out[f"{prefix}.h{i}.{w}"] = np.split(
                        params[f"{prefix}.{w}"].data, n_heads, axis=1)[i]
        out[name] = p.data
    return out


@pytest.mark.parametrize("variant", sorted(PINNED_CONSTRUCTION))
def test_construction_matches_pinned_names_and_initial_values(variant):
    cfg = tiny_config().with_variant(variant)
    params = Seq2SeqModel(cfg).parameters()
    assert len(params) == TENSOR_COUNTS[variant]
    view = per_head_view(params, cfg.n_heads)
    names = hashlib.sha256("\n".join(view).encode()).hexdigest()
    data = hashlib.sha256(b"".join(a.tobytes() for a in view.values())).hexdigest()
    assert (len(view), names[:32], data[:32]) == PINNED_CONSTRUCTION[variant]
