"""A padded batch against the same sentences run one at a time."""
import numpy as np
import pytest

from layerfuse.fusion import extract_fuse_probs
from layerfuse.model import ModelConfig, Seq2SeqModel
from layerfuse.tensor import ShapeError, Tensor, backward, no_grad
from layerfuse.training import (
    _TAG_DROPOUT,
    TrainConfig,
    batch_loss,
    init_state,
    pad_batch,
    train_step,
)
from oracles import per_sentence_loss

VARIANTS = ("vanilla", "fuse", "fuse_enc", "fuse_dec", "fuse_top", "accum")
SMOOTHING = 0.1


def make_model(variant, dropout=0.0, seed=5):
    cfg = ModelConfig(src_vocab=9, tgt_vocab=9, d_model=16, n_heads=2, d_ffn=24,
                      n_enc_layers=2, n_dec_layers=2, max_len=8, dropout=dropout,
                      seed=seed)
    return Seq2SeqModel(cfg.with_variant(variant))


def mixed_batch(seed=0, n=5):
    """Sentence triples whose source and target lengths all differ."""
    r = np.random.default_rng(seed)
    out = []
    for src_len, tgt_len in zip(r.permutation(np.arange(1, 8))[:n],
                                r.permutation(np.arange(1, 8))[:n]):
        tgt = r.integers(3, 9, size=int(tgt_len))
        out.append((r.integers(3, 9, size=int(src_len)),
                    np.concatenate([[1], tgt[:-1]]), tgt))
    return out


def loss_and_grads(model, loss_fn):
    model.zero_grad()
    loss = loss_fn()
    backward(loss)
    return loss.item(), {n: p.grad.copy() for n, p in model.parameters().items()}


def pad_heavy_batch(seed=0, n=6):
    """One sentence pair of the longest lengths, then length-1 pairs."""
    r = np.random.default_rng(seed)
    out = []
    for length in [7] + [1] * (n - 1):
        tgt = r.integers(3, 9, size=length)
        out.append((r.integers(3, 9, size=length), np.concatenate([[1], tgt[:-1]]), tgt))
    return out


def padded_forward(model, batch):
    return model.forward(batch.src, batch.tgt_in, src_lengths=batch.src_len,
                         tgt_lengths=batch.tgt_len)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_logits_match_batch_of_one(variant):
    model = make_model(variant)
    triples = mixed_batch()
    batch = pad_batch(triples)
    with no_grad():
        logits = padded_forward(model, batch).data
        assert logits.shape == (sum(batch.tgt_len), 9)  # packed real positions
        rows = np.split(logits, np.cumsum(batch.tgt_len)[:-1])
        for (src, tgt_in, _), got in zip(triples, rows, strict=True):
            alone = model.forward(src, tgt_in).data
            assert np.max(np.abs(got - alone)) <= 1e-12


@pytest.mark.parametrize("variant", VARIANTS)
def test_padded_encode_caches_only_real_rows(variant):
    model = make_model(variant)
    batch = pad_batch(mixed_batch(seed=5))
    with no_grad():
        enc_out, enc = model.encode(batch.src, lengths=batch.src_len)
        _, dec = model.decode(batch.tgt_in, enc_out, src_lengths=batch.src_len,
                              tgt_lengths=batch.tgt_len)
    for cache, lengths in ((enc, batch.src_len), (dec, batch.tgt_len)):
        entries = ([t.data for t in cache.outputs + cache.layer_inputs]
                   + list(cache.fuse_probs.values()))
        assert {len(x) for x in entries} == {sum(lengths)}


@pytest.mark.parametrize("variant", VARIANTS)
def test_padded_encode_returns_the_grid_zero_at_pads(variant):
    model = make_model(variant)
    batch = pad_batch(mixed_batch(seed=5))
    with no_grad():
        enc_out, enc = model.encode(batch.src, lengths=batch.src_len)
    real = np.arange(batch.src.shape[1]) < batch.src_len[:, None]
    assert enc_out.shape == batch.src.shape + (16,)
    assert (enc_out.data[~real] == 0.0).all()
    assert np.array_equal(enc_out.data[real], enc.outputs[-1].data)


def test_decode_refuses_source_lengths_that_do_not_fit_the_encoder_output():
    model = make_model("fuse")
    src = np.array([[3, 4, 5, 6], [7, 8, 0, 0]])
    prefix = np.array([[1, 5], [1, 6]])
    with no_grad():
        enc_out, enc = model.encode(src, lengths=[4, 2])
        packed = enc.outputs[-1]  # the old contract's [N, d] output
        for memory, lengths in ((enc_out, [4]), (enc_out, [4, 2, 2]), (enc_out, [5, 2]),
                                (enc_out, [4, 0]), (packed, [4, 2])):
            with pytest.raises(ShapeError, match="encoder output"):
                model.decode(prefix, memory, src_lengths=lengths)
        model.decode(prefix, enc_out, src_lengths=[4, 2])


@pytest.mark.parametrize("variant", VARIANTS)
def test_decode_ignores_the_pad_rows_of_the_encoder_output(variant):
    model = make_model(variant)
    batch = pad_batch(mixed_batch(seed=6))
    pads = np.arange(batch.src.shape[1]) >= batch.src_len[:, None]
    assert pads.any()
    kw = dict(src_lengths=batch.src_len, tgt_lengths=batch.tgt_len)
    with no_grad():
        enc_out, _ = model.encode(batch.src, lengths=batch.src_len)
        noisy = enc_out.data.copy()
        noisy[pads] = np.random.default_rng(7).standard_normal((pads.sum(), 16))
        base, _ = model.decode(batch.tgt_in, enc_out, **kw)
        moved, _ = model.decode(batch.tgt_in, Tensor(noisy), **kw)
    assert np.array_equal(base.data, moved.data)


@pytest.mark.parametrize("variant", VARIANTS)
def test_rows_of_one_length_run_unpacked(variant):
    model = make_model(variant)
    r = np.random.default_rng(6)
    src, tgt_in = r.integers(3, 9, size=(3, 5)), r.integers(3, 9, size=(3, 4))
    with no_grad():
        plain = model.forward(src, tgt_in).data
        given = model.forward(src, tgt_in, src_lengths=[5, 5, 5],
                              tgt_lengths=[4, 4, 4]).data
    assert plain.shape == (3, 4, 9)
    assert np.array_equal(plain, given)


@pytest.mark.parametrize("variant", VARIANTS)
def test_pad_heavy_batch_matches_per_sentence_oracle(variant):
    model = make_model(variant)
    triples = pad_heavy_batch()
    got_loss, got = loss_and_grads(
        model, lambda: batch_loss(model, pad_batch(triples), SMOOTHING))
    want_loss, want = loss_and_grads(
        model, lambda: per_sentence_loss(model, triples, SMOOTHING))
    assert abs(got_loss - want_loss) <= 1e-10
    for name in want:
        assert np.max(np.abs(got[name] - want[name])) <= 1e-10, name


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_loss_and_grads_match_per_sentence_oracle(variant):
    model = make_model(variant)
    triples = mixed_batch(seed=1)
    got_loss, got = loss_and_grads(
        model, lambda: batch_loss(model, pad_batch(triples), SMOOTHING))
    want_loss, want = loss_and_grads(
        model, lambda: per_sentence_loss(model, triples, SMOOTHING))
    assert abs(got_loss - want_loss) <= 1e-10
    for name in want:
        assert np.max(np.abs(got[name] - want[name])) <= 1e-10, name


@pytest.mark.parametrize("variant", VARIANTS)
def test_pad_ids_and_pad_targets_change_nothing(variant):
    model = make_model(variant)
    triples = mixed_batch(seed=2)
    batch = pad_batch(triples)
    # Pad targets are not even stored: the targets are the real ones, in order.
    assert np.array_equal(batch.targets, np.concatenate([t[2] for t in triples]))
    base_loss, base = loss_and_grads(
        model, lambda: batch_loss(model, batch, SMOOTHING))
    pad_src = np.arange(batch.src.shape[1]) >= batch.src_len[:, None]
    pad_tgt = np.arange(batch.tgt_in.shape[1]) >= batch.tgt_len[:, None]
    assert pad_src.any() and pad_tgt.any()
    moved = batch._replace(src=np.where(pad_src, 7, batch.src),
                           tgt_in=np.where(pad_tgt, 5, batch.tgt_in))
    loss, grads = loss_and_grads(model, lambda: batch_loss(model, moved, SMOOTHING))
    assert loss == base_loss
    for name in base:
        assert np.array_equal(grads[name], base[name]), name


def test_dropout_masks_follow_the_per_sentence_stream():
    cfg = TrainConfig(steps=1, batch_size=5, label_smoothing=SMOOTHING, seed=4)
    triples = mixed_batch(seed=3)
    model = make_model("fuse", dropout=0.1)
    want = per_sentence_loss(model, triples, SMOOTHING,
                             drop_rng=np.random.default_rng([cfg.seed, _TAG_DROPOUT, 1]))
    got = train_step(model, triples, cfg, init_state(model, cfg))["loss"]
    assert abs(got - want.item()) <= 1e-12
    # Without dropout the loss differs, so the masks were really applied.
    with no_grad():
        plain = per_sentence_loss(make_model("fuse"), triples, SMOOTHING).item()
    assert abs(got - plain) > 1e-6


def test_fuse_probs_of_a_padded_batch_skip_pad_positions():
    model = make_model("fuse")
    pairs = [(src, tgt_in) for src, tgt_in, _ in mixed_batch(seed=4)]
    got = extract_fuse_probs(model, pairs)
    rows = {}
    with no_grad():
        for src, tgt_in in pairs:
            enc_out, enc = model.encode(src)
            _, dec = model.decode(tgt_in, enc_out)
            for side, cache in (("encoder", enc), ("decoder", dec)):
                for k, probs in cache.fuse_probs.items():
                    rows.setdefault((side, k), []).append(probs.reshape(-1, k + 1))
    assert {(side, k) for side in got for k in got[side]} == set(rows)
    for (side, k), blocks in rows.items():
        want = np.concatenate(blocks).mean(axis=0)
        assert np.max(np.abs(got[side][k] - want)) <= 1e-12
