"""A padded batch against the same sentences run one at a time."""
import numpy as np
import pytest

from layerfuse import training
from layerfuse.attention import pad_ids
from layerfuse.model import DecodeState, ModelConfig, Seq2SeqModel
from layerfuse.tensor import ShapeError, Tensor, backward, no_grad
from layerfuse.training import (
    _TAG_DROPOUT,
    EVAL_BATCH,
    TrainConfig,
    batch_loss,
    extract_fuse_probs,
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
    # A parameter off the tape has no gradient; train_step reads it as zeros.
    return loss.item(), {n: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                         for n, p in model.parameters().items()}


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


def test_a_lone_sentence_refuses_lengths_shorter_than_itself():
    model = make_model("fuse")
    src, prefix = np.array([3, 4, 5, 0]), np.array([1, 5])
    with no_grad():
        with pytest.raises(ShapeError, match=r"do not fit padded ids \(4,\)"):
            model.encode(src, lengths=[3])
        enc_out, _ = model.encode(src, lengths=[4])
        with pytest.raises(ShapeError, match="encoder output"):
            model.decode(prefix, enc_out, src_lengths=[3])
        model.decode(prefix, enc_out, src_lengths=[4])


def test_decode_refuses_to_extend_a_padded_target_prefix():
    model = make_model("fuse")
    src = np.array([[3, 4, 5], [6, 7, 8]])
    prefix = np.array([[1, 5, 0, 0], [1, 6, 7, 8]])
    with no_grad():
        enc_out, _ = model.encode(src)
        state = DecodeState()
        model.decode(prefix, enc_out, tgt_lengths=[2, 4], state=state)
        longer = np.concatenate([prefix, [[4], [4]]], axis=1)
        with pytest.raises(ShapeError, match="padded prefix"):
            model.decode(longer, enc_out, state=state)
        # A full-length first call stays extendable.
        state = DecodeState()
        model.decode(prefix, enc_out, tgt_lengths=[4, 4], state=state)
        model.decode(longer, enc_out, state=state)


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_lone_sentence_is_a_batch_of_one(variant):
    """src, tgt and src[None], tgt[None] give bitwise-equal results."""
    r = np.random.default_rng(8)
    src, tgt_in = r.integers(3, 9, size=5), r.integers(3, 9, size=4)
    model = make_model(variant, dropout=0.1)
    for drop_seed in (None, 3):
        lone, one = (model.forward(s, t, drop_rng=None if drop_seed is None
                                   else np.random.default_rng(drop_seed)).data
                     for s, t in ((src, tgt_in), (src[None], tgt_in[None])))
        assert lone.shape == one.shape == (4, 9)
        assert np.array_equal(lone, one)
    with no_grad():
        runs = []
        for s, t in ((src, tgt_in), (src[None], tgt_in[None])):
            enc_out, enc = model.encode(s)
            _, dec = model.decode(t, enc_out)
            state, steps = DecodeState(), []
            for n in range(1, t.shape[-1] + 1):
                steps.append(model.decode(t[..., :n], enc_out, state=state)[0].data)
            runs.append((enc_out.data.reshape(5, 16), enc, dec, steps))
    (lone_out, *lone_caches, lone_steps), (one_out, *one_caches, one_steps) = runs
    assert np.array_equal(lone_out, one_out)
    for a, b in zip(lone_caches, one_caches):
        for x, y in zip(a.outputs + a.layer_inputs, b.outputs + b.layer_inputs, strict=True):
            assert x.shape == y.shape and np.array_equal(x.data, y.data)
        assert a.fuse_probs.keys() == b.fuse_probs.keys()
        for k in a.fuse_probs:
            assert np.array_equal(a.fuse_probs[k], b.fuse_probs[k])
    for x, y in zip(lone_steps, one_steps, strict=True):
        assert x.shape == y.shape == (1, 9) and np.array_equal(x, y)


def test_no_sequences_is_a_shape_error():
    model = make_model("fuse")
    for call in (lambda: pad_ids([]), lambda: pad_batch([]),
                 lambda: extract_fuse_probs(model, [])):
        with pytest.raises(ShapeError, match="no sequences"):
            call()


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
        alone = [model.forward(s, t).data for s, t in zip(src, tgt_in)]
    assert plain.shape == (12, 9)  # rows in sentence order
    assert np.array_equal(plain, given)
    assert np.max(np.abs(plain - np.concatenate(alone))) <= 1e-12


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


def fuse_rows(model, grids):
    """Each fused layer's probability rows over (src, tgt_in, lengths) grids,
    each run as one encode and decode, keyed by (side, layer)."""
    rows = {}
    with no_grad():
        for src, tgt_in, src_len, tgt_len in grids:
            enc_out, enc = model.encode(src, lengths=src_len)
            _, dec = model.decode(tgt_in, enc_out, src_lengths=src_len, tgt_lengths=tgt_len)
            for side, cache in (("encoder", enc), ("decoder", dec)):
                for k, probs in cache.fuse_probs.items():
                    rows.setdefault((side, k), []).append(probs.reshape(-1, k + 1))
    return {key: np.concatenate(blocks) for key, blocks in rows.items()}


def per_sentence_rows(model, triples):
    return fuse_rows(model, [(src, tgt_in, None, None) for src, tgt_in, _ in triples])


def assert_fuse_probs_match(got, rows, tol):
    assert {(side, k) for side in got for k in got[side]} == set(rows)
    for (side, k), block in rows.items():
        assert np.max(np.abs(got[side][k] - block.mean(axis=0))) <= tol


def test_fuse_probs_of_a_padded_batch_skip_pad_positions():
    model = make_model("fuse")
    triples = mixed_batch(seed=4)
    got = extract_fuse_probs(model, triples)
    assert_fuse_probs_match(got, per_sentence_rows(model, triples), 1e-12)


def many_triples(n, seed=0):
    """``n`` sentence triples of random lengths 1..7."""
    r = np.random.default_rng(seed)
    out = []
    for src_len, tgt_len in r.integers(1, 8, size=(n, 2)):
        tgt = r.integers(3, 9, size=int(tgt_len))
        out.append((r.integers(3, 9, size=int(src_len)), np.concatenate([[1], tgt[:-1]]), tgt))
    return out


def test_fuse_probs_over_chunks_equal_one_padded_batch():
    model = make_model("fuse")
    triples = many_triples(150)
    got = extract_fuse_probs(model, triples)
    batch = pad_batch(triples)
    one_batch = fuse_rows(model, [(batch.src, batch.tgt_in, batch.src_len, batch.tgt_len)])
    assert_fuse_probs_match(got, one_batch, 0.0)
    assert_fuse_probs_match(got, per_sentence_rows(model, triples), 1e-12)


def test_fuse_probs_pad_one_chunk_of_eval_batch_at_a_time(monkeypatch):
    padded = []

    def spy(triples):
        padded.append(len(triples))
        return pad_batch(triples)

    monkeypatch.setattr(training, "pad_batch", spy)
    extract_fuse_probs(make_model("fuse"), many_triples(150))
    assert padded == [EVAL_BATCH, EVAL_BATCH, 150 - 2 * EVAL_BATCH]
