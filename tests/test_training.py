"""Optimizer schedule, training loop, decoding, and checkpointing."""
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from layerfuse import training
from layerfuse.attention import Packing
from layerfuse.fusion import VARIANT_NAMES
from layerfuse.model import DecodeState, ModelConfig, Seq2SeqModel, _Layer
from layerfuse.tensor import ShapeError, no_grad
from layerfuse.training import (
    CheckpointError,
    TrainConfig,
    batch_indices,
    eval_loss,
    greedy_decode,
    greedy_decode_batch,
    init_state,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    token_accuracy,
    train_loop,
    train_step,
)
from oracles import full_recompute_greedy_decode


def tiny_model(**kw):
    base = dict(src_vocab=10, tgt_vocab=10, d_model=8, n_heads=2, d_ffn=12,
                n_enc_layers=1, n_dec_layers=1, max_len=8, dropout=0.0,
                fusion_mode="fuse", fusion_sides="both", seed=2)
    base.update(kw)
    return Seq2SeqModel(ModelConfig(**base))


def toy_pairs(n, seed=0, src_len=4, tgt_len=3, vocab=10):
    r = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        src = r.integers(3, vocab, size=src_len)
        tgt = r.integers(3, vocab, size=tgt_len)
        out.append((src, np.concatenate([[1], tgt]), np.concatenate([tgt, [2]])))
    return out


def train_cfg(**kw):
    base = dict(steps=5, batch_size=4, lr=1e-3, warmup=2, label_smoothing=0.0,
                seed=0, checkpoint_interval=2)
    base.update(kw)
    return TrainConfig(**base)


# -- learning-rate schedule ---------------------------------------------------------


def test_lr_peak_at_warmup():
    cfg = train_cfg(lr=3e-3, warmup=100)
    assert lr_at(100, cfg) == pytest.approx(3e-3)


def test_lr_inverse_sqrt_tail():
    cfg = train_cfg(lr=2e-3, warmup=50)
    assert lr_at(200, cfg) == pytest.approx(1e-3)


def test_lr_monotone_around_warmup():
    cfg = train_cfg(warmup=40)
    ramp = [lr_at(s, cfg) for s in range(1, 41)]
    decay = [lr_at(s, cfg) for s in range(40, 200)]
    assert all(a < b for a, b in zip(ramp, ramp[1:]))
    assert all(a > b for a, b in zip(decay, decay[1:]))


def test_lr_rejects_step_zero():
    with pytest.raises(ValueError):
        lr_at(0, train_cfg())


def test_train_config_validation():
    for kw in (dict(steps=-1), dict(warmup=0), dict(label_smoothing=1.0), dict(lr=-1.0),
               dict(clip_norm=0.0), dict(batch_size=0)):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


def test_train_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        train_cfg().lr = 0.0


# -- batch schedule -----------------------------------------------------------------


def test_batch_indices_cover_each_epoch():
    cfg = train_cfg(batch_size=4, seed=9)
    seen = np.concatenate([batch_indices(s, 12, cfg) for s in range(3)])
    assert sorted(seen.tolist()) == list(range(12))


def test_batch_indices_deterministic_and_epoch_varied():
    cfg = train_cfg(batch_size=4, seed=9)
    assert np.array_equal(batch_indices(2, 12, cfg), batch_indices(2, 12, cfg))
    epoch0 = np.concatenate([batch_indices(s, 12, cfg) for s in range(3)])
    epoch1 = np.concatenate([batch_indices(s, 12, cfg) for s in range(3, 6)])
    assert not np.array_equal(epoch0, epoch1)


def test_batch_size_clamps_to_corpus():
    cfg = train_cfg(batch_size=64)
    assert len(batch_indices(0, 6, cfg)) == 6


# -- single steps -------------------------------------------------------------------


def test_initial_loss_near_uniform():
    # ln V dominates the logit spread only once the vocab is reasonably large
    model = tiny_model(src_vocab=100, tgt_vocab=100, d_model=32, d_ffn=32)
    loss = eval_loss(model, toy_pairs(16, seed=3, vocab=100))
    assert abs(loss - math.log(100)) / math.log(100) < 0.10


def test_one_batch_overfitting_descends():
    model = tiny_model()
    cfg = train_cfg(steps=50, lr=3e-3, warmup=5)
    state = init_state(model, cfg)
    batch = toy_pairs(4, seed=4)
    losses = [train_step(model, batch, cfg, state)["loss"] for _ in range(50)]
    drops = sum(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert drops / (len(losses) - 1) >= 0.9
    assert losses[-1] < losses[0]


def test_zero_learning_rate_freezes_parameters():
    # Freezing by lr 0 is refused when the config is built, so no step runs with it.
    with pytest.raises(ValueError, match="lr"):
        train_cfg(lr=0.0)


@pytest.mark.parametrize("variant, frozen", [
    ("fuse", ["enc.0", "dec.0"]),
    ("fuse_enc", ["enc.0"]),
    ("fuse_dec", ["dec.0"]),
    ("fuse_top", []),  # its one fused layer per side is the top one, layer 1
])
def test_first_fused_layer_query_and_key_get_no_gradient(variant, frozen):
    # Layer 0 attends over the embedding alone with weight exactly 1, so its
    # w_q and w_k are off the tape and keep their initial values.
    mode, sides = VARIANT_NAMES[variant]
    model = tiny_model(n_enc_layers=2, n_dec_layers=2, fusion_mode=mode,
                       fusion_sides=sides)
    cfg = train_cfg(lr=1e-2)
    state = init_state(model, cfg)
    params = model.parameters()
    before = {k: v.data.copy() for k, v in params.items()}
    want = {f"{layer}.fuse.{w}" for layer in frozen for w in ("w_q", "w_k")}
    for step in range(3):
        train_step(model, toy_pairs(4, seed=step), cfg, state)
        assert {name for name, t in params.items() if t.grad is None} == want
    for name, t in params.items():
        assert np.array_equal(t.data, before[name]) == (name in want), name


def test_gradient_clipping_reported_norm():
    model = tiny_model()
    cfg = train_cfg(clip_norm=1e-6)
    state = init_state(model, cfg)
    rec = train_step(model, toy_pairs(2, seed=6), cfg, state)
    assert rec["grad_norm"] > cfg.clip_norm  # raw norm, before scaling


# -- training loop --------------------------------------------------------------------


def test_train_loop_logs_and_checkpoints(tmp_path):
    model = tiny_model()
    stream = io.StringIO()
    cfg = train_cfg(steps=5, checkpoint_interval=2)
    dev = toy_pairs(4, seed=7)
    state, history = train_loop(model, toy_pairs(12, seed=8), cfg, dev_set=dev,
                                out_dir=tmp_path, log_stream=stream)
    assert state.step == 5
    assert len(history) == 5
    lines = [json.loads(l) for l in stream.getvalue().splitlines()]
    assert [l["step"] for l in lines] == [1, 2, 3, 4, 5]
    assert all({"loss", "lr", "grad_norm", "wall_ms"} <= set(l) for l in lines)
    assert "dev_loss" in lines[1]  # checkpoint_interval boundary
    assert (tmp_path / "checkpoint.npz").exists()
    assert (tmp_path / "best.npz").exists()


@pytest.mark.parametrize("steps, interval, want", [
    (4, 200, [("checkpoint.npz", 4)]),
    (6, 3, [("checkpoint.npz", 3), ("checkpoint.npz", 6)]),
])
def test_train_loop_writes_each_checkpoint_once(tmp_path, monkeypatch, steps,
                                                interval, want):
    saves = []
    real_save = training.save_checkpoint

    def counting_save(path, model, state):
        saves.append((Path(path).name, state.step))
        real_save(path, model, state)

    monkeypatch.setattr(training, "save_checkpoint", counting_save)
    cfg = train_cfg(steps=steps, checkpoint_interval=interval)
    train_loop(tiny_model(), toy_pairs(8, seed=15), cfg, out_dir=tmp_path)
    assert saves == want


def test_train_loop_determinism():
    def run():
        model = tiny_model(seed=11)
        cfg = train_cfg(steps=6, seed=3)
        _, history = train_loop(model, toy_pairs(16, seed=9), cfg)
        return [h["loss"] for h in history]

    assert run() == run()


def test_train_loop_rejects_empty_set():
    with pytest.raises(ValueError):
        train_loop(tiny_model(), [], train_cfg())


def test_dropout_training_is_seeded():
    def run():
        model = tiny_model(seed=12, dropout=0.2)
        cfg = train_cfg(steps=4, seed=5)
        _, history = train_loop(model, toy_pairs(8, seed=10), cfg)
        return [h["loss"] for h in history]

    assert run() == run()


# -- greedy decoding ------------------------------------------------------------------


def overfit_single_pair(seed=13, steps=300):
    model = tiny_model(seed=seed, dropout=0.0)
    pair = toy_pairs(1, seed=14)
    cfg = train_cfg(steps=steps, lr=3e-3, warmup=10, batch_size=1)
    state = init_state(model, cfg)
    for _ in range(steps):
        train_step(model, pair, cfg, state)
    return model, pair[0]


def test_greedy_decode_reproduces_overfit_target():
    model, (src, _, tgt_out) = overfit_single_pair()
    tokens, truncated = greedy_decode(model, src, bos_id=1, eos_id=2,
                                      max_new_tokens=10)
    assert not truncated
    assert tokens == tgt_out[:-1].tolist()


def test_greedy_decode_budget_one():
    model = tiny_model()
    tokens, truncated = greedy_decode(model, np.array([3, 4]), 1, 2,
                                      max_new_tokens=1)
    assert len(tokens) <= 1
    if tokens:
        assert truncated


def test_greedy_decode_deterministic():
    model = tiny_model(seed=15)
    src = np.array([4, 7, 3])
    a = greedy_decode(model, src, 1, 2, max_new_tokens=6)
    b = greedy_decode(model, src, 1, 2, max_new_tokens=6)
    assert a == b


def test_greedy_decode_respects_positional_budget():
    model = tiny_model(max_len=4)
    tokens, _ = greedy_decode(model, np.array([3]), 1, 2, max_new_tokens=99)
    assert len(tokens) <= 3  # max_len - 1 slots after BOS


def test_greedy_decode_max_len_one_emits_nothing():
    model = tiny_model(max_len=1)
    assert greedy_decode(model, np.array([3]), 1, 2, max_new_tokens=5) == ([], True)
    sources = [np.array([3]), np.array([4]), np.array([5])]
    assert greedy_decode_batch(model, sources, 1, 2, max_new_tokens=5) == [([], True)] * 3
    assert greedy_decode_batch(model, [], 1, 2, max_new_tokens=5) == []


# -- incremental decoding against full recompute ------------------------------------

VARIANTS = ("vanilla", "fuse", "fuse_enc", "fuse_dec", "fuse_top", "accum")
MAX_NEW = 7  # max_len 8 leaves 7 slots after BOS


def decode_pairs():
    """Training triples of mixed source and target lengths."""
    r = np.random.default_rng(0)
    out = []
    for _ in range(24):
        src = r.integers(3, 10, size=int(r.integers(2, 6)))
        tgt = r.integers(3, 10, size=int(r.integers(1, 5)))
        out.append((src, np.concatenate([[1], tgt]), np.concatenate([tgt, [2]])))
    return out


def decode_model(variant, steps=6):
    """Trained just enough that some sentences stop at EOS and some run out;
    untrained with ``steps=0``."""
    cfg = ModelConfig(src_vocab=10, tgt_vocab=10, d_model=16, n_heads=2, d_ffn=24,
                      n_enc_layers=2, n_dec_layers=2, max_len=8, dropout=0.0, seed=4)
    model = Seq2SeqModel(cfg.with_variant(variant))
    if steps:
        train_loop(model, decode_pairs(), TrainConfig(steps=steps, batch_size=8, lr=3e-3,
                                                      warmup=5, seed=1))
    return model


@pytest.mark.parametrize("variant", VARIANTS)
def test_greedy_decode_matches_full_recompute(variant, monkeypatch):
    model = decode_model(variant)
    sources = [src for src, _, _ in decode_pairs()[:12]]
    want = [full_recompute_greedy_decode(model, src, 1, 2, MAX_NEW) for src in sources]
    step_logits = []
    real_decode = model.decode

    def spy(prefix, enc_out, **kw):
        logits, cache = real_decode(prefix, enc_out, **kw)
        step_logits.append(logits.data[-1].copy())
        return logits, cache

    monkeypatch.setattr(model, "decode", spy)
    for src, (tokens, truncated, logits) in zip(sources, want):
        step_logits.clear()
        assert greedy_decode(model, src, 1, 2, MAX_NEW) == (tokens, truncated)
        assert len(step_logits) == len(logits)
        for got, ref in zip(step_logits, logits):
            assert np.max(np.abs(got - ref)) <= 1e-12
    assert {truncated for _, truncated, _ in want} == {False, True}


@pytest.mark.parametrize("variant", VARIANTS)
def test_greedy_decode_batch_matches_full_recompute(variant, monkeypatch):
    model = decode_model(variant)
    sources = [src for src, _, _ in decode_pairs()]
    want = [full_recompute_greedy_decode(model, src, 1, 2, MAX_NEW)[:2] for src in sources]
    rows = []   # batch rows of the prefix, the source mask and every cache, per call
    real_decode = model.decode

    def spy(prefix, enc_out, *, state, **kw):
        out = real_decode(prefix, enc_out, state=state, **kw)
        caches = state.self_kv + state.cross_kv
        # Sources of mixed lengths build a source mask.
        rows.append({len(prefix), len(state.src_mask)}
                    | {len(c.k.data) for c in caches} | {len(c.v.data) for c in caches})
        return out

    monkeypatch.setattr(model, "decode", spy)
    assert greedy_decode_batch(model, sources, 1, 2, MAX_NEW) == want
    # Row r decodes until its EOS step len(tokens), or through the budget.
    live = [sum(t < len(tokens) + (not truncated) for tokens, truncated in want)
            for t in range(MAX_NEW)]
    assert rows == [{n} for n in live if n]
    assert len({len(src) for src in sources}) > 1
    assert len({len(tokens) for tokens, truncated in want if not truncated}) > 1
    assert {truncated for _, truncated in want} == {False, True}


def test_greedy_decode_batch_chunks_keep_input_order(monkeypatch):
    model = decode_model("fuse")
    sources = [src for src, _, _ in decode_pairs()]
    want = [greedy_decode(model, src, 1, 2, MAX_NEW) for src in sources]
    monkeypatch.setattr(training, "EVAL_BATCH", 3)
    chunks = []   # source lengths of each chunk handed to the decode loop
    real_greedy = training._greedy

    def spy(model, src, src_lengths, *args):
        chunks.append([src.shape[1]] * len(src) if src_lengths is None
                      else src_lengths.tolist())
        return real_greedy(model, src, src_lengths, *args)

    monkeypatch.setattr(training, "_greedy", spy)
    assert greedy_decode_batch(model, sources, 1, 2, MAX_NEW) == want
    assert [n for chunk in chunks for n in chunk] == sorted(len(src) for src in sources)
    assert [len(chunk) for chunk in chunks] == [3] * (len(sources) // 3)
    assert len({len(src) for src in sources}) > 1
    assert {truncated for _, truncated in want} == {False, True}


def test_greedy_decode_batch_of_one_length_builds_no_padding_mask(monkeypatch):
    model = decode_model("fuse")
    sources = [src for src, _, _ in decode_pairs() if len(src) == 5]
    want = [greedy_decode(model, src, 1, 2, MAX_NEW) for src in sources]

    built = []
    real_of = Packing.of.__func__

    def spy(cls, *args, **kwargs):
        built.append(real_of(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(Packing, "of", classmethod(spy))
    assert len(sources) > 1
    assert greedy_decode_batch(model, sources, 1, 2, MAX_NEW) == want
    assert built and all(p.key_mask is None for p in built)
    built.clear()
    greedy_decode_batch(model, sources + [np.array([3, 4])], 1, 2, MAX_NEW)
    assert any(p.key_mask is not None for p in built)


@pytest.mark.parametrize("variant", VARIANTS)
def test_decode_in_chunks_equals_stateless_decode(variant):
    model = decode_model(variant, steps=0)
    r = np.random.default_rng(3)
    for src, prefix in ((r.integers(3, 10, size=5), r.integers(3, 10, size=7)),
                        (r.integers(3, 10, size=(2, 4)), r.integers(3, 10, size=(2, 7)))):
        sentences = len(np.atleast_2d(prefix))
        with no_grad():
            enc_out, _ = model.encode(src)
            whole, _ = model.decode(prefix, enc_out)
            state = DecodeState()
            chunks = [model.decode(prefix[..., :3], enc_out, state=state)[0].data]
            cross_keys = [c.k for c in state.cross_kv]
            for t in range(4, 8):
                logits, cache = model.decode(prefix[..., :t], enc_out, state=state)
                # One new position per sentence: one row each.
                assert len(logits.data) == len(cache.outputs[0].data) == sentences
                chunks.append(logits.data)
        # Each sentence's rows are its part of every chunk, in order.
        rows = [np.concatenate([np.split(c, sentences)[b] for c in chunks])
                for b in range(sentences)]
        assert np.max(np.abs(np.concatenate(rows) - whole.data)) <= 1e-12
        assert [c.k for c in state.cross_kv] == cross_keys  # projected once
        assert [c.k.shape[-2] for c in state.self_kv] == [7, 7]


@pytest.mark.parametrize("variant", VARIANTS)
def test_stateless_decode_is_a_fresh_state(variant):
    model = decode_model(variant, steps=0)
    src = np.array([[3, 4, 5, 6], [7, 8, 0, 0]])
    prefix = np.array([[1, 5, 7, 2], [1, 9, 0, 0]])
    with no_grad():
        enc_out, _ = model.encode(src, lengths=[4, 2])
        runs = [model.decode(prefix, enc_out, src_lengths=[4, 2], **kw)
                for kw in ({}, {"state": DecodeState()})]
    (a, cache_a), (b, cache_b) = runs
    assert np.array_equal(a.data, b.data)
    assert all(np.array_equal(x.data, y.data)
               for x, y in zip(cache_a.outputs, cache_b.outputs, strict=True))
    assert sorted(cache_a.fuse_probs) == sorted(cache_b.fuse_probs)
    assert all(np.array_equal(p, cache_b.fuse_probs[k]) for k, p in cache_a.fuse_probs.items())


def test_decode_state_rejects_a_prefix_that_does_not_extend():
    model = decode_model("fuse", steps=0)
    with no_grad():
        enc_out, _ = model.encode(np.array([3, 4, 5]))
        state = DecodeState()
        model.decode(np.array([1, 4, 5]), enc_out, state=state)
        for bad in ([1, 4, 5], [1, 4], [1, 6, 5, 3], [[1, 4, 5, 3]]):
            with pytest.raises(ShapeError):
                model.decode(np.array(bad), enc_out, state=state)
        # A rejected prefix leaves the state as it was.
        got, _ = model.decode(np.array([1, 4, 5, 3]), enc_out, state=state)
        whole, _ = model.decode(np.array([1, 4, 5, 3]), enc_out)
    assert np.max(np.abs(got.data - whole.data[-1:])) <= 1e-12


def test_cached_decode_steps_run_one_position_per_layer(monkeypatch):
    model = decode_model("fuse", steps=0)
    sources = [np.array([3, 4, 5, 6]), np.array([7, 8])]
    # EOS id 10 is outside the vocabulary, so every sentence uses its budget.
    want = [full_recompute_greedy_decode(model, src, 1, 10, MAX_NEW)[:2] for src in sources]
    rows = []      # (side, positions) of every layer call
    encoded = []   # source length of every encode call
    real_forward, real_encode = _Layer.forward, Seq2SeqModel.encode

    def forward(layer, x, *args, **kwargs):
        rows.append(("dec" if layer.cross_attn is not None else "enc", x.shape[-2]))
        return real_forward(layer, x, *args, **kwargs)

    def encode(self, src_ids, **kwargs):
        encoded.append(len(src_ids))
        return real_encode(self, src_ids, **kwargs)

    monkeypatch.setattr(_Layer, "forward", forward)
    monkeypatch.setattr(Seq2SeqModel, "encode", encode)
    assert [greedy_decode(model, src, 1, 10, MAX_NEW) for src in sources] == want
    assert encoded == [4, 2]
    assert [n for side, n in rows if side == "enc"] == [4, 4, 2, 2]
    assert [n for side, n in rows if side == "dec"] == [1] * (2 * MAX_NEW * 2)


def test_token_accuracy_on_overfit_pair():
    model, pair = overfit_single_pair(seed=16)
    assert token_accuracy(model, [pair]) == 1.0


# -- checkpointing --------------------------------------------------------------------


def fixed_batch():
    return toy_pairs(3, seed=17)


def logits_on(model, batch):
    from layerfuse.tensor import no_grad
    outs = []
    with no_grad():
        for src, tgt_in, _ in batch:
            outs.append(model.forward(src, tgt_in).data.copy())
    return outs


def test_checkpoint_round_trip_bit_identical(tmp_path):
    model = tiny_model(seed=18)
    cfg = train_cfg(steps=3)
    state = init_state(model, cfg)
    for _ in range(3):
        train_step(model, fixed_batch(), cfg, state)
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, state)
    restored, rstate = load_checkpoint(path)
    assert rstate is not None and rstate.step == 3
    for a, b in zip(logits_on(model, fixed_batch()),
                    logits_on(restored, fixed_batch())):
        assert np.array_equal(a, b)
    for name in state.adam_m:
        assert np.array_equal(state.adam_m[name], rstate.adam_m[name])
        assert np.array_equal(state.adam_v[name], rstate.adam_v[name])


def test_checkpoint_meta_holds_only_what_loading_reads(tmp_path):
    model = tiny_model(seed=19)
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, init_state(model, train_cfg(seed=4)))
    with np.load(path) as archive:
        meta = json.loads(archive["meta"].tobytes())
    assert set(meta) == {"format", "version", "model_config", "step", "seed",
                         "best_dev_loss"}
    restored, state = load_checkpoint(path)
    assert (state.step, state.seed, state.best_dev_loss) == (0, 4, None)
    assert restored.config == model.config


@pytest.mark.filterwarnings("error::ResourceWarning",
                            "error::pytest.PytestUnraisableExceptionWarning")
def test_truncated_checkpoint_is_clean_error(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, init_state(model, train_cfg()))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_not_a_checkpoint_is_clean_error(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.ones(3))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    model = tiny_model(seed=22)
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, model, init_state(model, train_cfg()))
    before = {n: p.data.copy() for n, p in model.parameters().items()}
    for p in model.parameters().values():
        p.data = p.data + 1.0

    def partial_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", partial_savez)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, model, init_state(model, train_cfg()))
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.npz"]
    restored, state = load_checkpoint(path)
    assert state is not None
    assert list(restored.parameters()) == list(before)
    for name, p in restored.parameters().items():
        assert np.array_equal(p.data, before[name]), name


def test_resume_matches_uninterrupted_run(tmp_path):
    train_set = toy_pairs(16, seed=20)

    def fresh():
        return tiny_model(seed=21, dropout=0.1)

    cfg10 = train_cfg(steps=10, seed=6, checkpoint_interval=5)
    straight = fresh()
    train_loop(straight, train_set, cfg10)

    cfg5 = train_cfg(steps=5, seed=6, checkpoint_interval=5)
    half = fresh()
    state5, _ = train_loop(half, train_set, cfg5)
    save_checkpoint(tmp_path / "half.npz", half, state5)

    resumed, rstate = load_checkpoint(tmp_path / "half.npz")
    train_loop(resumed, train_set, cfg10, state=rstate)

    pa, pb = straight.parameters(), resumed.parameters()
    for name in pa:
        assert np.array_equal(pa[name].data, pb[name].data), name
