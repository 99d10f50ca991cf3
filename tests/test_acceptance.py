"""End-to-end acceptance gate.

Each test checks one shipping criterion at its stated tolerance and prints a
single PASS/FAIL line (visible even under pytest's capture) so a full run
reads as a checklist. Failures still surface as ordinary assertion errors.
"""
import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from layerfuse.attention import AttentionParams, scaled_dot_attention
from layerfuse.cli import main
from layerfuse.compgen import CorpusSpec, cter, exact_match, generate_corpus, triples
from layerfuse.fusion import accumulate_previous, fuse_attention_core
from layerfuse.model import ModelConfig, Seq2SeqModel
from layerfuse.tensor import (
    Tensor,
    concat,
    cross_entropy,
    embedding_lookup,
    grad_check,
    layer_norm,
    no_grad,
    softmax,
)
from layerfuse.training import TrainConfig, init_state, token_accuracy, train_step
from oracles import oracle_cter, oracle_exact_match, reference_forward

VARIANTS = ("vanilla", "fuse", "fuse_enc", "fuse_dec", "fuse_top", "accum")


def report(capsys, name, ok, detail=""):
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def small_model(variant="fuse", seed=11, **kw):
    base = dict(src_vocab=7, tgt_vocab=7, d_model=16, n_heads=2, d_ffn=16,
                n_enc_layers=2, n_dec_layers=2, max_len=6, dropout=0.0,
                seed=seed)
    base.update(kw)
    return Seq2SeqModel(ModelConfig(**base).with_variant(variant))


def random_sentence_pair(r, max_len=6, vocab=7):
    src = r.integers(3, vocab, size=int(r.integers(1, max_len)))
    tgt_in = np.concatenate([[1], r.integers(3, vocab,
                                             size=int(r.integers(0, max_len - 1)))])
    return src, tgt_in


# -- 1: gradient fidelity --------------------------------------------------------


def _op_checks():
    r = np.random.default_rng(101)
    checks = []

    def add(name, f, *wrt):
        checks.append((name, f, list(wrt)))

    a = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    row = Tensor(r.standard_normal(4), requires_grad=True)
    m = Tensor(r.standard_normal((4, 5)), requires_grad=True)
    gamma = Tensor(r.standard_normal(4), requires_grad=True)
    beta = Tensor(r.standard_normal(4), requires_grad=True)
    table = Tensor(r.standard_normal((6, 3)), requires_grad=True)
    logits = Tensor(r.standard_normal((4, 5)), requires_grad=True)
    targets = np.array([0, 4, 2, 2])
    weight = Tensor(r.standard_normal((3, 4)))

    add("add", lambda: (a + b).sum(), a, b)
    add("add-broadcast", lambda: (a + row).sum(), a, row)
    add("neg", lambda: (-a).sum(), a)
    add("sub", lambda: (a - b).sum(), a, b)
    add("mul", lambda: (a * b).sum(), a, b)
    add("mul-broadcast", lambda: (a * row).sum(), a, row)
    add("matmul", lambda: a.matmul(m).sum(), a, m)
    add("sum-axis", lambda: (a.sum(axis=1, keepdims=True) * a.sum(axis=1,
        keepdims=True)).sum(), a)
    add("cols", lambda: (a.cols(1, 3) * a.cols(0, 2)).sum(), a)
    add("relu", lambda: (a.relu() * weight).sum(), a)
    add("softmax", lambda: (softmax(a) * weight).sum(), a)
    add("concat", lambda: (concat([a, b], axis=1)
                           * concat([b, a], axis=1)).sum(), a, b)
    add("embedding", lambda: (embedding_lookup(table, np.array([0, 5, 0]))
                              * weight.cols(0, 3)).sum(), table)
    add("layer-norm", lambda: (layer_norm(a, gamma, beta) * weight).sum(),
        a, gamma, beta)
    add("cross-entropy", lambda: cross_entropy(logits, targets), logits)
    add("cross-entropy-smoothed",
        lambda: cross_entropy(logits, targets, label_smoothing=0.1,
                              reduction="sum"), logits)
    return checks


def test_criterion_01_gradient_fidelity(capsys):
    t0 = time.perf_counter()
    worst_name, worst = "none", 0.0
    for name, f, wrt in _op_checks():
        err = grad_check(f, wrt=wrt)
        if err > worst:
            worst_name, worst = name, err

    model = small_model("fuse")
    src = np.array([3, 4, 5, 6])
    tgt_in = np.array([1, 3, 4])
    tgt_out = np.array([3, 4, 2])

    def full():
        return cross_entropy(model.forward(src, tgt_in), tgt_out)

    n_coords = sum(t.data.size for t in model.parameters().values())
    err = grad_check(full, wrt=list(model.parameters().values()))
    if err > worst:
        worst_name, worst = "full-model", err
    elapsed = time.perf_counter() - t0
    report(capsys, "gradient fidelity", worst < 1e-4 and elapsed < 60.0,
           f"max rel err {worst:.3e} [{worst_name}], {n_coords} model coords, "
           f"{elapsed:.1f}s")


# -- 2: attention normalization ----------------------------------------------------


def test_criterion_02_attention_normalization(capsys):
    r = np.random.default_rng(202)
    worst_sum = 0.0
    masked_leak = 0.0
    for trial in range(500):
        n_q, n_k, d = (int(r.integers(1, 7)) for _ in range(3))
        d += 1
        q, k = Tensor(r.standard_normal((n_q, d))), Tensor(r.standard_normal((n_k, d)))
        v = Tensor(r.standard_normal((n_k, 3)))
        mask = None
        if trial % 2:
            mask = r.random((n_q, n_k)) < 0.6
            mask[np.arange(n_q), r.integers(0, n_k, size=n_q)] = True
        _, probs = scaled_dot_attention(q, k, v, mask)
        worst_sum = max(worst_sum, np.abs(probs.data.sum(axis=1) - 1.0).max())
        if mask is not None and (~mask).any():
            masked_leak = max(masked_leak, np.abs(probs.data[~mask]).max())
    for trial in range(500):
        d, seq = 2 * int(r.integers(1, 4)), int(r.integers(1, 6))
        n_hist = int(r.integers(1, 5))
        params = AttentionParams.create(r, d_model=d, n_heads=2)
        hist = [Tensor(r.standard_normal((seq, d))) for _ in range(n_hist)]
        layer_mask = None
        if trial % 2:
            layer_mask = r.random(n_hist) < 0.6
            layer_mask[int(r.integers(n_hist))] = True
        _, probs = fuse_attention_core(Tensor(r.standard_normal((seq, d))),
                                       hist, params, layer_mask)
        for p in probs:
            worst_sum = max(worst_sum, np.abs(p.data.sum(axis=1) - 1.0).max())
            if layer_mask is not None and (~layer_mask).any():
                masked_leak = max(masked_leak, np.abs(p.data[:, ~layer_mask]).max())
    report(capsys, "attention normalization",
           worst_sum < 1e-9 and masked_leak == 0.0,
           f"1000 calls, max |row sum - 1| {worst_sum:.2e}, "
           f"masked leak {masked_leak:.1e}")


# -- 3: vanilla equivalence ---------------------------------------------------------


def test_criterion_03_vanilla_equivalence(capsys):
    model = small_model("vanilla", seed=31)
    weights = {name: t.data for name, t in model.parameters().items()}
    cfg = model.config
    r = np.random.default_rng(303)
    identical = 0
    for _ in range(100):
        src, tgt_in = random_sentence_pair(r)
        with no_grad():
            got = model.forward(src, tgt_in).data
        want = reference_forward(weights, cfg.n_heads, cfg.n_enc_layers,
                                 cfg.n_dec_layers, src, tgt_in)
        if np.array_equal(got, want):
            identical += 1
    report(capsys, "plain-variant equivalence", identical == 100,
           f"{identical}/100 batches bit-identical to independent forward")


# -- 4: accumulation exactness --------------------------------------------------------


def test_criterion_04_accumulation_exactness(capsys):
    model = small_model("accum", seed=41)
    r = np.random.default_rng(404)
    exact = True
    layers_checked = 0
    for _ in range(10):
        src, tgt_in = random_sentence_pair(r)
        with no_grad():
            enc_out, enc_cache = model.encode(src)
            _, dec_cache = model.decode(tgt_in, enc_out)
        for cache in (enc_cache, dec_cache):
            for i, consumed in enumerate(cache.layer_inputs):
                want = cache.outputs[0].data
                for layer_out in cache.outputs[1: i + 1]:
                    want = want + layer_out.data
                exact &= np.array_equal(consumed.data, want)
                layers_checked += 1
    report(capsys, "running-sum exactness", exact,
           f"{layers_checked} layer inputs bitwise equal to fixed-order sums")


# -- 5: parameter accounting ---------------------------------------------------------


def test_criterion_05_parameter_accounting(capsys):
    ok = True
    details = []
    for d, n_enc, n_dec in ((16, 2, 2), (32, 3, 2)):
        counts = {
            v: small_model(v, d_model=d, d_ffn=24, n_enc_layers=n_enc,
                           n_dec_layers=n_dec).param_count()
            for v in VARIANTS
        }
        block = 4 * d * d
        ok &= counts["fuse"] - counts["vanilla"] == (n_enc + n_dec) * block
        ok &= counts["fuse_top"] - counts["vanilla"] == 2 * block
        ok &= counts["fuse_enc"] - counts["vanilla"] == n_enc * block
        ok &= counts["fuse_dec"] - counts["vanilla"] == n_dec * block
        ok &= counts["accum"] == counts["vanilla"]
        details.append(f"d={d}: +{(n_enc + n_dec) * block} full, "
                       f"+{2 * block} top, +0 accum")
    report(capsys, "parameter accounting", ok, "; ".join(details))


# -- 6: causality ---------------------------------------------------------------------


def test_criterion_06_causality(capsys):
    models = {v: small_model(v, seed=61) for v in VARIANTS}
    r = np.random.default_rng(606)
    trials = 50
    clean = 0
    for _ in range(trials):
        src = r.integers(3, 7, size=int(r.integers(1, 6)))
        t = int(r.integers(2, 6))
        prefix = np.concatenate([[1], r.integers(3, 7, size=t - 1)])
        cut = int(r.integers(1, t))
        perturbed = prefix.copy()
        perturbed[cut:] = r.integers(3, 7, size=t - cut)
        ok = True
        for model in models.values():
            with no_grad():
                enc_out, _ = model.encode(src)
                base, _ = model.decode(prefix, enc_out)
                moved, _ = model.decode(perturbed, enc_out)
            ok &= np.array_equal(base.data[:cut], moved.data[:cut])
        clean += ok
    report(capsys, "causal decoding", clean == trials,
           f"{clean}/{trials} future-perturbation trials bit-identical over "
           f"{len(VARIANTS)} variants")


# -- 7: overfit sanity ------------------------------------------------------------------


def test_criterion_07_overfit_sanity(capsys):
    t0 = time.perf_counter()
    r = np.random.default_rng(707)
    vocab = 20
    pairs = []
    for _ in range(64):
        src = r.integers(3, vocab, size=5)
        tgt = r.integers(3, vocab, size=4)
        pairs.append((src, np.concatenate([[1], tgt]),
                      np.concatenate([tgt, [2]])))
    model = Seq2SeqModel(ModelConfig(
        src_vocab=vocab, tgt_vocab=vocab, d_model=32, n_heads=4, d_ffn=64,
        n_enc_layers=2, n_dec_layers=2, max_len=8, dropout=0.0,
        variant="fuse", seed=71))
    cfg = TrainConfig(steps=2000, batch_size=8, lr=3e-3, warmup=100,
                      label_smoothing=0.0, seed=7)
    state = init_state(model, cfg)
    acc = 0.0
    while state.step < cfg.steps:
        batch = [pairs[i] for i in
                 np.random.default_rng([7, state.step]).integers(0, 64, size=8)]
        train_step(model, batch, cfg, state)
        if state.step % 50 == 0:
            acc = token_accuracy(model, pairs)
            if acc >= 0.99:
                break
    elapsed = time.perf_counter() - t0
    report(capsys, "overfit sanity", acc >= 0.99 and elapsed < 300.0,
           f"token accuracy {acc:.3f} at step {state.step}, {elapsed:.1f}s")


# -- 8: metric oracle equivalence ---------------------------------------------------------


@pytest.fixture(scope="module")
def metric_corpus():
    return generate_corpus(CorpusSpec(
        n_np=8, n_vp=8, n_pp=8, n_mod=8, n_context_tokens=12, n_contexts=10,
        min_context_len=2, max_context_len=8, n_train=200, n_dev=0, n_test=0,
        n_cg_compounds=20, contexts_per_compound=3, seed=8))


def _mutate(pred, r):
    op = int(r.integers(5))
    pred = list(pred)
    if op == 1 and len(pred) > 1:
        del pred[int(r.integers(len(pred)))]
    elif op == 2:
        r.shuffle(pred)
    elif op == 3:
        pred = [f"Z{int(r.integers(40))}" for _ in pred]
    elif op == 4:
        pred = pred[: max(1, len(pred) // 2)]
    return pred


def test_criterion_08_metric_oracle_equivalence(metric_corpus, capsys):
    examples = metric_corpus.cg_test
    r = np.random.default_rng(808)
    agree = 0
    for _ in range(200):
        preds = [_mutate(ex.tgt, r) for ex in examples]
        refs = [list(ex.tgt) for ex in examples]
        rep = cter(preds, examples, metric_corpus.dictionary)
        want_inst, want_agg = oracle_cter(preds, examples)
        em = exact_match(preds, refs)
        agree += (rep.instance_rate == want_inst
                  and rep.aggregate_rate == want_agg
                  and em == oracle_exact_match(preds, refs))
    report(capsys, "metric oracle equivalence", agree == 200,
           f"{agree}/200 randomized prediction sets recounted exactly")


# -- 9: desk-scale sweep -------------------------------------------------------------------


def _check_fuse_probs_file(path, n_enc, n_dec):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    groups: dict = {}
    for row in rows:
        key = (row["side"], int(row["layer"]))
        groups.setdefault(key, []).append(
            (int(row["prev_layer"]), float(row["probability"])))
    for (side, layer), cells in groups.items():
        prevs = [c[0] for c in cells]
        # lower-triangular support: layer l sees exactly layers 0..l-1
        assert prevs == list(range(layer)), (path, side, layer)
        total = sum(c[1] for c in cells)
        assert abs(total - 1.0) < 1e-6, (path, side, layer, total)
    multi = [cells for cells in groups.values() if len(cells) > 1]
    if multi:
        spread = max(max(p for _, p in cells) - min(p for _, p in cells)
                     for cells in multi)
        assert spread > 1e-6, (path, "fuse distribution is exactly uniform")
    return len(groups)


def test_criterion_09_desk_scale_sweep(tmp_path, capsys):
    t0 = time.perf_counter()
    out = tmp_path / "sweep"
    overrides = []
    for assignment in ("model.d_model=32", "model.n_heads=4", "model.d_ffn=64",
                       "train.steps=80", "train.batch_size=8",
                       "train.warmup=40", "analysis_examples=32",
                       "eval_max_new_tokens=24"):
        overrides += ["--set", assignment]
    rc = main(["sweep", "--out", str(out),
               "--variants", ",".join(VARIANTS), "--seeds", "0,1,2"]
              + overrides)
    assert rc == 0
    rows = list(csv.DictReader(open(out / "sweep_results.csv", newline="")))
    assert len(rows) == len(VARIANTS) * 3
    for row in rows:
        assert row["variant"] in VARIANTS
        for key in ("cter_instance", "cter_aggregate", "exact_match"):
            assert 0.0 <= float(row[key]) <= 1.0, (row["variant"], key)
        assert int(row["params"]) > 0
    by_variant = {v: [r for r in rows if r["variant"] == v] for v in VARIANTS}
    assert all(len(v) == 3 for v in by_variant.values())
    d = 32
    assert all(int(r["added_params"]) == 0 for r in by_variant["accum"])
    assert all(int(r["added_params"]) == 4 * 4 * d * d
               for r in by_variant["fuse"])
    assert all(int(r["added_params"]) == 2 * 4 * d * d
               for r in by_variant["fuse_top"])

    md = (out / "sweep_results.md").read_text().splitlines()
    assert md[0].startswith("| variant |") and md[1].startswith("|---")
    assert len(md) == 2 + len(VARIANTS)

    prob_groups = 0
    for variant in ("fuse", "fuse_enc", "fuse_dec", "fuse_top"):
        for seed in (0, 1, 2):
            prob_groups += _check_fuse_probs_file(
                out / "runs" / f"{variant}-s{seed}" / "fuse_probs.csv", 2, 2)
    for variant in ("vanilla", "accum"):
        assert not (out / "runs" / f"{variant}-s0" / "fuse_probs.csv").exists()
    elapsed = time.perf_counter() - t0
    report(capsys, "desk-scale sweep", elapsed < 7200.0,
           f"{len(rows)} runs, {prob_groups} fuse-prob rows checked, "
           f"{elapsed:.0f}s (< 2h budget)")


# -- 10: pipeline determinism ------------------------------------------------------------


def test_criterion_10_pipeline_determinism(tmp_path, capsys):
    overrides = []
    for assignment in (
            "corpus.n_np=8", "corpus.n_vp=8", "corpus.n_pp=8", "corpus.n_mod=8",
            "corpus.n_context_tokens=10", "corpus.n_contexts=10",
            "corpus.max_context_len=8", "corpus.n_train=200",
            "corpus.n_dev=24", "corpus.n_test=24", "corpus.n_cg_compounds=8",
            "corpus.contexts_per_compound=3",
            "model.d_model=16", "model.n_heads=2", "model.d_ffn=24",
            "model.max_len=32",
            "train.steps=6", "train.batch_size=8", "train.warmup=3",
            "train.checkpoint_interval=3", "eval_max_new_tokens=10"):
        overrides += ["--set", assignment]

    blobs = []
    for name in ("one", "two"):
        base = tmp_path / name
        data, run = base / "data", base / "run"
        data_override = ["--set", f"data_dir={data}"]
        assert main(["gen", "--out", str(data), "--seed", "3"] + overrides) == 0
        assert main(["train", "--out", str(run), "--seed", "3"]
                    + overrides + data_override) == 0
        assert main(["eval", "--out", str(run), "--split", "cg_test",
                     "--seed", "3"] + overrides + data_override) == 0
        blobs.append((run / "metrics_cg_test.json").read_bytes())
    report(capsys, "pipeline determinism", blobs[0] == blobs[1],
           f"metrics JSON identical across runs ({len(blobs[0])} bytes)")
