"""Independent reference implementations used to verify the fast paths.

Everything here is deliberately flat, loop-heavy numpy with no imports from
the package's compute graph: a second route to the same numbers. Two
exceptions sit at the end. The per-sentence training oracle runs the
package's single-sentence forward once per sentence on a shared tape: no
padding, no masks, one loss term per sentence. The full-recompute greedy
decoder runs the package's stateless decode over the whole prefix at every
step: no cache.
"""
from __future__ import annotations

import json
import math

import numpy as np


# -- primitive oracles --------------------------------------------------------


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def naive_softmax_rows(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        row = x[i] - x[i].max()
        e = np.exp(row)
        out[i] = e / e.sum()
    return out


def naive_layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                     eps: float = 1e-5) -> np.ndarray:
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        mu = x[i].mean()
        var = ((x[i] - mu) ** 2).mean()
        out[i] = gamma * ((x[i] - mu) / math.sqrt(var + eps)) + beta
    return out


def naive_cross_entropy(logits: np.ndarray, targets: np.ndarray,
                        smoothing: float = 0.0, reduction: str = "mean") -> float:
    n, vocab = logits.shape
    total = 0.0
    for i in range(n):
        p = naive_softmax_rows(logits[i:i + 1])[0]
        q = np.full(vocab, smoothing / vocab)
        q[targets[i]] += 1.0 - smoothing
        total += -np.sum(q * np.log(p))
    return total / n if reduction == "mean" else total


def naive_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                    mask: np.ndarray | None = None):
    """Per-query-row scaled dot attention."""
    n_q, d_k = q.shape
    probs = np.zeros((n_q, k.shape[0]))
    out = np.zeros((n_q, v.shape[1]))
    for i in range(n_q):
        scores = np.array([np.dot(q[i], k[j]) for j in range(k.shape[0])])
        scores = scores / math.sqrt(d_k)
        if mask is not None:
            scores = np.where(mask[i], scores, scores - 1e9)
        e = np.exp(scores - scores.max())
        p = e / e.sum()
        probs[i] = p
        out[i] = sum(p[j] * v[j] for j in range(v.shape[0]))
    return out, probs


def naive_fuse_attention(query: np.ndarray, prevs: list, params,
                         layer_mask: np.ndarray | None = None):
    """Position-at-a-time fuse attention: stack the history, attend, merge."""
    seq, d = query.shape
    n_hist = len(prevs)
    n_heads = params.n_heads
    w_q, w_k, w_v = (np.split(w.data, n_heads, axis=1)
                     for w in (params.w_q, params.w_k, params.w_v))
    d_k = w_q[0].shape[1]
    out = np.zeros((seq, d))
    probs = np.zeros((n_heads, seq, n_hist))
    for t in range(seq):
        hist = np.stack([p[t] for p in prevs])
        head_outs = []
        for i in range(n_heads):
            qv = query[t] @ w_q[i]
            keys = hist @ w_k[i]
            vals = hist @ w_v[i]
            scores = keys @ qv / math.sqrt(d_k)
            if layer_mask is not None:
                scores = np.where(layer_mask, scores, scores - 1e9)
            e = np.exp(scores - scores.max())
            p = e / e.sum()
            probs[i, t] = p
            head_outs.append(p @ vals)
        out[t] = np.concatenate(head_outs) @ params.w_o.data
    return out, probs


# -- metric oracles -------------------------------------------------------------


_SEP = "\x1f"


def oracle_compound_ok(prediction, realizations) -> bool:
    """String containment with token boundaries, over stored realizations."""
    haystack = _SEP + _SEP.join(prediction) + _SEP
    for real in realizations:
        needle = _SEP + _SEP.join(real) + _SEP
        if needle in haystack:
            return True
    return False


def oracle_cter(predictions, examples) -> tuple[float, float]:
    """(instance_rate, aggregate_rate) recounted from example annotations."""
    errors = []
    for pred, ex in zip(predictions, examples):
        errors.append(not oracle_compound_ok(pred, (ex.realization,)))
    instance = sum(errors) / len(errors)
    groups: dict = {}
    for ex, err in zip(examples, errors):
        key = ex.compound_id
        if key is None:
            key = ex.compound.atoms
        groups.setdefault(key, []).append(err)
    aggregate = sum(any(v) for v in groups.values()) / len(groups)
    return instance, aggregate


def oracle_exact_match(predictions, references) -> float:
    hits = 0
    for p, r in zip(predictions, references):
        if len(p) == len(r) and all(a == b for a, b in zip(p, r)):
            hits += 1
    return hits / len(predictions)


# -- corpus serialization and encoding oracles -----------------------------------


def oracle_example_dict(ex) -> dict:
    """The corpus record of ``ex`` as a plain dict."""
    return {
        "src": list(ex.src),
        "tgt": list(ex.tgt),
        "compound": {
            "pattern": ex.compound.pattern,
            "atoms": list(ex.compound.atoms),
            "span": list(ex.span),
            "realizations": [list(ex.realization)],
            "compound_id": ex.compound_id,
        },
        "context_id": ex.context_id,
        "compound_length": ex.compound_length,
        "context_length": ex.context_length,
        "context_bucket": ex.context_bucket,
        "has_mod": ex.has_mod,
    }


def oracle_example_line(ex) -> str:
    """The corpus line of ``ex``: its record through json.dumps, sorted keys,
    no spaces."""
    return json.dumps(oracle_example_dict(ex), sort_keys=True,
                      separators=(",", ":")) + "\n"


def oracle_example_triple(ex, src_vocab, tgt_vocab, bos: int, eos: int):
    """(src_ids, tgt_in_ids, tgt_out_ids) of ``ex``, each its own int64 array."""
    tgt = [tgt_vocab.index[tok] for tok in ex.tgt]
    return (np.array([src_vocab.index[tok] for tok in ex.src], dtype=np.int64),
            np.array([bos, *tgt], dtype=np.int64),
            np.array([*tgt, eos], dtype=np.int64))


# -- flat reference transformer (vanilla, eval mode) ----------------------------


def _ref_softmax(x: np.ndarray) -> np.ndarray:
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def _ref_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    mu = np.mean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    return gamma * (xc * inv) + beta


def _ref_mha(x_q, x_k, x_v, w, prefix, n_heads, mask=None):
    w_q, w_k, w_v = (np.split(w[f"{prefix}.{name}"], n_heads, axis=1)
                     for name in ("w_q", "w_k", "w_v"))
    heads = []
    for i in range(n_heads):
        q = x_q @ w_q[i]
        k = x_k @ w_k[i]
        v = x_v @ w_v[i]
        scores = (q @ k.T) * (1.0 / math.sqrt(q.shape[1]))
        if mask is not None:
            scores = scores + np.where(mask, 0.0, -1e9)
        heads.append(_ref_softmax(scores) @ v)
    merged = np.concatenate(heads, axis=1) if n_heads > 1 else heads[0]
    return merged @ w[f"{prefix}.w_o"]


def _ref_ffn(x, w, prefix):
    hidden = np.maximum(x @ w[f"{prefix}.w1"] + w[f"{prefix}.b1"], 0.0)
    return hidden @ w[f"{prefix}.w2"] + w[f"{prefix}.b2"]


def reference_forward(weights: dict, n_heads: int, n_enc: int, n_dec: int,
                      src: np.ndarray, tgt_in: np.ndarray) -> np.ndarray:
    """Vanilla encoder-decoder forward over raw numpy weights (by name)."""
    w = weights
    d = w["src_embed"].shape[1]
    h = w["src_embed"][src] * math.sqrt(d) + w["src_pos"][np.arange(len(src))]
    for k in range(n_enc):
        p = f"enc.{k}"
        h = _ref_norm(h + _ref_mha(h, h, h, w, f"{p}.self", n_heads),
                      w[f"{p}.norm_self.gamma"], w[f"{p}.norm_self.beta"])
        h = _ref_norm(h + _ref_ffn(h, w, f"{p}.ffn"),
                      w[f"{p}.norm_ffn.gamma"], w[f"{p}.norm_ffn.beta"])
    enc_out = h

    t = len(tgt_in)
    causal = np.tril(np.ones((t, t), dtype=bool))
    g = w["tgt_embed"][tgt_in] * math.sqrt(d) + w["tgt_pos"][np.arange(t)]
    for k in range(n_dec):
        p = f"dec.{k}"
        g = _ref_norm(g + _ref_mha(g, g, g, w, f"{p}.self", n_heads, causal),
                      w[f"{p}.norm_self.gamma"], w[f"{p}.norm_self.beta"])
        g = _ref_norm(g + _ref_mha(g, enc_out, enc_out, w, f"{p}.cross", n_heads),
                      w[f"{p}.norm_cross.gamma"], w[f"{p}.norm_cross.beta"])
        g = _ref_norm(g + _ref_ffn(g, w, f"{p}.ffn"),
                      w[f"{p}.norm_ffn.gamma"], w[f"{p}.norm_ffn.beta"])
    return g @ w["out.w"]


# -- per-sentence training loss ---------------------------------------------------


def per_sentence_loss(model, triples, label_smoothing=0.0, drop_rng=None):
    """A batch's mean token loss with its sentences run one at a time.

    Each sentence's summed NLL is a separate term on one tape; the total is
    divided by the token count. With ``drop_rng``, every sentence's forward
    draws its own dropout masks from the stream in turn.
    """
    from layerfuse.tensor import cross_entropy

    total, tokens = None, 0
    for src, tgt_in, tgt_out in triples:
        logits = model.forward(src, tgt_in, drop_rng=drop_rng)
        nll = cross_entropy(logits, tgt_out, label_smoothing, reduction="sum")
        total = nll if total is None else total + nll
        tokens += len(tgt_out)
    return total * (1.0 / tokens)


# -- full-recompute greedy decoding ------------------------------------------------


def full_recompute_greedy_decode(model, src_ids, bos_id, eos_id, max_new_tokens):
    """Greedy decoding that reruns the whole prefix through the decoder per token.

    Same contract as ``training.greedy_decode``; returns (tokens, truncated,
    step_logits), where step_logits[i] is the last logit row of step i.
    """
    from layerfuse.tensor import no_grad

    budget = min(max_new_tokens, model.config.max_len - 1)
    out, step_logits = [], []
    with no_grad():
        enc_out, _ = model.encode(src_ids)
        prefix = [bos_id]
        while len(out) < budget:
            logits, _ = model.decode(np.asarray(prefix, dtype=np.int64), enc_out)
            step_logits.append(logits.data[-1].copy())
            nxt = int(np.argmax(logits.data[-1]))
            if nxt == eos_id:
                return out, False, step_logits
            out.append(nxt)
            prefix.append(nxt)
    return out, True, step_logits
