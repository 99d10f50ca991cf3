"""Synthetic corpus generation, holdout guarantees, and the two metrics."""
import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfuse import compgen
from layerfuse.compgen import (
    BOS,
    EOS,
    PAD,
    PATTERNS,
    SPECIALS,
    Compound,
    CorpusSpec,
    Example,
    GenerationError,
    Vocabulary,
    _emission_order,
    bucket_context_length,
    check_compound,
    cter,
    exact_match,
    example_to_triple,
    generate_corpus,
    load_corpus,
    realize_compound,
    write_corpus,
)
from oracles import oracle_compound_ok, oracle_cter, oracle_exact_match


def small_spec(**kw):
    base = dict(n_np=8, n_vp=8, n_pp=8, n_mod=8, n_context_tokens=12,
                n_contexts=10, min_context_len=2, max_context_len=8,
                n_train=300, n_dev=40, n_test=40, n_cg_compounds=20,
                contexts_per_compound=3, seed=0)
    base.update(kw)
    return CorpusSpec(**base)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(small_spec())


# -- spec validation ------------------------------------------------------------


def test_spec_round_trip():
    spec = small_spec(patterns=("np_mod", "vp_np"))
    assert CorpusSpec(**spec.to_dict()) == spec
    assert small_spec(patterns=["np_mod", "vp_np"]) == spec


def test_spec_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        small_spec().n_np = 9


def test_spec_rejects_unknown_pattern():
    with pytest.raises(GenerationError):
        small_spec(patterns=("np_pp",))
    for name in (["np_mod"], 3, None):
        with pytest.raises(GenerationError, match="unknown pattern"):
            small_spec(patterns=(name,))


def test_spec_rejects_empty_inventory_for_needed_role():
    with pytest.raises(GenerationError):
        small_spec(n_mod=0)
    small_spec(n_mod=0, patterns=("vp_np", "pp_np"))


def test_spec_rejects_too_few_contexts():
    with pytest.raises(GenerationError):
        small_spec(n_contexts=2, contexts_per_compound=3)


def test_degenerate_inventory_has_no_feasible_holdout():
    spec = small_spec(n_np=1, n_vp=1, n_pp=1, n_mod=1)
    with pytest.raises(GenerationError):
        generate_corpus(spec)


# -- target-side grammar ----------------------------------------------------------


def test_emission_order_moves_mod_before_head():
    assert _emission_order(PATTERNS["np_mod"]) == [1, 0]
    assert _emission_order(PATTERNS["vp_np"]) == [0, 1]
    assert _emission_order(PATTERNS["vp_np_mod"]) == [0, 2, 1]
    assert _emission_order(PATTERNS["vp_pp_np_mod"]) == [0, 1, 3, 2]


def test_realize_compound_reorders_and_expands():
    dictionary = {
        "v1": ("V1",),
        "n1": ("N1",),
        "m1": ("M1", "K1"),
    }
    comp = Compound("vp_np_mod", ("v1", "n1", "m1"))
    assert realize_compound(comp, dictionary) == ("V1", "M1", "K1", "N1")


def test_realize_missing_atom_is_error():
    with pytest.raises(GenerationError):
        realize_compound(Compound("vp_np", ("v1", "n9")), {"v1": ("V1",)})


# -- generated corpus invariants -----------------------------------------------------


def test_split_sizes_match_spec(corpus):
    spec = corpus.spec
    assert len(corpus.train) == spec.n_train
    assert len(corpus.dev) == spec.n_dev
    assert len(corpus.test) == spec.n_test
    assert len(corpus.cg_test) == spec.n_cg_compounds * spec.contexts_per_compound


def test_vocab_specials_pinned(corpus):
    for vocab in (corpus.src_vocab, corpus.tgt_vocab):
        assert vocab.tokens[:3] == list(SPECIALS)
        assert (PAD, BOS, EOS) == (0, 1, 2)


def test_source_and_target_alphabets_disjoint(corpus):
    src = set(corpus.src_vocab.tokens[3:])
    tgt = set(corpus.tgt_vocab.tokens[3:])
    assert not src & tgt


def test_every_cg_compound_absent_from_train(corpus):
    sep = "\x1f"
    train_blobs = [sep + sep.join(ex.src) + sep for ex in corpus.train]
    held = {ex.compound.atoms for ex in corpus.cg_test}
    assert len(held) == corpus.spec.n_cg_compounds
    for atoms in held:
        needle = sep + sep.join(atoms) + sep
        assert all(needle not in blob for blob in train_blobs), atoms


def test_cg_compounds_each_in_k_distinct_contexts(corpus):
    k = corpus.spec.contexts_per_compound
    by_compound: dict = {}
    for ex in corpus.cg_test:
        by_compound.setdefault(ex.compound_id, []).append(ex.context_id)
    assert len(by_compound) == corpus.spec.n_cg_compounds
    for ctx_ids in by_compound.values():
        assert len(ctx_ids) == k
        assert len(set(ctx_ids)) == k


def test_train_covers_every_atom(corpus):
    spec = corpus.spec
    wanted = ({f"n{i}" for i in range(spec.n_np)}
              | {f"v{i}" for i in range(spec.n_vp)}
              | {f"p{i}" for i in range(spec.n_pp)}
              | {f"m{i}" for i in range(spec.n_mod)})
    seen = {atom for ex in corpus.train for atom in ex.compound.atoms}
    assert wanted <= seen


def test_compound_span_points_at_atoms(corpus):
    for ex in corpus.train[:50] + corpus.cg_test[:50]:
        lo, hi = ex.span
        assert tuple(ex.src[lo:hi]) == ex.compound.atoms


def test_target_contains_a_stored_realization(corpus):
    for ex in corpus.train[:50] + corpus.cg_test[:50]:
        assert oracle_compound_ok(ex.tgt, (ex.realization,))


def test_example_annotation_consistency(corpus):
    for ex in corpus.train[:50]:
        assert ex.compound_length == len(ex.compound.atoms)
        assert ex.context_bucket == bucket_context_length(ex.context_length)
        assert ex.has_mod == ("mod" in PATTERNS[ex.compound.pattern])


def test_generation_is_deterministic():
    a = generate_corpus(small_spec(seed=4))
    b = generate_corpus(small_spec(seed=4))
    assert [ex.to_dict() for ex in a.train] == [ex.to_dict() for ex in b.train]
    assert [ex.to_dict() for ex in a.cg_test] == [ex.to_dict() for ex in b.cg_test]


def test_bucket_boundaries():
    assert bucket_context_length(5) == "<6"
    assert bucket_context_length(6) == "6-8"
    assert bucket_context_length(8) == "6-8"
    assert bucket_context_length(9) == "9-12"
    assert bucket_context_length(12) == "9-12"
    assert bucket_context_length(13) == "13+"


# -- disk round trip ---------------------------------------------------------------


def test_write_load_round_trip(tmp_path, corpus):
    write_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    assert loaded.spec == corpus.spec
    assert loaded.src_vocab.tokens == corpus.src_vocab.tokens
    for name in ("train", "dev", "test", "cg_test"):
        got = [ex.to_dict() for ex in loaded.split(name)]
        want = [ex.to_dict() for ex in corpus.split(name)]
        assert got == want
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["counts"]["train"] == corpus.spec.n_train


def test_rewrite_is_byte_identical(tmp_path, corpus):
    write_corpus(corpus, tmp_path / "a")
    write_corpus(corpus, tmp_path / "b")
    for name in ("train", "dev", "test", "cg_test", "manifest"):
        ext = "json" if name == "manifest" else "jsonl"
        assert ((tmp_path / "a" / f"{name}.{ext}").read_bytes()
                == (tmp_path / "b" / f"{name}.{ext}").read_bytes())


# sha256 of each file write_corpus writes for small_spec(). A change to the
# example or manifest serialization changes these and breaks corpora written
# before it.
PINNED_CORPUS_FILES = {
    "train.jsonl": "90e16a459acf505c3c72fcd83cc1f0b15e5534a6f6c821aff96b1721e0f3a0ad",
    "dev.jsonl": "ea68f51e0e44e8cf445a88b1c0548c3e1d9ab87295d2c44576e1e166a42a66f0",
    "test.jsonl": "1c308eb334b7267dc51a072e004d0698539318e990a46307a018eca798d671d8",
    "cg_test.jsonl": "17455190d01327f55acd6f13674c7254c23e6b62159d65d68f2af668d227fad0",
    "manifest.json": "66e19ab018a3af31a4a3d31ade010e98801ff9071dae2ade352c099c7a27b9d4",
}


def test_written_files_match_pinned_hashes(tmp_path, corpus):
    write_corpus(corpus, tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED_CORPUS_FILES}
    assert got == PINNED_CORPUS_FILES


# sha256 of each file write_corpus writes for the default CorpusSpec().
# load_corpus refuses a corpus whose files differ from what its manifest's spec
# generates, so a generator change that moves these makes every default corpus
# already on disk unloadable.
PINNED_DEFAULT_CORPUS_FILES = {
    "train.jsonl": "787598daf0bea35a53de5a246c22696d3a0047c9a071e1a1e16a60a0e54edb06",
    "dev.jsonl": "66a2bf7a5e069080b5120fee471bd6550e1488e529efd55832be8c6c5f15df5a",
    "test.jsonl": "53d70a82ad032fe3597f847cd305d7edf9d565e13cb2b4b4af356101bc343e35",
    "cg_test.jsonl": "46e1a8b21f3cca3066bcf40ce02dc7550ca58ac54001623b599b345a324e8443",
    "manifest.json": "3d097c9f6788b4877dcbe77de583251712f6372186947689ed323fea8a174382",
}


def test_default_corpus_files_match_pinned_hashes(tmp_path):
    write_corpus(generate_corpus(CorpusSpec()), tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED_DEFAULT_CORPUS_FILES}
    assert got == PINNED_DEFAULT_CORPUS_FILES


CORPUS_FILES = ("train.jsonl", "dev.jsonl", "test.jsonl", "cg_test.jsonl", "manifest.json")


@pytest.mark.parametrize("fail_after", [100, 320])  # inside train.jsonl, dev.jsonl
def test_failed_write_keeps_every_file_whole(tmp_path, corpus, monkeypatch, fail_after):
    other = generate_corpus(small_spec(seed=1))
    write_corpus(other, tmp_path / "other")
    write_corpus(corpus, tmp_path / "data")
    old = {name: (tmp_path / "data" / name).read_bytes() for name in CORPUS_FILES}
    new = {name: (tmp_path / "other" / name).read_bytes() for name in CORPUS_FILES}
    calls = iter(range(fail_after + 1))
    to_dict = Example.to_dict

    def failing_to_dict(ex):
        if next(calls) == fail_after:
            raise OSError("disk full")
        return to_dict(ex)

    monkeypatch.setattr(Example, "to_dict", failing_to_dict)
    with pytest.raises(OSError, match="disk full"):
        write_corpus(other, tmp_path / "data")
    monkeypatch.undo()
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == sorted(CORPUS_FILES)
    got = {name: (tmp_path / "data" / name).read_bytes() for name in CORPUS_FILES}
    assert all(got[name] in (old[name], new[name]) for name in CORPUS_FILES)
    assert got["manifest.json"] == old["manifest.json"]  # the manifest goes last
    if fail_after < corpus.spec.n_train:
        assert got == old
        loaded = load_corpus(tmp_path / "data")
        assert loaded.spec == corpus.spec
        for name in ("train", "dev", "test", "cg_test"):
            assert ([ex.to_dict() for ex in loaded.split(name)]
                    == [ex.to_dict() for ex in corpus.split(name)])
    else:  # the new train.jsonl beside the old dev split and manifest
        assert got["train.jsonl"] == new["train.jsonl"]
        with pytest.raises(ValueError, match="train.jsonl line 1 differs"):
            load_corpus(tmp_path / "data")


def test_load_rejects_split_sizes_off_the_manifest(tmp_path, corpus):
    write_corpus(corpus, tmp_path)
    lines = (tmp_path / "dev.jsonl").read_text().splitlines(keepends=True)
    (tmp_path / "dev.jsonl").write_text("".join(lines[:-1]))
    with pytest.raises(ValueError, match=f"dev.jsonl holds {len(lines) - 1} examples"):
        load_corpus(tmp_path)
    write_corpus(corpus, tmp_path)
    (tmp_path / "test.jsonl").unlink()
    with pytest.raises(ValueError, match="test.jsonl holds 0 examples"):
        load_corpus(tmp_path)


def test_load_refuses_a_spec_count_off_the_files_before_generating(tmp_path, corpus,
                                                                  monkeypatch):
    write_corpus(corpus, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["spec"]["n_train"] = 50000
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))

    def no_generation(spec):
        raise AssertionError("generated a corpus for a spec its files do not fit")

    monkeypatch.setattr(compgen, "generate_corpus", no_generation)
    with pytest.raises(ValueError, match=f"train.jsonl holds {corpus.spec.n_train} "
                                         "examples, but .*manifest.json counts 50000"):
        load_corpus(tmp_path)


def test_split_sizes_are_what_generation_makes(corpus):
    assert corpus.spec.split_sizes() == {name: len(corpus.split(name))
                                         for name in compgen.SPLITS}


def test_load_without_manifest_fails(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path)


# -- compound correctness check -----------------------------------------------------


def test_reference_prediction_is_correct(corpus):
    ex = corpus.cg_test[0]
    assert check_compound(list(ex.tgt), ex, corpus.dictionary)


def test_deleting_realization_breaks_prediction(corpus):
    ex = corpus.cg_test[0]
    lo = None
    real = ex.realization
    for start in range(len(ex.tgt) - len(real) + 1):
        if tuple(ex.tgt[start:start + len(real)]) == real:
            lo = (start, start + len(real))
    assert lo is not None
    pred = list(ex.tgt[: lo[0]]) + list(ex.tgt[lo[1]:])
    assert not check_compound(pred, ex, corpus.dictionary)


def test_scrambled_interior_breaks_contiguity(corpus):
    dictionary = {"v0": ("V0",), "n0": ("N0",)}
    ex = Example(
        src=("v0", "n0"), tgt=("V0", "N0"),
        compound=Compound("vp_np", ("v0", "n0")), span=(0, 2),
        realization=("V0", "N0"), context_id=0)
    assert check_compound(["V0", "N0"], ex, dictionary)
    assert check_compound(["X", "V0", "N0", "Y"], ex, dictionary)
    assert not check_compound(["V0", "X", "N0"], ex, dictionary)
    assert not check_compound(["N0", "V0"], ex, dictionary)


def test_randomized_checks_agree_with_substring_oracle(corpus):
    r = np.random.default_rng(7)
    pool = corpus.cg_test + corpus.test
    agree = 0
    for i in range(200):
        ex = pool[int(r.integers(len(pool)))]
        pred = list(ex.tgt)
        op = r.integers(4)
        if op == 1 and len(pred) > 1:  # drop a token
            del pred[int(r.integers(len(pred)))]
        elif op == 2:  # shuffle
            r.shuffle(pred)
        elif op == 3:  # random junk of similar length
            pred = [f"Z{int(r.integers(50))}" for _ in pred]
        got = check_compound(pred, ex, corpus.dictionary)
        want = oracle_compound_ok(pred, (ex.realization,))
        assert got == want, (pred, ex.compound.atoms)
        agree += 1
    assert agree == 200


# -- CTER ----------------------------------------------------------------------------


def _mini_examples(k=5, wrong=2):
    dictionary = {"v0": ("V0",), "n0": ("N0",)}
    examples, preds = [], []
    for i in range(k):
        ex = Example(
            src=("v0", "n0"), tgt=("V0", "N0"),
            compound=Compound("vp_np", ("v0", "n0")), span=(0, 2),
            realization=("V0", "N0"), context_id=i, compound_id=0)
        examples.append(ex)
        preds.append(["V0", "N0"] if i >= wrong else ["V0"])
    return preds, examples, dictionary


def test_cter_by_definition():
    preds, examples, dictionary = _mini_examples(k=5, wrong=2)
    report = cter(preds, examples, dictionary)
    assert report.instance_rate == pytest.approx(0.4)
    assert report.aggregate_rate == 1.0
    assert report.n_instances == 5 and report.n_compounds == 1


def test_cter_all_correct():
    preds, examples, dictionary = _mini_examples(k=4, wrong=0)
    report = cter(preds, examples, dictionary)
    assert report.instance_rate == 0.0 and report.aggregate_rate == 0.0


def test_cter_empty_predictions_all_wrong():
    _, examples, dictionary = _mini_examples(k=4)
    report = cter([[] for _ in examples], examples, dictionary)
    assert report.instance_rate == 1.0 and report.aggregate_rate == 1.0


def test_cter_breakdowns_reconcile(corpus):
    examples = corpus.cg_test[:30]
    preds = [list(ex.tgt) if i % 3 else ["BAD"] for i, ex in enumerate(examples)]
    report = cter(preds, examples, corpus.dictionary)
    for breakdown in (report.by_compound_length, report.by_context_bucket,
                      report.by_mod):
        assert sum(g["errors"] for g in breakdown.values()) == report.instance_errors
        assert sum(g["total"] for g in breakdown.values()) == report.n_instances


def test_cter_random_patterns_match_recount_oracle(corpus):
    r = np.random.default_rng(11)
    examples = corpus.cg_test
    for _ in range(20):
        preds = [list(ex.tgt) if r.random() < 0.6 else ["WRONG"]
                 for ex in examples]
        report = cter(preds, examples, corpus.dictionary)
        want_inst, want_agg = oracle_cter(preds, examples)
        assert report.instance_rate == want_inst
        assert report.aggregate_rate == want_agg


def test_cter_input_validation(corpus):
    with pytest.raises(ValueError):
        cter([], [], corpus.dictionary)
    with pytest.raises(ValueError):
        cter([["A"]], corpus.cg_test[:2], corpus.dictionary)


# -- exact match ----------------------------------------------------------------------


def test_exact_match_identical():
    refs = [["A", "B"], ["C"]]
    assert exact_match([list(x) for x in refs], refs) == 1.0


def test_exact_match_disjoint():
    assert exact_match([["A"], ["B"]], [["X"], ["Y"]]) == 0.0


def test_exact_match_half():
    assert exact_match([["A"], ["B"]], [["A"], ["Z"]]) == 0.5


def test_exact_match_validation():
    with pytest.raises(ValueError):
        exact_match([], [])
    with pytest.raises(ValueError):
        exact_match([["A"]], [])


@given(st.lists(st.booleans(), min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_exact_match_agrees_with_oracle(flags):
    refs = [["T", str(i)] for i in range(len(flags))]
    preds = [list(r) if ok else ["F"] for r, ok in zip(refs, flags)]
    assert exact_match(preds, refs) == oracle_exact_match(preds, refs)


# -- model glue -----------------------------------------------------------------------


def test_example_to_triple_frames_bos_eos(corpus):
    ex = corpus.train[0]
    src, tgt_in, tgt_out = example_to_triple(ex, corpus.src_vocab,
                                             corpus.tgt_vocab)
    assert [a.dtype for a in (src, tgt_in, tgt_out)] == [np.int64] * 3
    assert tgt_in[0] == BOS and tgt_out[-1] == EOS
    assert np.array_equal(tgt_in[1:], tgt_out[:-1])
    assert corpus.src_vocab.decode(src) == list(ex.src)
    assert corpus.tgt_vocab.decode(tgt_out[:-1]) == list(ex.tgt)


def test_vocabulary_round_trip():
    vocab = Vocabulary(list(SPECIALS) + ["a", "b"])
    ids = vocab.encode(["a", "b", "a"])
    assert vocab.decode(ids) == ["a", "b", "a"]
    with pytest.raises(KeyError):
        vocab.encode(["missing"])
