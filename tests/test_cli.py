"""Command-line pipeline: gen, train, eval, analyze, sweep."""
import csv
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from layerfuse import cli, training
from layerfuse.cli import (
    UsageError,
    _build_parser,
    apply_override,
    default_config,
    load_config,
    main,
)
from layerfuse.compgen import CorpusSpec, load_corpus
from layerfuse.fusion import VARIANT_NAMES
from layerfuse.model import ModelConfig
from layerfuse.training import TrainConfig, load_checkpoint, pad_batch
from oracles import oracle_cter, oracle_exact_match

TINY_SETS = [
    "corpus.n_np=6", "corpus.n_vp=6", "corpus.n_pp=6", "corpus.n_mod=6",
    "corpus.n_context_tokens=8", "corpus.n_contexts=8",
    "corpus.max_context_len=6", "corpus.n_train=120", "corpus.n_dev=16",
    "corpus.n_test=16", "corpus.n_cg_compounds=6",
    "corpus.contexts_per_compound=2",
    "model.d_model=16", "model.n_heads=2", "model.d_ffn=24",
    "model.n_enc_layers=1", "model.n_dec_layers=1", "model.max_len=32",
    "model.dropout=0.0",
    "train.steps=3", "train.batch_size=8", "train.warmup=2",
    "train.checkpoint_interval=2",
    "eval_max_new_tokens=8", "analysis_examples=8",
]


def sets(*extra, data_dir=None):
    args = []
    for assignment in TINY_SETS + list(extra):
        args += ["--set", assignment]
    if data_dir is not None:
        args += ["--set", f"data_dir={data_dir}"]
    return args


def file_hashes(directory):
    out = {}
    for p in sorted(Path(directory).iterdir()):
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny gen+train shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    run = root / "run"
    assert main(["gen", "--out", str(data)] + sets()) == 0
    assert main(["train", "--out", str(run)] + sets(data_dir=str(data))) == 0
    return {"data": data, "run": run}


# -- config plumbing -----------------------------------------------------------


def test_default_config_sections():
    cfg = default_config()
    assert {"corpus", "model", "train"} <= set(cfg)
    assert {"data_dir", "out_dir", "variant"} <= set(cfg)
    # Each section is its dataclass's defaults.
    assert cfg["corpus"] == CorpusSpec().to_dict()
    assert cfg["train"] == TrainConfig().to_dict()
    # The CLI fills the vocab sizes from the corpus and the model's variant
    # from the top-level variant, so the model section leaves them out.
    model = ModelConfig(src_vocab=1, tgt_vocab=1).to_dict()
    for key in ("src_vocab", "tgt_vocab", "variant"):
        del model[key]
    assert list(cfg["model"].items()) == list(model.items())


def readme_section(heading):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]


def test_readme_and_sweep_default_list_the_variant_table():
    section = readme_section("## Variants")
    assert re.findall(r"^\| `(\w+)`", section, flags=re.M) == list(VARIANT_NAMES)
    sweep = _build_parser().parse_args(["sweep"])
    assert sweep.variants.split(",") == list(VARIANT_NAMES)


def test_apply_override_parses_json_values():
    cfg = default_config()
    apply_override(cfg, "train.lr=0.5")
    apply_override(cfg, "model.dropout=0")
    apply_override(cfg, "variant=fuse_top")
    apply_override(cfg, "data_dir=/some/path")
    assert cfg["train"]["lr"] == 0.5
    assert cfg["model"]["dropout"] == 0
    assert cfg["variant"] == "fuse_top"
    assert cfg["data_dir"] == "/some/path"


def test_apply_override_rejects_unknown_or_malformed():
    cfg = default_config()
    with pytest.raises(UsageError):
        apply_override(cfg, "train.speed=1")
    with pytest.raises(UsageError):
        apply_override(cfg, "nosuch=1")
    with pytest.raises(UsageError):
        apply_override(cfg, "train.lr")


def test_apply_override_merges_a_section_key_by_key():
    cfg = default_config()
    apply_override(cfg, 'model={"d_model": 32}')
    apply_override(cfg, "train={}")
    want = default_config()
    want["model"]["d_model"] = 32
    assert cfg == want
    assert cfg["model"]["max_len"] == 48


def test_load_config_overlay(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"train": {"steps": 7}, "variant": "accum"}))
    cfg = load_config(str(path))
    assert cfg["train"]["steps"] == 7
    assert cfg["train"]["lr"] == default_config()["train"]["lr"]
    assert cfg["variant"] == "accum"


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"training": {"steps": 7}}))
    with pytest.raises(UsageError):
        load_config(str(path))
    path.write_text(json.dumps({"train": {"step": 7}}))
    with pytest.raises(UsageError):
        load_config(str(path))


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["gen", "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# -- gen ------------------------------------------------------------------------


def test_gen_writes_expected_files(pipeline):
    names = {p.name for p in pipeline["data"].iterdir()}
    assert names == {"train.jsonl", "dev.jsonl", "test.jsonl",
                     "cg_test.jsonl", "manifest.json"}


def test_gen_rerun_identical_hashes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--out", str(a)] + sets()) == 0
    assert main(["gen", "--out", str(b)] + sets()) == 0
    assert file_hashes(a) == file_hashes(b)


def test_gen_unsatisfiable_holdout_exits_2(tmp_path, capsys):
    rc = main(["gen", "--out", str(tmp_path / "d")] + sets(
        "corpus.n_np=1", "corpus.n_vp=1", "corpus.n_pp=1", "corpus.n_mod=1"))
    assert rc == 2
    assert "holdout" in capsys.readouterr().err


# -- train -----------------------------------------------------------------------


def test_train_outputs(pipeline):
    run = pipeline["run"]
    assert (run / "checkpoint.npz").exists()
    assert (run / "best.npz").exists()
    summary = json.loads((run / "train_summary.json").read_text())
    assert summary["steps"] == 3
    assert summary["variant"] == "fuse"
    log = (run / "train_log.jsonl").read_text().splitlines()
    assert [json.loads(l)["step"] for l in log] == [1, 2, 3]


def test_train_fixed_seed_reproduces_loss(pipeline, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        run = tmp_path / name
        rc = main(["train", "--out", str(run), "--seed", "5"]
                  + sets(data_dir=str(pipeline["data"])))
        assert rc == 0
        outs.append(json.loads((run / "train_summary.json").read_text()))
    assert outs[0]["final_loss"] == outs[1]["final_loss"]


def test_train_resume_matches_uninterrupted(pipeline, tmp_path):
    data = str(pipeline["data"])
    full = tmp_path / "full"
    assert main(["train", "--out", str(full)]
                + sets("train.steps=4", data_dir=data)) == 0

    half = tmp_path / "half"
    assert main(["train", "--out", str(half)]
                + sets("train.steps=2", data_dir=data)) == 0
    resumed = tmp_path / "resumed"
    assert main(["train", "--out", str(resumed),
                 "--resume", str(half / "checkpoint.npz")]
                + sets("train.steps=4", data_dir=data)) == 0

    a, _ = load_checkpoint(full / "checkpoint.npz")
    b, _ = load_checkpoint(resumed / "checkpoint.npz")
    pa, pb = a.parameters(), b.parameters()
    for name in pa:
        assert np.array_equal(pa[name].data, pb[name].data), name


def test_resume_after_kill_logs_each_step_once(pipeline, tmp_path):
    data = str(pipeline["data"])
    run = tmp_path / "run"
    assert main(["train", "--out", str(run)] + sets("train.steps=2", data_dir=data)) == 0
    step2 = tmp_path / "step2.npz"
    shutil.copy(run / "checkpoint.npz", step2)
    # A run killed past its step-2 checkpoint: steps 3 and 4 logged, then a
    # line cut short.
    resume = ["train", "--out", str(run), "--resume", str(step2)] + sets(
        "train.steps=4", data_dir=data)
    assert main(resume) == 0
    with open(run / "train_log.jsonl", "a") as fh:
        fh.write('{"loss": 1.')
    assert main(resume) == 0
    full = tmp_path / "full"
    assert main(["train", "--out", str(full)] + sets("train.steps=4", data_dir=data)) == 0

    def records(run_dir):
        lines = (run_dir / "train_log.jsonl").read_text().splitlines()
        return [{k: v for k, v in json.loads(l).items() if k != "wall_ms"} for l in lines]

    assert [r["step"] for r in records(run)] == [1, 2, 3, 4]
    assert records(run) == records(full)


def test_resume_keeps_the_run_seed(pipeline, tmp_path, capsys):
    data = str(pipeline["data"])
    half = tmp_path / "half"
    assert main(["train", "--out", str(half), "--seed", "3"]
                + sets("train.steps=2", data_dir=data)) == 0
    resumed = tmp_path / "resumed"
    resume = ["train", "--out", str(resumed), "--resume", str(half / "checkpoint.npz")]
    capsys.readouterr()
    assert main(resume + sets("train.steps=4", data_dir=data)) == 2
    err = capsys.readouterr().err
    assert "seed 3" in err and "train.seed is 0" in err
    assert not resumed.exists()

    # checkpoint_interval changes no trained number, so it may differ.
    longer = sets("train.steps=4", "train.checkpoint_interval=3", data_dir=data)
    assert main(resume + ["--seed", "3"] + longer) == 0
    full = tmp_path / "full"
    assert main(["train", "--out", str(full), "--seed", "3"] + longer) == 0
    a, a_state = load_checkpoint(full / "checkpoint.npz")
    b, b_state = load_checkpoint(resumed / "checkpoint.npz")
    # A resumed run's checkpoint records the train section of its last leg.
    assert a_state.train == b_state.train and b_state.train.seed == 3
    for name, p in a.parameters().items():
        assert np.array_equal(p.data, b.parameters()[name].data), name


def test_fresh_train_refuses_an_out_dir_holding_a_checkpoint(pipeline, tmp_path, capsys):
    data = str(pipeline["data"])
    run = tmp_path / "run"
    argv = ["train", "--out", str(run)] + sets("train.steps=3", data_dir=data)
    assert main(argv) == 0
    trained = file_hashes(run)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert str(run / "checkpoint.npz") in err[0] and "--resume" in err[0]
    assert file_hashes(run) == trained


def test_train_missing_corpus_exits_2(tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path / "r")]
              + sets(data_dir=str(tmp_path / "nowhere")))
    assert rc == 2
    assert "gen" in capsys.readouterr().err


def test_train_max_len_below_corpus_lengths_exits_2(pipeline, tmp_path, capsys):
    run = tmp_path / "short"
    rc = main(["train", "--out", str(run)]
              + sets("model.max_len=4", data_dir=str(pipeline["data"])))
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "max_len" in err[0]
    assert not run.exists()


# -- eval ------------------------------------------------------------------------


def test_eval_writes_metrics_and_predictions(pipeline):
    data, run = pipeline["data"], pipeline["run"]
    rc = main(["eval", "--out", str(run), "--split", "cg_test"]
              + sets(data_dir=str(data)))
    assert rc == 0
    metrics = json.loads((run / "metrics_cg_test.json").read_text())
    preds = [json.loads(l) for l in
             (run / "predictions_cg_test.jsonl").read_text().splitlines()]
    assert metrics["n"] == len(preds) == 12
    assert metrics["variant"] == "fuse"
    assert {"exact_match", "cter", "truncated"} <= set(metrics)


def test_eval_report_matches_recomputation_from_dump(pipeline):
    data, run = pipeline["data"], pipeline["run"]
    assert main(["eval", "--out", str(run), "--split", "cg_test"]
                + sets(data_dir=str(data))) == 0
    metrics = json.loads((run / "metrics_cg_test.json").read_text())
    records = [json.loads(l) for l in
               (run / "predictions_cg_test.jsonl").read_text().splitlines()]
    preds = [r["pred"] for r in records]
    refs = [r["ref"] for r in records]
    assert metrics["exact_match"] == oracle_exact_match(preds, refs)
    corpus = load_corpus(data)
    want_inst, want_agg = oracle_cter(preds, corpus.cg_test)
    assert metrics["cter"]["instance_rate"] == want_inst
    assert metrics["cter"]["aggregate_rate"] == want_agg


def test_eval_plain_split_has_no_cter(pipeline):
    data, run = pipeline["data"], pipeline["run"]
    assert main(["eval", "--out", str(run), "--split", "test"]
                + sets(data_dir=str(data))) == 0
    metrics = json.loads((run / "metrics_test.json").read_text())
    assert "cter" not in metrics


def test_eval_missing_checkpoint_exits_2(pipeline, tmp_path, capsys):
    rc = main(["eval", "--out", str(tmp_path / "empty")]
              + sets(data_dir=str(pipeline["data"])))
    assert rc == 2
    assert "checkpoint" in capsys.readouterr().err


# -- analyze ---------------------------------------------------------------------


def read_fuse_probs(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    groups = {}
    for row in rows:
        key = (row["side"], int(row["layer"]))
        groups.setdefault(key, []).append(
            (int(row["prev_layer"]), float(row["probability"])))
    return groups


CTER_CSVS = {"cter_by_compound_length.csv", "cter_by_context_length.csv",
             "cter_by_mod.csv"}


def test_analyze_outputs(pipeline):
    data, run = pipeline["data"], pipeline["run"]
    assert main(["eval", "--out", str(run), "--split", "cg_test"]
                + sets(data_dir=str(data))) == 0
    rc = main(["analyze", "--out", str(run)] + sets(data_dir=str(data)))
    assert rc == 0
    groups = read_fuse_probs(run / "fuse_probs.csv")
    assert set(groups) == {("encoder", 1), ("decoder", 1)}
    for (side, layer), cells in groups.items():
        assert [prev for prev, _ in cells] == list(range(layer))
        assert abs(sum(p for _, p in cells) - 1.0) < 1e-6
    # first layer: the only previous representation is the embedding
    assert len(groups[("encoder", 1)]) == 1
    headline = json.loads((run / "metrics_cg_test.json").read_text())["cter"]
    for name in sorted(CTER_CSVS):
        with open(run / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sum(int(r["errors"]) for r in rows) == headline["instance_errors"]
        assert sum(int(r["total"]) for r in rows) == headline["n_instances"]


def written_by(pipeline, tmp_path, command, *flags):
    """The names of the files ``command`` writes into an empty run directory
    from the pipeline's checkpoint."""
    out = tmp_path / command
    assert main([command, "--out", str(out), *flags,
                 "--checkpoint", str(pipeline["run"] / "checkpoint.npz")]
                + sets(data_dir=str(pipeline["data"]))) == 0
    return {p.name for p in out.iterdir()}


def test_analyze_decodes_nothing(pipeline, tmp_path, monkeypatch):
    def no_decoding(*args, **kwargs):
        raise AssertionError("analyze decoded")

    monkeypatch.setattr(cli, "greedy_decode_batch", no_decoding)
    assert written_by(pipeline, tmp_path, "analyze") == {"fuse_probs.csv"}


def test_analyze_pads_its_whole_sample_in_eval_chunks(pipeline, tmp_path, monkeypatch):
    padded = []

    def spy(triples):
        padded.append([list(src) for src, _, _ in triples])
        return pad_batch(triples)

    monkeypatch.setattr(training, "pad_batch", spy)
    monkeypatch.setattr(training, "EVAL_BATCH", 5)
    assert written_by(pipeline, tmp_path, "analyze") == {"fuse_probs.csv"}
    corpus = load_corpus(pipeline["data"])
    # analysis_examples=8 of the corpus's 12 cg_test examples, in chunks of 5.
    sample = [list(corpus.src_vocab.encode(ex.src)) for ex in corpus.cg_test[:8]]
    assert [len(chunk) for chunk in padded] == [5, 3]
    assert padded[0] + padded[1] == sample


def test_eval_writes_cter_breakdowns_on_cg_test_only(pipeline, tmp_path):
    assert written_by(pipeline, tmp_path / "cg", "eval", "--split", "cg_test") == {
        "metrics_cg_test.json", "predictions_cg_test.jsonl"} | CTER_CSVS
    assert written_by(pipeline, tmp_path / "test", "eval", "--split", "test") == {
        "metrics_test.json", "predictions_test.jsonl"}


def test_readme_lists_the_files_eval_and_analyze_write(pipeline, tmp_path):
    bullets = dict(re.findall(r"^- `(\w+)`: (.*?)(?=^- |\Z)", readme_section("### Files written"),
                              flags=re.M | re.S))
    named = {command: set(re.findall(r"`([\w<>]+\.(?:csv|json|jsonl|npz))`",
                                     bullets[command]))
             for command in ("eval", "analyze")}
    assert {name.replace("<split>", "cg_test") for name in named["eval"]} == written_by(
        pipeline, tmp_path, "eval", "--split", "cg_test")
    assert named["analyze"] == written_by(pipeline, tmp_path, "analyze")


def test_analyze_vanilla_has_no_probe_exits_2(pipeline, tmp_path, capsys):
    data = str(pipeline["data"])
    run = tmp_path / "vanilla"
    assert main(["train", "--out", str(run)]
                + sets("variant=vanilla", data_dir=data)) == 0
    trained = file_hashes(run)
    rc = main(["analyze", "--out", str(run)]
              + sets("variant=vanilla", data_dir=data))
    assert rc == 2
    assert "fuse" in capsys.readouterr().err
    assert file_hashes(run) == trained


# -- sweep -----------------------------------------------------------------------


def read_sweep_rows(out_dir):
    with open(Path(out_dir) / "sweep_results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_two_variants_two_rows(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--out", str(out), "--variants", "vanilla,accum",
               "--seeds", "0"] + sets())
    assert rc == 0
    rows = read_sweep_rows(out)
    assert [r["variant"] for r in rows] == ["vanilla", "accum"]
    assert all(r["seed"] == "0" for r in rows)
    accum = rows[1]
    assert accum["added_params"] == "0"
    assert accum["params"] == rows[0]["params"]
    md = (out / "sweep_results.md").read_text().splitlines()
    assert md[0].startswith("| variant |")
    assert len(md) == 4  # header, rule, one line per variant


def test_sweep_rejects_unknown_variant(tmp_path, capsys):
    rc = main(["sweep", "--out", str(tmp_path / "s"), "--variants", "dense",
               "--seeds", "0"] + sets())
    assert rc == 2
    assert "dense" in capsys.readouterr().err


def test_sweep_run_dir_equals_standalone_pipeline(pipeline, tmp_path):
    data = str(pipeline["data"])
    run = tmp_path / "run"
    common = ["--out", str(run), "--seed", "0"] + sets("variant=fuse", data_dir=data)
    assert main(["train"] + common) == 0
    assert main(["eval", "--split", "cg_test"] + common) == 0
    assert main(["analyze"] + common) == 0
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out), "--variants", "fuse",
                 "--seeds", "0"] + sets()) == 0
    swept = out / "runs" / "fuse-s0"

    a, _ = load_checkpoint(run / "checkpoint.npz")
    b, _ = load_checkpoint(swept / "checkpoint.npz")
    assert list(a.parameters()) == list(b.parameters())
    for name, p in a.parameters().items():
        assert np.array_equal(p.data, b.parameters()[name].data), name
    for name in ("metrics_cg_test.json", "predictions_cg_test.jsonl",
                 "fuse_probs.csv", *sorted(CTER_CSVS)):
        assert (swept / name).read_bytes() == (run / name).read_bytes(), name
    assert not (swept / "analysis_summary.json").exists()
    assert not (run / "analysis_summary.json").exists()


# -- exit codes ------------------------------------------------------------------


def edited_split(name, edit, command="train"):
    """argv running ``command`` (train, or eval from the pipeline's checkpoint)
    on a copy of the pipeline's corpus whose <name>.jsonl lines went through
    ``edit``."""
    def make(pipeline, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        path = data / f"{name}.jsonl"
        path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
        flags = (["--checkpoint", str(pipeline["run"] / "checkpoint.npz")]
                 if command == "eval" else [])
        return [command, "--out", str(tmp_path / "r"), *flags] + sets(data_dir=str(data))
    return make


def truncate_line_3(lines):
    return lines[:2] + [lines[2][: len(lines[2]) // 2] + "\n"] + lines[3:]


def unknown_token_in_line_3(lines):
    record = json.loads(lines[2])
    record["src"][0] = "zzz"
    return lines[:2] + [json.dumps(record) + "\n"] + lines[3:]


def empty_source_in_line_1(lines):
    return [json.dumps({**json.loads(lines[0]), "src": []}) + "\n"] + lines[1:]


def empty_sources(lines):
    return [json.dumps({**json.loads(line), "src": []}) + "\n" for line in lines]


def unknown_pattern_in_line_1(lines):
    record = json.loads(lines[0])
    record["compound"]["pattern"] = "bogus"
    return [json.dumps(record) + "\n"] + lines[1:]


def canonical(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def one_atom_in_line_1(lines):
    record = json.loads(lines[0])
    record["compound"]["atoms"] = record["compound"]["atoms"][:1]
    return [canonical(record)] + lines[1:]


def compound_length_9_in_line_1(lines):
    return [canonical({**json.loads(lines[0]), "compound_length": 9})] + lines[1:]


def dev_from_seed_1(pipeline, tmp_path):
    """argv training on the pipeline's corpus with dev.jsonl taken from the
    corpus its spec generates with corpus.seed=1."""
    other = tmp_path / "other"
    assert main(["gen", "--out", str(other)] + sets("corpus.seed=1")) == 0
    seed_1_dev = (other / "dev.jsonl").read_text().splitlines(keepends=True)
    return edited_split("dev", lambda lines: seed_1_dev)(pipeline, tmp_path)


def edited_manifest(edit):
    """argv evaluating on a copy of the pipeline's corpus whose manifest went
    through ``edit``, which changes it in place."""
    def make(pipeline, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        manifest = json.loads((data / "manifest.json").read_text())
        edit(manifest)
        (data / "manifest.json").write_text(json.dumps(manifest))
        return ["eval", "--out", str(pipeline["run"])] + sets(data_dir=str(data))
    return make


def edited_checkpoint(edit_meta=None, arrays=(), command="eval"):
    """argv running ``command`` (eval, or train --resume) on a copy of the
    pipeline's checkpoint whose meta went through ``edit_meta`` and whose
    entries ``arrays`` (pairs of key and function of the stored array) are
    replaced."""
    def make(pipeline, tmp_path):
        with np.load(pipeline["run"] / "checkpoint.npz") as archive:
            stored = {k: archive[k] for k in archive.files}
        meta = json.loads(stored["meta"].tobytes())
        if edit_meta is not None:
            meta = edit_meta(meta)
        stored["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        for key, edit in arrays:
            stored[key] = edit(stored[key])
        bad = tmp_path / "bad.npz"
        np.savez(bad, **stored)
        flag = "--resume" if command == "train" else "--checkpoint"
        return ([command, "--out", str(tmp_path / "r"), flag, str(bad)]
                + sets(data_dir=str(pipeline["data"])))
    return make


def corrupt_checkpoint_meta(pipeline, tmp_path):
    raw = bytearray((pipeline["run"] / "checkpoint.npz").read_bytes())
    raw[raw.find(b'"format"') + 2] ^= 0x20  # the meta member's CRC-32 no longer holds
    (tmp_path / "bad.npz").write_bytes(bytes(raw))
    return (["eval", "--out", str(tmp_path / "r"), "--checkpoint", str(tmp_path / "bad.npz")]
            + sets(data_dir=str(pipeline["data"])))


def checkpoint_with(version=None, **model_config):
    def edit(meta):
        meta["model_config"].update(model_config)
        if version is not None:
            meta["version"] = version
        return meta
    return edited_checkpoint(edit)


def sweep_seeds(seeds, variants="vanilla", *extra):
    def make(pipeline, tmp_path):
        return ["sweep", "--out", str(tmp_path / "s"), "--variants", variants,
                "--seeds", seeds] + sets(*extra)
    return make


def run_with(command, *extra):
    def make(pipeline, tmp_path):
        return ([command, "--out", str(tmp_path),
                 "--checkpoint", str(pipeline["run"] / "checkpoint.npz")]
                + sets(*extra, data_dir=str(pipeline["data"])))
    return make


def without_out(argv, *extra):
    """``argv`` and --set flags with no --out, which would override a path setting."""
    def make(pipeline, tmp_path):
        return argv + sets(*extra)
    return make


def command_with(command, *extra, flags=()):
    def make(pipeline, tmp_path):
        return ([command, "--out", str(tmp_path / "r"), *flags]
                + sets(*extra, data_dir=str(pipeline["data"])))
    return make


def resume_with(*extra):
    """argv resuming the pipeline's checkpoint (fuse, d_model 16) with the
    settings ``extra``."""
    def make(pipeline, tmp_path):
        return (["train", "--out", str(tmp_path / "r"),
                 "--resume", str(pipeline["run"] / "checkpoint.npz")]
                + sets(*extra, data_dir=str(pipeline["data"])))
    return make


def checkpoint_path(command, directory):
    """argv running ``command`` with --resume (train) or --checkpoint naming a
    directory, or a file that does not exist."""
    def make(pipeline, tmp_path):
        path = tmp_path if directory else tmp_path / "missing.npz"
        flag = "--resume" if command == "train" else "--checkpoint"
        return ([command, "--out", str(tmp_path / "r"), flag, str(path)]
                + sets(data_dir=str(pipeline["data"])))
    return make


def run_on_corpus(command, *corpus_sets):
    """argv running ``command`` with the pipeline's checkpoint on a new
    corpus generated with the settings ``corpus_sets``."""
    def make(pipeline, tmp_path):
        data = tmp_path / "other-data"
        assert main(["gen", "--out", str(data)] + sets(*corpus_sets)) == 0
        return ([command, "--out", str(tmp_path / "r"),
                 "--checkpoint", str(pipeline["run"] / "checkpoint.npz")]
                + sets(data_dir=str(data)))
    return make


def out_at_file(command, under=""):
    """argv running ``command`` with --out naming a file, or the path
    ``under`` that file, which no command can make a directory of."""
    def make(pipeline, tmp_path):
        afile = tmp_path / "afile"
        afile.write_text("")
        flags = {"gen": [], "train": [], "sweep": ["--variants", "vanilla", "--seeds", "0"],
                 "eval": ["--checkpoint", str(pipeline["run"] / "checkpoint.npz")]}[command]
        data_dir = None if command in ("gen", "sweep") else str(pipeline["data"])
        return ([command, "--out", str(afile / under) if under else str(afile), *flags]
                + sets(data_dir=data_dir))
    return make


def gen_with_config(contents=None):
    """argv running gen with --config naming a directory, or a file that
    holds the bytes ``contents``."""
    def make(pipeline, tmp_path):
        path = tmp_path / "conf.json"
        if contents is None:
            path.mkdir()
        else:
            path.write_bytes(contents)
        return ["gen", "--out", str(tmp_path / "r"), "--config", str(path)]
    return make


def corpus_file_as_directory(name):
    """argv training on a copy of the pipeline's corpus whose file ``name``
    is a directory."""
    def make(pipeline, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        (data / name).unlink()
        (data / name).mkdir()
        return ["train", "--out", str(tmp_path / "r")] + sets(data_dir=str(data))
    return make


@pytest.mark.parametrize("make_argv, code, detail", [
    (sweep_seeds("0,x"), 2, "seeds"),
    (sweep_seeds(""), 2, "seeds"),
    (edited_split("dev", truncate_line_3), 2, "dev.jsonl line 3"),
    (edited_split("dev", lambda lines: lines[1:]), 2, "dev.jsonl holds 15 examples"),
    (edited_split("dev", unknown_token_in_line_3), 2, "dev.jsonl line 3"),
    (edited_split("cg_test", empty_source_in_line_1, "eval"), 2, "cg_test.jsonl line 1"),
    (edited_split("train", empty_sources), 2, "train.jsonl line 1"),
    (edited_split("cg_test", unknown_pattern_in_line_1, "eval"), 2, "cg_test.jsonl line 1"),
    (edited_split("cg_test", one_atom_in_line_1, "eval"), 2, "cg_test.jsonl line 1"),
    (edited_split("cg_test", compound_length_9_in_line_1, "eval"), 2, "cg_test.jsonl line 1"),
    (dev_from_seed_1, 2, "dev.jsonl line 1"),
    (edited_manifest(lambda manifest: manifest.update(format="some-other-corpus")), 2,
     "manifest.json"),
    (edited_manifest(lambda manifest: manifest["spec"].update(n_np="x")), 2,
     "n_np must be an integer >= 0, got 'x'"),
    (checkpoint_with(dense_layers=2), 3, "dense_layers"),
    (checkpoint_with(dropout=1.5), 3, "dropout must be in [0, 1), got 1.5"),
    (checkpoint_with(variant="dense"), 3, "variant must be one of"),
    (checkpoint_with(version=1), 3, "version 1"),
    (checkpoint_with(version=2), 3, "version 2, expected 3"),
    (edited_checkpoint(lambda meta: [meta]), 3, "is not a checkpoint file"),
    (corrupt_checkpoint_meta, 3, "entry meta is unreadable"),
    (edited_checkpoint(lambda meta: {k: v for k, v in meta.items() if k != "step"}), 3,
     "meta has no 'step' entry"),
    (edited_checkpoint(lambda meta: {**meta, "train": {**meta["train"], "seed": "x"}}), 3,
     "bad train config: seed must be an integer >= 0, got 'x'"),
    (edited_checkpoint(arrays=[("param/out.w", lambda a: np.full(a.shape, "x"))]), 3,
     "param/out.w is <U1"),
    (edited_checkpoint(arrays=[("adam_m/out.w", lambda a: np.zeros(1))], command="train"),
     3, "adam_m/out.w is float64 (1,)"),
    (run_with("eval", "eval_max_new_tokens=0"), 2, "eval_max_new_tokens"),
    (run_with("eval", "eval_max_new_tokens=x"), 2, "eval_max_new_tokens"),
    (run_with("eval", "eval_max_new_tokens=null"), 2, "eval_max_new_tokens"),
    (run_with("eval", "eval_max_new_tokens=1.5"), 2, "eval_max_new_tokens"),
    (run_with("eval", "eval_max_new_tokens=true"), 2, "eval_max_new_tokens"),
    (run_with("analyze", "analysis_examples=0"), 2, "analysis_examples"),
    (run_with("eval", "eval_split=test"), 2, "unknown config key 'eval_split'"),
    (sweep_seeds("0", "vanilla", "eval_max_new_tokens=0"), 2, "eval_max_new_tokens"),
    (sweep_seeds("0", "vanilla,accum,vanilla"), 2, "--variants repeats vanilla"),
    (sweep_seeds("0,1,00"), 2, "--seeds repeats 0"),
    (command_with("train", "model.n_heads=0"), 2, "n_heads 0"),
    (resume_with("model.n_heads=0"), 2, "bad model section: n_heads 0"),
    (resume_with("model.d_model=32"), 2, "with d_model 16, but the config gives 32"),
    (resume_with("variant=vanilla"), 2, "with variant 'fuse', but the config gives 'vanilla'"),
    (resume_with("train.steps=4", "train.batch_size=8", "train.lr=0.5"), 2,
     "was trained with lr 0.002, but train.lr is 0.5"),
    (resume_with("train.steps=3"), 2, "at step 3, but train.steps is 3"),
    (resume_with("train.steps=2"), 2, "at step 3, but train.steps is 2"),
    (run_on_corpus("eval", "corpus.n_np=12"), 2,
     "vocab sizes (35, 35) (source, target), but the corpus has (41, 41)"),
    (run_on_corpus("analyze", "corpus.n_np=12"), 2, "but the corpus has (41, 41)"),
    (run_on_corpus("eval", "corpus.n_np=5", "corpus.n_vp=5"), 2,
     "but the corpus has (33, 33)"),
    (command_with("train", "model=3"), 2, "'model' must be an object"),
    (command_with("train", flags=("--seed", "-1")), 2, "seed must be an integer >= 0"),
    (command_with("train", "model.seed=-1"), 2, "seed must be an integer >= 0"),
    (command_with("train", "train.seed=-1"), 2, "seed must be an integer >= 0"),
    (command_with("gen", "corpus.seed=-1"), 2, "seed must be an integer >= 0"),
    (command_with("train", "train.batch_size=1.5"), 2, "batch_size must be an integer"),
    (command_with("train", "model.d_ffn=1.5"), 2, "d_ffn must be an integer"),
    (command_with("train", "model.n_enc_layers=1.5"), 2, "n_enc_layers must be an integer"),
    (command_with("gen", "corpus.n_np=1.5"), 2, "n_np must be an integer"),
    (command_with("gen", "corpus.n_train=2.5"), 2, "n_train must be an integer"),
    (command_with("gen", "corpus.n_np=121"), 2,
     "bad corpus section: n_np is 121 but n_train is 120: no atom inventory may exceed "
     "n_train"),
    (command_with("gen", 'corpus.patterns=["vp_np"]', "corpus.n_mod=121"), 2,
     "bad corpus section: n_mod is 121 but n_train is 120"),
    (command_with("train", "train.steps=2.5"), 2, "steps must be an integer"),
    (command_with("train", "train.steps=0"), 2, "steps >= 1"),
    (sweep_seeds("0", "vanilla", "train.steps=0"), 2, "steps >= 1"),
    (command_with("train", "train.beta1=0.9"), 2, "unknown config key 'train.beta1'"),
    (command_with("train", "model.seed=true"), 2, "seed must be an integer"),
    (command_with("train", "train.lr=true"), 2, "lr must be a finite number, got True"),
    (command_with("train", "train.lr=Infinity"), 2, "lr must be a finite number, got inf"),
    (command_with("train", "model.dropout=false"), 2, "dropout must be a finite number"),
    (command_with("train", "train.label_smoothing=x"), 2,
     "label_smoothing must be a finite number, got 'x'"),
    (sweep_seeds("0", "vanilla", "train.clip_norm=true"), 2,
     "clip_norm must be a finite number"),
    (command_with("train", "model.fusion_mode=fuse"), 2, "unknown config key"),
    (command_with("train", "variant=5"), 2,
     "error: variant must be one of vanilla, fuse, fuse_enc, fuse_dec, fuse_top, accum, "
     "got 5"),
    (command_with("train", 'variant=["fuse"]'), 2, "error: variant must be one of"),
    (sweep_seeds("0", ""), 2, "error: variant must be one of"),
    (sweep_seeds("-1"), 2, "seed must be an integer >= 0"),
    (sweep_seeds("0", "vanilla", "model.n_heads=0"), 2, "n_heads 0"),
    (sweep_seeds("0", "vanilla", "corpus.n_cg_compounds=0"), 2, "n_cg_compounds is 0"),
    (command_with("train", 'model={"bogus": 1}'), 2, "unknown config key 'model.bogus'"),
    (command_with("gen", 'corpus.patterns=[["np_mod"]]'), 2,
     "bad corpus section: unknown pattern ['np_mod']"),
    (sweep_seeds("0", "vanilla", 'corpus.patterns=[["np_mod"]]'), 2,
     "bad corpus section: unknown pattern ['np_mod']"),
    (command_with("gen", "corpus.patterns=np_mod"), 2,
     "bad corpus section: patterns must be a list of distinct pattern names"),
    (command_with("gen", "corpus.patterns=5"), 2,
     "bad corpus section: patterns must be a list of distinct pattern names"),
    (command_with("gen", 'corpus.patterns=["np_mod","np_mod"]'), 2,
     "bad corpus section: patterns must be a list of distinct pattern names"),
    (without_out(["gen"], "data_dir=5"), 2, "data_dir must be a non-empty path"),
    (without_out(["gen"], "data_dir=null"), 2, "data_dir must be a non-empty path"),
    (without_out(["sweep", "--seeds", "0", "--variants", "vanilla"], "out_dir=7"), 2,
     "out_dir must be a non-empty path"),
    (out_at_file("gen"), 2, "data_dir must be a directory path"),
    (out_at_file("train"), 2, "out_dir must be a directory path"),
    (out_at_file("sweep"), 2, "out_dir must be a directory path"),
    (out_at_file("eval"), 2, "out_dir must be a directory path"),
    (out_at_file("gen", "sub"), 2, "afile' is not a directory"),
    (checkpoint_path("train", directory=False), 2, "no checkpoint file at"),
    (checkpoint_path("train", directory=True), 2, "no checkpoint file at"),
    (checkpoint_path("eval", directory=False), 2, "no checkpoint file at"),
    (checkpoint_path("eval", directory=True), 2, "no checkpoint file at"),
    (checkpoint_path("analyze", directory=True), 2, "no checkpoint file at"),
    (gen_with_config(), 2, "no config file at"),
    (gen_with_config(b'\xff{"corpus": {}}'), 2, "is not valid UTF-8 JSON"),
    (corpus_file_as_directory("manifest.json"), 2, "no corpus manifest at"),
    (corpus_file_as_directory("dev.jsonl"), 2, "dev.jsonl holds 0 examples"),
], ids=["seeds-not-int", "seeds-empty", "truncated-dev-line", "dev-line-missing",
        "dev-token-unknown", "cg-test-source-empty", "train-sources-empty",
        "cg-test-pattern-unknown", "cg-test-one-atom", "cg-test-compound-length-9",
        "dev-from-seed-1", "wrong-manifest", "manifest-n-np-string",
        "checkpoint-unknown-key", "checkpoint-bad-value", "checkpoint-unnamed-pair",
        "checkpoint-version-1", "checkpoint-version-2", "checkpoint-meta-list",
        "checkpoint-meta-crc", "checkpoint-meta-no-step",
        "checkpoint-seed-string", "checkpoint-param-strings", "resume-adam-moment-shape",
        "max-new-zero", "max-new-string", "max-new-null", "max-new-float",
        "max-new-bool", "analysis-examples-zero", "eval-split-key",
        "sweep-max-new-zero", "sweep-repeated-variant", "sweep-repeated-seed",
        "n-heads-zero", "resume-n-heads-zero", "resume-d-model", "resume-variant",
        "resume-lr",
        "resume-at-step", "resume-below-step", "eval-bigger-vocab", "analyze-bigger-vocab",
        "eval-smaller-vocab",
        "model-section-int", "seed-flag-negative", "model-seed-negative",
        "train-seed-negative", "corpus-seed-negative", "batch-size-float", "d-ffn-float",
        "n-enc-layers-float", "n-np-float", "n-train-float", "n-np-over-n-train",
        "n-mod-unused-over-n-train", "steps-float",
        "train-steps-zero", "sweep-steps-zero", "adam-beta1-key",
        "model-seed-bool", "lr-bool", "lr-infinite", "dropout-bool",
        "label-smoothing-string", "sweep-clip-norm-bool", "fusion-mode-key",
        "variant-int", "variant-list", "sweep-variant-empty",
        "sweep-seed-negative", "sweep-n-heads-zero", "sweep-cg-test-empty",
        "model-object-unknown-key", "gen-pattern-list", "sweep-pattern-list",
        "gen-patterns-string", "gen-patterns-int", "gen-patterns-repeated",
        "data-dir-int", "data-dir-null", "sweep-out-dir-int", "gen-out-file",
        "train-out-file", "sweep-out-file", "eval-out-file", "gen-out-under-file",
        "resume-missing", "resume-directory", "eval-checkpoint-missing",
        "eval-checkpoint-directory", "analyze-checkpoint-directory", "config-directory",
        "config-not-utf8", "manifest-directory", "dev-split-directory"])
def test_bad_input_exits_with_one_error_line(pipeline, tmp_path, make_argv, code, detail):
    argv = make_argv(pipeline, tmp_path)
    result = subprocess.run([sys.executable, "-m", "layerfuse.cli"] + argv,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert detail in lines[0]
    if argv[0] in ("sweep", "gen", "train"):  # rejected before anything is written
        assert not (tmp_path / "s").exists() and not (tmp_path / "r").exists()


# -- module entry point -------------------------------------------------------------


def test_module_entry_point_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "layerfuse.cli", "gen",
         "--out", str(tmp_path / "data")] + sets(),
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "data" / "manifest.json").exists()
