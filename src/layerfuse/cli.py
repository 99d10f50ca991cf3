"""Command line interface: gen / train / eval / analyze / sweep.

Configuration is a JSON file (all sections optional, defaults applied),
overridable from the command line with repeated --set key=value flags using
dot paths, e.g. --set train.steps=200 --set model.d_model=64. Values parse
as JSON when possible, else as strings.

Exit codes: 0 success, 2 usage or config error, 3 runtime/numeric error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

from .compgen import (
    BOS,
    EOS,
    SPLITS,
    Corpus,
    CorpusSpec,
    GenerationError,
    cter,
    exact_match,
    generate_corpus,
    load_corpus,
    triples,
    write_corpus,
)
from .fileio import atomic_write
from .fusion import VARIANT_NAMES, FusionError, parse_variant
from .model import ModelConfig, Seq2SeqModel
from .training import (
    CheckpointError,
    TrainConfig,
    TrainingError,
    extract_fuse_probs,
    greedy_decode_batch,
    load_checkpoint,
    train_loop,
)

__all__ = ["main", "default_config", "load_config", "apply_override",
           "cmd_gen", "cmd_train", "cmd_eval", "cmd_analyze", "cmd_sweep",
           "UsageError"]


class UsageError(ValueError):
    """Bad flags, bad config keys, missing inputs."""


def default_config() -> dict:
    return {
        "corpus": CorpusSpec().to_dict(),
        # ModelConfig's defaults, less the fields _model_config fills in.
        "model": {f.name: f.default for f in fields(ModelConfig) if f.name not in
                  ("src_vocab", "tgt_vocab", "fusion_mode", "fusion_sides")},
        "train": TrainConfig().to_dict(),
        "data_dir": "data",
        "out_dir": "out",
        "variant": "fuse",
        "eval_max_new_tokens": 30,
        "analysis_examples": 64,
    }


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the JSON file at ``path`` (key by key)."""
    cfg = default_config()
    if path is None:
        return cfg
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        user = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    _merge(cfg, user)
    return cfg


def _merge(node: dict, user: dict, prefix: str = "") -> None:
    """Overlay ``user`` on the config ``node`` in place, section by section
    and key by key; ``prefix`` is the dot path of ``node``."""
    for key, value in user.items():
        path = prefix + key
        if key not in node:
            raise UsageError(f"unknown config key {path!r}")
        if isinstance(node[key], dict):
            if not isinstance(value, dict):
                raise UsageError(f"config section {path!r} must be an object")
            _merge(node[key], value, path + ".")
        else:
            node[key] = value


def apply_override(cfg: dict, assignment: str) -> None:
    """Apply one --set key=value override with a dot-path key, in place.

    An object value merges into its section key by key, like a config file.
    """
    key, sep, raw = assignment.partition("=")
    if not sep or not key:
        raise UsageError(f"--set expects key=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(key.split(".")):
        value = {part: value}
    _merge(cfg, value)


def _resolve(args) -> dict:
    cfg = load_config(args.config)
    for assignment in args.set or []:
        apply_override(cfg, assignment)
    if args.seed is not None:
        cfg["model"]["seed"] = args.seed
        cfg["train"]["seed"] = args.seed
    if args.out is not None:
        cfg["data_dir" if args.command == "gen" else "out_dir"] = args.out
    _check_run_settings(cfg)
    return cfg


def _check_run_settings(cfg: dict) -> None:
    """The paths and the eval and analyze settings, checked before any
    command does work."""
    for key in ("data_dir", "out_dir"):
        if not isinstance(cfg[key], str) or not cfg[key]:
            raise UsageError(f"{key} must be a non-empty path, got {cfg[key]!r}")
    for key in ("eval_max_new_tokens", "analysis_examples"):
        value = cfg[key]
        if type(value) is not int or value < 1:
            raise UsageError(f"{key} must be an integer >= 1, got {value!r}")


def _section(cls, name: str, section: dict):
    """``cls`` built from a config section; a refusal is a UsageError."""
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {name} section: {exc}") from exc


def _check_lengths(corpus: Corpus, max_len: int) -> None:
    """Every source, and every target behind BOS, must fit model.max_len."""
    longest = max((max(len(ex.src), len(ex.tgt) + 1)
                   for name in SPLITS for ex in corpus.split(name)), default=0)
    if longest > max_len:
        raise UsageError(
            f"the corpus has a sequence of {longest} tokens (targets counted "
            f"with BOS) but model.max_len is {max_len}"
        )


def _model_config(cfg: dict, corpus: Corpus | None = None) -> ModelConfig:
    """The model section with cfg["variant"]; without a corpus, vocab sizes
    of 1 stand in, so the section is checked before a corpus exists."""
    section = dict(cfg["model"])
    section["fusion_mode"], section["fusion_sides"] = parse_variant(cfg["variant"])
    section["src_vocab"] = len(corpus.src_vocab) if corpus is not None else 1
    section["tgt_vocab"] = len(corpus.tgt_vocab) if corpus is not None else 1
    mcfg = _section(ModelConfig, "model", section)
    if corpus is not None:
        _check_lengths(corpus, mcfg.max_len)
    return mcfg


def _load_corpus(cfg: dict) -> Corpus:
    data_dir = Path(cfg["data_dir"])
    try:
        return load_corpus(data_dir)
    except FileNotFoundError as exc:
        raise UsageError(
            f"{exc}; run `layerfuse gen` first or point data_dir at a corpus"
        ) from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_run_model(cfg: dict, corpus: Corpus, checkpoint: str | None) -> Seq2SeqModel:
    """Load ``checkpoint`` (default: out_dir/checkpoint.npz) and check it fits the corpus."""
    ckpt = checkpoint or str(Path(cfg["out_dir"]) / "checkpoint.npz")
    if not Path(ckpt).exists():
        raise UsageError(f"checkpoint not found: {ckpt}")
    model, _ = load_checkpoint(ckpt)
    have = (model.config.src_vocab, model.config.tgt_vocab)
    want = (len(corpus.src_vocab), len(corpus.tgt_vocab))
    if have != want:
        raise UsageError(f"{ckpt} holds a model for vocab sizes {have} (source, "
                         f"target), but the corpus has {want}")
    _check_lengths(corpus, model.config.max_len)
    return model


def _added_params(model: Seq2SeqModel) -> int:
    """Parameters over vanilla: a variant adds only fuse-attention sublayers."""
    return sum(p.data.size for name, p in model.parameters().items()
               if ".fuse." in name)


def _decode_split(model, corpus: Corpus, examples, max_new: int):
    """Greedy-decode ``examples``; returns predictions and truncation flags."""
    sources = [corpus.src_vocab.encode(ex.src) for ex in examples]
    decoded = greedy_decode_batch(model, sources, BOS, EOS, max_new)
    return ([corpus.tgt_vocab.decode(ids) for ids, _ in decoded],
            [truncated for _, truncated in decoded])


def _write_json(path: Path, obj) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list, rows) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _keep_logged_steps(path: Path, last_step: int) -> None:
    """Rewrite the train log to its parseable records of steps <= ``last_step``.

    A run killed after its last checkpoint logged steps that a resume runs again.
    """
    if not path.exists():
        return
    kept = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            if json.loads(line)["step"] <= last_step:
                kept.append(line + "\n")
        except (ValueError, KeyError, TypeError):
            pass
    with atomic_write(path) as fh:
        fh.writelines(kept)


# -- run-directory stages: train, eval and analyze run one, sweep all three ----


def _train_run(cfg: dict, model: Seq2SeqModel, tcfg: TrainConfig, train_set: list,
               dev_set: list | None = None, state=None) -> dict:
    """Train (or continue ``state``) on the encoded ``train_set`` into out_dir,
    with dev-loss passes over ``dev_set`` if given; returns
    train_summary.json's dict."""
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    # The log is written a line per step, so a killed run keeps what it logged.
    log_path = out_dir / "train_log.jsonl"
    if state is not None:
        _keep_logged_steps(log_path, state.step)
    with open(log_path, "w" if state is None else "a", encoding="utf-8") as log:
        state, history = train_loop(
            model, train_set, tcfg, dev_set=dev_set or None,
            out_dir=out_dir, log_stream=log, state=state,
        )
    summary = {
        "steps": state.step,
        "variant": model.config.variant,
        "param_count": model.param_count(),
        "final_loss": history[-1]["loss"],
        "best_dev_loss": state.best_dev_loss,
    }
    _write_json(out_dir / "train_summary.json", summary)
    return summary


def _eval_run(cfg: dict, corpus: Corpus, model: Seq2SeqModel, split: str) -> dict:
    """Decode ``split`` into metrics_<split>.json and predictions_<split>.jsonl,
    plus the cter_by_*.csv breakdowns on cg_test; returns the metrics."""
    examples = corpus.split(split)
    if not examples:
        raise UsageError(f"split {split!r} is empty")
    preds, flags = _decode_split(model, corpus, examples, cfg["eval_max_new_tokens"])
    metrics = {
        "split": split,
        "n": len(examples),
        "exact_match": exact_match(preds, [ex.tgt for ex in examples]),
        "truncated": int(sum(flags)),
        "variant": model.config.variant,
    }
    out_dir = Path(cfg["out_dir"])
    if split == "cg_test":
        report = cter(preds, examples, corpus.dictionary)
        metrics["cter"] = report.to_dict()
        for name, breakdown in (("compound_length", report.by_compound_length),
                                ("context_length", report.by_context_bucket),
                                ("mod", report.by_mod)):
            _write_csv(out_dir / f"cter_by_{name}.csv", ["group", "errors", "total", "rate"],
                       [[group, cell["errors"], cell["total"], f"{cell['rate']:.6f}"]
                        for group, cell in breakdown.items()])
    _write_json(out_dir / f"metrics_{split}.json", metrics)
    with atomic_write(out_dir / f"predictions_{split}.jsonl") as fh:
        for ex, pred, flag in zip(examples, preds, flags):
            record = {"src": list(ex.src), "ref": list(ex.tgt), "pred": list(pred),
                      "truncated": bool(flag)}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return metrics


def _analyze_run(cfg: dict, corpus: Corpus, model: Seq2SeqModel) -> None:
    """fuse_probs.csv, the mean fuse-attention distribution of each fused
    layer over an analysis sample; FusionError for an unfused variant."""
    pool = corpus.cg_test or corpus.test or corpus.train
    sample = pool[: cfg["analysis_examples"]]
    probs = extract_fuse_probs(model, triples(sample, corpus.src_vocab, corpus.tgt_vocab))
    # layer is 1-based; prev_layer is 0-based, 0 being the embedding output.
    _write_csv(Path(cfg["out_dir"]) / "fuse_probs.csv",
               ["side", "layer", "prev_layer", "probability"],
               [[side, k + 1, prev, f"{p:.10f}"] for side in sorted(probs)
                for k in sorted(probs[side]) for prev, p in enumerate(probs[side][k])])


# -- subcommands ---------------------------------------------------------------


def cmd_gen(cfg: dict) -> int:
    spec = _section(CorpusSpec, "corpus", cfg["corpus"])
    corpus = generate_corpus(spec)
    out = Path(cfg["data_dir"])
    write_corpus(corpus, out)
    counts = {name: len(corpus.split(name)) for name in SPLITS}
    print(f"corpus written to {out} "
          f"(src vocab {len(corpus.src_vocab)}, tgt vocab {len(corpus.tgt_vocab)}, "
          + ", ".join(f"{k}={v}" for k, v in counts.items()) + ")")
    return 0


def cmd_train(cfg: dict, resume: str | None = None) -> int:
    corpus = _load_corpus(cfg)
    tcfg = _section(TrainConfig, "train", cfg["train"])
    state = None
    if resume is not None:
        model, state = load_checkpoint(resume)
        # Batch order and dropout come from train.seed, and the checkpoint
        # carries its run's seed into every later checkpoint.
        if state.seed != tcfg.seed:
            raise UsageError(f"{resume} was trained with seed {state.seed}, but "
                             f"train.seed is {tcfg.seed}; resume with --seed {state.seed}")
        # The config must describe the checkpoint's model; variant comes
        # first, so a fusion change names it rather than fusion_mode.
        want, have = ({"variant": c.variant, **c.to_dict()}
                      for c in (_model_config(cfg, corpus), model.config))
        for key in want:
            if want[key] != have[key]:
                raise UsageError(f"{resume} holds a model with {key} {have[key]!r}, "
                                 f"but the config gives {want[key]!r}")
        if state.step >= tcfg.steps:
            raise UsageError(f"{resume} is at step {state.step}, but train.steps is "
                             f"{tcfg.steps}; resume with more steps")
    else:
        model = Seq2SeqModel(_model_config(cfg, corpus))
    vocabs = corpus.src_vocab, corpus.tgt_vocab
    summary = _train_run(cfg, model, tcfg, triples(corpus.train, *vocabs),
                         triples(corpus.dev, *vocabs), state)
    print(f"trained {summary['steps']} steps, variant={summary['variant']}, "
          f"params={summary['param_count']}, final_loss={summary['final_loss']}")
    return 0


def cmd_eval(cfg: dict, checkpoint: str | None, split: str) -> int:
    corpus = _load_corpus(cfg)
    model = _load_run_model(cfg, corpus, checkpoint)
    metrics = _eval_run(cfg, corpus, model, split)
    line = f"{split}: n={metrics['n']} exact_match={metrics['exact_match']:.4f}"
    if "cter" in metrics:
        line += (f" cter_instance={metrics['cter']['instance_rate']:.4f}"
                 f" cter_aggregate={metrics['cter']['aggregate_rate']:.4f}")
    print(line)
    return 0


def cmd_analyze(cfg: dict, checkpoint: str | None = None) -> int:
    corpus = _load_corpus(cfg)
    model = _load_run_model(cfg, corpus, checkpoint)
    _analyze_run(cfg, corpus, model)
    print(f"analysis written to {cfg['out_dir']}")
    return 0


def cmd_sweep(cfg: dict, variants: list, seeds: list) -> int:
    """train + eval --split cg_test + analyze for every (variant, seed) into
    out_dir/runs/<variant>-s<seed>, then the sweep_results tables."""
    try:
        seeds = [int(s) for s in seeds]
    except ValueError as exc:
        raise UsageError(f"seeds must be comma-separated integers: {exc}") from exc
    # A repeat would train twice into one run directory.
    for name, values in (("variants", variants), ("seeds", seeds)):
        repeated = sorted({str(x) for x in values if values.count(x) > 1})
        if repeated:
            raise UsageError(f"--{name} repeats {', '.join(repeated)}")
    spec = _section(CorpusSpec, "corpus", cfg["corpus"])
    if spec.n_cg_compounds == 0:
        raise UsageError("sweep scores cg_test only, but corpus.n_cg_compounds is 0")
    out_dir = Path(cfg["out_dir"])
    runs = []
    for variant in variants:
        for seed in seeds:
            run_cfg = json.loads(json.dumps(cfg))
            run_cfg["variant"] = variant
            run_cfg["out_dir"] = str(out_dir / "runs" / f"{variant}-s{seed}")
            run_cfg["model"]["seed"] = run_cfg["train"]["seed"] = seed
            _model_config(run_cfg)  # every run is checked before any work
            tcfg = _section(TrainConfig, "train", run_cfg["train"])
            runs.append((variant, seed, run_cfg, tcfg))
    corpus = generate_corpus(spec)
    write_corpus(corpus, out_dir / "data")

    train_set = triples(corpus.train, corpus.src_vocab, corpus.tgt_vocab)
    rows = []
    for variant, seed, run_cfg, tcfg in runs:
        model = Seq2SeqModel(_model_config(run_cfg, corpus))
        # No dev-loss passes: the sweep reports cg_test only, and a pass
        # over the default 500 dev sentences outweighs a short run.
        summary = _train_run(run_cfg, model, tcfg, train_set)
        metrics = _eval_run(run_cfg, corpus, model, "cg_test")
        if model.config.fuses:
            _analyze_run(run_cfg, corpus, model)
        row = {
            "variant": variant,
            "seed": seed,
            "params": model.param_count(),
            "added_params": _added_params(model),
            "cter_instance": metrics["cter"]["instance_rate"],
            "cter_aggregate": metrics["cter"]["aggregate_rate"],
            "exact_match": metrics["exact_match"],
            "final_loss": summary["final_loss"],
        }
        rows.append(row)
        print(f"[sweep] {variant} seed={seed} "
              f"cter_inst={row['cter_instance']:.4f} "
              f"cter_aggr={row['cter_aggregate']:.4f} "
              f"em={row['exact_match']:.4f} params={row['params']}")

    _write_csv(out_dir / "sweep_results.csv", list(rows[0]),
               [list(row.values()) for row in rows])

    lines = ["| variant | runs | params | added_params | cter_instance | "
             "cter_aggregate | exact_match |",
             "|---|---|---|---|---|---|---|"]
    for variant in variants:
        sub = [r for r in rows if r["variant"] == variant]
        mean = lambda key: sum(r[key] for r in sub) / len(sub)
        lines.append(
            f"| {variant} | {len(sub)} | {sub[0]['params']} | "
            f"{sub[0]['added_params']} | {mean('cter_instance'):.4f} | "
            f"{mean('cter_aggregate'):.4f} | {mean('exact_match'):.4f} |"
        )
    table = "\n".join(lines) + "\n"
    with atomic_write(out_dir / "sweep_results.md") as fh:
        fh.write(table)
    print(table)
    return 0


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerfuse",
        description="Cross-layer fusion transformer on a synthetic "
                    "compositional-generalization benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dot-path config override, repeatable")
        p.add_argument("--seed", type=int, default=None,
                       help="override model.seed and train.seed")
        p.add_argument("--out", default=None, help="override out_dir (data_dir for gen)")

    p = sub.add_parser("gen", help="generate the synthetic corpus")
    common(p)
    p = sub.add_parser("train", help="train a model on data_dir")
    common(p)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p = sub.add_parser("eval", help="greedy-decode a split and report metrics")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--split", default="cg_test", choices=SPLITS)
    p = sub.add_parser("analyze", help="dump fuse-attention probabilities")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p = sub.add_parser("sweep", help="train and evaluate a grid of variants "
                                     "and seeds")
    common(p)
    p.add_argument("--variants", default=",".join(VARIANT_NAMES),
                   help="comma-separated variant names")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "train":
            return cmd_train(cfg, resume=args.resume)
        if args.command == "eval":
            return cmd_eval(cfg, checkpoint=args.checkpoint, split=args.split)
        if args.command == "analyze":
            return cmd_analyze(cfg, checkpoint=args.checkpoint)
        if args.command == "sweep":
            return cmd_sweep(cfg, variants=args.variants.split(","),
                             seeds=args.seeds.split(","))
    except (UsageError, GenerationError, FusionError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
