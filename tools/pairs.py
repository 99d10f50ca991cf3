"""Alternating paired runs of a parent checkout and a change checkout.

    python3 tools/pairs.py PARENT CHANGE --workload W [--workload W2 ...]
        [--pairs 10] [--seconds S]
    python3 tools/pairs.py PARENT CHANGE --op train|decode|greedy|corpus
        [--pairs 10] [--variant fuse]

A pair runs the same thing once on each side, the parent first on even pairs
and the change first on odd ones. Each comparison prints one line: each
side's median [q1, q3] and the change's wins over the pairs, ties counting
for neither.

--workload W runs ``perfbench/run.py --workload W --seconds S --seed i`` in
each checkout for pair i, S being CHANGE's BENCHMARK.json ``run_seconds``
unless given. Per end-to-end metric of that file it prints the comparison
and the median's change against the metric's bound, then each side's failed
operations. It exits 1 when a run exits non-zero, does not end with a JSON
result line or reports ``"correct": false``.

--op times one operation in this process, with one BLAS thread set before
numpy loads. Each checkout's src/layerfuse is loaded twice as a package of
its own: a side's first copy before the other side's, its second after it.
Episodes switch copies every two episodes, so load order favours neither
side; --pairs counts episodes. The side that runs first also alternates
from episode to episode for the same pair. Wins count pairs whose median
time is lower on the change; the median change/parent ratio follows. The
model is the CLI's default model section for --variant on the default
corpus, untrained.
  train   a pair resets the model and Adam state and times STEPS
          ``train_step`` calls per side (``TrainConfig(seed=0)``); prints
          the last losses and the largest parameter difference, and exits 1
          when the losses differ by more than 1e-9 relative, train_fuse's
          same-seed tolerance.
  decode  a pair is one ``greedy_decode_batch`` of the default corpus's 600
          cg_test sources, EOS an id outside the target vocabulary as in
          decode_fuse, so every row decodes the CLI's full
          ``eval_max_new_tokens`` budget.
  greedy  decode_fuse's own operation in the same setting: a pair is a lone
          ``greedy_decode`` of one cg_test source, 600 pairs an episode.
  corpus  a pair is ``generate_corpus(CorpusSpec())`` plus ``write_corpus``
          into a temporary directory per copy, sweep_small's two corpus
          calls; no model is built.
decode, greedy and corpus exit 1 when the sides' outputs of the last episode
(decoded tokens, or written files) differ. A bad command line, an unknown
--variant included, exits 2.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

SIDES = ("parent", "change")
BLAS_THREADS = "1"
STEPS = 20
LOSS_REL_TOL = 1e-9
UNITS = {"train": "step", "decode": "decode", "greedy": "decode", "corpus": "corpus"}


class UsageError(Exception):
    """A command line the tool refuses; exits 2."""


def run_pairs(n: int, run, start: int = 0) -> dict:
    """``run(side, i)`` for each side of pairs i = 0..n-1, the parent first
    when ``start + i`` is even; returns each side's results in pair order."""
    results = {side: [] for side in SIDES}
    for i in range(n):
        for side in SIDES if (start + i) % 2 == 0 else SIDES[::-1]:
            results[side].append(run(side, i))
    return results


def quartiles(values: list) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(values: dict, pair_values: dict, lower: bool = True) -> str:
    """Each side's median [q1, q3] of ``values`` and the change's wins over
    ``pair_values``, one value per pair and side."""
    wins = sum((c < p) if lower else (c > p)
               for p, c in zip(pair_values["parent"], pair_values["change"]))
    stats = {side: quartiles(values[side]) for side in SIDES}
    return "  ".join(f"{side} median {q2:.4g} [q1 {q1:.4g}, q3 {q3:.4g}]"
                     for side, (q1, q2, q3) in stats.items()
                     ) + f"  change wins {wins}/{len(pair_values['change'])}"


# -- --workload: subprocess runs of perfbench/run.py ---------------------------


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run; returns the JSON object of its last output line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        raise RuntimeError(f"{checkout}: {workload} seed {seed} printed no JSON object "
                           f"as its last line")
    return result


def summarize(benchmark: dict, workload: str, runs: dict) -> tuple[list[str], bool]:
    """Report lines for one workload's paired runs and whether all were correct.

    ``runs`` maps "parent" and "change" to equally long lists of run.py result
    objects, pair i being element i of each list.
    """
    lines = [f"== {workload}: {len(runs['parent'])} pairs"]
    for spec in benchmark["end_to_end"]:
        name, lower = spec["name"], spec["better"] == "lower"
        if any(name not in r["metrics"] for side in SIDES for r in runs[side]):
            lines.append(f"  {name}: absent from some runs")
            continue
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        parent_median, change_median = (statistics.median(values[side]) for side in SIDES)
        worse = (change_median - parent_median) / parent_median * (1 if lower else -1)
        verdict = "WORSE beyond bound" if worse > spec["bound"] else "within bound"
        lines.append(f"  {name} ({spec['unit']}, {spec['better']} is better): "
                     f"{compare(values, values, lower)}  median worse by "
                     f"{100 * worse:+.1f}% ({verdict}, bound {100 * spec['bound']:.0f}%)")
    correct = True
    for side in SIDES:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        bad = sum(not r["correct"] for r in runs[side])
        correct = correct and bad == 0
        lines.append(f"  {side}: {failed}/{attempted} operations failed, "
                     f"{bad} runs not correct")
    return lines, correct


def workload_pairs(args) -> int:
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    all_correct = True
    for workload in args.workload:
        def run(side, i):
            result = run_once(checkouts[side], workload, seconds, i)
            print(f"[{workload}] pair {i} {side} done", file=sys.stderr, flush=True)
            return result
        try:
            runs = run_pairs(args.pairs, run)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        lines, correct = summarize(benchmark, workload, runs)
        print("\n".join(lines), flush=True)
        all_correct = all_correct and correct
    return 0 if all_correct else 1


# -- --op: in-process timing of one operation -----------------------------------


class Side(NamedTuple):
    """One loaded copy of a checkout, set up for an op."""

    pairs: int  # pairs per episode
    run: Callable  # run(i) times pair i's operation; returns (times in ms, output)
    model: object  # None for corpus


def load_side(op: str, checkout: Path, name: str, variant: str) -> Side:
    """Import ``checkout``'s src/layerfuse under the package name ``name`` and
    set up ``op`` with the CLI's default model section for ``variant``."""
    src = checkout / "src" / "layerfuse"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    cli, compgen, model, training = (importlib.import_module(f"{name}.{m}")
                                     for m in ("cli", "compgen", "model", "training"))
    try:  # before any corpus is built, vocab sizes of 1 standing in
        config = model.ModelConfig(src_vocab=1, tgt_vocab=1,
                                   **cli.default_config()["model"]).with_variant(variant)
    except ValueError as exc:
        raise UsageError(exc) from None
    if op == "corpus":
        tmp = tempfile.TemporaryDirectory(prefix=f"{name}-")

        def write(_):
            gc.collect()
            t0 = time.perf_counter()
            compgen.write_corpus(compgen.generate_corpus(compgen.CorpusSpec()), tmp.name)
            ms = (time.perf_counter() - t0) * 1000.0
            return [ms], {f.name: (f.stat().st_size, hashlib.sha256(f.read_bytes()).hexdigest())
                          for f in sorted(Path(tmp.name).iterdir())}
        return Side(1, write, None)
    corpus = compgen.generate_corpus(compgen.CorpusSpec())
    net = model.Seq2SeqModel(dataclasses.replace(
        config, src_vocab=len(corpus.src_vocab), tgt_vocab=len(corpus.tgt_vocab)))
    if op == "train":
        train_set = compgen.triples(corpus.train, corpus.src_vocab, corpus.tgt_vocab)
        cfg = training.TrainConfig(seed=0)
        initial = {n: p.data.copy() for n, p in net.parameters().items()}

        def train(_):
            for n, p in net.parameters().items():
                p.data = initial[n].copy()
            state = training.init_state(net, cfg)
            times, loss = [], None
            gc.collect()
            for _ in range(STEPS):
                idx = training.batch_indices(state.step, len(train_set), cfg)
                batch = [train_set[k] for k in idx]
                t0 = time.perf_counter()
                loss = training.train_step(net, batch, cfg, state)["loss"]
                times.append((time.perf_counter() - t0) * 1000.0)
            return times, loss
        return Side(1, train, net)
    sources = [corpus.src_vocab.encode(ex.src) for ex in corpus.cg_test]
    eos = len(corpus.tgt_vocab)  # never emitted: every row runs the budget
    max_new = cli.default_config()["eval_max_new_tokens"]
    if op == "decode":
        def decode(_):
            gc.collect()
            t0 = time.perf_counter()
            decoded = training.greedy_decode_batch(net, sources, compgen.BOS, eos, max_new)
            return [(time.perf_counter() - t0) * 1000.0], decoded
        return Side(1, decode, net)

    def greedy(i):
        t0 = time.perf_counter()
        decoded = training.greedy_decode(net, sources[i], compgen.BOS, eos, max_new)
        return [(time.perf_counter() - t0) * 1000.0], [decoded]
    return Side(len(sources), greedy, net)


def op_pairs(args) -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import numpy as np  # numpy reads the thread setting when it loads

    sys.dont_write_bytecode = True  # leave both checkouts as they are
    print(f"blas threads {BLAS_THREADS} (OMP, OPENBLAS, MKL), numpy {np.__version__}, "
          f"variant {args.variant}, {args.pairs} episodes of {args.op} per side", flush=True)
    # Copy 0 loads the parent first, copy 1 the change.
    copies = [{}, {}]
    for c, order in enumerate((SIDES, SIDES[::-1])):
        for side in order:
            copies[c][side] = load_side(args.op, getattr(args, side), f"_pairs_{side}{c}",
                                        args.variant)
    times = {side: [] for side in SIDES}
    pair_ms = {side: [] for side in SIDES}  # each pair's median time
    for e in range(args.pairs):
        sides = copies[e // 2 % 2]
        runs = run_pairs(sides["change"].pairs, lambda side, i: sides[side].run(i), start=e)
        episode = {side: [ms for op_ms, _ in runs[side] for ms in op_ms] for side in SIDES}
        for side in SIDES:
            times[side] += episode[side]
            pair_ms[side] += [statistics.median(op_ms) for op_ms, _ in runs[side]]
        outputs = {side: [output for _, output in runs[side]] for side in SIDES}
        print(f"episode {e}: " + "  ".join(
            f"{side} {statistics.median(episode[side]):.2f} ms" for side in SIDES),
            file=sys.stderr, flush=True)
    print(f"ms per {UNITS[args.op]}: {compare(times, pair_ms)}")
    ratios = [c / p for p, c in zip(pair_ms["parent"], pair_ms["change"])]
    print(f"median change/parent ratio: {statistics.median(ratios):.3f}")
    if args.op != "train":
        if args.op == "corpus":
            (files,) = outputs["change"]
            what = f"{len(files)} files, {sum(n for n, _ in files.values())} bytes"
        else:
            decoded = [pair for output in outputs["change"] for pair in output]
            what = f"{len(decoded)} sources, {sum(len(ids) for ids, _ in decoded)} tokens"
        same = outputs["parent"] == outputs["change"]
        print(f"outputs: {'identical' if same else 'DIFFERENT'} ({what} on the change side)")
        if not same:
            print("error: the two sides' outputs differ", file=sys.stderr)
        return 0 if same else 1
    parent_loss, change_loss = outputs["parent"][0], outputs["change"][0]
    print(f"last loss: parent {parent_loss!r}  change {change_loss!r}")
    params = {side: sides[side].model.parameters() for side in SIDES}
    if params["parent"].keys() != params["change"].keys():
        print("error: the two models' parameter names differ", file=sys.stderr)
        return 1
    diff = max(float(np.max(np.abs(p.data - params["change"][name].data)))
               for name, p in params["parent"].items())
    print(f"largest absolute parameter difference: {diff!r}")
    if abs(change_loss - parent_loss) > LOSS_REL_TOL * abs(parent_loss):
        print(f"error: last losses differ by more than {LOSS_REL_TOL} relative",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", action="append",
                      help="a perfbench workload to run; repeat for several")
    mode.add_argument("--op", choices=tuple(UNITS),
                      help="an operation to time in this process")
    p.add_argument("--pairs", type=int, default=10,
                   help="pairs per workload, or episodes of --op (default 10)")
    p.add_argument("--seconds", type=float, default=None,
                   help="--workload operation time per run "
                        "(default: BENCHMARK.json's run_seconds)")
    p.add_argument("--variant", default="fuse", help="--op model variant (default fuse)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    if args.workload:
        return workload_pairs(args)
    try:
        return op_pairs(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
