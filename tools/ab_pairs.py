"""Paired benchmark runs of a parent checkout against a change checkout.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload train_fuse \
        --workload sweep_small --pairs 10

For each workload and each i in 0..pairs-1, runs
``python3 perfbench/run.py --workload W --seconds S --seed i`` once in each
checkout, parent first on even i and change first on odd i. For every
end-to-end metric that CHANGE_DIR's BENCHMARK.json lists, it prints each
side's median and quartiles, the change's wins over the pairs (ties count
for neither) and the change of the median against the metric's bound, then
each side's failed operations. It exits 1 when any run exits non-zero or
reports ``"correct": false``. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run; returns the JSON object of its last output line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


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
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        stats = {side: _quartiles(values[side]) for side in SIDES}
        parent_median, change_median = stats["parent"][1], stats["change"][1]
        worse = (change_median - parent_median) / parent_median * (1 if lower else -1)
        verdict = "WORSE beyond bound" if worse > spec["bound"] else "within bound"
        lines.append(
            f"  {name} ({spec['unit']}, {spec['better']} is better): "
            + "  ".join(f"{side} median {q2:.4g} [q1 {q1:.4g}, q3 {q3:.4g}]"
                        for side, (q1, q2, q3) in stats.items())
            + f"  change wins {wins}/{len(values['change'])}"
            + f"  median worse by {100 * worse:+.1f}% ({verdict}, bound "
            + f"{100 * spec['bound']:.0f}%)")
    correct = True
    for side in SIDES:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        bad = sum(not r["correct"] for r in runs[side])
        correct = correct and bad == 0
        lines.append(f"  {side}: {failed}/{attempted} operations failed, "
                     f"{bad} runs not correct")
    return lines, correct


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True,
                   help="a workload to run; repeat for several")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None,
                   help="operation time per run (default: BENCHMARK.json's run_seconds)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    all_correct = True
    for workload in args.workload:
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                try:
                    runs[side].append(run_once(checkouts[side], workload, seconds, i))
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                print(f"[{workload}] pair {i} {side} done", file=sys.stderr, flush=True)
        lines, correct = summarize(benchmark, workload, runs)
        print("\n".join(lines), flush=True)
        all_correct = all_correct and correct
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
