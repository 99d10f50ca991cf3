"""tools/pairs.py: the summary of paired benchmark results, each --op run
with this checkout on both sides, and its refusals."""
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

BENCHMARK = {"end_to_end": [
    {"name": "op_ms_p50_ref", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "tokens_per_s_ref", "unit": "tokens/s", "better": "higher", "bound": 0.25},
]}


def result_line(op_ms, tokens, failed=0, correct=True):
    """One run.py last line, as the tool parses it."""
    return {"correct": correct, "attempted": 20, "failed": failed,
            "metrics": {"op_ms_p50_ref": {"value": op_ms, "unit": "ms"},
                        "tokens_per_s_ref": {"value": tokens, "unit": "tokens/s"}}}


def test_summary_counts_wins_ties_and_quartiles():
    runs = {"parent": [result_line(v, 100.0) for v in (10.0, 12.0, 14.0, 16.0)],
            "change": [result_line(v, t) for v, t in
                       ((9.0, 100.0), (12.0, 101.0), (15.0, 99.0), (13.0, 150.0))]}
    lines, correct = pairs.summarize(BENCHMARK, "train_fuse", runs)
    assert correct
    assert lines[0] == "== train_fuse: 4 pairs"
    op, tokens = lines[1], lines[2]
    # Pair 2 is a tie on op_ms and counts for neither side.
    assert "parent median 13 [q1 11.5, q3 14.5]" in op
    assert "change wins 2/4" in op and "within bound" in op
    assert "change wins 2/4" in tokens
    assert lines[3] == "  parent: 0/80 operations failed, 0 runs not correct"


def test_summary_flags_failures_and_a_worse_median():
    runs = {"parent": [result_line(10.0, 100.0)] * 2,
            "change": [result_line(14.0, 100.0, failed=1, correct=False),
                       result_line(13.0, 100.0)]}
    lines, correct = pairs.summarize(BENCHMARK, "sweep_small", runs)
    assert not correct
    assert "change wins 0/2" in lines[1] and "+35.0% (WORSE beyond bound" in lines[1]
    assert lines[-1] == "  change: 1/40 operations failed, 1 runs not correct"


def test_summary_reports_an_absent_metric():
    runs = {"parent": [result_line(10.0, 100.0)], "change": [result_line(10.0, 100.0)]}
    del runs["change"][0]["metrics"]["tokens_per_s_ref"]
    lines, _ = pairs.summarize(BENCHMARK, "decode_fuse", runs)
    assert lines[2] == "  tokens_per_s_ref: absent from some runs"


def run_pairs_tool(parent, change, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairs.py"), str(parent), str(change),
         "--pairs", "1", *args],
        capture_output=True, text=True, timeout=300)


def run_against_itself(op) -> str:
    result = run_pairs_tool(ROOT, ROOT, "--op", op)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("blas threads 1 ")
    return result.stdout


def assert_timed(out: str, unit: str, pairs: int = 1) -> None:
    number = r"[\d.e+-]+"
    sides = "  ".join(rf"{side} median {number} \[q1 {number}, q3 {number}\]"
                      for side in ("parent", "change"))
    assert re.search(rf"^ms per {unit}: {sides}  change wins \d+/{pairs}$", out, re.M), out
    assert re.search(r"^median change/parent ratio: [\d.]+$", out, re.M), out


def test_a_checkout_against_itself_gives_equal_losses_and_parameters():
    out = run_against_itself("train")
    losses = re.search(r"^last loss: parent (\S+)  change (\S+)$", out, re.M)
    assert losses is not None and losses[1] == losses[2], out
    assert "largest absolute parameter difference: 0.0\n" in out
    assert_timed(out, "step")


def test_decode_of_a_checkout_against_itself_gives_identical_outputs():
    out = run_against_itself("decode")
    # 600 cg_test sources, each decoding the full 30-token budget.
    assert "outputs: identical (600 sources, 18000 tokens on the change side)\n" in out
    assert_timed(out, "decode")


def test_greedy_of_a_checkout_against_itself_gives_identical_outputs():
    out = run_against_itself("greedy")
    # One pair per cg_test source, each a lone decode of the full budget.
    assert "outputs: identical (600 sources, 18000 tokens on the change side)\n" in out
    assert_timed(out, "decode", pairs=600)


def test_corpus_of_a_checkout_against_itself_writes_identical_files():
    out = run_against_itself("corpus")
    # Four splits and the manifest of the default corpus.
    assert re.search(r"^outputs: identical \(5 files, \d+ bytes on the change side\)$",
                     out, re.M), out
    assert_timed(out, "corpus")


def test_an_unknown_variant_exits_2_with_one_error_line():
    result = run_pairs_tool(ROOT, ROOT, "--op", "train", "--variant", "bogus")
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "error: variant must be one of vanilla, fuse, fuse_enc, fuse_dec, fuse_top, accum, "
        "got 'bogus'"]


def test_a_run_without_a_json_last_line_fails_naming_checkout_workload_and_seed(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text('print("not json")\n')
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 1, "end_to_end": []}')
    result = run_pairs_tool(tmp_path, tmp_path, "--workload", "decode_fuse")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error: {tmp_path}: decode_fuse seed 0 "), line
