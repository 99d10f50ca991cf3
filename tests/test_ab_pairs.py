"""tools/ab_pairs.py's summary of paired benchmark results."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

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
    lines, correct = ab_pairs.summarize(BENCHMARK, "train_fuse", runs)
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
    lines, correct = ab_pairs.summarize(BENCHMARK, "sweep_small", runs)
    assert not correct
    assert "change wins 0/2" in lines[1] and "+35.0% (WORSE beyond bound" in lines[1]
    assert lines[-1] == "  change: 1/40 operations failed, 1 runs not correct"


def test_summary_reports_an_absent_metric():
    runs = {"parent": [result_line(10.0, 100.0)], "change": [result_line(10.0, 100.0)]}
    del runs["change"][0]["metrics"]["tokens_per_s_ref"]
    lines, _ = ab_pairs.summarize(BENCHMARK, "decode_fuse", runs)
    assert lines[2] == "  tokens_per_s_ref: absent from some runs"
