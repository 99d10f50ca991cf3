"""tools/step_pairs.py, run with this checkout on both sides."""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_against_itself(*args) -> str:
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_pairs.py"), str(ROOT), str(ROOT),
         "--episodes", "1", *args],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("blas threads 1 ")
    return result.stdout


def assert_timed(out: str, unit: str, pairs: int = 1) -> None:
    assert re.search(rf"^change median {unit} lower in \d+/{pairs} pairs$", out, re.M), out
    assert re.search(r"^median change/parent ratio: [\d.]+$", out, re.M), out
    for side in ("parent", "change"):
        assert re.search(rf"^{side}: median {unit} [\d.]+ ms \[q1 [\d.]+, q3 [\d.]+\]$",
                         out, re.M), out


def test_a_checkout_against_itself_gives_equal_losses_and_parameters():
    out = run_against_itself()
    losses = re.search(r"^last loss: parent (\S+)  change (\S+)$", out, re.M)
    assert losses is not None and losses[1] == losses[2], out
    assert "largest absolute parameter difference: 0.0\n" in out
    assert_timed(out, "step")


def test_decode_of_a_checkout_against_itself_gives_identical_outputs():
    out = run_against_itself("--op", "decode")
    # 600 cg_test sources, each decoding the full 30-token budget.
    assert "outputs: identical (600 sources, 18000 tokens on the change side)\n" in out
    assert_timed(out, "decode")


def test_greedy_of_a_checkout_against_itself_gives_identical_outputs():
    out = run_against_itself("--op", "greedy")
    # One pair per cg_test source, each a lone decode of the full budget.
    assert "outputs: identical (600 sources, 18000 tokens on the change side)\n" in out
    assert_timed(out, "decode", pairs=600)


def test_corpus_of_a_checkout_against_itself_writes_identical_files():
    out = run_against_itself("--op", "corpus")
    # Four splits and the manifest of the default corpus.
    assert re.search(r"^outputs: identical \(5 files, \d+ bytes on the change side\)$",
                     out, re.M), out
    assert_timed(out, "corpus")
