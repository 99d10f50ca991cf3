"""tools/step_pairs.py, run with this checkout on both sides."""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_checkout_against_itself_gives_equal_losses_and_parameters():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_pairs.py"), str(ROOT), str(ROOT),
         "--episodes", "1"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    out = result.stdout
    assert out.startswith("blas threads 1 ")
    losses = re.search(r"^last loss: parent (\S+)  change (\S+)$", out, re.M)
    assert losses is not None and losses[1] == losses[2], out
    assert "largest absolute parameter difference: 0.0\n" in out
    assert re.search(r"^change median step lower in [01]/1 episodes$", out, re.M)
    for side in ("parent", "change"):
        assert re.search(rf"^{side}: median step [\d.]+ ms \[q1 [\d.]+, q3 [\d.]+\]$",
                         out, re.M), out
