"""The repository's command-line tools run end to end."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_inprocess_smoke():
    """One round of the in-process A/B with this checkout's src/ on both
    sides: each side's call writes the same bytes, so it exits 0 and
    prints one table row for the graph."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"),
         "--base-src", str(ROOT / "src"), "--rounds", "1", "--graphs", "soc-dolphins",
         "--", "exact", "--algorithm", "peel1", "--threads", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows[0][:2] == ["peelbc", "exact"]
    assert [row[0] for row in rows[2:]] == ["soc-dolphins"]
    assert rows[2][-1] in ("0/1", "1/1")
