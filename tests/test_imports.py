"""numpy and multiprocessing stay off every scoring path: only the
oracle loads numpy, and only a call that forks loads multiprocessing.

Runs in a fresh interpreter, since the test session itself has both
loaded long before any test starts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json
import sys

import peelbc
import peelbc.cli
from peelbc import fixture_path

out_dir = sys.argv[1]
dolphins = str(fixture_path("soc-dolphins"))


def loaded():
    return {name: name in sys.modules for name in ("numpy", "multiprocessing")}


report = {"after_import": loaded()}


def scores(name, *argv):
    path = f"{out_dir}/{name}.json"
    assert peelbc.cli.main([argv[0], dolphins, *argv[1:], "--format", "json",
                            "--out", path]) == 0, name
    with open(path, encoding="utf-8") as fh:
        return [row["bc"] for row in json.load(fh)["scores"]]


brandes = scores("brandes", "exact", "--algorithm", "brandes", "--threads", "1")
scores("peel1", "exact", "--algorithm", "peel1", "--threads", "1")
two_core = scores("2core-recurrence", "exact", "--algorithm", "2core-recurrence")
scores("peeled", "sample", "--method", "peeled", "--k", "10")
scores("baseline", "sample", "--method", "baseline", "--k", "10")
report["after_scoring"] = loaded()

oracle = scores("oracle", "exact", "--algorithm", "oracle")
report["after_oracles"] = "numpy" in sys.modules
report["max_diff"] = {
    name: max(abs(a - b) for a, b in zip(brandes, bc))
    for name, bc in (("2core-recurrence", two_core), ("oracle", oracle))
}
print(json.dumps(report))
"""


def test_scoring_leaves_numpy_unloaded(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["after_import"] == {"numpy": False, "multiprocessing": False}
    # soc-dolphins is below FORK_MIN_WORK, so no call forks.
    assert report["after_scoring"] == {"numpy": False, "multiprocessing": False}
    assert report["after_oracles"]  # loaded on demand by the oracle
    for name, diff in report["max_diff"].items():
        assert diff <= 1e-9, name
