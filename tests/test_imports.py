"""numpy and multiprocessing stay off every scoring path: only the
oracle loads numpy, and no call loads multiprocessing, not even one
that forks chunk processes (run_chunked forks with os.fork).

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
import os
import sys

import peelbc
import peelbc.cli
from peelbc import fixture_path

out_dir = sys.argv[1]
dolphins = str(fixture_path("soc-dolphins"))
forks = []
real_fork = os.fork


def counted_fork():
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid


os.fork = counted_fork


def loaded():
    return {name: name in sys.modules for name in ("numpy", "multiprocessing")}


report = {"after_import": loaded()}


def scores(name, *argv, graph=dolphins):
    path = f"{out_dir}/{name}.json"
    assert peelbc.cli.main([argv[0], graph, *argv[1:], "--format", "json",
                            "--out", path]) == 0, name
    with open(path, encoding="utf-8") as fh:
        return [row["bc"] for row in json.load(fh)["scores"]]


brandes = scores("brandes", "exact", "--algorithm", "brandes", "--threads", "1")
scores("peel1", "exact", "--algorithm", "peel1", "--threads", "1")
two_core = scores("2core-recurrence", "exact", "--algorithm", "2core-recurrence")
scores("peeled", "sample", "--method", "peeled", "--k", "10")
scores("baseline", "sample", "--method", "baseline", "--k", "10")
report["forks_below_threshold"] = len(forks)
# ca-CSphd's peel1 work (63k root-edge units) is above FORK_MIN_WORK.
scores("forked", "exact", "--algorithm", "peel1", "--threads", "2",
       graph=str(fixture_path("ca-CSphd")))
report["forks"] = len(forks)
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
    # soc-dolphins is below FORK_MIN_WORK, so no call on it forks.
    assert report["forks_below_threshold"] == 0
    assert report["forks"] == 1
    assert report["after_scoring"] == {"numpy": False, "multiprocessing": False}
    assert report["after_oracles"]  # loaded on demand by the oracle
    for name, diff in report["max_diff"].items():
        assert diff <= 1e-9, name
