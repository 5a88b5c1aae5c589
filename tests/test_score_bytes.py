"""Pinned output bytes: the sha256 of the JSON and CSV score files of
each exact algorithm (--threads 1) and each sampler (--k 10 --seed 0),
and of the stats table in JSON and CSV, on three bundled fixtures.  Output sent to
stdout must be the same bytes as the --out file.  Exact score files do
not depend on --threads (tests/test_cli.py checks that), so the
--threads 1 digests pin every thread count.

Speed work on the kernel (component passes, pendants riding their
anchor's BFS) must not move a byte of these files unless it changes
the order in which terms are added.  A change that moves bytes on
purpose (a new reduction order, such as the fixed blocks folded above
FORK_MIN_WORK) updates the digests here and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import peelbc

from peelbc import fixture_path
from peelbc.cli import main

RUNS = {
    "brandes": ["exact", "--algorithm", "brandes", "--threads", "1"],
    "peel1": ["exact", "--algorithm", "peel1", "--threads", "1"],
    "2core-recurrence": ["exact", "--algorithm", "2core-recurrence", "--threads", "1"],
    "sample-peeled": ["sample", "--method", "peeled", "--k", "10", "--seed", "0"],
    "sample-baseline": ["sample", "--method", "baseline", "--k", "10", "--seed", "0"],
    "stats-json": ["stats"],
    "stats-csv": ["stats", "--format", "csv"],
}
RUNS.update({
    f"{run}-csv": [*RUNS[run], "--format", "csv"]
    for run in ("brandes", "peel1", "2core-recurrence", "sample-peeled", "sample-baseline")
})

DIGESTS = {
    ("rt_obama", "brandes"): "d4359efcb11aa0d9066ccff124dc1b17192f23bc4ee1a3a9f599345f674a03f5",
    ("rt_obama", "peel1"): "09a32aad885f93100c53b66af8021d9701ea8516b961b3e8358e5b3276d834f3",
    ("rt_obama", "2core-recurrence"):
        "234c7795bfbc48e102ccebb19375303af618eb572b04c40fdecc25695034635f",
    ("rt_obama", "sample-peeled"):
        "1de0e85cbec229819c390e926f305487d557cd728dd9a3593ce8ba07cf15d829",
    ("rt_obama", "sample-baseline"):
        "f489fe802e53dbc4bd2fece3a4688af26dc78e4bb809bd6716e5b80cf42c6307",
    ("rt_obama", "stats-json"):
        "8de0e8a7c9c792a9eaa4d19a86340f174124e322737c60fd0eb139ab62012c66",
    ("rt_obama", "stats-csv"):
        "669930b71949ac5606f24140267bb3ce72ad5b68d22b27076fa50e7090312cfa",
    ("rt_obama", "brandes-csv"):
        "149748e9ec1a505f8c54972a955d245ec2dfbb24ef7d04fc5339f622e6bd6ae8",
    ("rt_obama", "peel1-csv"):
        "149748e9ec1a505f8c54972a955d245ec2dfbb24ef7d04fc5339f622e6bd6ae8",
    ("rt_obama", "2core-recurrence-csv"):
        "149748e9ec1a505f8c54972a955d245ec2dfbb24ef7d04fc5339f622e6bd6ae8",
    ("rt_obama", "sample-peeled-csv"):
        "d988264cd6d4e6f51ff4cd06fe4075c81963d1521ffd8a6eae470588a40bdbc3",
    ("rt_obama", "sample-baseline-csv"):
        "f442c0ece78aef2ea7c2ea013215d2027b71d4ef59592799c2c2af829b2cffeb",
    ("ca-CSphd", "brandes"): "23be6383a38c5a12d241bcbfe05363f99ceace4777b86d3acd842931fc087818",
    ("ca-CSphd", "peel1"): "2ddb13b0ad03c3d9ee7e41b99b5a8b5343968b213f0eba7cea9a066aeb58c9d7",
    ("ca-CSphd", "2core-recurrence"):
        "dbd5779321eaf108f217f5290e5bb6ecd131acfdfbd5d9203f9326323175b020",
    ("ca-CSphd", "sample-peeled"):
        "750ec7bd11ad9f95c1ecade05d6bde789c17b44b3725ac7c3dd3b94543d8b023",
    ("ca-CSphd", "sample-baseline"):
        "69faae3f97e166c80104910893547c7da4dc0e28fb75b011bd3771495887678f",
    ("ca-CSphd", "stats-json"):
        "1a48efc070879e2a9e5db23341679e84eef3c08a71caa7a24e3cf8125ad90215",
    ("ca-CSphd", "stats-csv"):
        "438f382f71a8cc712f7323a80695616ff62fa643b3d5e2647260d0c7d759a927",
    ("ca-CSphd", "brandes-csv"):
        "91487ee361c430ff636be5a50790a6356e729c8a567321fc5ba3a12aa1f18022",
    ("ca-CSphd", "peel1-csv"):
        "91487ee361c430ff636be5a50790a6356e729c8a567321fc5ba3a12aa1f18022",
    ("ca-CSphd", "2core-recurrence-csv"):
        "91487ee361c430ff636be5a50790a6356e729c8a567321fc5ba3a12aa1f18022",
    ("ca-CSphd", "sample-peeled-csv"):
        "328044e05dafb771797449a687433f0ebdce8d7b83b802a4609fb44890b0c1b1",
    ("ca-CSphd", "sample-baseline-csv"):
        "171a55a561af366f02ca4aaff00924893194e077f7df7569a8f958764d68caae",
    ("soc-dolphins", "brandes"):
        "37e37eaef18d2f1de147268c7beba5192dbfe7b5c9e242a48235ca65cf95cbd0",
    ("soc-dolphins", "peel1"): "5bc000518e90ee34641b076c60affce2ee29add7b505a22ee1d849db4a07df09",
    ("soc-dolphins", "2core-recurrence"):
        "180023c659a01250a7154f077ef1b50ced9a6b22d72806dbefdd01eeffbbdd1f",
    ("soc-dolphins", "sample-peeled"):
        "0a9e3f30c90ea0663ab30eef748f23dd40a6f66c29ec68d2173e3e6c71cb0665",
    ("soc-dolphins", "sample-baseline"):
        "20c1d7a13a55f1324bdb2404733aa23c37ce73cfbc0263dd99b1075c46100845",
    ("soc-dolphins", "stats-json"):
        "1a5a56997fc04b1b4f13d5301ccd16a40fe1bab379592ee7993d46a19942563e",
    ("soc-dolphins", "stats-csv"):
        "ab5415c08940d03f02cd8b71bceee0faf406ca1774246404242051b173e2b175",
    ("soc-dolphins", "brandes-csv"):
        "218241d65c261b57381ed6f24f8d1d5023c2922940c5f36b6e355c3a57a0189f",
    ("soc-dolphins", "peel1-csv"):
        "218241d65c261b57381ed6f24f8d1d5023c2922940c5f36b6e355c3a57a0189f",
    ("soc-dolphins", "2core-recurrence-csv"):
        "218241d65c261b57381ed6f24f8d1d5023c2922940c5f36b6e355c3a57a0189f",
    ("soc-dolphins", "sample-peeled-csv"):
        "6cbfa8ea921fbab27b70eea3a244abedc9acd21066688941849214bab09f193a",
    ("soc-dolphins", "sample-baseline-csv"):
        "dc1a8087604b85804fab42cccef4d80091c6417d3014894deefcd3aa5bf5e6c4",
}


@pytest.mark.parametrize("fixture, run", list(DIGESTS), ids="/".join)
def test_score_file_digest(fixture, run, tmp_path):
    out = tmp_path / "out"
    command, *flags = RUNS[run]
    if "--format" not in flags:
        flags += ["--format", "json"]
    assert main([command, str(fixture_path(fixture)), *flags,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[fixture, run]


STDOUT_RUNS = {
    "exact": ["exact", "--algorithm", "peel1", "--threads", "1"],
    "sample": ["sample", "--k", "3", "--seed", "7"],
    "stats": ["stats"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(STDOUT_RUNS))
def test_stdout_bytes_equal_out_file(command, fmt, tmp_path):
    """A CLI process that writes to stdout (no --out, or --out -) prints
    the --out file's bytes; the labels need CSV quoting."""
    graph = tmp_path / "quoted.edges"
    graph.write_text('a"b c,d\nc,d e\ne a"b\ne f\nf g\n')
    argv = [*STDOUT_RUNS[command], "--format", fmt]
    argv.insert(1, str(graph))
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    src = str(Path(peelbc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for extra in ([], ["--out", "-"]):
        proc = subprocess.run([sys.executable, "-m", "peelbc.cli", *argv, *extra],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out.read_bytes()
