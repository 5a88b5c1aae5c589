#!/usr/bin/env python3
"""Write a committed benchmark snapshot (BENCH_<n>.json).

    python3 tools/bench_snapshot.py --out BENCH_6.json

Runs ``perfbench/run.py --workload all --trace 0`` once, then
``--trace 1`` once per workload, and stores each run's summary line (the
JSON object it prints last) and its report lines, together with the
machine and source metadata: CPU count and model, Python and numpy
versions, whether bytecode caching is off (``sys.flags.dont_write_bytecode``;
every run inherits ``PYTHONDONTWRITEBYTECODE``, and with caching off its
fresh interpreters compile peelbc inside ``setup_s``), the checked-out
commit, whether the files under ``src/`` differ from it, and a sha256
over them.  Every run uses seed 0 and BENCHMARK.json's ``run_seconds``,
so later snapshots diff against the latest committed one under the same
settings; set-up times compare only between snapshots whose bytecode
flag matches.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "perfbench" / "run.py"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def src_sha256() -> str:
    """sha256 over the path and bytes of every file git sees under src/."""
    digest = hashlib.sha256()
    for rel in sorted(git("ls-files", "-co", "--exclude-standard", "src").splitlines()):
        digest.update(rel.encode() + b"\0" + (ROOT / rel).read_bytes() + b"\0")
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(*args: str) -> dict:
    """One benchmark run: its summary object and its other output lines."""
    argv = [sys.executable, str(RUNNER), *args]
    print("running", " ".join(argv[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return {"argv": args, "summary": json.loads(lines[-1]), "report": lines[:-1]}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="snapshot file to write")
    args = parser.parse_args(argv)

    common = ("--seed", "0", "--seconds", str(bench["run_seconds"]))
    snapshot = {
        "metadata": {
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
            "commit": git("rev-parse", "HEAD"),
            "sources_differ_from_commit": bool(git("status", "--porcelain", "--", "src")),
            "src_sha256": src_sha256(),
        },
        "trace0": run("--workload", "all", "--trace", "0", *common),
        "trace1": {w["name"]: run("--workload", w["name"], "--trace", "1", *common)
                   for w in bench["workloads"]},
    }
    Path(args.out).write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
