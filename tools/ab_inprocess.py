#!/usr/bin/env python3
"""In-process A/B timing of one peelbc command on two source trees.

    git archive <rev> src | tar -x -C /tmp/base
    python3 tools/ab_inprocess.py --base-src /tmp/base/src --rounds 41 \\
        --graphs ca-CSphd rt_obama -- exact --algorithm peel1 --threads 1

--base-src names a directory that holds a ``peelbc`` package tree.  It
loads as ``peelbc_base``, and this checkout's ``src/peelbc`` loads as
``peelbc_change``; both trees import their own modules relatively, so
each runs only its own code.  Each named graph is the benchmark's
seed-0 copy, written by ``perfbench/inputs.py`` into a temporary
directory.  The peelbc arguments after ``--`` get the graph's path after
their first word (the command) and ``--out FILE``.

Every round calls each side's ``cli.main`` once per graph, the side that
goes first alternating from round to round.  For each graph it prints
each side's median time with its first and third quartiles, the ratio
of the medians (change / base) and the number of rounds the change was
faster.  It exits 1 if any call fails or any pair of output files
differs in a byte.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import importlib
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]  # perfbench builds cp-3000 with peelbc

from perfbench.inputs import (CORE_PERIPHERY, FIXTURE_FILES, GRID,  # noqa: E402
                              base_graph, write_instance)

GRAPHS = [*FIXTURE_FILES, CORE_PERIPHERY, GRID]
SIDES = ("base", "change")


def load_cli(name: str, package_dir: Path):
    """Import the package tree at package_dir as `name`; return its cli."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def quartiles(xs: list[float]) -> list[float]:
    """Q1, median and Q3 of xs; a single value stands for all three."""
    if len(xs) < 2:
        return xs * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base-src", type=Path, required=True,
                        help="directory holding the base side's peelbc package")
    parser.add_argument("--rounds", type=int, default=11,
                        help="calls per side and graph (default: 11)")
    parser.add_argument("--graphs", nargs="+", choices=GRAPHS, default=GRAPHS,
                        metavar="GRAPH", help=f"benchmark graphs (default: all of {GRAPHS})")
    parser.add_argument("command", nargs="+", help="peelbc arguments, after --")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    base_dir = args.base_src / "peelbc"
    if not (base_dir / "__init__.py").is_file():
        parser.error(f"no peelbc package in {args.base_src}")
    clis = {"base": load_cli("peelbc_base", base_dir),
            "change": load_cli("peelbc_change", ROOT / "src" / "peelbc")}
    head, *rest = args.command

    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as tmp:
        work = Path(tmp)
        paths = {g: write_instance(base_graph(g, ROOT), 0, work).path for g in args.graphs}
        times = {(g, side): [] for g in args.graphs for side in SIDES}
        wins = dict.fromkeys(args.graphs, 0)
        differs = []
        gc.collect()
        gc.freeze()
        for r in range(args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            for g in args.graphs:
                outputs = {}
                for side in order:
                    out = work / f"{side}.out"
                    call = [head, str(paths[g]), *rest, "--out", str(out)]
                    log = io.StringIO()  # the timing line each call reports
                    gc.collect()
                    with contextlib.redirect_stderr(log):
                        start = perf_counter()
                        try:
                            code = clis[side].main(call)
                        except SystemExit as exc:  # an argparse usage error
                            code = exc.code
                        times[g, side].append(perf_counter() - start)
                    if code:
                        print(f"{side} exited {code} on {g}:\n{log.getvalue()}",
                              file=sys.stderr)
                        return 1
                    outputs[side] = out.read_bytes()
                if outputs["base"] != outputs["change"]:
                    differs.append((g, r))
                if times[g, "change"][-1] < times[g, "base"][-1]:
                    wins[g] += 1
        gc.unfreeze()

    print(f"peelbc {' '.join(args.command)}; {args.rounds} rounds; ms median (Q1-Q3)")
    print(f"{'graph':<14} {'base':>24} {'change':>24} {'ratio':>7} {'wins':>7}")
    for g in args.graphs:
        cells = []
        for side in SIDES:
            q1, med, q3 = (1e3 * x for x in quartiles(times[g, side]))
            cells.append(f"{med:.2f} ({q1:.2f}-{q3:.2f})")
        ratio = statistics.median(times[g, "change"]) / statistics.median(times[g, "base"])
        print(f"{g:<14} {cells[0]:>24} {cells[1]:>24} {ratio:>7.3f} "
              f"{wins[g]:>3}/{args.rounds:<3}")
    for g, r in differs:
        print(f"output bytes differ: {g}, round {r}", file=sys.stderr)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
