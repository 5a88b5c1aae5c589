"""Reference betweenness scores from networkx, cached by base-graph hash.

networkx shares no code with peelbc's kernels, so its scores check every
exact output independently.  It takes seconds to tens of seconds per
graph, so references are computed once per base graph, in a child
process outside the timed runs, and kept in the cache directory.

Script use: python3 perfbench/reference.py GRAPH OUT [GRAPH OUT ...]
where GRAPH is a canonical graph file (node count, then 'u v' lines) and
OUT receives a JSON list of per-node scores in peelbc's normalisation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 900


def compute(graph_file: Path) -> list[float]:
    import networkx as nx

    lines = graph_file.read_text().splitlines()
    n = int(lines[0])
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(tuple(map(int, ln.split())) for ln in lines[1:])
    if n <= 2:
        return [0.0] * n
    raw = nx.betweenness_centrality(g, normalized=False)
    # networkx counts unordered pairs; peelbc divides ordered pairs by (n-1)(n-2).
    scale = 2.0 / ((n - 1) * (n - 2))
    return [raw[v] * scale for v in range(n)]


def load(bases, cache_dir: Path) -> dict[str, list[float]]:
    """Reference scores per base graph name, building missing cache entries."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    missing = [b for b in bases if not (cache_dir / f"{b.key}.json").is_file()]
    if missing:
        argv = [sys.executable, str(Path(__file__).resolve())]
        for b in missing:
            graph_file = cache_dir / f"{b.key}.graph"
            graph_file.write_bytes(b.canonical_bytes())
            argv += [str(graph_file), str(cache_dir / f"{b.key}.json")]
        subprocess.run(argv, check=True, timeout=BUILD_TIMEOUT_S)
    return {
        b.name: json.loads((cache_dir / f"{b.key}.json").read_text())
        for b in bases
    }


def main(argv: list[str]) -> int:
    if not argv or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    for graph, out in zip(argv[::2], argv[1::2]):
        tmp = Path(out + ".tmp")
        tmp.write_text(json.dumps(compute(Path(graph))))
        os.replace(tmp, out)  # a cut-short build leaves no partial entry
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
