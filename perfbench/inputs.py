"""Benchmark inputs: base graphs, seeded copies of them, and workload job lists.

Every file the program reads is a copy of a base graph whose node labels
are permuted and whose edge lines are shuffled (and randomly oriented)
by the workload seed.  Each seed therefore gives different files, with
different internal node ids, BFS visiting orders and sampled pivots, for
the same graph structure.  Betweenness is invariant under relabelling,
so the reference scores of a base graph serve every seed.

Nothing here imports peelbc at module level: the benchmark times that
import as part of set-up.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

FIXTURE_FILES = {
    "rt_obama": "rt_obama.edges",
    "ca-CSphd": "ca-CSphd.edges",
    "email-univ": "email-univ.edges",
    "soc-wiki-Vote": "soc-wiki-Vote.mtx",
    "soc-dolphins": "soc-dolphins.edges",
}
CORE_PERIPHERY = "cp-3000"  # core 50, 3000 periphery, geometric halving
GRID = "grid-35"  # 35 x 35 lattice: no pendants at all
GRID_SIDE = 35

MTX_HEADER = "%%MatrixMarket matrix coordinate pattern symmetric\n"


@dataclass(frozen=True)
class BaseGraph:
    """A graph structure before relabelling: node ids 0..n-1, edges u < v."""

    name: str
    fmt: str  # "edges" or "mtx": the file format the program is given
    n: int
    edges: tuple[tuple[int, int], ...]

    def canonical_bytes(self) -> bytes:
        return (f"{self.n}\n" + "".join(f"{u} {v}\n" for u, v in self.edges)).encode()

    @property
    def key(self) -> str:
        """sha256 of the canonical form; keys the reference-score cache."""
        return hashlib.sha256(self.canonical_bytes()).hexdigest()


@dataclass(frozen=True)
class Instance:
    """A seeded copy of a base graph, written to `path`.

    labels[i] is the label that base node i carries in the file.
    """

    base: BaseGraph
    path: Path
    labels: tuple[str, ...]
    sha256: str


def _canonical(name: str, fmt: str, n: int, pairs) -> BaseGraph:
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    if fmt == "edges":
        touched = {u for e in edges for u in e}
        if len(touched) != n:
            raise ValueError(f"{name}: an edge list cannot carry isolated nodes")
    return BaseGraph(name, fmt, n, tuple(edges))


def _parse_fixture(name: str, path: Path) -> BaseGraph:
    """Parse a bundled fixture with the benchmark's own reader."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if path.suffix == ".mtx":
        rows = [ln.split() for ln in lines if ln.strip() and not ln.startswith("%")]
        n = max(int(rows[0][0]), int(rows[0][1]))
        pairs = [(int(r[0]) - 1, int(r[1]) - 1) for r in rows[1:]]
        return _canonical(name, "mtx", n, pairs)
    ids: dict[str, int] = {}
    pairs = []
    for ln in lines:
        parts = ln.split()
        if not parts or parts[0][0] in "#%":
            continue
        a, b = parts
        pairs.append((ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids))))
    return _canonical(name, "edges", len(ids), pairs)


def _core_periphery() -> BaseGraph:
    from peelbc.synth import Attachment, CorePeripherySpec, generate_core_periphery

    spec = CorePeripherySpec(core_size=50, v1_count=3000,
                             attachment=Attachment.GEOMETRIC_HALVING)
    g = generate_core_periphery(spec)
    return _canonical(CORE_PERIPHERY, "edges", g.n, g.edges())


def _grid(side: int) -> BaseGraph:
    pairs = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                pairs.append((v, v + 1))
            if r + 1 < side:
                pairs.append((v, v + side))
    return _canonical(GRID, "edges", side * side, pairs)


def base_graph(name: str, root: Path) -> BaseGraph:
    if name in FIXTURE_FILES:
        return _parse_fixture(name, root / "src" / "peelbc" / "data" / FIXTURE_FILES[name])
    if name == CORE_PERIPHERY:
        return _core_periphery()
    if name == GRID:
        return _grid(GRID_SIDE)
    raise KeyError(f"unknown benchmark graph {name!r}")


def write_instance(base: BaseGraph, seed: int, out_dir: Path) -> Instance:
    """Write the seed's relabelled, shuffled copy of `base` into out_dir."""
    rng = random.Random(f"perfbench:{seed}:{base.name}")
    perm = list(range(base.n))
    rng.shuffle(perm)
    edges = [
        (perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
        for u, v in base.edges
    ]
    rng.shuffle(edges)
    if base.fmt == "mtx":
        labels = tuple(str(p + 1) for p in perm)
        text = MTX_HEADER + f"{base.n} {base.n} {len(edges)}\n" + "".join(
            f"{a + 1} {b + 1}\n" for a, b in edges
        )
    else:
        labels = tuple(str(p) for p in perm)
        text = "".join(f"{a} {b}\n" for a, b in edges)
    data = text.encode()
    path = out_dir / f"{base.name}.{base.fmt}"
    path.write_bytes(data)
    return Instance(base, path, labels, hashlib.sha256(data).hexdigest())


EXACT_KINDS = {  # job kind: (--algorithm, --threads)
    "brandes": ("brandes", 1),
    "peel1": ("peel1", 1),
    "peel1_t2": ("peel1", 2),
}
SAMPLE_KINDS = {"sample_peeled": "peeled", "sample_baseline": "baseline"}  # kind: --method


@dataclass(frozen=True)
class Job:
    """One CLI call of a workload; `id` is unique within the workload."""

    id: str
    kind: str
    graph: str
    threads: int = 1
    k: int | None = None
    seed: int | None = None

    @property
    def exact(self) -> bool:
        return self.k is None

    def argv(self, graph_path: Path, out_path: Path) -> list[str]:
        if self.exact:
            head = ["exact", str(graph_path), "--algorithm", EXACT_KINDS[self.kind][0],
                    "--threads", str(self.threads)]
        else:
            head = ["sample", str(graph_path), "--k", str(self.k),
                    "--seed", str(self.seed), "--method", SAMPLE_KINDS[self.kind]]
        return head + ["--format", "json", "--out", str(out_path)]


@dataclass(frozen=True)
class Workload:
    """A fixed list of CLI jobs: three exact kinds per exact graph, plus
    peeled and baseline sample calls over a (graph, k, seed) grid."""

    name: str
    exact_graphs: tuple[str, ...]
    sample_graphs: tuple[str, ...]
    k_grid: tuple[int, ...]
    sample_seeds: int

    def graphs(self) -> list[str]:
        return list(dict.fromkeys(self.exact_graphs + self.sample_graphs))

    def jobs(self, seed: int) -> list[Job]:
        rng = random.Random(f"perfbench:{seed}:pivots")
        seeds = [rng.randrange(2**32) for _ in range(self.sample_seeds)]
        jobs = [
            Job(f"{kind}:{g}", kind, g, threads=threads)
            for g in self.exact_graphs
            for kind, (_, threads) in EXACT_KINDS.items()
        ]
        jobs += [
            Job(f"{kind}:{g}:k{k}:s{s}", kind, g, k=k, seed=s)
            for g in self.sample_graphs
            for k in self.k_grid
            for s in seeds
            for kind in SAMPLE_KINDS
        ]
        return jobs


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "treelike",
            ("rt_obama", "ca-CSphd", CORE_PERIPHERY),
            ("rt_obama", "ca-CSphd", CORE_PERIPHERY),
            (10,), 20,
        ),
        Workload(
            "core-heavy",
            ("email-univ", "soc-wiki-Vote", GRID),
            ("email-univ", "soc-wiki-Vote", GRID),
            (10,), 15,
        ),
        Workload(
            "sample-sweep",
            ("soc-dolphins",),
            ("ca-CSphd", "email-univ"),
            (5, 10, 20), 20,
        ),
    )
}


def build_inputs(workload: Workload, seed: int, root: Path,
                 out_dir: Path) -> dict[str, Instance]:
    """Generate the workload's seeded input files; returns them by graph name."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return {
        name: write_instance(base_graph(name, root), seed, out_dir)
        for name in workload.graphs()
    }
