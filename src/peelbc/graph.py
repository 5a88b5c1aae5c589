"""Immutable undirected graph, file loaders, and degree-1 peeling.

Graphs are stored as sorted adjacency lists over dense internal ids
0..n-1; the original labels from the input file are kept so results can
be reported in the caller's namespace.  Peeling iteratively removes the
nodes of degree exactly 1 until none remain, which exposes the maximal
2-core (plus any isolated leftovers, which are never removed).
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


class GraphParseError(ValueError):
    """Malformed graph input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphFormatError(ValueError):
    """The file declares a format this toolkit does not support."""


class Graph:
    """Undirected simple graph: no self-loops, no duplicate edges.

    Treat instances as immutable after construction; every algorithm in
    this package shares them freely across workers on that assumption.
    """

    __slots__ = ("n", "m", "adj", "labels")

    def __init__(self, adj: list[list[int]], labels=None):
        self.adj = adj
        self.n = len(adj)
        self.m = sum(map(len, adj)) // 2
        self.labels = list(labels) if labels is not None else list(range(self.n))
        if len(self.labels) != self.n:
            raise ValueError("labels length must match node count")

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "Graph":
        """Build from (u, v) id pairs, dropping self-loops and duplicates."""
        pairs = {}
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u != v:
                pairs[(u, v) if u < v else (v, u)] = None
        return cls._from_pairs(n, pairs, labels)

    @classmethod
    def _from_pairs(cls, n: int, pairs, labels=None) -> "Graph":
        """Build from distinct (u, v) id pairs with 0 <= u < v < n.

        The one adjacency builder: from_edges and the file loaders
        check their edges and deduplicate them in a dict, which keeps
        input order, then call it.  Lists grown in input order rather
        than in set order made the later passes over them (peel, the
        kernel) measurably faster.
        """
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        return cls(adj, labels)

    @classmethod
    def from_labeled_edges(cls, pairs) -> "Graph":
        """Build from label pairs, assigning ids in first-appearance order."""
        ids: dict = {}
        edges = []
        for a, b in pairs:
            u = ids.setdefault(a, len(ids))
            v = ids.setdefault(b, len(ids))
            edges.append((u, v))
        labels = [None] * len(ids)
        for label, i in ids.items():
            labels[i] = label
        return cls.from_edges(len(ids), edges, labels)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self):
        """Yield each undirected edge once, as (u, v) with u < v."""
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u < v:
                    yield u, v

    def subgraph(self, keep) -> tuple["Graph", list[int]]:
        """Induced subgraph on `keep`, compacted to ids 0..len(keep)-1.

        Returns the subgraph and the sorted list of original ids; the
        subgraph's labels are those original ids, so relative node order
        (and hence BFS tie-breaking) is preserved.
        """
        kept = sorted(keep)
        pos = [-1] * self.n
        for i, orig in enumerate(kept):
            pos[orig] = i
        adj = self.adj
        sub_adj = [[p for w in adj[orig] if (p := pos[w]) >= 0] for orig in kept]
        return Graph(sub_adj, kept), kept

    def component_ids(self, weight=None) -> tuple[list[int], list[int]]:
        """Connected-component id per node plus per-component sizes.

        Ids follow the order of each component's lowest node.  With
        `weight` (one number per node), a component's size is the sum
        of its nodes' weights instead of their count.
        """
        if weight is None:
            weight = [1] * self.n
        adj = self.adj
        comp = [-1] * self.n
        sizes = []
        for start in range(self.n):
            if comp[start] >= 0:
                continue
            cid = len(sizes)
            comp[start] = cid
            stack = [start]
            size = 0
            while stack:
                v = stack.pop()
                size += weight[v]
                for w in adj[v]:
                    if comp[w] < 0:
                        comp[w] = cid
                        stack.append(w)
            sizes.append(size)
        return comp, sizes

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.adj == other.adj
            and self.labels == other.labels
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _split_lines(text: str) -> list[str]:
    """`text` split at '\n', without the empty piece after a final one."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _text_lines(source):
    """The text lines of a path, bytes, or (binary/text) file object.

    A path, bytes or binary file object is read whole in text mode,
    which ends a line at '\n', '\r' or '\r\n'.  A text file object is
    iterated as it stands, so the newline setting it was opened with
    decides.  Other line-break characters (such as '\x0b', '\x0c',
    '\x85' or '\u2028') are whitespace inside a line, never line ends.
    A file object passed in is left open.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as handle:
            return _split_lines(handle.read())
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    if hasattr(source, "read"):
        if isinstance(source.read(0), bytes):
            text = io.TextIOWrapper(source, encoding="utf-8")
            try:
                return _split_lines(text.read())
            finally:
                text.detach()  # a collected wrapper would close the stream
        return source
    raise TypeError(f"unsupported graph source: {type(source)!r}")


def load_edge_list(source) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    Each non-comment line holds exactly two labels; lines whose first
    label starts with '#' or '%' and blank lines are skipped.  A line
    ends at '\n', '\r' or '\r\n' (a text file object: as its newline
    setting says; see _text_lines).  Self-loops are dropped and
    duplicate edges collapsed, but every label seen (including on a
    dropped self-loop) becomes a node.  Ids are assigned in
    first-appearance order.
    """
    ids: dict[str, int] = {}
    get = ids.get
    pairs: dict[tuple[int, int], None] = {}
    for lineno, line in enumerate(_text_lines(source), start=1):
        parts = line.split()
        if len(parts) != 2:
            if not parts or parts[0][0] in "#%":
                continue
            raise GraphParseError(
                f"expected two whitespace-separated labels, got {len(parts)}",
                line=lineno,
            )
        a, b = parts
        if a[0] in "#%":
            continue
        u = get(a)
        if u is None:
            u = ids[a] = len(ids)
        v = get(b)
        if v is None:
            v = ids[b] = len(ids)
        if u != v:
            pairs[(u, v) if u < v else (v, u)] = None
    return Graph._from_pairs(len(ids), pairs, list(ids))


_MM_FIELDS = {"pattern", "integer", "real"}
_MM_SYMMETRIES = {"general", "symmetric"}

# Largest node count a MatrixMarket size line may declare.  The graph
# holds a list and a label per declared node before any entry is read,
# and peeling and the kernels add a few more per-node lists: about
# 100 bytes a node, so 2**24 nodes already take over 1.6 GB, while the
# pure-Python kernels would need days on a graph that large.  Checking
# the declaration first turns a huge or mistyped size line into a parse
# error instead of an out-of-memory failure.
MAX_DECLARED_NODES = 2**24


def load_matrix_market(source) -> Graph:
    """Parse a MatrixMarket coordinate file as an undirected graph.

    Accepts `matrix coordinate` with pattern/integer/real field and
    general/symmetric symmetry; numeric values are ignored.  Indices are
    1-based; the declared dimension fixes the node count, so isolated
    nodes survive; it may not exceed MAX_DECLARED_NODES.  Lines end as
    in load_edge_list.  Cleanup matches load_edge_list (loops dropped,
    duplicates and symmetric storage collapsed).
    """
    lines = iter(_text_lines(source))
    try:
        header = next(lines)
    except StopIteration:
        raise GraphParseError("empty MatrixMarket input", line=1) from None
    tokens = header.strip().split()
    if not tokens or not tokens[0].startswith("%%MatrixMarket"):
        raise GraphFormatError("missing %%MatrixMarket header")
    tokens = [t.lower() for t in tokens[1:]]
    if len(tokens) < 4:
        raise GraphFormatError(f"incomplete MatrixMarket header: {header.strip()!r}")
    obj, fmt, field, symmetry = tokens[:4]
    if obj != "matrix" or fmt != "coordinate":
        raise GraphFormatError(f"unsupported MatrixMarket layout: {obj} {fmt}")
    if field not in _MM_FIELDS:
        raise GraphFormatError(f"unsupported MatrixMarket field: {field}")
    if symmetry not in _MM_SYMMETRIES:
        raise GraphFormatError(f"unsupported MatrixMarket symmetry: {symmetry}")

    rows = cols = nnz = None
    pairs: dict[tuple[int, int], None] = {}
    count = 0
    lineno = 1
    for lineno, line in enumerate(lines, start=2):
        parts = line.split()
        if not parts or parts[0][0] == "%":
            continue
        if rows is None:
            if len(parts) != 3:
                raise GraphParseError("size line must hold rows cols nnz", line=lineno)
            try:
                rows, cols, nnz = (int(p) for p in parts)
            except ValueError:
                raise GraphParseError("non-integer size line", line=lineno) from None
            if rows < 0 or cols < 0 or nnz < 0:
                raise GraphParseError("negative size declaration", line=lineno)
            if max(rows, cols) > MAX_DECLARED_NODES:
                raise GraphParseError(
                    f"declared {rows}x{cols} exceeds the limit of "
                    f"{MAX_DECLARED_NODES} nodes", line=lineno,
                )
            continue
        if len(parts) not in (2, 3):
            raise GraphParseError(
                f"expected 'i j [value]' entry, got {len(parts)} tokens", line=lineno
            )
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("non-integer coordinate entry", line=lineno) from None
        if not (1 <= i <= rows) or not (1 <= j <= cols):
            raise GraphParseError(
                f"entry ({i}, {j}) outside declared {rows}x{cols} bounds", line=lineno
            )
        if i != j:
            pairs[(i - 1, j - 1) if i < j else (j - 1, i - 1)] = None
        count += 1
    if rows is None:
        raise GraphParseError("missing size line", line=lineno)
    if count != nnz:
        raise GraphParseError(
            f"declared {nnz} entries but found {count}", line=lineno
        )
    n = max(rows, cols)
    return Graph._from_pairs(n, pairs, list(range(1, n + 1)))


def read_graph(path, fmt: str | None = None) -> Graph:
    """Load a graph file, sniffing MatrixMarket by the .mtx extension.

    `fmt` may be "edges" or "mtx" to override sniffing.
    """
    path = Path(path)
    if fmt is None:
        fmt = "mtx" if path.suffix.lower() == ".mtx" else "edges"
    if fmt == "mtx":
        return load_matrix_market(path)
    if fmt == "edges":
        return load_edge_list(path)
    raise ValueError(f"unknown graph format: {fmt!r}")


def write_edge_list(g: Graph, target) -> None:
    """Write `g` as 'label label' lines (one edge per line, u < v order).

    Isolated nodes have no incident edge and are not represented.
    """
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="\n") as handle:
            write_edge_list(g, handle)
        return
    for u, v in g.edges():
        target.write(f"{g.labels[u]} {g.labels[v]}\n")


@dataclass(frozen=True)
class PeelDecomposition:
    """Result of iterated degree-1 removal.

    rounds[i] holds the nodes of degree exactly 1 in the graph left after
    removing rounds 0..i-1 (all removed simultaneously).  core_nodes is
    what survives every round: the maximal 2-core plus any isolated
    nodes, which are never peeled.  deg1 and Y are defined with respect
    to the original graph: deg1[u] counts u's neighbors of degree 1, and
    Y holds the surviving nodes with deg1 >= 1 (a two-node component of
    mutual degree-1 nodes is removed whole and excluded from Y).
    """

    rounds: list[list[int]]
    istar: int
    core_nodes: list[int]
    deg1: list[int]
    Y: list[int]
    pendant_anchor: dict[int, int]


def peel(g: Graph) -> PeelDecomposition:
    """Iteratively remove degree-1 nodes until none remain.

    Each round removes every current degree-1 node at once and records
    its unique neighbor at removal time in pendant_anchor (for a
    two-node component, the nodes anchor each other).  Degree-0 nodes
    are never removed.
    """
    n = g.n
    adj = g.adj
    deg = list(map(len, adj))
    frontier = [v for v in range(n) if deg[v] == 1]
    deg1 = [0] * n
    for v in frontier:
        deg1[adj[v][0]] += 1
    y_nodes = [v for v in range(n) if deg1[v] and deg[v] != 1]

    alive = bytearray([1]) * n
    rounds: list[list[int]] = []
    anchors: dict[int, int] = {}
    while frontier:
        this_round = sorted([v for v in frontier if deg[v] == 1])
        if not this_round:
            break
        for v in this_round:
            for w in adj[v]:
                if alive[w]:
                    anchors[v] = w
                    break
        for v in this_round:
            alive[v] = 0
        # a removed node's one live neighbour was its anchor; it loses
        # a degree unless it was removed in this round too
        frontier = []
        for v in this_round:
            w = anchors[v]
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    frontier.append(w)
        rounds.append(this_round)

    core = [v for v in range(n) if alive[v]]
    return PeelDecomposition(
        rounds=rounds,
        istar=len(rounds),
        core_nodes=core,
        deg1=deg1,
        Y=y_nodes,
        pendant_anchor=anchors,
    )


@dataclass(frozen=True)
class PeelReport:
    """Peeling statistics for one graph (see peel_diagnostics)."""

    n: int
    m: int
    n_tilde: int
    m_tilde: int
    v1_round0: int
    y_size: int
    delta1: int
    deg1_histogram: dict[int, int]
    round_fractions: list[float]
    istar: int
    survivor_fraction: float
    two_core_size: int
    two_core_fraction: float


def peel_sizes(g: Graph, decomp: PeelDecomposition) -> tuple[int, int, list[float]]:
    """n_tilde, m_tilde and round_fractions of g from its full peel.

    n_tilde and m_tilde count what is left after removing round 0, the
    degree-1 nodes of g.  Every round-0 node has exactly one edge, and
    only the edge of a two-node component joins two of them (each then
    has deg1 == 1), so m_tilde needs no edge scan.
    """
    round0 = decomp.rounds[0] if decomp.rounds else []
    two_node_components = sum(map(decomp.deg1.__getitem__, round0)) // 2
    fractions = [len(r) / g.n for r in decomp.rounds]
    return g.n - len(round0), g.m - len(round0) + two_node_components, fractions


def peel_diagnostics(g: Graph) -> PeelReport:
    """Summarize one round of peeling and the full decomposition.

    n_tilde/m_tilde describe the graph after removing the degree-1 nodes
    of the original graph; survivor_fraction is n_tilde/n.  The 2-core
    counts the non-isolated survivors of the full peel.  The deg1
    histogram maps deg1 value -> number of Y nodes with that value.
    """
    decomp = peel(g)
    n, m = g.n, g.m
    n_tilde, m_tilde, fractions = peel_sizes(g, decomp)
    delta1 = max(decomp.deg1, default=0)
    histogram = dict(sorted(Counter(decomp.deg1[y] for y in decomp.Y).items()))
    core_set = set(decomp.core_nodes)
    two_core = sum(
        1 for v in decomp.core_nodes if any(w in core_set for w in g.adj[v])
    )
    return PeelReport(
        n=n,
        m=m,
        n_tilde=n_tilde,
        m_tilde=m_tilde,
        v1_round0=n - n_tilde,
        y_size=len(decomp.Y),
        delta1=delta1,
        deg1_histogram=histogram,
        round_fractions=fractions,
        istar=decomp.istar,
        survivor_fraction=(n_tilde / n) if n else 0.0,
        two_core_size=two_core,
        two_core_fraction=(two_core / n) if n else 0.0,
    )
