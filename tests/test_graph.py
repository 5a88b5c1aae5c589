import gc
import io
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peelbc import (
    Graph,
    GraphFormatError,
    GraphParseError,
    load_edge_list,
    load_fixture,
    load_matrix_market,
    peel,
    peel_diagnostics,
    random_graph_with_pendants,
    read_graph,
    write_edge_list,
)

from peelbc.graph import MAX_DECLARED_NODES, peel_counts, peel_sizes

from conftest import (TWO_NODE_AND_ISOLATED, corpus, corpus_graph, path_graph,
                      peeling_cases)


def edge_label_set(g: Graph) -> set[frozenset]:
    # labels normalize to their written (string) form for round-trips
    return {frozenset((str(g.labels[u]), str(g.labels[v]))) for u, v in g.edges()}


class TestLoadEdgeList:
    def test_minimal_path(self):
        for data in (b"a b\nb c\n", b"a b\rb c\r"):
            g = load_edge_list(data)
            assert (g.n, g.m) == (3, 2)
            assert g.labels == ["a", "b", "c"]
            assert g.adj == [[1], [0, 2], [1]]

    def test_self_loop_and_duplicate_dropped(self):
        g = load_edge_list(b"a a\na b\na b\n")
        assert (g.n, g.m) == (2, 1)
        assert g.labels == ["a", "b"]

    def test_comments_and_blank_lines_skipped(self):
        g = load_edge_list(b"# header\n% other\n\na b\n")
        assert (g.n, g.m) == (2, 1)

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphParseError) as err:
            load_edge_list(b"a b\na b c\n")
        assert err.value.line == 2

    def test_single_token_line_rejected(self):
        with pytest.raises(GraphParseError):
            load_edge_list(b"a\n")

    def test_empty_input_gives_empty_graph(self):
        g = load_edge_list(b"")
        assert (g.n, g.m) == (0, 0)

    def test_accepts_text_stream_and_path(self, tmp_path):
        assert load_edge_list(io.StringIO("x y\n")).m == 1
        path = tmp_path / "g.edges"
        path.write_text("x y\n")
        assert load_edge_list(path).m == 1

    def test_dolphins_fixture_counts(self):
        g = load_fixture("soc-dolphins")
        assert (g.n, g.m) == (62, 159)


MM_HEADER = b"%%MatrixMarket matrix coordinate pattern symmetric\n"


class TestLoadMatrixMarket:
    def test_minimal_path(self):
        g = load_matrix_market(MM_HEADER + b"3 3 2\n1 2\n2 3\n")
        assert (g.n, g.m) == (3, 2)
        assert g.labels == [1, 2, 3]

    def test_out_of_bounds_entry(self):
        with pytest.raises(GraphParseError):
            load_matrix_market(MM_HEADER + b"4 4 1\n5 7\n")

    def test_array_format_rejected(self):
        with pytest.raises(GraphFormatError):
            load_matrix_market(b"%%MatrixMarket matrix array real general\n1 1\n1.0\n")

    def test_complex_field_rejected(self):
        with pytest.raises(GraphFormatError):
            load_matrix_market(
                b"%%MatrixMarket matrix coordinate complex general\n1 1 0\n"
            )

    def test_general_with_values_and_mirrored_entries(self):
        data = b"%%MatrixMarket matrix coordinate real general\n3 3 4\n1 2 0.5\n2 1 0.5\n2 3 1.0\n3 3 9.0\n"
        g = load_matrix_market(data)
        assert (g.n, g.m) == (3, 2)  # mirror collapsed, loop dropped

    def test_declared_isolated_nodes_survive(self):
        g = load_matrix_market(MM_HEADER + b"5 5 1\n1 2\n")
        assert (g.n, g.m) == (5, 1)

    def test_truncated_entries_rejected(self):
        with pytest.raises(GraphParseError):
            load_matrix_market(MM_HEADER + b"3 3 2\n1 2\n")

    def test_oversized_declaration_rejected_before_allocating(self):
        with pytest.raises(GraphParseError) as err:
            load_matrix_market(MM_HEADER + b"% huge\n1000000000000 1000000000000 0\n")
        assert err.value.line == 3
        with pytest.raises(GraphParseError):
            load_matrix_market(MM_HEADER + f"1 {MAX_DECLARED_NODES + 1} 0\n".encode())
        g = load_matrix_market(MM_HEADER + b"1 2 1\n1 2\n")
        assert (g.n, g.m) == (2, 1)

    def test_wiki_vote_fixture_counts(self):
        g = load_fixture("soc-wiki-Vote")
        assert (g.n, g.m) == (889, 2914)


# Reference loaders: the line-by-line parsers the package used before it
# read each input whole.  A path, bytes or binary file object is read in
# text mode ('\n', '\r', '\r\n'); a StringIO ends lines at '\n' only.


def ref_text_lines(source):
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            yield from io.TextIOWrapper(handle, encoding="utf-8")
        return
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    first = source.read(0)
    if isinstance(first, bytes):
        yield from io.TextIOWrapper(source, encoding="utf-8")
    else:
        yield from source


def ref_load_edge_list(source) -> Graph:
    ids: dict = {}
    edges = []
    for lineno, raw in enumerate(ref_text_lines(source), start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError("two labels", line=lineno)
        u = ids.setdefault(parts[0], len(ids))
        v = ids.setdefault(parts[1], len(ids))
        edges.append((u, v))
    return Graph.from_edges(len(ids), edges, list(ids))


def ref_load_matrix_market(source) -> Graph:
    lines = ref_text_lines(source)
    try:
        header = next(lines)
    except StopIteration:
        raise GraphParseError("empty", line=1) from None
    tokens = header.strip().split()
    if not tokens or not tokens[0].startswith("%%MatrixMarket"):
        raise GraphFormatError("header")
    rows = cols = nnz = None
    edges = []
    lineno = 1
    for lineno, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line or line[0] == "%":
            continue
        parts = line.split()
        if rows is None:
            if len(parts) != 3:
                raise GraphParseError("size line", line=lineno)
            try:
                rows, cols, nnz = (int(p) for p in parts)
            except ValueError:
                raise GraphParseError("size line", line=lineno) from None
            if rows < 0 or cols < 0 or nnz < 0:
                raise GraphParseError("size line", line=lineno)
            continue
        if len(parts) not in (2, 3):
            raise GraphParseError("entry", line=lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("entry", line=lineno) from None
        if not (1 <= i <= rows) or not (1 <= j <= cols):
            raise GraphParseError("bounds", line=lineno)
        edges.append((i - 1, j - 1))
    if rows is None:
        raise GraphParseError("missing size line", line=lineno)
    if len(edges) != nnz:
        raise GraphParseError("count", line=lineno)
    n = max(rows, cols)
    return Graph.from_edges(n, edges, labels=list(range(1, n + 1)))


LINE_ENDS = ["\n", "\r", "\r\n"]
EDGE_TOKENS = ["a", "b", "1", "01", "1", "é", "日本", "#a", "x#", "c%", "٣"]
# whitespace inside a line; str.splitlines would break a line at the last five
SPACES = [" ", "  ", "\t", "\u3000", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


def random_words(rng: random.Random, tokens: list[str], count: int) -> list[str]:
    kind = rng.random()
    if kind < 0.1:
        return []
    if kind < 0.2:  # comment, possibly of two tokens such as "#a b"
        head = rng.choice("#%") + rng.choice(["", "a", "#"])
        return [head] + rng.sample(tokens, 2)[:rng.randrange(3)]
    if kind < 0.24:
        count = rng.choice([count - 1, count + 1])
    return [rng.choice(tokens) for _ in range(count)]


def random_text(rng: random.Random, lines: list[list[str]]) -> str:
    """The lines' words joined by random whitespace, with random line ends."""
    end = rng.choice(LINE_ENDS)
    texts = []
    for words in lines:
        pad = [rng.choice(["", rng.choice(SPACES)]) for _ in range(2)]
        texts.append(pad[0] + rng.choice(SPACES[:3]).join(words) + pad[1])
    ends = [end if rng.random() < 0.8 else rng.choice(LINE_ENDS) for _ in texts]
    text = "".join(a + b for a, b in zip(texts, ends))
    if texts and rng.random() < 0.3:
        text = text[: -len(ends[-1])]  # no final line end
    return text


def random_edge_list(rng: random.Random) -> str:
    return random_text(rng, [random_words(rng, EDGE_TOKENS, 2)
                             for _ in range(rng.randrange(8))])


def random_matrix_market(rng: random.Random) -> str:
    rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
    entries = [
        random_words(rng, ["1", "2", "5", "x", "0.5"], 2) if rng.random() < 0.2
        else [str(rng.randrange(1, rows + 1)), str(rng.randrange(1, cols + 1))]
        + ["0.5"] * rng.randrange(2)
        for _ in range(rng.randrange(7))
    ]
    nnz = sum(1 for words in entries if words and words[0][0] not in "#%")
    if rng.random() < 0.2:
        nnz = rng.randrange(4)
    lines = [["%%MatrixMarket", "matrix", "coordinate", "pattern", "symmetric"],
             ["%", "comment"] if rng.random() < 0.2 else [],
             [str(rows), str(cols), str(nnz)][:rng.choice([3] * 9 + [2])]]
    return random_text(rng, lines + entries)


def sources(data: bytes, path: Path):
    """The same input as each kind of source the loaders take."""
    path.write_bytes(data)
    yield "bytes", lambda: data
    yield "path", lambda: path
    yield "str path", lambda: str(path)
    yield "binary file", lambda: io.BytesIO(data)
    yield "StringIO", lambda: io.StringIO(data.decode("utf-8"))
    yield "text file", lambda: open(path, encoding="utf-8")


def outcome(load, make):
    source = make()
    try:
        g = load(source)
    except (GraphParseError, GraphFormatError) as exc:
        return type(exc), exc.line if isinstance(exc, GraphParseError) else None
    finally:
        if hasattr(source, "close"):
            source.close()
    return g.adj, g.labels


@pytest.mark.parametrize("seed", range(4))
def test_edge_list_matches_reference_loader(seed, tmp_path):
    rng = random.Random(seed)
    path = tmp_path / "g.edges"
    for _ in range(120):
        data = random_edge_list(rng).encode("utf-8")
        for kind, make in sources(data, path):
            assert outcome(load_edge_list, make) == outcome(ref_load_edge_list, make), (
                kind, data)


@pytest.mark.parametrize("seed", range(4))
def test_matrix_market_matches_reference_loader(seed, tmp_path):
    rng = random.Random(seed)
    path = tmp_path / "g.mtx"
    for _ in range(120):
        data = random_matrix_market(rng).encode("utf-8")
        for kind, make in sources(data, path):
            assert outcome(load_matrix_market, make) == outcome(
                ref_load_matrix_market, make), (kind, data)


@pytest.mark.parametrize("load, data", [
    (load_edge_list, b"a b\nb c\n"),
    (load_matrix_market, MM_HEADER + b"3 3 2\n1 2\n2 3\n"),
    (load_edge_list, b"a \xff\n"),
    (load_matrix_market, MM_HEADER + b"\xff\n"),
], ids=["edges", "mtx", "edges-bad-utf8", "mtx-bad-utf8"])
def test_loaders_leave_binary_stream_open(load, data):
    stream = io.BytesIO(data)
    try:
        load(stream)
    except UnicodeDecodeError:
        pass
    gc.collect()
    assert not stream.closed


class TestReadGraph:
    def test_sniffs_mtx_extension(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_bytes(MM_HEADER + b"2 2 1\n1 2\n")
        assert read_graph(path).m == 1

    def test_override_format(self, tmp_path):
        path = tmp_path / "g.dat"
        path.write_text("a b\n")
        assert read_graph(path, fmt="edges").m == 1
        with pytest.raises(ValueError):
            read_graph(path, fmt="weird")


class TestPeel:
    def test_star(self):
        g = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        decomp = peel(g)
        assert decomp.rounds == [[1, 2, 3, 4]]
        assert decomp.istar == 1
        assert decomp.core_nodes == [0]  # degree-0 remnant stays
        assert decomp.deg1 == [4, 0, 0, 0, 0]
        assert decomp.Y == [0]

    def test_path_p5(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        decomp = peel(g)
        assert decomp.rounds == [[0, 4], [1, 3]]
        assert decomp.istar == 2
        assert decomp.core_nodes == [2]
        assert decomp.pendant_anchor == {0: 1, 4: 3, 1: 2, 3: 2}

    def test_k2_component_removed_whole(self):
        g = Graph.from_edges(2, [(0, 1)])
        decomp = peel(g)
        assert decomp.rounds == [[0, 1]]
        assert decomp.pendant_anchor == {0: 1, 1: 0}
        assert decomp.core_nodes == []
        assert decomp.Y == []  # mutual degree-1 pair stays out of Y

    def test_degree_zero_nodes_never_peeled(self):
        g = Graph.from_edges(3, [(0, 1)])
        decomp = peel(g)
        assert 2 in decomp.core_nodes

    @pytest.mark.parametrize("seed", range(12))
    def test_invariants_on_random_graphs(self, seed):
        g = corpus_graph(seed)
        decomp = peel(g)
        seen: set[int] = set()
        removed: set[int] = set()
        for round_nodes in decomp.rounds:
            # degree exactly 1 in the graph minus previously removed rounds
            for v in round_nodes:
                deg = sum(1 for w in g.adj[v] if w not in removed)
                assert deg == 1
            assert not (set(round_nodes) & seen)
            seen |= set(round_nodes)
            removed |= set(round_nodes)
        assert sorted(seen | set(decomp.core_nodes)) == list(range(g.n))
        # no degree-1 node survives
        core = set(decomp.core_nodes)
        for v in core:
            assert sum(1 for w in g.adj[v] if w in core) != 1
        for v in range(g.n):
            expected = sum(1 for w in g.adj[v] if g.degree(w) == 1)
            assert decomp.deg1[v] == expected


class TestPeelCounts:
    """peel_counts gives the run record's peel statistics without the
    full peel; peel_sizes of the full peel is the reference."""

    def test_matches_full_peel(self):
        for g in corpus(200) + peeling_cases():
            assert peel_counts(g) == peel_sizes(g, peel(g))

    @pytest.mark.parametrize("g, sizes", [
        (TWO_NODE_AND_ISOLATED, (5, 3, [3 / 8])),
        (Graph.from_edges(0, []), (0, 0, [])),
        (Graph.from_edges(5, [(0, i) for i in range(1, 5)]), (1, 0, [0.8])),
        (path_graph(5), (3, 2, [0.4, 0.4])),
        (path_graph(7), (5, 4, [2 / 7, 2 / 7, 2 / 7])),
        # nodes whose anchor goes in the same round: a lone edge in
        # round 0, and a path whose last round is such a pair
        (Graph.from_edges(2, [(0, 1)]), (0, 0, [1.0])),
        (path_graph(6), (4, 3, [1 / 3, 1 / 3, 1 / 3])),
    ], ids=["two-node-and-isolated", "empty", "star4", "path5", "path7",
            "edge", "pair-last"])
    def test_small_cases(self, g, sizes):
        assert peel_counts(g) == sizes == peel_sizes(g, peel(g))


class TestPeelDiagnostics:
    def test_star(self):
        g = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        report = peel_diagnostics(g)
        assert report.delta1 == 4
        assert report.y_size == 1
        assert report.n_tilde == 1
        assert report.deg1_histogram == {4: 1}
        assert report.two_core_size == 0

    def test_path_p4(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        report = peel_diagnostics(g)
        assert report.v1_round0 == 2
        assert report.y_size == 2
        assert report.delta1 == 1
        assert report.n_tilde == 2

    def test_dolphins_one_round_removal_fraction(self):
        report = peel_diagnostics(load_fixture("soc-dolphins"))
        assert round(report.v1_round0 / report.n, 2) == 0.15

    def test_csphd_table_fractions(self):
        report = peel_diagnostics(load_fixture("ca-CSphd"))
        assert round(report.survivor_fraction, 2) == 0.30
        assert round(report.two_core_fraction, 2) == 0.08


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_edge_list_round_trip(seed):
    g = random_graph_with_pendants(12, 0.2, max_pendants=2, seed=seed)
    buf = io.StringIO()
    write_edge_list(g, buf)
    reloaded = load_edge_list(buf.getvalue().encode())
    assert edge_label_set(reloaded) == edge_label_set(g)
    non_isolated = sum(1 for v in range(g.n) if g.degree(v) > 0)
    assert reloaded.n == non_isolated
    assert reloaded.m == g.m


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_peel_partition_property(seed):
    g = random_graph_with_pendants(15, 0.15, max_pendants=3, seed=seed)
    decomp = peel(g)
    total = sum(len(r) for r in decomp.rounds) + len(decomp.core_nodes)
    assert total == g.n
