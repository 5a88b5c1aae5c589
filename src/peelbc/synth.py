"""Deterministic generators for core-periphery experiment graphs.

The core is two cliques bridged by a single central node; the periphery
is a configurable number of degree-1 nodes hung off the non-central core
nodes under one of two attachment schedules.  A small seeded
Erdos-Renyi-plus-pendants sampler for test corpora lives here too.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .graph import Graph


class Attachment(enum.Enum):
    """How periphery nodes are distributed over the non-central core."""

    LINEAR_SKEW = "linear-skew"
    GEOMETRIC_HALVING = "geometric-halving"


@dataclass(frozen=True)
class CorePeripherySpec:
    """Parameters for generate_core_periphery.

    core_size counts the whole core including the central node; the
    non-central nodes split into a first half of floor(core_size/2)
    nodes and a second half of the rest.  v1_count periphery nodes of
    degree 1 attach per the schedule; the central node never receives
    any.  Construction is fully deterministic.
    """

    core_size: int
    v1_count: int
    attachment: Attachment = Attachment.LINEAR_SKEW

    def __post_init__(self):
        if self.core_size < 3:
            raise ValueError(f"core_size must be >= 3, got {self.core_size}")
        if self.v1_count < 0:
            raise ValueError(f"v1_count must be >= 0, got {self.v1_count}")


def _linear_skew_shares(core_size: int, v1_count: int) -> list[int]:
    """Shares proportional to (core_size - j) for rank j, remainder round-robin."""
    ranks = list(range(1, core_size))
    weights = [core_size - j for j in ranks]
    total = sum(weights)
    shares = [v1_count * w // total for w in weights]
    remainder = v1_count - sum(shares)
    i = 0
    while remainder > 0:
        shares[i % len(shares)] += 1
        remainder -= 1
        i += 1
    return [0] + shares  # index by core node id; central node 0 gets none


def _geometric_halving_shares(core_size: int, v1_count: int) -> list[int]:
    """Node j takes floor(v1_count / 2^(j+1)) until the schedule runs dry.

    Any leftover (schedule exhausted or out of core nodes) lands on the
    next node in sequence, clamped to the last non-central node.
    """
    shares = [0] * core_size
    remaining = v1_count
    j = 1
    while remaining > 0 and j <= core_size - 1:
        share = v1_count // (2 ** (j + 1))
        if share == 0:
            break
        take = min(share, remaining)
        shares[j] += take
        remaining -= take
        j += 1
    if remaining > 0:
        shares[min(j, core_size - 1)] += remaining
    return shares


def generate_core_periphery(spec: CorePeripherySpec) -> Graph:
    """Two cliques bridged by a central node, plus degree-1 periphery.

    Core nodes are 0..core_size-1 with node 0 central: the first half
    (1..floor(core/2)) and second half (the rest) are each complete, and
    node 0 is adjacent to every other core node.  Periphery nodes
    core_size..core_size+v1_count-1 attach one edge each following the
    spec's schedule.
    """
    core = spec.core_size
    half = core // 2
    first = list(range(1, half + 1))
    second = list(range(half + 1, core))
    edges = []
    for group in (first, second):
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                edges.append((u, v))
    for u in range(1, core):
        edges.append((0, u))

    if spec.attachment is Attachment.LINEAR_SKEW:
        shares = _linear_skew_shares(core, spec.v1_count)
    elif spec.attachment is Attachment.GEOMETRIC_HALVING:
        shares = _geometric_halving_shares(core, spec.v1_count)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown attachment {spec.attachment!r}")

    nxt = core
    for host, count in enumerate(shares):
        for _ in range(count):
            edges.append((host, nxt))
            nxt += 1
    return Graph.from_edges(core + spec.v1_count, edges)


def random_graph_with_pendants(
    n: int, edge_prob: float, max_pendants: int = 3, seed: int = 0
) -> Graph:
    """Seeded Erdos-Renyi base plus 0..max_pendants pendant nodes per node.

    The test-corpus workhorse: disconnected bases, isolated nodes, and
    two-node components all occur naturally at small n and low
    edge_prob.
    """
    if n < 0 or not 0 <= edge_prob <= 1 or max_pendants < 0:
        raise ValueError("invalid random-graph parameters")
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((i, j))
    nxt = n
    for i in range(n):
        for _ in range(rng.randint(0, max_pendants)):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)
