"""A fixed pure-Python probe of the machine's current speed.

Shared machines drift in speed by 10-30% over tens of seconds to
minutes.  The benchmark times this probe after every job and rescales
each job's wall time by NOMINAL_S over the probe times around it; a job
on two cores is timed against PairedProbe, the probe on two cores at
once, since whether the second core is free changes its time as much as
the speed of one core does.  The probe shares no code with peelbc, so a
change to the program moves the rescaled times as much as the wall
times, but it does the same kind of interpreter work as the jobs:
breadth-first search with path counts and a backward dependency pass
over a fixed random graph.
"""

from __future__ import annotations

import multiprocessing
import random
from collections import deque
from time import perf_counter

N, M, SOURCES = 400, 1600, 12
# Median probe time on one core, and PairedProbe time on two right after
# a --threads 2 job, by core count, on the 2-vCPU Xeon machine the
# baselines were taken on; rescaled times read as that machine's wall seconds.
NOMINAL_S = {1: 0.006, 2: 0.0085}


def _graph() -> list[list[int]]:
    rng = random.Random(20240801)
    adj: list[set[int]] = [set() for _ in range(N)]
    for v in range(1, N):  # a random tree keeps it connected
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    while sum(map(len, adj)) < 2 * M:
        u, v = rng.randrange(N), rng.randrange(N)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [sorted(a) for a in adj]


_ADJ = _graph()


def probe() -> float:
    """Seconds taken by one fixed pass of BFS plus dependency accumulation."""
    adj = _ADJ
    start = perf_counter()
    for s in range(0, N, N // SOURCES):
        dist = [-1] * N
        sigma = [0] * N
        preds: list[list[int]] = [[] for _ in range(N)]
        dist[s], sigma[s] = 0, 1
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * N
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
    return perf_counter() - start


class PairedProbe:
    """probe() on two cores at once: in this process and in a helper
    process, started once, that waits on a pipe between probes, so that
    no process start is timed.  Use it as a context manager, which stops
    the helper and waits for it; a call returns the seconds until both
    copies have finished."""

    def __enter__(self) -> PairedProbe:
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._helper = ctx.Process(target=_probe_on_request, args=(child,), daemon=True)
        self._helper.start()
        child.close()
        return self

    def __call__(self) -> float:
        start = perf_counter()
        self._conn.send(True)
        probe()
        self._conn.recv()
        return perf_counter() - start

    def __exit__(self, *exc) -> None:
        try:
            self._conn.send(False)
        finally:
            self._helper.join(timeout=10)
            if self._helper.is_alive():
                self._helper.kill()
                self._helper.join()
            self._conn.close()


def _probe_on_request(conn) -> None:
    while conn.recv():
        probe()
        conn.send(None)
