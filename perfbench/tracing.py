"""Span tracing of peelbc's layers from outside the program.

The tracer replaces public functions of each peelbc module with wrappers
that record a span (name, start, end, parent span, job id) and a few
work counts.  Modules import these functions by name (``peeling`` and
``sampling`` bind ``sssp_bfs`` themselves), so every binding of a
function in every loaded ``peelbc`` module is patched, and all of them
are restored when tracing ends.  Spans and counts stay in memory until
the caller writes them out.

Self time is a span's duration minus the time its child spans cover.
The cost of a wrapper's counting (after its span closed) is charged to
no span, so it shows only as tracing overhead.  Worker processes forked
by ``--threads 2`` jobs lose their spans; those jobs are traced only at
``exact.run_chunked``.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Spans that hold dependency-accumulation work (BFS plus backward pass).
KERNEL = ("exact.sssp_bfs", "exact.source_dependency", "exact.run_chunked",
          "peeling.accumulate_delta_zeta")
PARALLEL_SPAN = "exact.run_chunked"

LAYER_UNITS = {
    "graph.read_graph_s": "s",
    "graph.edges_read": "count",
    "graph.read_graph_ns_per_edge": "ns",
    "graph.peel_diagnostics_s": "s",
    "graph.peel_diagnostics_calls": "count",
    "graph.subgraph_s": "s",
    "graph.component_ids_s": "s",
    "exact.sssp_bfs_s": "s",
    "exact.sources": "count",
    "exact.edge_visits": "count",
    "exact.node_inits": "count",
    "exact.sssp_bfs_ns_per_edge_visit": "ns",
    "exact.accumulate_s": "s",
    "exact.run_chunked_s": "s",
    "exact.workers": "count",
    "exact.parallel_speedup": "ratio",
    "peeling.bc_one_round_mem_s": "s",
    "peeling.survivors": "count",
    "peeling.survivor_edges": "count",
    "peeling.predicted_work_ratio": "ratio",
    "peeling.measured_speedup": "ratio",
    "sampling.sample_bc_peeled_s": "s",
    "sampling.sample_bc_baseline_s": "s",
    "sampling.pivots": "count",
    "sampling.setup_share": "ratio",
    "sampling.exact_fallbacks": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "synth.generate_core_periphery_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def _on_read_graph(tracer, args, kwargs, g):
    tracer.counts["graph.edges_read"] += g.m
    tracer.job_facts().update(n=g.n, m=g.m)


def _on_peel_diagnostics(tracer, args, kwargs, report):
    tracer.counts["graph.peel_diagnostics_calls"] += 1


def _on_subgraph(tracer, args, kwargs, result):
    if tracer.open_span_name() == "peeling.bc_one_round_mem":
        sub = result[0]
        tracer.job_facts().update(survivors=sub.n, survivor_edges=sub.m)


def _on_sssp_bfs(tracer, args, kwargs, tree):
    adj = args[0].adj
    visits = sum(map(len, map(adj.__getitem__, tree.order)))
    tracer.counts["exact.sources"] += 1
    tracer.counts["exact.node_inits"] += len(adj)
    tracer.counts["exact.edge_visits"] += visits
    facts = tracer.job_facts()
    facts["edge_visits"] = facts.get("edge_visits", 0) + visits


def _on_run_chunked(tracer, args, kwargs, partials):
    if len(partials) > 1:  # more than one chunk: one forked worker each
        tracer.counts["exact.workers"] += len(partials)


def _on_sample(tracer, args, kwargs, result):
    tracer.counts["sampling.pivots"] += args[1].k
    if result.k is None:  # k reached the survivor count: exact run
        tracer.counts["sampling.exact_fallbacks"] += 1


# (span name, defining module, attribute, hook run after the call)
TRACED = (
    ("cli.main", "peelbc.cli", "main", None),
    ("graph.read_graph", "peelbc.graph", "read_graph", _on_read_graph),
    ("graph.peel_diagnostics", "peelbc.graph", "peel_diagnostics", _on_peel_diagnostics),
    ("graph.subgraph", "peelbc.graph", "Graph.subgraph", _on_subgraph),
    ("graph.component_ids", "peelbc.graph", "Graph.component_ids", None),
    ("exact.brandes_exact", "peelbc.exact", "brandes_exact", None),
    ("exact.run_chunked", "peelbc.exact", "run_chunked", _on_run_chunked),
    ("exact.sssp_bfs", "peelbc.exact", "sssp_bfs", _on_sssp_bfs),
    ("exact.source_dependency", "peelbc.exact", "source_dependency", None),
    ("peeling.bc_one_round_mem", "peelbc.peeling", "bc_one_round_mem", None),
    ("peeling.accumulate_delta_zeta", "peelbc.peeling", "accumulate_delta_zeta", None),
    ("sampling.sample_bc_peeled", "peelbc.sampling", "sample_bc_peeled", _on_sample),
    ("sampling.sample_bc_baseline", "peelbc.sampling", "sample_bc_baseline", _on_sample),
    ("synth.generate_core_periphery", "peelbc.synth", "generate_core_periphery", None),
)


class Tracer:
    """Collects spans and counts while installed; one tracer per traced pass."""

    def __init__(self):
        # [name, start, end, parent index or -1, job id, hook time of children]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.facts: dict[str, dict] = {}
        self.job: str | None = None
        self._only: str | None = None
        self._stack: list[int] = []
        self._pid = os.getpid()

    def start_job(self, job_id: str, threads: int) -> None:
        self.job = job_id
        self._only = PARALLEL_SPAN if threads > 1 else None

    def job_facts(self) -> dict:
        return self.facts.setdefault(self.job, {})

    def open_span_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid or tracer._only not in (None, name):
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, tracer.job, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
                if parent >= 0:
                    tracer.spans[parent][5] += perf_counter() - span[2]
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore on exit."""
        patched = []  # (owner, attribute, original)
        try:
            for name, mod_name, attr, hook in TRACED:
                owner = sys.modules[mod_name]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = vars(cls)[attr]
                    patched.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original, hook))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, hook)
                for mod_name2, mod in list(sys.modules.items()):
                    if mod_name2 != "peelbc" and not mod_name2.startswith("peelbc."):
                        continue
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, binding, original))
                            setattr(mod, binding, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def span_times(spans) -> tuple[list[float], list[float]]:
    """Duration and self time of each span."""
    durations = [s[2] - s[1] for s in spans]
    covered = [s[5] for s in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += durations[i]
    return durations, [d - c for d, c in zip(durations, covered)]


def bfs_cost_by_graph(tracer: Tracer, jobs: dict) -> dict[str, float]:
    """ns per BFS edge visit in each graph's Brandes job."""
    bfs_s: Counter = Counter()
    for name, start, end, _, job_id, _ in tracer.spans:
        if name == "exact.sssp_bfs" and job_id in jobs and jobs[job_id].kind == "brandes":
            bfs_s[job_id] += end - start
    return {jobs[j].graph: 1e9 * t / tracer.facts[j]["edge_visits"]
            for j, t in bfs_s.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, jobs: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass; `jobs` maps job id to Job.

    Kernel times come from --threads 1 jobs; exact.run_chunked_s is the
    parallel section of --threads 2 jobs (pool start-up, compute and
    transfer of partial results).
    """
    spans = tracer.spans
    durations, self_times = span_times(spans)
    total: Counter = Counter()
    own: Counter = Counter()
    kernel_in_sampling = 0.0
    for i, (name, _, _, parent, job_id, _) in enumerate(spans):
        if name == PARALLEL_SPAN and job_id in jobs and jobs[job_id].threads > 1:
            name = "exact.run_chunked.parallel"
        total[name] += durations[i]
        own[name] += self_times[i]
        top_kernel = name in KERNEL and (parent < 0 or spans[parent][0] not in KERNEL)
        if top_kernel and job_id in jobs and not jobs[job_id].exact:
            kernel_in_sampling += durations[i]

    c = tracer.counts
    peel1 = [f for j, f in tracer.facts.items()
             if j in jobs and jobs[j].kind == "peel1" and "survivors" in f]
    full_work = sum(f["n"] * f["m"] for f in peel1)
    peeled_work = sum(f["survivors"] * f["survivor_edges"] for f in peel1)
    sample_s = total["sampling.sample_bc_peeled"] + total["sampling.sample_bc_baseline"]
    return {
        "graph.read_graph_s": total["graph.read_graph"],
        "graph.edges_read": c["graph.edges_read"],
        "graph.read_graph_ns_per_edge": 1e9 * _ratio(total["graph.read_graph"],
                                                     c["graph.edges_read"]),
        "graph.peel_diagnostics_s": total["graph.peel_diagnostics"],
        "graph.peel_diagnostics_calls": c["graph.peel_diagnostics_calls"],
        "graph.subgraph_s": total["graph.subgraph"],
        "graph.component_ids_s": total["graph.component_ids"],
        "exact.sssp_bfs_s": total["exact.sssp_bfs"],
        "exact.sources": c["exact.sources"],
        "exact.edge_visits": c["exact.edge_visits"],
        "exact.node_inits": c["exact.node_inits"],
        "exact.sssp_bfs_ns_per_edge_visit": 1e9 * _ratio(total["exact.sssp_bfs"],
                                                         c["exact.edge_visits"]),
        "exact.accumulate_s": (own["exact.run_chunked"] + own["exact.source_dependency"]
                               + own["peeling.accumulate_delta_zeta"]),
        "exact.run_chunked_s": total["exact.run_chunked.parallel"],
        "exact.workers": c["exact.workers"],
        "peeling.bc_one_round_mem_s": own["peeling.bc_one_round_mem"],
        "peeling.survivors": sum(f["survivors"] for f in peel1),
        "peeling.survivor_edges": sum(f["survivor_edges"] for f in peel1),
        "peeling.predicted_work_ratio": _ratio(full_work, peeled_work),
        "sampling.sample_bc_peeled_s": total["sampling.sample_bc_peeled"],
        "sampling.sample_bc_baseline_s": total["sampling.sample_bc_baseline"],
        "sampling.pivots": c["sampling.pivots"],
        "sampling.setup_share": _ratio(sample_s - kernel_in_sampling, sample_s),
        "sampling.exact_fallbacks": c["sampling.exact_fallbacks"],
        "cli.main_s": total["cli.main"],
        "cli.self_s": own["cli.main"],
        "synth.generate_core_periphery_s": total["synth.generate_core_periphery"],
    }
