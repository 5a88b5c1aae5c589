"""Betweenness centrality with degree-1 peeling.

Exact scoring (Brandes-style accumulation, and one-round or 2-core
peeling on the same kernel), pivot-sampling estimators with
sample-size recommenders, core-periphery generators, and brute-force
oracles for testing.
"""

from .datasets import fixture_names, fixture_path, load_fixture
from .exact import (
    BcResult,
    SsspTree,
    accumulate,
    brandes_exact,
    oracle_bc,
    oracle_sigma,
    source_dependency,
    sssp_bfs,
)
from .graph import (
    Graph,
    GraphFormatError,
    GraphParseError,
    PeelDecomposition,
    PeelReport,
    load_edge_list,
    load_matrix_market,
    peel,
    peel_diagnostics,
    read_graph,
    write_edge_list,
)
from .peeling import (
    accumulate_delta_zeta,
    bc_one_round_mem,
    bc_via_2core_recurrence,
)
from .sampling import (
    ErrorReport,
    SampleConfig,
    bernstein_pivot_bound,
    recommended_pivots,
    relative_l1_error,
    sample_bc_baseline,
    sample_bc_peeled,
)
from .synth import (
    Attachment,
    CorePeripherySpec,
    generate_core_periphery,
    random_graph_with_pendants,
)

__version__ = "0.1.0"

__all__ = [
    "Attachment",
    "BcResult",
    "CorePeripherySpec",
    "ErrorReport",
    "Graph",
    "GraphFormatError",
    "GraphParseError",
    "PeelDecomposition",
    "PeelReport",
    "SampleConfig",
    "SsspTree",
    "accumulate",
    "accumulate_delta_zeta",
    "bc_one_round_mem",
    "bc_via_2core_recurrence",
    "bernstein_pivot_bound",
    "brandes_exact",
    "fixture_names",
    "fixture_path",
    "generate_core_periphery",
    "load_edge_list",
    "load_fixture",
    "load_matrix_market",
    "oracle_bc",
    "oracle_sigma",
    "peel",
    "peel_diagnostics",
    "random_graph_with_pendants",
    "read_graph",
    "recommended_pivots",
    "relative_l1_error",
    "sample_bc_baseline",
    "sample_bc_peeled",
    "source_dependency",
    "sssp_bfs",
    "write_edge_list",
]
