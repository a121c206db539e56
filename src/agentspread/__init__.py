"""SI epidemics on graphs assisted by external infection agents.

Module map: ``graphs`` (families, partitions, conductance), ``engine``
(exact event-driven SI simulation), ``policies`` (external rate vectors),
``dominators`` (the two-phase, conductance-chain and cluster-growth
bounding processes), ``analytics`` (sweeps, scaling fits, dominance
verdicts and checks), ``cli`` (the ``sim`` tool).
"""

from .analytics import (
    ExperimentPlan,
    ScalingReport,
    dominance_check,
    dominance_report,
    exponent_fit,
    run_plan,
)
from .dominators import (
    ClusterProcessConfig,
    ClusterTrace,
    conductance_chain,
    diagonal_grid_clusters,
    fpp_clusters,
    line_clusters,
    two_phase_process,
)
from .engine import EngineConfig, InfectionState, Trace, simulate, simulate_batch
from .graphs import (
    ConductanceResult,
    Graph,
    Partition,
    SpanningTree,
    bfs_tree,
    conductance_exact,
    diameter,
    gen_custom,
    gen_grid,
    gen_line,
    gen_rgg,
    gen_ring,
    make_graph,
    partition_grid,
    partition_rgg,
    partition_ring,
    read_graph,
    write_graph,
)
from .policies import (
    DynamicLinks,
    GreedyFrontierAdversary,
    GsiPolicy,
    MobileAgents,
    NullPolicy,
    PolicySpec,
    RandomHomogeneous,
    StaticLinks,
    build_policy,
)

__all__ = [
    "ClusterProcessConfig",
    "ClusterTrace",
    "ConductanceResult",
    "DynamicLinks",
    "EngineConfig",
    "ExperimentPlan",
    "Graph",
    "GreedyFrontierAdversary",
    "GsiPolicy",
    "InfectionState",
    "MobileAgents",
    "NullPolicy",
    "Partition",
    "PolicySpec",
    "RandomHomogeneous",
    "ScalingReport",
    "SpanningTree",
    "StaticLinks",
    "Trace",
    "bfs_tree",
    "build_policy",
    "conductance_chain",
    "conductance_exact",
    "diagonal_grid_clusters",
    "diameter",
    "dominance_check",
    "dominance_report",
    "exponent_fit",
    "fpp_clusters",
    "gen_custom",
    "gen_grid",
    "gen_line",
    "gen_rgg",
    "gen_ring",
    "line_clusters",
    "make_graph",
    "partition_grid",
    "partition_rgg",
    "partition_ring",
    "read_graph",
    "run_plan",
    "simulate",
    "simulate_batch",
    "two_phase_process",
    "write_graph",
]

__version__ = "0.1.0"
