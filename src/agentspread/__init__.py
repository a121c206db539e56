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
    run_cluster_process,
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
    "diameter",
    "dominance_check",
    "dominance_report",
    "exponent_fit",
    "gen_custom",
    "gen_grid",
    "gen_line",
    "gen_rgg",
    "gen_ring",
    "make_graph",
    "partition_grid",
    "partition_rgg",
    "partition_ring",
    "read_graph",
    "run_cluster_process",
    "run_plan",
    "simulate",
    "simulate_batch",
    "two_phase_process",
    "write_graph",
]

__version__ = "0.1.0"
