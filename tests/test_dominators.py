"""Two-phase process, conductance chain, and cluster-growth processes."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from agentspread import analytics, graphs
from agentspread.dominators import (
    ClusterProcessConfig,
    chain_sojourn_mean,
    conductance_chain,
    run_cluster_process,
    sample_hitting_times,
    two_phase_process,
)
from agentspread.errors import ConnectivityError, InvalidParameterError


# ---------------------------------------------------------------------------
# Two-phase process
# ---------------------------------------------------------------------------


def test_two_phase_homogeneous_phase1_mean():
    # 4 pieces of n/4 at L=1: phase 1 is the max of 4 Exp(1/4), mean 4*H_4.
    g = graphs.gen_ring(16)
    part = graphs.partition_ring(g)
    runs = two_phase_process(g, part, 1.0, "homogeneous", seed=3, replicates=20000)
    m = np.mean([r.phase1 for r in runs])
    assert m == pytest.approx(4 * (1 + 1 / 2 + 1 / 3 + 1 / 4), rel=0.03)


def test_two_phase_sequential_phase1_mean():
    g = graphs.gen_ring(16)
    part = graphs.partition_ring(g)
    runs = two_phase_process(g, part, 1.0, "sequential", seed=4, replicates=20000)
    assert np.mean([r.phase1 for r in runs]) == pytest.approx(4.0, rel=0.03)


def test_two_phase_single_piece_path_phase2():
    # One piece spanning a path, seeded at the low end: phase 2 is a chain
    # of n-1 unit exponentials.
    g = graphs.gen_line(9)
    part = graphs.Partition(
        pieces=(tuple(range(9)),), piece_sizes=(9,), piece_diameters=(8,)
    )
    runs = two_phase_process(g, part, 1.0, "sequential", seed=5, replicates=20000)
    assert all(r.piece_seeds == (0,) for r in runs[:10])
    assert np.mean([r.phase2 for r in runs]) == pytest.approx(8.0, rel=0.03)


def test_two_phase_rejects_unknown_mode():
    g = graphs.gen_ring(16)
    part = graphs.partition_ring(g)
    with pytest.raises(InvalidParameterError):
        two_phase_process(g, part, 1.0, "parallel", seed=1)


# (graph, mode) -> (phase1, phase2, piece_seeds) at L = 1.3, beta = 0.7,
# seed 8, replicate 2 (the last of a batch of 3) on the canonical
# partition, recorded from the two-phase process's own BFS that
# graphs.bfs_tree replaced.
PINNED_TWO_PHASE = [
    ("ring", "homogeneous", (8.578535063296915, 11.716560848841665, (5, 13, 18, 25, 33, 41, 47))),
    ("ring", "sequential", (4.7015791283001604, 15.627090030116829, (0, 7, 14, 21, 28, 35, 42))),
    ("grid", "homogeneous", (5.483958605948884, 20.87404634270456, (30, 37, 80, 77))),
    ("grid", "sequential", (2.978347788580655, 15.621953451353814, (0, 4, 40, 44))),
    (
        "rgg",
        "homogeneous",
        (17.443459148699226, 12.322643672907088, (571, 667, 497, 419, 563, 728, 634, 580, 274)),
    ),
    ("rgg", "sequential", (6.3025043392062665, 12.322643672907088, (21, 2, 7, 6, 1, 4, 3, 0, 11))),
]
TWO_PHASE_GRAPHS = {
    "ring": lambda: graphs.gen_ring(49),
    "grid": lambda: graphs.gen_grid(100, 2),
    "rgg": lambda: graphs.gen_rgg(729, 0.28, seed=11),
}


@pytest.mark.parametrize("family,mode,want", PINNED_TWO_PHASE)
def test_two_phase_stream_pinned(family, mode, want):
    g = TWO_PHASE_GRAPHS[family]()
    part = graphs.canonical_partition(g)
    tr = two_phase_process(g, part, 1.3, mode, seed=8, replicates=3, beta=0.7)[2]
    assert (tr.phase1, tr.phase2, tr.piece_seeds) == want


# A 9-node ring read from a file whose first segment {0, 1, 2} is
# disconnected: node 2 hangs off node 3.
BROKEN_RING_EDGES = [(0, 1), (1, 3), (3, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]


def test_two_phase_rejects_disconnected_piece():
    g = dataclasses.replace(graphs.gen_custom(9, BROKEN_RING_EDGES), family="ring")
    part = graphs.partition_ring(g)
    assert part.pieces[0] == (0, 1, 2)
    with pytest.raises(ConnectivityError) as err:
        two_phase_process(g, part, 1.0, "sequential", seed=1)
    assert err.value.unreachable == 2


@pytest.mark.parametrize("beta", [0.0, -1.0])
def test_two_phase_rejects_nonpositive_beta(beta):
    g = graphs.gen_ring(16)
    part = graphs.partition_ring(g)
    with pytest.raises(InvalidParameterError, match="beta"):
        two_phase_process(g, part, 1.0, "sequential", seed=1, beta=beta)


def test_dominance_check_random_policy_consistent():
    g = graphs.gen_ring(128)
    part = graphs.partition_ring(g)
    _, verdict = analytics.dominance_check(g, "homogeneous", 1.0, 300, seed=6, partition=part)
    assert verdict.consistent


def test_dominance_check_rejects_unknown_mode():
    g = graphs.gen_ring(16)
    part = graphs.partition_ring(g)
    with pytest.raises(InvalidParameterError):
        analytics.dominance_check(g, "null", 1.0, 100, seed=1, partition=part)


# ---------------------------------------------------------------------------
# Conductance chain
# ---------------------------------------------------------------------------


def test_chain_size2_is_exponential():
    times = conductance_chain(2, 1.0, seed=7, replicates=20000)
    assert np.mean(times) == pytest.approx(1.0, rel=0.03)


def test_chain_sojourn_closed_form():
    assert chain_sojourn_mean(4, 1.0) == pytest.approx(2.5)
    assert chain_sojourn_mean(8, 1.0) == pytest.approx(
        1 + 1 / 2 + 1 / 3 + 1 / 4 + 1 / 3 + 1 / 2 + 1
    )
    assert chain_sojourn_mean(4, 0.5) == pytest.approx(5.0)


def test_chain_mc_matches_sojourn_sum():
    want = chain_sojourn_mean(4, 1.0)
    times = conductance_chain(4, 1.0, seed=8, replicates=20000)
    assert np.mean(times) == pytest.approx(want, rel=0.03)


def test_chain_reads_whole_float_piece_size():
    assert conductance_chain(4.0, 1.0, seed=8, replicates=3) == conductance_chain(
        4, 1.0, seed=8, replicates=3
    )
    assert chain_sojourn_mean(4.0, 1.0) == chain_sojourn_mean(4, 1.0)
    with pytest.raises(InvalidParameterError, match="piece_size must be an integer"):
        conductance_chain(4.5, 1.0, seed=8)
    with pytest.raises(InvalidParameterError, match="piece_size must be an integer"):
        chain_sojourn_mean(4.5, 1.0)


def test_chain_mean_linear_in_log_size():
    sizes = [4, 8, 16, 32, 64, 128]
    means = [chain_sojourn_mean(s, 1.0) for s in sizes]
    r = np.corrcoef(np.log(sizes), means)[0, 1]
    assert r > 0.999


# ---------------------------------------------------------------------------
# Line cluster process
# ---------------------------------------------------------------------------


def test_line_cluster_mean_curve():
    # E[N_t] = beta t^2 + 2 beta t at unit seeding.
    cfg = ClusterProcessConfig(
        growth="line", target_count=10**9, max_time=2.0, seed=9
    )
    counts = [tr.count_at(2.0) for tr in run_cluster_process(cfg, 20000)]
    assert np.mean(counts) == pytest.approx(8.0, rel=0.03)


@pytest.mark.parametrize("beta,t", [(0.5, 3.0), (2.0, 1.0)])
def test_line_cluster_mean_curve_other_betas(beta, t):
    cfg = ClusterProcessConfig(
        growth="line", target_count=10**9, beta=beta, max_time=t, seed=10
    )
    counts = [tr.count_at(t) for tr in run_cluster_process(cfg, 20000)]
    assert np.mean(counts) == pytest.approx(beta * t * t + 2 * beta * t, rel=0.03)


def test_line_cluster_no_seeding_limit_is_poisson():
    # With vanishing seeding the count is the lone cluster's growth,
    # a Poisson(2 beta t) variable.
    cfg = ClusterProcessConfig(
        growth="line", target_count=10**9, seeding_rate=1e-12, max_time=2.0, seed=11
    )
    counts = np.array([tr.count_at(2.0) for tr in run_cluster_process(cfg, 20000)])
    assert counts.mean() == pytest.approx(4.0, rel=0.05)
    assert counts.var() == pytest.approx(4.0, rel=0.08)


def test_count_at_is_the_step_function_of_the_path():
    # A bisection over the path's times: at a step time the count is the
    # step's, before the first step it is 0.
    cfg = ClusterProcessConfig(growth="line", target_count=60, seed=13)
    for tr in run_cluster_process(cfg, 5):
        path = tr.total_count_path
        times = [t for t, _ in path]
        probes = times + [(a + b) / 2 for a, b in zip(times, times[1:])] + [-1.0, times[-1] + 1]
        for t in probes:
            want = ([c for s, c in path if s <= t] or [0])[-1]
            assert tr.count_at(t) == want


def test_line_cluster_trace_invariants():
    cfg = ClusterProcessConfig(growth="line", target_count=500, seed=12)
    (tr,) = run_cluster_process(cfg)
    counts = [c for _, c in tr.total_count_path]
    assert counts == sorted(counts)
    births = tr.cluster_birth_times
    assert births == sorted(births)
    assert tr.hitting_time == tr.total_count_path[-1][0]


def test_line_hitting_slope_half():
    means = []
    ns = [100, 1000, 10000]
    for n in ns:
        cfg = ClusterProcessConfig(growth="line", target_count=n, seed=13)
        means.append(np.mean(sample_hitting_times(cfg, 100)))
    from agentspread.analytics import exponent_fit

    fit = exponent_fit(list(zip(ns, means)))
    assert abs(fit.slope - 0.5) < 0.08


def test_sample_hitting_times_deterministic():
    cfg = ClusterProcessConfig(growth="line", target_count=200, seed=14)
    assert sample_hitting_times(cfg, 20) == sample_hitting_times(cfg, 20)


# ---------------------------------------------------------------------------
# All growths: the one arrival loop
# ---------------------------------------------------------------------------


# (config, replicate) -> (hitting_time, events, clusters born), recorded from
# the two separate line and lattice loops this one loop replaced; replicate
# k is the last trace of a batch of k + 1.
PINNED_RUNS = [
    (dict(growth="line", target_count=200, seed=3), 1, (14.406194537204446, 215, 16)),
    (dict(growth="fpp", dim=1, target_count=100, seed=4), 0, (11.970032414466512, 99, 9)),
    (
        dict(growth="fpp", dim=2, target_count=300, beta=0.2, seeding_rate=2.0, seed=5),
        2,
        (7.9968142425367255, 299, 21),
    ),
    (
        dict(
            growth="diagonal", target_count=120, occupancy=3, mu_eff=0.25, seeding_rate=2.0,
            seed=6,
        ),
        1,
        (2.309066817334024, 39, 4),
    ),
    (dict(growth="fpp", dim=2, target_count=10**6, max_time=2.0, seed=7), 0, (None, 68, 4)),
]


@pytest.mark.parametrize("kwargs,replicate,want", PINNED_RUNS)
def test_cluster_stream_pinned(kwargs, replicate, want):
    *_, tr = run_cluster_process(ClusterProcessConfig(**kwargs), replicate + 1)
    assert (tr.hitting_time, tr.events, len(tr.cluster_birth_times)) == want


@st.composite
def cluster_configs(draw):
    growth = draw(st.sampled_from(["line", "fpp", "diagonal"]))
    rate = st.floats(0.05, 5.0)
    return ClusterProcessConfig(
        growth=growth,
        target_count=draw(st.integers(1, 300)),
        seeding_rate=draw(rate),
        beta=draw(rate),
        dim=draw(st.integers(1, 3)),
        mu_eff=draw(rate),
        occupancy=draw(st.integers(1, 4)),
        max_time=draw(st.one_of(st.none(), st.floats(0.0, 5.0))),
        seed=draw(st.integers(0, 2**63)),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cluster_configs(), st.integers(0, 50))
def test_cluster_trace_invariants_all_growths(cfg, replicate):
    for tr in run_cluster_process(cfg, replicate + 1):
        path = tr.total_count_path
        counts = [c for _, c in path]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        births = tr.cluster_birth_times
        assert births[0] == 0.0 and births == sorted(births)
        # every event is an arrival or a growth; a lattice cluster's seed
        # site counts, a line cluster's does not, and each growth adds one
        # site
        arrivals = len(births) - 1
        if cfg.growth == "line":
            growths = counts[-1]
        else:
            points = cfg.occupancy if cfg.growth == "diagonal" else 1
            growths = counts[-1] // points - len(births)
        assert tr.events == arrivals + growths
        if tr.hitting_time is None:
            assert counts[-1] < cfg.target_count and path[-1][0] <= cfg.max_time
        else:
            assert counts[-1] >= cfg.target_count
            assert tr.hitting_time == path[-1][0]


# ---------------------------------------------------------------------------
# Lattice cluster processes
# ---------------------------------------------------------------------------


def test_fpp_d1_single_cluster_is_poisson_pair():
    # One d=1 cluster has two independent Exp(beta) frontier edges, so
    # size-1 at time t is a sum of two Poisson(beta t) counters.
    t = 2.0
    cfg = ClusterProcessConfig(
        growth="fpp", dim=1, target_count=10**9, seeding_rate=1e-12, max_time=t, seed=15
    )
    sizes = np.array([tr.count_at(t) - 1 for tr in run_cluster_process(cfg, 4000)])
    ref = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    poisson = ref.poisson(2 * t, size=4000)
    _, p = stats.ks_2samp(sizes, poisson)
    assert p > 0.01


def test_fpp_counts_origin():
    cfg = ClusterProcessConfig(growth="fpp", dim=2, target_count=50, seed=16)
    (tr,) = run_cluster_process(cfg)
    assert tr.total_count_path[0] == (0.0, 1)
    counts = [c for _, c in tr.total_count_path]
    assert counts == sorted(counts)


def test_diagonal_first_jump_exp8():
    cfg = ClusterProcessConfig(
        growth="diagonal", target_count=2, seeding_rate=1e-12, mu_eff=1.0, seed=18
    )
    first = [tr.hitting_time for tr in run_cluster_process(cfg, 20000)]
    assert np.mean(first) == pytest.approx(1 / 8, rel=0.04)


def test_diagonal_occupancy_counts_points():
    cfg = ClusterProcessConfig(
        growth="diagonal", target_count=30, occupancy=5, seeding_rate=1e-6, seed=19
    )
    (tr,) = run_cluster_process(cfg)
    assert tr.total_count_path[0] == (0.0, 5)
    # 6 occupied sites reach 30 points
    assert tr.total_count_path[-1][1] == 30
    assert tr.events == 5


def test_diagonal_polylog_sweep_consistent_with_cube_root_law():
    # Hitting-time growth with edge rate log^2(n) and site occupancy
    # log(n): the fitted CI should cover the slope of the reference law
    # n^(1/3) / log^(4/3) n over the same sizes.
    from agentspread.analytics import ExperimentPlan, exponent_fit, run_plan

    sizes = (256, 1024, 4096, 16384)
    plan = ExperimentPlan(
        sizes=sizes,
        process="diagonal_grid_clusters",
        mu_eff="log2n",
        occupancy="logn",
        replicates=100,
        seed=901,
    )
    rep = run_plan(plan)
    ref = exponent_fit(
        [(n, n ** (1 / 3) / math.log(n) ** (4 / 3)) for n in sizes]
    ).slope
    assert rep.fit_raw.ci_low <= ref <= rep.fit_raw.ci_high
