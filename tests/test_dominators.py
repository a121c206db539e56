"""Two-phase process, conductance chain, and cluster-growth processes."""

import dataclasses
import gc
import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from agentspread import analytics, dominators, graphs, policies, rng
from agentspread.dominators import (
    _PATH_POINTS,
    ClusterProcessConfig,
    chain_sojourn_mean,
    conductance_chain,
    run_cluster_process,
    sample_hitting_times,
    sample_hits,
    two_phase_process,
)
from agentspread.errors import ConnectivityError, InvalidParameterError

from forking import (
    LIMITS,
    OBSERVERS,
    assert_no_child_left,
    count_forks,
    open_fds,
    refuse,
)


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


def ring25_partition(change):
    """The canonical partition of ring 25, with ``change`` applied to its
    list of pieces; the piece sizes are kept."""
    part = graphs.partition_ring(graphs.gen_ring(25))
    pieces = list(part.pieces)
    change(pieces)
    return dataclasses.replace(part, pieces=tuple(pieces))


def overlap(pieces):  # piece 0's last node replaces piece 1's first
    pieces[1] = pieces[0][-1:] + pieces[1][1:]


def outside(pieces):  # node 25 replaces the last node
    pieces[-1] = pieces[-1][:-1] + (25,)


# case -> (a partition of ring 25 that is not a cover, the error it gets)
NOT_A_COVER = {
    "short": (lambda: graphs.partition_ring(graphs.gen_ring(16)), "node 16 is in no piece"),
    "overlap": (lambda: ring25_partition(overlap), r"node \d+ is in pieces 0 and 1"),
    "outside": (lambda: ring25_partition(outside), "holds node 25, outside 0..24"),
}


@pytest.mark.parametrize("mode", ["homogeneous", "sequential"])
@pytest.mark.parametrize("case", NOT_A_COVER)
def test_two_phase_refuses_a_partition_that_is_not_a_cover(case, mode):
    part, message = NOT_A_COVER[case]
    with pytest.raises(InvalidParameterError, match=message):
        two_phase_process(graphs.gen_ring(25), part(), 1.0, mode, 1, 2)


def test_dominance_check_refuses_a_partition_of_a_smaller_graph():
    # Nodes 16-24 are in no piece of a ring 16 partition: an upper process
    # on it would never infect them, and its verdict would say nothing.
    g = graphs.gen_ring(25)
    part, message = NOT_A_COVER["short"]
    with pytest.raises(InvalidParameterError, match=message):
        analytics.dominance_check(g, "homogeneous", 1.0, 200, 1, partition=part())


@pytest.mark.parametrize("case", ["overlap", "outside"])
def test_gsi_refuses_a_partition_that_is_not_a_cover(case):
    # The piece sizes add up to n = 25: only the cover check tells these
    # pieces from a partition of ring 25.
    part, message = NOT_A_COVER[case]
    assert sum(part().piece_sizes) == 25
    with pytest.raises(InvalidParameterError, match=message):
        policies.GsiPolicy(part(), 1.0)


@pytest.mark.parametrize("case", NOT_A_COVER)
def test_validate_partition_checks_the_cover_with_piece_of(case):
    part, message = NOT_A_COVER[case]
    with pytest.raises(ValueError, match=message):
        graphs.validate_partition(graphs.gen_ring(25), part())


@pytest.mark.parametrize(
    "g",
    [graphs.gen_grid(256, 2), graphs.gen_rgg(64, 0.3, seed=1), graphs.gen_custom(3, [(0, 1)])],
    ids=["grid", "rgg", "custom"],
)
def test_line_vs_adversary_refuses_a_graph_that_is_not_1d(g, monkeypatch):
    # Line clusters sit below the adversary on rings and lines only.
    monkeypatch.setattr(analytics, "simulate_batch", None)  # refused before any run
    with pytest.raises(InvalidParameterError, match=f"ring and line graphs only, not {g.family}"):
        analytics.dominance_check(g, "line_vs_adversary", 1.0, 300, seed=3)


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
        path = list(zip(tr.path_times, tr.path_counts))
        times = list(tr.path_times)
        probes = times + [(a + b) / 2 for a, b in zip(times, times[1:])] + [-1.0, times[-1] + 1]
        for t in probes:
            want = ([c for s, c in path if s <= t] or [0])[-1]
            assert tr.count_at(t) == want


def test_line_cluster_trace_invariants():
    cfg = ClusterProcessConfig(growth="line", target_count=500, seed=12)
    (tr,) = run_cluster_process(cfg)
    counts = list(tr.path_counts)
    assert counts == sorted(counts)
    births = tr.cluster_birth_times
    assert births == sorted(births)
    assert tr.hitting_time == tr.path_times[-1]


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
        # at most 300 points: the whole path, its counts a range
        assert isinstance(tr.path_counts, range)
        path = list(zip(tr.path_times, tr.path_counts))
        counts = list(tr.path_counts)
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


def path_digest(tr):
    """The first 16 hex digits of the sha256 of the repr of a trace's
    (time, count) list."""
    path = list(zip(tr.path_times, tr.path_counts))
    return hashlib.sha256(repr(path).encode()).hexdigest()[:16]


# config -> (points kept, hitting time, events, path digest) of runs 0 and
# 1, recorded from the (time, count) tuples each path was before it became
# two columns. Only the line run is short enough to keep its whole path.
PINNED_PATHS = {
    "line-cut": (
        dict(growth="line", target_count=10**6, max_time=30.0, seed=31),
        [(662, None, 684, "c2aa27fa589bd5ec"), (865, None, 888, "85ecccf8c7ab42ee")],
    ),
    "fpp-d1": (
        dict(growth="fpp", dim=1, target_count=9000, seed=32),
        [
            (4096, 86.71793845937157, 8999, "b5b2e203f9f8cdba"),
            (4096, 96.38828294010065, 8999, "a2f723896952145e"),
        ],
    ),
    "fpp-d2": (
        dict(growth="fpp", dim=2, target_count=9000, seed=33),
        [
            (4096, 11.443408007547001, 8999, "bed2a866f8e952a8"),
            (4096, 12.680269662254661, 8999, "cbc470d27bfddef9"),
        ],
    ),
    "fpp-d3": (
        dict(growth="fpp", dim=3, target_count=9000, seed=34),
        [
            (4096, 3.5699128293589424, 8999, "a00837d7818cae70"),
            (4096, 4.631805651361451, 8999, "7270701e1af7b69a"),
        ],
    ),
    "diagonal-occupancy-3": (
        dict(growth="diagonal", target_count=15000, occupancy=3, mu_eff=0.5, seed=35),
        [
            (4096, 7.04197973482705, 4999, "193260792bb9fdb9"),
            (4096, 7.704622997996026, 4999, "4600174c05107e3a"),
        ],
    ),
}


@pytest.mark.parametrize("name", PINNED_PATHS)
def test_count_path_pinned(name):
    kwargs, want = PINNED_PATHS[name]
    traces = list(run_cluster_process(ClusterProcessConfig(**kwargs), 2))
    got = [(len(tr.path_times), tr.hitting_time, tr.events, path_digest(tr)) for tr in traces]
    assert got == want
    for tr in traces:
        assert len(tr.path_counts) == len(tr.path_times)
        assert isinstance(tr.path_counts, range) == (name == "line-cut")


@pytest.mark.parametrize("target,counts", [(_PATH_POINTS, range), (_PATH_POINTS + 1, list)])
def test_path_counts_are_a_range_up_to_the_cap(target, counts):
    # An fpp path has one point per site; one past the cap is cut down to
    # the cap, its last point kept.
    cfg = ClusterProcessConfig(growth="fpp", dim=2, target_count=target, seed=36)
    (tr,) = run_cluster_process(cfg)
    assert len(tr.path_times) == len(tr.path_counts) == _PATH_POINTS
    assert type(tr.path_counts) is counts
    assert (tr.path_times[-1], tr.path_counts[-1]) == (tr.hitting_time, target)
    assert (tr.path_times[0], tr.path_counts[0]) == (0.0, 1)


# Bytes a held fpp trace may cost per point of its count path, fixed before
# the first run: a slot of the times' array('d') takes 8 B, where a float
# and its list slot took 32 B and the (time, count) tuples the path was
# before took about 120 B.
BYTES_PER_PATH_POINT = 12


def test_held_traces_cost_at_most_12_bytes_per_path_point():
    cfg = ClusterProcessConfig(growth="fpp", dim=2, target_count=4096, seed=37)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traces = list(run_cluster_process(cfg, 20))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    points = sum(len(tr.path_times) for tr in traces)
    print(f"20 fpp traces (d=2, target 4096): {held / points:.1f} B per path point")
    assert points == 20 * 4096
    assert held <= BYTES_PER_PATH_POINT * points


# Lattice configs whose sites the old fixed 21-bit width packed without
# aliasing; max_time cuts off runs 3 and 4 of the d = 3 one
PACKED = {
    "fpp-d1": dict(growth="fpp", dim=1, target_count=3000, seed=51),
    "fpp-d2": dict(growth="fpp", dim=2, target_count=3000, beta=0.4, seed=52),
    "fpp-d3": dict(growth="fpp", dim=3, target_count=3000, max_time=3.0, seed=53),
    "diagonal": dict(growth="diagonal", target_count=900, occupancy=3, mu_eff=0.3, seed=54),
}


def trace_values(traces):
    return [
        (list(tr.path_times), list(tr.path_counts), tr.hitting_time, tr.events,
         tr.cluster_birth_times)
        for tr in traces
    ]


@pytest.mark.parametrize("name", PACKED)
def test_packing_width_does_not_change_a_run(name, monkeypatch):
    # Which edge fires depends on the edge list's order, never on the site
    # values, so the target-sized width gives the traces of the old 21 bits.
    cfg = ClusterProcessConfig(**PACKED[name])
    default = trace_values(run_cluster_process(cfg, 6))
    assert dominators._axis_bits(cfg.target_count) < 21
    monkeypatch.setattr(dominators, "_axis_bits", lambda sites: 21)
    assert trace_values(run_cluster_process(cfg, 6)) == default


def unpack(site, bits, dim):
    return [(site >> (bits * a)) & ((1 << bits) - 1) for a in range(dim)]


@pytest.mark.parametrize("target", [1, 2, 3, 4, 7, 8, 4096, 9000, 2**20, 2**21 + 3])
@pytest.mark.parametrize("steps", ["axes-1", "axes-2", "axes-3", "diagonal"])
def test_straight_runs_keep_distinct_codes(steps, target):
    # A run of `target` sites from the origin along any step, in either
    # direction, and the run's next site keep every axis in its own field:
    # the codes decode to the coordinates, so no two sites share a code.
    # The old fixed 21 bits carried across axes from 2^20 sites on.
    steps = dominators._DIAGONAL_STEPS if steps == "diagonal" else (
        dominators._axis_steps(int(steps[-1]))
    )
    deltas, origin = dominators._lattice(steps, target)
    bits, dim = dominators._axis_bits(target), len(steps[0])
    half = unpack(origin, bits, dim)
    assert half == [1 << (bits - 1)] * dim
    codes = set()
    for step, delta in zip(steps, deltas):
        for k in (1, target - 1, target) if target > 64 else range(1, target + 1):
            site = origin + k * delta
            assert unpack(site, bits, dim) == [h + k * x for h, x in zip(half, step)]
            assert site < 1 << (bits * dim)
            codes.add(site)
    # distinct across steps: the decoded coordinates differ
    assert len(codes) == len(steps) * (3 if target > 64 else target)


# ---------------------------------------------------------------------------
# Forked batches of the bounding processes: the same values on any number
# of processes
# ---------------------------------------------------------------------------

LINE = ClusterProcessConfig(growth="line", target_count=200, seed=41)
FPP = ClusterProcessConfig(growth="fpp", dim=2, target_count=100, seed=42)
# A diagonal sweep of 3 sizes: a batch of 31 replicates per size
SWEEP = analytics.ExperimentPlan(
    sizes=(64, 128, 256), process="diagonal_grid_clusters", replicates=31, seed=43
)


def plan_rows():
    rep = analytics.run_plan(SWEEP)
    return rep.rows, rep.fits["none"]


def two_phase(mode):
    g = graphs.gen_ring(60)
    return lambda: two_phase_process(g, graphs.partition_ring(g), 1.0, mode, 44, 31)


# caller -> (its batch, the children it forks on 3 CPUs); 31 replicates
# split unevenly into 3 ranges
FORK_CALLERS = {
    "line": (lambda: sample_hits(LINE, 31), 2),
    "fpp": (lambda: sample_hits(FPP, 31), 2),
    "plan": (plan_rows, 2 * len(SWEEP.sizes)),
    "two_phase-homogeneous": (two_phase("homogeneous"), 2),
    "two_phase-sequential": (two_phase("sequential"), 2),
    "chain": (lambda: conductance_chain(40, 0.5, 44, 31), 2),
}


@pytest.mark.parametrize("caller", FORK_CALLERS)
def test_forked_hitting_times_equal_in_process(caller, monkeypatch):
    batch, children = FORK_CALLERS[caller]
    monkeypatch.setattr(rng, "_FORK_RANGE_WORK", 1)
    forks = count_forks(monkeypatch, 3)
    forked = batch()
    assert len(forks) == children
    assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert batch() == forked
    assert len(forks) == children


@pytest.mark.parametrize("cfg", [LINE, FPP], ids=["line", "fpp"])
def test_hitting_times_are_the_traces_hitting_times(cfg):
    times, events = sample_hits(cfg, 31)
    traces = list(run_cluster_process(cfg, 31))
    assert times == [tr.hitting_time for tr in traces] == sample_hitting_times(cfg, 31)
    assert events == [tr.events for tr in traces]


# growth -> a config whose max_time cuts runs 14, 15, 18 and 27 (line) or
# 10, 12 and 23 (fpp) of 30: the first in the second of 3 ranges (10-19),
# another in the third
CUT_RUNS = {
    "line": (dict(growth="line", target_count=200, max_time=16.5, seed=45), 14),
    "fpp": (dict(growth="fpp", dim=2, target_count=100, max_time=3.2, seed=42), 10),
}


@pytest.mark.parametrize("growth", CUT_RUNS)
def test_sample_hits_reports_a_cut_run_as_none(growth):
    kwargs, _ = CUT_RUNS[growth]
    cfg = ClusterProcessConfig(**kwargs)
    times, events = sample_hits(cfg, 30)
    traces = list(run_cluster_process(cfg, 30))
    assert None in times
    assert times == [tr.hitting_time for tr in traces]
    assert events == [tr.events for tr in traces]


@pytest.mark.parametrize("growth", CUT_RUNS)
def test_forked_hitting_times_raise_the_earliest_ranges_error(growth, monkeypatch):
    kwargs, first_cut = CUT_RUNS[growth]
    cfg = ClusterProcessConfig(**kwargs)
    cut = [k for k, tr in enumerate(run_cluster_process(cfg, 30)) if tr.hitting_time is None]
    assert cut[0] == first_cut and cut[-1] >= 20
    monkeypatch.setattr(rng, "_FORK_RANGE_WORK", 1)
    forks = count_forks(monkeypatch, 3)
    with pytest.raises(InvalidParameterError, match=f"^cluster run {first_cut} hit max_time"):
        sample_hitting_times(cfg, 30)
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("caller", FORK_CALLERS)
@pytest.mark.parametrize("around", OBSERVERS)
def test_hitting_times_stay_in_process_when_observed_or_threaded(around, caller, monkeypatch):
    batch, _ = FORK_CALLERS[caller]
    monkeypatch.setattr(rng, "_FORK_RANGE_WORK", 1)
    forks = count_forks(monkeypatch, 3)
    got = []
    around(lambda: got.append(batch()))
    assert not forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert got == [batch()]


@pytest.mark.parametrize("caller", FORK_CALLERS)
@pytest.mark.parametrize("fails", LIMITS)
def test_hitting_times_run_in_process_when_no_process_can_be_had(fails, caller, monkeypatch):
    batch, children = FORK_CALLERS[caller]
    monkeypatch.setattr(rng, "_FORK_RANGE_WORK", 1)
    forks = count_forks(monkeypatch, 3)
    refuse(monkeypatch, fails)
    fds = open_fds()
    got = batch()
    # only the second fork fails on a limit to forks, every one to pipes
    assert len(forks) == (children - 1 if fails == "second-fork" else 0)
    assert_no_child_left()
    assert open_fds() == fds
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert got == batch()


def test_forked_two_phase_raises_the_unreachable_node(monkeypatch):
    # Piece {0, 1, 2} of the broken ring is disconnected from every seed a
    # homogeneous run draws, so every range fails, and the batch raises
    # replicate 0's error.
    g = dataclasses.replace(graphs.gen_custom(9, BROKEN_RING_EDGES), family="ring")
    part = graphs.partition_ring(g)
    monkeypatch.setattr(rng, "_FORK_RANGE_WORK", 1)
    forks = count_forks(monkeypatch, 3)
    with pytest.raises(ConnectivityError) as forked:
        two_phase_process(g, part, 1.0, "homogeneous", seed=1, replicates=31)
    assert len(forks) == 2
    assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(ConnectivityError) as in_process:
        two_phase_process(g, part, 1.0, "homogeneous", seed=1, replicates=31)
    assert forked.value.unreachable in (0, 2)
    assert forked.value.unreachable == in_process.value.unreachable
    assert str(forked.value) == str(in_process.value)


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
    assert (tr.path_times[0], tr.path_counts[0]) == (0.0, 1)
    counts = list(tr.path_counts)
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
    assert (tr.path_times[0], tr.path_counts[0]) == (0.0, 5)
    # 6 occupied sites reach 30 points
    assert tr.path_counts[-1] == 30
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
    assert rep.fits["none"].ci_low <= ref <= rep.fits["none"].ci_high
