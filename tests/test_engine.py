"""Engine exactness, determinism, guards, and the coupling property."""

import dataclasses
import math
import os
import pickle
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from agentspread import engine, graphs, policies, rng
from agentspread.engine import EngineConfig, finish_times
from agentspread.errors import (
    InvalidParameterError,
    NonTerminationError,
    PolicyContractError,
)
from agentspread.rng import CH_ENGINE, substream

from forking import (
    LIMITS,
    OBSERVERS,
    assert_no_child_left,
    count_forks,
    open_fds,
    refuse,
)
from oracles import (
    ctmc_expected_finish,
    draw_edge_times,
    fpp_relax,
    percolation_finish_times,
    reference_run,
    reference_simulate,
)


def batch_mean(g, policy, seed, replicates, beta=1.0):
    cfg = EngineConfig(beta=beta, seed=seed)
    return statistics.fmean(finish_times(engine.simulate_batch(g, policy, cfg, replicates)))


# ---------------------------------------------------------------------------
# Closed forms (light replication; the acceptance suite runs these at 1e5)
# ---------------------------------------------------------------------------


def test_two_node_mean():
    g = graphs.gen_custom(2, [(0, 1)])
    m = batch_mean(g, policies.NullPolicy(), seed=1, replicates=20000)
    assert m == pytest.approx(1.0, rel=0.03)


def test_path3_mean():
    g = graphs.gen_line(3)
    m = batch_mean(g, policies.NullPolicy(), seed=2, replicates=20000)
    assert m == pytest.approx(2.0, rel=0.03)


def test_star_mean_is_harmonic():
    g = graphs.gen_custom(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    m = batch_mean(g, policies.NullPolicy(), seed=3, replicates=20000)
    assert m == pytest.approx(25 / 12, rel=0.03)


def test_beta_scales_time():
    g = graphs.gen_line(3)
    m = batch_mean(g, policies.NullPolicy(), seed=4, replicates=20000, beta=2.0)
    assert m == pytest.approx(1.0, rel=0.03)


# ---------------------------------------------------------------------------
# Exactness against the phase-type oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "edges,n",
    [
        ([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 5),  # 5-cycle
        ([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)], 6),  # triangle + tail
    ],
)
def test_engine_matches_ctmc(edges, n):
    g = graphs.gen_custom(n, edges)
    adj = [list(a) for a in g.adjacency]
    for policy, ext in [
        (policies.NullPolicy(), None),
        (policies.RandomHomogeneous(1.0), [1.0 / n] * n),
    ]:
        want = ctmc_expected_finish(adj, external=ext)
        got = batch_mean(g, policy, seed=11, replicates=30000)
        assert got == pytest.approx(want, rel=0.025)


def test_engine_distribution_matches_percolation_oracle():
    # Constant-rate SI equals first-passage percolation with source clocks;
    # two-sample KS between the engine and the Dijkstra oracle.
    g = graphs.gen_custom(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3), (1, 4)])
    adj = [list(a) for a in g.adjacency]
    ext = [0.3] * 6
    cfg = EngineConfig(seed=17)

    class ConstRates(policies.Policy):
        l_max = sum(ext)

        def rate_of(self, node, state):
            return ext[node]

    mine = finish_times(engine.simulate_batch(g, ConstRates(), cfg, 4000))
    ref = percolation_finish_times(adj, 4000, seed=29, external=ext)
    d, p = stats.ks_2samp(mine, ref)
    assert p > 0.01


# ---------------------------------------------------------------------------
# Trace structure and determinism
# ---------------------------------------------------------------------------


def test_trace_monotone_one_infection_per_event():
    g = graphs.gen_ring(32)
    trace = engine.simulate(g, policies.RandomHomogeneous(1.0), EngineConfig(seed=5))
    assert len(trace.events) == 32
    times = [t for t, _, _ in trace.events]
    assert times == sorted(times)
    nodes = [v for _, v, _ in trace.events]
    assert len(set(nodes)) == 32
    assert trace.events[0][2] == "seed"
    assert trace.finish_time == times[-1]


def test_batch_deterministic():
    g = graphs.gen_ring(16)
    cfg = EngineConfig(seed=9)
    a = engine.simulate_batch(g, policies.RandomHomogeneous(1.0), cfg, 50)
    b = engine.simulate_batch(g, policies.RandomHomogeneous(1.0), cfg, 50)
    assert list(a) == list(b)


def test_single_run_is_batch_stream_zero():
    g = graphs.gen_ring(16)
    cfg = EngineConfig(seed=9)
    t = engine.simulate(g, policies.RandomHomogeneous(1.0), cfg)
    b = engine.simulate_batch(g, policies.RandomHomogeneous(1.0), cfg, 1)
    assert b[0].finish_time == t.finish_time
    assert b[0].events == len(t.events)


def test_batch_self_consistency():
    g = graphs.gen_ring(64)
    m1 = batch_mean(g, policies.RandomHomogeneous(1.0), seed=100, replicates=200)
    cfg = EngineConfig(seed=200)
    other = finish_times(
        engine.simulate_batch(g, policies.RandomHomogeneous(1.0), cfg, 200)
    )
    se = np.std(other, ddof=1) / math.sqrt(len(other))
    assert abs(m1 - np.mean(other)) <= 3 * se


# ---------------------------------------------------------------------------
# Against the reference loop (every edge clock queued)
# ---------------------------------------------------------------------------


@st.composite
def oracle_runs(draw):
    shape = draw(st.sampled_from(["random", "ring", "grid"]))
    if shape == "random":
        # a random tree, relabelled, plus random chords: connected, n <= 12
        n = draw(st.integers(1, 12))
        label = draw(st.permutations(range(n)))
        edges = [(label[draw(st.integers(0, i - 1))], label[i]) for i in range(1, n)]
        node = st.integers(0, n - 1)
        edges += draw(st.lists(st.tuples(node, node), max_size=n))
        g = graphs.gen_custom(n, [(u, v) for u, v in edges if u != v])
    elif shape == "ring":
        g = graphs.gen_ring(draw(st.integers(3, 12)))
    else:
        g = graphs.make_graph("grid", draw(st.sampled_from([4, 9, 16])), 2)
    kinds = [
        "null",
        "random_homogeneous",
        "static_links",
        "dynamic_links",  # rewire_rate 0 or > 0
        "mobile_agents",
        "greedy_frontier_adversary",
    ] + (["gsi"] if shape != "random" else [])  # gsi needs a canonical partition
    node = st.integers(0, g.n - 1)
    rate = st.floats(0.1, 4.0)
    spec = policies.PolicySpec(
        kind=draw(st.sampled_from(kinds)),
        L=draw(rate),
        links=tuple(draw(st.lists(st.tuples(node, node), min_size=1, max_size=3))),
        beta_link=draw(rate),
        count=draw(st.integers(1, 3)),
        rewire_rate=draw(st.sampled_from([0.0, 0.5, 2.0])),
        agents=draw(st.integers(1, 3)),
        rate_per_agent=draw(rate),
        seed=draw(st.integers(0, 2**32)),
    )
    cfg = EngineConfig(
        beta=draw(st.floats(0.2, 3.0)),
        initial_infected=draw(node),
        max_time=draw(st.none() | st.floats(0.0, 4.0)),
        seed=draw(st.integers(0, 2**63)),
    )
    return g, spec, cfg, draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(oracle_runs())
def test_engine_trace_equals_reference_loop(run):
    g, spec, cfg, replicate = run
    trace = engine.simulate(g, policies.build_policy(spec, g), cfg, replicate)
    events, finish = reference_simulate(g, policies.build_policy(spec, g), cfg, replicate)
    assert trace.events == events
    assert trace.finish_time == finish


def reference_batch(g, spec, cfg, replicates):
    """``simulate_batch`` on the reference loop: one handle, a fresh
    substream per replicate."""
    policy = policies.build_policy(spec, g)
    out = []
    for k in range(replicates):
        rng = substream(cfg.seed, k, CH_ENGINE)
        state, _, finish = reference_run(g, policy, cfg, k, False, rng)
        out.append(engine.RunSummary(finish, state.infected_count))
    return out


BATCH_KINDS = [
    "null", "random_homogeneous", "gsi", "static_links", "dynamic_links", "mobile_agents",
    "greedy_frontier_adversary",
]


@pytest.mark.parametrize("kind", BATCH_KINDS)
@pytest.mark.parametrize("max_time", [None, 1.5])
def test_batch_summaries_equal_reference_loop(kind, max_time):
    # Every replicate of a batch, not only the one ``simulate`` runs, sees
    # the reference loop's stream and a freshly reset handle.
    g = graphs.gen_ring(16)
    spec = policies.PolicySpec(
        kind=kind, L=1.5, links=((0, 8), (3, 11)), count=2, rewire_rate=0.5, agents=2, seed=4
    )
    cfg = EngineConfig(beta=0.7, initial_infected=5, max_time=max_time, seed=23)
    got = engine.simulate_batch(g, policies.build_policy(spec, g), cfg, 25)
    assert list(got) == reference_batch(g, spec, cfg, 25)


STAR = graphs.gen_custom(200, [(0, leaf) for leaf in range(1, 200)])


@pytest.mark.parametrize("L", [0.1, 1.0, 50.0])
@pytest.mark.parametrize("seed_node", [0, 7])
def test_star_equals_reference_loop(L, seed_node):
    # Seeded at the centre, a run draws 199 edge clocks at once, so the
    # exponential sampler fills its second block before the first uniform
    # draw: the uniform's first block must still come off the stream where
    # an eagerly built sampler's would.
    spec = policies.PolicySpec(kind="random_homogeneous", L=L)
    cfg = EngineConfig(initial_infected=seed_node, seed=31)
    trace = engine.simulate(STAR, policies.build_policy(spec), cfg, 3)
    assert (trace.events, trace.finish_time) == reference_simulate(
        STAR, policies.build_policy(spec), cfg, 3
    )
    got = engine.simulate_batch(STAR, policies.build_policy(spec), cfg, 12)
    assert list(got) == reference_batch(STAR, spec, cfg, 12)


def test_run_summary_is_immutable():
    (s,) = engine.simulate_batch(graphs.gen_ring(8), policies.NullPolicy(), EngineConfig(seed=2), 1)
    with pytest.raises(AttributeError):
        s.finish_time = 0.0


# ---------------------------------------------------------------------------
# RunBatch: two columns read as a sequence of RunSummary records
# ---------------------------------------------------------------------------


def cut_batch():
    """Ring 16 under random_homogeneous, cut at max_time 4.5: some runs
    finish and some do not; with the reference loop's summaries."""
    spec = policies.PolicySpec(kind="random_homogeneous", L=1.5)
    g = graphs.gen_ring(16)
    cfg = EngineConfig(beta=0.7, initial_infected=5, max_time=4.5, seed=23)
    return engine.simulate_batch(g, policies.build_policy(spec), cfg, 40), reference_batch(
        g, spec, cfg, 40
    )


def test_run_batch_items_iteration_and_slices_equal_reference_loop():
    batch, want = cut_batch()
    assert len(batch) == len(want) == 40
    assert [batch[k] for k in range(40)] == want
    assert [batch[k] for k in range(-40, 0)] == want
    assert list(batch) == want
    for cut in (slice(None), slice(1, None), slice(3, 31, 4), slice(None, None, -1), slice(50, 60)):
        got = batch[cut]
        assert type(got) is list and got == want[cut]
    with pytest.raises(IndexError):
        batch[40]


def test_run_batch_reads_a_cut_run_as_none():
    batch, want = cut_batch()
    cut = [k for k, s in enumerate(want) if s.finish_time is None]
    assert 0 < len(cut) < 40  # both kinds of run are in the batch
    assert [k for k, t in enumerate(batch.times) if math.isnan(t)] == cut
    assert all(batch[k].finish_time is None and batch[k].events < 16 for k in cut)
    assert finish_times(batch) == [s.finish_time for s in want if s.finish_time is not None]


def test_run_batch_survives_a_pickle_round_trip():
    batch, want = cut_batch()
    back = pickle.loads(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
    assert type(back) is engine.RunBatch
    assert back.times.tobytes() == batch.times.tobytes()  # NaN included
    assert list(back) == list(batch) == want


def test_run_batch_item_takes_dataclasses_replace():
    batch, _ = cut_batch()
    cut = dataclasses.replace(batch[0], finish_time=None)
    assert cut == engine.RunSummary(None, batch[0].events)
    assert [cut] + batch[1:] == [cut] + list(batch)[1:]


def test_held_batch_costs_at_most_24_bytes_per_replicate():
    # Two 8-byte columns; no object is held per run. A first batch loads
    # what a batch imports, which is not the batch's to hold.
    g, reps = graphs.gen_line(2), 10_000
    engine.simulate_batch(g, policies.NullPolicy(), EngineConfig(seed=5), 1)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        batch = engine.simulate_batch(g, policies.NullPolicy(), EngineConfig(seed=5), reps)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(d.size_diff for d in after.compare_to(before, "filename"))
    assert len(batch) == reps
    assert held / reps <= 24


# ---------------------------------------------------------------------------
# Forked batches: the same summaries on any number of processes
# ---------------------------------------------------------------------------


FORK_RING = graphs.gen_ring(256)
# Just enough replicates on FORK_RING to fork on three processes, and not
# a multiple of 3, so their ranges are uneven.
FORK_REPLICATES = 3 * rng._FORK_RANGE_WORK // 256 + 1


@pytest.mark.parametrize("kind", BATCH_KINDS)
def test_forked_batch_equals_in_process_batch_and_reference_loop(kind, monkeypatch):
    spec = policies.PolicySpec(
        kind=kind, L=1.5, links=((0, 128), (3, 77)), count=2, rewire_rate=0.5, agents=3, seed=4
    )
    cfg = EngineConfig(beta=0.7, initial_infected=5, seed=29)
    forks = count_forks(monkeypatch, 3)
    forked = engine.simulate_batch(FORK_RING, policies.build_policy(spec, FORK_RING), cfg,
                                   FORK_REPLICATES)
    assert FORK_REPLICATES % 3 and len(forks) == 2
    assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    in_process = engine.simulate_batch(FORK_RING, policies.build_policy(spec, FORK_RING), cfg,
                                       FORK_REPLICATES)
    assert len(forks) == 2
    assert list(forked) == list(in_process)
    assert list(forked) == reference_batch(FORK_RING, spec, cfg, FORK_REPLICATES)


class RefusesReplicates(policies.RandomHomogeneous):
    """Raises from ``reset`` on the replicates in ``refused``; a run of
    ``dies_at`` ends its process, unless that is the test's own."""

    def __init__(self, refused=(), dies_at=None):
        super().__init__(1.0)
        self.refused = refused
        self.dies_at = dies_at
        self.test_pid = os.getpid()

    def reset(self, graph, state, replicate):
        if replicate == self.dies_at and os.getpid() != self.test_pid:
            os._exit(3)
        if replicate in self.refused:
            raise PolicyContractError(f"replicate {replicate} refused")
        super().reset(graph, state, replicate)


@pytest.mark.parametrize(
    "refused,raised",
    [((25,), 25), ((15, 25), 15), ((5, 25), 5), ((), None)],
    ids=["last-child", "earliest-child-wins", "own-range-first", "none"],
)
def test_forked_batch_raises_the_earliest_ranges_error(refused, raised, monkeypatch):
    # 30 replicates on three processes: ranges 0-9 (this one), 10-19, 20-29.
    monkeypatch.setattr(rng, "_FORK_RANGE_WORK", 1)
    forks = count_forks(monkeypatch, 3)
    g, cfg = graphs.gen_ring(16), EngineConfig(seed=3)
    if raised is None:
        got = engine.simulate_batch(g, RefusesReplicates(), cfg, 30)
        spec = policies.PolicySpec(kind="random_homogeneous", L=1.0)
        assert list(got) == reference_batch(g, spec, cfg, 30)
    else:
        with pytest.raises(PolicyContractError, match=f"^replicate {raised} refused$"):
            engine.simulate_batch(g, RefusesReplicates(refused), cfg, 30)
    assert len(forks) == 2
    assert_no_child_left()


def test_forked_batch_reports_a_dead_child(monkeypatch):
    monkeypatch.setattr(rng, "_FORK_RANGE_WORK", 1)
    forks = count_forks(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="replicates from 20 died"):
        engine.simulate_batch(graphs.gen_ring(16), RefusesReplicates(dies_at=22),
                              EngineConfig(seed=3), 30)
    assert len(forks) == 2
    assert_no_child_left()


def test_forked_batch_reports_an_error_pickle_cannot_send(monkeypatch):
    class LocalError(Exception):  # pickle finds no class by this name
        pass

    class Raises(policies.RandomHomogeneous):
        def reset(self, graph, state, replicate):
            if replicate == 25:
                raise LocalError("replicate 25 refused")
            super().reset(graph, state, replicate)

    monkeypatch.setattr(rng, "_FORK_RANGE_WORK", 1)
    count_forks(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="^LocalError: replicate 25 refused$"):
        engine.simulate_batch(graphs.gen_ring(16), Raises(1.0), EngineConfig(seed=3), 30)
    assert_no_child_left()


class CountsResets(policies.RandomHomogeneous):
    def __init__(self):
        super().__init__(1.0)
        self.resets = 0

    def reset(self, graph, state, replicate):
        self.resets += 1
        super().reset(graph, state, replicate)


@pytest.mark.parametrize("around", OBSERVERS)
def test_batch_stays_in_process_when_observed_or_threaded(around, monkeypatch):
    # A profiler, a tracer or a policy wrapper in this process sees every
    # run; forking under a second thread is unsafe.
    monkeypatch.setattr(rng, "_FORK_RANGE_WORK", 1)
    forks = count_forks(monkeypatch, 3)
    policy = CountsResets()
    around(lambda: engine.simulate_batch(graphs.gen_ring(16), policy, EngineConfig(seed=3), 30))
    assert policy.resets == 30 and not forks


@pytest.mark.parametrize(
    "replicates,n,workers",
    [(128, 256, 2), (127, 256, 1), (191, 256, 2), (192, 256, 3), (1, 1 << 20, 1),
     (10, 1 << 20, 10), (4096, 1024, 64)],
)
def test_every_range_gets_the_measured_work(replicates, n, workers, monkeypatch):
    # However many CPUs there are, a forked range holds at least the
    # node-replicates that were measured to win back a fork.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert rng._workers(replicates, replicates * n) == workers
    if workers > 1:
        assert replicates * n // workers >= rng._FORK_RANGE_WORK


@pytest.mark.parametrize("fails", LIMITS)
def test_batch_runs_in_process_when_no_process_can_be_had(fails, monkeypatch):
    # A process or descriptor limit costs the batch its speed-up, not its
    # result: the children already forked are killed and every range runs
    # here.
    monkeypatch.setattr(rng, "_FORK_RANGE_WORK", 1)
    forks = count_forks(monkeypatch, 3)
    refuse(monkeypatch, fails)
    g, cfg = graphs.gen_ring(16), EngineConfig(seed=3)
    fds = open_fds()
    policy = CountsResets()
    got = engine.simulate_batch(g, policy, cfg, 30)
    assert len(forks) == (fails == "second-fork")
    assert_no_child_left()
    assert open_fds() == fds
    assert policy.resets == 30
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert list(got) == list(engine.simulate_batch(g, CountsResets(), cfg, 30))


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


def test_disconnected_null_policy_guard():
    g = graphs.gen_custom(4, [(0, 1), (2, 3)])
    with pytest.raises(NonTerminationError):
        engine.simulate(g, policies.NullPolicy(), EngineConfig(seed=1))


def test_disconnected_with_cutoff_returns_partial():
    g = graphs.gen_custom(4, [(0, 1), (2, 3)])
    trace = engine.simulate(g, policies.NullPolicy(), EngineConfig(seed=1, max_time=5.0))
    assert trace.finish_time is None
    assert all(t <= 5.0 for t, _, _ in trace.events)


def test_disconnected_external_rates_finish():
    g = graphs.gen_custom(4, [(0, 1), (2, 3)])
    trace = engine.simulate(g, policies.RandomHomogeneous(1.0), EngineConfig(seed=1))
    assert trace.finish_time is not None


def test_envelope_violation_aborts():
    class Lying(policies.Policy):
        l_max = 0.1

        def rate_of(self, node, state):
            return 1.0

    g = graphs.gen_ring(8)
    with pytest.raises(PolicyContractError):
        engine.simulate(g, Lying(), EngineConfig(seed=1))


def test_event_budget_exhausted():
    class Restless(policies.Policy):
        def rate_of(self, node, state):
            return 0.0

        def internal_rate(self, state):
            return 1.0

        def apply_internal(self, state):
            pass

    g = graphs.gen_custom(4, [(0, 1), (2, 3)])
    with pytest.raises(NonTerminationError, match="event budget"):
        engine.simulate(g, Restless(), EngineConfig(seed=1))


def test_bad_initial_infected():
    g = graphs.gen_ring(8)
    with pytest.raises(InvalidParameterError):
        engine.simulate(g, policies.NullPolicy(), EngineConfig(seed=1, initial_infected=8))


def test_bad_replicates():
    g = graphs.gen_ring(8)
    with pytest.raises(InvalidParameterError):
        engine.simulate_batch(g, policies.NullPolicy(), EngineConfig(seed=1), 0)


@pytest.mark.parametrize("replicate", [-1, 1.5, "2", 2**61])
def test_simulate_refuses_a_bad_replicate(replicate):
    # -1 would run on replicate 2^61 - 1's stream, its index wrapped at 64 bits.
    with pytest.raises(InvalidParameterError, match="replicate"):
        engine.simulate(graphs.gen_ring(8), policies.NullPolicy(), EngineConfig(seed=1), replicate)


def test_simulate_reads_a_whole_float_replicate():
    g, cfg = graphs.gen_ring(8), EngineConfig(seed=1)
    assert engine.simulate(g, policies.NullPolicy(), cfg, 2.0) == engine.simulate(
        g, policies.NullPolicy(), cfg, 2
    )
    engine.simulate(g, policies.NullPolicy(), cfg, 2**61 - 1)  # the last distinct stream


def test_bad_beta():
    with pytest.raises(InvalidParameterError):
        EngineConfig(beta=0.0)


# ---------------------------------------------------------------------------
# Coupling: adding external rate never slows the run on shared clocks
# ---------------------------------------------------------------------------


def test_pointwise_rate_coupling_monotone():
    # Shared intrinsic edge clocks and base external clocks; the enhanced
    # run adds independent extra clocks only (arrival = min of the two),
    # so every node's infection time, and hence T, can only decrease.
    g = graphs.gen_rgg(24, 0.45, seed=31)
    adj = [list(a) for a in g.adjacency]
    rng = np.random.default_rng(77)
    base = [0.2] * g.n
    boost = [0.5] * g.n  # L' - L, pointwise nonnegative
    for _ in range(300):
        edge_time = draw_edge_times(adj, rng)
        src = [0.0] + [rng.exponential(1.0 / r) for r in base[1:]]
        src_hi = [0.0] + [
            min(s, rng.exponential(1.0 / b)) for s, b in zip(src[1:], boost[1:])
        ]
        t_lo = fpp_relax(adj, edge_time, src)
        t_hi = fpp_relax(adj, edge_time, src_hi)
        assert all(h <= l + 1e-12 for h, l in zip(t_hi, t_lo))
        assert max(t_hi) <= max(t_lo) + 1e-12


def test_coupled_engine_runs_extra_rate_not_slower_on_average():
    g = graphs.gen_ring(24)
    low = batch_mean(g, policies.RandomHomogeneous(0.5), seed=41, replicates=3000)
    high = batch_mean(g, policies.RandomHomogeneous(2.0), seed=41, replicates=3000)
    assert high < low


# ---------------------------------------------------------------------------
# Export formats
# ---------------------------------------------------------------------------


def test_trace_csv(tmp_path):
    g = graphs.gen_ring(8)
    trace = engine.simulate(g, policies.NullPolicy(), EngineConfig(seed=2))
    path = tmp_path / "trace.csv"
    engine.write_trace_csv(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "time,node,cause"
    assert len(lines) == 1 + len(trace.events)
    assert lines[1].endswith(",seed")


def test_batch_csv(tmp_path):
    g = graphs.gen_ring(8)
    s = engine.simulate_batch(g, policies.NullPolicy(), EngineConfig(seed=2), 5)
    path = tmp_path / "batch.csv"
    engine.write_batch_csv(s, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "replicate,finish_time,events,seed_stream"
    assert len(lines) == 6
    # replicate k is row k, and its stream index is (k << 3) | CH_ENGINE
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[3]) for r in rows] == [(str(k), str(8 * k)) for k in range(5)]
    assert [r[1] for r in rows] == [f"{t:.17g}" for t in finish_times(s)]
