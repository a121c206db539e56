"""Engine exactness, determinism, guards, and the coupling property."""

import math

import numpy as np
import pytest
from scipy import stats

from agentspread import engine, graphs, policies
from agentspread.engine import EngineConfig, finish_times, mean_finish_time
from agentspread.errors import (
    InvalidParameterError,
    NonTerminationError,
    PolicyContractError,
)

from oracles import (
    ctmc_expected_finish,
    draw_edge_times,
    fpp_relax,
    percolation_finish_times,
)


def batch_mean(g, policy, seed, replicates, beta=1.0):
    cfg = EngineConfig(beta=beta, seed=seed)
    return mean_finish_time(engine.simulate_batch(g, policy, cfg, replicates))


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
    assert a == b


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
