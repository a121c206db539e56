"""Policy rate contracts, envelopes, and policy-specific behaviours."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentspread import dominators, engine, graphs, policies
from agentspread.engine import EngineConfig, InfectionState, mean_finish_time
from agentspread.errors import InvalidParameterError

from oracles import ctmc_expected_finish


def fresh_state(g, policy, seed_node=0, replicate=0):
    state = InfectionState(g.n)
    policy.reset(g, state, replicate)
    state.infect(seed_node, 0.0)
    policy.on_infect(seed_node, state)
    return state


# ---------------------------------------------------------------------------
# Null / homogeneous
# ---------------------------------------------------------------------------


def test_null_policy_rates():
    g = graphs.gen_ring(6)
    p = policies.NullPolicy()
    state = fresh_state(g, p)
    assert all(p.rate_of(v, state) == 0.0 for v in range(6))
    assert (p.l_min, p.l_max) == (0.0, 0.0)


def test_homogeneous_per_node_rate():
    g = graphs.gen_ring(4)
    p = policies.RandomHomogeneous(1.0)
    state = fresh_state(g, p)
    assert all(p.rate_of(v, state) == pytest.approx(0.25) for v in range(4))
    assert p.total_rate(state) == pytest.approx(1.0)


def test_homogeneous_healthy_aggregate():
    # A fully healthy s-node subgraph receives aggregate rate L*s/n.
    g = graphs.gen_ring(16)
    p = policies.RandomHomogeneous(2.0)
    state = fresh_state(g, p)
    piece = range(4, 8)
    agg = sum(p.rate_of(v, state) for v in piece)
    assert agg == pytest.approx(2.0 * 4 / 16)


def test_homogeneous_rejects_bad_l():
    with pytest.raises(InvalidParameterError):
        policies.RandomHomogeneous(0.0)


# ---------------------------------------------------------------------------
# GSI
# ---------------------------------------------------------------------------


def test_gsi_initial_support_in_empty_piece():
    g = graphs.gen_ring(16)
    part = graphs.partition_ring(g)
    p = policies.GsiPolicy(part, 1.0)
    state = fresh_state(g, p)  # node 0 infected, piece 0
    target = p.sample_target(state, _unit_sampler())
    assert target == 4  # lowest-id healthy node of the lowest-index empty piece
    assert p.rate_of(target, state) == 1.0
    assert p.rate_of(5, state) == 0.0


def _unit_sampler():
    class S:
        def draw(self):
            return 0.0

    return S()


def test_gsi_support_set_property_replay():
    # Recomputable from the trace: every external event lands on a piece
    # minimizing the infected count among pieces with healthy nodes left.
    g = graphs.gen_ring(64)
    part = graphs.partition_ring(g)
    trace = engine.simulate(g, policies.GsiPolicy(part, 1.0), EngineConfig(seed=13))
    piece_of = part.piece_of(g.n)
    counts = [0] * part.g
    healthy = list(part.piece_sizes)
    for _, node, cause in trace.events:
        if cause == "external":
            eligible = [counts[i] for i in range(part.g) if healthy[i] > 0]
            assert counts[piece_of[node]] == min(eligible)
        counts[piece_of[node]] += 1
        healthy[piece_of[node]] -= 1
    assert trace.finish_time is not None


def test_gsi_partition_mismatch():
    part = graphs.partition_ring(graphs.gen_ring(16))
    p = policies.GsiPolicy(part, 1.0)
    with pytest.raises(InvalidParameterError):
        p.reset(graphs.gen_ring(32), InfectionState(32), 0)


# ---------------------------------------------------------------------------
# Static / dynamic links
# ---------------------------------------------------------------------------


def test_static_link_rates():
    g = graphs.gen_line(6)
    p = policies.StaticLinks([(0, 4)], beta_link=0.7)
    state = fresh_state(g, p)  # node 0 infected
    assert p.rate_of(4, state) == pytest.approx(0.7)
    assert sum(p.rate_of(v, state) for v in range(6)) == pytest.approx(0.7)


def test_static_link_dead_when_both_infected():
    g = graphs.gen_line(6)
    p = policies.StaticLinks([(0, 1)], beta_link=1.0)
    state = fresh_state(g, p)
    state.infect(1, 0.5)
    p.on_infect(1, state)
    assert p.healthy_rate(state) == 0.0


def test_static_links_mean_matches_extra_edge_ctmc():
    # Simulating the link policy equals SI on the graph with the edge added.
    base = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    g = graphs.gen_line(6)
    p = policies.StaticLinks([(0, 5)], beta_link=1.0)
    got = mean_finish_time(
        engine.simulate_batch(g, p, EngineConfig(seed=23), 30000)
    )
    g_aug = graphs.gen_custom(6, base + [(0, 5)])
    want = ctmc_expected_finish([list(a) for a in g_aug.adjacency])
    assert got == pytest.approx(want, rel=0.025)


def test_dynamic_zero_rewire_bit_identical_to_static():
    g = graphs.gen_ring(24)
    dyn = policies.DynamicLinks(count=3, beta_link=1.0, rewire_rate=0.0, seed=5)
    cfg = EngineConfig(seed=14)
    t_dyn = engine.simulate(g, dyn, cfg)
    stat = policies.StaticLinks(dyn.links, beta_link=1.0)
    t_stat = engine.simulate(g, stat, cfg)
    assert t_dyn.events == t_stat.events


def test_dynamic_envelope_declared():
    p = policies.DynamicLinks(count=5, beta_link=1.0, rewire_rate=0.2, seed=1)
    assert p.l_max == 5.0


def test_dynamic_rewire_changes_links():
    g = graphs.gen_ring(12)
    p = policies.DynamicLinks(count=2, beta_link=1.0, rewire_rate=1.0, seed=3)
    state = fresh_state(g, p)
    before = p.links
    assert p.internal_rate(state) == pytest.approx(2.0)
    for _ in range(8):
        p.apply_internal(state)
    assert p.links != before


# ---------------------------------------------------------------------------
# Mobile agents
# ---------------------------------------------------------------------------


def test_mobile_two_node_closed_form():
    # 4-state chain: agent starts uniformly on {0,1}; on the infected node
    # only the edge clock runs (E=1), on the healthy node both race
    # (E=1/2); grand mean 0.75.
    g = graphs.gen_custom(2, [(0, 1)])
    p = policies.MobileAgents(1, 1.0, seed=6)
    m = mean_finish_time(engine.simulate_batch(g, p, EngineConfig(seed=15), 30000))
    assert m == pytest.approx(0.75, rel=0.03)


def test_mobile_envelope_and_jump():
    g = graphs.gen_ring(10)
    p = policies.MobileAgents(3, 0.5, seed=9)
    assert p.l_max == pytest.approx(1.5)
    state = fresh_state(g, p)
    assert p.total_rate(state) <= 1.5 + 1e-12
    # force-jump: infect the agents' nodes and check they land on healthy ones
    for node in list(p._pos):
        if not state.infected[node]:
            state.infect(node, 1.0)
            p.on_infect(node, state)
    assert all(not state.infected[q] for q in p._pos)


def test_mobile_rejects_unknown_mobility():
    with pytest.raises(InvalidParameterError):
        policies.MobileAgents(1, 1.0, mobility="teleport_swarm")


def test_dynamic_links_grid_scaling_cube_root():
    # Rewiring links do not beat the cube-root growth order on 2-d grids.
    from agentspread.analytics import exponent_fit

    means = []
    ns = (256, 1024, 4096)
    for i, n in enumerate(ns):
        g = graphs.gen_grid(n, 2)
        p = policies.DynamicLinks(count=4, beta_link=1.0, rewire_rate=0.5, seed=31)
        means.append(
            mean_finish_time(engine.simulate_batch(g, p, EngineConfig(seed=600 + i), 60))
        )
    fit = exponent_fit(list(zip(ns, means)))
    assert fit.slope > 0.25
    assert all(m >= 0.5 * (n / 4) ** (1 / 3) for m, n in zip(means, ns))


def test_mobile_agent_within_2x_of_random():
    g = graphs.gen_ring(1024)
    m_mob = mean_finish_time(
        engine.simulate_batch(
            g, policies.MobileAgents(1, 1.0, seed=32), EngineConfig(seed=601), 100
        )
    )
    m_rand = mean_finish_time(
        engine.simulate_batch(
            g, policies.RandomHomogeneous(1.0), EngineConfig(seed=602), 100
        )
    )
    assert 0.5 <= m_mob / m_rand <= 2.0


# ---------------------------------------------------------------------------
# Greedy frontier adversary
# ---------------------------------------------------------------------------


def test_adversary_targets_antipode():
    g = graphs.gen_ring(16)
    p = policies.GreedyFrontierAdversary(1.0)
    state = fresh_state(g, p)
    assert p.sample_target(state, _unit_sampler()) == 8


def test_adversary_reaches_disconnected_components():
    # Unreachable healthy nodes count as farthest, so the budget lands
    # there and the run still finishes.
    g = graphs.gen_custom(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    p = policies.GreedyFrontierAdversary(1.0)
    state = fresh_state(g, p)
    assert p.sample_target(state, _unit_sampler()) in (3, 4, 5)
    trace = engine.simulate(g, p, EngineConfig(seed=27))
    assert trace.finish_time is not None


def test_adversary_max_distance_replay():
    g = graphs.gen_ring(24)
    p = policies.GreedyFrontierAdversary(1.0)
    trace = engine.simulate(g, p, EngineConfig(seed=19))
    infected = set()
    for _, node, cause in trace.events:
        if cause == "external":
            dist = _multi_source_distances(g, infected)
            healthy_max = max(d for v, d in dist.items() if v not in infected)
            assert dist[node] == healthy_max
        infected.add(node)
    assert trace.finish_time is not None


def _multi_source_distances(g, sources):
    dist = {v: 0 for v in sources}
    frontier = list(sources)
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# Envelope audit across kinds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda part: policies.RandomHomogeneous(1.0),
        lambda part: policies.GsiPolicy(part, 1.0),
        lambda part: policies.StaticLinks([(0, 9), (3, 12)], 0.5),
        lambda part: policies.DynamicLinks(2, 0.5, 0.5, seed=2),
        lambda part: policies.MobileAgents(2, 0.5, seed=2),
        lambda part: policies.GreedyFrontierAdversary(1.0),
    ],
)
def test_rate_sum_within_envelope_along_run(make):
    g = graphs.gen_ring(16)
    part = graphs.partition_ring(g)
    policy = make(part)
    trace = engine.simulate(g, policy, EngineConfig(seed=8))
    assert trace.finish_time is not None
    # audit the rate_of path directly on a fresh replay of the final state
    state = InfectionState(g.n)
    policy.reset(g, state, 0)
    total = sum(policy.rate_of(v, state) for v in range(g.n))
    assert total <= policy.l_max + 1e-9


def test_min_envelope_while_healthy():
    g = graphs.gen_ring(16)
    part = graphs.partition_ring(g)
    for policy in (policies.RandomHomogeneous(1.0), policies.GsiPolicy(part, 1.0)):
        state = fresh_state(g, policy)
        healthy_sum = sum(policy.rate_of(v, state) for v in state.healthy)
        assert healthy_sum >= policy.l_min * (len(state.healthy) / g.n) - 1e-12


# ---------------------------------------------------------------------------
# Spec construction
# ---------------------------------------------------------------------------


def test_build_policy_all_kinds():
    g = graphs.gen_ring(16)
    for kind in (
        "null",
        "random_homogeneous",
        "gsi",
        "static_links",
        "dynamic_links",
        "mobile_agents",
        "greedy_frontier_adversary",
    ):
        spec = policies.PolicySpec(kind=kind, L=1.0, links=((0, 8),))
        handle = policies.build_policy(spec, g)
        assert handle.kind == kind


def test_build_policy_unknown_kind():
    with pytest.raises(InvalidParameterError):
        policies.build_policy(policies.PolicySpec(kind="oracle"), graphs.gen_ring(8))


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


NON_FINITE = pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)

# One construction per validated rate parameter, each taking the bad value.
RATE_PARAMETERS = {
    "L": lambda v: policies.build_policy(policies.PolicySpec(kind="random_homogeneous", L=v)),
    "L-gsi": lambda v: policies.build_policy(
        policies.PolicySpec(kind="gsi", L=v), graphs.gen_ring(16)
    ),
    "L-adversary": lambda v: policies.GreedyFrontierAdversary(v),
    "beta": lambda v: EngineConfig(beta=v),
    "beta-clusters": lambda v: dominators.ClusterProcessConfig(
        growth="line", target_count=8, beta=v
    ),
    "beta_link": lambda v: policies.StaticLinks([(0, 1)], beta_link=v),
    "beta_link-dynamic": lambda v: policies.DynamicLinks(2, v, 0.0, seed=1),
    "rate_per_agent": lambda v: policies.MobileAgents(1, v),
    "seeding_rate": lambda v: dominators.ClusterProcessConfig(
        growth="line", target_count=8, seeding_rate=v
    ),
    "psi": lambda v: dominators.conductance_chain(4, v, seed=0),
    "rewire_rate": lambda v: policies.DynamicLinks(2, 1.0, abs(v), seed=1),
}


@NON_FINITE
@pytest.mark.parametrize("param", sorted(RATE_PARAMETERS))
def test_non_finite_rate_rejected(param, value):
    with pytest.raises(InvalidParameterError, match=param.split("-")[0]):
        RATE_PARAMETERS[param](value)


@pytest.mark.parametrize("max_time", [math.nan, -1.0])
def test_engine_rejects_bad_max_time(max_time):
    with pytest.raises(InvalidParameterError, match="max_time"):
        EngineConfig(max_time=max_time)


# ---------------------------------------------------------------------------
# Run invariants for every kind, built through build_policy
# ---------------------------------------------------------------------------


KINDS = (
    "null",
    "random_homogeneous",
    "gsi",
    "static_links",
    "dynamic_links",
    "mobile_agents",
    "greedy_frontier_adversary",
)
MIN_SIZE = {"ring": 3, "line": 2, "grid": 4}


@st.composite
def runs(draw):
    family = draw(st.sampled_from(sorted(MIN_SIZE)))
    g = graphs.make_graph(family, draw(st.integers(MIN_SIZE[family], 12)))
    node = st.integers(0, g.n - 1)
    rate = st.floats(0.1, 4.0)
    spec = policies.PolicySpec(
        kind=draw(st.sampled_from(KINDS)),
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
        seed=draw(st.integers(0, 2**63)),
    )
    return g, spec, cfg


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(runs())
def test_every_kind_infects_each_node_once_in_time_order(run):
    g, spec, cfg = run
    handle = policies.build_policy(spec, g)
    trace = engine.simulate(g, handle, cfg)
    times = [t for t, _, _ in trace.events]
    assert sorted(v for _, v, _ in trace.events) == list(range(g.n))
    assert all(a <= b for a, b in zip(times, times[1:]))
    assert trace.events[0] == (0.0, cfg.initial_infected, "seed")
    assert [c for _, _, c in trace.events].count("seed") == 1
    assert trace.finish_time == times[-1]
    assert engine.simulate_batch(g, handle, cfg, 1)[0].finish_time == trace.finish_time
    # a cutoff at an event time or between the last two keeps exactly the
    # events up to it, and a finish time only if every node fell by then
    for cut in (times[len(times) // 2], (times[-2] + times[-1]) / 2):
        cut_trace = engine.simulate(g, handle, dataclasses.replace(cfg, max_time=cut))
        assert cut_trace.events == [e for e in trace.events if e[0] <= cut]
        assert cut_trace.finish_time == (trace.finish_time if times[-1] <= cut else None)
