"""Policy rate contracts, envelopes, and policy-specific behaviours."""

import dataclasses
import math
import random
import statistics
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentspread import dominators, engine, graphs, policies
from agentspread.analytics import ExperimentPlan
from agentspread.engine import EngineConfig, InfectionState, finish_times
from agentspread.errors import InvalidParameterError

from oracles import ReferenceGreedyAdversary, ctmc_expected_finish


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


# family -> (graph, beta); the critical-radius RGG spreads in a few hops,
# so it runs at a low beta to see external events at all.
GSI_REPLAY_GRAPHS = {
    "ring": (lambda: graphs.gen_ring(64), 1.0),
    "grid": (lambda: graphs.gen_grid(100, 2), 1.0),
    "rgg": (lambda: graphs.make_graph("rgg", 256, seed=11), 0.05),
}


@pytest.mark.parametrize("family", sorted(GSI_REPLAY_GRAPHS))
def test_gsi_support_set_property_replay(family):
    # Recomputable from the trace: every external event lands on the
    # lowest-id healthy node of the lowest-index piece among those with
    # the fewest infections and a healthy node left.
    make, beta = GSI_REPLAY_GRAPHS[family]
    g = make()
    part = graphs.canonical_partition(g)
    trace = engine.simulate(g, policies.GsiPolicy(part, 1.0), EngineConfig(seed=13, beta=beta))
    piece_of = part.piece_of(g.n)
    counts = [0] * part.g
    infected = set()
    externals = 0
    for _, node, cause in trace.events:
        if cause == "external":
            open_pieces = [i for i, p in enumerate(part.pieces) if set(p) - infected]
            piece = min(open_pieces, key=lambda i: (counts[i], i))
            assert node == min(set(part.pieces[piece]) - infected)
            externals += 1
        counts[piece_of[node]] += 1
        infected.add(node)
    assert externals > 0
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
    got = statistics.fmean(
        finish_times(engine.simulate_batch(g, p, EngineConfig(seed=23), 30000))
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
    m = statistics.fmean(
        finish_times(engine.simulate_batch(g, p, EngineConfig(seed=15), 30000))
    )
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


def test_dynamic_links_grid_scaling_cube_root():
    # Rewiring links do not beat the cube-root growth order on 2-d grids.
    from agentspread.analytics import exponent_fit

    means = []
    ns = (256, 1024, 4096)
    for i, n in enumerate(ns):
        g = graphs.gen_grid(n, 2)
        p = policies.DynamicLinks(count=4, beta_link=1.0, rewire_rate=0.5, seed=31)
        means.append(
            statistics.fmean(
                finish_times(engine.simulate_batch(g, p, EngineConfig(seed=600 + i), 60))
            )
        )
    fit = exponent_fit(list(zip(ns, means)))
    assert fit.slope > 0.25
    assert all(m >= 0.5 * (n / 4) ** (1 / 3) for m, n in zip(means, ns))


def test_mobile_agent_within_2x_of_random():
    g = graphs.gen_ring(1024)
    m_mob = statistics.fmean(
        finish_times(
            engine.simulate_batch(
                g, policies.MobileAgents(1, 1.0, seed=32), EngineConfig(seed=601), 100
            )
        )
    )
    m_rand = statistics.fmean(
        finish_times(
            engine.simulate_batch(
                g, policies.RandomHomogeneous(1.0), EngineConfig(seed=602), 100
            )
        )
    )
    assert 0.5 <= m_mob / m_rand <= 2.0


MOBILE_GRAPHS = {
    "ring": lambda: graphs.gen_ring(64),
    "grid": lambda: graphs.gen_grid(64, 2),
}

# graph -> {(agents, seed): (finish_time, external events)} at rate 1 per
# agent, with the policy and the engine both seeded by `seed`; recorded
# while on_infect still scanned every agent on every infection.
PINNED_MOBILE = {
    "ring": {
        (1, 3): (8.139806719577987, 10),
        (1, 4): (8.40334475060772, 12),
        (1, 5): (8.483281366368379, 10),
        (3, 3): (4.927518773878386, 15),
        (3, 4): (5.373935650583118, 22),
        (3, 5): (5.364822174926216, 16),
    },
    "grid": {
        (1, 3): (4.309450692259149, 6),
        (1, 4): (3.9630686521709104, 2),
        (1, 5): (4.2096501264670465, 1),
        (3, 3): (3.1081283287158836, 14),
        (3, 4): (2.5549120576149216, 8),
        (3, 5): (2.8018834819769296, 7),
    },
}


@pytest.mark.parametrize("family", sorted(PINNED_MOBILE))
def test_mobile_stream_pinned(family):
    g = MOBILE_GRAPHS[family]()
    got = {}
    for agents, seed in PINNED_MOBILE[family]:
        policy = policies.MobileAgents(agents, 1.0, seed=seed)
        trace = engine.simulate(g, policy, EngineConfig(seed=seed))
        externals = sum(1 for _, _, cause in trace.events if cause == "external")
        got[agents, seed] = (trace.finish_time, externals)
    assert got == PINNED_MOBILE[family]


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


ADVERSARY_GRAPHS = {
    "ring": lambda: graphs.gen_ring(24),
    "grid": lambda: graphs.gen_grid(49, 2),
    "rgg": lambda: graphs.gen_rgg(120, 0.12, seed=3),
    "split": lambda: graphs.gen_custom(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
}


@pytest.mark.parametrize("family", sorted(ADVERSARY_GRAPHS))
def test_adversary_max_distance_replay(family):
    # Every external event lands on the lowest-id healthy node at the
    # largest distance from the infected set; unreached nodes count as
    # farther than any reached one.
    g = ADVERSARY_GRAPHS[family]()
    p = policies.GreedyFrontierAdversary(1.0)
    trace = engine.simulate(g, p, EngineConfig(seed=19))
    infected = set()
    externals = 0
    for _, node, cause in trace.events:
        if cause == "external":
            dist = _multi_source_distances(g, infected)
            healthy = [v for v in range(g.n) if v not in infected]
            assert node == max(healthy, key=lambda v: (dist.get(v, g.n + 1), -v))
            externals += 1
        infected.add(node)
    assert externals > 0
    assert trace.finish_time is not None


class _Lockstep:
    """Runs the lazy adversary and the eager reference side by side: every
    engine hook goes to the lazy one, and after each infection both must
    give every node the same rate, so the lazy one flushes between
    queries."""

    def __init__(self, L):
        self.lazy = policies.GreedyFrontierAdversary(L)
        self.eager = ReferenceGreedyAdversary(L)
        self.checks = 0

    def __getattr__(self, name):
        return getattr(self.lazy, name)

    def reset(self, graph, state, replicate):
        self.lazy.reset(graph, state, replicate)
        self.eager.reset(graph, state, replicate)

    def on_infect(self, node, state):
        self.lazy.on_infect(node, state)
        self.eager.on_infect(node, state)
        nodes = range(state.n)
        assert [self.lazy.rate_of(v, state) for v in nodes] == [
            self.eager.rate_of(v, state) for v in nodes
        ]
        self.checks += 1


@pytest.mark.parametrize("L", [1.0, 4.0, 64.0])
@pytest.mark.parametrize("family", sorted(ADVERSARY_GRAPHS))
def test_adversary_matches_eager_reference(family, L):
    # Relaxing once per target query from the nodes infected since the
    # last one gives the same targets as a wave after every infection, so
    # the traces agree event for event, also under a cutoff.
    g = ADVERSARY_GRAPHS[family]()
    externals = 0
    for seed in (19, 20, 21):
        cfg = EngineConfig(seed=seed)
        trace = engine.simulate(g, policies.GreedyFrontierAdversary(L), cfg)
        assert trace.events == engine.simulate(g, ReferenceGreedyAdversary(L), cfg).events
        lockstep = _Lockstep(L)
        assert engine.simulate(g, lockstep, cfg) == trace
        assert lockstep.checks == g.n
        cut = dataclasses.replace(cfg, max_time=trace.finish_time / 2)
        cut_trace = engine.simulate(g, policies.GreedyFrontierAdversary(L), cut)
        assert cut_trace == engine.simulate(g, ReferenceGreedyAdversary(L), cut)
        assert cut_trace.finish_time is None and cut_trace.events
        externals += sum(1 for _, _, cause in trace.events if cause == "external")
    assert externals > 0


def _split_graph():
    """Two paths, an edge and an isolated node, cut into connected pieces."""
    edges = [(i, i + 1) for i in range(11)] + [(i, i + 1) for i in range(12, 20)] + [(21, 22)]
    g = graphs.gen_custom(24, edges)
    cuts = (0, 4, 8, 12, 15, 18, 21, 23, 24)
    pieces = tuple(tuple(range(a, b)) for a, b in zip(cuts, cuts[1:]))
    diams = tuple(graphs.diameter(g, p) for p in pieces)
    return g, graphs.Partition(pieces, tuple(map(len, pieces)), diams)


TARGETED_GRAPHS = {
    "ring": lambda: (graphs.gen_ring(256), None),
    "grid": lambda: (graphs.gen_grid(1024, 2), None),
    "split": _split_graph,
}

# (graph, kind) -> {(L, seed): (finish_time, external events)}, recorded
# from the lazily filtered heaps the two targeted policies kept before
# they read their target off a list.
PINNED_TARGETED = {
    ("ring", "gsi"): {
        (0.5, 3): (28.861518830960886, 17),
        (0.5, 4): (25.00560948280055, 23),
        (1.0, 3): (18.444023681733725, 21),
        (1.0, 4): (24.42675514629707, 24),
        (4.0, 3): (11.437882589757194, 48),
        (4.0, 4): (10.669735282951288, 39),
    },
    ("ring", "greedy_frontier_adversary"): {
        (0.5, 3): (19.730027691835758, 12),
        (0.5, 4): (19.112365230871873, 13),
        (1.0, 3): (16.556705274585816, 15),
        (1.0, 4): (16.482100447522427, 21),
        (4.0, 3): (9.858942044505074, 33),
        (4.0, 4): (9.000442078709597, 33),
    },
    ("grid", "gsi"): {
        (0.5, 3): (19.365817599109718, 7),
        (0.5, 4): (19.099293594439544, 10),
        (1.0, 3): (16.93435515920226, 15),
        (1.0, 4): (15.754320370979489, 14),
        (4.0, 3): (11.09377037702983, 36),
        (4.0, 4): (13.268044184267636, 37),
    },
    ("grid", "greedy_frontier_adversary"): {
        (0.5, 3): (12.088860740333836, 5),
        (0.5, 4): (11.151272334165718, 5),
        (1.0, 3): (11.331043454679564, 8),
        (1.0, 4): (10.574142313510455, 9),
        (4.0, 3): (6.51789371590786, 24),
        (4.0, 4): (6.260914907215457, 28),
    },
    ("split", "gsi"): {
        (0.5, 3): (7.899482971435656, 7),
        (0.5, 4): (11.16509518591533, 7),
        (1.0, 3): (6.684815519577978, 5),
        (1.0, 4): (4.798283885994024, 8),
        (4.0, 3): (2.067336871759981, 11),
        (4.0, 4): (2.708327372803217, 10),
    },
    ("split", "greedy_frontier_adversary"): {
        (0.5, 3): (7.183434551042656, 5),
        (0.5, 4): (7.777631297781368, 5),
        (1.0, 3): (6.501706199752388, 5),
        (1.0, 4): (7.789386266955994, 6),
        (4.0, 3): (2.5570544256938423, 12),
        (4.0, 4): (3.0881629548175082, 11),
    },
}


@pytest.mark.parametrize("family,kind", sorted(PINNED_TARGETED))
def test_targeted_stream_pinned(family, kind):
    g, part = TARGETED_GRAPHS[family]()
    got = {}
    for L, seed in PINNED_TARGETED[family, kind]:
        if kind == "gsi":
            policy = policies.GsiPolicy(part or graphs.canonical_partition(g, L), L)
        else:
            policy = policies.GreedyFrontierAdversary(L)
        trace = engine.simulate(g, policy, EngineConfig(seed=seed))
        externals = sum(1 for _, _, cause in trace.events if cause == "external")
        got[L, seed] = (trace.finish_time, externals)
    assert got == PINNED_TARGETED[family, kind]


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
    "beta-two_phase": lambda v: dominators.two_phase_process(
        graphs.gen_ring(16), graphs.partition_ring(graphs.gen_ring(16)), 1.0, "sequential", 0,
        beta=v,
    ),
    "beta_link": lambda v: policies.StaticLinks([(0, 1)], beta_link=v),
    "beta_link-dynamic": lambda v: policies.DynamicLinks(2, v, 0.0, seed=1),
    "rate_per_agent": lambda v: policies.MobileAgents(1, v),
    "seeding_rate": lambda v: dominators.ClusterProcessConfig(
        growth="line", target_count=8, seeding_rate=v
    ),
    "mu_eff": lambda v: dominators.ClusterProcessConfig(
        growth="diagonal", target_count=8, mu_eff=v
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


@pytest.mark.parametrize("max_time", [math.nan, -1.0])
def test_cluster_config_rejects_bad_max_time(max_time):
    with pytest.raises(InvalidParameterError, match="max_time"):
        dominators.ClusterProcessConfig(growth="line", target_count=8, max_time=max_time)


# One construction per integer parameter of the library, each taking the
# value; a whole float reads as its int, anything else is refused.
INTEGER_PARAMETERS = {
    "sizes": lambda v: ExperimentPlan(sizes=(v, 64, 256)),
    "dim-plan": lambda v: ExperimentPlan(sizes=(16, 64, 256), dim=v),
    "occupancy-plan": lambda v: ExperimentPlan(sizes=(16, 64, 256), occupancy=v),
    "target_count": lambda v: dominators.ClusterProcessConfig(growth="line", target_count=v),
    "dim": lambda v: dominators.ClusterProcessConfig(growth="fpp", target_count=8, dim=v),
    "occupancy": lambda v: dominators.ClusterProcessConfig(
        growth="diagonal", target_count=8, occupancy=v
    ),
    "replicates-plan": lambda v: ExperimentPlan(sizes=(16, 64, 256), replicates=v),
    "initial_infected-plan": lambda v: ExperimentPlan(sizes=(16, 64, 256), initial_infected=v),
    "event_budget": lambda v: ExperimentPlan(sizes=(16, 64, 256), event_budget=v),
    "initial_infected": lambda v: EngineConfig(initial_infected=v),
    "count": lambda v: policies.DynamicLinks(v, 1.0, 0.0, seed=1),
    "agents": lambda v: policies.MobileAgents(v, 1.0),
    # a batch function reads its count once: the length of its result
    "replicates-batch": lambda v: types.SimpleNamespace(
        replicates=len(
            engine.simulate_batch(graphs.gen_ring(8), policies.NullPolicy(), EngineConfig(), v)
        )
    ),
    "replicates-hitting": lambda v: types.SimpleNamespace(
        replicates=len(
            dominators.sample_hitting_times(dominators.ClusterProcessConfig("line", 8), v)
        )
    ),
    "replicates-two_phase": lambda v: types.SimpleNamespace(
        replicates=len(
            dominators.two_phase_process(
                graphs.gen_ring(16), graphs.partition_ring(graphs.gen_ring(16)), 1.0,
                "sequential", 0, replicates=v,
            )
        )
    ),
    "replicates-chain": lambda v: types.SimpleNamespace(
        replicates=len(dominators.conductance_chain(4, 1.0, 0, replicates=v))
    ),
    "replicates-clusters": lambda v: types.SimpleNamespace(
        replicates=len(
            list(dominators.run_cluster_process(dominators.ClusterProcessConfig("line", 8), v))
        )
    ),
    # the chain reads its size once, for its step rates (one per step from
    # 1 to piece_size), which both conductance_chain and chain_sojourn_mean
    # build
    "piece_size": lambda v: types.SimpleNamespace(
        piece_size=1 + len(dominators._chain_rates(v, 1.0))
    ),
}


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, "2"])
@pytest.mark.parametrize("param", sorted(INTEGER_PARAMETERS))
def test_fractional_integer_rejected(param, value):
    with pytest.raises(InvalidParameterError, match=f"{param.split('-')[0]} must be an integer"):
        INTEGER_PARAMETERS[param](value)


@pytest.mark.parametrize("param", sorted(INTEGER_PARAMETERS))
def test_whole_float_reads_as_int(param):
    name = param.split("-")[0]
    got = getattr(INTEGER_PARAMETERS[param](2.0), name)
    if name == "sizes":
        got = got[0]
    assert got == 2 and type(got) is int


def test_fpp_runs_with_whole_float_dim():
    cfg = dominators.ClusterProcessConfig(growth="fpp", target_count=16, dim=2.0)
    (trace,) = dominators.run_cluster_process(cfg)
    assert trace.hitting_time > 0


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


# The engine-facing hooks of the rate contract.
HOOKS = (
    "reset",
    "rate_of",
    "total_rate",
    "healthy_rate",
    "sample_target",
    "internal_rate",
    "apply_internal",
    "on_infect",
)


class RateAudit:
    """Delegates every hook to a policy and, each time the engine calls
    one, checks the aggregates against rate_of and that a sampled target
    is a healthy node with positive rate. Its own samples use a private
    stream, so the engine's draws are untouched."""

    def __init__(self, inner):
        self.inner = inner
        self.audits = 0
        self._uni = types.SimpleNamespace(draw=random.Random(0).random)

    @property
    def l_max(self):
        return self.inner.l_max

    def audit(self, state):
        p = self.inner
        healthy = sum(p.rate_of(v, state) for v in state.healthy)
        assert math.isclose(p.healthy_rate(state), healthy)
        assert math.isclose(p.total_rate(state), sum(p.rate_of(v, state) for v in range(state.n)))
        if healthy > 0:
            v = p.sample_target(state, self._uni)
            assert not state.infected[v] and p.rate_of(v, state) > 0
        self.audits += 1


def _audited(name):
    def hook(self, *args):
        out = getattr(self.inner, name)(*args)
        self.audit(next(a for a in args if isinstance(a, InfectionState)))
        return out

    return hook


for _name in HOOKS:
    setattr(RateAudit, _name, _audited(_name))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(runs())
def test_rates_agree_with_rate_of_at_every_hook(run):
    g, spec, cfg = run
    audit = RateAudit(policies.build_policy(spec, g))
    trace = engine.simulate(g, audit, cfg)
    assert audit.audits > g.n
    assert trace == engine.simulate(g, policies.build_policy(spec, g), cfg)
