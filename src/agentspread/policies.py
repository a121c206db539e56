"""External-infection policies under one rate-vector contract.

A policy is the per-run handle the engine polls at event instants: it
reports per-node external rates (and fast aggregates), samples the target
of an external infection, and may declare an internal transition rate for
its own stochastic evolution (link rewiring). Handles are owned by a
single run; ``reset`` rebuilds all per-run state, and stochastic policies
rewind their private Generator with ``rng.reseed`` to the stream of their
own seed and the replicate index.

Rate conventions follow the homogeneous reading: an infected node may
still carry external rate (it is simply wasted), so randomized policies
remain state-oblivious, while targeted policies place rate on healthy
nodes only.

Handles are the seven classes below (``NullPolicy``, ``RandomHomogeneous``,
``GsiPolicy``, ``StaticLinks``, ``DynamicLinks``, ``MobileAgents``,
``GreedyFrontierAdversary``), constructed directly or from a declarative
``PolicySpec`` by ``build_policy``, the one map from a kind name to a
class. Rates and budgets must be finite and positive (a rewiring rate
may also be zero); anything else raises ``InvalidParameterError`` at
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .engine import InfectionState
from .errors import InvalidParameterError, integral, positive
from .graphs import Graph, Partition, canonical_partition
from .rng import CH_POLICY, BufferedSampler, reseed, stream


class Policy:
    """Base contract; aggregate queries default to O(n) sums over rate_of."""

    kind = "abstract"
    l_min: float = 0.0
    l_max: float | None = None

    def reset(self, graph: Graph, state: InfectionState, replicate: int) -> None:
        pass

    def rate_of(self, node: int, state: InfectionState) -> float:
        raise NotImplementedError

    def total_rate(self, state: InfectionState) -> float:
        return sum(self.rate_of(v, state) for v in range(state.n))

    def healthy_rate(self, state: InfectionState) -> float:
        return sum(self.rate_of(v, state) for v in state.healthy)

    def sample_target(self, state: InfectionState, uni: BufferedSampler) -> int:
        total = self.healthy_rate(state)
        x = uni.draw() * total
        acc = 0.0
        for v in state.healthy:
            acc += self.rate_of(v, state)
            if acc >= x:
                return v
        return state.healthy[-1]

    def internal_rate(self, state: InfectionState) -> float:
        return 0.0

    def apply_internal(self, state: InfectionState) -> None:
        raise NotImplementedError

    def on_infect(self, node: int, state: InfectionState) -> None:
        pass


class NullPolicy(Policy):
    """Zero external rate everywhere: the pure contact process."""

    kind = "null"
    l_min = 0.0
    l_max = 0.0

    def rate_of(self, node, state):
        return 0.0

    def total_rate(self, state):
        return 0.0

    def healthy_rate(self, state):
        return 0.0


class RandomHomogeneous(Policy):
    """Budget L spread uniformly: every node gets rate L/n at all times."""

    kind = "random_homogeneous"

    def __init__(self, L: float):
        self.L = positive("L", L)
        self.l_min = L
        self.l_max = L
        self._per_node = 0.0

    def reset(self, graph, state, replicate):
        self._per_node = self.L / graph.n

    def rate_of(self, node, state):
        return self._per_node

    def total_rate(self, state):
        return self.L

    def healthy_rate(self, state):
        return self._per_node * state.healthy_count

    def sample_target(self, state, uni):
        healthy = state.healthy
        return healthy[int(uni.draw() * len(healthy))]


class _TargetedBudget(Policy):
    """Shared rate logic for policies that put the whole budget L on the
    one healthy node a subclass's ``_target(state)`` returns, until every
    node is infected. ``_target`` is reached only while a healthy node is
    left, so it needs no empty case."""

    def __init__(self, L: float):
        self.L = positive("L", L)
        self.l_min = L
        self.l_max = L

    def rate_of(self, node, state):
        if state.infected_count >= state.n:
            return 0.0
        return self.L if node == self._target(state) else 0.0

    def total_rate(self, state):
        return self.L if state.infected_count < state.n else 0.0

    healthy_rate = total_rate

    def sample_target(self, state, uni):
        return self._target(state)


class GsiPolicy(_TargetedBudget):
    """Greedy subgraph infection: the whole budget sits on one healthy node
    of a piece with the fewest infected nodes.

    The target piece is ``counts.index(min(counts))`` over the per-piece
    infection counts, so ties go to the lowest piece index; a full piece
    has its count parked at the sentinel n + 1, so it is never chosen
    while a healthy node is left. Inside a piece the target is the
    lowest-id healthy node, found by a pointer that only moves forward.
    """

    kind = "gsi"

    def __init__(self, partition: Partition, L: float):
        super().__init__(L)
        self.partition = partition
        self._n = sum(partition.piece_sizes)
        self._piece_of = partition.piece_of(self._n)

    def reset(self, graph, state, replicate):
        if graph.n != self._n:
            raise InvalidParameterError("partition does not match the graph")
        self._counts = [0] * self.partition.g
        self._ptr = [0] * self.partition.g

    def _target(self, state) -> int:
        counts = self._counts
        piece = counts.index(min(counts))
        nodes = self.partition.pieces[piece]
        ptr = self._ptr[piece]
        infected = state.infected
        while infected[nodes[ptr]]:
            ptr += 1
        self._ptr[piece] = ptr
        return nodes[ptr]

    def on_infect(self, node, state):
        piece = self._piece_of[node]
        self._counts[piece] += 1
        if self._counts[piece] == self.partition.piece_sizes[piece]:
            self._counts[piece] = self._n + 1


class _LinkRates(Policy):
    """Shared rate logic for long-range links: a link (a, b) contributes
    beta_link to a healthy endpoint once the far endpoint is infected."""

    beta_link: float
    _links: list[tuple[int, int]]

    def rate_of(self, node, state):
        if state.infected[node]:
            return 0.0
        infected = state.infected
        rate = 0.0
        for a, b in self._links:
            if a == node and infected[b]:
                rate += self.beta_link
            elif b == node and infected[a]:
                rate += self.beta_link
        return rate

    def healthy_rate(self, state):
        infected = state.infected
        total = 0.0
        for a, b in self._links:
            if infected[a] != infected[b]:
                total += self.beta_link
        return total

    total_rate = healthy_rate

    def sample_target(self, state, uni):
        x = uni.draw() * self.healthy_rate(state)
        infected = state.infected
        acc = 0.0
        last = -1
        for a, b in self._links:
            if infected[a] != infected[b]:
                acc += self.beta_link
                last = b if infected[a] else a
                if acc >= x:
                    return last
        return last


class StaticLinks(_LinkRates):
    """Fixed extra node pairs acting as long-range infection edges."""

    kind = "static_links"

    def __init__(self, links, beta_link: float):
        self.beta_link = positive("beta_link", beta_link)
        self._given = [(int(a), int(b)) for a, b in links]
        self.l_min = 0.0
        self.l_max = beta_link * len(self._given)

    def reset(self, graph, state, replicate):
        for a, b in self._given:
            if not (0 <= a < graph.n and 0 <= b < graph.n):
                raise InvalidParameterError(f"link ({a},{b}) out of range")
        self._links = list(self._given)


class DynamicLinks(_LinkRates):
    """Long-range links that rewire both endpoints at an exponential rate.

    With rewire_rate=0 this is bit-identical to StaticLinks over the
    initially drawn links (no internal events are scheduled and the
    engine stream is untouched).
    """

    kind = "dynamic_links"

    def __init__(self, count: int, beta_link: float, rewire_rate: float, seed: int):
        count = integral("count", count)
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        positive("beta_link", beta_link)
        if not 0 <= rewire_rate < math.inf:
            raise InvalidParameterError(
                f"rewire_rate must be finite and nonnegative, got {rewire_rate}"
            )
        self.count = count
        self.beta_link = beta_link
        self.rewire_rate = rewire_rate
        self.seed = seed
        self.l_min = 0.0
        self.l_max = beta_link * count
        self._rng = stream(seed, CH_POLICY)  # rewound by every reset

    def reset(self, graph, state, replicate):
        reseed(self._rng, self.seed, replicate, CH_POLICY)
        n = graph.n
        self._links = [
            (int(self._rng.integers(n)), int(self._rng.integers(n)))
            for _ in range(self.count)
        ]
        self._n = n

    @property
    def links(self) -> list[tuple[int, int]]:
        return list(self._links)

    def internal_rate(self, state):
        return self.count * self.rewire_rate

    def apply_internal(self, state):
        i = int(self._rng.integers(self.count))
        n = self._n
        self._links[i] = (int(self._rng.integers(n)), int(self._rng.integers(n)))


class MobileAgents(Policy):
    """Agents parked on nodes, each infecting its node at a fixed rate.

    Initial positions are uniform over all nodes; placement happens at
    the same instant as the initial seeding, so an agent that lands on
    the origin just sits there (it never witnesses an infection of its
    node). Afterwards, when an agent's node becomes infected by any
    cause, it relocates to a node chosen uniformly at random among the
    still-healthy ones, which keeps it productive for the rest of the
    run; with no healthy node left the agent stays put.

    ``on_infect`` returns at once for a node no agent sits on (one
    C-level scan of the positions), so the per-agent relocation loop and
    its draws run only for infections that hit an agent.
    """

    kind = "mobile_agents"

    def __init__(self, agents: int, rate_per_agent: float, seed: int = 0):
        agents = integral("agents", agents)
        if agents < 1:
            raise InvalidParameterError(f"agents must be >= 1, got {agents}")
        positive("rate_per_agent", rate_per_agent)
        self.agents = agents
        self.rate = rate_per_agent
        self.seed = seed
        self.l_min = 0.0
        self.l_max = agents * rate_per_agent
        self._rng = stream(seed, CH_POLICY)  # rewound by every reset

    def reset(self, graph, state, replicate):
        reseed(self._rng, self.seed, replicate, CH_POLICY)
        self._pos = [int(self._rng.integers(graph.n)) for _ in range(self.agents)]
        self._live = self.agents  # agents on healthy nodes

    def rate_of(self, node, state):
        if state.infected[node]:
            return 0.0
        return self.rate * self._pos.count(node)

    def healthy_rate(self, state):
        return self.rate * self._live

    total_rate = healthy_rate

    def sample_target(self, state, uni):
        infected = state.infected
        live = [p for p in self._pos if not infected[p]]
        return live[int(uni.draw() * len(live))]

    def on_infect(self, node, state):
        if node not in self._pos:
            return
        healthy = state.healthy
        if state.infected_count <= 1 or not healthy:
            # Initial seeding (nothing witnessed) or no healthy node left:
            # the node's agents stay put and go idle.
            self._live -= self._pos.count(node)
            return
        for i, p in enumerate(self._pos):
            if p == node:
                self._pos[i] = healthy[int(self._rng.integers(len(healthy)))]


class GreedyFrontierAdversary(_TargetedBudget):
    """Heuristic adversary: the whole budget targets a healthy node at
    maximum hop distance from the infected set.

    ``on_infect`` only records the node; the distances are relaxed once
    per target query, from the nodes infected since the last query, by
    one level-synchronous wave: the fresh nodes go to 0, and level d
    lowers to d each neighbour of level d - 1 that was farther. This is
    exact. Before and after a query ``dist`` is the hop distance to the
    infected set (the sentinel n + 1 where none reaches), because a node
    the wave cannot lower is already at distance <= d, so every node past
    it is already as close as the wave would make it. The target is
    ``dist.index(max(dist))``: infected nodes sit at 0 and unreached
    nodes (other components) at n + 1, so it is the lowest-id healthy
    node at the largest distance.
    """

    kind = "greedy_frontier_adversary"

    def reset(self, graph, state, replicate):
        self._adj = graph.adjacency
        self._dist = [graph.n + 1] * graph.n
        self._fresh = []

    def _target(self, state) -> int:
        dist = self._dist
        adj = self._adj
        level, self._fresh = self._fresh, []
        for v in level:
            dist[v] = 0
        d = 0
        while level:
            d += 1
            nxt = []
            for u in level:
                for w in adj[u]:
                    if d < dist[w]:
                        dist[w] = d
                        nxt.append(w)
            level = nxt
        return dist.index(max(dist))

    def on_infect(self, node, state):
        self._fresh.append(node)


# ---------------------------------------------------------------------------
# Declarative construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicySpec:
    """Declarative policy description, shareable across replicates."""

    kind: str
    L: float = 1.0
    links: tuple[tuple[int, int], ...] = ()
    beta_link: float = 1.0
    count: int = 1
    rewire_rate: float = 0.0
    agents: int = 1
    rate_per_agent: float = 1.0
    seed: int = 0
    partition: Partition | None = field(default=None, compare=False)


def build_policy(spec: PolicySpec, graph: Graph | None = None) -> Policy:
    """Instantiate a handle from a spec: the one map from a kind name to a
    policy class. gsi takes the family's canonical partition when none is
    given."""
    kind = spec.kind
    if kind == "null":
        return NullPolicy()
    if kind == "random_homogeneous":
        return RandomHomogeneous(spec.L)
    if kind == "gsi":
        part = spec.partition
        if part is None:
            if graph is None:
                raise InvalidParameterError("gsi needs a partition or a graph")
            part = canonical_partition(graph, spec.L)
        return GsiPolicy(part, spec.L)
    if kind == "static_links":
        return StaticLinks(spec.links, spec.beta_link)
    if kind == "dynamic_links":
        return DynamicLinks(spec.count, spec.beta_link, spec.rewire_rate, spec.seed)
    if kind == "mobile_agents":
        return MobileAgents(spec.agents, spec.rate_per_agent, spec.seed)
    if kind == "greedy_frontier_adversary":
        return GreedyFrontierAdversary(spec.L)
    raise InvalidParameterError(f"unknown policy kind {kind!r}")
