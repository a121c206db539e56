"""Independent reference computations used to verify the package.

Everything here is deliberately naive and separate from the library's
code paths: a phase-type expectation for the exact finish-time mean, a
first-passage sampler built on Dijkstra over pre-drawn clocks, brute
force subset enumeration for conductance, exhaustive small-graph
enumeration up to isomorphism, a reference copy of the event loop
that queues every edge clock, and a reference copy of the greedy
adversary that relaxes its distances after every infection.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from heapq import heappop, heappush
from itertools import combinations, permutations

import numpy as np

from agentspread.engine import InfectionState
from agentspread.errors import InvalidParameterError, NonTerminationError, PolicyContractError
from agentspread.policies import _TargetedBudget
from agentspread.rng import CH_ENGINE, substream


def ctmc_expected_finish(adjacency, seed_node=0, beta=1.0, external=None):
    """Exact E[finish time] for SI with constant per-node external rates.

    Solves the absorbing-chain expectations over all 2^n infection states
    by dynamic programming in decreasing infected-count order (the state
    can only grow, so no linear solver is needed).
    """
    n = len(adjacency)
    ext = [0.0] * n if external is None else list(external)
    full = (1 << n) - 1
    start = 1 << seed_node
    expect = {full: 0.0}
    masks = [m for m in range(start, full + 1) if m & start]
    masks.sort(key=lambda m: bin(m).count("1"), reverse=True)
    for mask in masks:
        if mask == full:
            continue
        rates = []
        for v in range(n):
            if mask >> v & 1:
                continue
            r = ext[v] + beta * sum(1 for u in adjacency[v] if mask >> u & 1)
            if r > 0:
                rates.append((v, r))
        total = sum(r for _, r in rates)
        if total == 0:
            raise ValueError("absorbing before full infection (disconnected?)")
        acc = 1.0
        for v, r in rates:
            acc += r * expect[mask | (1 << v)]
        expect[mask] = acc / total
    return expect[start]


def fpp_relax(adjacency, edge_time, source_times):
    """Per-node infection times given fixed edge clocks and source times.

    Dijkstra over the first-passage representation: a node is infected at
    the smaller of its own source time and the best neighbour infection
    time plus the shared edge clock. Monotone in ``source_times``.
    """
    n = len(adjacency)
    dist = list(source_times)
    heap = [(t, v) for v, t in enumerate(dist) if t < math.inf]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in adjacency[u]:
            w = edge_time[(u, v) if u < v else (v, u)]
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (dist[v], v))
    return dist


def draw_edge_times(adjacency, rng, beta=1.0):
    out = {}
    for u in range(len(adjacency)):
        for v in adjacency[u]:
            if u < v:
                out[(u, v)] = rng.exponential(1.0 / beta)
    return out


def percolation_sample(adjacency, rng, seed_node=0, beta=1.0, external=None):
    """One exact draw of all infection times for constant-rate SI."""
    n = len(adjacency)
    ext = [0.0] * n if external is None else list(external)
    edge_time = draw_edge_times(adjacency, rng, beta)
    sources = [
        0.0
        if v == seed_node
        else (rng.exponential(1.0 / ext[v]) if ext[v] > 0 else math.inf)
        for v in range(n)
    ]
    return fpp_relax(adjacency, edge_time, sources)


def percolation_finish_times(adjacency, samples, seed=0, beta=1.0, external=None):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2**32], dtype=np.uint64)))
    out = []
    for _ in range(samples):
        out.append(max(percolation_sample(adjacency, rng, 0, beta, external)))
    return out


def conductance_brute(adjacency):
    """Naive minimum of cut(S)/|S| over subsets with 1 <= |S| <= n/2."""
    n = len(adjacency)
    edges = [(u, v) for u in range(n) for v in adjacency[u] if u < v]
    best = math.inf
    best_set = None
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            inside = set(subset)
            cut = sum(1 for u, v in edges if (u in inside) != (v in inside))
            ratio = cut / size
            if ratio < best:
                best = ratio
                best_set = subset
    return best, best_set


def _is_connected(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def connected_graphs_up_to_iso(n):
    """All connected graphs on n labeled nodes, one per isomorphism class."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        if len(edges) < n - 1 or not _is_connected(n, edges):
            continue
        canon = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
            for p in permutations(range(n))
        )
        if canon not in seen:
            seen.add(canon)
            out.append(edges)
    return out


def adjacency_of(edges, n):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(a) for a in adj]


# ---------------------------------------------------------------------------
# Reference event loop
# ---------------------------------------------------------------------------
#
# The event loop and buffered sampler as they stood before the engine
# queued only each node's earliest edge clock: every edge clock goes on
# the heap, the external and internal clocks are two scalars, and the
# sampler refills in a Python method. Kept verbatim, so the engine can be
# checked against it trace for trace.

_ENVELOPE_SLACK = 1e-9
_FIRST_BLOCK = 64
_MAX_BLOCK = 4096


class ReferenceSampler:
    """Buffered draws from one numpy fill method, such as
    ``rng.standard_exponential`` (scale by ``1/rate`` at the call site) or
    ``rng.random`` for uniform(0,1).

    Values come off the stream in blocks of 64 doubling to 4096, so short
    runs stay cheap. Samplers sharing one Generator, as the engine and the
    bounding processes build them, take turns on it block by block, so
    their values depend on the block sizes (a lone sampler's do not).
    """

    __slots__ = ("_fill", "_buf", "_i")

    def __init__(self, fill):
        self._fill = fill
        self._buf = fill(_FIRST_BLOCK).tolist()
        self._i = 0

    def draw(self) -> float:
        i = self._i
        buf = self._buf
        if i == len(buf):
            self._buf = buf = self._fill(min(2 * len(buf), _MAX_BLOCK)).tolist()
            i = 0
        self._i = i + 1
        return buf[i]


def reference_run(g, policy, cfg, replicate, keep_events, rng):
    n = g.n
    adj = g.adjacency
    beta = cfg.beta
    max_time = math.inf if cfg.max_time is None else cfg.max_time
    if not (0 <= cfg.initial_infected < n):
        raise InvalidParameterError(
            f"initial_infected {cfg.initial_infected} out of range for n={n}"
        )

    exp = ReferenceSampler(rng.standard_exponential)
    uni = ReferenceSampler(rng.random)

    state = InfectionState(n)
    policy.reset(g, state, replicate)

    events: list[tuple[float, int, str]] = []
    heap: list[tuple[float, int]] = []
    infected = state.infected

    l_max = policy.l_max

    def push_edges(u: int, now: float) -> None:
        for v in adj[u]:
            if not infected[v]:
                tv = now + exp.draw() / beta
                if tv <= max_time:
                    heappush(heap, (tv, v))

    def clock(now: float, rate: float, what: str) -> float:
        if rate < 0.0:
            raise PolicyContractError(f"negative {what} {rate}")
        if rate > 0.0:
            t = now + exp.draw() / rate
            if t <= max_time:
                return t
        return math.inf

    def redraw(now: float) -> None:
        nonlocal t_ext, t_int
        if l_max is not None:
            total = policy.total_rate(state)
            if total > l_max * (1.0 + _ENVELOPE_SLACK) + 1e-12:
                raise PolicyContractError(
                    f"policy rate sum {total} exceeds declared L_max {l_max}"
                )
        t_ext = math.inf
        if state.infected_count < n:
            t_ext = clock(now, policy.healthy_rate(state), "external rate sum")
        t_int = clock(now, policy.internal_rate(state), "internal rate")

    t_ext = t_int = math.inf
    seed_node = cfg.initial_infected
    state.infect(seed_node, 0.0)
    if keep_events:
        events.append((0.0, seed_node, "seed"))
    policy.on_infect(seed_node, state)
    push_edges(seed_node, 0.0)
    redraw(0.0)

    budget = int(n * n * (1.0 + 1.0 / beta)) + 64
    fired = 0

    while state.infected_count < n:
        t = min(t_int, t_ext, heap[0][0] if heap else math.inf)
        if t == math.inf:
            if cfg.max_time is not None:
                break
            raise NonTerminationError(
                "no pending events while nodes remain healthy "
                "(disconnected graph with zero external rates?)"
            )
        fired += 1
        if fired > budget:
            raise NonTerminationError(
                f"event budget {budget} exhausted at t={t} with "
                f"{state.infected_count}/{n} infected"
            )
        if t == t_int:
            policy.apply_internal(state)
        else:
            if t == t_ext:
                node = policy.sample_target(state, uni)
                cause = "external"
            else:
                node = heappop(heap)[1]
                if infected[node]:
                    continue
                cause = "intrinsic"
            state.infect(node, t)
            if keep_events:
                events.append((t, node, cause))
            policy.on_infect(node, state)
            push_edges(node, t)
        redraw(t)

    finish = state.clock if state.infected_count == n else None
    return state, events, finish


def reference_simulate(g, policy, cfg, replicate=0):
    """``engine.simulate`` on the reference loop: (events, finish_time)."""
    rng = substream(cfg.seed, replicate, CH_ENGINE)
    _, events, finish = reference_run(g, policy, cfg, replicate, True, rng)
    return events, finish


# ---------------------------------------------------------------------------
#
# The greedy frontier adversary as it stood before it relaxed its
# distances once per target query: a deque wave from every newly infected
# node, run inside ``on_infect``. Kept verbatim, so the lazy adversary can
# be checked against it trace for trace.


class ReferenceGreedyAdversary(_TargetedBudget):
    """Whole budget on the lowest-id healthy node at maximum hop distance
    from the infected set, with distances relaxed eagerly per infection."""

    kind = "greedy_frontier_adversary"

    def reset(self, graph, state, replicate):
        self._adj = graph.adjacency
        self._dist = [graph.n + 1] * graph.n

    def _target(self, state) -> int:
        return self._dist.index(max(self._dist))

    def on_infect(self, node, state):
        dist = self._dist
        adj = self._adj
        dist[node] = 0
        wave = deque([node])
        while wave:
            u = wave.popleft()
            du = dist[u] + 1
            for w in adj[u]:
                if du < dist[w]:
                    dist[w] = du
                    wave.append(w)
