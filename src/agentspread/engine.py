"""Exact event-driven simulation of SI spread with external infection.

The dynamics are competing exponential clocks: every boundary edge from
an infected to a healthy node fires at the intrinsic rate beta, and every
healthy node i additionally fires at the policy-supplied external rate
L_i. Scheduling uses a next-reaction priority queue of tentative firing
times; because all clocks are exponential, the aggregate external clock
is regenerated at each event without changing the sampled law, which is
also what makes it exact to poll policies only at event instants (all
supported policies depend on time only through the infection state).

Tie-breaking for simultaneous heap times is by (node, kind) with the
conventions that the pending external event carries virtual node -1 and a
policy-internal transition carries virtual node -2; this is documented
purely for bit-level reproducibility, exact ties have measure zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import InvalidParameterError, NonTerminationError, PolicyContractError, positive
from .graphs import Graph
from .rng import CH_ENGINE, BufferedSampler, reseed, stream, substream

_INTRINSIC = 0
_EXTERNAL = 1
_INTERNAL = 2

_ENVELOPE_SLACK = 1e-9


class InfectionState:
    """Mutable infection state of one run: bitset, count, clock.

    ``healthy`` is the set of not-yet-infected nodes as a swap-remove
    list, so policies can sample a uniform healthy node in O(1).
    """

    __slots__ = ("n", "infected", "infected_count", "clock", "healthy", "_pos")

    def __init__(self, n: int):
        self.n = n
        self.infected = bytearray(n)
        self.infected_count = 0
        self.clock = 0.0
        self.healthy = list(range(n))
        self._pos = list(range(n))

    @property
    def healthy_count(self) -> int:
        return self.n - self.infected_count

    def infect(self, v: int, t: float) -> None:
        self.infected[v] = 1
        self.infected_count += 1
        self.clock = t
        pos = self._pos[v]
        last = self.healthy[-1]
        self.healthy[pos] = last
        self._pos[last] = pos
        self.healthy.pop()
        self._pos[v] = -1


@dataclass(frozen=True)
class EngineConfig:
    beta: float = 1.0
    initial_infected: int = 0
    max_time: float | None = None
    seed: int = 0

    def __post_init__(self):
        positive("beta", self.beta)
        if self.max_time is not None and not self.max_time >= 0:
            raise InvalidParameterError(f"max_time must be nonnegative, got {self.max_time}")


@dataclass
class Trace:
    """Time-ordered infection events of one run.

    ``finish_time`` is the time of the last event when every node got
    infected, and None when the run stopped at the time cutoff.
    """

    n: int
    events: list[tuple[float, int, str]]
    finish_time: float | None


@dataclass(frozen=True)
class RunSummary:
    replicate: int
    finish_time: float | None
    events: int
    seed_stream: int


def _run(g: Graph, policy, cfg: EngineConfig, replicate: int, keep_events: bool, rng=None):
    n = g.n
    adj = g.adjacency
    beta = cfg.beta
    max_time = cfg.max_time
    if not (0 <= cfg.initial_infected < n):
        raise InvalidParameterError(
            f"initial_infected {cfg.initial_infected} out of range for n={n}"
        )

    if rng is None:
        rng = substream(cfg.seed, replicate, CH_ENGINE)
    exp = BufferedSampler(rng.standard_exponential)
    uni = BufferedSampler(rng.random)

    state = InfectionState(n)
    policy.reset(g, state, replicate)

    events: list[tuple[float, int, str]] = []
    heap: list[tuple[float, int, int, int]] = []
    infected = state.infected

    l_max = policy.l_max

    def check_envelope() -> None:
        if l_max is not None:
            total = policy.total_rate(state)
            if total > l_max * (1.0 + _ENVELOPE_SLACK) + 1e-12:
                raise PolicyContractError(
                    f"policy rate sum {total} exceeds declared L_max {l_max}"
                )

    def push_edges(u: int, now: float) -> None:
        for v in adj[u]:
            if not infected[v]:
                tv = now + exp.draw() / beta
                if max_time is None or tv <= max_time:
                    heappush(heap, (tv, v, _INTRINSIC, 0))

    ext_gen = 0
    int_gen = 0

    def refresh_external(now: float) -> None:
        nonlocal ext_gen
        ext_gen += 1
        if state.infected_count >= n:
            return
        rate = policy.healthy_rate(state)
        if rate < 0.0:
            raise PolicyContractError(f"negative external rate sum {rate}")
        if rate > 0.0:
            te = now + exp.draw() / rate
            if max_time is None or te <= max_time:
                heappush(heap, (te, -1, _EXTERNAL, ext_gen))

    def refresh_internal(now: float) -> None:
        nonlocal int_gen
        int_gen += 1
        rate = policy.internal_rate(state)
        if rate < 0.0:
            raise PolicyContractError(f"negative internal rate {rate}")
        if rate > 0.0:
            ti = now + exp.draw() / rate
            if max_time is None or ti <= max_time:
                heappush(heap, (ti, -2, _INTERNAL, int_gen))

    seed_node = cfg.initial_infected
    state.infect(seed_node, 0.0)
    if keep_events:
        events.append((0.0, seed_node, "seed"))
    policy.on_infect(seed_node, state)
    push_edges(seed_node, 0.0)
    check_envelope()
    refresh_external(0.0)
    refresh_internal(0.0)

    budget = int(n * n * (1.0 + 1.0 / beta)) + 64
    pops = 0
    finish: float | None = None

    while state.infected_count < n:
        if not heap:
            if max_time is not None:
                break
            raise NonTerminationError(
                "no pending events while nodes remain healthy "
                "(disconnected graph with zero external rates?)"
            )
        tv, node, kind, gen = heappop(heap)
        pops += 1
        if pops > budget:
            raise NonTerminationError(
                f"event budget {budget} exhausted at t={tv} with "
                f"{state.infected_count}/{n} infected"
            )
        if kind == _INTRINSIC:
            if infected[node]:
                continue
            cause = "intrinsic"
        elif kind == _EXTERNAL:
            if gen != ext_gen:
                continue
            node = policy.sample_target(state, uni)
            cause = "external"
        else:
            if gen != int_gen:
                continue
            policy.apply_internal(state)
            check_envelope()
            refresh_external(tv)
            refresh_internal(tv)
            continue

        state.infect(node, tv)
        if keep_events:
            events.append((tv, node, cause))
        policy.on_infect(node, state)
        push_edges(node, tv)
        check_envelope()
        refresh_external(tv)
        refresh_internal(tv)

    if state.infected_count == n:
        finish = state.clock
    return state, events, finish


def simulate(g: Graph, policy, cfg: EngineConfig, replicate: int = 0) -> Trace:
    """Run one replicate and return its full event trace.

    The event stream for replicate k is drawn from the counter-based
    stream addressed by (cfg.seed, k); ``simulate`` is replicate 0 of
    ``simulate_batch`` by construction.
    """
    _, events, finish = _run(g, policy, cfg, replicate, keep_events=True)
    return Trace(n=g.n, events=events, finish_time=finish)


def simulate_batch(
    g: Graph, policy, cfg: EngineConfig, replicates: int
) -> list[RunSummary]:
    """Run independent replicates and return per-replicate summaries.

    Replicate k owns stream (cfg.seed, k) and a fresh policy state, so
    output is deterministic and ordered by replicate index.
    """
    if replicates < 1:
        raise InvalidParameterError(f"replicates must be >= 1, got {replicates}")
    out = []
    gen = stream(0, 0)  # rewound to each replicate's address before use
    for k in range(replicates):
        reseed(gen, cfg.seed, (k << 3) | CH_ENGINE)
        state, _, finish = _run(g, policy, cfg, k, keep_events=False, rng=gen)
        out.append(
            RunSummary(
                replicate=k,
                finish_time=finish,
                events=state.infected_count,
                seed_stream=(k << 3) | CH_ENGINE,
            )
        )
    return out


def finish_times(summaries: list[RunSummary]) -> list[float]:
    """Finite finish times of a batch (cutoff runs are dropped)."""
    return [s.finish_time for s in summaries if s.finish_time is not None]


def write_trace_csv(trace: Trace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("time,node,cause\n")
        for t, v, cause in trace.events:
            fh.write(f"{t:.17g},{v},{cause}\n")


def write_batch_csv(summaries: list[RunSummary], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("replicate,finish_time,events,seed_stream\n")
        for s in summaries:
            ft = "" if s.finish_time is None else f"{s.finish_time:.17g}"
            fh.write(f"{s.replicate},{ft},{s.events},{s.seed_stream}\n")


def mean_finish_time(summaries: list[RunSummary]) -> float:
    ts = finish_times(summaries)
    if not ts:
        raise InvalidParameterError("no finished runs in batch")
    return math.fsum(ts) / len(ts)
