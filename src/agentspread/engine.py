"""Exact event-driven simulation of SI spread with external infection.

The dynamics are competing exponential clocks: every boundary edge from
an infected to a healthy node fires at the intrinsic rate beta, and every
healthy node i additionally fires at the policy-supplied external rate
L_i. Scheduling is next-reaction style (Gibson and Bruck, J. Phys.
Chem. A 104, 2000). Each newly infected node draws one clock per healthy
neighbour, but a clock is queued only when it beats the earliest one
already pending for that node: a later one could only ever be popped
after the node fell, so it is drawn (the stream is unchanged) and
dropped. Entries still pop stale, and are skipped, when a node got an
earlier clock after them or fell to the external clock. The aggregate
external clock (rate sum of L_i over healthy nodes) and the policy's
internal clock are merged into one scalar firing time, redrawn after
every infection and internal transition. Because all clocks are
exponential, redrawing them does not change the sampled law, which is
also what makes it exact to poll policies only at event instants (all
supported policies depend on time only through the infection state). A
clock whose rate is zero, or whose draw lands past ``max_time``, is
infinite.

Simultaneous firings are resolved internal clock first, then the
external clock, then edge clocks by node id; this is documented purely
for bit-level reproducibility, exact ties have measure zero.

A run that has fired n^2 (1 + 1/beta) + 64 clocks, stale edge clocks
included, stops with ``NonTerminationError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import (
    InvalidParameterError,
    NonTerminationError,
    PolicyContractError,
    integral,
    positive,
)
from .graphs import Graph
from .rng import CH_ENGINE, BufferedSampler, replicate_streams, substream

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
        object.__setattr__(
            self, "initial_infected", integral("initial_infected", self.initial_infected)
        )
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


def _run(g: Graph, policy, cfg: EngineConfig, replicate: int, keep_events: bool, rng):
    n = g.n
    adj = g.adjacency
    beta = cfg.beta
    max_time = math.inf if cfg.max_time is None else cfg.max_time
    if not (0 <= cfg.initial_infected < n):
        raise InvalidParameterError(
            f"initial_infected {cfg.initial_infected} out of range for n={n}"
        )

    draw = BufferedSampler(rng.standard_exponential).draw
    uni = BufferedSampler(rng.random)

    state = InfectionState(n)
    policy.reset(g, state, replicate)
    l_max = policy.l_max
    total_rate = policy.total_rate
    healthy_rate = policy.healthy_rate
    internal_rate = policy.internal_rate
    apply_internal = policy.apply_internal
    sample_target = policy.sample_target
    on_infect = policy.on_infect
    infect = state.infect
    infected = state.infected

    events: list[tuple[float, int, str]] = []
    # A firing time t is kept iff t < horizon, that is t <= max_time.
    horizon = math.nextafter(max_time, math.inf)
    # best[v] is v's earliest queued edge clock (horizon while none is):
    # a later clock for v could only ever be popped stale, so it is drawn
    # but not queued. The sentinel keeps heap[0] defined.
    best = [horizon] * n
    heap: list[tuple[float, int]] = [(math.inf, n)]

    budget = int(n * n * (1.0 + 1.0 / beta)) + 64
    fired = 0
    t, node, cause = 0.0, cfg.initial_infected, "seed"
    while True:
        if node >= 0:
            infect(node, t)
            if keep_events:
                events.append((t, node, cause))
            on_infect(node, state)
            for v in adj[node]:
                if not infected[v]:
                    tv = t + draw() / beta
                    if tv < best[v]:
                        best[v] = tv
                        heappush(heap, (tv, v))

        # Redraw the scalar clock: the earlier of the external and the
        # internal clock, internal on a tie.
        if l_max is not None:
            total = total_rate(state)
            if total > l_max * (1.0 + _ENVELOPE_SLACK) + 1e-12:
                raise PolicyContractError(
                    f"policy rate sum {total} exceeds declared L_max {l_max}"
                )
        t_clock = math.inf
        if state.infected_count < n:
            rate = healthy_rate(state)
            if rate < 0.0:
                raise PolicyContractError(f"negative external rate sum {rate}")
            if rate > 0.0:
                tc = t + draw() / rate
                if tc < horizon:
                    t_clock = tc
        internal = False
        rate = internal_rate(state)
        if rate < 0.0:
            raise PolicyContractError(f"negative internal rate {rate}")
        if rate > 0.0:
            tc = t + draw() / rate
            if tc < horizon and tc <= t_clock:
                t_clock, internal = tc, True
        if state.infected_count == n:
            break

        # The next event: the scalar clock, or else the earliest edge clock
        # whose node is still healthy.
        while True:
            t_edge, v = heap[0]
            t = t_clock if t_clock <= t_edge else t_edge
            if t == math.inf:
                if cfg.max_time is None:
                    raise NonTerminationError(
                        "no pending events while nodes remain healthy "
                        "(disconnected graph with zero external rates?)"
                    )
                break
            fired += 1
            if fired > budget:
                raise NonTerminationError(
                    f"event budget {budget} exhausted at t={t} with "
                    f"{state.infected_count}/{n} infected"
                )
            if t_clock <= t_edge:
                if internal:
                    apply_internal(state)
                    node = -1
                else:
                    node = sample_target(state, uni)
                    cause = "external"
                break
            heappop(heap)
            if not infected[v]:
                node, cause = v, "intrinsic"
                break
        if t == math.inf:
            break

    finish = state.clock if state.infected_count == n else None
    return state, events, finish


def simulate(g: Graph, policy, cfg: EngineConfig, replicate: int = 0) -> Trace:
    """Run one replicate and return its full event trace.

    The event stream for replicate k is drawn from the counter-based
    stream addressed by (cfg.seed, k); ``simulate`` is replicate 0 of
    ``simulate_batch`` by construction.
    """
    rng = substream(cfg.seed, replicate, CH_ENGINE)
    _, events, finish = _run(g, policy, cfg, replicate, keep_events=True, rng=rng)
    return Trace(n=g.n, events=events, finish_time=finish)


def simulate_batch(
    g: Graph, policy, cfg: EngineConfig, replicates: int
) -> list[RunSummary]:
    """Run independent replicates and return per-replicate summaries.

    Replicate k owns stream (cfg.seed, k) and a fresh policy state, so
    output is deterministic and ordered by replicate index.
    """
    out = []
    for k, gen in enumerate(replicate_streams(cfg.seed, CH_ENGINE, replicates)):
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
