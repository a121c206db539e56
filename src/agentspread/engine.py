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

``simulate`` and ``simulate_batch`` are one batch loop, ``_run``, over a
sequence of streams: ``simulate`` is its one-run case, which keeps the
events, and ``simulate_batch`` runs replicates 0..R-1 on every CPU
through ``rng.run_batch``, a replicate's cost told as its n nodes. What
does not change between runs is done once per batch: the range check of
``initial_infected``, the horizon and the event budget, and binding the
graph's adjacency and the policy's hooks. Each run gets its own samplers
from ``rng.samplers``, a fresh ``InfectionState`` and a ``policy.reset``.

A batch is a ``RunBatch``: two columns in replicate order, each run's
finish time in an ``array('d')``, NaN for a run the time cutoff stopped,
and its infection count in an ``array('q')``. No object is built per
run; indexing the batch builds one ``RunSummary``. A forked range sends
back its two columns, so the pipe carries two buffers, not one object
per replicate. The columns are bit-identical forked or not, and a
failing batch raises the error an in-process batch raises. Forked or
not, the state a policy handle is left in after a batch is unspecified:
``reset`` is what readies it for its next run.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
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
from .rng import CH_ENGINE, MAX_REPLICATES, run_batch, samplers, stream_index, substream

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
    """A run's finish time (None if cut off) and infection count; its
    replicate is its position in the batch."""

    finish_time: float | None
    events: int


def _summary(t: float, count: int) -> RunSummary:
    return RunSummary(None if t != t else t, count)


class RunBatch(Sequence):
    """The runs of a batch as two columns in replicate order: ``times``,
    an ``array('d')`` of finish times with NaN for a run that was cut off
    (no finish time is otherwise NaN), and ``events``, an ``array('q')``
    of infection counts. Item k is replicate k's ``RunSummary``, built on
    access; a slice is a list of them. ``extend`` appends another batch's
    columns. Compare batches as ``list(batch)``."""

    __slots__ = ("times", "events")

    def __init__(self):
        self.times = array("d")
        self.events = array("q")

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(map(_summary, self.times[k], self.events[k]))
        return _summary(self.times[k], self.events[k])

    def __iter__(self):
        return map(_summary, self.times, self.events)

    def extend(self, other: RunBatch) -> None:
        self.times.extend(other.times)
        self.events.extend(other.events)


def _run(
    g: Graph, policy, cfg: EngineConfig, streams, first: int, events=None
) -> RunBatch:
    """Run replicates first, first + 1, ... on the Generators ``streams``
    yields, one each, and return their columns in that order. ``events``,
    if given, receives the infection events of replicate ``first``."""
    n = g.n
    adj = g.adjacency
    beta = cfg.beta
    seed_node = cfg.initial_infected
    if not (0 <= seed_node < n):
        raise InvalidParameterError(f"initial_infected {seed_node} out of range for n={n}")
    max_time = math.inf if cfg.max_time is None else cfg.max_time
    # A firing time t is kept iff t < horizon, that is t <= max_time.
    horizon = math.nextafter(max_time, math.inf)
    budget = int(n * n * (1.0 + 1.0 / beta)) + 64

    reset = policy.reset
    l_max = policy.l_max
    envelope = None if l_max is None else l_max * (1.0 + _ENVELOPE_SLACK) + 1e-12
    total_rate = policy.total_rate
    healthy_rate = policy.healthy_rate
    internal_rate = policy.internal_rate
    apply_internal = policy.apply_internal
    sample_target = policy.sample_target
    on_infect = policy.on_infect

    out = RunBatch()
    add_time = out.times.append
    add_count = out.events.append
    for replicate, rng in enumerate(streams, first):
        keep_events = events is not None and replicate == first
        exp, uni = samplers(rng)
        draw = exp.draw
        state = InfectionState(n)
        reset(g, state, replicate)
        infect = state.infect
        infected = state.infected
        # best[v] is v's earliest queued edge clock (horizon while none is):
        # a later clock for v could only ever be popped stale, so it is
        # drawn but not queued. The sentinel keeps heap[0] defined.
        best = [horizon] * n
        heap: list[tuple[float, int]] = [(math.inf, n)]
        fired = 0
        t, node, cause = 0.0, seed_node, "seed"
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
            if envelope is not None:
                total = total_rate(state)
                if total > envelope:
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

            # The next event: the scalar clock, or else the earliest edge
            # clock whose node is still healthy.
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

        count = state.infected_count
        add_time(state.clock if count == n else math.nan)
        add_count(count)
    return out


def simulate(g: Graph, policy, cfg: EngineConfig, replicate: int = 0) -> Trace:
    """Run one replicate and return its full event trace.

    The event stream for replicate k is drawn from the counter-based
    stream addressed by (cfg.seed, k); ``simulate`` is replicate k of
    ``simulate_batch`` by construction: both are the one batch loop.
    """
    replicate = integral("replicate", replicate)
    if not 0 <= replicate < MAX_REPLICATES:
        raise InvalidParameterError(f"replicate must be in [0, 2^61), got {replicate}")
    events: list[tuple[float, int, str]] = []
    rng = substream(cfg.seed, replicate, CH_ENGINE)
    (run,) = _run(g, policy, cfg, (rng,), replicate, events)
    return Trace(n=g.n, events=events, finish_time=run.finish_time)


def simulate_batch(
    g: Graph, policy, cfg: EngineConfig, replicates: int, events: list | None = None
) -> RunBatch:
    """Run independent replicates and return their ``RunBatch``.

    Replicate k owns stream (cfg.seed, k) and a fresh policy state, so
    output is deterministic and ordered by replicate index, whether the
    batch runs in-process or forks (see the module docstring). ``events``,
    if given, receives replicate 0's infection events, those of
    ``simulate``'s trace: replicate 0 always runs in this process, in the
    first range.
    """

    def run(streams, first: int) -> RunBatch:
        return _run(g, policy, cfg, streams, first, events if first == 0 else None)

    return run_batch(run, cfg.seed, CH_ENGINE, replicates, g.n)


def finish_times(batch: RunBatch) -> list[float]:
    """Finite finish times of a batch (cutoff runs are dropped)."""
    return [t for t in batch.times if t == t]


def write_trace_csv(trace: Trace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("time,node,cause\n")
        for t, v, cause in trace.events:
            fh.write(f"{t:.17g},{v},{cause}\n")


def write_batch_csv(batch: RunBatch, path: str) -> None:
    """One row per replicate: its position, finish time, events and stream index."""
    with open(path, "w") as fh:
        fh.write("replicate,finish_time,events,seed_stream\n")
        for k, (t, count) in enumerate(zip(batch.times, batch.events)):
            ft = "" if t != t else f"{t:.17g}"
            fh.write(f"{k},{ft},{count},{stream_index(k, CH_ENGINE)}\n")
