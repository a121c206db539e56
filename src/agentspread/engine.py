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
events, and ``simulate_batch`` runs replicates 0..R-1 on the streams of
``rng.replicate_streams``. What does not change between runs is done
once per batch: the range check of ``initial_infected``, the horizon and
the event budget, and binding the graph's adjacency and the policy's
hooks. Each run gets its own samplers from ``rng.samplers``, a fresh
``InfectionState`` and a ``policy.reset``.

``simulate_batch`` runs its replicates on W processes: the number of
CPUs the process may use (``os.sched_getaffinity``, else
``os.cpu_count``), lowered until each process gets a range of at least
``_FORK_RANGE_WORK`` node-replicates (``replicates * n >= W *
_FORK_RANGE_WORK``) and at least one replicate. It forks only when W >= 2, ``os.fork`` exists, no
profiler or tracer is attached and only one Python thread runs. It then
splits 0..R-1 into W contiguous ranges, forks one child for each range
but the first, which it runs itself, and joins the children's summaries
in range order. Each range takes its streams from
``rng.replicate_streams``, so the summaries are bit-identical to an
in-process batch on any number of CPUs. When ranges fail, the batch
raises the error of the earliest one, the error an in-process batch
raises. If no pipe or process can be had (a process or descriptor
limit), it kills the children it has forked and runs the whole batch
in-process. Either way, the state a policy handle is left in after a
batch is unspecified: ``reset`` is what readies it for its next run.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
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
from .rng import (
    CH_ENGINE,
    MAX_REPLICATES,
    replicate_count,
    replicate_streams,
    samplers,
    substream,
)

_ENVELOPE_SLACK = 1e-9

# Fewest node-replicates (replicates * n) a batch gives each of its
# processes: a fork and its collection cost a few ms, which a shorter
# range does not win back. Measured on 2 CPUs, where ring 256 x 128
# (2^15, two ranges of 2^14) took 89.5 ms in-process and 50.1 ms forked,
# and ring 256 x 64 (2^14) 31.9 against 36.1.
_FORK_RANGE_WORK = 1 << 14
_SIGKILL = 9  # POSIX, where os.fork exists


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


def _run(
    g: Graph, policy, cfg: EngineConfig, streams, first: int, events=None
) -> list[RunSummary]:
    """Run replicates first, first + 1, ... on the Generators ``streams``
    yields, one each, and return their summaries. ``events``, if given,
    receives every run's infection events."""
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
    keep_events = events is not None

    reset = policy.reset
    l_max = policy.l_max
    envelope = None if l_max is None else l_max * (1.0 + _ENVELOPE_SLACK) + 1e-12
    total_rate = policy.total_rate
    healthy_rate = policy.healthy_rate
    internal_rate = policy.internal_rate
    apply_internal = policy.apply_internal
    sample_target = policy.sample_target
    on_infect = policy.on_infect

    out = []
    for replicate, rng in enumerate(streams, first):
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
        finish = state.clock if count == n else None
        out.append(RunSummary(replicate, finish, count, (replicate << 3) | CH_ENGINE))
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
    g: Graph, policy, cfg: EngineConfig, replicates: int
) -> list[RunSummary]:
    """Run independent replicates and return per-replicate summaries.

    Replicate k owns stream (cfg.seed, k) and a fresh policy state, so
    output is deterministic and ordered by replicate index, whether the
    batch runs in-process or forks (see the module docstring).
    """
    replicates = replicate_count(replicates)
    return _batch(g, policy, cfg, replicates, _workers(replicates, g.n))


def _workers(replicates: int, n: int) -> int:
    """The number of processes a batch runs on: one per usable CPU, but
    no more than give each range ``_FORK_RANGE_WORK`` node-replicates,
    and 1 when the process may not fork."""
    most = min(replicates, replicates * n // _FORK_RANGE_WORK)
    if most < 2 or not hasattr(os, "fork"):
        return 1
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return 1
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+ tools
    if monitoring is not None and any(monitoring.get_tool(i) for i in range(6)):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, most)


def _batch(
    g: Graph, policy, cfg: EngineConfig, replicates: int, workers: int
) -> list[RunSummary]:
    """Run replicates 0..R-1 as ``workers`` contiguous ranges: the first
    here, each other in a forked child that sends back its summaries, or
    its error, through a pipe. With one worker, or when no pipe or
    process can be had, every range runs here."""
    bounds = [replicates * i // workers for i in range(workers + 1)]
    children = []  # (pid, pipe's read end, first replicate) of unreaped children
    try:
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                children.append(_fork(g, policy, cfg, lo, hi))
        except OSError:  # a process or descriptor limit: forking only saves time
            _kill(children)
            bounds = [0, replicates]
        out = _run(g, policy, cfg, replicate_streams(cfg.seed, CH_ENGINE, bounds[1]), 0)
        while children:
            pid, pipe, lo = children[0]
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if not data:
                raise RuntimeError(
                    f"the process running replicates from {lo} died (wait status {status})"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            out.extend(value)
        return out
    finally:
        _kill(children)


def _fork(g: Graph, policy, cfg: EngineConfig, lo: int, hi: int):
    """Fork a child running replicates lo..hi-1; return its pid, the read
    end of its pipe and ``lo``. OSError if no pipe or process can be had."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        os.close(read)
        _child(g, policy, cfg, lo, hi, write)
    os.close(write)
    return pid, open(read, "rb"), lo


def _kill(children: list) -> None:
    """Kill and reap the children still listed, and empty the list."""
    for pid, pipe, _ in children:
        pipe.close()
        os.kill(pid, _SIGKILL)
        os.waitpid(pid, 0)
    children.clear()


def _child(g: Graph, policy, cfg: EngineConfig, lo: int, hi: int, write: int):
    """In a forked child: run replicates lo..hi-1, write ``(True,
    summaries)`` or ``(False, error)`` to ``write`` pickled, and exit
    without returning to the caller's code."""
    try:
        try:
            streams = replicate_streams(cfg.seed, CH_ENGINE, hi, lo)
            result = (True, _run(g, policy, cfg, streams, lo))
        except BaseException as exc:  # interrupts too: the parent raises it
            result = (False, exc)
        try:
            data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            if not result[0]:
                pickle.loads(data)
        except Exception:  # an error that does not survive pickling
            err = result[1]
            data = pickle.dumps((False, RuntimeError(f"{type(err).__name__}: {err}")))
        with open(write, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


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
