"""Counter-based random number streams.

All randomness in the package flows through Philox, a counter-based
generator whose output is a pure function of its 128-bit key. A stream is
addressed by ``(seed, index)``; the index packs a replicate number and a
channel tag so that independent consumers of the same master seed never
collide. ``stream_index`` is the one place that packs it, as
``(replicate << 3) | channel``; ``substream``, ``reseed`` and the
engine's ``batch.csv`` all go through it.

Reproducibility is bit-exact across platforms for a fixed numpy version,
and partial re-runs are possible because any stream can be reconstructed
from its address alone.

Every batch of replicates, and every contiguous range of one that a
forked batch hands a child process, takes its streams, and has its count
checked, in ``replicate_streams``, which rewinds one Generator with
``reseed``; ``replicate_count`` is that check alone. Each run reads its
stream through the exponential/uniform pair that ``samplers`` builds.
The uniform sampler fills its first block lazily, at the place in the
stream an eager one would, so a run that draws no uniform skips that
fill and every value stays the same.

``run_batch`` is the one runner of replicate batches on every CPU: each
batch gives it a function over the streams of a contiguous range of
replicates and one replicate's estimated cost, and it forks a child per
range where that pays. Each range gets its streams from
``replicate_streams``, so a batch gives the same values forked or not.
The runner needs only ``os``, ``sys`` and ``pickle``, which numpy has
already loaded.

Every producer's batch format is decided here, too: a ``RunBatch`` of
columns, no object per run, so a forked range pipes back buffers. Its
times are an ``array('d')``, NaN the one mark of a run a time cutoff
stopped; a producer of one number per run returns a bare ``array('d')``.
"""

from __future__ import annotations

import os
import pickle
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

import numpy as np

from .errors import InvalidParameterError, integral

_MASK64 = (1 << 64) - 1

# Replicates 0..2^61-1 have distinct stream indices; past them the index
# wraps at 64 bits onto another replicate's stream.
MAX_REPLICATES = 1 << 61

# Channel tags (low 3 bits of the stream index).
CH_ENGINE = 0  # event clocks of one simulation replicate
CH_POLICY = 1  # policy-internal randomness (link draws, agent jumps)
CH_PROCESS = 2  # dominating processes (two-phase, cluster growth, chains)
CH_BOOTSTRAP = 3  # resampling in statistical reports
CH_GRAPH = 4  # random graph generation inside experiment plans
CH_DERIVE = 7  # sub-seed derivation for nested experiment stages


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the Generator addressed by ``(seed, index)``."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def stream_index(replicate: int, channel: int) -> int:
    """The stream index of ``(replicate, channel)``: the one place it is packed."""
    return (replicate << 3) | channel


def substream(seed: int, replicate: int, channel: int) -> np.random.Generator:
    """Stream for one (replicate, channel) pair under a master seed."""
    return stream(seed, stream_index(replicate, channel))


# The state ``reseed`` writes: a fresh Philox counter and buffer, with
# the key set in place on each call. The Generator copies the arrays when
# the state is assigned, so one template serves every rewind (of one
# thread at a time: a call writes the key, then assigns).
_FRESH_STATE = {
    "bit_generator": "Philox",
    "state": {
        "counter": np.zeros(4, dtype=np.uint64),
        "key": np.zeros(2, dtype=np.uint64),
    },
    "buffer": np.zeros(4, dtype=np.uint64),
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}
_FRESH_KEY = _FRESH_STATE["state"]["key"]


def reseed(gen, seed: int, replicate: int, channel: int) -> np.random.Generator:
    """Rewind the Philox-backed Generator ``gen`` to the fresh state of
    ``substream(seed, replicate, channel)``: bit-identical, but several times
    cheaper, which matters for batches of many short replicates."""
    _FRESH_KEY[0] = seed & _MASK64
    _FRESH_KEY[1] = stream_index(replicate, channel) & _MASK64
    gen.bit_generator.state = _FRESH_STATE
    return gen


def replicate_count(replicates) -> int:
    """``replicates`` as an int if a batch may run that many: a whole
    number in [1, ``MAX_REPLICATES``]; otherwise InvalidParameterError."""
    replicates = integral("replicates", replicates)
    if replicates < 1:
        raise InvalidParameterError(f"replicates must be >= 1, got {replicates}")
    if replicates > MAX_REPLICATES:
        raise InvalidParameterError(f"replicates must be <= 2^61, got {replicates}")
    return replicates


def replicate_streams(
    seed: int, channel: int, replicates: int, first: int = 0
) -> Iterator[np.random.Generator]:
    """The streams of replicates first..R-1 of ``(seed, channel)``: one
    Generator, rewound by ``reseed`` to ``substream(seed, k, channel)``'s
    address before it is handed out as replicate k, so use each before
    asking for the next. A bad count R (see ``replicate_count``) or a first
    replicate outside [0, R] raises on the call."""
    replicates = replicate_count(replicates)
    first = integral("first replicate", first)
    if not 0 <= first <= replicates:
        raise InvalidParameterError(f"first replicate {first} outside [0, {replicates}]")
    gen = stream(seed, channel)
    return (reseed(gen, seed, k, channel) for k in range(first, replicates))


# First block of every BufferedSampler. Pinned: samplers sharing a
# Generator interleave their fills, so changing it changes their values.
_FIRST_BLOCK = 64
_MAX_BLOCK = 4096


def _blocks(fill, first, before_second):
    """``first()``, then blocks of 128, 256, ... up to 4096, 4096, ... from
    ``fill``, each filled only when the one before it is used up;
    ``before_second()``, if given, runs just before the first of them is
    filled."""
    yield first()
    if before_second is not None:
        before_second()
    size = _FIRST_BLOCK
    while True:
        size = min(2 * size, _MAX_BLOCK)
        yield fill(size).tolist()


class BufferedSampler:
    """Buffered draws from one numpy fill method, such as
    ``rng.standard_exponential`` (scale by ``1/rate`` at the call site) or
    ``rng.random`` for uniform(0,1).

    ``draw()`` returns the next value. Values come off the stream in
    blocks of 64 doubling to 4096, so short runs stay cheap. The first
    block is filled by ``fill_first()``: on the first draw, or earlier
    when a caller asks for it. Each later block is filled on the draw
    that needs it, the second just after ``before_second()`` runs.
    ``draw`` is the ``__next__`` of an ``itertools.chain`` over the
    blocks, so a draw runs no Python code except once per block. Samplers
    sharing one Generator take turns on it block by block, so their
    values depend on the block sizes (a lone sampler's do not);
    ``samplers`` builds the pair the engine and the bounding processes
    share.
    """

    __slots__ = ("draw", "fill_first")

    def __init__(self, fill, before_second=None):
        block = None

        def fill_first():
            nonlocal block
            if block is None:
                block = fill(_FIRST_BLOCK).tolist()
            return block

        self.fill_first = fill_first
        self.draw = chain.from_iterable(_blocks(fill, fill_first, before_second)).__next__


def samplers(rng: np.random.Generator) -> tuple[BufferedSampler, BufferedSampler]:
    """The exponential and the uniform sampler ``(exp, uni)`` of one
    stream. The exponential's first block is filled here; the uniform's
    on its first draw, or just before the exponential fills its second
    block, whichever comes first. That is the place in the stream that
    building both eagerly, exponential first, gives it, so every value
    is the same, but a run that never draws a uniform never fills one.
    """
    uni = BufferedSampler(rng.random)
    exp = BufferedSampler(rng.standard_exponential, before_second=uni.fill_first)
    exp.fill_first()
    return exp, uni


# ---------------------------------------------------------------------------
# Batches and their runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSummary:
    """A run's finish time (None if cut off) and event count; its
    replicate is its position in the batch."""

    finish_time: float | None
    events: int


def _summary(t: float, count: int) -> RunSummary:
    return RunSummary(None if t != t else t, count)


class RunBatch(Sequence):
    """The runs of a batch as columns in replicate order: ``times``, an
    ``array('d')`` of finish (or hitting) times with NaN for a run that was
    cut off (no time is otherwise NaN), and ``events``, an ``array('q')``
    of event counts. Item k is replicate k's ``RunSummary``, built on
    access; a slice is a list of them. ``extend`` appends another batch's
    columns, each that ``_COLUMNS`` names, where a subclass adds its own."""

    __slots__ = ("times", "events")
    _COLUMNS = {"times": "d", "events": "q"}  # column -> its array typecode

    def __init__(self):
        for name, typecode in self._COLUMNS.items():
            setattr(self, name, array(typecode))

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(map(_summary, self.times[k], self.events[k]))
        return _summary(self.times[k], self.events[k])

    def __iter__(self):
        return map(_summary, self.times, self.events)

    def extend(self, other: RunBatch) -> None:
        for name in self._COLUMNS:
            getattr(self, name).extend(getattr(other, name))

# Fewest units of work a forked batch gives each of its processes: a fork
# and its collection cost a few ms, which a shorter range does not win
# back. A batch's work is its replicates times each one's cost: n nodes for
# an engine or a two-phase run, the points a cluster run grows to
# (target_count); a chain counts its own. Each was measured to pay off from
# 2^14 per range on 2 CPUs. Ring 256 x 128 (2^15, two ranges of 2^14) took
# 89.5 ms in-process and 50.1 ms forked, and ring 256 x 64 (2^14) 31.9
# against 36.1; its sequential two-phase batch, the cheapest per node, 19.0
# against 15.1. Line clusters, the cheapest growth per point, took 21.1 ms
# in-process and 14.4 ms forked at target 1024 x 32 replicates (2^15), and
# 8.5 against 9.4 at 512 x 32 (2^14).
_FORK_RANGE_WORK = 1 << 14
_SIGKILL = 9  # POSIX, where os.fork exists


def run_batch(run, seed: int, channel: int, replicates, cost: int):
    """``run(replicate_streams(seed, channel, hi, lo), lo)``, the results of
    replicates lo..hi-1 in a ``RunBatch`` (or a subclass) or an
    ``array('d')``, over contiguous ranges of replicates 0..R-1
    (``replicate_count`` checks R), concatenated in replicate order by the
    first range's ``extend``; ``cost`` is one replicate's work in the units
    of ``_FORK_RANGE_WORK``.

    The batch runs on W processes: the CPUs the process may use
    (``os.sched_getaffinity``, else ``os.cpu_count``), lowered until each
    range gets ``_FORK_RANGE_WORK`` units of work and at least one
    replicate. It forks only when W >= 2, ``os.fork`` exists, no profiler
    or tracer is attached and only one Python thread runs; it then runs
    the first range here and each other in a forked child, which sends
    back its results, or its error, pickled through a pipe. When ranges
    fail, the earliest one's error is raised, the error an in-process
    batch raises first. If no pipe or process can be had (a process or
    descriptor limit), the children already forked are killed and the
    whole batch runs here as one range. No child outlives the call, and
    the results are the same on any number of CPUs.
    """
    replicates = replicate_count(replicates)

    def task(lo: int, hi: int):
        return run(replicate_streams(seed, channel, hi, lo), lo)

    return _batch(task, replicates, _workers(replicates, replicates * cost))


def _workers(replicates: int, work: int) -> int:
    """The number of processes a batch runs on: one per usable CPU, but
    no more than give each range ``_FORK_RANGE_WORK`` units of work, and
    1 when the process may not fork."""
    most = min(replicates, work // _FORK_RANGE_WORK)
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


def _batch(task, replicates: int, workers: int):
    """The results ``task(lo, hi)`` returns for ``workers`` contiguous
    ranges of 0..R-1, each with ``extend`` (a ``RunBatch``, an ``array``),
    concatenated into the first: the first range runs here, each other in
    a forked child, which sends its result back pickled; with one worker,
    or no pipe or process, all run here as one range."""
    bounds = [replicates * i // workers for i in range(workers + 1)]
    children = []  # (pid, pipe's read end, first replicate) of unreaped children
    try:
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                children.append(_fork(task, lo, hi))
        except OSError:  # a process or descriptor limit: forking only saves time
            _kill(children)
            bounds = [0, replicates]
        out = task(0, bounds[1])
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


def _fork(task, lo: int, hi: int):
    """Fork a child running ``task(lo, hi)``; return its pid, the read end
    of its pipe and ``lo``. OSError if no pipe or process can be had."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        os.close(read)
        _child(task, lo, hi, write)
    os.close(write)
    return pid, open(read, "rb"), lo


def _kill(children: list) -> None:
    """Kill and reap the children still listed, and empty the list."""
    for pid, pipe, _ in children:
        pipe.close()
        os.kill(pid, _SIGKILL)
        os.waitpid(pid, 0)
    children.clear()


def _child(task, lo: int, hi: int, write: int):
    """In a forked child: write ``(True, task(lo, hi))`` or ``(False,
    error)`` to ``write`` pickled, and exit without returning to the
    caller's code."""
    try:
        try:
            result = (True, task(lo, hi))
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
