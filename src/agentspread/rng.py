"""Counter-based random number streams.

All randomness in the package flows through Philox, a counter-based
generator whose output is a pure function of its 128-bit key. A stream is
addressed by ``(seed, index)``; the index packs a replicate number and a
channel tag so that independent consumers of the same master seed never
collide:

    index = (replicate << 3) | channel

Reproducibility is bit-exact across platforms for a fixed numpy version,
and partial re-runs are possible because any stream can be reconstructed
from its address alone.

Every batch of replicates takes its streams, and has its count checked,
in ``replicate_streams``, which rewinds one Generator with ``reseed``;
each run reads its stream through the exponential/uniform pair that
``samplers`` builds. The uniform sampler fills its first block lazily,
at the place in the stream an eager one would, so a run that draws no
uniform skips that fill and every value stays the same.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

import numpy as np

from .errors import InvalidParameterError, integral

_MASK64 = (1 << 64) - 1

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


def substream(seed: int, replicate: int, channel: int) -> np.random.Generator:
    """Stream for one (replicate, channel) pair under a master seed."""
    return stream(seed, (replicate << 3) | channel)


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


def reseed(gen: np.random.Generator, seed: int, index: int) -> np.random.Generator:
    """Rewind a Philox-backed Generator to the fresh state of ``(seed, index)``.

    Bit-identical to constructing ``stream(seed, index)`` but several
    times cheaper, which matters for batches of many short replicates.
    """
    _FRESH_KEY[0] = seed & _MASK64
    _FRESH_KEY[1] = index & _MASK64
    gen.bit_generator.state = _FRESH_STATE
    return gen


def replicate_streams(
    seed: int, channel: int, replicates: int
) -> Iterator[np.random.Generator]:
    """The streams of replicates 0..R-1 of ``(seed, channel)``: one
    Generator, rewound by ``reseed`` to ``substream(seed, k, channel)``'s
    address before it is handed out as replicate k, so use each before
    asking for the next. A bad count raises on the call."""
    replicates = integral("replicates", replicates)
    if replicates < 1:
        raise InvalidParameterError(f"replicates must be >= 1, got {replicates}")
    gen = stream(seed, channel)
    return (reseed(gen, seed, (k << 3) | channel) for k in range(replicates))


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
