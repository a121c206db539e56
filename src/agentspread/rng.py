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
in ``replicate_streams``.
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


def reseed(gen: np.random.Generator, seed: int, index: int) -> np.random.Generator:
    """Rewind a Philox-backed Generator to the fresh state of ``(seed, index)``.

    Bit-identical to constructing ``stream(seed, index)`` but several
    times cheaper, which matters for batches of many short replicates.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
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


def _blocks(fill, first):
    """``first``, then blocks of 128, 256, ... up to 4096, 4096, ... from
    ``fill``, each filled only when the one before it is used up."""
    yield first
    size = _FIRST_BLOCK
    while True:
        size = min(2 * size, _MAX_BLOCK)
        yield fill(size).tolist()


class BufferedSampler:
    """Buffered draws from one numpy fill method, such as
    ``rng.standard_exponential`` (scale by ``1/rate`` at the call site) or
    ``rng.random`` for uniform(0,1).

    ``draw()`` returns the next value. Values come off the stream in
    blocks of 64 doubling to 4096, so short runs stay cheap: the first
    block is filled on construction, each later one on the draw that
    needs it. ``draw`` is the ``__next__`` of an ``itertools.chain`` over
    the blocks, so a draw runs no Python code except once per block.
    Samplers sharing one Generator, as the engine and the bounding
    processes build them, take turns on it block by block, so their
    values depend on the block sizes (a lone sampler's do not).
    """

    __slots__ = ("draw",)

    def __init__(self, fill):
        self.draw = chain.from_iterable(_blocks(fill, fill(_FIRST_BLOCK).tolist())).__next__
