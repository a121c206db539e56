"""Counter-based streams, replicate batches and the buffered sampler's
fill order."""

import numpy as np
import pytest

from agentspread import rng
from agentspread.errors import InvalidParameterError
from agentspread.rng import BufferedSampler, replicate_streams, stream, substream

from oracles import ReferenceSampler

BLOCKS = [64, 128, 256, 512, 1024, 2048] + [4096] * 8  # 16,320 values


def turn_fills(gen):
    """Exponential and uniform values of ``gen`` filled in turn, block by
    block: what an exp sampler built before a uniform one must draw."""
    exp, uni = [], []
    for size in BLOCKS:
        exp += gen.standard_exponential(size).tolist()
        uni += gen.random(size).tolist()
    return exp, uni


def test_samplers_sharing_a_generator_fill_in_turn():
    # Two samplers on one Generator: each fills 64 on its first draw, then
    # 128, 256, ..., 4096, 4096 as each runs out.
    gen = stream(3, 5)
    exp = BufferedSampler(gen.standard_exponential)
    uni = BufferedSampler(gen.random)
    got_exp, got_uni = [exp.draw() for _ in range(64)], [uni.draw() for _ in range(64)]
    for size in BLOCKS[1:]:
        got_exp += [exp.draw() for _ in range(size)]
        got_uni += [uni.draw() for _ in range(size)]
    assert len(got_exp) == len(got_uni) >= 10_000
    assert (got_exp, got_uni) == turn_fills(stream(3, 5))


def test_samplers_interleaved_draw_by_draw():
    # One exp draw per uniform draw: both run out of each block together,
    # the exp sampler first, so it fills first.
    gen = stream(8, 1)
    exp = BufferedSampler(gen.standard_exponential)
    uni = BufferedSampler(gen.random)
    got = [(exp.draw(), uni.draw()) for _ in range(sum(BLOCKS))]
    assert got == list(zip(*turn_fills(stream(8, 1))))


@pytest.mark.parametrize(
    "exp_first,uni_first", [(0, 0), (1, 0), (64, 0), (65, 0), (300, 0), (0, 1)]
)
def test_sampler_pair_equals_two_eager_samplers(exp_first, uni_first):
    # The pair's lazy uniform block comes off the stream where an eager
    # uniform sampler, built after the exponential one, takes it: whether
    # the first uniform draw comes before or after the exponential
    # sampler's second block, or before any exponential draw.
    gen = stream(6, exp_first)
    exp, uni = rng.samplers(gen)
    eager_gen = stream(6, exp_first)
    eager = ReferenceSampler(eager_gen.standard_exponential), ReferenceSampler(eager_gen.random)
    pattern = [1] * uni_first + [0] * exp_first + [0, 1, 0, 0, 1] * 2000
    got = [(exp, uni)[i].draw() for i in pattern]
    assert got == [eager[i].draw() for i in pattern]


def test_sampler_pair_fills_no_uniform_block_before_it_is_needed():
    gen = stream(2, 9)
    exp, uni = rng.samplers(gen)
    assert [exp.draw() for _ in range(64)] == stream(2, 9).standard_exponential(64).tolist()
    # the stream gave its first block of exponentials and nothing else
    fresh = stream(2, 9)
    fresh.standard_exponential(64)
    assert gen.random(5).tolist() == fresh.random(5).tolist()


def test_lone_sampler_equals_one_fill():
    total = 20_000  # ends inside a 4096 block
    exp = BufferedSampler(stream(4, 2).standard_exponential)
    assert [exp.draw() for _ in range(total)] == stream(4, 2).standard_exponential(total).tolist()
    uni = BufferedSampler(stream(4, 2).random)
    assert [uni.draw() for _ in range(total)] == stream(4, 2).random(total).tolist()


def mixed_draws(gen):
    """Doubles, then one 32-bit integer: the Generator is left mid-buffer
    and holding the unused half of a 64-bit word (``has_uint32``)."""
    out = gen.standard_exponential(5).tolist() + gen.random(3).tolist()
    out.append(int(gen.integers(0, 1000, dtype=np.uint32)))
    return out


@pytest.mark.parametrize("channel", [rng.CH_ENGINE, rng.CH_PROCESS, rng.CH_DERIVE])
def test_replicate_streams_are_the_substreams(channel):
    # Each replicate is handed the Generator the one before it left dirty;
    # it must still draw exactly what a fresh substream draws.
    count = 0
    for k, gen in enumerate(replicate_streams(11, channel, 5)):
        assert mixed_draws(gen) == mixed_draws(substream(11, k, channel))
        state = gen.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
        count += 1
    assert count == 5


@pytest.mark.parametrize(
    "count,message",
    [(0, "replicates must be >= 1, got 0"), (-3, "replicates must be >= 1, got -3"),
     (2.5, "replicates must be an integer"), ("2", "replicates must be an integer")],
)
def test_replicate_streams_checks_the_count_on_the_call(count, message):
    # The batch is refused when it is asked for, before any stream is used.
    with pytest.raises(InvalidParameterError, match=message):
        replicate_streams(11, rng.CH_ENGINE, count)
