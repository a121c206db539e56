"""Counter-based streams and the buffered sampler's fill order."""

from agentspread.rng import BufferedSampler, stream

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
    # Two samplers on one Generator: each fills 64 on construction, in
    # construction order, then 128, 256, ..., 4096, 4096 as each runs out.
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


def test_lone_sampler_equals_one_fill():
    total = 20_000  # ends inside a 4096 block
    exp = BufferedSampler(stream(4, 2).standard_exponential)
    assert [exp.draw() for _ in range(total)] == stream(4, 2).standard_exponential(total).tolist()
    uni = BufferedSampler(stream(4, 2).random)
    assert [uni.draw() for _ in range(total)] == stream(4, 2).random(total).tolist()
