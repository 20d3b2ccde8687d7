import numpy as np

from cutpaste.rng import RngStream, as_stream


def test_first_uniforms_are_pinned():
    # a change of bit generator or of seeding moves these
    assert RngStream(0).generator().random(4).tolist() == [
        0.5686892493917326,
        0.23483041728695253,
        0.39642143170337907,
        0.10163677903901869,
    ]
    child = RngStream(0).derive("paintbox-path")
    assert child == RngStream(0, 13311053590104449049)
    assert child.generator().random(4).tolist() == [
        0.927164368144008,
        0.36959246998899264,
        0.2005856206962483,
        0.7372952347835265,
    ]


def test_generator_is_fresh_at_draw_zero():
    stream = RngStream(7, 3)
    gen = stream.generator()
    first = gen.random(5)
    gen.random(100)
    assert np.array_equal(stream.generator().random(5), first)
    # reading in pieces is reading in one block
    pieces = stream.generator()
    assert np.array_equal(np.concatenate([pieces.random(2), pieces.random(3)]), first)


def test_derive_is_deterministic_in_label_and_index():
    stream = RngStream(11)
    assert stream.derive("a", 2) == RngStream(11).derive("a", 2)
    assert stream.derive("a") == stream.derive("a", 0)
    children = {stream.derive(label, index) for label in ("a", "b") for index in (0, 1, -1)}
    assert len(children) == 6
    assert all(child.seed == 11 for child in children)
    # the parent's stream id is hashed in too
    assert RngStream(11, 1).derive("a") != stream.derive("a")
    assert not np.array_equal(stream.derive("a").generator().random(3), stream.derive("b").generator().random(3))


def test_seed_and_stream_are_masked_to_64_bits():
    wide = RngStream(-1, (1 << 64) + 5)
    assert wide == RngStream((1 << 64) - 1, 5)
    assert np.array_equal(wide.generator().random(3), RngStream((1 << 64) - 1, 5).generator().random(3))
    assert RngStream(1 << 64) == RngStream(0)


def test_as_stream_keeps_streams_and_wraps_ints():
    stream = RngStream(3, 9)
    assert as_stream(stream) is stream
    assert as_stream(3) == RngStream(3)
