"""Random stream registry: determinism and independence."""

import numpy as np

from repro.sim.rng import RandomStreams


def test_same_seed_and_name_reproduces_sequence():
    a = RandomStreams(seed=42).get("mac:P1")
    b = RandomStreams(seed=42).get("mac:P1")
    assert list(a.integers(0, 1000, 20)) == list(b.integers(0, 1000, 20))


def test_different_names_give_different_sequences():
    streams = RandomStreams(seed=42)
    a = list(streams.get("mac:P1").integers(0, 10**9, 10))
    b = list(streams.get("mac:P2").integers(0, 10**9, 10))
    assert a != b


def test_different_seeds_differ():
    a = list(RandomStreams(seed=1).get("x").integers(0, 10**9, 10))
    b = list(RandomStreams(seed=2).get("x").integers(0, 10**9, 10))
    assert a != b


def test_creation_order_is_irrelevant():
    one = RandomStreams(seed=7)
    one.get("a")
    seq_b_after = list(one.get("b").integers(0, 10**9, 5))
    two = RandomStreams(seed=7)
    seq_b_first = list(two.get("b").integers(0, 10**9, 5))
    assert seq_b_after == seq_b_first


def test_get_returns_same_generator_instance():
    streams = RandomStreams()
    assert streams.get("x") is streams.get("x")


def test_contains():
    streams = RandomStreams()
    assert "x" not in streams
    streams.get("x")
    assert "x" in streams


def test_uniform_slots_bounds():
    streams = RandomStreams(seed=3)
    draws = [streams.uniform_slots("s", 1, 4) for _ in range(500)]
    assert min(draws) == 1
    assert max(draws) == 4


def test_uniform_slots_covers_range_roughly_uniformly():
    streams = RandomStreams(seed=3)
    draws = [streams.uniform_slots("s", 1, 4) for _ in range(4000)]
    counts = np.bincount(draws, minlength=5)[1:5]
    assert all(800 < c < 1200 for c in counts)


def test_uniform_slots_degenerate_range():
    streams = RandomStreams(seed=3)
    assert streams.uniform_slots("s", 2, 2) == 2
    # high < low clamps to low
    assert streams.uniform_slots("s", 3, 1) == 3


#: Two distinct stream names with equal crc32 (778778684): the first pair a
#: brute-force search over ``f"s{i}"`` finds.
CRC32_COLLIDING_PAIR = ("s29685295", "s32060020")


def test_crc32_collision_raises_instead_of_sharing_a_seed():
    import zlib

    import pytest

    first, second = CRC32_COLLIDING_PAIR
    assert first != second
    assert zlib.crc32(first.encode("utf-8")) == zlib.crc32(second.encode("utf-8"))

    streams = RandomStreams(seed=42)
    streams.get(first)
    with pytest.raises(ValueError, match="collides"):
        streams.get(second)

    # Creation order must not matter: the survivor is whichever came first.
    streams = RandomStreams(seed=42)
    streams.get(second)
    with pytest.raises(ValueError, match="collides"):
        streams.get(first)


def test_collision_guard_leaves_repeat_lookups_alone():
    streams = RandomStreams(seed=42)
    a = streams.get("mac:P1")
    assert streams.get("mac:P1") is a  # same name re-registers freely
