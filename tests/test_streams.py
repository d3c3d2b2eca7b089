import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reedsim.streams import StreamKey


def test_same_key_bit_identical():
    k = StreamKey(123, (1, 2, 3))
    a = k.generator().standard_normal(100)
    b = k.generator().standard_normal(100)
    assert np.array_equal(a, b)


def test_child_extends_path():
    k = StreamKey(5)
    assert k.child(1, 2).path == (1, 2)
    assert k.child(1).child(2).path == (1, 2)


def test_sibling_paths_differ():
    k = StreamKey(9)
    a = k.child(0).generator().standard_normal(10)
    b = k.child(1).generator().standard_normal(10)
    assert not np.array_equal(a, b)


def test_sibling_independence_correlation():
    k = StreamKey(2024)
    n = 100_000
    a = k.child(0).generator().standard_normal(n)
    b = k.child(1).generator().standard_normal(n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def test_seed_changes_stream():
    a = StreamKey(1, (0,)).generator().standard_normal(10)
    b = StreamKey(2, (0,)).generator().standard_normal(10)
    assert not np.array_equal(a, b)


@given(seed=st.integers(0, 2**63 - 1),
       path=st.lists(st.integers(0, 10_000), max_size=5))
def test_reproducible_for_any_key(seed, path):
    k = StreamKey(seed, tuple(path))
    assert np.array_equal(k.generator().standard_normal(5),
                          k.generator().standard_normal(5))


def test_path_prefix_not_aliased():
    # (1,) and (1, 0) must be distinct streams
    k = StreamKey(77)
    a = k.child(1).generator().standard_normal(10)
    b = k.child(1, 0).generator().standard_normal(10)
    assert not np.array_equal(a, b)


# seeds of one, two and five 32-bit words (SeedSequence pads a seed to 4
# words only when it is shorter); path entries of one and of several words
_SEEDS = st.sampled_from([0, 2**32, 2**63 - 1, 2**130 + 7]) | st.integers(0, 2**64)
_ENTRY = st.integers(0, 40) | st.integers(2**32, 2**70)


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, prefix=st.lists(_ENTRY, max_size=4),
       shape=st.lists(st.integers(1, 4), min_size=1, max_size=3), data=st.data())
def test_grid_matches_seed_sequence(seed, prefix, shape, data):
    key = StreamKey(seed, tuple(prefix))
    grid = key.grid(*shape)
    index = tuple(data.draw(st.integers(0, n - 1)) for n in shape)
    leaf, plain = grid.child(*index), key.child(*index)
    expected = np.random.SeedSequence(seed, spawn_key=plain.path).generate_state(3, np.uint64)
    assert np.array_equal(leaf.keys, expected)
    assert np.array_equal(leaf.generator().random(4), plain.generator().random(4))


@pytest.mark.parametrize("seed", [0, 2**32, 2**63 - 1, 2**130 + 7])
@pytest.mark.parametrize("prefix", [(), (3,), (2**32, 1), (0, 7, 2**40, 5)])
def test_every_grid_key_matches_seed_sequence(seed, prefix):
    key = StreamKey(seed, prefix)
    grid = key.grid(3, 2, 2)
    for index in np.ndindex(3, 2, 2):
        # a leaf reached in steps is the leaf reached at once
        leaf = grid.child(index[0]).child(*index[1:])
        expected = np.random.SeedSequence(seed, spawn_key=prefix + index).generate_state(
            3, np.uint64)
        assert np.array_equal(leaf.keys, expected)
        # a leaf's words are a strided row of the grid's array, and SFC64
        # reads a raw buffer: equal words can still seed another state, so
        # compare the draws too
        assert np.array_equal(leaf.generator().random(4),
                              key.child(*index).generator().random(4))


def test_streams_are_sfc64():
    key = StreamKey(4, (1,))
    for k in (key, key.grid(2).child(1)):
        assert type(k.generator().bit_generator) is np.random.SFC64


def test_grid_leaf_equals_plain_key():
    key = StreamKey(31, (2,))
    leaf, plain = key.grid(4, 3).child(2, 1), key.child(2, 1)
    assert leaf == plain
    assert hash(leaf) == hash(plain)
    assert {leaf: 1}[plain] == 1


def test_grid_node_is_not_a_leaf():
    grid = StreamKey(8).grid(2, 3)
    for node in (grid, grid.child(1)):
        with pytest.raises(ValueError, match="not a leaf"):
            node.generator()


def test_child_outside_grid_is_plain_key():
    key = StreamKey(8, (1,))
    grid = key.grid(2, 3)
    for index in ((1, 3), (2, 0), (1, 2, 5)):
        child = grid.child(*index)
        assert child.keys is None
        assert child == key.child(*index)
        assert np.array_equal(child.generator().random(3), key.child(*index).generator().random(3))
    # NumPy would wrap a negative index; it addresses no stream of the grid
    assert grid.child(-1, 0).keys is None
