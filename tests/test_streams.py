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
        # SFC64 reads a leaf's words from the raw buffer, ignoring strides:
        # equal words laid out otherwise would seed another state, so
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


def _draws_or_error(build):
    """The first draws of ``build()``'s generator, or its error's type and
    message."""
    try:
        return build().random(4).tolist()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _assert_generator_is_child_generator(key, index):
    assert _draws_or_error(lambda: key.generator(*index)) == \
        _draws_or_error(lambda: key.child(*index).generator())


def test_generator_by_index_on_grid_leaves():
    key = StreamKey(61, (2, 5))
    grid = key.grid(3, 2, 2)
    for index in np.ndindex(3, 2, 2):
        _assert_generator_is_child_generator(grid, index)
        # from a node part way down, and from the plain key
        _assert_generator_is_child_generator(grid.child(index[0]), index[1:])
        _assert_generator_is_child_generator(key, index)
        assert np.array_equal(grid.generator(*index).random(4),
                              key.child(*index).generator().random(4))


def test_generator_by_index_off_the_leaves():
    key = StreamKey(62, (4,))
    grid = key.grid(3, 2)
    # partial indices address grid nodes, which have no generator
    for index in ((), (0,), (2,)):
        _assert_generator_is_child_generator(grid, index)
        with pytest.raises(ValueError, match=r"^stream \(4,( \d)?\) is a grid node"):
            grid.generator(*index)
    # out of range or past the leaves: plain keys of the same stream
    for index in ((3, 0), (0, 2), (1, 1, 0), (2**40, 1)):
        _assert_generator_is_child_generator(grid, index)
        assert np.array_equal(grid.generator(*index).random(4),
                              StreamKey(62, (4,) + index).generator().random(4))
    # a negative index addresses no stream, on the grid or off it
    for index in ((-1, 0), (0, -1)):
        _assert_generator_is_child_generator(grid, index)
        with pytest.raises(ValueError):
            grid.generator(*index)
    # the indices child() accepts: NumPy integers, and int() of the rest
    for index in ((np.int64(1), np.uint8(0)), (True, 1.0)):
        _assert_generator_is_child_generator(grid, index)
    for index in (("a", 0), (None,)):
        _assert_generator_is_child_generator(grid, index)
        with pytest.raises((ValueError, TypeError)):
            grid.generator(*index)


def test_generator_by_index_on_plain_keys():
    key = StreamKey(63, (1,))
    for index in ((), (0,), (3, 7), (2**33, 0, 1)):
        _assert_generator_is_child_generator(key, index)
    # a leaf's child is a plain key below the leaf
    leaf = key.grid(2).child(1)
    _assert_generator_is_child_generator(leaf, ())
    _assert_generator_is_child_generator(leaf, (0,))


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, prefix=st.lists(_ENTRY, max_size=3),
       shape=st.lists(st.integers(1, 4), min_size=1, max_size=3), data=st.data())
def test_generator_by_index_over_grid_shapes(seed, prefix, shape, data):
    grid = StreamKey(seed, tuple(prefix)).grid(*shape)
    # in range or one past it, leaves, partial and past the leaves
    index = tuple(data.draw(st.lists(st.integers(-1, 4), max_size=len(shape) + 1)))
    _assert_generator_is_child_generator(grid, index)
    leaf = tuple(data.draw(st.integers(0, n - 1)) for n in shape)
    _assert_generator_is_child_generator(grid, leaf)
