import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reedsim import streams
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


def _seed_sequence_draws(seed, path, n=4):
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=path))).random(n)


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, prefix=st.lists(_ENTRY, max_size=4),
       index=st.lists(_ENTRY, max_size=3))
def test_generator_matches_seed_sequence(seed, prefix, index):
    key = StreamKey(seed, tuple(prefix))
    expected = _seed_sequence_draws(seed, tuple(prefix + index))
    assert np.array_equal(key.generator(*index).random(4), expected)
    assert np.array_equal(key.child(*index).generator().random(4), expected)


@pytest.mark.parametrize("seed", [0, 2**32, 2**63 - 1, 2**130 + 7])
@pytest.mark.parametrize("prefix", [(), (3,), (2**32, 1), (0, 7, 2**40, 5)])
def test_every_grid_key_matches_seed_sequence(seed, prefix):
    # every key of a (3, 2, 2) grid of child indices below the prefix
    key = StreamKey(seed, prefix)
    for index in np.ndindex(3, 2, 2):
        # a leaf reached in steps is the leaf reached at once
        leaf = key.child(index[0]).child(*index[1:])
        assert leaf == key.child(*index)
        expected = _seed_sequence_draws(seed, prefix + index)
        assert np.array_equal(leaf.generator().random(4), expected)
        assert np.array_equal(key.generator(*index).random(4), expected)


def test_streams_are_sfc64():
    key = StreamKey(4, (1,))
    for rng in (key.generator(), key.generator(1)):
        assert type(rng.bit_generator) is np.random.SFC64


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


def test_generator_by_index_on_plain_keys():
    key = StreamKey(63, (1,))
    for index in ((), (0,), (3, 7), (2**33, 0, 1)):
        _assert_generator_is_child_generator(key, index)
    # a negative index addresses no stream
    for index in ((-1, 0), (0, -1)):
        _assert_generator_is_child_generator(key, index)
        with pytest.raises(ValueError):
            key.generator(*index)
    # the indices child() accepts: NumPy integers, and int() of the rest
    for index in ((np.int64(1), np.uint8(0)), (True, 1.0)):
        _assert_generator_is_child_generator(key, index)
    for index in (("a", 0), (None,)):
        _assert_generator_is_child_generator(key, index)
        with pytest.raises((ValueError, TypeError)):
            key.generator(*index)


def test_streams_are_built_only_in_streams_module():
    # every stream is built through StreamKey.generator, which the tests
    # and the benchmark's tracer count; generators are passed between
    # modules, so a stray build elsewhere would escape both
    src = pathlib.Path(streams.__file__).parent
    builders = ("SFC64(", "Generator(", "SeedSequence(", "default_rng(")
    stray = [(path.name, lineno, line.strip())
             for path in sorted(src.glob("*.py")) if path.name != "streams.py"
             for lineno, line in enumerate(path.read_text().splitlines(), start=1)
             if any(builder in line for builder in builders)]
    assert stray == []
