"""Seeded random streams: one stream per (seed, name, indices) key, the same
whatever else was drawn and in whatever order the streams were made."""

import numpy as np

from skullsynth.seeding import stream


def _draws(rng):
    return rng.random(8)


def test_same_key_gives_the_same_draws():
    np.testing.assert_array_equal(_draws(stream(3, "cut.draw", 4, 1)),
                                  _draws(stream(3, "cut.draw", 4, 1)))


def test_another_seed_name_or_index_gives_other_draws():
    base = _draws(stream(3, "cut.draw", 4, 1))
    for other in (stream(4, "cut.draw", 4, 1), stream(3, "cut.patch", 4, 1),
                  stream(3, "cut.draw", 5, 1), stream(3, "cut.draw", 4, 0),
                  stream(3, "cut.draw", 4), stream(3, "cut.draw", 1, 4)):
        assert not np.array_equal(_draws(other), base)


def test_draws_do_not_depend_on_the_order_streams_are_made():
    a, b = stream(0, "augment", 0), stream(0, "augment", 1)
    b_first, a_then = _draws(stream(0, "augment", 1)), _draws(stream(0, "augment", 0))
    np.testing.assert_array_equal(_draws(a), a_then)
    np.testing.assert_array_equal(_draws(b), b_first)


def test_numpy_and_python_integers_give_the_same_stream():
    np.testing.assert_array_equal(
        _draws(stream(np.int64(7), "phantom.case", np.int64(2), np.int32(5))),
        _draws(stream(7, "phantom.case", 2, 5)))
