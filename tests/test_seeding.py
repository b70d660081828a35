import numpy as np
import pytest

from ctrlz import keyed_rng, mix_seed

WORD_BOUNDARIES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]


def numpy_keyed_rng(*key):
    """The generator numpy builds when it coerces the key itself."""
    return np.random.default_rng(np.random.SeedSequence(key))


@pytest.mark.parametrize(
    "key",
    [(k,) for k in WORD_BOUNDARIES]
    + [(2**32, 0), (0, 2**64 - 1, 3), (2**32 - 1, 2**32, 7, 0), (5, 0, 0, 0)]
    + [(mix_seed(20260810, i), t, depth, c) for i, t, depth, c in ((0, 0, 0, 0), (3, 50, 1, 4), (199, 17, 3, 2))]
    + [(mix_seed(2**64 - 1, 2**32),), (mix_seed(0, 0), 0)],
)
def test_keyed_rng_matches_numpy_key_coercion(key):
    ours, theirs = keyed_rng(*key), numpy_keyed_rng(*key)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert ours.standard_normal(8).tobytes() == theirs.standard_normal(8).tobytes()


def test_keyed_rng_rejects_a_negative_key():
    for key in [(-1,), (3, -2**40)]:
        with pytest.raises(ValueError):
            keyed_rng(*key)
        with pytest.raises(ValueError):  # numpy's coercion refuses it too
            numpy_keyed_rng(*key)
