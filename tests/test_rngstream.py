"""Counter-based RNG stream contract: keyed, reproducible, well-mixed."""

import numpy as np
from scipy import stats

from qksd import rngstream


def test_stream_key_deterministic_and_sensitive():
    k = rngstream.stream_key(3, 14, 1, 5, 9, 2, 6)
    assert k == rngstream.stream_key(3, 14, 1, 5, 9, 2, 6)
    assert k != rngstream.stream_key(3, 14, 1, 5, 9, 2, 7)
    assert k != rngstream.stream_key(4, 14, 1, 5, 9, 2, 6)
    assert 0 <= k < 2**64


def test_stream_keys_matches_scalar():
    trials = np.arange(6)
    ks = np.arange(4)
    keys = rngstream.stream_keys(7, trials[:, None], 2, ks[None, :], 0, 1, 0)
    assert keys.shape == (6, 4)
    for t in range(6):
        for a in range(4):
            assert int(keys[t, a]) == rngstream.stream_key(7, t, 2, a, 0, 1, 0)
    # the shape grows after a scalar field and again at the last field
    keys = rngstream.stream_keys(7, trials[:, None, None], 2, ks[:, None], 0, 1, [5, -1])
    assert keys.shape == (6, 4, 2)
    for t, a, c in np.ndindex(keys.shape):
        assert int(keys[t, a, c]) == rngstream.stream_key(7, t, 2, a, 0, 1, (5, -1)[c])


def test_stream_keys_accepts_negative_seed():
    # int64 inputs may be negative; the cast must wrap, not raise
    keys = rngstream.stream_keys(-3, np.arange(4), 0, 0, 0, 0, 0)
    for t in range(4):
        assert int(keys[t]) == rngstream.stream_key(-3, t, 0, 0, 0, 0, 0)


def test_normals_standard_moments():
    keys = rngstream.stream_keys(5, np.arange(2000), 1)
    z = rngstream.normals(keys, 100)
    assert z.shape == (2000, 100)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # two-sided KS against the standard normal, across keys and along rows
    d, p = stats.kstest(z[:, 0], "norm")
    assert p > 1e-4
    d, p = stats.kstest(z[:200].ravel(), "norm")
    assert p > 1e-4


def test_generator_seating():
    """A key's PCG64 starts at state hi << 64 | mix(hi + golden) with
    hi = mix(key + golden), and every stream shares one odd increment."""
    golden, mix = rngstream._GOLDEN, rngstream._mix_int
    for key in (0, 1, 2**63 + 5, 2**64 - 1, rngstream.stream_key(7, 3, 1)):
        hi = mix(key + golden)
        assert rngstream.generator(key).bit_generator.state["state"] == {
            "state": hi << 64 | mix(hi + golden),
            "inc": (golden << 64 | rngstream._INIT) | 1,
        }


def test_streams_draw_as_generator():
    """Re-seating one generator per key draws what a new generator per key does,
    even after a binomial draw that leaves cached constants behind; a row of
    normals is its key's generator's first draws."""
    keys = rngstream.stream_keys(3, np.arange(5), 0)
    m, p = np.array([40, 7, 1000]), np.array([0.3, 0.9, 0.5])
    for key, gen in zip(keys, rngstream.streams(keys)):
        fresh = rngstream.generator(int(key))
        np.testing.assert_array_equal(gen.binomial(m, p), fresh.binomial(m, p))
        assert gen.standard_normal() == fresh.standard_normal()
    assert [next(rngstream.streams([k])).random() for k in keys] == [
        rngstream.generator(k).random() for k in keys
    ]
    for key, row in zip(keys, rngstream.normals(keys, 6)):
        np.testing.assert_array_equal(row, rngstream.generator(key).standard_normal(6))


def test_generator_reproducible():
    g1 = rngstream.generator(1234)
    g2 = rngstream.generator(1234)
    a = g1.binomial(1000, 0.3, size=8)
    b = g2.binomial(1000, 0.3, size=8)
    np.testing.assert_array_equal(a, b)
    g3 = rngstream.generator(1235)
    assert not np.array_equal(a, g3.binomial(1000, 0.3, size=8))
