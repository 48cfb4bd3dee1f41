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


def test_uniforms_open_interval_and_moments():
    keys = rngstream.stream_keys(11, np.arange(200_000), 0, 0, 0, 0, 0)
    u = rngstream.uniforms(keys)
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normals_standard_moments():
    keys = rngstream.stream_keys(5, np.arange(200_000), 1, 0, 0, 0, 0)
    z = rngstream.normals(keys)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # two-sided KS against the standard normal
    d, p = stats.kstest(z[:20_000], "norm")
    assert p > 1e-4


def test_generator_reproducible():
    g1 = rngstream.generator(1234)
    g2 = rngstream.generator(1234)
    a = g1.binomial(1000, 0.3, size=8)
    b = g2.binomial(1000, 0.3, size=8)
    np.testing.assert_array_equal(a, b)
    g3 = rngstream.generator(1235)
    assert not np.array_equal(a, g3.binomial(1000, 0.3, size=8))
