"""Deterministic, schedule-independent random streams.

Keys come from a splitmix64 absorption chain over integer coordinates, so a
result never depends on which worker drew it or in what order.  Gaussian draws
are keyed per coordinate (seed, trial, target, element, fragment,
configuration) and map the key's hashed 64-bit word through the inverse normal
CDF, which keeps ensemble generation fully vectorized.  `stream_keys` absorbs
each field at the broadcast shape of the fields before it, so fields that vary
over few axes are hashed over few elements; the hash is elementwise, so every
key equals its scalar `stream_key`.  Binomial draws need a stateful
algorithm: an ensemble seeds one PCG64 generator per (seed, trial, target)
and draws that trial's sampled coordinates in canonical order, while the
scalar `hadamard_estimate` seeds one per full coordinate key.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INIT = 0x243F6A8885A308D3

_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_INIT = np.uint64(_INIT)


def _mix_int(h: int) -> int:
    """splitmix64 finalizer on a Python int."""
    h &= _MASK
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK
    h ^= h >> 31
    return h


def stream_key(*fields: int) -> int:
    """Absorb integer fields into a 64-bit stream key."""
    h = _INIT
    for f in fields:
        h = _mix_int((h + _GOLDEN + (int(f) & _MASK)) & _MASK)
    return h


def _mix_array(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise; mixes a temporary array in place."""
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def stream_keys(*fields) -> np.ndarray:
    """stream_key over broadcastable integer arrays, elementwise.

    Starting from the scalar init, each field is absorbed at the broadcast
    shape of itself and the fields before it, so a field costs one hash per
    element of that shape, not of the full key grid.
    """
    h = _U64_INIT
    with np.errstate(over="ignore"):
        for f in fields:
            col = np.asarray(f, dtype=np.int64).astype(np.uint64)
            h = _mix_array(h + _U64_GOLDEN + col)
    return np.asarray(h)


def uniforms(keys: np.ndarray) -> np.ndarray:
    """Open-interval (0,1) uniforms, one hashed from each key."""
    with np.errstate(over="ignore"):
        h = _mix_array(np.asarray(keys, dtype=np.uint64) + _U64_GOLDEN)
    h >>= np.uint64(11)
    return h * 2.0**-53 + 2.0**-54


def normals(keys: np.ndarray) -> np.ndarray:
    """Standard normal draws via inverse CDF of each key's uniform."""
    from scipy.special import ndtri  # imported here: binomial runs never need scipy

    return ndtri(uniforms(keys))


def generator(key: int) -> np.random.Generator:
    """Stateful generator for draws that need one (binomial mode).

    Ensembles pass the key of (seed, trial, target) and draw a whole trial's
    counts for that matrix from it; the scalar estimator passes a full
    coordinate key.
    """
    return np.random.Generator(np.random.PCG64(key))
