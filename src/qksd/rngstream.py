"""Deterministic, schedule-independent random streams.

Keys come from a splitmix64 absorption chain over integer coordinates, so a
result never depends on which worker drew it or in what order.  Every
ensemble draw, in both noise modes, comes from one stream per (seed, trial,
target): `stream_keys` hashes a block of trials' keys (elementwise, so each
equals its scalar `stream_key`), and each key seats a PCG64 directly, with two
splitmix words of state and a fixed increment, no SeedSequence.  This is the
counter-keyed, per-trial layout of Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3" (SC'11), on O'Neill's PCG64 (2014).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random import PCG64, Generator

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INIT = 0x243F6A8885A308D3
_INC = (_GOLDEN << 64 | _INIT) | 1  # every stream's PCG64 increment (odd)

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


def _states(keys) -> list[int]:
    """Each key's 128-bit PCG64 state: two splitmix words, hi from the key."""
    with np.errstate(over="ignore"):
        hi = _mix_array(np.ravel(keys).astype(np.uint64) + _U64_GOLDEN)
        lo = _mix_array(hi + _U64_GOLDEN)
    return [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]


def streams(keys) -> Iterator[Generator]:
    """A generator at the start of each key's stream in turn: one PCG64, re-seated
    with the key's state and the fixed increment.

    Every item is the same object, so draw from it before taking the next.
    """
    gen = Generator(PCG64(0))
    seat = dict(bit_generator="PCG64", state={"inc": _INC}, has_uint32=0, uinteger=0)
    for state in _states(keys):
        seat["state"]["state"] = state
        gen.bit_generator.state = seat
        yield gen


def generator(key: int) -> Generator:
    """A new generator at the start of key's stream."""
    return next(streams([key]))


def normals(keys, size: int) -> np.ndarray:
    """(len(keys), size) standard normals, row i from the stream of keys[i]."""
    keys = np.ravel(keys)
    out = np.empty((len(keys), size))
    for row, gen in zip(out, streams(keys)):
        gen.standard_normal(out=row)
    return out
