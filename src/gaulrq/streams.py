"""Counter-based pseudo-random streams shared by encoder and decoder.

Every draw is a pure function of (seed material, cursor), so the server
can regenerate exactly the dither values each client consumed without any
state synchronization: both sides evaluate the same keyed mixing function
at the same counters. Streams for distinct (client, round) pairs use
disjoint counter domains and are statistically independent.

Not cryptographic. The shared seed is assumed to be distributed once,
out of band, before training starts.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

_U64_MAX = 2**64 - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_TO_UNIT = 1.0 / (2.0**64 + 1.0)

# Nudge targets for draws that would round to 0.0 or 1.0 as doubles.
_INTERIOR_LO = np.nextafter(0.0, 1.0)
_INTERIOR_HI = np.nextafter(1.0, 0.0)


def _splitmix64(z):
    """SplitMix64 avalanche on uint64 arrays (wrapping; numpy scalars need
    ``np.errstate(over="ignore")`` around the call)."""
    z = z + _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _splitmix64_int(z: int) -> int:
    """The same avalanche on one Python int, masked to 64 bits."""
    z = (z + 0x9E3779B97F4A7C15) & _U64_MAX
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MAX
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MAX
    return z ^ (z >> 31)


def _to_unit(v):
    """Map uint64 words to doubles strictly inside (0, 1)."""
    u = (v.astype(np.float64) + 1.0) * _TO_UNIT
    return np.clip(u, _INTERIOR_LO, _INTERIOR_HI)


@functools.lru_cache(maxsize=4096)
def _seed_key(root_seed: int, run_id: str) -> np.uint64:
    h = hashlib.blake2b(run_id.encode("utf-8"), digest_size=8).digest()
    return np.uint64(_splitmix64_int(root_seed ^ int.from_bytes(h, "little")))


@dataclass(frozen=True)
class SeedMaterial:
    """Root key for a run: a 64-bit seed plus a textual run label."""

    root_seed: int
    run_id: str = ""

    def __post_init__(self):
        if not (0 <= int(self.root_seed) <= _U64_MAX):
            raise InvalidParameterError("root_seed must fit in 64 unsigned bits")

    def key(self) -> np.uint64:
        """Effective 64-bit key: root seed folded with a stable run_id hash."""
        return _seed_key(int(self.root_seed), self.run_id)

    def lane(self, label: str) -> "SeedMaterial":
        """Independent sub-stream family (quantization, batching, noise, ...)."""
        return SeedMaterial(self.root_seed, f"{self.run_id}/{label}")


def uniform_pair_block(seed: SeedMaterial, client_id: int, rnd: int,
                       element_index, draw_counter):
    """Two uniforms in (0, 1) at cursor (client_id, rnd, element_index, draw_counter).

    A pure function of (seed, cursor); element_index and draw_counter may
    be uint64 arrays, one pair per broadcast cursor. The key is folded with
    client_id and then rnd, element_index and draw_counter, one SplitMix64
    round each; the two scalar folds run on Python ints, the per-element
    ones in numpy.
    """
    client_id, rnd = int(client_id), int(rnd)
    if not (0 <= client_id <= _U64_MAX and 0 <= rnd <= _U64_MAX):
        raise InvalidParameterError("client_id and round must fit in 64 unsigned bits")
    h = _splitmix64_int(_splitmix64_int(int(seed.key()) ^ client_id) ^ rnd)
    with np.errstate(over="ignore"):
        base = _splitmix64(np.uint64(h) ^ np.asarray(element_index, dtype=np.uint64))
        base = _splitmix64(base ^ np.asarray(draw_counter, dtype=np.uint64))
        u1 = _to_unit(_splitmix64(base))
        u2 = _to_unit(_splitmix64(base + np.uint64(1)))
    return u1, u2


def element_pairs(seed: SeedMaterial, client_id: int, rnd: int, dim: int):
    """The per-element uniform pairs a d-dimensional quantization consumes.

    Element j reads cursor (client_id, rnd, j, 0); exactly two uniforms per
    element, which is the consumption contract the decoder relies on.
    """
    idx = np.arange(dim, dtype=np.uint64)
    return uniform_pair_block(seed, client_id, rnd, idx, np.zeros(dim, dtype=np.uint64))


class DrawStream:
    """Sequential uniform draws for one (client, round), cursor-addressed.

    Each call advances only this stream's counter; independent streams never
    interact, so clients can run in parallel.
    """

    def __init__(self, seed: SeedMaterial, client_id: int, rnd: int):
        self._seed = seed
        self._client_id = client_id
        self._round = rnd
        self._counter = 0

    def next(self, n: int) -> np.ndarray:
        """n uniforms in (0, 1)."""
        ctr = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        u1, _ = uniform_pair_block(self._seed, self._client_id, self._round,
                                   np.zeros(n, dtype=np.uint64), ctr)
        return u1
