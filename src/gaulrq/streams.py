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
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidParameterError

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


@dataclass(frozen=True)
class StreamCursor:
    """Address of one draw: (client, round, element, counter), all >= 0."""

    client_id: int
    round: int
    element_index: int = 0
    draw_counter: int = 0

    def __post_init__(self):
        for name in ("client_id", "round", "element_index", "draw_counter"):
            if int(getattr(self, name)) < 0:
                raise InvalidParameterError(f"cursor field {name} must be >= 0")


def uniform_pair_block(seed: SeedMaterial, client_id: int, rnd: int,
                       element_index, draw_counter):
    """Vectorized derive_uniform_pair: element/counter may be uint64 arrays.

    The key is folded with client_id and then rnd, element_index and
    draw_counter, one SplitMix64 round each; the two scalar folds run on
    Python ints, the per-element ones in numpy.
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


def derive_uniform_pair(seed: SeedMaterial, cursor: StreamCursor):
    """Two uniforms in (0, 1), a pure function of (seed, cursor)."""
    u1, u2 = uniform_pair_block(seed, cursor.client_id, cursor.round,
                                cursor.element_index, cursor.draw_counter)
    return float(u1), float(u2)


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


_SEED_RE = re.compile(r"seed\s*=\s*(\d+)")
_RUN_RE = re.compile(r"run\s*=\s*([A-Za-z0-9_.\-]+)")


def parse_seed_spec(text: str) -> SeedMaterial:
    """Parse a one-line seed spec like ``seed=42 run=a`` (comma tolerated)."""
    m = _SEED_RE.search(text)
    if m is None:
        raise ConfigError("seed spec: missing required field 'seed'")
    value = int(m.group(1))
    if value > _U64_MAX:
        raise ConfigError("seed spec: seed exceeds 64 unsigned bits")
    run = _RUN_RE.search(text)
    return SeedMaterial(value, run.group(1) if run else "")


def seed_handshake(source: str) -> SeedMaterial:
    """Obtain the shared SeedMaterial from a file path or a literal spec.

    The same call on server and client sides yields identical material, which
    is all the coupling protocol requires.
    """
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.readline()
    else:
        text = source
    return parse_seed_spec(text)
