"""Counter-based pseudo-random streams shared by encoder and decoder.

Every draw is a pure function of (seed material, cursor), so the server can
regenerate exactly the dither values each client consumed without any state
synchronization: both sides evaluate the same keyed mixing function at the same
counters. Streams for distinct (client, round) pairs use disjoint counter
domains and are statistically independent. A cursor gives a pair of uniforms; a
lane that reads only the first draws it alone, bit for bit (uniform_block). One
call serves many rounds: an array of client ids adds a leading client axis, row
i what the call for client i alone returns, and an (R, B) table of ids with an
(R, 1) array of rounds adds a rounds axis before it.

Not cryptographic. The shared seed is assumed to be distributed once,
out of band, before training starts.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

_U64_MAX = 2**64 - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _ONE = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(1)
_TO_UNIT = 1.0 / (2.0**64 + 1.0)  # 2^64 + 1 rounds to 2^64: this is 2^-64
_INTERIOR_HI = np.nextafter(1.0, 0.0)


def _splitmix64(z):
    """SplitMix64 avalanche on uint64 arrays (wrapping; numpy scalars need
    ``np.errstate(over="ignore")`` around the call). ``z + GAMMA`` is a new
    array, which the rest of the mix updates in place; ``z`` is not touched."""
    z = z + _GAMMA
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def _to_unit(v):
    """Map uint64 words to doubles strictly inside (0, 1): (v + 1) / (2^64 + 1).

    Only the top is clamped: the least result is 2^-64, but words from
    2^64 - 2^10 up round to 2^64 and give 1.0, the largest double below 1
    instead. A numpy scalar takes the same steps as a 0-d array and comes back a float64.
    """
    u = np.asarray(v, dtype=np.float64)  # a new array: v is uint64
    u += 1.0
    u *= _TO_UNIT
    return np.minimum(u, _INTERIOR_HI, out=u)[()]


def _count(n, what: str) -> int:
    """n, a seed or count: an integer >= 0 (numpy's too) and not a bool, as an int."""
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 0):
        raise InvalidParameterError(f"{what} must be an integer >= 0, got {n!r}")
    return int(n)


@dataclass(frozen=True)
class SeedMaterial:
    """Root key for a run: a 64-bit seed plus a textual run label."""

    root_seed: int
    run_id: str = ""

    def __post_init__(self):
        if _count(self.root_seed, "root_seed") > _U64_MAX:
            raise InvalidParameterError("root_seed must fit in 64 unsigned bits")

    def key(self) -> np.uint64:
        """Effective 64-bit key: root seed folded with a stable run_id hash."""
        h = hashlib.blake2b(self.run_id.encode("utf-8"), digest_size=8).digest()
        with np.errstate(over="ignore"):
            return _splitmix64(np.uint64(int(self.root_seed) ^ int.from_bytes(h, "little")))

    def lane(self, label: str) -> "SeedMaterial":
        """Independent sub-stream family (quantization, batching, noise, ...)."""
        return SeedMaterial(self.root_seed, f"{self.run_id}/{label}")


def _client_ids(client_id, what: str = "client ids") -> np.ndarray:
    """client_id (an int or an integer array of up to 2-D) as uint64, range-checked.

    What numpy reads as an integer array is checked with one reduction; the
    rest (bools, ragged or mixed input, ints past 64 bits) element by element.
    """
    try:
        ids = np.asarray(client_id)
    except ValueError:  # ragged
        ids = None
    if ids is not None and ids.dtype.kind in "iu":
        ok = ids.ndim <= 2 and (ids.dtype.kind == "u" or not (ids < 0).any())
    else:
        ids = np.asarray(client_id, dtype=object)
        ok = ids.ndim <= 2 and all(isinstance(i, numbers.Integral) and 0 <= i <= _U64_MAX
                                   for i in ids.flat)
    if not ok:
        raise InvalidParameterError(f"{what} must be integers in [0, 2^64 - 1]")
    return ids.astype(np.uint64)


def _cursor_words(seed: SeedMaterial, client_id, rnd, element_index, draw_counter):
    """The word each broadcast cursor's uniforms are mixed from; callers ignore overflow."""
    ids, rnds = _client_ids(client_id), _client_ids(rnd, "rounds")
    element_index = np.asarray(element_index, dtype=np.uint64)
    draw_counter = np.asarray(draw_counter, dtype=np.uint64)
    try:
        h = _splitmix64(_splitmix64(seed.key() ^ ids) ^ rnds)
    except ValueError:
        raise InvalidParameterError(f"rounds of shape {rnds.shape} do not broadcast "
                                    f"against client ids of shape {ids.shape}") from None
    h = h.reshape(np.shape(h) + (1,) * max(element_index.ndim, draw_counter.ndim))
    return _splitmix64(_splitmix64(h ^ element_index) ^ draw_counter)


@np.errstate(over="ignore")
def uniform_pair_block(seed: SeedMaterial, client_id, rnd,
                       element_index, draw_counter):
    """Two uniforms in (0, 1) at cursor (client_id, rnd, element_index, draw_counter).

    A pure function of (seed, cursor); element_index and draw_counter may
    be uint64 arrays, one pair per broadcast cursor. client_id is an int or
    an integer array of up to 2-D, and rnd an int or an integer array that
    broadcasts against it: entry [r, i] of (R, B) ids with (R, 1) rounds is the
    call for (client_id[r, i], rnd[r]) alone. The key is folded with client_id
    and then rnd, element_index and draw_counter, one SplitMix64 round each.
    """
    base = _cursor_words(seed, client_id, rnd, element_index, draw_counter)
    return _to_unit(_splitmix64(base)), _to_unit(_splitmix64(base + _ONE))


@np.errstate(over="ignore")
def uniform_block(seed: SeedMaterial, client_id, rnd, element_index, draw_counter):
    """uniform_pair_block's first uniform at each cursor, bit for bit, without its second."""
    return _to_unit(_splitmix64(_cursor_words(seed, client_id, rnd, element_index, draw_counter)))


def element_pairs(seed: SeedMaterial, client_id, rnd, dim: int):
    """The per-element uniform pairs a d-dimensional quantization consumes.

    Element j reads cursor (client_id, rnd, j, 0); exactly two uniforms per
    element, which is the consumption contract the decoder relies on. An
    array of client ids gives (B, dim) arrays; an (R, B) table of them with
    (R, 1) rounds gives (R, B, dim).
    """
    dim = _count(dim, "dim")
    return uniform_pair_block(seed, client_id, rnd, np.arange(dim, dtype=np.uint64), 0)


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
        """n uniforms in (0, 1): the next n counters, none handed out twice."""
        ctr = np.arange(self._counter, self._counter + _count(n, "n"), dtype=np.uint64)
        self._counter += n
        return uniform_block(self._seed, self._client_id, self._round, 0, ctr)
