import hashlib

import numpy as np
import pytest

from gaulrq.errors import InvalidParameterError
from gaulrq.streams import (DrawStream, SeedMaterial, element_pairs,
                            uniform_pair_block)

SEED = SeedMaterial(42, "test")


def _pair(seed, client_id, rnd, element_index=0, draw_counter=0):
    u1, u2 = uniform_pair_block(seed, client_id, rnd, element_index, draw_counter)
    return float(u1), float(u2)


def test_purity():
    assert _pair(SEED, 3, 7, 11, 13) == _pair(SEED, 3, 7, 11, 13)


def test_client_and_server_sides_bitwise_equal():
    # Two independently built SeedMaterial objects with the same fields must
    # generate identical streams: that is the whole coupling protocol.
    a = SeedMaterial(42, "run")
    b = SeedMaterial(42, "run")
    ctr = np.arange(100000, dtype=np.uint64)
    ua = uniform_pair_block(a, 5, 9, 0, ctr)
    ub = uniform_pair_block(b, 5, 9, 0, ctr)
    assert np.array_equal(ua[0], ub[0]) and np.array_equal(ua[1], ub[1])


def test_no_collisions_along_counter():
    seed = SeedMaterial(42)
    ctr = np.arange(100000, dtype=np.uint64)
    u1, u2 = uniform_pair_block(seed, 0, 0, 0, ctr)
    assert np.unique(u1).size == u1.size
    assert np.unique(u2).size == u2.size


def test_distinct_cursors_distinct_pairs():
    p1 = _pair(SEED, 0, 0, 0, 0)
    p2 = _pair(SEED, 0, 0, 0, 1)
    p3 = _pair(SEED, 0, 1, 0, 0)
    p4 = _pair(SEED, 1, 0, 0, 0)
    assert len({p1, p2, p3, p4}) == 4


def test_uniformity_moments():
    ctr = np.arange(500000, dtype=np.uint64)
    u1, u2 = uniform_pair_block(SEED, 0, 0, 0, ctr)
    u = np.concatenate([u1, u2])
    assert abs(float(np.mean(u)) - 0.5) < 0.002
    assert abs(float(np.var(u)) / (1.0 / 12.0) - 1.0) < 0.01


def test_draws_strictly_inside_unit_interval():
    ctr = np.arange(200000, dtype=np.uint64)
    u1, u2 = uniform_pair_block(SEED, 1, 2, 3, ctr)
    for u in (u1, u2):
        assert np.all(u > 0.0) and np.all(u < 1.0)


def test_lanes_are_independent_streams():
    a = SEED.lane("quant")
    b = SEED.lane("noise")
    assert a.key() != b.key()
    assert _pair(a, 0, 0) != _pair(b, 0, 0)


def test_element_pairs_contract():
    u1, u2 = element_pairs(SEED, 2, 3, 7)
    assert u1.shape == (7,) and u2.shape == (7,)
    # Element j must read cursor (client, round, j, 0).
    for j in range(7):
        assert (u1[j], u2[j]) == _pair(SEED, 2, 3, j, 0)


def test_draw_stream_advances():
    s = DrawStream(SEED, 4, 5)
    first = s.next(10)
    second = s.next(10)
    assert not np.array_equal(first, second)
    # A fresh stream replays the same prefix.
    s2 = DrawStream(SEED, 4, 5)
    assert np.array_equal(s2.next(20), np.concatenate([first, second]))


def test_seed_material_bounds():
    SeedMaterial(2**64 - 1)  # boundary accepted
    with pytest.raises(InvalidParameterError):
        SeedMaterial(2**64)


# -- reference formula ------------------------------------------------------
# The PRF as first written: every fold in numpy, the key rehashed per call.

def _ref_splitmix64(z):
    with np.errstate(over="ignore"):
        z = z + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _ref_key(seed):
    h = hashlib.blake2b(seed.run_id.encode("utf-8"), digest_size=8).digest()
    with np.errstate(over="ignore"):
        return _ref_splitmix64(np.uint64(seed.root_seed)
                               ^ np.uint64(int.from_bytes(h, "little")))


def _ref_to_unit(v):
    u = (v.astype(np.float64) + 1.0) * (1.0 / (2.0**64 + 1.0))
    return np.clip(u, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def _ref_pair_block(seed, client_id, rnd, element_index, draw_counter):
    h = _ref_key(seed)
    for field in (np.uint64(client_id), np.uint64(rnd),
                  np.asarray(element_index, dtype=np.uint64),
                  np.asarray(draw_counter, dtype=np.uint64)):
        h = _ref_splitmix64(h ^ field)
    with np.errstate(over="ignore"):
        return (_ref_to_unit(_ref_splitmix64(h)),
                _ref_to_unit(_ref_splitmix64(h + np.uint64(1))))


def test_prf_matches_reference_formula():
    top = 2**32 - 1
    elem = np.array([0, 1, 2, 12345, top - 1, top], dtype=np.uint64)
    ctr = np.array([top, 0, 7, 1, top, 3], dtype=np.uint64)
    cursors = [(0, 0, 0, 0), (top, top, top, top), (3, 7, 11, 13),
               (5, 9, elem, ctr), (top, 0, elem, 0), (0, top, 0, ctr)]
    for root in (0, 1, 2**64 - 1):
        for seed in (SeedMaterial(root), SeedMaterial(root, "run"),
                     SeedMaterial(root, "run").lane("quant").lane("noise"),
                     SeedMaterial(root).lane("batch")):
            assert seed.key() == _ref_key(seed)
            assert type(seed.key()) is np.uint64
            for cid, rnd, e, c in cursors:
                got = uniform_pair_block(seed, cid, rnd, e, c)
                want = _ref_pair_block(seed, cid, rnd, e, c)
                for g, w in zip(got, want):
                    assert type(g) is type(w) and np.shape(g) == np.shape(w)
                    assert np.array_equal(g, w)


def test_pair_block_rejects_out_of_range_client_and_round():
    for cid, rnd in ((-1, 0), (0, -1), (2**64, 0)):
        with pytest.raises(InvalidParameterError):
            uniform_pair_block(SEED, cid, rnd, 0, 0)
