import hashlib
import numbers

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaulrq.errors import InvalidParameterError
from gaulrq.streams import (DrawStream, SeedMaterial, _client_ids, _to_unit,
                            element_pairs, uniform_block, uniform_pair_block)

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


@pytest.mark.parametrize("dim", [2.5, True, -1, np.float64(3.0), "3", None])
def test_element_pairs_rejects_counts_it_cannot_mean(dim):
    # A dim of 2.5 would give 3 pairs, True 1.
    with pytest.raises(InvalidParameterError, match="dim must be an integer >= 0"):
        element_pairs(SEED, 0, 0, dim)
    assert element_pairs(SEED, 0, 0, np.int64(2))[0].shape == (2,)


def test_draw_stream_advances():
    s = DrawStream(SEED, 4, 5)
    first = s.next(10)
    second = s.next(10)
    assert not np.array_equal(first, second)
    # A fresh stream replays the same prefix.
    s2 = DrawStream(SEED, 4, 5)
    assert np.array_equal(s2.next(20), np.concatenate([first, second]))
    # Draw i reads the first uniform at cursor (4, 5, 0, i).
    want = uniform_pair_block(SEED, 4, 5, 0, np.arange(20, dtype=np.uint64))[0]
    assert np.concatenate([first, second]).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [-2, 1.5, True, np.float64(2.0), None])
def test_draw_stream_rejects_counts_it_cannot_mean(n):
    # A negative count would move the counter back and hand out the same uniforms twice.
    s = DrawStream(SEED, 4, 5)
    first = s.next(3)
    with pytest.raises(InvalidParameterError, match="n must be an integer >= 0"):
        s.next(n)
    assert s.next(0).size == 0
    want = uniform_pair_block(SEED, 4, 5, 0, np.arange(5, dtype=np.uint64))[0]
    assert np.concatenate([first, s.next(np.int64(2))]).tobytes() == want.tobytes()


def test_seed_material_bounds():
    SeedMaterial(2**64 - 1)  # boundary accepted
    assert SeedMaterial(np.uint64(7)).key() == SeedMaterial(7).key()
    # Each non-integer would silently draw its truncated int's streams.
    for bad in (2**64, -1, 1.5, True, False, "3", np.float64(2.7), None):
        with pytest.raises(InvalidParameterError, match="root_seed must"):
            SeedMaterial(bad)


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


def test_to_unit_matches_two_sided_clip_at_extreme_words():
    # (v + 1) * 2^-64 is at least 2^-64, so only the top clamp can bind: the
    # words from 2^64 - 2^10 up round to 2^64 as doubles and give 1.0.
    words = np.array([0, 1, 2**64 - 2**11 - 1, 2**64 - 2**10, 2**64 - 1], dtype=np.uint64)
    got, want = _to_unit(words), _ref_to_unit(words)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert want[0] == 2.0**-64 and want[-1] == np.nextafter(1.0, 0.0)
    for word, w in zip(words, want):
        one = _to_unit(word)  # a numpy scalar comes back a numpy float64
        assert type(one) is np.float64 and one == w


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
        for draw in (uniform_pair_block, uniform_block):
            with pytest.raises(InvalidParameterError):
                draw(SEED, cid, rnd, 0, 0)


# -- client axis ------------------------------------------------------------

_U64 = st.integers(0, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(ids=st.lists(_U64, max_size=6), rnd=_U64,
       cursors=st.lists(st.tuples(_U64, _U64), min_size=1, max_size=5),
       scalar=st.booleans())
def test_client_axis_stacks_scalar_calls(ids, rnd, cursors, scalar):
    e, c = (np.array(x, dtype=np.uint64) for x in zip(*cursors))
    if scalar:
        e, c = e[0], c[0]
    rows = [uniform_pair_block(SEED, cid, rnd, e, c) for cid in ids]
    for given_ids in (ids, np.array(ids, dtype=np.uint64)):
        got = uniform_pair_block(SEED, given_ids, rnd, e, c)
        for g, j in zip(got, (0, 1)):
            assert g.shape == (len(ids),) + np.shape(e)
            for i, row in enumerate(rows):
                assert np.array_equal(g[i], row[j])


@settings(max_examples=200, deadline=None)
@given(bad=st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64),
                     st.floats(allow_nan=True, allow_infinity=True)),
       ids=st.lists(_U64, max_size=4), pos=st.integers(0, 4))
def test_client_axis_rejects_bad_ids(bad, ids, pos):
    ids = ids[:pos] + [bad] + ids[pos:]
    for given_ids in (ids, np.array(ids)):
        with pytest.raises(InvalidParameterError):
            uniform_pair_block(SEED, given_ids, 0, 0, 0)


def _object_walk_ids(client_id):
    """The element-by-element check _client_ids replaced, as the reference."""
    ids = np.asarray(client_id, dtype=object)
    if ids.ndim > 2 or not all(isinstance(i, numbers.Integral) and 0 <= i <= 2**64 - 1
                               for i in ids.flat):
        raise InvalidParameterError("client ids must be integers in [0, 2^64 - 1]")
    return ids.astype(np.uint64)


_ID_ATOMS = st.one_of(st.integers(-3, 40), st.integers(-2**65, 2**65), st.booleans(),
                      st.floats(allow_nan=True, allow_infinity=True))
_ID_ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.int8, np.int64, np.uint8, np.uint64, np.float64, np.bool_]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))


@settings(max_examples=400, deadline=None)
@given(client_id=st.one_of(_ID_ATOMS, st.lists(_ID_ATOMS, max_size=5),
                           st.lists(st.lists(st.integers(0, 9), max_size=3), max_size=3),
                           _ID_ARRAYS))
def test_client_ids_accept_what_the_object_walk_accepted(client_id):
    try:
        want = _object_walk_ids(client_id)
    except InvalidParameterError as exc:
        with pytest.raises(InvalidParameterError, match="^client ids must be") as got:
            _client_ids(client_id)
        assert str(got.value) == str(exc)
    else:
        got = _client_ids(client_id)
        assert got.dtype == np.uint64 and got.shape == want.shape
        assert np.array_equal(got, want)


# -- rounds axis ------------------------------------------------------------

@st.composite
def _round_tables(draw):
    """An (R, B) client table and its (R, 1) rounds, as uint64 arrays."""
    R, B = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return (draw(hnp.arrays(np.uint64, (R, B), elements=_U64)),
            draw(hnp.arrays(np.uint64, (R, 1), elements=_U64)))


def _same(got, want):
    return all(np.shape(g) == np.shape(w) and np.array_equal(g, w) for g, w in zip(got, want))


@settings(max_examples=200, deadline=None)
@given(tables=_round_tables(), m=st.integers(0, 5), as_lists=st.booleans())
def test_rounds_axis_stacks_scalar_and_client_axis_calls(tables, m, as_lists):
    ids, rounds = tables
    # Nested lists keep the table's shape unless it has no rows.
    given_ids, given_rounds = (ids.tolist(), rounds.tolist()) if as_lists and len(ids) else tables
    ctr = np.arange(m, dtype=np.uint64)
    sample = uniform_pair_block(SEED, given_ids, given_rounds, 0, 0)   # the sample cursor
    batch = uniform_pair_block(SEED, given_ids, given_rounds, 0, ctr)  # batch / sq cursor
    pairs = element_pairs(SEED, given_ids, given_rounds, m)
    assert sample[0].shape == ids.shape and pairs[0].shape == ids.shape + (m,)
    for r, rnd in enumerate(rounds[:, 0].tolist()):
        row_ids = ids[r].tolist()
        assert _same([u[r] for u in batch], uniform_pair_block(SEED, row_ids, rnd, 0, ctr))
        assert _same([u[r] for u in pairs], element_pairs(SEED, row_ids, rnd, m))
        for i, cid in enumerate(row_ids):
            assert _same([u[r, i] for u in sample], uniform_pair_block(SEED, cid, rnd, 0, 0))
            assert _same([u[r, i] for u in batch], uniform_pair_block(SEED, cid, rnd, 0, ctr))
    # One client over a 1-D array of rounds, as the sample lane draws a chunk.
    over_rounds = uniform_pair_block(SEED, 0, rounds[:, 0], 0, 0)
    for r, rnd in enumerate(rounds[:, 0].tolist()):
        assert _same([u[r] for u in over_rounds], uniform_pair_block(SEED, 0, rnd, 0, 0))


@settings(max_examples=200, deadline=None)
@given(bad=st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64),
                     st.floats(allow_nan=True, allow_infinity=True)),
       rounds=st.lists(_U64, max_size=4), pos=st.integers(0, 4))
def test_rounds_axis_rejects_bad_rounds(bad, rounds, pos):
    rounds = rounds[:pos] + [bad] + rounds[pos:]
    ids = [[1, 2]] * len(rounds)
    for given_rounds in ([[r] for r in rounds], np.array(rounds)[:, None], bad):
        with pytest.raises(InvalidParameterError, match="^rounds must be integers"):
            uniform_pair_block(SEED, ids, given_rounds, 0, 0)
        with pytest.raises(InvalidParameterError, match="^rounds must be integers"):
            element_pairs(SEED, ids, given_rounds, 3)


def test_rounds_must_broadcast_against_client_ids():
    with pytest.raises(InvalidParameterError, match="do not broadcast"):
        uniform_pair_block(SEED, [[1, 2], [3, 4]], [5, 6, 7], 0, 0)


# -- one uniform a cursor -----------------------------------------------------

_TOP = 2**64 - 1


@settings(max_examples=300, deadline=None)
@given(ids=st.one_of(_U64, st.lists(_U64, max_size=4), _round_tables()),
       rnd=_U64, cursors=st.lists(st.tuples(_U64, _U64), min_size=1, max_size=5),
       axis=st.sampled_from(["scalar", "element", "counter", "both"]))
@example(ids=_TOP, rnd=_TOP, cursors=[(_TOP, _TOP)], axis="scalar")
@example(ids=[0, _TOP], rnd=_TOP, cursors=[(0, _TOP), (_TOP, 0)], axis="both")
def test_uniform_block_is_the_pairs_first_uniform(ids, rnd, cursors, axis):
    # An int, a 1-D array or an (R, B) table of ids (with its (R, 1) rounds), against
    # element-index and draw-counter arrays: every byte, type and shape of the pair's u1.
    if isinstance(ids, tuple):
        ids, rnd = ids
    e, c = (np.array(x, dtype=np.uint64) for x in zip(*cursors))
    e, c = {"scalar": (e[0], c[0]), "element": (e, 0), "counter": (0, c), "both": (e, c)}[axis]
    got, want = uniform_block(SEED, ids, rnd, e, c), uniform_pair_block(SEED, ids, rnd, e, c)[0]
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
