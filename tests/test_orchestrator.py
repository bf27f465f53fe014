import dataclasses
import functools
import gc
import json
import math
import re
import threading
import traceback
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaulrq import orchestrator, training
from gaulrq.analysis import comm_cost
from gaulrq.cli import main
from gaulrq.config import ExperimentConfig, build_simulation, run_experiment
from gaulrq.errors import ConfigError, DivergedError, InvalidParameterError
from gaulrq.normal import inv_norm_cdf
from gaulrq.orchestrator import (PIPELINES, AlgorithmKind, WireMessage,
                                 pack_indices, parse_message, sample_clients,
                                 serialize_message, unpack_indices)
from gaulrq.privacy import clip_ceiling, clip_update
from gaulrq.quantizers import (MAX_BITS, MIN_STEP_FACTOR, _layer_at, bit_width,
                               lrq_quantize_vector, sample_layer, stochastic_round)
from gaulrq.streams import DrawStream, SeedMaterial, element_pairs, uniform_pair_block
from gaulrq.training import ModelState, local_rounds, weighted_error


def _config(**kw):
    base = dict(algorithm="local_sgd", N=4, B=4, Q=1, K=5, eta=0.05,
                epsilon=2.0, delta=1e-5, tau=1.0, s2=10.0,
                objective="least_squares", d=3, n_per_client=8,
                label_noise=0.0, seed=21, run_id="t")
    base.update(kw)
    return ExperimentConfig.from_dict(base)


# -- wire format ------------------------------------------------------------

def test_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    for bits in (1, 2, 3, 5, 8, 12, 17):
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        idx = rng.integers(lo, hi + 1, size=33)
        out = unpack_indices(pack_indices(idx, bits), 33, bits)
        assert np.array_equal(out, idx)


def test_pack_is_byte_aligned_lsb_first():
    # Two 4-bit fields: 0b0011 then 0b0001 -> byte 0x13.
    assert pack_indices([3, 1], 4) == bytes([0x13])


# Reference codec: the whole stream as one Python int, one shift per field.

def _ref_pack(indices, bits):
    mask = (1 << bits) - 1
    word = 0
    for j, v in enumerate(np.asarray(indices, dtype=np.int64)):
        word |= (int(v) & mask) << (j * bits)
    return word.to_bytes((len(indices) * bits + 7) // 8, "little")


def _ref_unpack(payload, dim, bits, signed=True):
    word = int.from_bytes(payload, "little")
    mask, sign = (1 << bits) - 1, 1 << (bits - 1)
    out = np.empty(dim, dtype=np.int64)
    for j in range(dim):
        v = (word >> (j * bits)) & mask
        out[j] = v - (1 << bits) if signed and v & sign else v
    return out


@st.composite
def _index_vectors(draw):
    bits = draw(st.integers(1, 62))  # the packer takes any int64 width
    signed = draw(st.booleans())
    lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed else (0, (1 << bits) - 1)
    dim = draw(st.integers(0, 300))
    idx = draw(st.lists(st.integers(lo, hi), min_size=dim, max_size=dim))
    return np.array(idx, dtype=np.int64), bits, signed


@settings(max_examples=300, deadline=None)
@given(case=_index_vectors())
def test_pack_unpack_match_reference(case):
    idx, bits, signed = case
    payload = pack_indices(idx, bits)
    assert payload == _ref_pack(idx, bits)
    out = unpack_indices(payload, idx.size, bits, signed=signed)
    assert out.dtype == np.int64 and np.array_equal(out, idx)
    assert np.array_equal(out, _ref_unpack(payload, idx.size, bits, signed))


@pytest.mark.parametrize("signed", [True, False], ids=["signed", "unsigned"])
def test_pack_unpack_match_reference_at_every_width(signed):
    # Each width splits only the bytes of the narrowest unsigned word that holds it:
    # every width 1..62, at a dim whose stream ends mid-byte and at dim 0.
    rng = np.random.default_rng(9)
    for bits in range(1, 63):
        lo = -(1 << (bits - 1)) if signed else 0
        for dim in (0, 37):
            idx = rng.integers(lo, lo + (1 << bits), size=dim)
            payload = pack_indices(idx, bits)
            assert payload == _ref_pack(idx, bits)
            out = unpack_indices(payload, dim, bits, signed=signed)
            assert out.dtype == np.int64 and out.shape == (dim,)
            assert out.tobytes() == _ref_unpack(payload, dim, bits, signed).tobytes()
            assert np.array_equal(out, idx)


@pytest.mark.parametrize("bits", [0, -1, 63, 64, 65, [1, 63], [0, 5], []])
def test_pack_unpack_reject_widths_outside_1_62(bits):
    # Past 62 bits a signed field's sign extension overflows int64; below 1 a field is empty.
    with pytest.raises(InvalidParameterError, match=r"widths must lie in \[1, 62\]"):
        pack_indices(np.zeros((np.size(bits), 3), dtype=np.int64), bits)
    payload = [b"\0" * 24] * np.size(bits) if np.ndim(bits) else b"\0" * 24
    with pytest.raises(InvalidParameterError, match=r"widths must lie in \[1, 62\]"):
        unpack_indices(payload, 3, bits)


@pytest.mark.parametrize("dim", [-1, 2.5, True, np.float64(3.0), None])
def test_unpack_rejects_dims_it_cannot_mean(dim):
    # -1 raised numpy's bare "negative dimensions are not allowed".
    with pytest.raises(InvalidParameterError, match="dim must be an integer >= 0"):
        unpack_indices(b"\0", dim, 3)
    with pytest.raises(InvalidParameterError, match="dim must be an integer >= 0"):
        unpack_indices([b"\0", b"\0"], dim, [3, 4])


def test_pack_matches_reference_at_d1e5():
    idx = np.random.default_rng(4).integers(-4, 4, size=100_000)
    payload = pack_indices(idx, 3)
    assert payload == _ref_pack(idx, 3)
    assert np.array_equal(unpack_indices(payload, idx.size, 3), idx)


@st.composite
def _index_rows(draw):
    """A (B, d) index array with one width per row, mixed over 1..top for a top of
    1 to 5 bytes (MAX_BITS is 40): the packers' word follows the widest row."""
    top = draw(st.sampled_from([8, 16, 24, 32, MAX_BITS]))
    widths = draw(st.lists(st.integers(1, top), min_size=1, max_size=6))
    signed = draw(st.booleans())
    dim = draw(st.integers(0, 40))
    rows = []
    for b in widths:
        lo, hi = (-(1 << (b - 1)), (1 << (b - 1)) - 1) if signed else (0, (1 << b) - 1)
        rows.append(draw(st.lists(st.integers(lo, hi), min_size=dim, max_size=dim)))
    return np.array(rows, dtype=np.int64).reshape(len(widths), dim), widths, signed


@settings(max_examples=200, deadline=None)
@given(case=_index_rows())
def test_pack_unpack_rows_match_per_row_calls(case):
    idx, widths, signed = case
    payloads = pack_indices(idx, widths)
    assert payloads == [pack_indices(row, b) for row, b in zip(idx, widths)]
    assert payloads == [_ref_pack(row, b) for row, b in zip(idx, widths)]
    out = unpack_indices(payloads, idx.shape[1], widths, signed=signed)
    assert out.dtype == np.int64 and out.shape == idx.shape and np.array_equal(out, idx)
    for row, payload, b in zip(out, payloads, widths):
        assert np.array_equal(row, unpack_indices(payload, idx.shape[1], b, signed=signed))


def test_serialize_parse_round_trip():
    for algo in AlgorithmKind:
        if PIPELINES[algo].quantized:
            payload = pack_indices([1, -2, 3], 4)
            msg = WireMessage(7, 11, 3, 4, algo, payload,
                              scale=0.5 if algo is AlgorithmKind.QG_SGD else 0.0)
        else:
            msg = WireMessage(7, 11, 3, 32, algo,
                              np.array([1.0, -2.0, 3.0], dtype="<f4").tobytes())
        back = parse_message(serialize_message(msg))
        assert back.client_id == 7 and back.round == 11 and back.dim == 3
        assert back.bits_per_element == msg.bits_per_element
        assert back.algorithm is algo
        assert back.payload == msg.payload
        if algo is AlgorithmKind.QG_SGD:
            assert back.scale == pytest.approx(0.5)


def _wire(algo=AlgorithmKind.GAU_LRQ_SGD, dim=3, bits=4):
    if PIPELINES[algo].quantized:
        return serialize_message(WireMessage(
            7, 11, dim, bits, algo, pack_indices(np.zeros(dim), bits), scale=0.5))
    return serialize_message(WireMessage(
        7, 11, dim, 32, algo, np.zeros(dim, dtype="<f4").tobytes()))


def test_parse_rejects_short_header():
    for n in (0, 5, 13):
        with pytest.raises(InvalidParameterError, match="header"):
            parse_message(_wire()[:n])


def test_parse_rejects_unknown_tag():
    raw = bytearray(_wire())
    raw[13] = 9  # tag byte
    with pytest.raises(InvalidParameterError, match="tag 9"):
        parse_message(bytes(raw))


def test_parse_rejects_bad_width():
    raw = bytearray(_wire(AlgorithmKind.GAU_SGD))
    raw[12] = 16  # width byte: float payloads are float32
    with pytest.raises(InvalidParameterError, match="16-bit"):
        parse_message(bytes(raw))
    for bits in (0, 63):
        raw = bytearray(_wire())
        raw[12] = bits
        with pytest.raises(InvalidParameterError):
            parse_message(bytes(raw))


def test_parse_rejects_nonfinite_scale():
    raw = bytearray(_wire(AlgorithmKind.QG_SGD))
    for bad in (np.nan, np.inf, -1.0):  # the float64 scale follows the 14-byte header
        raw[14:22] = np.array([bad], dtype="<f8").tobytes()
        with pytest.raises(InvalidParameterError, match="scale"):
            parse_message(bytes(raw))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_qg_encode_rejects_a_nonfinite_row(bad):
    # A non-finite element makes its row's max|v| scale non-finite, which bit_width rejects
    # before any index is rounded.
    V = np.array([[0.5, -0.25], [0.1, bad]])
    with pytest.raises(InvalidParameterError, match="scale must be finite"):
        PIPELINES[AlgorithmKind.QG_SGD].encode(V, 0.5, np.full(V.shape, 0.5))


@pytest.mark.parametrize("c", [2.0**-1000, 1e-60, 1.0, 1e200],
                         ids=["2^-1000", "1e-60", "1", "1e200"])
@pytest.mark.parametrize("algo", [AlgorithmKind.QG_SGD, AlgorithmKind.GAU_LRQ_SGD],
                         ids=lambda algo: algo.name.lower())
def test_parsed_scale_is_the_inf_norm_bit_for_bit(algo, c):
    # Rows of thirds: no float32 holds their inf-norms, at any magnitude c.
    pipeline = orchestrator.PIPELINES[algo]
    V = c * np.random.default_rng(3).standard_normal((5, 7)) / 3.0
    # A chunk of one round: its rows, put at sigma c as the round puts them before encode.
    (rows,) = pipeline.draw(SeedMaterial(0, "scale"), np.arange(5)[None], [[2]], 7)
    rows = pipeline.at(c, rows) if pipeline.at else rows
    for i, (bits, payload, scale, _) in enumerate(pipeline.encode(V, c, rows)):
        raw = serialize_message(WireMessage(i, 2, 7, bits, algo, payload, scale=scale))
        got = parse_message(raw).scale
        assert np.float64(got).tobytes() == np.max(np.abs(V[i])).tobytes()


@st.composite
def _messages(draw):
    algo = draw(st.sampled_from(list(AlgorithmKind)))
    dim = draw(st.integers(0, 40))
    quantized = PIPELINES[algo].quantized
    bits = draw(st.integers(1, MAX_BITS)) if quantized else 32
    idx = draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=dim, max_size=dim))
    payload = pack_indices(np.array(idx, dtype=np.int64), bits)
    scale = draw(st.floats(0.0, allow_infinity=False)) if quantized else 0.0
    return WireMessage(draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1)),
                       dim, bits, algo, payload, scale=scale)


@settings(max_examples=200, deadline=None)
@given(msg=_messages(), cut=st.integers(1, 64), extra=st.binary(min_size=1, max_size=8))
def test_wire_round_trip_truncation_extension_fuzz(msg, cut, extra):
    raw = serialize_message(msg)
    assert parse_message(raw) == msg
    with pytest.raises(InvalidParameterError):
        parse_message(raw[:max(0, len(raw) - cut)])
    with pytest.raises(InvalidParameterError):
        parse_message(raw + extra)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=64))
def test_parse_arbitrary_bytes_is_typed(data):
    try:
        msg = parse_message(data)
    except InvalidParameterError:
        return
    assert serialize_message(msg) == data


def test_payload_bits_property():
    msg = WireMessage(0, 0, 4, 2, AlgorithmKind.GAU_LRQ_SGD, b"\x00")
    assert msg.payload_bits == 8


@pytest.mark.parametrize("name", WireMessage._fields)
def test_wire_message_is_immutable(name):
    msg = WireMessage(0, 0, 4, 2, AlgorithmKind.GAU_LRQ_SGD, b"\x00", 0.5)
    with pytest.raises(AttributeError):
        setattr(msg, name, getattr(msg, name))
    assert hash(msg) == hash(WireMessage(0, 0, 4, 2, AlgorithmKind.GAU_LRQ_SGD, b"\x00", 0.5))


def test_algorithm_kind_lookup():
    assert AlgorithmKind["GAU_LRQ_SGD"] is AlgorithmKind.GAU_LRQ_SGD
    assert not PIPELINES[AlgorithmKind.LOCAL_SGD].private
    assert PIPELINES[AlgorithmKind.GAU_SGD].private
    assert not PIPELINES[AlgorithmKind.GAU_SGD].quantized
    assert [kind.tag for kind in PIPELINES] == [kind.value for kind in AlgorithmKind]
    with pytest.raises(ConfigError, match="algorithm:"):
        ExperimentConfig.from_dict({"algorithm": "nope"})


# -- client sampling --------------------------------------------------------

def test_sample_all_clients():
    assert sample_clients(5, 5, 0.37) == [0, 1, 2, 3, 4]


def test_sample_validation():
    with pytest.raises(InvalidParameterError):
        sample_clients(3, 4, 0.1)
    with pytest.raises(InvalidParameterError):
        sample_clients(3, 0, 0.1)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 1000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.floats(0.0, 1.0, exclude_max=True))
@example((5, 5), 0.0)  # rounding puts two comb teeth on one client: the gap fill runs
def test_sample_returns_b_distinct_sorted_ids(nb, u):
    N, B = nb
    ids = sample_clients(N, B, u)
    assert len(ids) == B
    assert ids == sorted(set(ids))
    assert 0 <= ids[0] and ids[-1] < N


def _comb_reference(N, B, u):
    """The scalar sampler as a set computation: the comb's ids, gaps filled lowest first."""
    edges = np.cumsum(np.full(N, 1.0 / N)) * B
    ids = np.minimum(np.searchsorted(edges, (u % 1.0) + np.arange(B), side="right"), N - 1)
    chosen = sorted(set(ids.tolist()))
    return sorted(chosen + sorted(set(range(N)) - set(chosen))[:B - len(chosen)])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 200).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=6))
@example((5, 5), [0.3, 0.0, 0.7, 0.0])  # u = 0 at B = N: the gap fill runs on two rows
@example((200, 200), [0.0, 0.5])
def test_sample_clients_rows_equal_scalar_calls(nb, us):
    N, B = nb
    rows = sample_clients(N, B, np.array(us))
    assert rows.shape == (len(us), B)
    assert rows.tolist() == [sample_clients(N, B, u) for u in us]
    assert rows.tolist() == [_comb_reference(N, B, u) for u in us]


def test_sample_inclusion_frequency():
    N, B, reps = 5, 2, 100000
    u, _ = uniform_pair_block(SeedMaterial(3, "freq"), 0, 0, 0,
                              np.arange(reps, dtype=np.uint64))
    counts = np.zeros(N)
    for ui in u:
        for cid in sample_clients(N, B, float(ui)):
            counts[cid] += 1
    freq = counts / reps
    target = B / N
    se = np.sqrt(target * (1 - target) / reps)
    assert np.all(np.abs(freq - target) <= 3 * se)


# -- end-to-end rounds ------------------------------------------------------

def test_local_sgd_is_gradient_descent_step():
    cfg = _config(K=1)
    sim = build_simulation(cfg)
    theta0 = sim.theta.copy()
    sim.run_round()
    grad = sim.objective.loss_and_gradient(theta0)[1]
    # Equal shards: mean of client updates = -eta * global gradient, up to
    # the float32 payload rounding.
    assert np.allclose(sim.theta, theta0 - cfg.eta * grad, atol=1e-6)


_QUANTIZE, _RECONSTRUCT = orchestrator.lrq_quantize_rows, orchestrator.lrq_reconstruct_rows
_ENGINE_CASES = {
    # Criterion 9: minibatch least squares.
    "criterion9": dict(N=100, B=10, Q=5, K=50, eta=0.05, epsilon=2.0, delta=1e-5,
                       tau=0.9, s2=1.0, objective="least_squares", d=20,
                       n_per_client=20, label_noise=0.0, batch_size=5, seed=0,
                       run_id="acc9"),
    # The benchmark's local-heavy workload: full-batch logistic, Q=20.
    "local-heavy": dict(N=50, B=10, Q=20, K=10, eta=0.5, epsilon=4.0, delta=1e-5,
                        tau=0.9, s2=1.0, objective="logistic", d=100,
                        n_per_client=400, label_noise=0.0, batch_size=0, seed=0,
                        run_id="local"),
}


def _one_client_upload(algo, seed, cid, k, clipped, sigma):
    """One client's wire message, encoded alone through the one-row codec API."""
    d = clipped.size
    if algo == "qg_sgd":
        u_noise, _ = element_pairs(seed.lane("noise"), cid, k, d)
        v = clipped + sigma * np.asarray(inv_norm_cdf(u_noise))
        u, _ = uniform_pair_block(seed.lane("sq"), cid, k, 0, np.arange(d, dtype=np.uint64))
        scale = float(np.max(np.abs(v)))
        b = bit_width(scale, sigma)
        idx = stochastic_round(v, b, u, scale)
        return WireMessage(cid, k, d, b, AlgorithmKind.QG_SGD,
                           pack_indices(idx - (1 << (b - 1)), b), scale=scale)
    enc = lrq_quantize_vector(clipped, sigma, element_pairs(seed.lane("quant"), cid, k, d))
    b = enc.bits_per_element
    return WireMessage(cid, k, d, b, AlgorithmKind.GAU_LRQ_SGD,
                       pack_indices(enc.indices, b), scale=enc.scale)


@pytest.mark.parametrize("case, algo", [
    *(pytest.param(case, "gau_lrq_sgd", id=case) for case in sorted(_ENGINE_CASES)),
    *(pytest.param(case, "qg_sgd", id=f"{case}-qg_sgd") for case in sorted(_ENGINE_CASES))])
def test_round_engine_matches_per_client_oracle(case, algo, monkeypatch):
    """The stacked round equals B one-client pipelines, bit for bit."""
    cfg = ExperimentConfig.from_dict(dict(_ENGINE_CASES[case], algorithm=algo))
    sim = build_simulation(cfg)
    theta, seed, k = sim.theta.copy(), sim.seed, 0
    stacked, wire = [], []

    def spy(fn, out):
        def wrapper(*args, **kwargs):
            out.append(fn(*args, **kwargs))
            return out[-1]
        return wrapper

    monkeypatch.setattr(orchestrator, "stacked_local_rounds",
                        spy(orchestrator.stacked_local_rounds, stacked))
    monkeypatch.setattr(orchestrator, "serialize_message",
                        spy(orchestrator.serialize_message, wire))
    encoded, server = [], []  # the layers the clients encoded on and the server decoded on
    monkeypatch.setattr(orchestrator, "lrq_quantize_rows",
                        lambda *args: encoded.append(args[2]) or _QUANTIZE(*args))
    monkeypatch.setattr(orchestrator, "lrq_reconstruct_rows",
                        lambda *args: server.append(args[2]) or _RECONSTRUCT(*args))
    record = sim.run_round()
    (updates,) = stacked
    assert updates.shape == (cfg.B, cfg.d) and len(wire) == cfg.B
    total = 0.0
    for row, raw, cid in zip(updates, wire, record.clients):
        model = ModelState(theta=theta, round=k, objective=sim.objective)
        want = local_rounds(model, sim.objective.datasets[cid], cfg.Q, cfg.eta,
                            sim.batch_size, DrawStream(seed.lane("batch"), cid, k))
        assert np.array_equal(row, want)
        msg = _one_client_upload(algo, seed, cid, k, clip_update(row, cfg.s2),
                                 record.sigma_used)
        assert raw == serialize_message(msg)
        got = parse_message(raw)
        if algo == "gau_lrq_sgd":  # decoded on the oracle's own fresh draw of its layers at sigma
            layer = sample_layer(record.sigma_used, tuple(
                u[None] for u in element_pairs(seed.lane("quant"), cid, k, cfg.d)))
            idx = unpack_indices(got.payload, cfg.d, got.bits_per_element, signed=False)
            total = total + _RECONSTRUCT(idx[None], [got.scale], layer)[0]
        else:
            total = total + orchestrator.PIPELINES[msg.algorithm].decode([got], None)[0]
    assert sim.theta.tobytes() == (theta + total / cfg.B).tobytes()
    # The server decoded the layer the clients encoded on: the chunk's read-only rows put at
    # the round's sigma once, read-only, in arrays that share no memory with the rows.
    _, _, _, code = sim._chunk[1][k]
    if algo == "gau_lrq_sgd":
        (layer,) = server
        assert len(encoded) == 1 and encoded[0] is layer
        fields = (layer.x, layer.R, layer.q_step)
        want = _layer_at(record.sigma_used, code)
        assert [a.tobytes() for a in fields] == [a.tobytes() for a in (want.x, want.R, want.q_step)]
        assert not any(a.flags.writeable for a in (*code, *fields))
        assert not any(np.shares_memory(a, b) for a in fields for b in code)
    else:
        assert encoded == server == []


@pytest.mark.parametrize("algo", ["gau_sgd", "qg_sgd", "gau_lrq_sgd", "dynamic_gau_lrq_sgd"])
def test_server_adds_the_decoded_rows_in_turn(algo):
    # At d = 1 a (12, 1) stack reduces along its only axis, where np.add.reduce
    # sums pairwise; the server adds the rows in client order, from +0.0.
    sim = build_simulation(_config(algorithm=algo, N=30, B=12, Q=2, K=8, d=1, n_per_client=6,
                                   batch_size=3, tau=0.9, s2=1.0, seed=4))
    decoded = []
    decode = orchestrator.PIPELINES[sim.algorithm].decode
    sim._pipeline = sim._pipeline._replace(
        decode=lambda *args: decoded.append(decode(*args)) or decoded[-1])
    for _ in range(8):
        theta = sim.theta
        sim.run_round()
        total = 0.0
        for row in decoded[-1]:
            total = total + row
        assert sim.theta.tobytes() == (theta + total / 12).tobytes()


def test_simulation_holds_its_features_once():
    # d = 2e4, N = 10, n = 8: 12.8 MB of features, far above everything else
    # a built simulation holds.
    cfg = _config(d=20_000, N=10, B=2, n_per_client=8)
    tracemalloc.start()
    try:
        sim = build_simulation(cfg)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1.25 * sim.objective.shards[0].nbytes


@pytest.mark.parametrize("clip_mode, eta", [("fixed", 0.05), ("median_adaptive", 1e-4)],
                         ids=["fixed", "median_adaptive"])
def test_layered_run_peak_memory(clip_mode, eta):
    # d = 2^18 passes _EVAL_BYTES, so the evaluation takes one theta. A layered run at
    # N = n = B = Q = K = 1 peaks at 10.04 float64s an element above what is live before
    # run(), in either clip mode, in the round: the chunk's three unit rows (x, L, R) and the
    # round's 7.0 (update, its one layer of x, R and q_step at sigma, encode temporaries).
    # The bound of 11 leaves 0.96 for numpy's small temporaries and bookkeeping (0.04 here),
    # less than one more d-long float64 array: a layer at sigma per side, or one holding
    # L * sigma, read 11.04. (At eta = 0.05 a median-clipped run diverges at this d.)
    d = 1 << 18
    sim = build_simulation(_config(algorithm="gau_lrq_sgd", clip_mode=clip_mode, eta=eta, N=1,
                                   B=1, Q=1, K=1, n_per_client=1, d=d, s2=1.0))
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        sim.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sim.objective.shards[0].nbytes > training._EVAL_BYTES and len(sim.records) == 1
    assert peak - live < 11 * 8 * d


def test_local_sgd_converges_on_noiseless_problem():
    cfg = _config(K=300, eta=0.3)
    trace = run_experiment(cfg)
    assert trace.records[-1].grad_sq_norm < 1e-12
    assert trace.summary["epsilon_spent"] == float("inf")
    assert trace.summary["total_bits"] == 300 * 4 * 3 * 32


def test_k_zero_empty_trace():
    trace = run_experiment(_config(K=0))
    assert trace.records == []
    assert trace.summary["rounds_run"] == 0
    assert trace.summary["weighted_error"] is None


def test_determinism_bitwise(tmp_path):
    for algo in ("gau_lrq_sgd", "dynamic_gau_lrq_sgd", "qg_sgd", "gau_sgd"):
        cfg = _config(algorithm=algo, tau=0.9, s2=1.0, K=4)
        t1 = run_experiment(cfg)
        t2 = run_experiment(_config(algorithm=algo, tau=0.9, s2=1.0, K=4))
        assert np.array_equal(t1.final_theta, t2.final_theta)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        t1.to_csv(p1, algo)
        t2.to_csv(p2, algo)
        assert p1.read_bytes() == p2.read_bytes()


_SERIALIZE, _DRAW_CHUNK = orchestrator.serialize_message, orchestrator.Simulation._draw_chunk
_ELEMENT_PAIRS, _SAMPLE_LAYER = orchestrator.element_pairs, orchestrator.sample_layer
_INV_NORM_CDF, _UNIFORM_BLOCK = orchestrator.inv_norm_cdf, orchestrator.uniform_block


def _run_in_chunks(monkeypatch, tmp_path, block_bytes, **kw):
    """One run under a byte bound on the stepper's blocks and the chunks of
    rounds: its artifacts' bytes, the first round of each chunk, and the
    error it stopped on. Checks that every draw but the "init" lane's is made by
    a chunk, one call per lane; that a chunk maps its noise uniforms to normals in
    one call; and that the layered codecs sample their layers once in each chunk,
    at sigma 1 in both clip modes, and never in a round."""
    monkeypatch.setattr(training, "_BLOCK_BYTES", block_bytes)
    wire, chunks, draws, layers, normals = [], [], [], [], []
    monkeypatch.setattr(orchestrator, "serialize_message",
                        lambda msg: wire.append(_SERIALIZE(msg)) or wire[-1])
    monkeypatch.setattr(orchestrator.Simulation, "_draw_chunk",
                        lambda sim, *args: chunks.append(sim.round) or _DRAW_CHUNK(sim, *args))
    for name, draw in (("element_pairs", _ELEMENT_PAIRS), ("uniform_block", _UNIFORM_BLOCK)):
        monkeypatch.setattr(orchestrator, name, lambda *args, draw=draw: draws.append(
            (args[0].run_id.rpartition("/")[2], args[2])) or draw(*args))
    monkeypatch.setattr(orchestrator, "sample_layer",
                        lambda *args: layers.append(args[0]) or _SAMPLE_LAYER(*args))
    monkeypatch.setattr(orchestrator, "inv_norm_cdf",
                        lambda u: normals.append(u) or _INV_NORM_CDF(u))
    cfg = _config(**kw)
    sim, error = build_simulation(cfg), None
    try:
        sim.run()
    except DivergedError as exc:
        error = str(exc)
    trace = sim.trace()
    trace.to_csv(tmp_path / "trace.csv", cfg.algorithm)
    trace.to_summary_json(tmp_path / "summary.json")
    artifacts = [(tmp_path / name).read_bytes() for name in ("trace.csv", "summary.json")]
    # The "init" lane's draw at round 0, then each chunk's, all with a rounds axis, in call
    # order: the round's clients, then the lanes they draw.
    pipeline = PIPELINES[AlgorithmKind[cfg.algorithm.upper()]]
    chunk = ["sample"] + ["batch"] * (0 < cfg.batch_size < cfg.n_per_client)
    chunk += ["noise"] * pipeline.noisy
    chunk += {orchestrator._draw_stochastic: ["sq"], orchestrator._draw_layered: ["quant"]}.get(
        pipeline.draw, [])
    assert [lane for lane, _ in draws] == ["init"] + chunk * len(chunks)
    assert draws[0] == ("init", 0) and all(np.ndim(rounds) == 1 + (lane != "sample")
                                           for lane, rounds in draws[1:])
    assert layers == [1.0] * ((pipeline.draw is orchestrator._draw_layered) * len(chunks))
    assert len(normals) == 1 + pipeline.noisy * len(chunks)
    return artifacts + [trace.final_theta.tobytes(), wire, error], chunks


@pytest.mark.parametrize("batch_size", [3, 0], ids=["minibatch", "full-batch"])
@pytest.mark.parametrize("clip_mode", ["fixed", "median_adaptive"])
@pytest.mark.parametrize("algo", [a.name.lower() for a in AlgorithmKind])
def test_chunk_of_rounds_changes_no_byte(algo, clip_mode, batch_size, monkeypatch, tmp_path):
    # One round per chunk, then the whole run in one: the draws, and so every
    # artifact and wire byte, must not depend on how the rounds are chunked.
    kw = dict(algorithm=algo, clip_mode=clip_mode, N=10, B=3, Q=2, K=6, d=4, tau=0.9,
              s2=1.0, batch_size=batch_size)
    one, one_chunks = _run_in_chunks(monkeypatch, tmp_path, 1, **kw)
    whole, whole_chunks = _run_in_chunks(monkeypatch, tmp_path, 1 << 40, **kw)
    assert one_chunks == list(range(6)) and whole_chunks == [0]
    assert len(one[3]) == 6 * 3 and one[4] is None
    assert one == whole


@pytest.mark.parametrize("kw", [
    dict(algorithm="local_sgd", K=8, eta=50.0),  # a local model, in round 3
    *(dict(algorithm=algo, K=20, s2=1.0, epsilon=4.0, divergence_ceiling=10.0)  # the global one
      for algo in ("gau_sgd", "qg_sgd", "gau_lrq_sgd", "dynamic_gau_lrq_sgd"))],
    ids=lambda kw: kw["algorithm"])
def test_run_diverging_mid_chunk_stops_where_a_chunked_one_does(kw, monkeypatch, tmp_path):
    one, one_chunks = _run_in_chunks(monkeypatch, tmp_path, 1, **kw)
    whole, whole_chunks = _run_in_chunks(monkeypatch, tmp_path, 1 << 40, **kw)
    rounds = len(one_chunks) - 1  # the round that diverged drew a chunk too
    assert 0 < rounds < kw["K"] - 1 and whole_chunks == [0]
    assert one[4] is not None and one[0].count(b"\n") == 1 + rounds
    assert one == whole


def _arrays(item):
    """Every array in a chunk's rows, with the arrays each views."""
    if isinstance(item, (list, tuple)):
        for part in item:
            yield from _arrays(part)
    while isinstance(item, np.ndarray):
        yield item
        item = item.base


@pytest.mark.parametrize("kw", [
    dict(K=4, batch_size=3),  # completes
    dict(K=20, epsilon=4.0, divergence_ceiling=10.0)],  # diverges mid-run
    ids=["completed", "diverged"])
@pytest.mark.parametrize("algo", ["gau_sgd", "qg_sgd", "gau_lrq_sgd"])
def test_run_drops_its_last_chunk(algo, kw, monkeypatch):
    # Nothing reads a chunk's draws after the last round: once run() returns or raises,
    # no array a chunk drew, nor any it views, is still referenced.
    refs = []
    monkeypatch.setattr(orchestrator.Simulation, "_draw_chunk", lambda sim: _DRAW_CHUNK(sim) or
                        refs.extend(weakref.ref(a) for a in _arrays(sim._chunk[1])))
    sim = build_simulation(_config(algorithm=algo, s2=1.0, **kw))
    try:
        sim.run()
    except DivergedError:
        pass
    gc.collect()
    assert (len(sim.records) == kw["K"]) == ("batch_size" in kw) and refs
    assert [ref for ref in refs if ref() is not None] == []


@pytest.mark.parametrize("side", ["encode", "decode"])
def test_layered_rows_are_read_only(side):
    # The chunk's unit rows are read-only, and so is the round's layer that the clients' encode
    # and the server's decode both read: a write into any of its arrays by either side raises
    # ValueError, and the failed round changes nothing.
    sim = build_simulation(_config(algorithm="gau_lrq_sgd", N=10, B=3, K=4, d=4, s2=1.0))
    sim.run_round()
    code = sim._chunk[1][1][3]
    assert len(code) == 3 and not any(a.flags.writeable for a in code)
    theta, records = sim.theta.tobytes(), list(sim.records)
    codec = getattr(sim._pipeline, side)
    for name in ("x", "R", "q_step"):

        def scribble(*args):
            getattr(args[-1], name)[0, 0] = 0.0
            return codec(*args)

        sim._pipeline = sim._pipeline._replace(**{side: scribble})
        with pytest.raises(ValueError, match="read-only"):
            sim.run_round()
        assert sim.theta.tobytes() == theta and sim.records == records and sim.round == 1


@pytest.mark.parametrize("algo, clip_mode", [("gau_lrq_sgd", "fixed"),
                                             ("dynamic_gau_lrq_sgd", "median_adaptive")])
def test_one_layer_a_round(algo, clip_mode):
    # Each round puts its unit rows at its sigma once: encode and decode get that one
    # read-only (3, B, d) block of x, R and q_step.
    sim = build_simulation(_config(algorithm=algo, clip_mode=clip_mode, N=10, B=3, K=5, d=4,
                                   s2=1.0))
    p, layers, read = sim._pipeline, [], []  # what at returned; what encode and decode read

    def reader(codec):
        return lambda *args: read.append(args[-1]) or codec(*args)

    sim._pipeline = p._replace(at=lambda *args: layers.append(p.at(*args)) or layers[-1],
                               encode=reader(p.encode), decode=reader(p.decode))
    sim.run()
    assert len(sim.records) == len(layers) == 5 and len(read) == 10
    for layer, enc, dec in zip(layers, read[::2], read[1::2]):
        assert enc is layer and dec is layer and layer.L is None
        assert layer.x.base.shape == (3, 3, 4) and not layer.x.base.flags.writeable
        assert all(a.base is layer.x.base for a in (layer.R, layer.q_step))


# -- run()'s held worker -------------------------------------------------------

def _spy_threads(monkeypatch, sim):
    """Record the thread of each evaluation, codec draw and layer sample of ``sim``, each
    such stage and each submit to a pool, with its thread, in call order, and the size of
    each pool that run() makes."""
    seen = {"evaluation": [], "draw": [], "layer": [], "pools": [], "order": []}
    evaluate, draw = sim.objective.trace_terms, sim._pipeline.draw

    def spy(stage, fn):
        def call(*args):
            seen[stage].append(threading.get_ident())
            seen["order"].append((stage, threading.get_ident()))
            return fn(*args)
        return call

    class Pool(ThreadPoolExecutor):
        def submit(self, fn, *args):
            seen["order"].append(("submit", threading.get_ident()))
            return super().submit(fn, *args)

    monkeypatch.setattr(sim.objective, "trace_terms", spy("evaluation", evaluate))
    if draw is not None:
        sim._pipeline = sim._pipeline._replace(draw=spy("draw", draw))
    monkeypatch.setattr(orchestrator, "sample_layer", spy("layer", _SAMPLE_LAYER))
    monkeypatch.setattr(training, "ThreadPoolExecutor",
                        lambda n: seen["pools"].append(n) or Pool(n))
    return seen


@pytest.mark.parametrize("clip_mode", ["fixed", "median_adaptive"])
def test_evaluation_runs_on_the_worker_past_a_block(clip_mode, monkeypatch):
    # Data past _BLOCK_BYTES = 1 (a chunk a round): run() holds one worker thread for
    # each round's evaluation; the codec draw and its layer sample, one a chunk in both clip
    # modes, stay on the caller's. Joined at the end.
    # Past _EVAL_BYTES = 1 the evaluation takes one theta, so each round makes one.
    monkeypatch.setattr(training, "_BLOCK_BYTES", 1)
    monkeypatch.setattr(training, "_EVAL_BYTES", 1)
    sim = build_simulation(_config(algorithm="gau_lrq_sgd", clip_mode=clip_mode, N=10, B=3,
                                   K=4, d=4, tau=0.9, s2=1.0))
    seen, caller = _spy_threads(monkeypatch, sim), threading.get_ident()
    before = threading.active_count()
    sim.run()
    assert seen["pools"] == [1] and threading.active_count() == before
    (worker,) = set(seen["evaluation"]) - {caller}
    assert seen["evaluation"] == [worker] * 4
    assert seen["draw"] == [caller] * 4 and seen["layer"] == [caller] * 4
    # Each round submits its evaluation before it draws its chunk, so the worker evaluates
    # while the caller draws.
    assert [stage for stage, t in seen["order"] if t == caller] == [
        "submit", "draw", "layer"] * 4


def test_no_thread_starts_under_a_block(monkeypatch):
    # Criterion 9's 320 KB of data stay under _BLOCK_BYTES: run() makes no pool and
    # defers on the caller's thread. A bare run_round() defers inline at any size. The
    # run evaluates its 3 rounds as one block, in the last; a bare round evaluates its own.
    cfg = dict(algorithm="gau_lrq_sgd", N=100, B=10, Q=5, K=3, eta=0.05, epsilon=2.0,
               tau=0.9, s2=1.0, d=20, n_per_client=20, batch_size=5, seed=0)
    sim, bare = build_simulation(_config(**cfg)), build_simulation(_config(**cfg))
    assert sim.objective.shards[0].nbytes == 320_000 < training._BLOCK_BYTES
    seen, caller = _spy_threads(monkeypatch, sim), threading.get_ident()
    before = threading.active_count()
    sim.run()
    monkeypatch.setattr(training, "_BLOCK_BYTES", 1)
    bare_seen = _spy_threads(monkeypatch, bare)
    bare.run_round()
    assert seen["pools"] == bare_seen["pools"] == [] and threading.active_count() == before
    assert {t for stage in ("evaluation", "draw", "layer") for t in seen[stage] + bare_seen[stage]
            } == {caller}
    assert len(seen["evaluation"]) == 1 and len(bare_seen["evaluation"]) == 1


@pytest.mark.parametrize("clip_mode", ["fixed", "median_adaptive"])
def test_thread_census_of_gaulrq_run(clip_mode, monkeypatch, tmp_path):
    # gaulrq run on 2800 bytes of data in 4 slabs, with 280-byte client shards. Past a
    # _BLOCK_BYTES of 1000 exactly three pools of one thread each start, in this order:
    # synth_partition's upper slabs, run()'s evaluations and Objective.spec's optimum.
    # The finiteness scan, the variance bound (whose blocks hold 3 shards) and the codec
    # draw stay on the caller. Under the gate none starts. Either way no thread outlives
    # the call, and the artifacts are the same bytes.
    monkeypatch.setattr(training, "_SLAB", 100)
    package, pools = Path(training.__file__).parent, []

    def pool(n):  # named by the package function that entered training.beside
        frames = [f.name for f in traceback.extract_stack() if Path(f.filename).parent == package]
        pools.append((frames[-2], n))
        return ThreadPoolExecutor(n)

    monkeypatch.setattr(training, "ThreadPoolExecutor", pool)
    config = tmp_path / "census.json"
    config.write_text(json.dumps(dataclasses.asdict(_config(
        algorithm="gau_lrq_sgd", clip_mode=clip_mode, N=10, B=3, K=4, d=5, n_per_client=7,
        tau=0.9, s2=1.0))))
    runs = []
    for block, want in ((1000, [("synth_partition", 1), ("run", 1), ("spec", 1)]),
                        (1 << 20, [])):
        monkeypatch.setattr(training, "_BLOCK_BYTES", block)
        out, before = tmp_path / str(block), threading.enumerate()
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
        assert pools == want and threading.enumerate() == before
        runs.append([(out / f"t_{kind}").read_bytes()
                     for kind in ("trace.csv", "summary.json", "bounds.json")])
        pools.clear()
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kw", [
    dict(algorithm="local_sgd", K=8, eta=50.0),
    dict(algorithm="dynamic_gau_lrq_sgd", K=8, eta=50.0, s2=1.0, tau=0.9,
         clip_mode="median_adaptive")], ids=lambda kw: kw["algorithm"])
def test_divergence_with_the_worker_on_is_the_error_seen(kw, monkeypatch, tmp_path):
    # The local steps diverge in round 2 while the worker evaluates it: the caller sees
    # that DivergedError, the rounds before it match an inline run's, and the worker is
    # joined. gaulrq run keeps its partial trace and exits 1.
    runs = []
    for block in (1, 1 << 40):
        monkeypatch.setattr(training, "_BLOCK_BYTES", block)
        sim = build_simulation(_config(**kw))
        seen, before = _spy_threads(monkeypatch, sim), threading.active_count()
        with pytest.raises(DivergedError, match="^local model norm exceeded ceiling"):
            sim.run()
        assert threading.active_count() == before and seen["pools"] == ([1] if block == 1 else [])
        sim.trace("diverged").to_csv(tmp_path / "trace.csv", kw["algorithm"])
        runs.append(((tmp_path / "trace.csv").read_bytes(), sim.theta.tobytes(), sim.round))
    assert runs[0] == runs[1] and runs[0][2] == 2
    monkeypatch.setattr(training, "_BLOCK_BYTES", 1)
    config = tmp_path / "div.json"
    config.write_text(json.dumps(dataclasses.asdict(_config(**kw))))
    before = threading.active_count()
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
    assert threading.active_count() == before
    assert (tmp_path / "out" / "t_trace.csv").read_bytes() == runs[0][0]


@pytest.mark.parametrize("stage", ["evaluation", "draw"])
def test_worker_error_is_raised_on_the_caller(stage, monkeypatch):
    # An error on the worker is raised where its stage is read; the codec draw, made on
    # the caller while the worker holds the round's evaluation, raises at once.
    # Either way the worker is joined, and the failed round leaves no record and the model
    # where it was. Past _EVAL_BYTES = 1 round 0 evaluates its own theta.
    monkeypatch.setattr(training, "_BLOCK_BYTES", 1)
    monkeypatch.setattr(training, "_EVAL_BYTES", 1)
    sim = build_simulation(_config(algorithm="gau_lrq_sgd", N=10, B=3, K=4, d=4, s2=1.0))
    caller, failed = threading.get_ident(), []
    original = sim.objective.trace_terms if stage == "evaluation" else sim._pipeline.draw

    def fail(*args):
        if stage == "evaluation" and threading.get_ident() == caller:
            return original(*args)
        failed.append(threading.get_ident() != caller)
        raise RuntimeError(f"{stage} failed")  # the draw: a chunk's codec lane

    if stage == "evaluation":
        monkeypatch.setattr(sim.objective, "trace_terms", fail)
    else:
        sim._pipeline = sim._pipeline._replace(draw=fail)
    theta, before = sim.theta.tobytes(), threading.active_count()
    with pytest.raises(RuntimeError, match=f"^{stage} failed$"):
        sim.run()
    assert threading.active_count() == before and failed == [stage == "evaluation"]
    assert sim.round == 0 and sim.records == [] and sim.theta.tobytes() == theta


_OTHER_KIND = {AlgorithmKind.GAU_SGD: AlgorithmKind.LOCAL_SGD,
               AlgorithmKind.QG_SGD: AlgorithmKind.GAU_LRQ_SGD,
               AlgorithmKind.GAU_LRQ_SGD: AlgorithmKind.DYNAMIC_GAU_LRQ_SGD}


def _tamper_last_upload(monkeypatch, sim, field, value):
    """Rewrite one header field of the last upload of each round, keeping it parseable."""
    def tamper(msg):
        clients = sim._chunk[1][sim.round - sim._chunk[0]][0]
        if msg.client_id == clients[-1]:
            msg = msg._replace(**{field: value(msg, clients)})
            msg = msg._replace(payload=bytes((msg.dim * msg.bits_per_element + 7) // 8))
        return _SERIALIZE(msg)
    monkeypatch.setattr(orchestrator, "serialize_message", tamper)


@pytest.mark.parametrize("field, value", [
    ("client_id", lambda msg, clients: min(set(range(10)) - set(clients))),
    ("round", lambda msg, clients: msg.round + 1),
    ("dim", lambda msg, clients: msg.dim + 1),
    ("algorithm", lambda msg, clients: _OTHER_KIND[msg.algorithm])])
@pytest.mark.parametrize("algo", ["gau_sgd", "qg_sgd", "gau_lrq_sgd"])
def test_header_outside_the_round_schedule_is_rejected(algo, field, value, monkeypatch):
    # The last header is tampered with: every header is looked up, not only the first.
    sim = build_simulation(_config(algorithm=algo, N=10, B=3, K=4, s2=1.0))
    sim.run_round()
    theta, records = sim.theta.tobytes(), list(sim.records)
    _tamper_last_upload(monkeypatch, sim, field, value)
    with pytest.raises(InvalidParameterError, match=f"^message {field} .* outside round 1's"):
        sim.run_round()
    assert sim.theta.tobytes() == theta and sim.records == records and sim.round == 1


@pytest.mark.parametrize("case", ["duplicate", "swap"])
@pytest.mark.parametrize("algo", ["gau_sgd", "qg_sgd", "gau_lrq_sgd"])
def test_headers_out_of_schedule_order_are_rejected(algo, case, monkeypatch):
    # The server decodes the chunk's rows in schedule order, so header i
    # must name client i: a repeated client or two swapped uploads are rejected.
    sim = build_simulation(_config(algorithm=algo, N=10, B=3, K=4, s2=1.0))
    sim.run_round()
    theta, records = sim.theta.tobytes(), list(sim.records)
    clients = sim._chunk[1][1][0]
    if case == "duplicate":  # the last header repeats the first one's client
        _tamper_last_upload(monkeypatch, sim, "client_id", lambda msg, clients: clients[0])
        match = f"^message client_id {clients[0]} is outside round 1's schedule$"
    else:  # the first two uploads, headers and payloads, trade places
        encode = sim._pipeline.encode

        def swapped(*args):
            rows = encode(*args)
            return [rows[1], rows[0], *rows[2:]]

        sim._pipeline = sim._pipeline._replace(encode=swapped)
        trade = {clients[0]: clients[1], clients[1]: clients[0]}
        monkeypatch.setattr(orchestrator, "serialize_message", lambda msg: _SERIALIZE(
            msg._replace(client_id=trade.get(msg.client_id, msg.client_id))))
        match = f"^message client_id {clients[1]} is outside round 1's schedule$"
    with pytest.raises(InvalidParameterError, match=match):
        sim.run_round()
    assert sim.theta.tobytes() == theta and sim.records == records and sim.round == 1


def _round_zero(algo, clip_mode, tamper=None):
    """Round 0 of a 6-client, d = 8 run, each upload passed through ``tamper``:
    the simulation, the uploads as sent, and the error the round raised."""
    sim = build_simulation(_config(algorithm=algo, clip_mode=clip_mode, N=6, B=3, K=2, d=8,
                                   s2=1.0, seed=1))
    sent, error = [], None

    def serialize(msg):
        sent.append(tamper(msg) if tamper else msg)
        return _SERIALIZE(sent[-1])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orchestrator, "serialize_message", serialize)
        try:
            sim.run_round()
        except InvalidParameterError as exc:
            error = str(exc)
    return sim, sent, error


@pytest.mark.parametrize("algo, change, field", [
    ("qg_sgd", dict(bits_per_element=40), "bits_per_element"),
    ("gau_lrq_sgd", dict(bits_per_element=40), "bits_per_element"),
    ("dynamic_gau_lrq_sgd", dict(bits_per_element=2), "bits_per_element"),
    ("qg_sgd", dict(scale=4.0), "bits_per_element"),
    ("gau_lrq_sgd", dict(scale=4.0), "scale"),
    ("qg_sgd", dict(scale=1e200), "scale"),
    ("gau_lrq_sgd", dict(scale=1e200), "scale"),
    ("gau_lrq_sgd", dict(scale=1.0 + 2.0**-50), "scale")])
def test_header_the_server_can_recompute_is_checked(algo, change, field):
    # The width each scale needs at sigma, and under fixed clipping a layered
    # upload's scale at most s2 = 1: a header that breaks either is rejected
    # before any decode, with a payload of the length its width declares.
    def tamper(msg):
        msg = msg._replace(**change)
        return msg._replace(payload=bytes((msg.dim * msg.bits_per_element + 7) // 8))

    sim, sent, error = _round_zero(algo, "fixed", tamper)
    assert re.fullmatch(f"message {field} [^ ]+ is outside round 0's schedule", error)
    assert sim.theta.tobytes() == sim.theta0.tobytes() and sim.records == [] and sim.round == 0


def test_layered_scale_above_the_round_median_is_rejected():
    # Under median clipping the round's s2 is its median norm, 0.276 here, and the
    # server scales sigma by it: a layered upload's scale above clip_ceiling of that
    # median is rejected, naming the scale, before any decode.
    sim, _, error = _round_zero("dynamic_gau_lrq_sgd", "median_adaptive",
                                lambda msg: msg._replace(scale=0.3))
    assert error == "message scale 0.3 is outside round 0's schedule"
    assert sim.theta.tobytes() == sim.theta0.tobytes() and sim.records == [] and sim.round == 0


@functools.cache
def _honest_round_zero(algo, clip_mode):
    """The uploads of an accepted round 0, its sigma, theta after it, and its s2."""
    sim, sent, error = _round_zero(algo, clip_mode)
    assert error is None
    sigma = sim.records[0].sigma_used
    s2 = sigma / sim._sigmas[0] if clip_mode == "median_adaptive" and sigma else 1.0
    return tuple(sent), sigma, sim.theta.tobytes(), s2


def _past_the_ceiling(msg, s2, sigma):
    """Scales in (c, top]: past the round's clip ceiling c, at most 4x the sent scale,
    and at most the largest scale of the sent width at sigma (c if there is none)."""
    c = clip_ceiling(s2)
    top = min(4.0 * msg.scale, (2 ** msg.bits_per_element - 1) * MIN_STEP_FACTOR * sigma / 2)
    return st.floats(c, top, exclude_min=True) if top > c else st.just(c)


# Strategies for a header field, given the upload, its round's s2 and sigma. Three in
# four scales are _past_the_ceiling, which the server must reject for the layered
# codecs, median clipping included, though their width is the one sent.
_TAMPER = {
    "client_id": lambda msg, s2, sigma: st.integers(0, 7),
    "round": lambda msg, s2, sigma: st.integers(0, 2),
    "dim": lambda msg, s2, sigma: st.integers(0, 9),
    "bits_per_element": lambda msg, s2, sigma: st.sampled_from([1, 2, 3, 5, 8, 31, 32, MAX_BITS]),
    "algorithm": lambda msg, s2, sigma: st.sampled_from(list(AlgorithmKind)),
    "scale": lambda msg, s2, sigma: st.integers(0, 3).flatmap(lambda i: st.one_of(
        st.floats(0.0, 4.0).map(lambda f: f * msg.scale), st.floats(0.0, 1e300))
        if i == 0 else _past_the_ceiling(msg, s2, sigma)),
}


@settings(max_examples=300, deadline=None)
@given(algo=st.sampled_from([a.name.lower() for a in AlgorithmKind]),
       clip_mode=st.sampled_from(["fixed", "median_adaptive"]), which=st.integers(0, 2),
       field=st.sampled_from(sorted(_TAMPER)), data=st.data())
def test_tampered_header_is_rejected_or_decodes_the_same(algo, clip_mode, which, field, data):
    """One header field of one real upload of round 0 changes. The round then
    raises InvalidParameterError, leaving the run as it was, or decodes the same
    bytes. A change to the client, round, dim, algorithm or width is always
    rejected, and so is a scale that moves its width or, for the layered codecs,
    passes clip_ceiling of the round's s2: 1, or under median clipping the
    median, sigma over the S2 = 1 schedule's sigma_0. Any other scale is data the
    server cannot check: that round is accepted, and its model moves."""
    sent, sigma, theta, s2 = _honest_round_zero(algo, clip_mode)
    msg = sent[which]
    new = msg._replace(**{field: data.draw(_TAMPER[field](msg, s2, sigma))})
    if new.dim * new.bits_per_element != msg.dim * msg.bits_per_element:
        new = new._replace(payload=bytes((new.dim * new.bits_per_element + 7) // 8))
    reject = _SERIALIZE(new) != _SERIALIZE(msg)
    pipeline = PIPELINES[msg.algorithm]
    if field == "scale" and reject:
        try:
            moved = bit_width(new.scale, sigma) != msg.bits_per_element
        except InvalidParameterError:
            moved = True
        reject = moved or (not pipeline.noisy and new.scale > clip_ceiling(s2))
    sim, _, error = _round_zero(algo, clip_mode, lambda m: new if m == msg else m)
    if reject:
        assert error is not None
        assert sim.theta.tobytes() == sim.theta0.tobytes() and sim.records == []
    else:
        assert error is None
        if _SERIALIZE(new) == _SERIALIZE(msg):
            assert sim.theta.tobytes() == theta


_REPLAY = """
import json, sys
from gaulrq.config import ExperimentConfig, run_experiment
for name, config in json.loads(sys.argv[1]).items():
    cfg = ExperimentConfig.from_dict(config)
    trace = run_experiment(cfg)
    trace.to_csv(f"{sys.argv[2]}-{name}.csv", cfg.algorithm)
    trace.to_summary_json(f"{sys.argv[2]}-{name}.json")
    trace.final_theta.tofile(f"{sys.argv[2]}-{name}.theta")
"""


def test_replay_across_blas_threads(tmp_path, fresh):
    # Four experiments whose products run in BLAS. Criterion 9 evaluates its trace in blocks
    # of 8 thetas, two GEMMs each. A local-heavy one (20000 x 100) evaluates one theta a round
    # on run()'s worker, beside the clients' stacked steps, summing X^T r over blocks of 3
    # shards. A golden d = 5e4 config evaluates over one block and takes the norm of 5e4 values.
    # "local" is perfbench's local-heavy data (seed 0) at K = 3. The BLAS thread count changes
    # no byte of any trace, summary or final model, and two runs at one count agree.
    configs = {
        "criterion9": dict(_ENGINE_CASES["criterion9"], algorithm="gau_lrq_sgd"),
        "local-heavy": dict(algorithm="dynamic_gau_lrq_sgd", clip_mode="median_adaptive",
                            objective="logistic", N=50, B=10, Q=20, K=10, eta=0.5, epsilon=4.0,
                            delta=1e-5, tau=0.9, s2=1.0, d=100, n_per_client=400, batch_size=0,
                            seed=3, run_id="local"),
        "wide": dict(algorithm="gau_lrq_sgd", objective="least_squares", N=4, B=1, Q=2, K=2,
                     eta=1e-4, epsilon=2.0, delta=1e-5, tau=0.9, s2=1.0, d=50_000,
                     n_per_client=4, batch_size=0, seed=3, run_id="wide"),
        "local": dict(algorithm="gau_lrq_sgd", clip_mode="fixed", objective="logistic", N=50,
                      B=10, Q=20, K=3, eta=0.5, epsilon=4.0, delta=1e-5, tau=0.9, s2=1.0, d=100,
                      n_per_client=400, label_noise=0.0, batch_size=0, seed=0, run_id="local")}
    runs = []  # each experiment's (trace CSV, summary, final theta) bytes at 1, 2 and again 2
    for i, threads in enumerate((1, 2, 2)):
        stem = tmp_path / f"run{i}"
        proc = fresh("-c", _REPLAY, json.dumps(configs), str(stem), threads=threads)
        assert proc.returncode == 0, proc.stderr
        runs.append({name: [Path(f"{stem}-{name}{ext}").read_bytes()
                            for ext in (".csv", ".json", ".theta")] for name in configs})
    assert runs[0] == runs[1] == runs[2]
    for name, config in configs.items():
        trace, _, theta = runs[0][name]
        assert trace.count(b"\n") == 1 + config["K"] and len(theta) == 8 * config["d"]


# -- the trace's evaluation queue --------------------------------------------------

def test_a_rows_bytes_do_not_depend_on_k(tmp_path):
    # local_sgd has no K-dependent schedule, so a K = 13 run is a K = 50 run's first 13
    # rounds. The K = 13 run evaluates a block of 8 rounds and one of 5, padded to 8.
    rows = []
    for K in (50, 13):
        cfg = ExperimentConfig.from_dict(dict(_ENGINE_CASES["criterion9"], algorithm="local_sgd",
                                              K=K))
        run_experiment(cfg).to_csv(tmp_path / "trace.csv", cfg.algorithm)
        rows.append((tmp_path / "trace.csv").read_bytes().splitlines())
    assert len(rows[0]) == 51 and rows[0][:14] == rows[1]


@pytest.mark.parametrize("algo", ["gau_lrq_sgd", "qg_sgd"])
def test_a_bare_round_returns_the_runs_record(algo):
    # Each bare run_round() evaluates its own theta; run() evaluates 8 a block, the last 4
    # in the last round. Every record is complete and the same.
    cfg = ExperimentConfig.from_dict(dict(_ENGINE_CASES["criterion9"], algorithm=algo, K=20))
    want = run_experiment(cfg).records
    sim = build_simulation(cfg)
    got = [sim.run_round() for _ in range(13)]
    assert all(math.isfinite(r.loss) and math.isfinite(r.grad_sq_norm) for r in got + want)
    assert got == want[:13] and sim.records == got


@pytest.mark.parametrize("bare", [1, 13, 20])
def test_run_after_bare_rounds_runs_the_rest(bare, tmp_path):
    # run() after some bare run_round() calls runs the rounds left, none if none is: the
    # records, trace CSV and theta are one run()'s, byte for byte.
    cfg = ExperimentConfig.from_dict(dict(_ENGINE_CASES["criterion9"], algorithm="gau_lrq_sgd",
                                          K=20))
    runs = []
    for rounds in (0, bare):
        sim = build_simulation(cfg)
        for _ in range(rounds):
            sim.run_round()
        trace = sim.run()
        trace.to_csv(tmp_path / "trace.csv", cfg.algorithm)
        runs.append((trace.records, (tmp_path / "trace.csv").read_bytes(),
                     trace.final_theta.tobytes()))
    assert len(runs[1][0]) == 20 and runs[1] == runs[0]


def test_a_diverged_run_keeps_each_completed_rounds_terms(tmp_path):
    # The local steps diverge in round 2, before its block of 8 is evaluated: the trace keeps
    # rounds 0 and 1, with the loss and grad_sq_norm bare rounds give them.
    cfg = _config(algorithm="local_sgd", K=8, eta=50.0)
    sim = build_simulation(cfg)
    with pytest.raises(DivergedError):
        sim.run()
    assert sim.round == 2 and sim.objective.trace_width == 8
    trace = sim.trace("diverged")
    bare = build_simulation(cfg)
    assert trace.records == [bare.run_round() for _ in range(2)]
    trace.to_csv(tmp_path / "trace.csv", cfg.algorithm)
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) == 3 and "nan" not in (tmp_path / "trace.csv").read_text()
    assert trace.summary["weighted_error"] == weighted_error(
        [r.grad_sq_norm for r in bare.records], cfg.tau)


def test_quantized_algorithms_meter_positive_and_budget_spent():
    for algo in ("gau_lrq_sgd", "dynamic_gau_lrq_sgd", "qg_sgd"):
        cfg = _config(algorithm=algo, tau=0.8, s2=1.0, K=6, B=2)
        trace = run_experiment(cfg)
        assert trace.summary["total_bits"] > 0
        assert trace.summary["total_bits"] < 6 * 2 * 3 * 32  # beats raw floats
        assert trace.summary["epsilon_spent"] == pytest.approx(cfg.epsilon,
                                                               rel=1e-9)


@pytest.mark.parametrize("clip_mode", ["fixed", "median_adaptive"])
@pytest.mark.parametrize("algo", ["gau_sgd", "qg_sgd", "gau_lrq_sgd", "dynamic_gau_lrq_sgd"])
def test_wire_scales_price_the_meter(algo, clip_mode):
    # Criterion 9's config at K=5: qg_sgd sizes its width from the noisy
    # vector, so only the transmitted scales reproduce its meter.
    cfg = ExperimentConfig.from_dict(dict(
        algorithm=algo, clip_mode=clip_mode, N=100, B=10, Q=5, K=5, eta=0.05,
        epsilon=2.0, delta=1e-5, tau=0.9, s2=1.0, objective="least_squares",
        d=20, n_per_client=20, label_noise=0.0, batch_size=5, seed=0,
        run_id="acc9"))
    trace = run_experiment(cfg)
    scales = [r.scales for r in trace.records]
    if not PIPELINES[AlgorithmKind[algo.upper()]].quantized:
        assert scales == [[]] * cfg.K
        return
    sigmas = [r.sigma_used for r in trace.records]
    assert comm_cost(cfg.d, scales, sigmas) == trace.summary["total_bits"]
    if algo != "qg_sgd":
        assert scales == [r.inf_norms for r in trace.records]


def test_gau_sgd_costs_full_precision():
    cfg = _config(algorithm="gau_sgd", s2=1.0, K=3, B=2)
    trace = run_experiment(cfg)
    assert trace.summary["total_bits"] == 3 * 2 * 3 * 32


def test_median_adaptive_mode_runs():
    cfg = _config(algorithm="gau_lrq_sgd", clip_mode="median_adaptive", K=4)
    trace = run_experiment(cfg)
    assert trace.summary["rounds_run"] == 4
    sigmas = [r.sigma_used for r in trace.records]
    assert all(s > 0 for s in sigmas)


def test_accountant_within_budget():
    cfg = _config(algorithm="gau_lrq_sgd", s2=1.0, K=50, epsilon=0.5)
    trace = run_experiment(cfg)
    # The fixed split spends exactly eps over K rounds: cumulative spend
    # never falls and ends within the budget.
    cums = [r.epsilon_spent_cumulative for r in trace.records]
    assert all(b >= a for a, b in zip(cums, cums[1:]))
    assert cums[-1] <= cfg.epsilon


@settings(max_examples=60, deadline=None)
@given(algo=st.sampled_from([a.name.lower() for a, p in PIPELINES.items() if p.private]),
       clip_mode=st.sampled_from(["fixed", "median_adaptive"]),
       nb=st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       K=st.integers(1, 6), epsilon=st.floats(0.1, 10.0), delta=st.floats(1e-8, 0.1),
       tau=st.floats(0.3, 1.0))
def test_epsilon_ledger_spends_the_budget(algo, clip_mode, nb, K, epsilon, delta, tau):
    # The ledger is the sigma schedule's: it never falls, never exceeds the
    # budget and ends on it, and a median-clipped run's does not depend on
    # the data (here, the seed). At small epsilon and N a median-clipped run's
    # noise grows with the model (noise ~ sigma * median update norm), so the
    # default ceiling of 1e6 would stop it before its last round; the ceiling
    # is lifted (models stay below about 1e9 here) so every run reaches round K.
    def eps_cum(seed):
        cfg = _config(algorithm=algo, clip_mode=clip_mode, N=nb[0], B=nb[1], K=K,
                      epsilon=epsilon, delta=delta, tau=tau, s2=1.0, seed=seed,
                      divergence_ceiling=1e300)
        return [r.epsilon_spent_cumulative for r in run_experiment(cfg).records]

    cums = eps_cum(21)
    assert all(b >= a for a, b in zip(cums, cums[1:]))
    assert max(cums) <= epsilon
    assert math.isclose(cums[-1], epsilon, rel_tol=1e-12, abs_tol=0.0)
    if clip_mode == "median_adaptive":
        assert eps_cum(22) == cums


def test_csv_schema(tmp_path):
    trace = run_experiment(_config(algorithm="gau_lrq_sgd", s2=1.0, K=2))
    path = tmp_path / "trace.csv"
    trace.to_csv(path, "gau_lrq_sgd")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "round,algo,loss,grad_sq_norm,bits_cum,sigma,eps_cum,clamps"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "gau_lrq_sgd"
    # Lossless float round trip at 17 significant digits.
    assert float(first[2]) == trace.records[0].loss


def test_summary_json(tmp_path):
    import json
    trace = run_experiment(_config(K=2))
    path = tmp_path / "summary.json"
    trace.to_summary_json(path)
    data = json.loads(path.read_text())
    assert data["algorithm"] == "local_sgd"
    assert data["rounds_run"] == 2
