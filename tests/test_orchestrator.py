import csv
import dataclasses
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
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
from gaulrq.quantizers import (MAX_BITS, MIN_STEP_FACTOR, bit_width, lrq_quantize_vector,
                               sample_layer, stochastic_quantize_indices)
from gaulrq.streams import DrawStream, SeedMaterial, element_pairs, uniform_pair_block
from gaulrq.training import ModelState, local_rounds


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


def test_pack_matches_reference_at_d1e5():
    idx = np.random.default_rng(4).integers(-4, 4, size=100_000)
    payload = pack_indices(idx, 3)
    assert payload == _ref_pack(idx, 3)
    assert np.array_equal(unpack_indices(payload, idx.size, 3), idx)


@st.composite
def _index_rows(draw):
    """A (B, d) index array with one width per row, mixed over 1..MAX_BITS."""
    widths = draw(st.lists(st.integers(1, MAX_BITS), min_size=1, max_size=6))
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


@pytest.mark.parametrize("c", [2.0**-1000, 1e-60, 1.0, 1e200],
                         ids=["2^-1000", "1e-60", "1", "1e200"])
@pytest.mark.parametrize("algo", [AlgorithmKind.QG_SGD, AlgorithmKind.GAU_LRQ_SGD],
                         ids=lambda algo: algo.name.lower())
def test_parsed_scale_is_the_inf_norm_bit_for_bit(algo, c):
    # Rows of thirds: no float32 holds their inf-norms, at any magnitude c.
    pipeline = orchestrator.PIPELINES[algo]
    V = c * np.random.default_rng(3).standard_normal((5, 7)) / 3.0
    # A chunk of one round at sigma c: its rows, as encode reads them.
    (rows,) = pipeline.draw(SeedMaterial(0, "scale"), np.arange(5)[None], [[2]], 7, c)
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


_RECONSTRUCT = orchestrator.lrq_reconstruct_rows
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
        b = bit_width(np.max(np.abs(v)), sigma)
        idx, scale = stochastic_quantize_indices(v, b, u)
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
    replays = []
    monkeypatch.setattr(orchestrator, "lrq_reconstruct_rows",
                        lambda *args: replays.append(args[2]) or _RECONSTRUCT(*args))
    record = sim.run_round()
    server = replays[:]
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
        # The oracle's own fresh draw of this client's layers.
        layer = (sample_layer(record.sigma_used, tuple(
            u[None] for u in element_pairs(seed.lane("quant"), cid, k, cfg.d)))
            if algo == "gau_lrq_sgd" else None)
        total = total + orchestrator.PIPELINES[msg.algorithm].decode(
            [parse_message(raw)], record.sigma_used, layer)[0]
    assert sim.theta.tobytes() == (theta + total / cfg.B).tobytes()
    # The server decoded the chunk's own replay layers, uncopied, not the clients' layers.
    _, _, _, code = sim._chunk[1][k]
    replay = sim._chunk[2].result()[k] if sim._chunk[2] else None
    if algo == "gau_lrq_sgd":
        assert len(server) == 1 and server[0] is replay
        fields = [(layer.x, layer.R, layer.q_step) for layer in (replay, code)]
        assert not any(np.shares_memory(a, b) for a in fields[0] for b in fields[1])
    else:
        assert server == [] and replay is None


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
_INV_NORM_CDF = orchestrator.inv_norm_cdf
# element_pairs calls of one chunk: the noise lane, the dither lane and its server replay.
_CHUNK_PAIR_DRAWS = {"local_sgd": 0, "gau_sgd": 1, "qg_sgd": 1, "gau_lrq_sgd": 2,
                     "dynamic_gau_lrq_sgd": 2}


def _run_in_chunks(monkeypatch, tmp_path, block_bytes, **kw):
    """One run under a byte bound on the stepper's blocks and the chunks of
    rounds: its artifacts' bytes, the first round of each chunk, and the
    error it stopped on. Checks that every per-element draw, the server's
    included, is made by a chunk, one call per lane; that a chunk maps its
    noise uniforms to normals in one call; and that the layered codecs sample
    their layers twice, the clients' and the server's, in each chunk under
    fixed clipping and in each round under median clipping."""
    monkeypatch.setattr(training, "_BLOCK_BYTES", block_bytes)
    wire, chunks, draws, layers, normals = [], [], [], [], []
    monkeypatch.setattr(orchestrator, "serialize_message",
                        lambda msg: wire.append(_SERIALIZE(msg)) or wire[-1])
    monkeypatch.setattr(orchestrator.Simulation, "_draw_chunk",
                        lambda sim: chunks.append(sim.round) or _DRAW_CHUNK(sim))
    monkeypatch.setattr(orchestrator, "element_pairs",
                        lambda *args: draws.append(args[2]) or _ELEMENT_PAIRS(*args))
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
    # The "init" lane's draw at round 0, then each chunk's, all with a rounds axis.
    assert len(draws) == 1 + len(chunks) * _CHUNK_PAIR_DRAWS[cfg.algorithm]
    assert all(np.ndim(rounds) == 2 for rounds in draws[1:])
    pipeline = PIPELINES[AlgorithmKind[cfg.algorithm.upper()]]
    fixed = cfg.clip_mode == "fixed"
    assert len(layers) == 2 * pipeline.replayed * (len(chunks) if fixed else len(trace.records))
    assert all(np.ndim(sigma) == (3 if fixed else 0) for sigma in layers)  # chunk: a column
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


# -- run()'s held worker -------------------------------------------------------

def _spy_threads(monkeypatch, sim):
    """Record the thread of each evaluation, codec draw and layer sample of ``sim``, and
    the size of each pool that run() makes."""
    seen = {"evaluation": [], "draw": [], "layer": [], "pools": []}
    evaluate, draw = sim.objective.loss_and_gradient, sim._pipeline.draw

    def spy(stage, fn):
        return lambda *args: seen[stage].append(threading.get_ident()) or fn(*args)

    monkeypatch.setattr(sim.objective, "loss_and_gradient", spy("evaluation", evaluate))
    if draw is not None:
        sim._pipeline = sim._pipeline._replace(draw=spy("draw", draw))
    monkeypatch.setattr(orchestrator, "sample_layer", spy("layer", _SAMPLE_LAYER))
    monkeypatch.setattr(orchestrator, "ThreadPoolExecutor",
                        lambda n: seen["pools"].append(n) or ThreadPoolExecutor(n))
    return seen


@pytest.mark.parametrize("clip_mode", ["fixed", "median_adaptive"])
def test_evaluation_and_replay_draw_run_on_the_worker_past_a_block(clip_mode, monkeypatch):
    # Data past _BLOCK_BYTES = 1 (a chunk a round): run() holds one worker thread for
    # each round's evaluation and each chunk's replay draw; the clients' draw and every
    # layer sample (a median-clipped round's too) stay on the caller's. Joined at the end.
    monkeypatch.setattr(training, "_BLOCK_BYTES", 1)
    sim = build_simulation(_config(algorithm="gau_lrq_sgd", clip_mode=clip_mode, N=10, B=3,
                                   K=4, d=4, tau=0.9, s2=1.0))
    seen, caller = _spy_threads(monkeypatch, sim), threading.get_ident()
    before = threading.active_count()
    sim.run()
    assert seen["pools"] == [1] and threading.active_count() == before
    (worker,) = set(seen["evaluation"]) - {caller}
    assert seen["evaluation"] == [worker] * 4
    assert sorted(seen["draw"]) == sorted([worker, caller] * 4)
    # Under fixed clipping the replay draw samples the server's layers; a median-clipped
    # round samples both sides' at its own sigma, on the caller's thread.
    assert sorted(seen["layer"]) == sorted([worker, caller] * 4 if clip_mode == "fixed"
                                           else [caller] * 8)


def test_no_thread_starts_under_a_block(monkeypatch):
    # Criterion 9's 320 KB of data stay under _BLOCK_BYTES: run() makes no pool and
    # defers on the caller's thread. A bare run_round() defers inline at any size.
    cfg = dict(algorithm="gau_lrq_sgd", N=100, B=10, Q=5, K=3, eta=0.05, epsilon=2.0,
               tau=0.9, s2=1.0, d=20, n_per_client=20, batch_size=5, seed=0)
    sim = build_simulation(_config(**cfg))
    assert sim.objective.shards[0].nbytes == 320_000 < training._BLOCK_BYTES
    seen, caller = _spy_threads(monkeypatch, sim), threading.get_ident()
    before = threading.active_count()
    sim.run()
    monkeypatch.setattr(training, "_BLOCK_BYTES", 1)
    bare = build_simulation(_config(**cfg))
    bare_seen = _spy_threads(monkeypatch, bare)
    bare.run_round()
    assert seen["pools"] == bare_seen["pools"] == [] and threading.active_count() == before
    assert {t for stage in ("evaluation", "draw", "layer") for t in seen[stage] + bare_seen[stage]
            } == {caller}
    assert len(seen["evaluation"]) == 3 and len(bare_seen["evaluation"]) == 1


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


@pytest.mark.parametrize("stage", ["evaluation", "replay"])
def test_worker_error_is_raised_on_the_caller(stage, monkeypatch):
    # An error on the worker is raised where its stage is read, the worker is joined, and
    # the failed round leaves no record and the model where it was.
    monkeypatch.setattr(training, "_BLOCK_BYTES", 1)
    sim = build_simulation(_config(algorithm="gau_lrq_sgd", N=10, B=3, K=4, d=4, s2=1.0))
    caller, failed = threading.get_ident(), []
    original = sim.objective.loss_and_gradient if stage == "evaluation" else sim._pipeline.draw

    def fail(*args):
        if threading.get_ident() == caller:  # the clients' draw
            return original(*args)
        failed.append(threading.get_ident())
        raise RuntimeError(f"{stage} failed")

    if stage == "evaluation":
        monkeypatch.setattr(sim.objective, "loss_and_gradient", fail)
    else:
        sim._pipeline = sim._pipeline._replace(draw=fail)
    theta, before = sim.theta.tobytes(), threading.active_count()
    with pytest.raises(RuntimeError, match=f"^{stage} failed$"):
        sim.run()
    assert threading.active_count() == before and len(failed) == 1
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
    # The server decodes the chunk's replay rows in schedule order, so header i
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
cfg = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
trace = run_experiment(cfg)
trace.to_csv(sys.argv[2] + ".csv", cfg.algorithm)
trace.final_theta.tofile(sys.argv[2] + ".theta")
"""


def test_replay_across_blas_threads(tmp_path):
    # A local-heavy experiment: its (B, n, d) local steps and 20000 x 100
    # evaluation run in BLAS. The thread count changes no bit of the final
    # model or of any trace column but grad_sq_norm. That column reduces
    # X^T r over all 20000 samples, a sum OpenBLAS splits across threads, so
    # it may move in the last bits. Two runs at one count (both on run()'s worker, beside
    # the clients' BLAS calls) must agree in every byte.
    config = json.dumps(dict(algorithm="dynamic_gau_lrq_sgd", clip_mode="median_adaptive",
                             objective="logistic", N=50, B=10, Q=20, K=10, eta=0.5,
                             epsilon=4.0, delta=1e-5, tau=0.9, s2=1.0, d=100,
                             n_per_client=400, batch_size=0, seed=3, run_id="local"))
    src = str(Path(orchestrator.__file__).resolve().parents[1])
    runs = []  # (trace CSV bytes, final theta bytes) at 1, 2 and again 2 threads
    for i, threads in enumerate(("1", "2", "2")):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        stem = tmp_path / f"run{i}"
        subprocess.run([sys.executable, "-c", _REPLAY, config, str(stem)],
                       env=env, check=True, timeout=120)
        runs.append(tuple(stem.with_suffix(ext).read_bytes() for ext in (".csv", ".theta")))
    assert runs[1] == runs[2]
    thetas = [theta for _, theta in runs[:2]]
    traces = [list(csv.DictReader(io.StringIO(trace.decode()))) for trace, _ in runs[:2]]
    assert len(thetas[0]) == 100 * 8 and thetas[0] == thetas[1]
    assert len(traces[0]) == 10 and len(traces[1]) == 10
    for one, two in zip(*traces):
        assert math.isclose(float(one.pop("grad_sq_norm")), float(two.pop("grad_sq_norm")),
                            rel_tol=1e-12, abs_tol=0.0)
        assert one == two


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
