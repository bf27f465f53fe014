import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaulrq import orchestrator
from gaulrq.analysis import comm_cost
from gaulrq.config import ExperimentConfig, build_simulation, run_experiment
from gaulrq.errors import ConfigError, InvalidParameterError
from gaulrq.orchestrator import (AlgorithmKind, WireMessage,
                                 pack_indices, parse_message, sample_clients,
                                 serialize_message, unpack_indices)
from gaulrq.privacy import clip_update
from gaulrq.quantizers import MAX_BITS, lrq_quantize_vector
from gaulrq.streams import DrawStream, SeedMaterial, element_pairs, uniform_pair_block
from gaulrq.training import LocalDataset, ModelState, Objective, local_rounds


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


def test_serialize_parse_round_trip():
    for algo in AlgorithmKind:
        if algo.quantized:
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
    if algo.quantized:
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
    raw[14:18] = np.array([np.nan], dtype="<f4").tobytes()
    with pytest.raises(InvalidParameterError, match="scale"):
        parse_message(bytes(raw))


@st.composite
def _messages(draw):
    algo = draw(st.sampled_from(list(AlgorithmKind)))
    dim = draw(st.integers(0, 40))
    bits = draw(st.integers(1, MAX_BITS)) if algo.quantized else 32
    idx = draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=dim, max_size=dim))
    payload = pack_indices(np.array(idx, dtype=np.int64), bits)
    scale = draw(st.floats(0.0, 2.0**100, width=32)) if algo.quantized else 0.0
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


def test_algorithm_kind_lookup():
    assert AlgorithmKind["GAU_LRQ_SGD"] is AlgorithmKind.GAU_LRQ_SGD
    assert not AlgorithmKind.LOCAL_SGD.private
    assert AlgorithmKind.GAU_SGD.private and not AlgorithmKind.GAU_SGD.quantized
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
    grad = sim.objective.full_gradient(theta0)
    # Equal shards: mean of client updates = -eta * global gradient, up to
    # the float32 payload rounding.
    assert np.allclose(sim.theta, theta0 - cfg.eta * grad, atol=1e-6)


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


@pytest.mark.parametrize("case", sorted(_ENGINE_CASES))
def test_round_engine_matches_per_client_oracle(case, monkeypatch):
    """The stacked round equals B one-client pipelines, bit for bit."""
    cfg = ExperimentConfig.from_dict(dict(_ENGINE_CASES[case], algorithm="gau_lrq_sgd"))
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
    record = sim.run_round()
    (updates,) = stacked
    assert updates.shape == (cfg.B, cfg.d) and len(wire) == cfg.B
    for row, raw, cid in zip(updates, wire, record.clients):
        model = ModelState(theta=theta, round=k, objective=sim.objective)
        want = local_rounds(model, sim.objective.datasets[cid], cfg.Q, cfg.eta,
                            sim.batch_size, DrawStream(seed.lane("batch"), cid, k))
        assert np.array_equal(row, want)
        clipped = clip_update(row, cfg.s2)
        enc = lrq_quantize_vector(clipped, record.sigma_used,
                                  element_pairs(seed.lane("quant"), cid, k, cfg.d))
        b = enc.bits_per_element
        msg = WireMessage(cid, k, cfg.d, b, AlgorithmKind.GAU_LRQ_SGD,
                          pack_indices(enc.indices, b), scale=enc.scale)
        assert raw == serialize_message(msg)


def test_round_engine_rejects_unequal_shards():
    # The round engine steps all shards as one (N, n, d) array.
    rng = np.random.default_rng(0)
    datasets = [LocalDataset(rng.standard_normal((n, 2)), rng.standard_normal(n), i)
                for i, n in enumerate((3, 4))]
    with pytest.raises(InvalidParameterError, match="equal sizes"):
        Objective(datasets)


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
    scales = [r.wire_scales for r in trace.records]
    if not AlgorithmKind[algo.upper()].quantized:
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
