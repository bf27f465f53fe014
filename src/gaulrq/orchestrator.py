"""The simulated distributed system.

One process plays every client and the server, but each upload is really
serialized to bytes and parsed back, so the communication meter counts
bits that exist. All randomness is cursor-addressed through the shared
streams, which makes runs bitwise reproducible and lets the server replay
each client's dither draws without transmission.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .normal import inv_norm_cdf
from .privacy import (ClipConfig, PrivacyBudget, clip_update, median_clip_bound,
                      sigma_schedule_dynamic)
from .quantizers import (MAX_BITS, EncodedVector, bit_width, lrq_decode,
                         lrq_encode, lrq_quantize_vector,
                         lrq_reconstruct_vector, sample_layer,
                         stochastic_dequantize, stochastic_quantize_indices,
                         wire_scale)
from .streams import DrawStream, SeedMaterial, element_pairs, uniform_pair_block
from .training import ModelState, Objective, local_rounds, weighted_error

FLOAT_BITS = 32


class AlgorithmKind(enum.Enum):
    """The five algorithm pipelines, with their wire tags."""

    LOCAL_SGD = 0
    GAU_SGD = 1
    QG_SGD = 2
    GAU_LRQ_SGD = 3
    DYNAMIC_GAU_LRQ_SGD = 4

    @property
    def quantized(self):
        return PIPELINES[self].encode is not _encode_float

    @property
    def private(self):
        return self is not AlgorithmKind.LOCAL_SGD


_HEADER = struct.Struct("<IIIBB")  # client_id, round, dim, bits_per_element, tag


@dataclass(frozen=True)
class WireMessage:
    """One client upload: fixed header plus a byte-aligned payload.

    Quantized algorithms pack two's-complement indices of the declared
    width, little-endian, LSB-first within the stream; float algorithms
    send raw little-endian float32. The stochastic quantizer additionally
    needs its per-vector scale, carried as a float32 between header and
    payload. ``payload_bits`` excludes padding, the header, and the scale.
    """

    client_id: int
    round: int
    dim: int
    bits_per_element: int
    algorithm: AlgorithmKind
    payload: bytes
    scale: float = 0.0

    @property
    def payload_bits(self) -> int:
        return self.dim * self.bits_per_element


def pack_indices(indices, bits: int) -> bytes:
    """Pack signed integers into ``bits``-wide two's-complement fields.

    Field j occupies stream bits [j*bits, (j+1)*bits), LSB-first, so the low
    ``bits`` of each int64's little-endian bit row are concatenated as is.
    """
    words = np.ascontiguousarray(indices, dtype="<i8")
    rows = np.unpackbits(words.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    return np.packbits(rows[:, :bits], bitorder="little").tobytes()


def unpack_indices(payload: bytes, dim: int, bits: int, signed: bool = True) -> np.ndarray:
    """Inverse of pack_indices, with optional sign extension.

    Reads the first ``dim * bits`` stream bits; a shorter payload reads as
    zero-padded, so callers check its length first (parse_message does).
    """
    stream = np.unpackbits(np.frombuffer(payload, dtype=np.uint8),
                           count=dim * bits, bitorder="little")
    rows = np.zeros((dim, 64), dtype=np.uint8)
    rows[:, :bits] = stream.reshape(dim, bits)
    out = np.packbits(rows, axis=1, bitorder="little").view("<i8").ravel()
    if signed:
        out = np.where(out >= 1 << (bits - 1), out - (1 << bits), out)
    return out


def serialize_message(msg: WireMessage) -> bytes:
    head = _HEADER.pack(msg.client_id, msg.round, msg.dim,
                        msg.bits_per_element, msg.algorithm.value)
    if msg.algorithm.quantized:
        head += struct.pack("<f", msg.scale)
    return head + msg.payload


def parse_message(data: bytes) -> WireMessage:
    """Inverse of serialize_message; malformed bytes raise InvalidParameterError."""
    if len(data) < _HEADER.size:
        raise InvalidParameterError(f"{len(data)}-byte message is shorter than its header")
    client_id, rnd, dim, bits, tag = _HEADER.unpack_from(data)
    try:
        algorithm = AlgorithmKind(tag)
    except ValueError:
        raise InvalidParameterError(f"unknown algorithm tag {tag}") from None
    if not (1 <= bits <= MAX_BITS if algorithm.quantized else bits == FLOAT_BITS):
        raise InvalidParameterError(f"{bits}-bit elements are invalid for {algorithm.name}")
    offset = _HEADER.size + (4 if algorithm.quantized else 0)
    if len(data) != offset + (dim * bits + 7) // 8:
        raise InvalidParameterError(
            f"{len(data)}-byte message cannot hold {dim} elements of {bits} bits")
    scale = struct.unpack_from("<f", data, _HEADER.size)[0] if algorithm.quantized else 0.0
    if not (np.isfinite(scale) and scale >= 0.0):
        raise InvalidParameterError(f"scale {scale} is not finite and >= 0")
    return WireMessage(client_id=client_id, round=rnd, dim=dim,
                       bits_per_element=bits, algorithm=algorithm,
                       payload=data[offset:], scale=scale)


# -- codec pairs: encode(seed, client, round, v, sigma) -> (width, payload,
# scale, clamps) and decode(seed, message, sigma) -> v. They look the layer
# functions up as module globals, so rebinding one (as a tracer does) reaches them.

def _encode_float(seed, client_id, k, v, sigma):
    return FLOAT_BITS, v.astype("<f4").tobytes(), 0.0, 0


def _decode_float(seed, msg, sigma):
    return np.frombuffer(msg.payload, dtype="<f4").astype(np.float64)


def _encode_stochastic(seed, client_id, k, v, sigma):
    a = wire_scale(np.max(np.abs(v)))
    b = bit_width(a, sigma)
    u = DrawStream(seed.lane("sq"), client_id, k).next(v.size)
    idx, scale = stochastic_quantize_indices(v, b, u)
    return b, pack_indices(idx - (1 << (b - 1)), b), scale, 0


def _decode_stochastic(seed, msg, sigma):
    b = msg.bits_per_element
    idx = unpack_indices(msg.payload, msg.dim, b)
    return stochastic_dequantize(idx + (1 << (b - 1)), b, msg.scale)


def _encode_layered(seed, client_id, k, v, sigma):
    uniforms = element_pairs(seed.lane("quant"), client_id, k, v.size)
    enc = lrq_quantize_vector(v, sigma, uniforms)
    b = enc.bits_per_element
    return b, pack_indices(enc.indices, b), enc.scale, enc.clamp_count


def _decode_layered(seed, msg, sigma):
    idx = unpack_indices(msg.payload, msg.dim, msg.bits_per_element, signed=False)
    uniforms = element_pairs(seed.lane("quant"), msg.client_id, msg.round, msg.dim)
    enc = EncodedVector(idx, msg.dim, msg.bits_per_element, scale=msg.scale)
    return lrq_reconstruct_vector(enc, sigma, uniforms)


class Pipeline(NamedTuple):
    """What sets one algorithm apart from the others."""
    noisy: bool      # adds sigma * N(0, 1) from the "noise" lane before coding
    decaying: bool   # sigma_k follows the tau^{k/4} schedule, not the even split
    encode: Callable
    decode: Callable


PIPELINES = {
    AlgorithmKind.LOCAL_SGD: Pipeline(False, False, _encode_float, _decode_float),
    AlgorithmKind.GAU_SGD: Pipeline(True, False, _encode_float, _decode_float),
    AlgorithmKind.QG_SGD: Pipeline(True, False, _encode_stochastic, _decode_stochastic),
    AlgorithmKind.GAU_LRQ_SGD: Pipeline(False, False, _encode_layered, _decode_layered),
    AlgorithmKind.DYNAMIC_GAU_LRQ_SGD: Pipeline(False, True, _encode_layered,
                                                _decode_layered),
}


def sample_clients(N: int, B: int, u: float) -> list[int]:
    """Systematic sampling of B distinct client ids, each included with
    probability B/N.

    ``u`` in [0, 1) positions the sampling comb. Where float rounding in
    the comb edges puts two teeth on one client (seen only at B = N), the
    gap is filled with the lowest unsampled ids.
    """
    if B > N:
        raise InvalidParameterError(f"B={B} exceeds N={N}")
    if B < 1:
        raise InvalidParameterError("B must be >= 1")
    edges = np.cumsum(np.full(N, 1.0 / N)) * B
    points = (u % 1.0) + np.arange(B)
    ids = np.searchsorted(edges, points, side="right")
    ids = np.minimum(ids, N - 1)
    chosen = sorted(set(int(i) for i in ids))
    if len(chosen) < B:
        leftovers = sorted(set(range(N)) - set(chosen))
        chosen = sorted(chosen + leftovers[:B - len(chosen)])
    return chosen


@dataclass
class RoundRecord:
    """Bookkeeping for one communication round (loss at round start)."""

    round: int
    clients: list[int]
    bits_sent: int
    sigma_used: float
    epsilon_spent_cumulative: float
    loss: float
    grad_sq_norm: float
    clamp_count: int
    inf_norms: list[float] = field(default_factory=list)  # wire scales of clipped updates
    wire_scales: list[float] = field(default_factory=list)  # scales the quantized uploads carried


@dataclass
class RunTrace:
    """Full trajectory of one experiment."""

    records: list[RoundRecord]
    final_theta: np.ndarray
    summary: dict

    def to_csv(self, path, algorithm: str):
        cols = "round,algo,loss,grad_sq_norm,bits_cum,sigma,eps_cum,clamps"
        lines = [cols]
        bits_cum = 0
        for r in self.records:
            bits_cum += r.bits_sent
            lines.append(",".join([
                str(r.round), algorithm,
                format(r.loss, ".17g"), format(r.grad_sq_norm, ".17g"),
                str(bits_cum), format(r.sigma_used, ".17g"),
                format(r.epsilon_spent_cumulative, ".17g"), str(r.clamp_count),
            ]))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_summary_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


class Simulation:
    """Server state plus the per-round client pipelines for one algorithm."""

    def __init__(self, algorithm: AlgorithmKind, objective: Objective,
                 theta0, seed: SeedMaterial, *, K: int, B: int, Q: int,
                 eta: float, batch_size: int, budget: PrivacyBudget | None,
                 clip: ClipConfig, tau: float = 1.0,
                 divergence_ceiling: float = 1e6):
        self.algorithm = algorithm
        self.objective = objective
        self.theta = np.asarray(theta0, dtype=np.float64).copy()
        self.theta0 = self.theta.copy()
        self.seed = seed
        self.K, self.B, self.Q = K, B, Q
        self.eta = eta
        self.batch_size = batch_size
        self.budget = budget
        self.clip = clip
        self.tau = tau
        self.divergence_ceiling = divergence_ceiling
        self.N = len(objective.datasets)
        self.d = objective.dimension
        self.round = 0
        self.records: list[RoundRecord] = []
        self._eps_sq_spent = 0.0  # sum over rounds of (per-round epsilon)^2
        self._pipeline = PIPELINES[algorithm]
        if algorithm.private:  # median-adaptive rounds rescale the S2=1 schedule
            self._sigmas = sigma_schedule_dynamic(
                clip.s2 if clip.mode == "fixed" else 1.0, K, B, self.N, budget,
                tau if self._pipeline.decaying else 1.0).sigmas

    def _encode(self, cid: int, k: int, v: np.ndarray, sigma: float):
        """Client side; returns (message, clamps)."""
        if self._pipeline.noisy:
            u1, _ = element_pairs(self.seed.lane("noise"), cid, k, self.d)
            v = v + sigma * np.asarray(inv_norm_cdf(u1))
        bits, payload, scale, clamps = self._pipeline.encode(self.seed, cid, k, v, sigma)
        msg = WireMessage(cid, k, self.d, bits, self.algorithm, payload, scale=scale)
        return msg, clamps

    def run_round(self) -> RoundRecord:
        if self.round >= self.K:
            raise InvalidParameterError("all configured rounds already run")
        k = self.round
        model = ModelState(theta=self.theta, round=k, objective=self.objective)
        loss = self.objective.full_loss(self.theta)
        grad = self.objective.full_gradient(self.theta)

        u_sample, _ = uniform_pair_block(self.seed.lane("sample"), 0, k, 0, 0)
        clients = sample_clients(self.N, self.B, float(u_sample))

        # Per-client values stay aligned with the ascending `clients`.
        updates = [local_rounds(model, self.objective.datasets[cid], self.Q, self.eta,
                                self.batch_size, DrawStream(self.seed.lane("batch"), cid, k),
                                self.divergence_ceiling)
                   for cid in clients]

        sigma, inf_norms, eps_cum = 0.0, [], float("inf")
        if self.algorithm.private:
            sigma = float(self._sigmas[k])
            if self.clip.mode == "median_adaptive":
                s2 = max(median_clip_bound(
                    [float(np.linalg.norm(upd)) for upd in updates]), 1e-12)
                sigma *= s2
            else:
                s2 = self.clip.s2
            updates = [clip_update(upd, s2) for upd in updates]
            inf_norms = [wire_scale(np.max(np.abs(upd))) for upd in updates]
            # Lemma-4-style composition, valid per-round even when the clip
            # bound (and hence sigma) changes across rounds.
            per_round = (2.0 * s2 * np.sqrt(self.B * np.log(1.0 / self.budget.delta))
                         / (self.N * sigma))
            self._eps_sq_spent += per_round**2
            # The schedules spend exactly epsilon: never report the rounding excess.
            eps_cum = min(float(np.sqrt(self._eps_sq_spent)), self.budget.epsilon)

        messages, clamp_count = [], 0
        for cid, upd in zip(clients, updates):
            msg, clamps = self._encode(cid, k, upd, sigma)
            messages.append(serialize_message(msg))
            clamp_count += clamps

        # A running sum in client-id order: one decoded row is live at a time.
        total, bits, wire_scales = 0.0, 0, []
        for raw in messages:
            msg = parse_message(raw)
            total = total + PIPELINES[msg.algorithm].decode(self.seed, msg, sigma)
            bits += msg.payload_bits
            if msg.algorithm.quantized:
                wire_scales.append(msg.scale)
        self.theta = self.theta + total / len(messages)
        record = RoundRecord(round=k, clients=clients, bits_sent=bits,
                             sigma_used=sigma, epsilon_spent_cumulative=eps_cum,
                             loss=loss, grad_sq_norm=float(grad @ grad),
                             clamp_count=clamp_count, inf_norms=inf_norms,
                             wire_scales=wire_scales)
        self.records.append(record)
        self.round += 1
        return record

    def run(self) -> RunTrace:
        for _ in range(self.K):
            self.run_round()
        return self.trace()

    def trace(self, stop_reason: str = "completed") -> RunTrace:
        """The rounds run so far, with a summary that says why they stopped."""
        grad_norms = [r.grad_sq_norm for r in self.records]
        total_bits = sum(r.bits_sent for r in self.records)
        summary = {
            "algorithm": self.algorithm.name.lower(),
            "rounds_run": len(self.records),
            "weighted_error": weighted_error(grad_norms, self.tau) if grad_norms else None,
            "final_loss": self.objective.full_loss(self.theta),
            "total_bits": total_bits,
            "epsilon_spent": (self.records[-1].epsilon_spent_cumulative
                              if self.records else 0.0),
            "total_clamps": sum(r.clamp_count for r in self.records),
            "stop_reason": stop_reason,
        }
        return RunTrace(records=self.records, final_theta=self.theta,
                        summary=summary)


def quantization_replicates(clipped_updates: dict, sigma: float,
                            seed: SeedMaterial, n_rep: int) -> np.ndarray:
    """Aggregated reconstructions over n_rep fresh quantization draws.

    Holds the participant set and their clipped updates fixed and redraws
    only the codec randomness (replicate r uses round index r of a dedicated
    lane). Returns an (n_rep, d) array of aggregated updates; indices are
    left unclamped so the result isolates the codec's own statistics.
    """
    ids = sorted(clipped_updates)
    d = np.asarray(clipped_updates[ids[0]]).size
    lane = seed.lane("replicates")
    total = np.zeros((n_rep, d))
    elem = np.tile(np.arange(d, dtype=np.uint64), n_rep)
    ctr = np.repeat(np.arange(n_rep, dtype=np.uint64), d)
    for cid in ids:
        v = np.asarray(clipped_updates[cid], dtype=np.float64)
        u1, u2 = uniform_pair_block(lane, cid, 0, elem, ctr)
        layer = sample_layer(sigma, (u1.reshape(n_rep, d), u2.reshape(n_rep, d)))
        total += lrq_decode(lrq_encode(v[None, :], layer), layer)
    return total / len(ids)
