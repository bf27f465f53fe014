"""The simulated distributed system.

One process plays every client and the server, but each upload is really
serialized to bytes and parsed back, so the communication meter counts
bits that exist. All randomness is cursor-addressed through the shared
streams, which makes runs bitwise reproducible and lets the server replay
each client's dither draws without transmission.

A round runs its B clients as one (B, d) pipeline: one stream call per
lane, with a client axis, from the batch draw to the server's sum. Clipping,
widths and packing stay per row and the wire carries one message per client.
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
from .quantizers import (MAX_BITS, bit_width, lrq_quantize_rows,
                         lrq_reconstruct_rows, stochastic_dequantize,
                         stochastic_quantize_indices, wire_scale)
from .streams import SeedMaterial, element_pairs, uniform_pair_block
from .training import Objective, stacked_local_rounds, synth_partition, weighted_error

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
        return self in _QUANTIZED

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
    quantized = algorithm.quantized
    if not (1 <= bits <= MAX_BITS if quantized else bits == FLOAT_BITS):
        raise InvalidParameterError(f"{bits}-bit elements are invalid for {algorithm.name}")
    offset = _HEADER.size + (4 if quantized else 0)
    if len(data) != offset + (dim * bits + 7) // 8:
        raise InvalidParameterError(
            f"{len(data)}-byte message cannot hold {dim} elements of {bits} bits")
    scale = struct.unpack_from("<f", data, _HEADER.size)[0] if quantized else 0.0
    if not (np.isfinite(scale) and scale >= 0.0):
        raise InvalidParameterError(f"scale {scale} is not finite and >= 0")
    return WireMessage(client_id=client_id, round=rnd, dim=dim,
                       bits_per_element=bits, algorithm=algorithm,
                       payload=data[offset:], scale=scale)


# -- codec pairs: encode(seed, client_ids, round, V, sigma) -> one (width,
# payload, scale, clamps) per row of V, and decode(seed, messages, sigma) ->
# (B, d), one row per message, all of one round. They look the layer
# functions up as module globals, so rebinding one (as a tracer does) reaches them.

def _encode_float(seed, client_ids, k, V, sigma):
    return [(FLOAT_BITS, row.tobytes(), 0.0, 0) for row in V.astype("<f4")]


def _decode_float(seed, msgs, sigma):
    return np.stack([np.frombuffer(m.payload, "<f4") for m in msgs]).astype(np.float64)


def _encode_stochastic(seed, client_ids, k, V, sigma):
    U, _ = uniform_pair_block(seed.lane("sq"), client_ids, k, 0,
                              np.arange(V.shape[1], dtype=np.uint64))
    rows = []
    for v, u in zip(V, U):
        b = bit_width(wire_scale(np.max(np.abs(v))), sigma)
        idx, scale = stochastic_quantize_indices(v, b, u)
        rows.append((b, pack_indices(idx - (1 << (b - 1)), b), scale, 0))
    return rows


def _decode_stochastic(seed, msgs, sigma):
    rows = []
    for m in msgs:
        b = m.bits_per_element
        idx = unpack_indices(m.payload, m.dim, b)
        rows.append(stochastic_dequantize(idx + (1 << (b - 1)), b, m.scale))
    return np.stack(rows)


def _encode_layered(seed, client_ids, k, V, sigma):
    uniforms = element_pairs(seed.lane("quant"), client_ids, k, V.shape[1])
    return [(b, pack_indices(idx, b), a, int(c))
            for idx, b, a, c in zip(*lrq_quantize_rows(V, sigma, uniforms))]


def _decode_layered(seed, msgs, sigma):
    idx = np.stack([unpack_indices(m.payload, m.dim, m.bits_per_element, signed=False)
                    for m in msgs])
    uniforms = element_pairs(seed.lane("quant"), [m.client_id for m in msgs],
                             msgs[0].round, msgs[0].dim)
    return lrq_reconstruct_rows(idx, [m.scale for m in msgs], sigma, uniforms)


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
_QUANTIZED = frozenset(kind for kind, p in PIPELINES.items() if p.encode is not _encode_float)


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
    """One experiment, built from its validated ExperimentConfig: the seed, the
    synthetic shards' Objective, the "init"-lane start point, the privacy
    budget, clipping and sigma schedule, and the server state per round."""

    def __init__(self, config):
        self.config = config
        self.seed = SeedMaterial(config.seed, config.run_id)
        datasets = synth_partition(config.seed, config.N, config.d, config.n_per_client,
                                   config.label_noise, kind=config.objective,
                                   heterogeneity=config.heterogeneity)
        self.objective = Objective(datasets, kind=config.objective, ridge=config.ridge)
        u_init, _ = element_pairs(self.seed.lane("init"), 0, 0, config.d)
        self.theta0 = np.asarray(inv_norm_cdf(u_init))
        self.theta = self.theta0.copy()
        self.algorithm = AlgorithmKind[config.algorithm.upper()]
        self.budget = (PrivacyBudget(config.epsilon, config.delta)
                       if self.algorithm.private else None)
        self.clip = ClipConfig(s2=config.s2, mode=config.clip_mode)
        self.batch_size = config.batch_size or config.n_per_client  # 0 is full batch
        self.round = 0
        self.records: list[RoundRecord] = []
        self._eps_sq_spent = 0.0  # sum over rounds of (per-round epsilon)^2
        self._pipeline = PIPELINES[self.algorithm]
        if self.algorithm.private:  # median-adaptive rounds rescale the S2=1 schedule
            self._sigmas = sigma_schedule_dynamic(
                self.clip.s2 if self.clip.mode == "fixed" else 1.0, config.K, config.B,
                config.N, self.budget, config.tau if self._pipeline.decaying else 1.0).sigmas

    def run_round(self) -> RoundRecord:
        cfg = self.config
        if self.round >= cfg.K:
            raise InvalidParameterError("all configured rounds already run")
        k = self.round
        loss = self.objective.full_loss(self.theta)
        grad = self.objective.full_gradient(self.theta)

        u_sample, _ = uniform_pair_block(self.seed.lane("sample"), 0, k, 0, 0)
        clients = sample_clients(cfg.N, cfg.B, float(u_sample))

        # Row i of every (B, ...) array below belongs to clients[i], ascending.
        u_batch = None  # full batch
        if self.batch_size < cfg.n_per_client:
            u_batch, _ = uniform_pair_block(
                self.seed.lane("batch"), clients, k, 0,
                np.arange(cfg.Q * self.batch_size, dtype=np.uint64))
        updates = stacked_local_rounds(self.objective, self.theta, clients, cfg.Q,
                                       cfg.eta, u_batch, cfg.divergence_ceiling)

        sigma, inf_norms, eps_cum = 0.0, [], float("inf")
        if self.algorithm.private:
            sigma = float(self._sigmas[k])
            if self.clip.mode == "median_adaptive":
                s2 = max(median_clip_bound(
                    [float(np.linalg.norm(upd)) for upd in updates]), 1e-12)
                sigma *= s2
            else:
                s2 = self.clip.s2
            # Per row: a batched norm differs from np.linalg.norm in the last bit.
            updates = np.array([clip_update(upd, s2) for upd in updates])
            inf_norms = [wire_scale(np.max(np.abs(upd))) for upd in updates]
            # Lemma-4-style composition, valid per-round even when the clip
            # bound (and hence sigma) changes across rounds.
            per_round = (2.0 * s2 * np.sqrt(cfg.B * np.log(1.0 / self.budget.delta))
                         / (cfg.N * sigma))
            self._eps_sq_spent += per_round**2
            # The schedules spend exactly epsilon: never report the rounding excess.
            eps_cum = min(float(np.sqrt(self._eps_sq_spent)), self.budget.epsilon)

        if self._pipeline.noisy:
            u_noise, _ = element_pairs(self.seed.lane("noise"), clients, k, cfg.d)
            updates = updates + sigma * np.asarray(inv_norm_cdf(u_noise))
        messages, clamp_count = [], 0
        for cid, (bits, payload, scale, clamps) in zip(
                clients, self._pipeline.encode(self.seed, clients, k, updates, sigma)):
            messages.append(serialize_message(
                WireMessage(cid, k, cfg.d, bits, self.algorithm, payload, scale=scale)))
            clamp_count += clamps

        parsed = [parse_message(raw) for raw in messages]
        # A running sum in client-id order, as B separate decodes would give.
        total = 0.0
        for row in PIPELINES[parsed[0].algorithm].decode(self.seed, parsed, sigma):
            total = total + row
        self.theta = self.theta + total / len(parsed)
        record = RoundRecord(round=k, clients=clients,
                             bits_sent=sum(m.payload_bits for m in parsed),
                             sigma_used=sigma, epsilon_spent_cumulative=eps_cum,
                             loss=loss, grad_sq_norm=float(grad @ grad),
                             clamp_count=clamp_count, inf_norms=inf_norms,
                             wire_scales=([m.scale for m in parsed]
                                          if self.algorithm.quantized else []))
        self.records.append(record)
        self.round += 1
        return record

    def run(self) -> RunTrace:
        for _ in range(self.config.K):
            self.run_round()
        return self.trace()

    def trace(self, stop_reason: str = "completed") -> RunTrace:
        """The rounds run so far, with a summary that says why they stopped."""
        grad_norms = [r.grad_sq_norm for r in self.records]
        total_bits = sum(r.bits_sent for r in self.records)
        summary = {
            "algorithm": self.algorithm.name.lower(),
            "rounds_run": len(self.records),
            "weighted_error": (weighted_error(grad_norms, self.config.tau)
                               if grad_norms else None),
            "final_loss": self.objective.full_loss(self.theta),
            "total_bits": total_bits,
            "epsilon_spent": (self.records[-1].epsilon_spent_cumulative
                              if self.records else 0.0),
            "total_clamps": sum(r.clamp_count for r in self.records),
            "stop_reason": stop_reason,
        }
        return RunTrace(records=self.records, final_theta=self.theta,
                        summary=summary)
