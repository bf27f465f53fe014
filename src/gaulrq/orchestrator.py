"""The simulated distributed system.

One process plays every client and the server, but each upload is really
serialized to bytes and parsed back, so the communication meter counts
bits that exist. All randomness is cursor-addressed through the shared
streams, which makes runs bitwise reproducible and lets the server replay
each client's dither draws without transmission.

A round runs its B clients as one (B, d) pipeline, from the batch rows to
the server's sum; its PIPELINES row says what the algorithm does and sends. A
chunk of rounds draws first, one stream call per lane with a rounds and a client
axis, the server's replay of the codec lane included, and keeps what they consume:
batch rows, noise normals and, where sigma_k is fixed, the layers (a median-clipped
round sets sigma from its norms, so samples its own). The parsed headers must be the
round's schedule in order, with the widths and scales the server can recompute or
bound. Norms, clipping, scales, widths, codecs and bit packing are row-wise (packing
one per distinct width); the wire carries one message a client.
"""

from __future__ import annotations

import enum
import json
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import training
from .errors import ConfigError, DivergedError, InvalidParameterError
from .normal import inv_norm_cdf
from .privacy import clip_ceiling, clip_update, l2_norms, median_clip_bound, noise_schedule
from .quantizers import (MAX_BITS, MAX_SIGMA, LayerSample, bit_width, lrq_quantize_rows,
                         lrq_reconstruct_rows, sample_layer, stochastic_dequantize,
                         stochastic_quantize_indices)
from .streams import SeedMaterial, element_pairs, uniform_pair_block
from .training import (Objective, _check_divergence, stacked_local_rounds, synth_partition,
                       weighted_error)

FLOAT_BITS = 32


class AlgorithmKind(enum.Enum):
    """The five algorithms, valued by their wire tags; PIPELINES says what each does."""

    LOCAL_SGD = 0
    GAU_SGD = 1
    QG_SGD = 2
    GAU_LRQ_SGD = 3
    DYNAMIC_GAU_LRQ_SGD = 4

    def __init__(self, tag):
        self.tag = tag  # the value, read once per message: Enum.value is a Python call

    __hash__ = object.__hash__  # for the PIPELINES lookups; Enum.__hash__ is a Python call


_TAGS = {kind.tag: kind for kind in AlgorithmKind}
_HEADER = struct.Struct("<IIIBB")  # client_id, round, dim, bits_per_element, tag
_SCALE = struct.Struct("<d")  # quantized messages only, between header and payload


class WireMessage(NamedTuple):
    """One client upload: fixed header plus a byte-aligned payload.

    Quantized algorithms pack indices of the declared width LSB-first (qg_sgd
    two's-complement levels, the layered codecs unsigned offsets from a base both sides
    derive) after the vector's inf-norm ``scale``, an exact float64; float algorithms
    send raw little-endian float32. ``payload_bits`` excludes padding, header and scale.
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


def pack_indices(indices, bits):
    """Pack signed integers into ``bits``-wide two's-complement fields.

    Field j occupies stream bits [j*bits, (j+1)*bits), LSB-first, so the low
    ``bits`` of each int64's little-endian bit row are concatenated as is.
    A (B, d) array with one width per row gives B payloads, each padded on
    its own: one bit split of all rows, then one pack per distinct width.
    """
    widths = np.reshape(bits, -1)
    words = np.ascontiguousarray(indices, dtype="<i8").reshape(widths.size, -1)
    planes = np.unpackbits(words.view(np.uint8), bitorder="little").reshape(*words.shape, 64)
    payloads = [b""] * widths.size
    for b in set(widths.tolist()):
        rows = np.flatnonzero(widths == b)
        packed = np.packbits(planes[rows, :, :b].reshape(rows.size, -1), axis=1,
                             bitorder="little")
        for i, row in zip(rows.tolist(), packed):
            payloads[i] = row.tobytes()
    return payloads[0] if np.ndim(bits) == 0 else payloads


def unpack_indices(payload, dim: int, bits, signed: bool = True) -> np.ndarray:
    """Inverse of pack_indices, with optional sign extension.

    Reads the first ``dim * bits`` stream bits; a shorter payload reads as
    zero-padded, so callers check its length first (parse_message does). B
    payloads with one width each give (B, dim): one bit split per width.
    """
    widths = np.reshape(bits, -1)
    payloads = [payload] if np.ndim(bits) == 0 else payload
    planes = np.zeros((widths.size, dim, 64), dtype=np.uint8)
    for b in set(widths.tolist()):
        rows = np.flatnonzero(widths == b)
        n = (dim * b + 7) // 8
        stream = np.frombuffer(b"".join(bytes(payloads[i][:n]).ljust(n, b"\0")
                                        for i in rows.tolist()), dtype=np.uint8)
        planes[rows, :, :b] = np.unpackbits(stream.reshape(rows.size, n), axis=1,
                                            count=dim * b, bitorder="little"
                                            ).reshape(rows.size, dim, b)
    out = np.packbits(planes, bitorder="little").view("<i8").reshape(widths.size, dim)
    if signed:
        high = np.left_shift(1, widths)[:, None]
        out = np.where(out >= high >> 1, out - high, out)
    return out[0] if np.ndim(bits) == 0 else out


def serialize_message(msg: WireMessage) -> bytes:
    client_id, rnd, dim, bits, algorithm, payload, scale = msg
    head = _HEADER.pack(client_id, rnd, dim, bits, algorithm.tag)
    if PIPELINES[algorithm].quantized:
        head += _SCALE.pack(scale)
    return head + payload


def parse_message(data: bytes) -> WireMessage:
    """Inverse of serialize_message; malformed bytes raise InvalidParameterError."""
    if len(data) < _HEADER.size:
        raise InvalidParameterError(f"{len(data)}-byte message is shorter than its header")
    client_id, rnd, dim, bits, tag = _HEADER.unpack_from(data)
    algorithm = _TAGS.get(tag)
    if algorithm is None:
        raise InvalidParameterError(f"unknown algorithm tag {tag}")
    quantized = PIPELINES[algorithm].quantized
    if not (1 <= bits <= MAX_BITS if quantized else bits == FLOAT_BITS):
        raise InvalidParameterError(f"{bits}-bit elements are invalid for {algorithm.name}")
    offset = _HEADER.size + (_SCALE.size if quantized else 0)
    if len(data) != offset + (dim * bits + 7) // 8:
        raise InvalidParameterError(
            f"{len(data)}-byte message cannot hold {dim} elements of {bits} bits")
    scale = _SCALE.unpack_from(data, _HEADER.size)[0] if quantized else 0.0
    if not (math.isfinite(scale) and scale >= 0.0):
        raise InvalidParameterError(f"scale {scale} is not finite and >= 0")
    return WireMessage(client_id, rnd, dim, bits, algorithm, data[offset:], scale)


# -- codecs: draw(seed, client_ids, rounds, d, sigma) -> per round, the rows of the codec's
# lane that encode reads; the layered draw samples them at sigma, the (R, 1, 1) column of the
# rounds' sigmas, and keeps x, R and q_step, or keeps the pairs where sigma is None (set by
# each round). encode(V, sigma, rows) -> one (width, payload, scale, clamps) per row of V;
# decode(messages, sigma, rows) -> (B, d), its mirror, from the server's own draw of the rows
# in schedule order (None unless replayed). Layer functions are module globals to them.

def _encode_float(V, sigma, rows):
    return [(FLOAT_BITS, row.tobytes(), 0.0, 0) for row in V.astype("<f4")]


def _decode_float(msgs, sigma, rows):
    return np.stack([np.frombuffer(m.payload, "<f4") for m in msgs]).astype(np.float64)


def _draw_stochastic(seed, ids, rnd, d, sigma):
    return uniform_pair_block(seed.lane("sq"), ids, rnd, 0, np.arange(d, dtype=np.uint64))[0]


def _encode_stochastic(V, sigma, uniforms):
    widths = bit_width(np.max(np.abs(V), axis=1), sigma)
    idx, scales = stochastic_quantize_indices(V, widths, uniforms)
    payloads = pack_indices(idx - np.left_shift(1, widths - 1)[:, None], widths)
    return list(zip(widths.tolist(), payloads, scales.tolist(), [0] * len(payloads)))


def _decode_stochastic(msgs, sigma, uniforms):
    widths = np.array([m.bits_per_element for m in msgs])
    idx = unpack_indices([m.payload for m in msgs], msgs[0].dim, widths)
    return stochastic_dequantize(idx + np.left_shift(1, widths - 1)[:, None], widths,
                                 [m.scale for m in msgs])


def _draw_layered(seed, ids, rnd, d, sigma):
    uniforms = element_pairs(seed.lane("quant"), ids, rnd, d)
    if sigma is None:
        return list(zip(*uniforms))
    layer = sample_layer(sigma, uniforms)
    return [LayerSample(x, None, None, r, q) for x, r, q in zip(layer.x, layer.R, layer.q_step)]


def _encode_layered(V, sigma, layer):
    idx, widths, scales, clamps = lrq_quantize_rows(V, sigma, layer)
    return list(zip(widths, pack_indices(idx, widths), scales, clamps.tolist()))


def _decode_layered(msgs, sigma, layer):
    idx = unpack_indices([m.payload for m in msgs], msgs[0].dim,
                         [m.bits_per_element for m in msgs], signed=False)
    return lrq_reconstruct_rows(idx, [m.scale for m in msgs], layer)


class Pipeline(NamedTuple):
    """What sets one algorithm apart from the others, its wire format included."""
    private: bool    # clips each update and spends the privacy budget
    noisy: bool      # adds sigma * N(0, 1) from the "noise" lane before coding
    decaying: bool   # sigma_k follows the tau^{k/4} schedule, not the even split
    quantized: bool  # sends integer indices and a float64 scale, not float32
    draw: Callable | None  # None: the codec draws nothing
    encode: Callable
    decode: Callable
    replayed: bool   # decode reads the server's own draw of the codec lane
    held: int        # at most this many float64s the draws keep per element, both sides


_FLOAT = (False, None, _encode_float, _decode_float, False, 0)  # quantized, ..., held
_STOCHASTIC = (True, _draw_stochastic, _encode_stochastic, _decode_stochastic, False, 1)
_LAYERED = (True, _draw_layered, _encode_layered, _decode_layered, True, 6)
PIPELINES = {  # private, noisy, decaying, then the codec
    AlgorithmKind.LOCAL_SGD: Pipeline(False, False, False, *_FLOAT),
    AlgorithmKind.GAU_SGD: Pipeline(True, True, False, *_FLOAT),
    AlgorithmKind.QG_SGD: Pipeline(True, True, False, *_STOCHASTIC),
    AlgorithmKind.GAU_LRQ_SGD: Pipeline(True, False, False, *_LAYERED),
    AlgorithmKind.DYNAMIC_GAU_LRQ_SGD: Pipeline(True, False, True, *_LAYERED),
}


def sample_clients(N: int, B: int, u):
    """Systematic sampling of B distinct client ids, each included with
    probability B/N.

    ``u`` in [0, 1) positions the sampling comb: a float gives a sorted list
    of ids, and a 1-D array of R positions an (R, B) array, row r the list of
    u[r]. Where float rounding in the comb edges puts two teeth on one client
    (seen only at B = N), the gap is filled with the lowest unsampled ids.
    """
    if B > N:
        raise InvalidParameterError(f"B={B} exceeds N={N}")
    if B < 1:
        raise InvalidParameterError("B must be >= 1")
    edges = np.cumsum(np.full(N, 1.0 / N)) * B
    ids = np.searchsorted(edges, (np.asarray(u) % 1.0)[..., None] + np.arange(B), side="right")
    rows = np.minimum(ids, N - 1, out=ids).reshape(-1, B)  # ascending; a view of ids
    for r in np.flatnonzero((rows[:, 1:] == rows[:, :-1]).any(axis=1)):
        chosen = np.unique(rows[r])
        rows[r] = np.union1d(chosen, np.setdiff1d(np.arange(N), chosen)[:B - chosen.size])
    return ids.tolist() if ids.ndim == 1 else ids


class _Now:  # a round's deferral when inline: fn(*args) at once, read back by .result()
    def __init__(self, fn, *args):
        self._value = fn(*args)

    def result(self):
        return self._value


def run_record(config) -> dict:  # what a summary records of its run: config and data slab
    return {"config": asdict(config), "slab": training._SLAB}


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
    inf_norms: list[float] = field(default_factory=list)  # max|v| of each clipped update
    scales: list[float] = field(default_factory=list)  # scales the quantized uploads carried


@dataclass
class RunTrace:
    """Full trajectory of one experiment."""

    records: list[RoundRecord]
    final_theta: np.ndarray
    summary: dict

    def to_csv(self, path, algorithm: str):
        lines = ["round,algo,loss,grad_sq_norm,bits_cum,sigma,eps_cum,clamps"]
        bits_cum = 0
        for r in self.records:
            bits_cum += r.bits_sent
            lines.append(f"{r.round},{algorithm},{r.loss:.17g},{r.grad_sq_norm:.17g},{bits_cum},"
                         f"{r.sigma_used:.17g},{r.epsilon_spent_cumulative:.17g},{r.clamp_count}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_summary_json(self, path):
        """Strict JSON: a non-finite value (local_sgd's epsilon) is written as null."""
        summary = {key: None if isinstance(value, float) and not math.isfinite(value)
                   else value for key, value in self.summary.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")


class Simulation:
    """One experiment, built from its validated ExperimentConfig: the seed, the
    synthetic shards' Objective, the "init"-lane start point, the sigma
    schedule with its cumulative-epsilon ledger, and the server state per round."""

    def __init__(self, config):
        self.config = config
        self.seed = SeedMaterial(config.seed, config.run_id)
        self.objective = Objective(
            *synth_partition(config.seed, config.N, config.d, config.n_per_client,
                             config.label_noise, kind=config.objective,
                             heterogeneity=config.heterogeneity),
            kind=config.objective, ridge=config.ridge)
        self.theta0 = inv_norm_cdf(element_pairs(self.seed.lane("init"), 0, 0, config.d)[0])
        self.theta = self.theta0.copy()
        self.algorithm = AlgorithmKind[config.algorithm.upper()]
        self.batch_size = config.batch_size or config.n_per_client  # 0 is full batch
        self.round = 0
        self.records: list[RoundRecord] = []
        self._pipeline = PIPELINES[self.algorithm]
        self._chunk = (0, [], None)  # (first round, per-round draws, replay), drawn by run_round
        self._defer = _Now  # run() defers to its worker: fn(*args) -> .result()
        if self._pipeline.private:  # median-adaptive rounds rescale the S2=1 schedule
            s2 = config.s2 if config.clip_mode == "fixed" else 1.0
            try:
                self._sigmas, self._eps_cum = noise_schedule(
                    s2, config.K, config.B, config.N, config.epsilon, config.delta,
                    config.tau if self._pipeline.decaying else 1.0)
            except InvalidParameterError as exc:  # validate() leaves only over/underflow
                raise ConfigError(f"epsilon: {exc}") from None
            top = self._sigmas.max()  # the codec's sigma, unless a median clip rescales it
            if self._pipeline.quantized and config.clip_mode == "fixed" and top > MAX_SIGMA:
                raise ConfigError(f"epsilon: sigma {top:.6g} exceeds the codec's {MAX_SIGMA:.6g}")

    def _draw_chunk(self):
        """What the rounds from self.round on consume, one stream call per lane, the server's
        replay included: as many rounds as it fits in training._BLOCK_BYTES, and at least
        one. Each equals its own round's draw; the replay's rounds are deferred, in .result()."""
        cfg, p, n, d = self.config, self._pipeline, self.config.n_per_client, self.config.d
        steps = cfg.Q * self.batch_size if self.batch_size < n else 0
        fit = max(1, training._BLOCK_BYTES // (8 * cfg.B * (1 + steps + (p.noisy + p.held) * d)))
        rounds = np.arange(self.round, min(cfg.K, self.round + fit), dtype=np.uint64)
        u_sample, _ = uniform_pair_block(self.seed.lane("sample"), 0, rounds, 0, 0)
        clients = sample_clients(cfg.N, cfg.B, u_sample)
        batch = noise = code = [None] * rounds.size
        rnd, replay = rounds[:, None], None
        sigma = self._sigmas[rounds, None, None] if p.draw and cfg.clip_mode == "fixed" else None
        if p.replayed:  # the server's own draw, first: decoding never reads a client's array
            replay = self._defer(p.draw, self.seed, clients, rnd, d, sigma)
        if steps:
            u_batch, _ = uniform_pair_block(self.seed.lane("batch"), clients, rnd, 0,
                                            np.arange(steps, dtype=np.uint64))
            batch = np.floor(u_batch * n).astype(np.int64)
        if p.noisy:
            noise = inv_norm_cdf(element_pairs(self.seed.lane("noise"), clients, rnd, d)[0])
        if p.draw is not None:
            code = p.draw(self.seed, clients, rnd, d, sigma)
        self._chunk = (self.round, list(zip(clients.tolist(), batch, noise, code)), replay)

    def run_round(self) -> RoundRecord:
        cfg, k, p = self.config, self.round, self._pipeline
        if k >= cfg.K:
            raise InvalidParameterError("all configured rounds already run")
        evaluation = self._defer(self.objective.loss_and_gradient, self.theta)  # read last

        if not 0 <= k - self._chunk[0] < len(self._chunk[1]):
            self._draw_chunk()
        # Row i of every (B, ...) array below belongs to clients[i], ascending.
        i = k - self._chunk[0]
        clients, batch, noise, code = self._chunk[1][i]
        updates = stacked_local_rounds(self.objective, self.theta, clients, cfg.Q,
                                       cfg.eta, batch, cfg.divergence_ceiling)

        sigma, inf_norms, eps_cum, s2 = 0.0, [], float("inf"), cfg.s2
        if p.private:
            sigma, eps_cum = float(self._sigmas[k]), float(self._eps_cum[k])
            if cfg.clip_mode == "median_adaptive":
                s2 = max(median_clip_bound(l2_norms(updates)), 1e-12)
                sigma *= s2
                if p.quantized and sigma > MAX_SIGMA:
                    raise DivergedError(f"median-clipped sigma {sigma:.6g} exceeds the "
                                        f"codec's MAX_SIGMA {MAX_SIGMA:.6g}")
                if p.replayed:  # sigma is this round's, so are the layers: both sides'
                    code = sample_layer(sigma, code)
            updates = clip_update(updates, s2)
            inf_norms = np.max(np.abs(updates), axis=1).tolist()

        if p.noisy:
            updates = updates + sigma * noise
        coded = p.encode(updates, sigma, code)  # (width, payload, scale, clamps) a row
        parsed = [parse_message(serialize_message(
            WireMessage(cid, k, cfg.d, bits, self.algorithm, payload, scale)))
            for cid, (bits, payload, scale, _) in zip(clients, coded)]
        # The headers must be the round's schedule in order (the decode reads the chunk's
        # replay rows as they are), each width the one its scale needs, a clipped scale in the clip.
        ids, rnds, dims, widths, algos, _, scales = zip(*parsed)
        want = [("client_id", ids, tuple(clients)), ("round", rnds, (k,) * cfg.B),
                ("dim", dims, (cfg.d,) * cfg.B), ("algorithm", algos, (self.algorithm,) * cfg.B)]
        if p.quantized:
            top = math.inf if p.noisy else clip_ceiling(s2)
            try:
                want += [("scale", scales, tuple(min(s, top) for s in scales)),
                         ("bits_per_element", widths, tuple(bit_width(scales, sigma).tolist()))]
            except InvalidParameterError:  # the largest scale needs more than MAX_BITS
                want = [("scale", (max(scales),), (None,))]
        for name, got, fit in want:
            if got != fit:
                bad = next(g for g, f in zip(got, fit) if g != f)
                raise InvalidParameterError(f"message {name} {bad} is outside round {k}'s schedule")
        replay = self._chunk[2].result()[i] if p.replayed else None  # read where it is decoded
        if p.replayed and cfg.clip_mode == "median_adaptive":  # at this round's sigma, as code
            replay = sample_layer(sigma, replay)
        # Rows added in turn to +0.0, as B separate decodes would give; np.add.reduce
        # would sum them pairwise where d = 1.
        total = np.add.accumulate(p.decode(parsed, sigma, replay))[-1] + 0.0
        theta = self.theta + total / len(parsed)
        _check_divergence(theta[None], cfg.divergence_ceiling, "global")
        loss, grad = evaluation.result()  # before theta moves: a failed round changes nothing
        self.theta = theta
        record = RoundRecord(round=k, clients=clients,
                             bits_sent=sum(m.payload_bits for m in parsed),
                             sigma_used=sigma, epsilon_spent_cumulative=eps_cum,
                             loss=loss, grad_sq_norm=float(grad @ grad),
                             clamp_count=sum(c for *_, c in coded), inf_norms=inf_norms,
                             scales=list(scales) if p.quantized else [])
        self.records.append(record)
        self.round += 1
        return record

    def run(self) -> RunTrace:
        """Every round; past training._BLOCK_BYTES of data, each evaluation and replay draw
        on a held worker beside the clients, shut down and joined however the run ends."""
        big = self.objective.shards[0].nbytes > training._BLOCK_BYTES
        worker = ThreadPoolExecutor(1) if big else None
        self._defer = worker.submit if worker else _Now
        try:
            for _ in range(self.config.K):
                self.run_round()
        finally:
            self._defer = _Now
            if worker:
                worker.shutdown()  # waits for its last task; an error there is left unread
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
            **run_record(self.config),
        }
        return RunTrace(records=self.records, final_theta=self.theta,
                        summary=summary)
