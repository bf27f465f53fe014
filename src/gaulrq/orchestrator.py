"""The simulated distributed system.

One process plays every client and the server, but each upload is really
serialized to bytes and parsed back, so the communication meter counts
bits that exist. All randomness is cursor-addressed through the shared
streams, which makes runs bitwise reproducible and lets the server replay
each client's dither draws without transmission.

A round runs its B clients as one (B, d) pipeline, from the batch rows to
the server's sum; its PIPELINES row says what the algorithm does and sends. A
chunk of rounds draws first, one stream call per lane with a rounds and a client
axis, and keeps what they consume: batch rows, noise normals and the layers at
sigma = 1, read-only. A round puts them at its sigma, fixed or set from its norms, once:
its encode and decode both read that one read-only layer. The parsed headers must be the
round's schedule in order, with the widths and scales the server can recompute or bound.
Norms, clipping, scales, widths, codecs and bit packing are row-wise (packing one per
distinct width); the wire carries one message a client.
"""

from __future__ import annotations

import enum
import json
import math
import struct
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import training
from .errors import DivergedError, InvalidParameterError
from .normal import inv_norm_cdf
from .privacy import clip_ceiling, clip_update, l2_norms, median_clip_bound
from .quantizers import (MAX_BITS, MAX_SIGMA, _layer_at, bit_width, lrq_quantize_rows,
                         lrq_reconstruct_rows, sample_layer, stochastic_dequantize,
                         stochastic_round)
from .streams import SeedMaterial, _count, element_pairs, uniform_block
from .training import (Objective, _check_divergence, _now, stacked_local_rounds, synth_partition,
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


def _word(widths: list) -> np.dtype:
    """The narrowest little-endian unsigned word holding every width, each in [1, 62]:
    past 62 bits a signed field's sign extension overflows int64."""
    if not 1 <= min(widths, default=0) <= max(widths) <= 62:
        raise InvalidParameterError(f"index widths must lie in [1, 62], got {widths}")
    return np.min_scalar_type((1 << max(widths)) - 1).newbyteorder("<")


def pack_indices(indices, bits):
    """Pack signed integers into ``bits``-wide two's-complement fields.

    Field j occupies stream bits [j*bits, (j+1)*bits), LSB-first: the low ``bits``
    of each int64's little-endian bit row, concatenated. A (B, d) array with one
    width per row gives B payloads, each padded on its own: one bit split of all
    rows, as the narrowest unsigned word holding every width, then one pack per width.
    """
    widths = np.reshape(bits, -1)
    word = _word(ws := widths.tolist())
    words = np.ascontiguousarray(indices, dtype="<i8").reshape(widths.size, -1)
    planes = np.unpackbits(words.astype(word).view(np.uint8), bitorder="little").reshape(
        *words.shape, 8 * word.itemsize)
    payloads = [b""] * widths.size
    for b in set(ws):
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
    widths, dim = np.reshape(bits, -1), _count(dim, "dim")
    payloads = [payload] if np.ndim(bits) == 0 else payload
    word = _word(ws := widths.tolist())
    planes = np.zeros((widths.size, dim, 8 * word.itemsize), dtype=np.uint8)
    for b in set(ws):
        rows = np.flatnonzero(widths == b)
        n = (dim * b + 7) // 8
        stream = np.frombuffer(b"".join(bytes(payloads[i][:n]).ljust(n, b"\0")
                                        for i in rows.tolist()), dtype=np.uint8)
        planes[rows, :, :b] = np.unpackbits(stream.reshape(rows.size, n), axis=1,
                                            count=dim * b, bitorder="little"
                                            ).reshape(rows.size, dim, b)
    words = np.packbits(planes, bitorder="little").view(word)
    out = words.astype(np.int64).reshape(widths.size, dim)
    if signed:  # branch-free: np.where mispredicts on random signs
        high = np.left_shift(1, widths)[:, None]
        out = out - (out >= high >> 1) * high
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


# -- codecs: draw(seed, client_ids, rounds, d) -> per round, the rows of the codec's lane;
# the layered draw keeps its layers at sigma = 1, x, L and R, read-only. at(sigma, rows), once a
# round, puts them at sigma: one read-only layer of x, R and q_step. encode(V, sigma, rows) ->
# one (width, payload, scale, clamps) per row of V, and decode(messages, rows) -> (B, d), its
# mirror, read the same rows (the float and stochastic decodes ignore them), in schedule order.
# Layer functions are module globals to them.

def _encode_float(V, sigma, rows):
    with np.errstate(over="ignore"):
        V = V.astype("<f4")
    if not np.isfinite(V).all():
        raise DivergedError("an upload exceeds float32's range")
    return [(FLOAT_BITS, row.tobytes(), 0.0, 0) for row in V]


def _decode_float(msgs, rows):
    return np.stack([np.frombuffer(m.payload, "<f4") for m in msgs]).astype(np.float64)


def _draw_stochastic(seed, ids, rnd, d):
    return uniform_block(seed.lane("sq"), ids, rnd, 0, np.arange(d, dtype=np.uint64))


def _encode_stochastic(V, sigma, uniforms):
    scales = np.max(np.abs(V), axis=1)
    widths = bit_width(scales, sigma)  # rejects a non-finite norm, so a non-finite V
    idx = stochastic_round(V, widths, uniforms, scales) - np.left_shift(1, widths - 1)[:, None]
    return list(zip(widths.tolist(), pack_indices(idx, widths), scales.tolist(), [0] * len(V)))


def _decode_stochastic(msgs, uniforms):
    widths = np.array([m.bits_per_element for m in msgs])
    idx = unpack_indices([m.payload for m in msgs], msgs[0].dim, widths)
    return stochastic_dequantize(idx + np.left_shift(1, widths - 1)[:, None], widths,
                                 [m.scale for m in msgs])


def _draw_layered(seed, ids, rnd, d):
    layer = sample_layer(1.0, element_pairs(seed.lane("quant"), ids, rnd, d))
    layer.x.flags.writeable = layer.L.flags.writeable = layer.R.flags.writeable = False
    return list(zip(layer.x, layer.L, layer.R))


def _encode_layered(V, sigma, layer):
    idx, widths, scales, clamps = lrq_quantize_rows(V, sigma, layer)
    return list(zip(widths, pack_indices(idx, widths), scales, clamps.tolist()))


def _decode_layered(msgs, layer):
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
    at: Callable | None    # (sigma, rows) -> the round's rows at sigma; None: the draw's rows
    encode: Callable
    decode: Callable
    held: int        # float64s an element the codec draw keeps (layered: x, L, R at sigma 1)
    work: int        # float64s an element of (B, d) a round peaks at above its chunk, less noise


_FLOAT = (False, None, None, _encode_float, _decode_float, 0, 3)  # quantized, ..., held, work
_STOCHASTIC = (True, _draw_stochastic, None, _encode_stochastic, _decode_stochastic, 1, 5)
_LAYERED = (True, _draw_layered, _layer_at, _encode_layered, _decode_layered, 3, 7)
PIPELINES = {  # private, noisy, decaying, then the codec
    AlgorithmKind.LOCAL_SGD: Pipeline(False, False, False, *_FLOAT),
    AlgorithmKind.GAU_SGD: Pipeline(True, True, False, *_FLOAT),
    AlgorithmKind.QG_SGD: Pipeline(True, True, False, *_STOCHASTIC),
    AlgorithmKind.GAU_LRQ_SGD: Pipeline(True, False, False, *_LAYERED),
    AlgorithmKind.DYNAMIC_GAU_LRQ_SGD: Pipeline(True, False, True, *_LAYERED),
}


def _chunk_size(p: Pipeline, B, Q, n, d, b):
    """(steps, values, rounds) of a chunk: a client's batch rows a round (0: full batch), the
    values a round's draws keep, and the rounds one chunk draws, in training._BLOCK_BYTES (>= 1)."""
    steps = Q * b if b < n else 0
    values = B * (1 + steps + (p.noisy + p.held) * d)
    return steps, values, training._block_rows(8 * values)


def peak_floats(config) -> tuple[int, str]:
    """(values, field): an upper bound, from the fields alone, on the float64 values a run of
    ``config`` holds at once, and the largest factor of its largest term. Held throughout: the
    shards, theta0 and theta, the schedule (3 K while noise_schedule makes it) and each round's
    record (a base with its CSV line, 1 to 5 a client for each B-long list). On top, the largest
    of the build, the bound report and a round: its chunk, the larger of the next chunk's draw
    and its work, and its evaluation beside them, or before them where beside runs it inline."""
    p = PIPELINES[AlgorithmKind[config.algorithm.upper()]]
    N, n, d, B, Q, K, b = (int(getattr(config, name)) for name in (  # Python ints: none wrap
        "N", "n_per_client", "d", "B", "Q", "K", "batch_size"))
    rows, data = N * n, ("N", "n_per_client", "d")
    width, evaluation = Objective.trace_floats(rows, d, config.objective)
    steps, values, fit = _chunk_size(p, B, Q, n, d, b or n)
    # Across rounds: the chunk with its row views, and the thetas queued for the evaluation.
    kept = min(fit, K) * (values + 14 * (p.held + p.noisy + (steps > 0))) + min(width, K) * d
    rnd = max(min(fit, K) * B * max(3 * steps, 5 * p.noisy * d, (p.held + (p.held > 0)) * d),
              (p.work + p.noisy) * B * d + training.local_gather(B, Q, b or n, d, not steps)[1])
    if training.inline(8 * rows * d):  # beside runs the evaluation before the round's draw
        evaluation, rnd = 0, max(evaluation, rnd)
    # The shards, theta0 and theta, and 32 KiB of the Python objects any run makes (~25 KiB).
    terms = [(rows * (d + 1) + 2 * d + 4096, data), (3 * K * p.private, ("K",)),
             (K * (100 + B * (1 + 4 * (N > 256) + 4 * (p.private + p.quantized))), ("K", "B")),
             max((training.synth_floats(N, n, d, config.heterogeneity), data),
                 (Objective.spec_floats(N, n, d, config.objective), data),
                 (kept + evaluation + rnd, data + ("B", "Q", "batch_size")))]
    return sum(v for v, _ in terms), max(max(terms)[1], key=lambda name: getattr(config, name))


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


def run_record(config) -> dict:  # what a summary records of its run: config and data slab
    return {"config": asdict(config), "slab": training._SLAB}


@dataclass
class RoundRecord:
    """Bookkeeping for one communication round (loss at round start, NaN while queued)."""

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
    """One experiment, built from an ExperimentConfig, which checked itself when made: the
    seed, the synthetic shards' Objective, the "init"-lane start point, the config's sigma
    schedule with its cumulative-epsilon ledger, and the server state per round."""

    def __init__(self, config):
        self.config = config
        self.seed = SeedMaterial(config.seed, config.run_id)
        self.objective = Objective(
            *synth_partition(config.seed, config.N, config.d, config.n_per_client,
                             config.label_noise, kind=config.objective,
                             heterogeneity=config.heterogeneity),
            kind=config.objective, ridge=config.ridge)
        self.theta0 = inv_norm_cdf(uniform_block(self.seed.lane("init"), 0, 0,
                                                 np.arange(config.d, dtype=np.uint64), 0))
        self.theta = self.theta0.copy()
        self.algorithm = AlgorithmKind[config.algorithm.upper()]
        self.batch_size = config.batch_size or config.n_per_client  # 0 is full batch
        self.round = 0
        self.records: list[RoundRecord] = []
        self._pipeline = PIPELINES[self.algorithm]
        self._chunk = (0, [])  # (first round, per-round draws), by run_round
        self._defer = None  # run()'s deferral, fn(*args) -> .result(); None outside run()
        self._queue, self._evaluated = [], 0  # thetas of the records from _evaluated on
        if self._pipeline.private:
            self._sigmas, self._eps_cum = config.schedule

    def _draw_chunk(self):
        """One stream call per lane for the rounds from self.round on that fit in
        training._BLOCK_BYTES (at least one): each round's rows, for its encode and decode."""
        cfg, p, n, d = self.config, self._pipeline, self.config.n_per_client, self.config.d
        self._chunk = (0, [])  # the old chunk goes first: a redraw never holds two
        steps, _, fit = _chunk_size(p, cfg.B, cfg.Q, n, d, self.batch_size)
        rounds = np.arange(self.round, min(cfg.K, self.round + fit), dtype=np.uint64)
        clients = sample_clients(cfg.N, cfg.B, uniform_block(self.seed.lane("sample"), 0,
                                                             rounds, 0, 0))
        batch = noise = code = [None] * rounds.size
        rnd = rounds[:, None]
        if steps:
            u_batch = uniform_block(self.seed.lane("batch"), clients, rnd, 0,
                                    np.arange(steps, dtype=np.uint64))
            batch = np.floor(u_batch * n).astype(np.int64)
        if p.noisy:
            noise = inv_norm_cdf(uniform_block(self.seed.lane("noise"), clients, rnd,
                                               np.arange(d, dtype=np.uint64), 0))
        if p.draw is not None:
            code = p.draw(self.seed, clients, rnd, d)
        self._chunk = (self.round, list(zip(clients.tolist(), batch, noise, code)))

    def run_round(self) -> RoundRecord:
        """One round. objective.trace_terms takes the queue of theta_k once trace_width rounds,
        or the last, wait in run(), and at once in a bare call, whose record is then complete."""
        cfg, k, p = self.config, self.round, self._pipeline
        if k >= cfg.K:
            raise InvalidParameterError("all configured rounds already run")
        # theta_k joins the queue; a theta left there by a failed round is dropped.
        queue = self._queue = self._queue[:k - self._evaluated] + [self.theta]
        due = len(queue) == self.objective.trace_width or k == cfg.K - 1 or not self._defer
        # Submitted before a chunk's draw, so run()'s worker evaluates while the caller draws.
        evaluation = (self._defer or _now)(self.objective.trace_terms, queue) if due else None
        if not 0 <= k - self._chunk[0] < len(self._chunk[1]):
            self._draw_chunk()
        # Row i of every (B, ...) array below belongs to clients[i], ascending.
        clients, batch, noise, code = self._chunk[1][k - self._chunk[0]]
        updates = stacked_local_rounds(self.objective, self.theta, clients, cfg.Q,
                                       cfg.eta, batch, cfg.divergence_ceiling)

        sigma, inf_norms, eps_cum, s2 = 0.0, [], float("inf"), cfg.s2
        coded_norms = p.private and p.quantized and not p.noisy  # scale = clipped row's max|v|
        if p.private:
            sigma, eps_cum = float(self._sigmas[k]), float(self._eps_cum[k])
            if cfg.clip_mode == "median_adaptive":
                with np.errstate(over="ignore"):  # squares past float64: an inf median
                    s2 = max(median_clip_bound(l2_norms(updates)), 1e-12)
                if not math.isfinite(s2):
                    raise DivergedError(f"round {k}'s median clip bound {s2} is not finite")
                sigma *= s2
                if p.quantized and sigma > MAX_SIGMA:
                    raise DivergedError(f"median-clipped sigma {sigma:.6g} exceeds the "
                                        f"codec's MAX_SIGMA {MAX_SIGMA:.6g}")
            updates = clip_update(updates, s2)
            if not coded_norms:
                inf_norms = np.max(np.abs(updates), axis=1).tolist()

        if p.noisy:
            with np.errstate(over="ignore"):  # past float32's range: the encode's error
                updates = updates + sigma * noise
        code = p.at(sigma, code) if p.at else code  # one read-only layer both sides read
        try:
            coded = p.encode(updates, sigma, code)  # (width, payload, scale, clamps) a row
        except InvalidParameterError as exc:  # a width past MAX_BITS: the round's range did it
            raise DivergedError(f"round {k}: {exc}") from None
        if coded_norms:  # encode took each row's inf-norm as its scale: not taken twice
            inf_norms = [scale for _, _, scale, _ in coded]
        parsed = [parse_message(serialize_message(
            WireMessage(cid, k, cfg.d, bits, self.algorithm, payload, scale)))
            for cid, (bits, payload, scale, _) in zip(clients, coded)]
        # The headers must be the round's schedule in order (the decode reads the round's
        # rows in it), each width the one its scale needs, a clipped scale in the clip.
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
        # Rows added in turn to +0.0, as B separate decodes would give: np.add.reduce sums them
        # pairwise where d = 1, and np.add.accumulate steps column by column (slow at large d).
        total = sum(p.decode(parsed, code), 0.0)
        theta = self.theta + total / len(parsed)
        _check_divergence(theta[None], cfg.divergence_ceiling, "global")
        terms = evaluation.result() if evaluation else []  # a failed round changes nothing
        self.theta = theta
        record = RoundRecord(round=k, clients=clients,
                             bits_sent=sum(m.payload_bits for m in parsed),
                             sigma_used=sigma, epsilon_spent_cumulative=eps_cum,
                             loss=math.nan, grad_sq_norm=math.nan,
                             clamp_count=sum(c for *_, c in coded), inf_norms=inf_norms,
                             scales=list(scales) if p.quantized else [])
        self.records.append(record)
        self.round += 1
        self._evaluate(terms)
        return record

    def _evaluate(self, terms=None):
        """Put the queue's terms into its records; None evaluates the queue first, inline."""
        pending = self.records[self._evaluated:]
        if terms is None:
            terms = self.objective.trace_terms(self._queue[:len(pending)]) if pending else []
        for record, (loss, grad_sq_norm) in zip(pending, terms):
            record.loss, record.grad_sq_norm = loss, grad_sq_norm
        self._queue, self._evaluated = self._queue[len(terms):], self._evaluated + len(terms)

    def run(self) -> RunTrace:
        """Every round, each evaluation submitted through training.beside (past
        training._BLOCK_BYTES of data, to a held worker beside the clients, joined), and the
        records completed, however the run ends."""
        try:
            with training.beside(self.objective.shards[0].nbytes) as self._defer:
                for _ in range(self.round, self.config.K):
                    self.run_round()
        finally:  # nothing reads the last chunk's draws once the run ends
            self._defer, self._chunk = None, (0, [])
            self._evaluate()
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
