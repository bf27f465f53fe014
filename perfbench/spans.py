"""In-memory span tracer for the traced run, and the per-layer metrics it derives.

``Tracer.install`` wraps every public function and public method of the
package's layer modules. ``from .x import f`` copies a binding, so a function
is rebound in every ``gaulrq`` module that holds it under its name (for
example ``inv_norm_cdf`` in ``normal``, ``quantizers``, ``orchestrator`` and
``config``); methods are wrapped once, on their class. Each call records a
span (id, parent id, name, start, end); spans stay in memory until
``write_jsonl``.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import inspect
import itertools
import sys
import time
from array import array

import numpy as np

LAYERS = ("config", "streams", "normal", "quantizers", "privacy", "training",
          "orchestrator", "analysis")

# Stages own their whole subtree: their metric is inclusive, and spans inside
# them count toward no other metric. "analysis.report" is opened by the
# benchmark around its bound report.
STAGES = {"config.build_simulation": "config.build_s",
          "analysis.report": "analysis.report_s"}


def _time_metric(name: str) -> str | None:
    """The per-layer self-time metric a span's self time is added to."""
    layer, _, func = name.partition(".")
    if layer in ("streams", "normal", "privacy"):
        return f"{layer}.self_s"
    if layer == "quantizers":
        if func == "sample_layer":
            return "quantizers.layer_s"
        if func in ("lrq_reconstruct_vector", "stochastic_dequantize",
                    "lrq_decode", "dithered_decode"):
            return "quantizers.decode_s"
        return "quantizers.encode_s"
    if layer == "training":
        if func in ("local_rounds", "stochastic_gradient",
                    "Objective.sample_gradients"):
            return "training.local_s"
        return "training.eval_s"
    if layer == "orchestrator":
        return {"pack_indices": "orchestrator.pack_s",
                "unpack_indices": "orchestrator.unpack_s",
                "serialize_message": "orchestrator.wire_s",
                "parse_message": "orchestrator.wire_s",
                "aggregate_and_step": "orchestrator.aggregate_s",
                "RunTrace.to_csv": "orchestrator.artifacts_s",
                "RunTrace.to_summary_json": "orchestrator.artifacts_s",
                }.get(func, "orchestrator.round_self_s")
    return None


# Span names whose number of calls is a per-layer count.
CALL_COUNTS = {"privacy.clip_update": "privacy.clips",
               "training.stochastic_gradient": "training.steps",
               "orchestrator.serialize_message": "orchestrator.messages",
               "orchestrator.Simulation.run_round": "orchestrator.rounds"}


# Work counts read from a call's arguments or result: (args, result) -> {metric: n}.
def _uniforms(args, result):
    return {"streams.uniforms": 2 * int(np.size(result[0]))}


def _normal_values(args, result):
    return {"normal.values": int(np.size(args[0]))}


def _lrq_coords(args, result):
    return {"quantizers.coords": int(result.dim),
            "quantizers.clamps": int(result.clamp_count)}


def _sq_coords(args, result):
    return {"quantizers.coords": int(np.size(result[0]))}


def _wire_bytes(args, result):
    return {"orchestrator.wire_bytes": len(result)}


TALLIES = {"streams.uniform_pair_block": _uniforms,
           "normal.inv_norm_cdf": _normal_values,
           "quantizers.lrq_quantize_vector": _lrq_coords,
           "quantizers.stochastic_quantize_indices": _sq_coords,
           "orchestrator.serialize_message": _wire_bytes}

TIME_METRICS = ("config.build_s", "streams.self_s", "normal.self_s",
                "quantizers.layer_s", "quantizers.encode_s",
                "quantizers.decode_s", "privacy.self_s", "training.local_s",
                "training.eval_s", "orchestrator.pack_s",
                "orchestrator.unpack_s", "orchestrator.wire_s",
                "orchestrator.round_self_s", "orchestrator.aggregate_s",
                "orchestrator.artifacts_s", "analysis.report_s")
COUNT_METRICS = ("streams.calls", "streams.uniforms", "normal.values",
                 "quantizers.coords", "quantizers.clamps", "privacy.clips",
                 "training.steps", "orchestrator.wire_bytes",
                 "orchestrator.messages", "orchestrator.rounds")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.ids = array("q")
        self.parents = array("q")
        self.name_ix = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.tallies = dict.fromkeys(COUNT_METRICS, 0)
        self._stack = [0]
        self._next_id = itertools.count(1)
        self._stage_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    def _index(self, name: str) -> int:
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        return self._name_ix[name]

    def _record(self, sid, parent, ix, t0, t1):
        self.ids.append(sid)
        self.parents.append(parent)
        self.name_ix.append(ix)
        self.starts.append(t0)
        self.ends.append(t1)

    @contextlib.contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself."""
        ix = self._index(name)
        stage = name in STAGES
        sid = next(self._next_id)
        parent = self._stack[-1]
        self._stack.append(sid)
        self._stage_depth += stage
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stage_depth -= stage
            self._stack.pop()
            self._record(sid, parent, ix, t0, t1)

    def _wrap(self, name: str, fn):
        ix = self._index(name)
        stage = name in STAGES
        tally = TALLIES.get(name)
        stack, clock, ids, record = self._stack, time.perf_counter, self._next_id, self._record
        tallies = self.tallies

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            self._stage_depth += stage
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stage_depth -= stage
                stack.pop()
                record(sid, parent, ix, t0, t1)
            if tally is not None and not self._stage_depth:
                for key, n in tally(args, result).items():
                    tallies[key] += n
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions and methods of every layer module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gaulrq" or key.startswith("gaulrq."))]
        for layer in LAYERS:
            module = sys.modules[f"gaulrq.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{name}", obj)
                    for holder in modules:
                        if vars(holder).get(name) is obj:
                            self._patch(holder, name, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_methods(layer, obj)

    def _wrap_methods(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(name, member))
            elif isinstance(member, classmethod):
                # Restore the descriptor itself, not the bound getattr value.
                self._patches.append((cls, attr, member))
                setattr(cls, attr, classmethod(self._wrap(name, member.__func__)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def _tables(self):
        order = np.argsort(np.frombuffer(self.ids, dtype=np.int64), kind="stable")
        ids = np.frombuffer(self.ids, dtype=np.int64)[order]
        parents = np.frombuffer(self.parents, dtype=np.int64)[order]
        names = np.frombuffer(self.name_ix, dtype=np.int64)[order]
        dur = (np.frombuffer(self.ends, dtype=np.float64)
               - np.frombuffer(self.starts, dtype=np.float64))[order]
        return ids, parents, names, dur

    def metrics(self) -> dict:
        """Per-layer self times and counts (stage metrics are inclusive)."""
        ids, parents, names, dur = self._tables()
        size = int(ids.max()) + 1 if ids.size else 1
        child = np.bincount(parents, weights=dur, minlength=size)
        self_time = dur - child[ids]
        stage_ix = {self._name_ix[n] for n in STAGES if n in self._name_ix}
        # Ids grow with entry order, so a parent is settled before its children.
        inside = np.zeros(size, dtype=bool)
        for sid, parent, ix in zip(ids.tolist(), parents.tolist(), names.tolist()):
            inside[sid] = inside[parent] or ix in stage_ix
        out = dict.fromkeys(TIME_METRICS, 0.0)
        out.update(self.tallies)
        buckets = [STAGES.get(n) for n in self.names]
        time_of = [_time_metric(n) for n in self.names]
        calls_of = [CALL_COUNTS.get(n) for n in self.names]
        for sid, parent, ix, d, s in zip(ids.tolist(), parents.tolist(), names.tolist(),
                                         dur.tolist(), self_time.tolist()):
            if buckets[ix] is not None:
                if not inside[parent]:
                    out[buckets[ix]] += d
                continue
            if inside[parent]:
                continue
            if time_of[ix] is not None:
                out[time_of[ix]] += s
            if calls_of[ix] is not None:
                out[calls_of[ix]] += 1
            if self.names[ix].startswith("streams."):
                out["streams.calls"] += 1
        return out

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, ix, t0, t1 in zip(self.ids, self.parents, self.name_ix,
                                               self.starts, self.ends):
                fh.write(f'{{"id": {sid}, "parent": {parent}, "name": "{self.names[ix]}", '
                         f'"start": {t0!r}, "end": {t1!r}}}\n')
