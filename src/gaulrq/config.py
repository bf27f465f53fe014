"""Experiment configuration and the end-to-end experiment runner."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .orchestrator import PIPELINES, RunTrace, Simulation
from .training import OBJECTIVE_KINDS

# Caps, in float64 values (2 GiB each), on the (N, n, d) shards and on the B * Q *
# max(batch_size, 1) rows of d values a round's local steps read: an allocation past
# memory becomes a config error. A config near them can still need several GiB.
MAX_FLOATS = 2**28
# Cap on K: a run keeps a record of each round (~1.3 KB at B = 10) that MAX_FLOATS does not count.
MAX_ROUNDS = 10**7


@dataclass
class ExperimentConfig:
    """One experiment, fully determined together with the seed."""

    algorithm: str = "gau_lrq_sgd"
    N: int = 100
    B: int = 10
    Q: int = 1
    K: int = 20
    eta: float = 0.1
    epsilon: float = 1.0
    delta: float = 1e-5
    tau: float = 1.0
    clip_mode: str = "fixed"
    s2: float = 1.0
    objective: str = "least_squares"
    d: int = 10
    n_per_client: int = 20
    label_noise: float = 0.0
    ridge: float = 0.0
    heterogeneity: float = 0.0
    batch_size: int = 0  # 0 means full batch
    seed: int = 0
    run_id: str = ""
    divergence_ceiling: float = 1e6

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError([f"{key}: unknown configuration key" for key in unknown])
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self):
        errors = self._type_errors()
        if errors:  # the range checks below assume well-typed fields
            raise ConfigError(errors)
        pipeline = {kind.name.lower(): p for kind, p in PIPELINES.items()}.get(self.algorithm)
        if pipeline is None:
            errors.append(f"algorithm: must be one of {[k.name.lower() for k in PIPELINES]}")
        for name in ("N", "B", "Q", "n_per_client", "d"):
            if int(getattr(self, name)) < 1:
                errors.append(f"{name}: must be >= 1")
        for names in (("N", "n_per_client", "d"), ("B", "Q", "batch_size", "d")):
            sizes = [max(int(getattr(self, name)), 1) for name in names]
            if math.prod(sizes) > MAX_FLOATS:  # reported on its largest factor
                errors.append(f"{names[sizes.index(max(sizes))]}: {' * '.join(names)} = "
                              f"{math.prod(sizes):.3g} exceeds {MAX_FLOATS} float64 values")
                break
        if self.K < 0:
            errors.append("K: must be >= 0")
        elif self.K > MAX_ROUNDS:
            errors.append(f"K: must be <= {MAX_ROUNDS}")
        elif self.K == 0 and (pipeline is None or pipeline.private):
            errors.append("K: must be >= 1 for private algorithms")
        for name in ("eta", "epsilon", "s2", "label_noise", "ridge", "heterogeneity"):
            if not np.isfinite(getattr(self, name)):
                errors.append(f"{name}: must be finite")
        if self.B > self.N:
            errors.append(f"B: participants ({self.B}) cannot exceed N ({self.N})")
        if self.eta <= 0:
            errors.append("eta: must be > 0")
        if self.epsilon <= 0:
            errors.append("epsilon: must be > 0")
        if not (0.0 < self.delta < 1.0):
            errors.append("delta: must lie in (0, 1)")
        if not (0.0 < self.tau <= 1.0):
            errors.append("tau: must lie in (0, 1]")
        if self.clip_mode not in ("fixed", "median_adaptive"):
            errors.append("clip_mode: must be 'fixed' or 'median_adaptive'")
        elif self.clip_mode == "fixed" and self.s2 <= 0:
            errors.append("s2: must be > 0 for fixed clipping")
        if self.objective not in OBJECTIVE_KINDS:
            errors.append(f"objective: must be one of {OBJECTIVE_KINDS}")
        for name in ("label_noise", "ridge", "heterogeneity"):
            if getattr(self, name) < 0:
                errors.append(f"{name}: must be >= 0")
        if self.objective == "logistic" and self.label_noise > 0:  # Bernoulli labels: no noise
            errors.append("label_noise: must be 0 for the logistic objective (it has no effect)")
        if self.batch_size < 0:
            errors.append("batch_size: must be >= 0 (0 = full batch)")
        elif self.batch_size > self.n_per_client:
            errors.append("batch_size: must be <= n_per_client (0 = full batch)")
        if not (np.isfinite(self.divergence_ceiling) and self.divergence_ceiling > 0):
            errors.append("divergence_ceiling: must be finite and > 0")
        if not (0 <= int(self.seed) < 2**64):
            errors.append("seed: must fit in 64 unsigned bits")
        if os.path.isabs(self.run_id) or any(s in self.run_id for s in ("/", "\\", "..")):
            errors.append("run_id: must name a file inside the output directory "
                          "(no '/', '\\' or '..')")
        try:  # the longest artifact name, as the file system sees it
            name = os.fsencode(f"{self.run_id}_summary.json")
        except UnicodeError:  # a lone surrogate
            name = b"\0"
        if b"\0" in name or len(name) > 255:
            errors.append("run_id: must encode, with no NUL, to file names of at most 255 bytes")
        if errors:
            raise ConfigError(errors)

    def _type_errors(self) -> list[str]:
        """One message per field whose value is not of its default's type
        (ints within float range count as floats; bools count as neither)."""
        wanted = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
                  str: (str, "a string")}
        errors = []
        for f in dataclasses.fields(self):
            kind, noun = wanted[type(f.default)]
            value = getattr(self, f.name)
            if not isinstance(value, kind) or isinstance(value, bool):
                errors.append(f"{f.name}: must be {noun}, got {value!r}")
            elif (kind is numbers.Real and isinstance(value, numbers.Integral)
                  and abs(value) > sys.float_info.max):  # np.isfinite raises on it
                errors.append(f"{f.name}: must be a number within float range")
        return errors


def load_json_object(path: str, name: str) -> dict:
    """The JSON object in file ``path``; any failure is a ConfigError about ``name``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{name}: cannot read {path} ({exc.strerror})") from None
    except ValueError as exc:  # invalid JSON or UTF-8
        raise ConfigError(f"{name}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: top level must be a JSON object")
    return data


def load_config(path: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(load_json_object(path, "config"))


def build_simulation(config: ExperimentConfig) -> Simulation:
    """Validate ``config`` and build its Simulation (data, start point, schedule)."""
    config.validate()
    return Simulation(config)


def run_experiment(config: ExperimentConfig) -> RunTrace:
    """Execute all configured rounds; deterministic under (seed, config)."""
    return build_simulation(config).run()
