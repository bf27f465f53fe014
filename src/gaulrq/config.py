"""Experiment configuration, the one gate for what can run, and the end-to-end runner."""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import os
import sys
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .orchestrator import PIPELINES, AlgorithmKind, RunTrace, Simulation, peak_floats
from .privacy import noise_schedule
from .quantizers import MAX_SIGMA, bit_width
from .training import OBJECTIVE_KINDS

# The budget of a run, in float64 values (4 GiB): a config whose peak_floats exceeds it is a
# config error, on every machine alike.
MAX_FLOATS = 2**29


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, fully determined with the seed: checked when made, schedule included."""

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

    def __post_init__(self):
        self.validate()

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError([f"{key}: unknown configuration key" for key in unknown])
        return cls(**data)

    @functools.cached_property
    def schedule(self):
        """(sigmas, eps_cum) of noise_schedule, None for local_sgd (S2: s2 under fixed clipping,
        1 under median; tau on the decaying pipelines only); ConfigError if no round can code it."""
        p = PIPELINES[AlgorithmKind[self.algorithm.upper()]]
        if not p.private:
            return None
        s2 = self.s2 if self.clip_mode == "fixed" else 1.0  # a round's median rescales S2 = 1
        try:
            sigmas, eps_cum = noise_schedule(s2, self.K, self.B, self.N, self.epsilon,
                                             self.delta, self.tau if p.decaying else 1.0)
            top = sigmas.max()  # a later, narrower sigma past MAX_BITS is its round's DivergedError
            if p.quantized and self.clip_mode == "fixed" and top > MAX_SIGMA:
                raise ConfigError(f"epsilon: sigma {top:.6g} exceeds the codec's {MAX_SIGMA:.6g}")
            if p.quantized and top <= MAX_SIGMA:  # else a median clip rescales it, in its round
                bit_width(s2, top)  # over MAX_BITS at the clip bound: no round can code one
        except InvalidParameterError as exc:  # the field checks leave only these
            raise ConfigError(f"epsilon: {exc}") from None
        return sigmas, eps_cum

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
        if self.K < 0:
            errors.append("K: must be >= 0")
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
        if self.s2 <= 0:  # the clip bound, and the bound report's S2 in either mode
            errors.append("s2: must be > 0")
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
        peak, field = peak_floats(self)  # before the schedule, whose K values it counts
        if peak > MAX_FLOATS:
            raise ConfigError(f"{field}: a run of this config peaks at {Decimal(peak):.2g} float64 "
                              f"values, over the budget of {MAX_FLOATS}")
        self.schedule  # its checks read fields that passed theirs

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
    """``config``'s Simulation: its data and start point, and the schedule the config checked."""
    return Simulation(config)


def run_experiment(config: ExperimentConfig) -> RunTrace:
    """Execute all configured rounds; deterministic under (seed, config)."""
    return build_simulation(config).run()
