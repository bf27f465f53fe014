"""Experiment configuration and the end-to-end experiment runner."""

from __future__ import annotations

import dataclasses
import json
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .orchestrator import AlgorithmKind, RunTrace, Simulation
from .training import OBJECTIVE_KINDS


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
        names = [a.name.lower() for a in AlgorithmKind]
        if self.algorithm not in names:
            errors.append(f"algorithm: must be one of {names}")
        for name in ("N", "B", "Q", "n_per_client", "d"):
            if int(getattr(self, name)) < 1:
                errors.append(f"{name}: must be >= 1")
        if self.K < 0:
            errors.append("K: must be >= 0")
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
        if self.label_noise < 0:
            errors.append("label_noise: must be >= 0")
        if self.ridge < 0:
            errors.append("ridge: must be >= 0")
        if self.batch_size < 0:
            errors.append("batch_size: must be >= 0 (0 = full batch)")
        if not (np.isfinite(self.divergence_ceiling) and self.divergence_ceiling > 0):
            errors.append("divergence_ceiling: must be finite and > 0")
        if not (0 <= int(self.seed) < 2**64):
            errors.append("seed: must fit in 64 unsigned bits")
        if os.path.isabs(self.run_id) or any(s in self.run_id for s in ("/", "\\", "..")):
            errors.append("run_id: must name a file inside the output directory "
                          "(no '/', '\\' or '..')")
        if errors:
            raise ConfigError(errors)

    def _type_errors(self) -> list[str]:
        """One message per field whose value is not of its default's type
        (ints count as floats; bools count as neither)."""
        wanted = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
                  str: (str, "a string")}
        errors = []
        for f in dataclasses.fields(self):
            kind, noun = wanted[type(f.default)]
            value = getattr(self, f.name)
            if not isinstance(value, kind) or isinstance(value, bool):
                errors.append(f"{f.name}: must be {noun}, got {value!r}")
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
