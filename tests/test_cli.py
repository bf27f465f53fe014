import contextlib
import dataclasses
import io
import json
import math
import time
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaulrq import cli, config as config_module, orchestrator, training
from gaulrq.analysis import BoundInputs
from gaulrq.cli import _bound_report, main
from gaulrq.config import MAX_FLOATS, ExperimentConfig, build_simulation, load_config
from gaulrq.errors import ConfigError, DivergedError, InvalidParameterError
from gaulrq.quantizers import MAX_BITS, MAX_SIGMA, lrq_quantize_vector
from gaulrq.streams import SeedMaterial, uniform_pair_block

MINIMAL = {
    "algorithm": "gau_lrq_sgd", "N": 6, "B": 3, "Q": 2, "K": 4,
    "eta": 0.05, "epsilon": 2.0, "delta": 1e-5, "tau": 0.9, "s2": 1.0,
    "objective": "least_squares", "d": 3, "n_per_client": 8,
    "seed": 11, "run_id": "cli-test",
}


def _write_config(tmp_path, overrides=None, name="cfg.json"):
    data = dict(MINIMAL)
    if overrides:
        data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# -- config loading ---------------------------------------------------------

def test_load_config_round_trip(tmp_path):
    cfg = load_config(_write_config(tmp_path))
    assert cfg.algorithm == "gau_lrq_sgd" and cfg.N == 6


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError) as exc:
        load_config(_write_config(tmp_path, {"learning_rate": 0.1}))
    assert "learning_rate" in str(exc.value)


def test_cross_field_validation_names_fields():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(dict(MINIMAL, B=10, N=5))
    assert "B" in str(exc.value)


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_multiple_errors_collected():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(dict(MINIMAL, eta=-1.0, tau=2.0))
    msg = str(exc.value)
    assert "eta" in msg and "tau" in msg


# -- run subcommand ---------------------------------------------------------

def test_cmd_run_writes_three_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["cli-test_bounds.json", "cli-test_summary.json",
                     "cli-test_trace.csv"]
    summary = json.loads((out / "cli-test_summary.json").read_text())
    assert summary["rounds_run"] == 4 and summary["stop_reason"] == "completed"
    bounds = json.loads((out / "cli-test_bounds.json").read_text())
    assert bounds["bound_dynamic"] <= bounds["bound_gau_lrq"] <= bounds["bound_qg"]


def test_cmd_run_missing_config_file(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["run", "--config", missing, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        f"config error: config: cannot read {missing} (No such file or directory)\n"


def test_cmd_run_invalid_config_exit_status(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"B": 10})  # B > N
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "B" in err


# Each asks for far more memory than a machine has: the shards (7.28 TiB, 1.46 TiB
# and 7.11 PiB) or a round's 10^12 local steps. They used to end in a MemoryError. At
# d = 10^400 the peak's count is past float64's range: it must still format.
@pytest.mark.parametrize("field, overrides", [("d", {"d": 10**12}),
                                              ("N", {"N": 10**9, "B": 10}),
                                              ("n_per_client", {"n_per_client": 10**12}),
                                              ("Q", {"Q": 10**12}),
                                              pytest.param("d", {"d": 10**400}, id="d-10**400")])
def test_cmd_run_oversized_config_is_one_config_error(tmp_path, capsys, field, overrides):
    cfg = _write_config(tmp_path, overrides)
    out = tmp_path / "never"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    out_text, err = capsys.readouterr()
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
    assert out_text == "" and not out.exists()


# Each config's largest term grows with its field: a layered round's (B, d) work, the round
# records, the (N n)-long products of the bound report, the full-batch steps' Q offsets.
@pytest.mark.parametrize("field, base", [("d", dict(N=1, B=1, n_per_client=1)), ("K", {}),
                                         ("N", dict(d=3)), ("Q", {})])
def test_memory_budget_is_inclusive(field, base):
    data = dict(MINIMAL, **base)
    fields = dataclasses.asdict(ExperimentConfig.from_dict(data))

    def peak(value):  # of the fields at value, which a config past the budget cannot hold
        return orchestrator.peak_floats(types.SimpleNamespace(**dict(fields, **{field: value})))[0]

    lo, hi = 1, 2
    while peak(hi) <= MAX_FLOATS:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # peak(lo) <= MAX_FLOATS < peak(hi)
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if peak(mid) <= MAX_FLOATS else (lo, mid)
    ExperimentConfig.from_dict(dict(data, **{field: lo}))  # at the budget
    with pytest.raises(ConfigError, match=f"^{field}: a run of this config peaks at [0-9.e+]+ "
                                          f"float64 values, over the budget of {MAX_FLOATS}$"):
        ExperimentConfig.from_dict(dict(data, **{field: lo + 1}))


def test_cmd_run_parameter_errors_exit_status(tmp_path, capsys, monkeypatch):
    # K=0 leaves a private algorithm no rounds to spread the budget over; at K=10^12 the
    # round records alone pass the memory budget, refused before the schedule's K values are
    # computed; epsilon=1e30 makes sigma so small that indices would need > MAX_BITS bits.
    for overrides, text in (({"K": 0}, "config error: K: must be >= 1 for private algorithms"),
                            ({"K": 10**12}, "config error: K: a run of this config peaks at "),
                            ({"epsilon": 1e30}, f"{MAX_BITS}-bit cap")):
        cfg = _write_config(tmp_path, overrides)
        out = tmp_path / "never"
        with monkeypatch.context() as patch:
            if overrides == {"K": 10**12}:
                patch.setattr(config_module, "noise_schedule", _never)
            assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and text in err
        assert not out.exists()


def _never(*args):
    raise AssertionError("noise_schedule ran on a config past the memory budget")


@pytest.mark.parametrize("field, value", [("N", "ten"), ("eta", "fast"), ("seed", None)])
def test_cmd_run_mistyped_value_exit_status(tmp_path, capsys, field, value):
    cfg = _write_config(tmp_path, {field: value})
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and "Traceback" not in err
    assert not out.exists()


# "a\0b", a lone surrogate and a 243-byte stem (a 256-byte summary name) are
# names no file system takes; validation rejects them before any round runs.
@pytest.mark.parametrize("run_id", ["../../x", "<tmp>/abs", "a/b", "a\\b", "..",
                                    pytest.param("a\0b", id="nul"),
                                    pytest.param("\ud800", id="surrogate"),
                                    pytest.param("x" * 243, id="x243")])
def test_cmd_run_run_id_stays_in_out_dir(tmp_path, capsys, run_id):
    cfg = _write_config(tmp_path, {"run_id": run_id.replace("<tmp>", str(tmp_path))})
    out = tmp_path / "a" / "b"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: run_id: ")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json"]


# The first config diverges in round 0, the second after three rounds.
@pytest.mark.parametrize("overrides, rounds", [({"eta": 1e6, "K": 3}, 0),
                                               ({"eta": 50.0, "K": 8}, 3)])
def test_cmd_run_diverged_writes_partial_trace(tmp_path, capsys, overrides, rounds):
    base = {"algorithm": "local_sgd", "N": 4, "B": 2, "K": 3, "d": 3,
            "n_per_client": 8}
    cfg = tmp_path / "div.json"
    cfg.write_text(json.dumps(dict(base, **overrides)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "run error: local model norm exceeded ceiling 1e+06\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "local_sgd_bounds.json", "local_sgd_summary.json", "local_sgd_trace.csv"]
    lines = (out / "local_sgd_trace.csv").read_text().splitlines()
    assert lines[0].startswith("round,algo,") and len(lines) == 1 + rounds
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(rounds))
    summary = json.loads((out / "local_sgd_summary.json").read_text())
    assert summary["stop_reason"] == f"diverged in round {rounds}"
    assert summary["rounds_run"] == rounds


@pytest.mark.parametrize("ceiling", [-1, 0, float("nan"), float("inf")])
def test_cmd_run_rejects_bad_divergence_ceiling(tmp_path, capsys, ceiling):
    # A NaN or infinite ceiling would switch the guard off; <= 0 trips it at once.
    cfg = _write_config(tmp_path, {"divergence_ceiling": ceiling})
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == \
        "config error: divergence_ceiling: must be finite and > 0\n"
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    {"eta": float("inf")}, {"eta": float("nan")}, {"ridge": float("inf")},
    {"algorithm": "local_sgd", "epsilon": float("inf")},
    {"clip_mode": "median_adaptive", "s2": float("inf")}])
def test_cmd_run_rejects_non_finite_knobs(tmp_path, capsys, overrides):
    # The bound report needs finite inputs, so a non-finite knob fails up front.
    cfg = _write_config(tmp_path, overrides)
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    name = next(k for k in overrides if k not in ("algorithm", "clip_mode"))
    assert capsys.readouterr().err == f"config error: {name}: must be finite\n"
    assert not out.exists()


# s2 is the clip bound under fixed clipping, and the bound report's S2 in both modes: a median
# run with s2 = 0 used to run to the end and then fail its bound report.
@pytest.mark.parametrize("overrides, message", [
    ({"clip_mode": "percentile"}, "clip_mode: must be 'fixed' or 'median_adaptive'"),
    ({"s2": 0}, "s2: must be > 0"),
    ({"clip_mode": "median_adaptive", "s2": 0.0}, "s2: must be > 0")],
    ids=["clip_mode-percentile", "s2-0", "median-s2-0"])
def test_cmd_run_rejects_bad_clip_settings(tmp_path, capsys, monkeypatch, overrides, message):
    monkeypatch.setattr(cli, "build_simulation", lambda config: pytest.fail("built"))
    cfg = _write_config(tmp_path, overrides)
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("field", ["label_noise", "ridge", "heterogeneity"])
def test_cmd_run_rejects_negative_data_knobs(tmp_path, capsys, field):
    cfg = _write_config(tmp_path, {field: -0.5})
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {field}: must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("label_noise, ok", [(0.0, True), (0.1, False), (5.0, False)])
def test_cmd_run_rejects_label_noise_on_logistic(tmp_path, capsys, label_noise, ok):
    # Logistic labels are Bernoulli draws through a sigmoid: label_noise would change no byte.
    cfg = _write_config(tmp_path, {"objective": "logistic", "label_noise": label_noise})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == (0 if ok else 2)
    if not ok:
        assert capsys.readouterr().err == \
            "config error: label_noise: must be 0 for the logistic objective (it has no effect)\n"
        assert not out.exists()


@pytest.mark.parametrize("batch_size, ok", [(0, True), (8, True), (9, False), (10**6, False)])
def test_cmd_run_batch_size_at_most_the_shard(tmp_path, capsys, batch_size, ok):
    # 0 and n_per_client (8) both run full batch; a larger batch would too, silently.
    cfg = _write_config(tmp_path, {"batch_size": batch_size})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == (0 if ok else 2)
    if not ok:
        assert capsys.readouterr().err == \
            "config error: batch_size: must be <= n_per_client (0 = full batch)\n"
        assert not out.exists()


@pytest.mark.parametrize("name", ["divergence_ceiling", "eta"])
def test_cmd_run_rejects_ints_beyond_float_range(tmp_path, capsys, name):
    # A 401-digit JSON integer loads as an int that no float can hold.
    cfg = _write_config(tmp_path, {name: 10**400})
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {name}: must be a number within float range\n"
    assert captured.out == "" and not out.exists()


# At 1e-160, eps^4 underflows to 0 and bound_bq divides by zero; at 1e-100,
# bound_qg overflows to inf. local_sgd adds no noise, so the run completes.
@pytest.mark.parametrize("epsilon", [1e-160, 1e-100])
def test_cmd_run_bound_overflow_writes_no_bounds_file(tmp_path, capsys, epsilon):
    cfg = _write_config(tmp_path, {"algorithm": "local_sgd", "epsilon": epsilon})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bound error: a bound overflows at these inputs")
    assert err.endswith("cli-test_bounds.json not written\n") and err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == ["cli-test_summary.json",
                                                     "cli-test_trace.csv"]
    summary = json.loads((out / "cli-test_summary.json").read_text())
    assert summary["rounds_run"] == 4 and summary["stop_reason"] == "completed"


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


# sigma overflows float64 in privacy.noise_schedule; sigma = 2.77e300 is finite
# but above the codec's MAX_SIGMA. Both are rejected before any round runs.
@pytest.mark.parametrize("overrides, text", [
    ({"algorithm": "qg_sgd", "s2": 1e300, "epsilon": 1e-300},
     "computing sigma_k overflows float64"),
    ({"s2": 1e290, "epsilon": 1e-10}, "sigma 2.77043e+300 exceeds the codec's 2.59194e+294")],
    ids=["overflow", "above-max"])
def test_cmd_run_sigma_outside_the_codec_is_a_config_error(tmp_path, capsys, overrides, text):
    cfg = _write_config(tmp_path, {"K": 2, "d": 5, **overrides})
    out = tmp_path / "never"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("config error: epsilon: ") and text in captured.err
    assert captured.err.count("\n") == 1


def test_config_the_schedule_refuses_builds_no_data(tmp_path, capsys, monkeypatch):
    # Refused when made, before the shards (64 MB of them at this d) are built.
    monkeypatch.setattr(orchestrator, "synth_partition", lambda *a, **k: pytest.fail("built"))
    overflow = dict(MINIMAL, algorithm="qg_sgd", s2=1e300, epsilon=1e-300, K=2, N=10,
                    d=10**5)
    with pytest.raises(ConfigError, match="^epsilon: computing sigma_k overflows float64$"):
        ExperimentConfig.from_dict(overflow)
    out = tmp_path / "never"
    assert main(["run", "--config", _write_config(tmp_path, overflow), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "config error: epsilon: computing sigma_k overflows float64\n"
    assert not out.exists()


def test_config_is_checked_when_made_and_frozen():
    with pytest.raises(ConfigError, match="^epsilon: must be > 0$"):
        ExperimentConfig(epsilon=-1.0)
    cfg = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.epsilon = -1.0
    assert cfg.epsilon == 1.0


@pytest.mark.parametrize("algorithm", ["local_sgd", "gau_sgd", "dynamic_gau_lrq_sgd"])
def test_simulation_reads_the_schedule_the_config_checked(algorithm):
    cfg = ExperimentConfig.from_dict(dict(MINIMAL, algorithm=algorithm))
    sim = build_simulation(cfg)
    if algorithm == "local_sgd":
        assert cfg.schedule is None and not hasattr(sim, "_sigmas")
    else:
        assert sim._sigmas is cfg.schedule[0] and sim._eps_cum is cfg.schedule[1]


_WRITTEN = ["cli-test_bounds.json", "cli-test_summary.json", "cli-test_trace.csv"]
_NO_BOUNDS = _WRITTEN[1:]
_GLOBAL = "run error: global model norm exceeded ceiling 1e+06"
_LOCAL = "run error: local model norm exceeded ceiling 1e+06"
_FLOAT32 = "run error: an upload exceeds float32's range"
_MEDIAN = "run error: round 0's median clip bound inf is not finite"
_ZERO = ("bound error: a bound overflows at these inputs (float division by zero); "
         "<out>/cli-test_bounds.json not written")
# An OverflowError's message alone: its args lead with errno 34, and the text is glibc's strerror.
_RANGE = ("bound error: a bound overflows at these inputs (Numerical result out of range); "
          "<out>/cli-test_bounds.json not written")
_GAP = "bound error: F_gap must be a finite number, got nan; <out>/cli-test_bounds.json not written"
_ROUND0 = "diverged in round 0"

# `gaulrq run` at the edges of float64 and float32. A row: overrides to MINIMAL, the exit
# status, stderr's lines (one ending in "..." is a prefix), and then the files written with
# the summary's stop_reason, rounds_run and whether final_loss is finite, or None: no out-dir.
_EDGES = [
    # sigma ~ 4e160: round 0's decoded noise would put theta near 1e160, and round 1's loss
    # would overflow. The server step stops the run first; the bound report overflows too.
    pytest.param({"epsilon": 1e-160}, 1, [_GLOBAL, _ZERO], (_NO_BOUNDS, _ROUND0, 0, True),
                 id="tiny-epsilon"),
    # eta = 1e250 puts the local model near 1e251 after one step; the squares of an L2 norm
    # would overflow, so the local guard takes the inf-norm first.
    pytest.param({"eta": 1e250}, 1, [_LOCAL, _RANGE], (_NO_BOUNDS, _ROUND0, 0, True),
                 id="huge-step-default"),
    # Under a 1e300 ceiling the second step overflows to inf before the guard.
    pytest.param({"eta": 1e250, "divergence_ceiling": 1e300}, 1,
                 ["run error: local model norm exceeded ceiling 1e+300", _RANGE],
                 (_NO_BOUNDS, _ROUND0, 0, True), id="huge-step-1e300"),
    # With eta = 1e60 and s2 = 1e280, round 1 starts from a model whose loss overflows: it
    # reads inf, and the summary's final_loss is null.
    pytest.param({"K": 2, "d": 5, "epsilon": 1.0, "s2": 1e280, "eta": 1e60,
                  "divergence_ceiling": 1e300}, 1,
                 ["run error: local model norm exceeded ceiling 1e+300", _RANGE],
                 (_NO_BOUNDS, "diverged in round 1", 1, False), id="huge-step-loss-overflow"),
    # Targets near 1e200 square past float64 in the gradient-variance bound: its inf makes
    # F_gap NaN, which BoundInputs rejects. The run keeps its trace and summary.
    *(pytest.param({field: 1e200}, 1, [_LOCAL, _GAP], (_NO_BOUNDS, _ROUND0, 0, False),
                   id=f"variance-bound-{field}") for field in ("label_noise", "heterogeneity")),
    # 1.7e308 times a normal draw overflows the targets (or the shifted planted vectors):
    # Objective rejects the non-finite data before anything is written.
    *(pytest.param({field: 1.7e308}, 2, ["config error: dataset entries must be finite"], None,
                   id=f"data-past-float-max-{field}") for field in ("label_noise", "heterogeneity")),
    # Finite sigma where s2 * s2 and (N * epsilon)^2 used to overflow: its noise diverges the
    # model in round 0.
    pytest.param({"algorithm": "dynamic_gau_lrq_sgd", "K": 2, "d": 5, "s2": 1e200,
                  "epsilon": 1e10}, 1, [_GLOBAL, _RANGE], (_NO_BOUNDS, _ROUND0, 0, True),
                 id="finite-sigma-big-s2"),
    # Finite sigma where sum_i tau^{-i/2} (sigma_0 ~ 1.8e226 at K = 3000, tau = 0.5) used to
    # overflow: its noise diverges the model in round 0.
    pytest.param({"algorithm": "dynamic_gau_lrq_sgd", "K": 3000, "d": 5, "epsilon": 1.0,
                  "tau": 0.5}, 1, [_GLOBAL], (_WRITTEN, _ROUND0, 0, True),
                 id="finite-sigma-long-decay"),
    # sigma_k at S2 = 1 is 3.4e296 and round 0's median clip bound scales it to 7.5e295 >
    # MAX_SIGMA. Only the round knows the median, so the run stops there like a divergence.
    pytest.param({"K": 3, "d": 5, "epsilon": 1e-296, "clip_mode": "median_adaptive"}, 1,
                 ["run error: median-clipped sigma 7.45839e+295 exceeds the codec's "
                  f"MAX_SIGMA {MAX_SIGMA:.6g}", _ZERO], (_NO_BOUNDS, _ROUND0, 0, True),
                 id="median-sigma-above-max"),
    # sigma_k shrinks by tau^(1/2) a round: round 3's 1.99e-13 needs 41 bits for its range of
    # 0.76. The three completed rounds are kept, as for any round that stops the run.
    pytest.param({"algorithm": "dynamic_gau_lrq_sgd", "epsilon": 1e13, "tau": 0.001}, 1,
                 ["run error: round 3: range 0.764636 at sigma=1.99072e-13 needs 41 bits per "
                  f"element, above the {MAX_BITS}-bit cap"],
                 (_WRITTEN, "diverged in round 3", 3, True),
                 id="width-past-max-bits-in-round-3"),
    # gau_sgd's noise at that sigma ~ 4e160, and local_sgd's 1e30 step, leave float32's
    # range: the round stops before its uploads would be sent as inf.
    pytest.param({"algorithm": "gau_sgd", "epsilon": 1e-160}, 1, [_FLOAT32, _ZERO],
                 (_NO_BOUNDS, _ROUND0, 0, True), id="float32-upload-gau_sgd"),
    pytest.param({"algorithm": "local_sgd", "eta": 1e30, "divergence_ceiling": 1e300}, 1,
                 [_FLOAT32], (_WRITTEN, _ROUND0, 0, True), id="float32-upload-local_sgd"),
    # Targets near 1e160 put the ridge term of F(theta*) past float64: F is inf, F_gap NaN.
    pytest.param({"ridge": 1.0, "label_noise": 1e160}, 1, [_LOCAL, _GAP],
                 (_NO_BOUNDS, _ROUND0, 0, False), id="ridge-loss-overflow"),
    # Targets near 1e170: round 0's update norms square past float64, and their median is
    # inf. gau_sgd's clip rejected that s2 as a config error.
    *(pytest.param({"algorithm": algorithm, "clip_mode": "median_adaptive",
                    "label_noise": 1e170, "divergence_ceiling": 1e300}, 1, [_MEDIAN, _GAP],
                   (_NO_BOUNDS, _ROUND0, 0, False), id=f"median-bound-overflow-{algorithm}")
      for algorithm in ("gau_lrq_sgd", "gau_sgd")),
]


@pytest.mark.parametrize("overrides, status, stderr, written", _EDGES)
def test_cmd_run_numeric_edges(tmp_path, fresh, overrides, status, stderr, written):
    out = tmp_path / "out"
    proc = fresh("-m", "gaulrq.cli", "run", "--config", _write_config(tmp_path, overrides),
                 "--out-dir", str(out))
    assert proc.returncode == status
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    lines = proc.stderr.replace(str(out), "<out>").splitlines()
    assert len(lines) == len(stderr), lines
    for line, want in zip(lines, stderr):
        assert line.startswith(want[:-3]) if want.endswith("...") else line == want
    if written is None:
        assert not out.exists()
        return
    files, stop_reason, rounds_run, finite_loss = written
    assert sorted(p.name for p in out.iterdir()) == files
    summary = json.loads((out / "cli-test_summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert (summary["stop_reason"], summary["rounds_run"], summary["final_loss"] is not None) \
        == (stop_reason, rounds_run, finite_loss)
    assert (out / "cli-test_trace.csv").read_text().count("\n") == 1 + rounds_run


_MAGNITUDE = st.integers(-323, 308).map(lambda e: float(f"1e{e}"))
_UP_TO_ONE = st.integers(-323, 0).map(lambda e: float(f"1e{e}"))


@st.composite
def _configs(draw):
    """Small configs of every algorithm, clip mode and objective, their real-valued knobs
    10^e from float64's smallest subnormal to its top decade (delta and tau up to 1), but
    label_noise 0 on logistic data, which validate() rejects any other value for."""
    N, n = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    data = dict(
        algorithm=draw(st.sampled_from(["local_sgd", "gau_sgd", "qg_sgd", "gau_lrq_sgd",
                                        "dynamic_gau_lrq_sgd"])),
        clip_mode=draw(st.sampled_from(["fixed", "median_adaptive"])),
        objective=draw(st.sampled_from(["least_squares", "logistic"])), N=N,
        B=draw(st.integers(1, N)), Q=draw(st.integers(1, 3)), K=draw(st.integers(0, 5)),
        d=draw(st.integers(1, 8)), n_per_client=n, batch_size=draw(st.integers(0, n)),
        seed=draw(st.integers(0, 2**16)), delta=draw(_UP_TO_ONE), tau=draw(_UP_TO_ONE),
        **{name: draw(_MAGNITUDE) for name in ("eta", "epsilon", "s2", "divergence_ceiling")},
        **{name: draw(st.just(0.0) | _MAGNITUDE)
           for name in ("label_noise", "ridge", "heterogeneity")})
    if data["objective"] == "logistic":
        data["label_noise"] = 0.0
    return data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_configs())
@example(dict(MINIMAL, algorithm="gau_sgd", epsilon=1e-160))
@example(dict(MINIMAL, algorithm="local_sgd", eta=1e30, divergence_ceiling=1e300))
@example(dict(MINIMAL, ridge=1.0, label_noise=1e160))
@example(dict(MINIMAL, clip_mode="median_adaptive", label_noise=1e170, divergence_ceiling=1e300))
@example(dict(MINIMAL, algorithm="gau_sgd", clip_mode="median_adaptive", label_noise=1e170,
              divergence_ceiling=1e300))
@example(dict(MINIMAL, algorithm="gau_sgd", epsilon=3e-308))  # sigma * noise past float64
@example(dict(MINIMAL, algorithm="local_sgd", N=1, B=1, d=7, n_per_client=6, seed=65536,
              label_noise=1e307))  # the thin-side optimum X^T (G^-1 w y) past float64
def test_every_config_ends_in_a_typed_outcome(data):
    """cmd_run's steps in-process: a config error, a completed or diverged run, or a run
    error, then a bound report or a bound error. A RuntimeWarning anywhere is an error."""
    try:
        config = ExperimentConfig.from_dict(data)
        sim = build_simulation(config)
        sim.run()
    except (ConfigError, InvalidParameterError):
        return
    except DivergedError:
        sim.trace("diverged")
    try:
        _bound_report(config, sim)
    except InvalidParameterError:
        pass


@pytest.mark.parametrize("algorithm", ["gau_lrq_sgd", "qg_sgd"])
def test_cmd_run_tiny_clip_bound_runs(tmp_path, capsys, algorithm):
    # sigma = 2.77e-60: a float32 scale had a floor of 2^-149 and needed 49 bits.
    cfg = _write_config(tmp_path, {"algorithm": algorithm, "s2": 1e-60, "K": 2, "d": 5,
                                   "epsilon": 1.0})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == [
        "cli-test_bounds.json", "cli-test_summary.json", "cli-test_trace.csv"]
    summary = json.loads((out / "cli-test_summary.json").read_text())
    assert summary["rounds_run"] == 2 and summary["total_clamps"] == 0


def test_summary_json_is_strict(tmp_path):
    # local_sgd spends no budget: its epsilon is infinite in memory, null on disk.
    cfg = _write_config(tmp_path, {"algorithm": "local_sgd"})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "cli-test_summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["epsilon_spent"] is None and summary["rounds_run"] == 4


def test_cmd_run_wide_model_writes_bounds(tmp_path):
    # d=20000 with 8 samples: the d x d Gram alone would take 3.2 GB.
    cfg = _write_config(tmp_path, {"algorithm": "local_sgd", "d": 20000, "N": 2,
                                   "B": 1, "n_per_client": 4, "K": 1, "Q": 1,
                                   "eta": 1e-5})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    bounds = json.loads((tmp_path / "cli-test_bounds.json").read_text())
    assert bounds["inputs"]["d"] == 20000 and bounds["inputs"]["nu"] > 0


def test_cmd_run_deterministic(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["run", "--config", cfg, "--out-dir", str(out1)])
    main(["run", "--config", cfg, "--out-dir", str(out2)])
    assert (out1 / "cli-test_trace.csv").read_bytes() == \
        (out2 / "cli-test_trace.csv").read_bytes()


def test_cmd_run_overrides(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "o3"
    assert main(["run", "--config", cfg, "--algo", "local_sgd",
                 "--seed", "99", "--out-dir", str(out)]) == 0
    summary = json.loads((out / "cli-test_summary.json").read_text())
    assert summary["algorithm"] == "local_sgd"


@pytest.mark.parametrize("flag, first, second", [("--seed", "1", "2"),
                                                 ("--algo", "gau_lrq_sgd", "qg_sgd")])
def test_cmd_run_refuses_an_out_dir_of_another_run(tmp_path, capsys, flag, first, second):
    # Both runs have the stem "cli-test": the second would replace the first's files.
    cfg, out = _write_config(tmp_path), tmp_path / "shared"
    assert main(["run", "--config", cfg, flag, first, "--out-dir", str(out)]) == 0
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(written) == 3
    capsys.readouterr()
    assert main(["run", "--config", cfg, flag, second, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"config error: out-dir: {out / 'cli-test_summary.json'} records another run; "
        "use another --out-dir\n")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == written


def test_cmd_run_same_config_rewrites_its_files(tmp_path):
    cfg, out = _write_config(tmp_path), tmp_path / "again"
    for _ in range(2):
        assert main(["run", "--config", cfg, "--seed", "1", "--out-dir", str(out)]) == 0
    summary = json.loads((out / "cli-test_summary.json").read_text())
    assert summary["config"] == dict(MINIMAL, seed=1, **{
        f.name: f.default for f in dataclasses.fields(ExperimentConfig) if f.name not in MINIMAL})
    assert summary["slab"] == training._SLAB


@pytest.mark.parametrize("text", ["{", "[]", '{"config": {}}', ""],
                         ids=["truncated", "not-an-object", "no-record", "empty"])
def test_cmd_run_refuses_a_summary_that_records_no_run(tmp_path, capsys, text):
    cfg, out = _write_config(tmp_path), tmp_path / "other"
    out.mkdir()
    (out / "cli-test_summary.json").write_text(text)
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    assert "records another run" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["cli-test_summary.json"]


def test_cmd_run_run_id_at_the_name_limit_runs(tmp_path):
    cfg = _write_config(tmp_path, {"run_id": "x" * 242})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / ("x" * 242 + "_summary.json")).exists()


def test_cmd_run_out_dir_that_is_a_file_is_one_error_line(tmp_path, capsys, monkeypatch):
    # Rejected before the build, so no run is made only to be lost.
    cfg = _write_config(tmp_path)
    out = tmp_path / "taken"
    out.write_text("")
    monkeypatch.setattr(cli, "build_simulation", lambda config: pytest.fail("built"))
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: out-dir: {out} is not a directory\n"
    assert out.read_text() == ""


def test_cmd_run_out_dir_under_a_file_is_one_error_line(tmp_path, capsys, monkeypatch):
    # The nearest ancestor that exists is a file: the directory could never be made.
    cfg = _write_config(tmp_path)
    (tmp_path / "taken").write_text("")
    monkeypatch.setattr(cli, "build_simulation", lambda config: pytest.fail("built"))
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "taken" / "out")]) == 2
    assert capsys.readouterr().err == \
        f"config error: out-dir: {tmp_path / 'taken'} is not a directory\n"
    assert (tmp_path / "taken").read_text() == ""


def test_cmd_run_unwritable_out_dir_is_one_error_line(tmp_path, capsys, monkeypatch):
    # A directory the check passes but the write cannot make, which shows only after the run.
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"

    def refuse(path, exist_ok=False):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(cli.os, "makedirs", refuse)
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: Permission denied\n"
    assert captured.out == "" and not out.exists()


_NO_MEMORY = "Unable to allocate 8.00 GiB for an array with shape (1073741824,) and data type float64"


def _run_out_of_memory(tmp_path, monkeypatch, target, name, after=0):
    """cmd_run on MINIMAL with ``target.name`` raising MemoryError from its call after + 1 on:
    the exit status and the out-dir."""
    calls, fn = [], getattr(target, name)

    def short(*args, **kwargs):
        calls.append(None)
        if len(calls) > after:
            raise MemoryError(_NO_MEMORY)
        return fn(*args, **kwargs)

    monkeypatch.setattr(target, name, short)
    out = tmp_path / "out"
    status = main(["run", "--config", _write_config(tmp_path), "--out-dir", str(out)])
    return status, out


def test_cmd_run_out_of_memory_in_a_round_keeps_the_completed_rounds(tmp_path, capsys,
                                                                      monkeypatch):
    status, out = _run_out_of_memory(tmp_path, monkeypatch, orchestrator,
                                     "stacked_local_rounds", after=2)
    assert status == 1
    assert capsys.readouterr().err == f"run error: round 2: out of memory ({_NO_MEMORY})\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "cli-test_bounds.json", "cli-test_summary.json", "cli-test_trace.csv"]
    summary = json.loads((out / "cli-test_summary.json").read_text())
    assert summary["stop_reason"] == "out of memory in round 2" and summary["rounds_run"] == 2
    assert len((out / "cli-test_trace.csv").read_text().splitlines()) == 3


def test_cmd_run_out_of_memory_in_the_bound_report(tmp_path, capsys, monkeypatch):
    status, out = _run_out_of_memory(tmp_path, monkeypatch, training.Objective, "spec")
    assert status == 1
    assert capsys.readouterr().err == (f"bound error: out of memory ({_NO_MEMORY}); "
                                       f"{out / 'cli-test_bounds.json'} not written\n")
    assert sorted(p.name for p in out.iterdir()) == ["cli-test_summary.json",
                                                     "cli-test_trace.csv"]
    summary = json.loads((out / "cli-test_summary.json").read_text())
    assert summary["stop_reason"] == "completed" and summary["rounds_run"] == 4


def test_cmd_run_out_of_memory_in_the_build(tmp_path, capsys, monkeypatch):
    status, out = _run_out_of_memory(tmp_path, monkeypatch, cli, "build_simulation")
    assert status == 2 and not out.exists()
    assert capsys.readouterr().err == f"config error: out of memory ({_NO_MEMORY})\n"


def test_out_dir_env_default(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path)
    target = tmp_path / "envout"
    monkeypatch.setenv("GAULRQ_OUT_DIR", str(target))
    assert main(["run", "--config", cfg]) == 0
    assert (target / "cli-test_trace.csv").exists()


# -- verify-noise -----------------------------------------------------------

def test_verify_noise_passes(capsys):
    assert main(["verify-noise", "--sigma", "1.0", "--n", "200000"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "FAIL" not in out


@pytest.mark.parametrize("seed", range(5))
def test_verify_noise_passes_at_small_n(capsys, seed):
    # var/sigma^2 spreads as sqrt(2/n) = 0.045 here, so its tolerance scales with n.
    assert main(["verify-noise", "--sigma", "1.0", "--n", "1000",
                 "--seed", str(seed)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_noise_bad_sigma(capsys):
    assert main(["verify-noise", "--sigma", "0"]) == 2


@pytest.mark.parametrize("sigma", ["nan", "inf", "1e-300"])
def test_verify_noise_sigma_outside_codec_domain(capsys, sigma):
    # 1e-300 would need more than 40 bits for the test value.
    assert main(["verify-noise", "--sigma", sigma]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_noise_sigma_above_ceiling(capsys):
    # At 1e308 the layer overflows: the parent printed "PASS ks: D=nan".
    assert main(["verify-noise", "--sigma", "1e308", "--n", "200"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: sigma") and err.count("\n") == 1


def test_verify_noise_at_sigma_ceiling(capsys):
    assert main(["verify-noise", "--sigma", repr(MAX_SIGMA), "--n", "1000"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "nan" not in out and "inf" not in out


def test_verify_noise_too_few(capsys):
    assert main(["verify-noise", "--sigma", "1", "--n", "10"]) == 2


def test_verify_noise_too_many(capsys):
    # 10^11 draws would take 745 GiB; the cap's 10^7 peak at 0.84 GiB (tracemalloc).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify-noise", "--sigma", "1", "--n", str(10**11)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: need 100 to {10**7} draws, got {10**11}\n"


# -- compare-bounds ---------------------------------------------------------

def test_compare_bounds_default(capsys):
    assert main(["compare-bounds"]) == 0
    out = capsys.readouterr().out
    assert "gau_lrq_sgd" in out and "ordering:" in out


def test_compare_bounds_tau_one_dynamic_equals_fixed(tmp_path, capsys):
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps({"tau": 1.0}))
    assert main(["compare-bounds", "--inputs", str(path)]) == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] != "ordering:" and parts[0] != "step_size_ok:":
            values[parts[0]] = float(parts[1])
    assert values["dynamic_gau_lrq_sgd"] == values["gau_lrq_sgd"]
    assert values["gau_lrq_sgd"] <= values["qg_sgd"]


def test_compare_bounds_unknown_key(tmp_path, capsys):
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps({"bogus": 1}))
    assert main(["compare-bounds", "--inputs", str(path)]) == 2


def _compare_bounds(path):
    """(exit status, stdout, stderr) of compare-bounds on one inputs file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["compare-bounds", "--inputs", str(path)])
    return status, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("text, message", [
    (None, "inputs: cannot read"),
    ("{not json", "inputs: invalid JSON"),
    ("[1, 2]", "inputs: top level must be a JSON object"),
    ('{"eta": "x"}', "eta must be a finite number, got 'x'"),
    ('{"F_gap": NaN}', "F_gap must be a finite number, got nan"),
    ('{"epsilon": Infinity}', "epsilon must be a finite number, got inf"),
    ('{"K": 1.5}', "K must be an integer, got 1.5"),
    ('{"eta": 1e-300}', "a bound overflows at these inputs"),
    pytest.param('{"K": 1%s}' % ("0" * 400),
                 "a bound overflows at these inputs (int too large to convert to float)",
                 id="K-10**400"),
])
def test_compare_bounds_rejects_bad_inputs(tmp_path, text, message):
    path = tmp_path / "inputs.json"
    if text is not None:
        path.write_text(text)
    status, out, err = _compare_bounds(path)
    assert status == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_compare_bounds_small_tau_large_k(tmp_path):
    # sum_k tau^{-k} overflows from K=1025 on at tau=0.5; the renormalized
    # weights do not, and the gap term underflows to 0.
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps({"tau": 0.5, "K": 5000}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status, out, err = _compare_bounds(path)
    assert status == 0 and err == ""
    values = [float(line.split()[1]) for line in out.splitlines()[:5]]
    assert len(values) == 5 and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("K", [10**7, 10**9, 100000000000])
def test_compare_bounds_at_large_k(tmp_path, K):
    # Every sum over rounds is a closed form, so the report (cli._bound_values)
    # takes microseconds at any K; only a run's memory budget bounds K, for its records.
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps({"K": K}))
    start = time.perf_counter()
    status, out, err = _compare_bounds(path)
    assert time.perf_counter() - start < 0.1
    assert status == 0 and err == ""
    values = [float(line.split()[1]) for line in out.splitlines()[:5]]
    assert len(values) == 5 and all(math.isfinite(v) for v in values)


_BOUND_FIELDS = [f.name for f in dataclasses.fields(BoundInputs)]
# Well-typed objects, with values from tiny to huge so that some inputs
# overflow a bound, and objects of any JSON values.
_WELL_TYPED = st.fixed_dictionaries({}, optional={
    name: st.integers(1, 10**8) if name in ("Q", "K", "B", "N", "d")
    else st.floats(1e-300, 1e300) | st.floats(0.0, 1.0) for name in _BOUND_FIELDS})
_ANY_JSON = st.dictionaries(st.sampled_from(_BOUND_FIELDS), st.one_of(
    st.integers(), st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.none()))


@settings(max_examples=150, deadline=None)
@given(_WELL_TYPED | _ANY_JSON)
def test_compare_bounds_finite_or_exit_2(tmp_path_factory, data):
    """Any object over the bound fields prints five finite bounds or exits 2."""
    path = tmp_path_factory.getbasetemp() / "hypothesis_bound_inputs.json"
    path.write_text(json.dumps(data))
    status, out, err = _compare_bounds(path)
    if status == 0:
        values = [float(line.split()[1]) for line in out.splitlines()[:5]]
        assert len(values) == 5 and all(math.isfinite(v) for v in values)
        assert err == ""
    else:
        assert status == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# -- quantizer-demo ---------------------------------------------------------

def test_quantizer_demo(capsys):
    assert main(["quantizer-demo", "--sigma", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "minimum step" in out


def test_quantizer_demo_bad_sigma(capsys):
    assert main(["quantizer-demo", "--sigma", "-1"]) == 2


@pytest.mark.parametrize("sigma", ["nan", "inf", "1e-300"])
def test_quantizer_demo_sigma_outside_codec_domain(capsys, sigma):
    assert main(["quantizer-demo", "--sigma", sigma]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_quantizer_demo_sigma_above_ceiling(capsys):
    # At 1e308 the parent printed index -2^63, decoded nan/-inf and step inf.
    assert main(["quantizer-demo", "--sigma", "1e308"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: sigma") and err.count("\n") == 1


def test_quantizer_demo_at_sigma_ceiling(capsys):
    assert main(["quantizer-demo", "--sigma", repr(MAX_SIGMA)]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 8
    for row in rows:
        value, index, decoded, error, step = (float(x) for x in row.split())
        assert all(math.isfinite(x) for x in (decoded, error, step))
        assert abs(index) < 2**MAX_BITS


def test_quantizer_demo_prints_the_width_the_codec_sends(capsys):
    # max|v| needs 4 bits here; its float32 round-up, once the wire scale, needed 5.
    sigma = 0.07383438039125718
    assert main(["quantizer-demo", "--seed", "0", "--sigma", repr(sigma)]) == 0
    out = capsys.readouterr().out
    v = np.random.default_rng(0).standard_normal(8)
    uniforms = uniform_pair_block(SeedMaterial(0, "demo"), 0, 0,
                                  np.arange(8, dtype=np.uint64), 0)
    sent = lrq_quantize_vector(v, sigma, uniforms).bits_per_element
    assert sent == 4 and f"bit width for this vector = {sent}\n" in out
