import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaulrq.analysis import BoundInputs
from gaulrq.cli import main
from gaulrq.config import ExperimentConfig, load_config
from gaulrq.errors import ConfigError
from gaulrq.quantizers import MAX_BITS, lrq_quantize_vector
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


def test_cmd_run_parameter_errors_exit_status(tmp_path, capsys):
    # K=0 passes validation but leaves no rounds to spread the budget over;
    # epsilon=1e30 makes sigma so small that indices would need > MAX_BITS bits.
    for overrides, text in (({"K": 0}, "K, B, N must be positive"),
                            ({"epsilon": 1e30}, f"{MAX_BITS}-bit cap")):
        cfg = _write_config(tmp_path, overrides)
        out = tmp_path / "never"
        assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and text in err
        assert not out.exists()


@pytest.mark.parametrize("field, value", [("N", "ten"), ("eta", "fast"), ("seed", None)])
def test_cmd_run_mistyped_value_exit_status(tmp_path, capsys, field, value):
    cfg = _write_config(tmp_path, {field: value})
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("run_id", ["../../x", "<tmp>/abs", "a/b", "a\\b", ".."])
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


def test_verify_noise_too_few(capsys):
    assert main(["verify-noise", "--sigma", "1", "--n", "10"]) == 2


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
    ('{"K": 100000000000}', "K must be <= 10000000"),
    ('{"eta": 1e-300}', "a bound overflows at these inputs"),
])
def test_compare_bounds_rejects_bad_inputs(tmp_path, text, message):
    path = tmp_path / "inputs.json"
    if text is not None:
        path.write_text(text)
    status, out, err = _compare_bounds(path)
    assert status == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


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


def test_quantizer_demo_prints_the_width_the_codec_sends(capsys):
    # max|v| needs 4 bits here, but its float32 wire scale, rounded up, needs 5.
    sigma = 0.07383438039125718
    assert main(["quantizer-demo", "--seed", "0", "--sigma", repr(sigma)]) == 0
    out = capsys.readouterr().out
    v = np.random.default_rng(0).standard_normal(8)
    uniforms = uniform_pair_block(SeedMaterial(0, "demo"), 0, 0,
                                  np.arange(8, dtype=np.uint64), 0)
    sent = lrq_quantize_vector(v, sigma, uniforms).bits_per_element
    assert sent == 5 and f"bit width for this vector = {sent}\n" in out
