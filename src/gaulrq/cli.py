"""Command-line entry points: run experiments, verify noise laws, compare bounds."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .analysis import BoundInputs, bound_bq, bound_dynamic, bound_gau_lrq, \
    bound_lsgd, bound_qg, ks_statistic
from .config import ExperimentConfig, build_simulation, load_json_object
from .errors import ConfigError, DivergedError, InvalidParameterError
from .orchestrator import run_record
from .quantizers import MIN_STEP_FACTOR, bit_width, lrq_decode, lrq_encode, sample_layer
from .streams import SeedMaterial, element_pairs

OUT_DIR_ENV = "GAULRQ_OUT_DIR"
MAX_NOISE_DRAWS = 10**7  # verify-noise's arrays stay under 1 GiB


# Each closed-form bound: the algorithm it covers and its evaluator.
_BOUNDS = (("local_sgd", bound_lsgd), ("gau_lrq_sgd", bound_gau_lrq),
           ("dynamic_gau_lrq_sgd", bound_dynamic), ("qg_sgd", bound_qg),
           ("bq_sgd", bound_bq))


def _bound_values(inp: BoundInputs) -> dict:
    """step_size_ok and every bound at ``inp``, the bounds keyed by evaluator
    name; InvalidParameterError where a bound overflows or divides by zero."""
    try:
        with np.errstate(all="ignore"):  # an overflow fails the finiteness check below
            values = {f.__name__: f(inp) for _, f in _BOUNDS}
            step_size_ok = inp.step_size_ok()
    except ArithmeticError as exc:  # its message: an OverflowError's args lead with errno
        raise InvalidParameterError(f"a bound overflows at these inputs ({exc.args[-1]})") from None
    if not all(np.isfinite(value) for value in values.values()):
        raise InvalidParameterError("a bound overflows at these inputs")
    return dict(values, step_size_ok=step_size_ok)


def _bound_report(config: ExperimentConfig, sim) -> dict:
    """Evaluate every closed-form bound at this run's measured constants."""
    spec = sim.objective.spec(sim.theta0)
    inf_norms = [n for r in sim.records for n in r.inf_norms if n > 0]
    rep_inf = float(np.median(inf_norms)) if inf_norms else 1.0
    inp = BoundInputs(F_gap=max(spec.optimum_gap, 1e-12), eta=config.eta,
                      Q=config.Q, K=max(config.K, 1), B=config.B, N=config.N,
                      d=config.d, alpha2=spec.grad_variance,
                      nu=spec.smoothness, S2=config.s2,
                      epsilon=config.epsilon, delta=config.delta,
                      tau=config.tau, delta_inf_norm=rep_inf)
    return dict(_bound_values(inp), inputs=dataclasses.asdict(inp))


def _reason(exc: Exception) -> str:
    """The error's message; numpy's MemoryError names only the array it could not allocate."""
    oom = isinstance(exc, MemoryError)
    return f"out of memory ({str(exc) or 'no detail'})" if oom else str(exc)


def cmd_run(args) -> int:
    sim = None
    try:
        flags = {k: v for k, v in (("seed", args.seed), ("algorithm", args.algo)) if v is not None}
        config = ExperimentConfig.from_dict({**load_json_object(args.config, "config"), **flags})
        out = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
        _check_out_dir(out, config)
        sim = build_simulation(config)
        trace = sim.run()
    except (ConfigError, InvalidParameterError) as exc:
        for line in getattr(exc, "errors", None) or [str(exc)]:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # past the build, keep the rounds that completed before it
        if sim is None:
            print(f"config error: {_reason(exc)}", file=sys.stderr)
            return 2
        print(f"run error: round {sim.round}: {_reason(exc)}", file=sys.stderr)
        trace = sim.trace(f"out of memory in round {sim.round}")
    except DivergedError as exc:  # keep the rounds that completed before it
        print(f"run error: {exc}", file=sys.stderr)
        trace = sim.trace(f"diverged in round {sim.round}")
    try:  # made only now, so a config error leaves no directory
        os.makedirs(out, exist_ok=True)
        return _write_artifacts(out, config, sim, trace)
    except OSError as exc:
        print(f"error: cannot write {exc.filename or out}: {exc.strerror}", file=sys.stderr)
        return 2


def _artifact(out: str, config: ExperimentConfig, kind: str) -> str:
    return os.path.join(out, f"{config.run_id or config.algorithm}_{kind}")


def _check_out_dir(out: str, config: ExperimentConfig):
    """ConfigError if ``out`` is not a directory, or holds this stem's summary of another run
    (or an unreadable one)."""
    if os.path.lexists(out) and not os.path.isdir(out):
        raise ConfigError(f"out-dir: {out} is not a directory")
    path = _artifact(out, config, "summary.json")
    if os.path.lexists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                same = run_record(config).items() <= json.load(fh).items()
        except (OSError, ValueError, AttributeError):  # unreadable, or not a JSON object
            same = False
        if not same:
            raise ConfigError(f"out-dir: {path} records another run; use another --out-dir")


def _write_artifacts(out: str, config: ExperimentConfig, sim, trace) -> int:
    csv_path, summary_path, bounds_path = (_artifact(out, config, kind) for kind in
                                           ("trace.csv", "summary.json", "bounds.json"))
    trace.to_csv(csv_path, config.algorithm)
    print(f"wrote {csv_path}")
    trace.to_summary_json(summary_path)
    print(f"wrote {summary_path}")
    try:  # built before the file opens, so a failed report leaves no partial file
        report = _bound_report(config, sim)
    except (InvalidParameterError, MemoryError) as exc:
        print(f"bound error: {_reason(exc)}; {bounds_path} not written", file=sys.stderr)
        return 1
    with open(bounds_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {bounds_path}")
    return 0 if trace.summary["stop_reason"] == "completed" else 1


def noise_checks(sigma: float, n: int, seed: int, value: float = 0.25):
    """Monte-Carlo checks of the codec error law at a fixed input value.

    Returns a list of (name, passed, detail) triples: the error over fresh
    quantizer draws should be centered, have variance sigma^2, and pass a
    KS test against N(0, sigma^2) at significance 0.01.
    """
    from scipy.special import erfc  # here, its only caller: scipy.special takes ~0.1 s to load
    bit_width(value, sigma)  # raises outside the codec's sigma domain
    if not 100 <= n <= MAX_NOISE_DRAWS:
        raise InvalidParameterError(f"need 100 to {MAX_NOISE_DRAWS} draws, got {n}")
    layer = sample_layer(sigma, element_pairs(SeedMaterial(seed, "verify-noise"), 0, 0, n))
    err = lrq_decode(lrq_encode(value, layer), layer) - value
    mean = float(np.mean(err))
    ratio = float(np.var(err / sigma))
    stat, reject = ks_statistic(
        err, lambda t: 0.5 * erfc(-t / (sigma * np.sqrt(2.0))))
    return [
        ("mean", abs(mean) <= 5.0 * sigma / np.sqrt(n),
         f"{mean:.3e} (tol {5.0 * sigma / np.sqrt(n):.3e})"),
        # var/sigma^2 has sampling spread sqrt(2/n): the same 5-standard-error rule.
        ("variance", abs(ratio - 1.0) <= 5.0 * np.sqrt(2.0 / n),
         f"var/sigma^2 = {ratio:.6f} (tol {5.0 * np.sqrt(2.0 / n):.3e})"),
        ("ks", not reject, f"D={stat:.5f} crit={1.63 / np.sqrt(n):.5f}"),
    ]


def cmd_verify_noise(args) -> int:
    checks = noise_checks(args.sigma, args.n, args.seed or 0)
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return 0 if all(passed for _, passed, _ in checks) else 1


def cmd_compare_bounds(args) -> int:
    defaults = dict(F_gap=1.0, eta=0.05, Q=5, K=50, B=10, N=100, d=20,
                    alpha2=1.0, nu=2.0, S2=1.0, epsilon=2.0, delta=1e-5,
                    tau=0.9, delta_inf_norm=0.5)
    data = load_json_object(args.inputs, "inputs") if args.inputs else {}
    unknown = sorted(set(data) - set(defaults))
    if unknown:
        raise InvalidParameterError(f"unknown bound inputs {unknown}")
    inp = BoundInputs(**dict(defaults, **data))
    values = _bound_values(inp)
    rows = [(name, values[f.__name__]) for name, f in _BOUNDS]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value:.6e}")
    order = " <= ".join(name for name, _ in sorted(rows, key=lambda r: r[1]))
    print(f"ordering: {order}")
    print(f"step_size_ok: {values['step_size_ok']}")
    return 0


def cmd_quantizer_demo(args) -> int:
    sigma = args.sigma
    uniforms = element_pairs(SeedMaterial(args.seed or 0, "demo"), 0, 0, 8)
    rng = np.random.default_rng(args.seed or 0)
    v = rng.standard_normal(8)
    # The width the codec sends; it raises before an encode outside the codec's domain.
    b = bit_width(np.max(np.abs(v)), sigma)
    layer = sample_layer(sigma, uniforms)
    m = lrq_encode(v, layer)
    v_hat = lrq_decode(m, layer)
    print(f"sigma = {sigma}, minimum step = {MIN_STEP_FACTOR * sigma:.6f}, "
          f"bit width for this vector = {b}")
    print(f"{'value':>10} {'index':>6} {'decoded':>10} {'error':>10} {'step':>8}")
    for j in range(8):
        print(f"{v[j]:>10.4f} {int(m[j]):>6} {v_hat[j]:>10.4f} "
              f"{v_hat[j] - v[j]:>10.4f} {layer.q_step[j]:>8.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaulrq",
        description="Layered randomized quantization for private local SGD")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--seed", type=int, default=None, help="override seed")
    p_run.add_argument("--algo", default=None, help="override algorithm")
    p_run.add_argument("--out-dir", default=None,
                       help=f"output directory (default ${OUT_DIR_ENV} or .)")
    p_run.set_defaults(func=cmd_run)

    p_noise = sub.add_parser("verify-noise",
                             help="Monte-Carlo check of the codec error law")
    p_noise.add_argument("--sigma", type=float, required=True)
    p_noise.add_argument("--n", type=int, default=10**6)
    p_noise.add_argument("--seed", type=int, default=0)
    p_noise.set_defaults(func=cmd_verify_noise)

    p_cmp = sub.add_parser("compare-bounds",
                           help="evaluate the closed-form bounds on one input set")
    p_cmp.add_argument("--inputs", default=None,
                       help="JSON file of bound inputs (defaults filled in)")
    p_cmp.set_defaults(func=cmd_compare_bounds)

    p_demo = sub.add_parser("quantizer-demo",
                            help="encode/decode a small vector and show the layers")
    p_demo.add_argument("--sigma", type=float, default=0.5)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=cmd_quantizer_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidParameterError) as exc:  # bad input: one line, status 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
