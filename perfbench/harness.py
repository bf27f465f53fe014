"""Passes over a workload, the set-up probes, and the timed and traced runs.

A pass is a closed loop from one process: each experiment is built, run,
written out (trace CSV, summary JSON) and given its bound report, as
`gaulrq run` does, and the next starts when it ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import gaulrq
import checks
import workloads
from report import bound_report
from spans import COUNT_METRICS, TIME_METRICS, Tracer

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "rounds_per_s": "rounds/s",
                    "uplink_bits": "bit", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {**{m: "s" for m in TIME_METRICS},
                   **{m: "count" for m in COUNT_METRICS},
                   "orchestrator.wire_bytes": "byte", "trace.overhead_s": "s"}


@dataclass
class Outcome:
    experiment: workloads.Experiment
    trace: object          # gaulrq.RunTrace
    seconds: float         # build to bound report
    run_s: float           # Simulation.run alone
    csv: Path
    nu: float              # smoothness, from the benchmark's own Gram
    loss_start: float      # benchmark's own loss at theta0 and at the final theta
    loss_end: float
    span: tuple            # perf_counter at the experiment's start and end


@dataclass
class Pass:
    outcomes: list
    failed: int

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)


class Pace:
    """The machine's speed next to each timed experiment, from a fixed
    reference kernel timed just before and just after it.

    On the shared 2-vCPU VM the benchmark was sized on, everything it times
    runs up to ~2x slower in phases that last from seconds to minutes, longer
    than a run. Each
    experiment's time is therefore taken relative to the kernel's time around
    it, and given at the speed at which the kernel takes REFERENCE_S. The
    kernel mixes the kinds of work the workloads do: interpreted Python,
    big-int shifts, numpy operations on small arrays it owns, and numpy
    operations that allocate fresh 320 KB arrays, as the training layer's
    shard copies and per-sample gradients do. It calls no package code, so a
    change to the program cannot move it."""

    # About the kernel's time on the reference machine when it is not slowed
    # (see README.md). A fixed constant: it sets the unit, not the comparison.
    REFERENCE_S = 0.040

    def __init__(self):
        self.samples = []      # (perf_counter at the end, seconds)
        rng = np.random.default_rng(0)
        self._word = (1 << 300_000) - 1
        self._a = rng.standard_normal((400, 100))
        self._x = rng.standard_normal(100)
        self._ax = np.empty(400)
        self._prod = np.empty((400, 100))
        self._rows = np.arange(400)

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i
        for j in range(1500):
            total += (self._word >> j) & 7
        for _ in range(100):
            np.matmul(self._a, self._x, out=self._ax)
            np.multiply(self._a, self._ax[:, None], out=self._prod)
            total += float(self._prod.sum())
        for _ in range(20):
            shard = self._a[self._rows]
            total += float((shard * (shard @ self._x)[:, None]).sum())
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def at_reference(self, seconds: float, span: tuple) -> float:
        """`seconds`, measured over `span`, at the reference speed: divided by
        the mean of the kernel samples just before and just after the span."""
        t0, t1 = span
        before = [s for e, s in self.samples if e <= t0][-1]
        after = next(s for e, s in self.samples if e >= t1)
        return seconds * self.REFERENCE_S / ((before + after) / 2.0)


def _no_region(name):
    return contextlib.nullcontext()


def run_experiment(exp, out_dir: Path, tracer=None):
    region = tracer.region if tracer is not None else _no_region
    with region("bench.experiment"):
        start = time.perf_counter()
        cfg = gaulrq.ExperimentConfig.from_dict(exp.config)
        sim = gaulrq.build_simulation(cfg)
        run_start = time.perf_counter()
        trace = sim.run()
        run_s = time.perf_counter() - run_start
        csv = out_dir / f"{exp.stem}_trace.csv"
        trace.to_csv(csv, cfg.algorithm)
        trace.to_summary_json(out_dir / f"{exp.stem}_summary.json")
        with region("analysis.report"):
            bounds = bound_report(cfg, sim)
        with open(out_dir / f"{exp.stem}_bounds.json", "w", encoding="utf-8") as fh:
            json.dump(bounds, fh, indent=2, sort_keys=True)
            fh.write("\n")
        seconds = time.perf_counter() - start
    return sim, trace, seconds, run_s, csv


class Observer:
    """Collects, outside the timed region, what the checks need from a simulation."""

    def __init__(self):
        self._nu = {}

    def __call__(self, exp, sim):
        c = exp.config
        data = sim.objective.datasets
        # A workload's experiments differ only in algorithm and clipping, so
        # the data, and hence nu, depend on the seed alone.
        if c["seed"] not in self._nu:
            self._nu[c["seed"]] = checks.smoothness(data, c["objective"])
        return (self._nu[c["seed"]],
                checks.data_loss(data, c["objective"], sim.theta0),
                checks.data_loss(data, c["objective"], sim.theta))


def run_pass(experiments, out_dir: Path, observe: Observer, tracer=None,
             pace: Pace | None = None) -> Pass:
    out_dir.mkdir(parents=True)
    outcomes, failed = [], 0
    for exp in experiments:
        if pace is not None:
            pace.sample()
        t0 = time.perf_counter()
        try:
            sim, trace, seconds, run_s, csv = run_experiment(exp, out_dir, tracer)
        except Exception:  # one failed experiment is counted; the pass goes on
            traceback.print_exc()
            failed += 1
            continue
        span = (t0, time.perf_counter())
        outcomes.append(Outcome(exp, trace, seconds, run_s, csv, *observe(exp, sim), span))
    if pace is not None:
        pace.sample()
    return Pass(outcomes, failed)


def probe_setup(workload_name: str, seed: int, src: Path) -> float:
    """Seconds for `import gaulrq` plus every build of the workload, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--src", str(src),
         "--workload", workload_name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- checks ------------------------------------------------------------------

def replay_fails(first: Pass, again: dict) -> list[str]:
    """The same config run twice must give byte-identical trace CSVs."""
    return [f"{o.experiment.stem}: replayed trace CSV differs"
            for o in first.outcomes
            if o.experiment.stem in again
            and o.csv.read_bytes() != again[o.experiment.stem].read_bytes()]


def _csvs(p: Pass) -> dict:
    return {o.experiment.stem: o.csv for o in p.outcomes}


def codec_roundtrip_fails(workload) -> list[str]:
    """One real clipped update through the codec and wire; its errors must be N(0, sigma^2)."""
    exp = next(e for e in workload.experiments if e.config["algorithm"] == "gau_lrq_sgd")
    cfg = gaulrq.ExperimentConfig.from_dict(exp.config)
    sim = gaulrq.build_simulation(cfg)
    cid, k = 0, 0
    model = gaulrq.ModelState(theta=sim.theta, round=k, objective=sim.objective)
    data = sim.objective.datasets[cid]
    batch = cfg.batch_size or cfg.n_per_client
    update = gaulrq.local_rounds(model, data, cfg.Q, cfg.eta, batch,
                                 gaulrq.DrawStream(sim.seed.lane("batch"), cid, k))
    clipped = gaulrq.clip_update(update, cfg.s2)
    sigma = checks.sigma_schedule(exp.config)[0][k]
    lane = sim.seed.lane("quant")
    enc = gaulrq.lrq_quantize_vector(clipped, sigma, gaulrq.element_pairs(lane, cid, k, cfg.d))
    msg = gaulrq.WireMessage(cid, k, cfg.d, enc.bits_per_element,
                             gaulrq.AlgorithmKind.GAU_LRQ_SGD,
                             gaulrq.pack_indices(enc.indices, enc.bits_per_element),
                             scale=enc.scale)
    got = gaulrq.parse_message(gaulrq.serialize_message(msg))
    idx = gaulrq.unpack_indices(got.payload, got.dim, got.bits_per_element, signed=False)
    fails = []
    if enc.clamp_count:
        fails.append(f"codec round trip: {enc.clamp_count} clamped indices")
    if not np.array_equal(idx, enc.indices) or got.scale != enc.scale:
        fails.append("codec round trip: indices or scale changed on the wire")
    decoded = gaulrq.lrq_reconstruct_vector(
        gaulrq.EncodedVector(indices=idx, dim=got.dim, bits_per_element=got.bits_per_element,
                             scale=got.scale),
        sigma, gaulrq.element_pairs(lane, got.client_id, got.round, got.dim))
    return fails + [f"codec round trip: {f}"
                    for f in checks.check_gaussian_errors(decoded - clipped, sigma)]


def workload_fails(workload, passes: list[Pass], checked: Pass) -> list[str]:
    """`checked` holds the check-only experiments, run once."""
    fails = []
    for p in (*passes, checked):
        for o in p.outcomes:
            fails += [f"{o.experiment.stem}: {f}"
                      for f in checks.check_experiment(o.experiment.config, o.trace, o.nu)]
    outcomes = passes[0].outcomes + checked.outcomes
    if workload.name == "sweep-d20":
        errors = {}
        for o in outcomes:
            c = o.experiment.config
            errors.setdefault(c["seed"], {})[c["algorithm"]] = \
                checks.own_weighted_error(o.trace, c["tau"])
        fails += checks.check_ordering(errors)
    elif workload.name == "wide-d1e5":
        fails += codec_roundtrip_fails(workload)
    elif workload.name == "local-heavy":
        for o in outcomes:
            if o.experiment.config["algorithm"] == "local_sgd" and not o.loss_end < o.loss_start:
                fails.append(f"{o.experiment.stem}: loss {o.loss_end:.6g} "
                             f"not below its initial {o.loss_start:.6g}")
    return fails


# -- runs --------------------------------------------------------------------

def machine_info(nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version')}",
            "nproc": nproc, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _warm_up(workload, out: Path) -> dict:
    """One untimed run of the cheapest experiment, since the first experiment in
    a process runs 2-3x slower; its trace CSV is kept for the replay check."""
    cheap = workload.experiments[0]
    (out / "warmup").mkdir(parents=True)
    csv = run_experiment(cheap, out / "warmup")[-1]
    return {cheap.stem: csv}


def _per_experiment(passes: list[Pass], field: str, pace: Pace) -> dict:
    """Each experiment's median time over the run's passes, at the reference speed.

    Every run makes the same number of passes, so each median is taken over
    the same count of repeats."""
    times = {}
    for p in passes:
        for o in p.outcomes:
            times.setdefault(o.experiment.stem, []).append(
                pace.at_reference(getattr(o, field), o.span))
    return {stem: statistics.median(t) for stem, t in times.items()}


def timed_run(workload, seed: int, seconds: float, out: Path, src: Path):
    pace = Pace()
    # Set-up is left at the run's own speed: a fresh process's imports and
    # page faults do not follow the reference kernel.
    setups = [probe_setup(workload.name, seed, src) for _ in range(SETUP_PROBES)]
    observe = Observer()
    warm = _warm_up(workload, out)
    checked = run_pass(workload.check_only, out / "check", observe)
    passes = [run_pass(workload.experiments, out / f"pass{i}", observe, pace=pace)
              for i in range(workload.passes(seconds))]
    fails = replay_fails(passes[0], warm)
    if len(passes) > 1:
        fails += replay_fails(passes[0], _csvs(passes[1]))
    fails += workload_fails(workload, passes, checked)
    pace_s = [s for _, s in pace.samples]
    print(f"  reference kernel: {min(pace_s):.4f}-{max(pace_s):.4f} s over {len(pace_s)} "
          f"samples; pass {statistics.median(p.seconds for p in passes):.3f} s "
          f"(median) at the run's own speed")
    metrics = {
        "setup_s": statistics.median(setups),
        "sweep_s": sum(_per_experiment(passes, "seconds", pace).values()),
        "rounds_per_s": (sum(o.trace.summary["rounds_run"] for o in passes[0].outcomes)
                         / sum(_per_experiment(passes, "run_s", pace).values())),
        "uplink_bits": sum(o.trace.summary["total_bits"] for o in passes[0].outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return passes, checked, fails, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def traced_run(workload, out: Path):
    """Untraced, traced, untraced: the untraced mean brackets the traced pass
    so that a slow drift of the machine cancels out of the overhead."""
    observe = Observer()
    warm = _warm_up(workload, out)
    checked = run_pass(workload.check_only, out / "check", observe)
    before = run_pass(workload.experiments, out / "untraced0", observe)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload.experiments, out / "traced", observe, tracer)
    finally:
        tracer.uninstall()
    after = run_pass(workload.experiments, out / "untraced1", observe)
    passes = [before, traced, after]
    fails = replay_fails(before, warm) + workload_fails(workload, passes, checked)
    for other in (traced, after):
        fails += replay_fails(before, _csvs(other))
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced.seconds - (before.seconds + after.seconds) / 2.0
    tracer.write_jsonl(out / "spans.jsonl")
    return passes, checked, fails, {k: (v, PER_LAYER_UNITS[k]) for k, v in metrics.items()}


def run(args, nproc: int, root: Path) -> int:
    workload = workloads.make(args.workload, args.seed)
    out = root / ".perfbench_out" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    print(f"machine {json.dumps(machine_info(nproc))}", flush=True)
    if args.trace:
        passes, checked, fails, metrics = traced_run(workload, out)
    else:
        passes, checked, fails, metrics = timed_run(workload, args.seed, args.seconds,
                                                    out, root / "src")
    attempted = sum(len(p.outcomes) + p.failed for p in (*passes, checked))
    failed = sum(p.failed for p in (*passes, checked))
    for f in fails:
        print(f"check failed: {f}")
    print(f"workload {workload.name} seed {args.seed}: {len(passes)} passes "
          f"and {len(checked.outcomes) + checked.failed} check-only experiments, "
          f"attempted {attempted} failed {failed}, checks {'pass' if not fails else 'FAIL'}")
    print(f"  pass seconds: {', '.join(f'{p.seconds:.3f}' for p in passes)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}), flush=True)
    return 0
