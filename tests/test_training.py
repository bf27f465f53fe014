import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from gaulrq import training
from gaulrq.errors import DivergedError, InvalidParameterError
from gaulrq.streams import DrawStream, SeedMaterial
from gaulrq.training import (ModelState, Objective, local_rounds, stacked_local_rounds,
                             synth_partition, weighted_error)


def _objective(seed=0, N=4, d=3, n=6, noise=0.0, kind="least_squares", **kw):
    return Objective(*synth_partition(seed, N, d, n, noise, kind=kind), kind=kind, **kw)


# -- synthetic data ---------------------------------------------------------

def test_synth_deterministic():
    a = synth_partition(3, 2, 4, 5, 0.2)
    b = synth_partition(3, 2, 4, 5, 0.2)
    for xa, xb in zip(a, b):
        assert np.array_equal(xa, xb)


def test_synth_shapes():
    features, targets = synth_partition(0, 2, 2, 3, 0.0)
    assert features.shape == (2, 3, 2) and targets.shape == (2, 3)
    datasets = Objective(features, targets).datasets
    assert len(datasets) == 2
    for ds in datasets:
        assert ds.features.shape == (3, 2) and ds.targets.shape == (3,) and ds.n == 3


def test_noiseless_optimum_is_planted_vector():
    obj = _objective(seed=5, N=5, d=4, n=20, noise=0.0)
    theta_star, f_star = obj.optimum()
    assert f_star == pytest.approx(0.0, abs=1e-18)
    assert np.linalg.norm(obj.loss_and_gradient(theta_star)[1]) < 1e-10


def test_logistic_targets_binary():
    _, targets = synth_partition(1, 2, 3, 50, 0.0, kind="logistic")
    assert set(np.unique(targets)) <= {0.0, 1.0}


@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_synth_matches_per_client_draws(kind, monkeypatch):
    # The reference draws the flat features slab by slab, slab s from child s
    # of the seed's SeedSequence; 10-value slabs cut through the 35-value
    # client blocks. The next child draws the shifts, the root the rest.
    monkeypatch.setattr(training, "_SLAB", 10)
    N, d, n, noise, het = 4, 5, 7, 0.3, 0.8
    children = np.random.SeedSequence(11).spawn(15)
    X = np.concatenate([np.random.default_rng(children[s]).standard_normal(10)
                        for s in range(14)])[:N * n * d].reshape(N, n, d)
    rng = np.random.default_rng(11)
    w = rng.standard_normal(d) + het * np.random.default_rng(children[14]).standard_normal((N, d))
    z = np.stack([X[i] @ w[i] for i in range(N)])
    if kind == "least_squares":
        y = z + noise * rng.standard_normal((N, n))
    else:
        y = (rng.random((N, n)) < expit(z)).astype(np.float64)
    features, targets = synth_partition(11, N, d, n, noise, kind=kind, heterogeneity=het)
    assert np.array_equal(features, X)
    assert np.array_equal(targets, y)


@pytest.mark.parametrize("slab", [1 << 20, 10], ids=["one-slab", "slabs-cut-clients"])
@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_no_result_depends_on_the_thread_split(kind, slab, monkeypatch):
    # A byte bound of 1 or of one shard's bytes puts the slabs' upper half (when there are
    # two or more) and spec's optimum on a second thread, and cuts the finiteness scan and
    # the variance bound, which stay on the caller, into blocks of a row or a shard; 1 TiB
    # cuts nothing. The data, the constants and the finiteness check must be the same.
    monkeypatch.setattr(training, "_SLAB", slab)
    pools = []
    monkeypatch.setattr(training, "ThreadPoolExecutor",
                        lambda n: pools.append(n) or ThreadPoolExecutor(n))
    theta0 = np.random.default_rng(3).standard_normal(5)
    got, splits = [], []
    for block_bytes in (1, 7 * 5 * 8, 1 << 40):
        monkeypatch.setattr(training, "_BLOCK_BYTES", block_bytes)
        features, targets = synth_partition(4, 9, 5, 7, 0.2, kind=kind, heterogeneity=0.4)
        obj = Objective(features, targets, kind=kind, ridge=0.1)
        got.append((features.tobytes(), targets.tobytes(), obj.spec(theta0)))
        for bad in (features.copy(), targets.copy()):
            bad.reshape(-1)[-1] = np.nan  # in the last block: the worker's, when split
            with pytest.raises(InvalidParameterError, match="finite"):
                Objective(*((bad, targets) if bad.ndim == 3 else (features, bad)), kind=kind)
        splits.append(len(pools))
        pools.clear()
    assert got[0] == got[1] == got[2]
    assert splits == [1 + (slab == 10)] * 2 + [0]


def test_two_thread_split_joins_its_worker_and_reraises(monkeypatch):
    # synth_partition's upper slabs fail on the worker, after the caller's half: the
    # worker's error is raised on the caller, and the worker is joined. One slab starts
    # no thread.
    monkeypatch.setattr(training, "_SLAB", 10)
    monkeypatch.setattr(training, "_BLOCK_BYTES", 0)
    default_rng, done = np.random.default_rng, []

    class Slab:
        def __init__(self, rng, s):
            self.rng, self.s = rng, s

        def standard_normal(self, *args, **kw):
            if self.s >= 2:  # the worker's half of 5 slabs, slower than the caller's
                time.sleep(0.05)
                done.append(threading.current_thread() is not threading.main_thread())
                raise ValueError(f"slab {self.s}")
            return self.rng.standard_normal(*args, **kw)

    class Root:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, *args):
            return self.rng.standard_normal(*args)

        def spawn(self, n):
            return [Slab(rng, s) for s, rng in enumerate(self.rng.spawn(n))]

    monkeypatch.setattr(np.random, "default_rng", Root)
    before = threading.active_count()
    with pytest.raises(ValueError, match="^slab 2$"):
        synth_partition(0, 5, 2, 5, 0.1)  # 50 values: 5 slabs, slabs 2-4 on the worker
    assert done == [True] and threading.active_count() == before
    pools = []
    monkeypatch.setattr(training, "ThreadPoolExecutor",
                        lambda n: pools.append(n) or ThreadPoolExecutor(n))
    monkeypatch.setattr(training, "_SLAB", 1 << 20)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    synth_partition(0, 5, 2, 5, 0.1)
    assert pools == []


def test_synth_shards_are_one_read_only_tensor():
    features, targets = synth_partition(2, 5, 4, 6, 0.1)
    obj = Objective(features, targets)
    assert "datasets" not in vars(obj)  # made on first read, then kept
    assert obj.datasets is obj.datasets
    X, y = obj.shards
    assert X.shape == (5, 6, 4) and y.shape == (5, 6)
    assert np.shares_memory(X, features) and np.shares_memory(y, targets)
    for i, ds in enumerate(obj.datasets):
        assert np.shares_memory(X[i], ds.features)
        assert np.shares_memory(y[i], ds.targets)
    assert not X.flags.writeable and not y.flags.writeable
    with pytest.raises(ValueError):
        obj.datasets[0].features[0, 0] = 1.0


def _zeros_with(shape, index, value):
    a = np.zeros(shape)
    a[index] = value
    return a


@pytest.mark.parametrize("features, targets, ridge, match", [
    pytest.param([np.zeros((3, 2)), np.zeros((4, 2))], [np.zeros(3), np.zeros(4)], 0.0,
                 "one array", id="ragged"),
    pytest.param(np.zeros((3, 2)), np.zeros(3), 0.0, "features", id="2d-features"),
    pytest.param(np.zeros((2, 3, 2)), np.zeros((2, 4)), 0.0, "targets", id="mismatched-targets"),
    pytest.param(np.zeros((2, 0, 2)), np.zeros((2, 0)), 0.0, "non-empty", id="empty-shard"),
    pytest.param(_zeros_with((2, 3, 2), (1, 2, 0), np.nan), np.zeros((2, 3)), 0.0,
                 "finite", id="nan"),
    pytest.param(np.zeros((2, 3, 2)), _zeros_with((2, 3), (1, 0), -np.inf), 0.0,
                 "finite", id="inf"),
    pytest.param(np.zeros((2, 3, 2)), np.zeros((2, 3)), np.nan, "ridge must be finite",
                 id="nan-ridge")])
def test_objective_rejects_bad_input(features, targets, ridge, match):
    with pytest.raises(InvalidParameterError, match=match):
        Objective(features, targets, ridge=ridge)


# -- gradients --------------------------------------------------------------

def test_singleton_batches_average_to_full_gradient():
    obj = _objective()
    ds = obj.datasets[0]
    theta = np.array([0.1, 0.7, -0.4])
    singles = [obj.sample_gradients(theta, ds, [i])[0] for i in range(ds.n)]
    # One-shard objective: its full gradient is that client's local gradient.
    local = Objective(ds.features[None], ds.targets[None], kind=obj.kind)
    _, grad = local.loss_and_gradient(theta)
    assert np.allclose(np.mean(singles, axis=0), grad, atol=1e-12)


def test_zero_gradient_at_optimum():
    obj = _objective(noise=0.3)
    theta_star, _ = obj.optimum()
    assert np.linalg.norm(obj.loss_and_gradient(theta_star)[1]) < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_logistic_optimum_meets_gradient_tolerance(seed):
    obj = _objective(seed=seed, N=2, d=3, n=50, kind="logistic")
    theta_star, _ = obj.optimum()
    assert np.linalg.norm(obj.loss_and_gradient(theta_star)[1]) <= 1e-8


@pytest.mark.parametrize("z, want", [(710.0, 1.0), (-710.0, 0.0), (1e308, 1.0), (-1e308, 0.0),
                                     (np.inf, 1.0), (-np.inf, 0.0), (0.0, 0.5)])
def test_sigmoid_at_the_ends_of_float64(z, want):
    # exp(-z) overflows for z < -709.78: the sigmoid is then 0, without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert training._sigmoid(z) == want
        assert training._sigmoid(np.array([z, -z]), out=np.empty(2)).tolist() == [want, 1 - want]
        assert np.isnan(training._sigmoid(np.nan))
        assert np.isnan(training._sigmoid(np.array([np.nan]))).all()


def test_sigmoid_is_expit_to_two_ulps():
    # 1 / (1 + exp(-z)) is scipy's own formula; numpy's exp and libm's differ in the last bit,
    # which the division can round to a second (98% of these values are equal).
    z = np.concatenate([np.random.default_rng(5).normal(0.0, 10.0, 10**5),
                        np.linspace(-745.0, 40.0, 10**4)])
    s = training._sigmoid(z)
    assert np.all(np.abs(s - expit(z)) <= 2 * np.spacing(np.maximum(s, expit(z))))


def _matmul_evaluation(obj, theta):
    """(loss, gradient) written with @ throughout: the bits loss_and_gradient must give."""
    X, y = obj.shards[0].reshape(-1, obj.dimension), obj.shards[1].reshape(-1)
    w, z = 1.0 / y.size, X @ theta
    if obj.kind == "least_squares":
        data = 0.5 * np.sum(w * (z - y) ** 2)
    else:
        data = np.sum(w * (np.logaddexp(0.0, z) - y * z))
    resid = z - y if obj.kind == "least_squares" else training._sigmoid(z) - y
    return float(data + 0.5 * obj.ridge * theta @ theta), X.T @ (w * resid) + obj.ridge * theta


@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
@pytest.mark.parametrize("ridge", [0.0, 0.05])
def test_loss_and_gradient_is_full_loss_and_full_gradient(kind, ridge):
    # (N, d, n): a small case, then wide-d1e5's N*n < d and local-heavy's d < N*n.
    for N, d, n in ((5, 7, 9), (10, 100_000, 8), (50, 100, 400)):
        obj = _objective(seed=4, N=N, d=d, n=n, noise=0.2, kind=kind, ridge=ridge)
        for theta in np.random.default_rng(6).standard_normal((5 if d == 7 else 2, d)):
            loss, grad = obj.loss_and_gradient(theta)
            assert loss == obj.full_loss(theta)
            want_loss, want_grad = _matmul_evaluation(obj, theta)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("method", ["loss_and_gradient", "full_loss", "trace_terms"])
@pytest.mark.parametrize("N, d, n", [(10, 450, 20), (10, 200, 45)], ids=["wide", "tall"])
def test_evaluation_on_a_worker_lets_the_caller_run(N, d, n, method):
    """The round's evaluation (trace_terms; loss_and_gradient in L-BFGS) runs on a worker beside
    the clients' steps, so its products must release the GIL. numpy's matmul holds it through a
    BLAS call whose output is small. Here both outputs of loss_and_gradient are (N*n and d are
    under 500), so a worker looping the method on matmul never lets go of it, and each of the
    caller's 100 GIL releases waits a switch interval (~5 ms). full_loss has only z = X theta,
    the product the two share. At the workloads' shapes the other product releases the GIL
    once a call, and the caller slows ~1.5-2x."""
    obj = _objective(seed=1, N=N, d=d, n=n, kind="logistic", ridge=0.01)
    theta = np.full(d, 0.01)

    def caller_ops():
        start = time.perf_counter()
        for _ in range(100):
            # ~50 us with the GIL released. Not a BLAS call: BLAS threads it woke would spin
            # on the other core, slow the worker's wake-up, and so hide the wait.
            time.sleep(0)
        return time.perf_counter() - start

    alone = min(caller_ops() for _ in range(3))
    running, stop = threading.Event(), threading.Event()
    deadline = time.perf_counter() + 1.0  # the worker's last call: a failing run ends too

    def evaluate():
        while not stop.is_set() and time.perf_counter() < deadline:
            getattr(obj, method)([theta] if method == "trace_terms" else theta)
            running.set()

    with ThreadPoolExecutor(1) as pool:
        worker = pool.submit(evaluate)
        try:
            assert running.wait(10)
            beside = caller_ops()
            overlapped = time.perf_counter() < deadline  # the worker looped throughout
        finally:
            stop.set()
        worker.result(timeout=10)
    assert overlapped, "the caller waited out the worker's whole loop"
    assert beside < 10 * alone, f"{beside * 1e3:.1f} ms beside the evaluation, {alone * 1e3:.1f} alone"


# (kind, ridge, N, n, d): criterion 9's and a logistic ridge shape, under _EVAL_BYTES, take
# blocks of 8 thetas; local-heavy's and a d = 1e5 shape take one, over blocks of 3 shards or one.
_TRACE_SHAPES = [("least_squares", 0.0, 100, 20, 20), ("logistic", 0.01, 20, 9, 13),
                 ("logistic", 0.0, 50, 400, 100), ("least_squares", 0.05, 10, 8, 100_000)]


@pytest.mark.parametrize("kind, ridge, N, n, d", _TRACE_SHAPES)
def test_trace_terms_are_the_loss_and_gradient_norm(kind, ridge, N, n, d):
    obj = _objective(seed=2, N=N, d=d, n=n, noise=0.1, kind=kind, ridge=ridge)
    assert obj.trace_width == (8 if N * n * d * 8 <= training._EVAL_BYTES else 1)
    thetas = list(np.random.default_rng(3).standard_normal((3 if d > 1000 else 11, d)) * 0.1)
    terms = obj.trace_terms(thetas)
    assert len(terms) == len(thetas)
    for theta, (loss, grad_sq_norm) in zip(thetas, terms):
        want_loss, grad = obj.loss_and_gradient(theta)
        assert loss == pytest.approx(want_loss, rel=1e-13, abs=0.0)
        assert grad_sq_norm == pytest.approx(float(grad @ grad), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("kind, ridge, N, n, d", _TRACE_SHAPES[:2])
def test_a_thetas_terms_are_the_same_in_every_slot_of_a_block(kind, ridge, N, n, d):
    # Its terms alone, then in each slot of blocks of 1 to 16 thetas (one or two blocks):
    # the bits depend on the theta alone, not on its neighbours, their number or its slot.
    obj = _objective(seed=2, N=N, d=d, n=n, noise=0.1, kind=kind, ridge=ridge)
    rng = np.random.default_rng(5)
    theta = rng.standard_normal(d) * 0.1
    want = [float.hex(v) for v in obj.trace_terms([theta])[0]]
    for count in range(1, 17):
        others = list(rng.standard_normal((count, d)) * 0.1)
        for slot in range(count):
            terms = obj.trace_terms(others[:slot] + [theta] + others[slot + 1:])
            assert [float.hex(v) for v in terms[slot]] == want, (count, slot)


def test_gradient_matches_finite_differences():
    for kind in ("least_squares", "logistic"):
        obj = _objective(seed=2, kind=kind, ridge=0.01)
        rng = np.random.default_rng(8)
        for _ in range(20):
            theta = rng.standard_normal(3)
            g = obj.loss_and_gradient(theta)[1]
            h = 1e-6
            fd = np.empty(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[j] = (obj.full_loss(theta + e) - obj.full_loss(theta - e)) / (2 * h)
            assert np.allclose(g, fd, rtol=1e-5, atol=1e-8)


def test_smoothness_certificate():
    obj = _objective(seed=9, N=3, d=4, n=10)
    nu = obj.smoothness()
    rng = np.random.default_rng(10)
    for _ in range(1000):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        lhs = np.linalg.norm(obj.loss_and_gradient(a)[1] - obj.loss_and_gradient(b)[1])
        assert lhs <= nu * np.linalg.norm(a - b) + 1e-9


def test_thin_gram_matches_wide():
    # Fewer samples (6) than dimensions (10): the thin N*n x N*n path must
    # reproduce the d x d arithmetic.
    rng = np.random.default_rng(12)
    features, targets = rng.standard_normal((2, 3, 10)), rng.standard_normal((2, 3))
    X, y = features.reshape(6, 10), targets.reshape(6)
    w = np.full(6, 1.0 / 6)
    gram = (X * w[:, None]).T @ X
    for ridge in (0.0, 0.1):
        obj = Objective(features, targets, ridge=ridge)
        nu = float(np.linalg.eigvalsh(gram)[-1]) + ridge
        assert obj.smoothness() == pytest.approx(nu, rel=1e-9)
        if ridge:
            want = np.linalg.solve(gram + ridge * np.eye(10), X.T @ (w * y))
        else:  # minimum-norm interpolant
            want = np.linalg.lstsq(X * np.sqrt(w)[:, None], np.sqrt(w) * y,
                                   rcond=None)[0]
        theta, f_star = obj.optimum()
        assert np.allclose(theta, want, rtol=1e-9, atol=1e-12)
        assert f_star == pytest.approx(obj.full_loss(want), rel=1e-9, abs=1e-15)


def test_empty_batch_rejected():
    obj = _objective()
    model = ModelState(theta=np.zeros(3), round=0, objective=obj)
    for batch_size in (0, -1):
        with pytest.raises(InvalidParameterError, match="batch_size"):
            local_rounds(model, obj.datasets[0], 1, 0.1, batch_size,
                         DrawStream(SeedMaterial(0), 0, 0))


# -- local rounds -----------------------------------------------------------

def test_single_step_full_batch():
    obj = _objective()
    ds = obj.datasets[2]
    theta = np.array([1.0, -0.5, 0.3])
    model = ModelState(theta=theta, round=0, objective=obj)
    eta = 0.05
    delta = local_rounds(model, ds, 1, eta, ds.n, stream=None)
    grads = obj.sample_gradients(theta, ds, np.arange(ds.n))
    assert np.allclose(delta, -eta * grads.mean(axis=0), atol=1e-14)
    assert np.array_equal(model.theta, theta)  # caller not mutated


def test_zero_eta_zero_update():
    obj = _objective()
    model = ModelState(theta=np.ones(3), round=0, objective=obj)
    delta = local_rounds(model, obj.datasets[0], 3, 0.0, obj.datasets[0].n, None)
    assert np.array_equal(delta, np.zeros(3))


def test_unrolled_three_steps_oracle():
    obj = _objective()
    ds = obj.datasets[0]
    theta0 = np.array([0.2, 0.4, -0.1])
    model = ModelState(theta=theta0, round=0, objective=obj)
    eta, Q, bs = 0.1, 3, 2
    seed = SeedMaterial(77, "unroll")
    delta = local_rounds(model, ds, Q, eta, bs, DrawStream(seed, 0, 0))
    # Hand-unrolled oracle with an identical stream.
    stream = DrawStream(seed, 0, 0)
    theta = theta0.copy()
    for _ in range(Q):
        idx = np.floor(stream.next(bs) * ds.n).astype(np.int64)
        g = obj.sample_gradients(theta, ds, idx).mean(axis=0)
        theta = theta - eta * g
    # The stepper forms the batch mean as one matrix product, not as the mean
    # of per-sample gradients: the same sum in another order.
    np.testing.assert_allclose(delta, theta - theta0, rtol=1e-12, atol=0.0)


def _oracle_rows(obj, theta0, rows, Q, eta, batch):
    """Per client, Q steps on the mean of per-sample gradients."""
    out = []
    for i, row in enumerate(rows):
        ds, theta = obj.datasets[row], theta0.copy()
        for q in range(Q):
            if batch is None:
                idx = np.arange(ds.n)
            else:
                b = batch.shape[1] // Q
                idx = batch[i, q * b:(q + 1) * b]
            theta = theta - eta * obj.sample_gradients(theta, ds, idx).mean(axis=0)
        out.append(theta - theta0)
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["least_squares", "logistic"]),
       ridge=st.sampled_from([0.0, 0.01, 0.3]), B=st.integers(1, 6),
       extra=st.integers(0, 3), n=st.integers(1, 12), d=st.integers(1, 8),
       Q=st.integers(1, 4), batch=st.integers(0, 12), seed=st.integers(0, 2**16))
def test_stacked_rows_match_per_sample_oracle(kind, ridge, B, extra, n, d, Q, batch, seed):
    # batch 0 is full batch; otherwise b = batch samples per step, with replacement.
    obj = _objective(seed=seed, N=B + extra, d=d, n=n, noise=0.1, kind=kind, ridge=ridge)
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(B + extra, size=B, replace=False))
    theta0 = rng.standard_normal(d)
    idx = np.floor(rng.random((B, Q * batch)) * n).astype(np.int64) if batch else None
    eta = 0.5 / obj.smoothness()
    got = stacked_local_rounds(obj, theta0, rows, Q, eta, idx, 1e6)
    want = _oracle_rows(obj, theta0, rows, Q, eta, idx)
    assert got.shape == (B, d)
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)


def _per_step_gathers(obj, theta, rows, Q, eta, batch):
    """The minibatch stepper with a fresh (B, b, d) gather for every step."""
    X, y = obj.shards
    b = batch.shape[1] // Q
    idx = batch.reshape(len(rows), Q, b)
    part = np.asarray(rows)[:, None]
    w = np.tile(theta, (len(rows), 1))
    for q in range(Q):
        Xb, yb = X[part, idx[:, q]], y[part, idx[:, q]]
        r = training._residual(obj.kind, np.matmul(Xb, w[:, :, None])[:, :, 0], yb)
        w -= eta * (np.matmul(r[:, None, :], Xb)[:, 0, :] / b + obj.ridge * w)
    return w - theta


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["least_squares", "logistic"]), B=st.integers(1, 10),
       n=st.integers(1, 20), d=st.integers(1, 20), Q=st.integers(1, 5),
       batch=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_one_gather_per_block_matches_per_step_gathers(kind, B, n, d, Q, batch, seed):
    # Criterion 9's shape (B=10, n=20, d=20, Q=5, b=5) lies inside this range.
    obj = _objective(seed=seed, N=B + 2, d=d, n=n, noise=0.1, kind=kind, ridge=0.01)
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(B + 2, size=B, replace=False))
    theta0 = rng.standard_normal(d)
    idx = np.floor(rng.random((B, Q * batch)) * n).astype(np.int64)
    got = stacked_local_rounds(obj, theta0, rows, Q, 0.05, idx, 1e6)
    assert got.tobytes() == _per_step_gathers(obj, theta0, rows, Q, 0.05, idx).tobytes()


def _full_batch_gather(obj, theta, i, Q, eta):
    """Q full-batch steps of shard i on its gathered copy X[[i]], as a one-shard block
    ran before it was read in place."""
    X, y = obj.shards
    Xg, yg, w = X[[i]], y[[i]], theta[None].copy()
    for _ in range(Q):
        r = training._residual(obj.kind, np.matmul(Xg, w[:, :, None])[:, :, 0], yg)
        w -= eta * (np.matmul(r[:, None, :], Xg)[:, 0, :] / Xg.shape[1] + obj.ridge * w)
    return w[0] - theta


@pytest.mark.parametrize("kind, ridge", [("least_squares", 0.0), ("logistic", 0.0),
                                         ("least_squares", 0.05)],
                         ids=["least_squares", "logistic", "ridge"])
@pytest.mark.parametrize("n, d", [(3, 5), (7, 33), (4, 50_000)])
def test_one_shard_block_matches_its_gather(kind, ridge, n, d, monkeypatch):
    # Shard i starts i * n * d * 8 bytes into the features: odd sizes move its alignment.
    # The d = 5e4 shards pass _BLOCK_BYTES themselves, as the benchmark's do.
    if d < 1000:
        monkeypatch.setattr(training, "_BLOCK_BYTES", 1)
    obj = _objective(seed=d, N=5, d=d, n=n, noise=0.1, kind=kind, ridge=ridge)
    theta0 = np.random.default_rng(n).standard_normal(d)
    rows = np.array([0, 1, 3, 4])
    got = stacked_local_rounds(obj, theta0, rows, 3, 1.0 / d, None, 1e6)
    for row, i in zip(got, rows):
        assert row.tobytes() == _full_batch_gather(obj, theta0, i, 3, 1.0 / d).tobytes()


def test_one_shard_full_batch_block_is_not_copied():
    obj = _objective(seed=1, N=3, d=50_000, n=8, noise=0.1)
    theta0 = np.random.default_rng(2).standard_normal(50_000)
    shard = obj.shards[0][0].nbytes  # 3.2 MB, past _BLOCK_BYTES: a block of its own
    tracemalloc.start()
    try:
        stacked_local_rounds(obj, theta0, [1], 2, 1e-5, None, 1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * shard, peak / shard


@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
@pytest.mark.parametrize("batch", [0, 3])
def test_row_blocks_change_no_update(kind, batch, monkeypatch):
    # batch 0 is full batch (b = n = 6); d = 5.
    obj = _objective(seed=3, N=9, d=5, n=6, noise=0.2, kind=kind, ridge=0.01)
    rows, Q = np.array([0, 2, 3, 5, 6, 8]), 4
    rng = np.random.default_rng(5)
    theta0 = rng.standard_normal(5)
    idx = np.floor(rng.random((rows.size, Q * batch)) * 6).astype(np.int64) if batch else None
    want = stacked_local_rounds(obj, theta0, rows, Q, 0.1, idx, 1e6)
    row_bytes = (4 * batch or 6) * 5 * 8  # a row's gather: Q minibatches, or its shard
    for block in (row_bytes, 2 * row_bytes):
        monkeypatch.setattr(training, "_BLOCK_BYTES", block)
        assert np.array_equal(stacked_local_rounds(obj, theta0, rows, Q, 0.1, idx, 1e6), want)


def test_divergence_in_last_block_raises(monkeypatch):
    rng = np.random.default_rng(4)
    features, targets = rng.standard_normal((4, 6, 3)), rng.standard_normal((4, 6))
    features[3] *= 100.0
    obj = Objective(features, targets)
    monkeypatch.setattr(training, "_BLOCK_BYTES", 6 * 3 * 8)  # one row per block
    stacked_local_rounds(obj, np.zeros(3), [0, 1, 2], 20, 0.1, None, 1e6)
    with pytest.raises(DivergedError):
        stacked_local_rounds(obj, np.zeros(3), [0, 1, 2, 3], 20, 0.1, None, 1e6)


def test_divergence_guard():
    obj = _objective()
    model = ModelState(theta=np.ones(3) * 10, round=0, objective=obj)
    with pytest.raises(DivergedError):
        # Enormous step size blows up a quadratic immediately.
        local_rounds(model, obj.datasets[0], 50, 100.0, obj.datasets[0].n,
                     None, divergence_ceiling=1e3)


def test_divergence_guard_catches_nan():
    # NaN fails every comparison, so a `norm > ceiling` test would let it through.
    obj = _objective()
    model = ModelState(theta=np.ones(3), round=0, objective=obj)
    with pytest.raises(DivergedError, match="exceeded ceiling 1e\\+06"):
        local_rounds(model, obj.datasets[0], 2, float("nan"), obj.datasets[0].n, None)


@pytest.mark.parametrize("rows, ceiling, ok", [
    ([[3.0, 4.0], [0.0, 0.0]], 5.0, True),  # L2 norm exactly at the ceiling
    ([[3.0, 4.1], [0.0, 0.0]], 5.0, False),  # inf-norm under the ceiling, L2 over
    ([[1e200, 1e200], [1.0, 1.0]], 5.0, False),
    ([[7e299, 7e299]], 1e300, True),  # the squares would overflow
    ([[9e299, 9e299]], 1e300, False),
    ([[float("nan"), 0.0], [1.0, 1.0]], 5.0, False),
    ([[-float("inf"), 0.0]], 5.0, False),
    ([[float("inf"), 0.0]], 5.0, False),
    ([[0.0, np.nextafter(5.0, 6.0)], [1.0, 1.0]], 5.0, False),  # just above the ceiling
    ([[1.0, 1.0], [5.0, 0.0]], 5.0, True),  # a row exactly at the ceiling
    ([[4.0, 0.0], [1.0, 1.0]], 5.0, True),  # inf-norm above 5 / sqrt(2), L2 below 5
    ([[-3.0, -4.1]], 5.0, False),  # max under 5 / sqrt(2): only the min side sees the row
    ([[-6.0, 0.0], [1.0, 1.0]], 5.0, False)])  # min side only, then the full norm check
def test_divergence_check_never_overflows(rows, ceiling, ok):
    # RuntimeWarnings are errors here, so an overflowing norm would fail too.
    if ok:
        training._check_divergence(np.array(rows), ceiling, "local")
    else:
        with pytest.raises(DivergedError, match="^local model norm exceeded ceiling"):
            training._check_divergence(np.array(rows), ceiling, "local")


# -- weighted error ---------------------------------------------------------

def test_weighted_error_examples():
    assert weighted_error([3.0, 3.0, 3.0], 0.5) == pytest.approx(3.0)
    assert weighted_error([1.0, 2.0, 3.0], 1.0) == pytest.approx(2.0)
    # K=2, tau=0.5: weights (1, 2) -> (1*1 + 2*3)/3.
    assert weighted_error([1.0, 3.0], 0.5) == pytest.approx(7.0 / 3.0, rel=1e-12)


def test_weighted_error_bounds_and_overflow_safety():
    rng = np.random.default_rng(0)
    vals = rng.uniform(0.1, 5.0, 500)
    e = weighted_error(vals, 0.5)  # tau^-k would overflow at K=500
    assert np.isfinite(e)
    assert vals.min() <= e <= vals.max()
    with pytest.raises(InvalidParameterError):
        weighted_error([], 0.9)
    with pytest.raises(InvalidParameterError):
        weighted_error([1.0], 0.0)


# -- objective spec ---------------------------------------------------------

def test_spec_fields():
    obj = _objective(seed=6, noise=0.1)
    theta0 = np.ones(3)
    spec = obj.spec(theta0)
    assert spec.smoothness > 0
    assert spec.grad_variance >= 0
    assert spec.optimum_gap >= 0
    assert spec.dimension == 3
    assert spec.optimum_gap == pytest.approx(
        obj.full_loss(theta0) - obj.optimum()[1], rel=1e-12)


@pytest.mark.parametrize("kind, ridge, N, n, d", [
    ("least_squares", 0.0, 10, 8, 2000),   # wide shards, as the d=1e5 benchmark's
    ("logistic", 0.0, 5, 400, 100),
    ("least_squares", 0.05, 6, 50, 30),
    ("logistic", 0.3, 4, 33, 13)])
def test_grad_variance_bound_matches_per_sample_gradients(kind, ridge, N, n, d):
    # The in-place bound takes the same steps as the per-sample-gradient form.
    obj = Objective(*synth_partition(2, N, d, n, 0.1, kind=kind, heterogeneity=0.5),
                    kind=kind, ridge=ridge)
    theta0 = np.random.default_rng(1).standard_normal(d)
    want = 0.0
    for ds in obj.datasets:
        grads = obj.sample_gradients(theta0, ds, np.arange(ds.n))
        want = max(want, float(np.mean(np.sum((grads - grads.mean(0)) ** 2, axis=1))))
    assert obj.grad_variance_bound(theta0) == want


@pytest.mark.parametrize("kind, N, n, d", [
    ("least_squares", 10, 8, 20000),   # thin: the N*n x N*n Gram and push-through
    ("logistic", 50, 400, 100)])       # tall: the d x d Gram and L-BFGS
def test_spec_makes_no_copy_of_the_data(kind, N, n, d):
    # The Gram, the optimum and the variance bound work on the held features:
    # spec's peak stays far below one (N*n, d) temporary.
    import scipy.optimize  # noqa: F401  its import would count ~10 MiB
    features, targets = synth_partition(3, N, d, n, 0.1, kind=kind)
    obj = Objective(features, targets, kind=kind)
    theta0 = np.random.default_rng(4).standard_normal(d)
    tracemalloc.start()
    try:
        obj.spec(theta0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * features.nbytes, peak / features.nbytes


_SPEC_CASES = [("least_squares", 0.0, 4, 9, 5),    # the d x d Gram
               ("least_squares", 0.0, 2, 3, 10),   # the thin N*n x N*n Gram
               ("least_squares", 0.1, 4, 9, 5),
               ("least_squares", 0.1, 2, 3, 10),
               ("logistic", 0.0, 5, 40, 6),
               ("logistic", 0.3, 3, 4, 20)]


def _spec_calls(monkeypatch):
    """Record each constant's call as (method, on the main thread), and each Gram
    read as built or cached."""
    calls = []
    for name in ("optimum", "smoothness", "grad_variance_bound", "full_loss", "_weighted_gram"):
        def record(self, *args, _name=name, _method=getattr(Objective, name)):
            if _name == "_weighted_gram":
                _name = "gram built" if self._gram is None else "gram read"
            calls.append((_name, threading.current_thread() is threading.main_thread()))
            return _method(self, *args)
        monkeypatch.setattr(Objective, name, record)
    return calls


@pytest.mark.parametrize("kind, ridge, N, n, d", _SPEC_CASES)
@pytest.mark.parametrize("above", [True, False], ids=["above-gate", "at-gate"])
def test_spec_is_its_one_thread_composition(kind, ridge, N, n, d, above, monkeypatch):
    # Past _BLOCK_BYTES of data the optimum runs on one worker beside the side
    # constants; at the gate and below, all on the caller, the optimum first, and no
    # thread starts. Either way every field is the separate calls' bit for bit, the
    # Gram is built once, on the caller (first for least squares, whose optimum
    # reads it), and no thread outlives the call.
    features, targets = synth_partition(8, N, d, n, 0.3, kind=kind, heterogeneity=0.2)
    monkeypatch.setattr(training, "_BLOCK_BYTES", features.nbytes - above)
    theta0 = np.random.default_rng(2).standard_normal(d)
    ref = Objective(features, targets, kind=kind, ridge=ridge)
    f_star = ref.optimum()[1]
    want = training.ObjectiveSpec(kind, d, ref.smoothness(), ref.grad_variance_bound(theta0),
                                  ref.full_loss(theta0) - f_star)
    obj, baseline = Objective(features, targets, kind=kind, ridge=ridge), threading.active_count()
    calls, pools = _spec_calls(monkeypatch), []
    monkeypatch.setattr(training, "ThreadPoolExecutor",
                        lambda n: pools.append(n) or ThreadPoolExecutor(n))
    assert obj.spec(theta0) == want
    assert threading.active_count() == baseline and bool(pools) == above
    assert calls.count(("gram built", True)) == 1 and ("gram built", False) not in calls
    if kind == "least_squares":
        assert calls[0] == ("gram built", True)  # before the split: no race for the cache
    else:  # logistic's optimum never reads the Gram
        assert ("gram read", False) not in calls
    names = [name for name, _ in calls]
    assert above or names.index("optimum") < names.index("smoothness")
    ran = set(calls)  # optimum() also calls full_loss, at theta*, on its own thread
    assert {("optimum", not above), ("smoothness", True), ("grad_variance_bound", True),
            ("full_loss", True)} <= ran and ("optimum", above) not in ran
    assert ("smoothness", False) not in ran and ("grad_variance_bound", False) not in ran


@pytest.mark.parametrize("above", [True, False], ids=["above-gate", "at-gate"])
@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_spec_raises_a_side_constants_error(kind, above, monkeypatch):
    features, targets = synth_partition(8, 4, 5, 9, 0.3, kind=kind)
    monkeypatch.setattr(training, "_BLOCK_BYTES", features.nbytes - above)
    obj, baseline = Objective(features, targets, kind=kind), threading.active_count()

    def fails(self, theta0):
        raise ValueError("side")
    monkeypatch.setattr(Objective, "grad_variance_bound", fails)
    with pytest.raises(ValueError, match="^side$"):
        obj.spec(np.zeros(5))
    assert threading.active_count() == baseline


@pytest.mark.parametrize("optimum_first", [True, False])
@pytest.mark.parametrize("above", [True, False], ids=["above-gate", "at-gate"])
def test_spec_raises_the_optimums_error_when_both_fail(above, optimum_first, monkeypatch):
    # Whichever side fails first, the optimum's error is the one seen, and the
    # worker has been joined when it is.
    features, targets = synth_partition(8, 4, 5, 9, 0.3)
    monkeypatch.setattr(training, "_BLOCK_BYTES", features.nbytes - above)
    obj, baseline = Objective(features, targets), threading.active_count()
    done = []

    def optimum(self):
        time.sleep(0 if optimum_first else 0.05)
        raise ValueError("optimum")

    def side(self):
        time.sleep(0.05 if optimum_first else 0)
        done.append(threading.current_thread() is threading.main_thread())
        raise ValueError("side")
    monkeypatch.setattr(Objective, "optimum", optimum)
    monkeypatch.setattr(Objective, "smoothness", side)
    with pytest.raises(ValueError, match="^optimum$"):
        obj.spec(np.zeros(5))
    assert done == ([True] if above else [])  # on one thread, the side never ran
    assert threading.active_count() == baseline


_SPEC_HEX = """
from gaulrq.config import ExperimentConfig, build_simulation
sim = build_simulation(ExperimentConfig.from_dict(dict(
    algorithm="gau_lrq_sgd", clip_mode="fixed", objective="logistic", N=50, B=10, Q=20, K=10,
    eta=0.5, epsilon=4.0, delta=1e-5, tau=0.9, s2=1.0, d=100, n_per_client=400,
    label_noise=0.0, batch_size=0, seed=0, run_id="local")))
spec = sim.objective.spec(sim.theta0)
print(spec.smoothness.hex(), spec.grad_variance.hex(), spec.optimum_gap.hex())
"""


def test_spec_bits_of_the_local_heavy_benchmark(fresh):
    # The bound report's constants on perfbench's local-heavy data (seed 0; every
    # variant shares the data and theta0), L-BFGS optimum included, pinned to the
    # bit at one BLAS thread. nu moves with the thread count (OpenBLAS splits the
    # Gram's X^T X), so two runs at two threads agree only with each other.
    specs = []
    for threads in (1, 2, 2):
        proc = fresh("-c", _SPEC_HEX, threads=threads)
        assert proc.returncode == 0, proc.stderr
        specs.append(proc.stdout.split())
    assert specs[0] == ["0x1.227c55b35a65cp-2", "0x1.b509593b2ec8ep+5", "0x1.0fa0b8c838485p+2"]
    assert len(specs[1]) == 3 and specs[1] == specs[2]
