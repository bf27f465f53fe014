import numpy as np
import pytest

from gaulrq.errors import DivergedError, InvalidParameterError
from gaulrq.streams import DrawStream, SeedMaterial
from gaulrq.training import (LocalDataset, ModelState, Objective,
                             local_rounds, synth_partition, weighted_error)


def _objective(seed=0, N=4, d=3, n=6, noise=0.0, kind="least_squares", **kw):
    data = synth_partition(seed, N, d, n, noise, kind=kind)
    return Objective(data, kind=kind, **kw)


# -- synthetic data ---------------------------------------------------------

def test_synth_deterministic():
    a = synth_partition(3, 2, 4, 5, 0.2)
    b = synth_partition(3, 2, 4, 5, 0.2)
    for da, db in zip(a, b):
        assert np.array_equal(da.features, db.features)
        assert np.array_equal(da.targets, db.targets)


def test_synth_shapes():
    data = synth_partition(0, 2, 2, 3, 0.0)
    assert len(data) == 2
    for i, ds in enumerate(data):
        assert ds.features.shape == (3, 2)
        assert ds.targets.shape == (3,)
        assert ds.client_id == i


def test_noiseless_optimum_is_planted_vector():
    obj = _objective(seed=5, N=5, d=4, n=20, noise=0.0)
    theta_star, f_star = obj.optimum()
    assert f_star == pytest.approx(0.0, abs=1e-18)
    assert np.linalg.norm(obj.full_gradient(theta_star)) < 1e-10


def test_logistic_targets_binary():
    data = synth_partition(1, 2, 3, 50, 0.0, kind="logistic")
    for ds in data:
        assert set(np.unique(ds.targets)) <= {0.0, 1.0}


def test_dataset_validation():
    with pytest.raises(InvalidParameterError):
        LocalDataset(np.zeros((3, 2)), np.zeros(4), 0)
    with pytest.raises(InvalidParameterError):
        LocalDataset(np.array([[np.inf]]), np.zeros(1), 0)


# -- gradients --------------------------------------------------------------

def test_singleton_batches_average_to_full_gradient():
    obj = _objective()
    ds = obj.datasets[0]
    theta = np.array([0.1, 0.7, -0.4])
    singles = [obj.sample_gradients(theta, ds, [i])[0] for i in range(ds.n)]
    # One-shard objective: its full gradient is that client's local gradient.
    local = Objective([ds], kind=obj.kind)
    assert np.allclose(np.mean(singles, axis=0), local.full_gradient(theta), atol=1e-12)


def test_zero_gradient_at_optimum():
    obj = _objective(noise=0.3)
    theta_star, _ = obj.optimum()
    assert np.linalg.norm(obj.full_gradient(theta_star)) < 1e-10


def test_gradient_matches_finite_differences():
    for kind in ("least_squares", "logistic"):
        obj = _objective(seed=2, kind=kind, ridge=0.01)
        rng = np.random.default_rng(8)
        for _ in range(20):
            theta = rng.standard_normal(3)
            g = obj.full_gradient(theta)
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
        lhs = np.linalg.norm(obj.full_gradient(a) - obj.full_gradient(b))
        assert lhs <= nu * np.linalg.norm(a - b) + 1e-9


def test_thin_gram_matches_wide():
    # Fewer samples (6) than dimensions (10): the thin N*n x N*n path must
    # reproduce the d x d arithmetic.
    rng = np.random.default_rng(12)
    data = [LocalDataset(rng.standard_normal((n, 10)), rng.standard_normal(n), i)
            for i, n in enumerate((3, 3))]
    X = np.vstack([ds.features for ds in data])
    y = np.concatenate([ds.targets for ds in data])
    w = np.full(6, 1.0 / 6)
    gram = (X * w[:, None]).T @ X
    for ridge in (0.0, 0.1):
        obj = Objective(data, ridge=ridge)
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
    assert np.array_equal(delta, theta - theta0)


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
