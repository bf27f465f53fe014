"""Objectives, gradients, and the local-SGD inner loop.

Desk-scale objectives stand in for deep networks: least squares has an
analytic smoothness constant and optimum, so every closed-form bound can
be evaluated exactly; logistic regression adds a nonquadratic case. Both
are defined over synthetic per-client datasets with a planted weight
vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .errors import DivergedError, InvalidParameterError

OBJECTIVE_KINDS = ("least_squares", "logistic")


@dataclass
class LocalDataset:
    """One client's (features, targets) shard."""

    features: np.ndarray
    targets: np.ndarray
    client_id: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.features.shape[0] != self.targets.shape[0]:
            raise InvalidParameterError("feature/target row counts differ")
        if not (np.all(np.isfinite(self.features)) and np.all(np.isfinite(self.targets))):
            raise InvalidParameterError("dataset entries must be finite")

    @property
    def n(self):
        return self.features.shape[0]


@dataclass(frozen=True)
class ObjectiveSpec:
    """Certified constants of an objective, measured or derived once.

    smoothness is analytic (largest Gram eigenvalue, scaled by 1/4 for
    logistic, plus the ridge); grad_variance is the empirical single-sample
    gradient variance bound at theta0; optimum_gap is F(theta0) - F(theta*).
    """

    kind: str
    dimension: int
    smoothness: float
    grad_variance: float
    optimum_gap: float
    ridge: float = 0.0


class Objective:
    """A differentiable objective over N client shards of equal size n.

    The global objective is the mean of per-client means plus an optional
    ridge term. Shards of different sizes raise InvalidParameterError. All
    evaluation paths are pure in (theta, data).
    """

    def __init__(self, datasets, kind="least_squares", ridge=0.0):
        if kind not in OBJECTIVE_KINDS:
            raise InvalidParameterError(f"unknown objective kind {kind!r}")
        if ridge < 0.0:
            raise InvalidParameterError("ridge must be >= 0")
        if not datasets:
            raise InvalidParameterError("need at least one client dataset")
        self.datasets = list(datasets)
        N, n = len(self.datasets), self.datasets[0].n
        if any(ds.n != n for ds in self.datasets):
            raise InvalidParameterError("client shards must have equal sizes")
        self.kind = kind
        self.ridge = float(ridge)
        self.dimension = self.datasets[0].features.shape[1]
        # Every sample weighs 1/(N*n): the mean of equal-size per-client means.
        self._w = 1.0 / (N * n)
        self._X = np.vstack([ds.features for ds in self.datasets])
        self._y = np.concatenate([ds.targets for ds in self.datasets])
        # Zero-copy (N, n, d) and (N, n) views of the same arrays, for the stepper.
        self.shards = (self._X.reshape(N, n, -1), self._y.reshape(N, n))
        self._gram = None
        self._nu = None
        self._optimum = None

    # -- evaluation ---------------------------------------------------------

    def full_loss(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        z = self._X @ theta
        if self.kind == "least_squares":
            data = 0.5 * np.sum(self._w * (z - self._y) ** 2)
        else:
            # Stable log(1 + exp(z)) - y*z.
            data = np.sum(self._w * (np.logaddexp(0.0, z) - self._y * z))
        return float(data + 0.5 * self.ridge * theta @ theta)

    def full_gradient(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        resid = _residual(self.kind, self._X @ theta, self._y)
        return self._X.T @ (self._w * resid) + self.ridge * theta

    def sample_gradients(self, theta, dataset, indices):
        """Per-sample gradients (len(indices) x d) of one client's loss."""
        theta = np.asarray(theta, dtype=np.float64)
        X = dataset.features[indices]
        y = dataset.targets[indices]
        return X * _residual(self.kind, X @ theta, y)[:, None] + self.ridge * theta

    # -- certified constants ------------------------------------------------

    def _weighted_gram(self):
        """The mean Gram matrix on its smaller side, built once.

        X^T W X (d x d), or A A^T with A = W^(1/2) X when there are fewer
        samples than dimensions: the two share their nonzero eigenvalues,
        and wide models never form a d x d array.
        """
        if self._gram is None:
            if self._X.shape[0] < self.dimension:
                a = self._X * np.sqrt(self._w)
                self._gram = a @ a.T
            else:
                self._gram = (self._X * self._w).T @ self._X
        return self._gram

    def smoothness(self):
        """Largest eigenvalue of the mean Gram matrix (1/4-scaled for logistic)."""
        if self._nu is None:
            lam = float(np.linalg.eigvalsh(self._weighted_gram())[-1])
            factor = 1.0 if self.kind == "least_squares" else 0.25
            self._nu = factor * lam + self.ridge
        return self._nu

    def optimum(self):
        """(theta*, F(theta*)); analytic for least squares, converged otherwise."""
        if self._optimum is None:
            if self.kind == "least_squares":
                gram = self._weighted_gram()
                gram = gram + self.ridge * np.eye(gram.shape[0])
                if gram.shape[0] < self.dimension:
                    # Push-through: (A^T A + rI)^-1 A^T b = A^T (A A^T + rI)^-1 b,
                    # the minimum-norm interpolant at ridge r = 0.
                    root_w = np.sqrt(self._w)
                    alpha = np.linalg.solve(gram, root_w * self._y)
                    theta = (self._X * root_w).T @ alpha
                else:
                    rhs = self._X.T @ (self._w * self._y)
                    theta = np.linalg.solve(gram, rhs)
            else:
                res = minimize(self.full_loss, np.zeros(self.dimension),
                               jac=self.full_gradient, method="L-BFGS-B",
                               options={"gtol": 1e-12, "maxiter": 2000})
                theta = res.x
            self._optimum = (theta, self.full_loss(theta))
        return self._optimum

    def grad_variance_bound(self, theta0):
        """Max over clients of the empirical single-sample gradient variance."""
        worst = 0.0
        for ds in self.datasets:
            grads = self.sample_gradients(theta0, ds, np.arange(ds.n))
            worst = max(worst, float(np.mean(np.sum((grads - grads.mean(0)) ** 2, axis=1))))
        return worst

    def spec(self, theta0) -> ObjectiveSpec:
        _, f_star = self.optimum()
        return ObjectiveSpec(kind=self.kind, dimension=self.dimension,
                             smoothness=self.smoothness(),
                             grad_variance=self.grad_variance_bound(theta0),
                             optimum_gap=self.full_loss(theta0) - f_star,
                             ridge=self.ridge)


@dataclass
class ModelState:
    """Global parameters plus round index and the objective handle."""

    theta: np.ndarray
    round: int
    objective: Objective

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if not np.all(np.isfinite(self.theta)):
            raise InvalidParameterError("model parameters must be finite")


def local_rounds(model: ModelState, dataset: LocalDataset, Q: int, eta: float,
                 batch_size: int, stream, divergence_ceiling: float = 1e6):
    """Q local SGD steps for one client: stacked_local_rounds on the one-shard
    Objective of ``dataset``. A batch_size below the shard size draws the Q
    batches from ``stream`` in one draw of Q * batch_size uniforms."""
    if batch_size < 1:
        raise InvalidParameterError("batch_size must be >= 1")
    objective = Objective([dataset], model.objective.kind, model.objective.ridge)
    u = stream.next(Q * batch_size)[None] if batch_size < dataset.n else None
    return stacked_local_rounds(objective, model.theta, [0], Q, eta, u,
                                divergence_ceiling)[0]


def stacked_local_rounds(objective: Objective, theta, rows, Q: int, eta: float, u,
                         divergence_ceiling: float):
    """Q local SGD steps for B clients at once; returns their (B, d) updates.

    ``rows`` names the B shards of ``objective.shards`` that train, each from
    ``theta``, without mutating it. ``u`` is None for full-batch steps on the
    whole shard; otherwise it is (B, Q * b) and step q of row i takes the
    batch floor(u[i, q*b:(q+1)*b] * n), drawn with replacement. Any row's
    norm above divergence_ceiling, or NaN, raises DivergedError.
    """
    if Q < 1:
        raise InvalidParameterError("Q must be >= 1")
    if eta < 0.0:
        raise InvalidParameterError("eta must be >= 0")
    X, y = objective.shards
    rows, n = np.asarray(rows), X.shape[1]
    if u is None:
        batches = [(X[rows], y[rows])] * Q
    else:
        idx = np.floor(u * n).astype(np.int64).reshape(rows.size, Q, -1)
        batches = ((X[rows[:, None], idx[:, q]], y[rows[:, None], idx[:, q]])
                   for q in range(Q))
    local = np.tile(theta, (rows.size, 1))
    for Xb, yb in batches:
        z = np.matmul(Xb, local[:, :, None])[:, :, 0]
        g = Xb * _residual(objective.kind, z, yb)[:, :, None]
        g += objective.ridge * local[:, None, :]  # in place: one (B, b, d) temporary
        local = local - eta * g.mean(axis=1)
        if not np.all(np.linalg.norm(local, axis=1) <= divergence_ceiling):
            raise DivergedError(
                f"local model norm exceeded ceiling {divergence_ceiling:g}")
    return local - theta


def _residual(kind: str, z, y):
    """dLoss/dz per sample: z - y for least squares, sigmoid(z) - y for logistic."""
    return (z - y) if kind == "least_squares" else (expit(z) - y)


def weighted_error(grad_sq_norms, tau: float) -> float:
    """Late-round-weighted mean: sum tau^{-k} g_k / sum tau^{-k}.

    Computed with weights renormalized to tau^{K-1-k} so that small tau and
    large K cannot overflow.
    """
    values = np.asarray(grad_sq_norms, dtype=np.float64)
    if values.size == 0:
        raise InvalidParameterError("need at least one gradient norm")
    if not (0.0 < tau <= 1.0):
        raise InvalidParameterError("tau must lie in (0, 1]")
    k = np.arange(values.size, dtype=np.float64)
    w = tau ** (values.size - 1 - k)
    return float(np.sum(w * values) / np.sum(w))


def synth_partition(global_seed: int, N: int, d: int, n_per_client: int,
                    noise_std: float, kind: str = "least_squares",
                    heterogeneity: float = 0.0):
    """Planted-model synthetic shards, deterministic under the seed.

    Features are iid standard normal; targets come from a planted weight
    vector (plus Gaussian label noise for least squares, Bernoulli labels
    through a sigmoid for logistic). ``heterogeneity`` shifts each client's
    planted vector independently; zero gives iid shards.
    """
    if kind not in OBJECTIVE_KINDS:
        raise InvalidParameterError(f"unknown objective kind {kind!r}")
    if N < 1 or d < 1 or n_per_client < 1:
        raise InvalidParameterError("all counts must be positive")
    rng = np.random.default_rng(global_seed)
    w_star = rng.standard_normal(d)
    datasets = []
    for i in range(N):
        w = w_star + heterogeneity * rng.standard_normal(d)
        X = rng.standard_normal((n_per_client, d))
        z = X @ w
        if kind == "least_squares":
            y = z + noise_std * rng.standard_normal(n_per_client)
        else:
            y = (rng.random(n_per_client) < expit(z)).astype(np.float64)
        datasets.append(LocalDataset(features=X, targets=y, client_id=i))
    return datasets
