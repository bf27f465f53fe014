"""Objectives, gradients, and the local-SGD inner loop.

Desk-scale objectives stand in for deep networks: least squares has an
analytic smoothness constant and optimum, so every closed-form bound can
be evaluated exactly; logistic regression adds a nonquadratic case. Both
are defined over N equal client shards, one (N, n, d) features tensor and
(N, n) targets, drawn around a planted weight vector.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DivergedError, InvalidParameterError

OBJECTIVE_KINDS = ("least_squares", "logistic")
# Bytes per block of stacked_local_rounds and the build's scans: half a 2 MiB per-core L2.
_BLOCK_BYTES = 1 << 20
_SLAB = 1 << 20  # values per seeded slab of synth_partition's features: defines the data
# The trace evaluation's block of data and width of thetas: like _SLAB they define bits.
_EVAL_BYTES, _EVAL_WIDTH = 1 << 20, 8


def _now(fn, *args):  # beside's inline submit: fn(*args) at once, read back by .result()
    (done := Future()).set_result(fn(*args))
    return done


@contextmanager
def beside(nbytes):
    """The package's one gate for a second thread: yields submit(fn, *args) -> .result(). Past
    _BLOCK_BYTES of data, a ThreadPoolExecutor(1)'s, shut down and joined on exit (an error
    left unread there is dropped); else _now, on the caller at once. Its three callers, where
    the overlap measured its worth: synth_partition's slabs, spec's optimum, run()'s rounds."""
    if nbytes <= _BLOCK_BYTES:
        yield _now
    else:
        with ThreadPoolExecutor(1) as pool:
            yield pool.submit


class LocalDataset(NamedTuple):
    """One client's (n, d) features and (n,) targets: row views of an
    Objective's shards, which validated them."""

    features: np.ndarray
    targets: np.ndarray

    @property
    def n(self):
        return self.features.shape[0]


@dataclass(frozen=True)
class ObjectiveSpec:
    """Certified constants of an objective at theta0, as Objective.spec measures them.

    smoothness is analytic (largest Gram eigenvalue, scaled by 1/4 for
    logistic, plus the ridge); grad_variance is the empirical single-sample
    gradient variance bound at theta0; optimum_gap is F(theta0) - F(theta*).
    """

    kind: str
    dimension: int
    smoothness: float
    grad_variance: float
    optimum_gap: float


class Objective:
    """A differentiable objective over N client shards of equal size n.

    The global objective is the mean of per-client means plus an optional
    ridge term. All evaluation paths are pure in (theta, data). full_loss and
    loss_and_gradient (the L-BFGS optimum's) share one z = X theta and loss formula, so their
    losses agree bitwise; trace_terms, the trace's, sums in other orders, so its loss may
    differ from full_loss's in the last bits.

    ``features`` (N, n, d) and ``targets`` (N, n) are adopted without a copy
    as ``shards``: their shapes make the shards equal. ``datasets`` are the
    per-client row views of them, made when read; ``_X``/``_y`` their (N*n)-row reshapes.
    """

    def __init__(self, features, targets, kind="least_squares", ridge=0.0):
        if kind not in OBJECTIVE_KINDS:
            raise InvalidParameterError(f"unknown objective kind {kind!r}")
        if not 0.0 <= ridge < math.inf:
            raise InvalidParameterError("ridge must be finite and >= 0")
        try:
            X = np.asarray(features, dtype=np.float64)
            y = np.asarray(targets, dtype=np.float64)
        except ValueError as exc:  # ragged nesting
            raise InvalidParameterError(f"client shards must be one array: {exc}") from None
        if X.ndim != 3 or y.shape != X.shape[:2] or X.size == 0:
            raise InvalidParameterError(f"need non-empty (N, n, d) features and (N, n) "
                                        f"targets, got {X.shape} and {y.shape}")
        N, n, self.dimension = X.shape
        self._X, self._y = X.reshape(N * n, -1), y.reshape(N * n)
        rows = max(1, _BLOCK_BYTES // X[0, 0].nbytes)  # row blocks: no (N, n, d) bool array
        if not (all(np.isfinite(self._X[i:i + rows]).all() for i in range(0, N * n, rows))
                and np.isfinite(y).all()):
            raise InvalidParameterError("dataset entries must be finite")
        self.kind = kind
        self.ridge = float(ridge)
        # Every sample weighs 1/(N*n): the mean of equal-size per-client means.
        self._w = 1.0 / (N * n)
        self.shards = (X, y)
        self._gram = None
        self.trace_width = _EVAL_WIDTH if X.nbytes <= _EVAL_BYTES else 1  # trace_terms' block

    datasets = cached_property(lambda self: [LocalDataset(*s) for s in zip(*self.shards)])

    # -- evaluation ---------------------------------------------------------

    def full_loss(self, theta):
        return self._loss(np.asarray(theta, dtype=np.float64))[0]

    def loss_and_gradient(self, theta):
        """(F(theta), grad F(theta)) from one product z = X theta: one pass over the N*n x d
        data, for L-BFGS (on spec's worker past _BLOCK_BYTES). Both products release the GIL;
        the loss is full_loss's, bit for bit."""
        theta = np.asarray(theta, dtype=np.float64)
        loss, z = self._loss(theta)
        resid = _residual(self.kind, z, self._y)
        return loss, np.dot(self._X.T, self._w * resid) + self.ridge * theta  # np.dot: see _loss

    @np.errstate(over="ignore", invalid="ignore")
    def _loss(self, theta):
        """(F(theta), z = X theta); F is inf, without a warning, past float64's range."""
        # np.dot, not @, here and below: matmul holds the GIL through a small-output BLAS call.
        z = np.dot(self._X, theta)
        return float(self._data_loss(z) + np.dot(0.5 * self.ridge * theta, theta)), z

    def _data_loss(self, z, r=None):
        """F less its ridge term, along the last axis of z, a product X theta or rows of them;
        least squares reads their residuals r = z - y if given."""
        if self.kind == "least_squares":
            with np.errstate(over="ignore"):
                return 0.5 * np.sum(self._w * np.square(z - self._y if r is None else r), axis=-1)
        # Stable log(1 + exp(z)) - y*z.
        return np.sum(self._w * (np.logaddexp(0.0, z) - self._y * z), axis=-1)

    @np.errstate(over="ignore", invalid="ignore")  # inf and NaN as BLAS gives them, unwarned
    def trace_terms(self, thetas):
        """(F(theta), ||grad F(theta)||^2) of each theta: bits of (N, n, d) and theta alone, not
        of the other thetas or the BLAS thread count. trace_width thetas, zero-padded, make the
        rows of two products; X^T (w r) adds blocks of whole shards of at most _EVAL_BYTES (one
        if a shard is larger), and the norm is numpy's sum: BLAS splits longer sums over threads."""
        X, width, ridge, terms, shard = self._X, self.trace_width, self.ridge, [], self.shards[0][0]
        rows = len(X) if shard.nbytes > _EVAL_BYTES else _EVAL_BYTES // shard.nbytes * len(shard)
        for lo in range(0, len(thetas), width):
            T = np.zeros((width, self.dimension))
            T[:len(thetas) - lo] = thetas[lo:lo + width]
            Z = np.dot(T, X.T)  # at width 1 the GEMV z = X theta
            R = _residual(self.kind, Z, self._y)
            loss = self._data_loss(Z, R)
            R *= self._w
            G = sum(np.dot(R[:, i:i + rows], X[i:i + rows]) for i in range(0, len(X), rows))
            if ridge:
                G += ridge * T
                loss += np.sum(0.5 * ridge * T * T, axis=1)
            terms += zip(loss.tolist(), np.square(G, out=G).sum(axis=1).tolist())
        return terms[:len(thetas)]

    def sample_gradients(self, theta, dataset, indices):
        """Per-sample gradients (len(indices) x d) of one client's loss."""
        theta = np.asarray(theta, dtype=np.float64)
        X = dataset.features[indices]
        y = dataset.targets[indices]
        return X * _residual(self.kind, X @ theta, y)[:, None] + self.ridge * theta

    # -- certified constants ------------------------------------------------

    def _weighted_gram(self):
        """The mean Gram matrix on its smaller side, built once and shared.

        w X^T X (d x d), or w X X^T (N*n x N*n) when there are fewer samples
        than dimensions: the two share their nonzero eigenvalues, and wide
        models never form a d x d array. Each is one SYRK on the held X, so
        neither side makes a scaled copy of the data.
        """
        if self._gram is None:
            X = self._X
            self._gram = self._w * (X @ X.T if X.shape[0] < self.dimension else X.T @ X)
        return self._gram

    def smoothness(self):
        """Largest eigenvalue of the mean Gram matrix (1/4-scaled for logistic)."""
        lam = float(np.linalg.eigvalsh(self._weighted_gram())[-1])
        return (1.0 if self.kind == "least_squares" else 0.25) * lam + self.ridge

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite F_gap is BoundInputs' error
    def optimum(self):
        """(theta*, F(theta*)); analytic for least squares, converged otherwise.

        Least squares solves (G + rI) theta = X^T (w y) on the d x d side and,
        by push-through, theta = X^T (G + rI)^-1 (w y) on the thin side (the
        minimum-norm interpolant at r = 0); no scaled copy of X. Logistic runs
        L-BFGS-B to max|grad F| <= 1e-12 with ftol=0, whose default stops it
        near 1e-6; a line-search stall at the float floor is accepted.
        """
        if self.kind == "least_squares":
            gram = self._weighted_gram() + self.ridge * np.eye(min(self._X.shape))
            wy = self._w * self._y
            if self._X.shape[0] < self.dimension:
                theta = self._X.T @ np.linalg.solve(gram, wy)
            else:
                theta = np.linalg.solve(gram, self._X.T @ wy)
        else:
            # Imported here, its only caller: scipy.optimize (with scipy.linalg
            # and scipy.sparse) adds ~0.25 s to a process's start.
            from scipy.optimize import minimize
            res = minimize(self.loss_and_gradient, np.zeros(self.dimension),
                           jac=True, method="L-BFGS-B",
                           options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 2000})
            theta = res.x
        return theta, self.full_loss(theta)

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite bound is BoundInputs' error
    def grad_variance_bound(self, theta0):
        """Max over clients of the empirical single-sample gradient variance: the steps of
        sample_gradients on a whole shard, less the ridge term centring cancels, in blocks of
        ~_BLOCK_BYTES of shards (one shard if a shard is bigger)."""
        X, y = self.shards
        theta0, clients = np.asarray(theta0, dtype=np.float64), max(1, _BLOCK_BYTES // X[0].nbytes)
        top, buf = 0.0, np.empty((min(clients, len(X)), *X.shape[1:]))
        for i in range(0, len(X), clients):
            s = slice(i, i + clients)
            grads = np.multiply(X[s], _residual(self.kind, np.matmul(X[s], theta0), y[s])
                                [:, :, None], out=buf[:len(X) - i])
            grads -= grads.mean(1, keepdims=True)
            top = max(top, float(np.square(grads, out=grads).sum(2).mean(1).max()))
        return top

    def spec(self, theta0) -> ObjectiveSpec:
        """The constants at theta0. The optimum is submitted beside the data's bytes: past
        _BLOCK_BYTES it runs on a worker while the caller builds the Gram (least squares first,
        for its optimum; cached from the worker's heap it raised local-heavy's peak RSS ~11%) and
        the other three; else inline, first. The optimum's error wins if both fail. Same calls
        on the same operands, so the same bits."""
        if self.kind == "least_squares":
            self._weighted_gram()
        with beside(self.shards[0].nbytes) as submit:
            optimum = submit(self.optimum)
            try:
                nu, alpha2, f0 = (self.smoothness(), self.grad_variance_bound(theta0),
                                  self.full_loss(theta0))
            finally:  # an optimum's error replaces the side's
                f_star = optimum.result()[1]
        return ObjectiveSpec(kind=self.kind, dimension=self.dimension, smoothness=nu,
                             grad_variance=alpha2, optimum_gap=f0 - f_star)


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
    objective = Objective(dataset.features[None], dataset.targets[None],
                          model.objective.kind, model.objective.ridge)
    u = stream.next(Q * batch_size)[None] if batch_size < dataset.n else None
    batch = None if u is None else np.floor(u * dataset.n).astype(np.int64)
    return stacked_local_rounds(objective, model.theta, [0], Q, eta, batch,
                                divergence_ceiling)[0]


# A step can overflow to inf or NaN before the guard sees it; the guard rejects both.
@np.errstate(over="ignore", invalid="ignore")
def stacked_local_rounds(objective: Objective, theta, rows, Q: int, eta: float, batch,
                         divergence_ceiling: float):
    """Q local SGD steps for B clients at once; returns their (B, d) updates.

    ``rows`` names the B shards of ``objective.shards`` that train, each from
    ``theta``, without mutating it. ``batch`` is None for full-batch steps on
    the whole shard; otherwise it is (B, Q * b) sample rows, and step q of row
    i takes the batch batch[i, q*b:(q+1)*b], drawn with replacement. A step is two
    stacked BLAS products into per-block buffers: z = X_b theta, made the (B, b) residuals
    r in place, and g = r X_b (per-sample gradients summed in another order than their
    mean); theta -= eta * (g / b + ridge * theta) in place, at ridge 0 with neither ridge
    term nor allocation. Any row's norm above divergence_ceiling, or NaN, raises DivergedError.

    Rows run in blocks of about _BLOCK_BYTES of batch data: one gather per
    block (the shards, in place if one, or all Q minibatches), all Q steps on
    it or slices of it, so each step rereads its block from L2, not the whole
    gather from memory. Rows never mix, so the blocks change no result.
    """
    if Q < 1:
        raise InvalidParameterError("Q must be >= 1")
    if eta < 0.0:
        raise InvalidParameterError("eta must be >= 0")
    X, y = objective.shards
    rows, (n, d), ridge = np.asarray(rows), X.shape[1:], objective.ridge
    b = n if batch is None else batch.shape[1] // Q
    offsets = [0] * Q if batch is None else range(0, Q * b, b)  # step q's columns of a gather
    step = max(1, _BLOCK_BYTES // ((offsets[-1] + b) * d * 8))
    local = np.full((rows.size, d), theta, dtype=np.float64)
    for lo in range(0, rows.size, step):
        part, w = rows[lo:lo + step], local[lo:lo + step]  # w: a view, stepped in place
        at = (part[:, None], batch[lo:lo + step]) if batch is not None else (
            part if part.size > 1 else slice(part[0], part[0] + 1))  # one shard: in place
        Xg, yg = X[at], y[at]
        z, g = np.empty((part.size, b, 1)), np.empty((part.size, 1, d))  # the products' outputs
        wz, r, rg, gw = w[:, :, None], z[:, :, 0], z[:, None, :, 0], g[:, 0, :]
        for o in offsets:
            Xb, yb = (Xg, yg) if batch is None else (Xg[:, o:o + b], yg[:, o:o + b])
            _residual(objective.kind, np.matmul(Xb, wz, out=z)[:, :, 0], yb, out=r)
            np.divide(np.matmul(rg, Xb, out=g)[:, 0, :], b, out=gw)
            if ridge:  # adding 0 * w would change no bit of a finite w
                gw += ridge * w
            w -= np.multiply(gw, eta, out=gw)
            _check_divergence(w, divergence_ceiling, "local")
    return local - theta


def _check_divergence(w, ceiling: float, scope: str):
    """Raise DivergedError unless each row of the 2-D ``w`` has L2 norm <= ceiling
    (NaN fails). No |element| above ceiling / sqrt(d) passes at once (NaN does not
    compare); else the rows' inf-norms top, which cannot overflow, and only on rows
    where sqrt(d) * top could pass the ceiling, ||row / top|| <= ceiling / top."""
    limit = ceiling / math.sqrt(w.shape[1])
    if np.maximum.reduce(w, None) <= limit and np.minimum.reduce(w, None) >= -limit:  # no |w|
        return
    top = np.abs(w).max(axis=1)
    big = top > limit  # top > 0 on these rows
    if not (np.all(top <= ceiling) and np.all(
            np.linalg.norm(w[big] / top[big, None], axis=1) <= ceiling / top[big])):
        raise DivergedError(f"{scope} model norm exceeded ceiling {ceiling:g}")


def _residual(kind: str, z, y, out=None):
    """dLoss/dz per sample: z - y for least squares, sigmoid(z) - y for logistic; into out."""
    return np.subtract(z if kind == "least_squares" else _sigmoid(z, out), y, out=out)


@np.errstate(over="ignore")  # exp(-z) overflows below z = -709.78: the sigmoid is 0 there
def _sigmoid(z, out=None):  # 1 / (1 + exp(-z)), scipy's expit formula, into out if given
    return np.divide(1.0, np.add(np.exp(np.negative(z, out=out), out=out), 1.0, out=out), out=out)


@np.errstate(over="ignore", invalid="ignore")  # an inf norm gives inf or NaN, unwarned
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

    Features fill the flat tensor in slabs of _SLAB values, slab s from child s of
    SeedSequence(global_seed), the upper half's beside the features' bytes; the next child
    draws the shifts, if any, the root stream the planted vector, then all label noise or
    sigmoid uniforms. So the data depend on _SLAB (a declared data change), never on threads.

    Returns (features, targets): one read-only (N, n, d) tensor and (N, n)
    array, which Objective adopts as its shards without a copy.
    """
    if kind not in OBJECTIVE_KINDS:
        raise InvalidParameterError(f"unknown objective kind {kind!r}")
    if N < 1 or d < 1 or n_per_client < 1:
        raise InvalidParameterError("all counts must be positive")
    rng = np.random.default_rng(global_seed)
    w, features = rng.standard_normal(d), np.empty((N, n_per_client, d))
    flat, slabs = features.reshape(-1), -(-features.size // _SLAB)
    streams = rng.spawn(slabs + 1)
    fill = lambda lo, hi: [streams[s].standard_normal(out=flat[s * _SLAB:(s + 1) * _SLAB])
                           for s in range(lo, hi)]
    with beside(features.nbytes if slabs > 1 else 0) as submit:  # one slab: no thread
        upper = submit(fill, slabs // 2, slabs)
        fill(0, slabs // 2)
        upper.result()
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite data is Objective's error
        w = w + heterogeneity * streams[slabs].standard_normal((N, d)) if heterogeneity else w
        z = np.matmul(features, w[..., None])[..., 0]
        if kind == "least_squares":
            targets = z + noise_std * rng.standard_normal(z.shape)
        else:
            targets = (rng.random(z.shape) < _sigmoid(z)).astype(np.float64)
    features.flags.writeable = targets.flags.writeable = False
    return features, targets
