"""Full-participation FedAvg over pluggable aggregators.

Each round: broadcast the global model, run Q local minibatch SGD steps on
every client, form increments, aggregate (ideal mean, noncoherent
paired-energy, or coherent channel-inversion reference), apply the server
update and record a trace.  All randomness flows through per-(round,
client) stream keys, so runs are reproducible and the aggregator choice
never perturbs data order or model initialization.

Local training is batched across clients.  At the start of a round each
client draws all of its minibatch indices from its own (round, client)
stream, exactly as the single-client reference :func:`local_round` does.
They are stacked into a (Q, K, B) index array, with short batches padded
and masked, and each of the Q steps is one
:meth:`Objective.stacked_gradient` call over all K clients.

The train loss that closes round t and the diagnostic gradient that opens
round t + 1 are taken at the same model, so one :meth:`Objective.evaluate`
call computes both and the gradient is carried into the next round.  Only
round 0 computes its diagnostic gradient on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .estimator import (ReedPhyConfig, aggregate_coherent_csit, aggregate_ideal,
                        aggregate_reed)
from .datasets import LabeledDataset
from .moments import energy_audit, eta_schedule
from .streams import StreamKey

__all__ = [
    "Objective",
    "QuadraticObjective",
    "LogisticObjective",
    "MlpObjective",
    "build_objective",
    "FedRunConfig",
    "RoundTrace",
    "local_round",
    "run_fedavg",
]

# stream-path domains under the run seed
_DOM_INIT, _DOM_LOCAL, _DOM_CHANNEL = 0, 1, 2

# the whole training set, as a batch
_ALL = slice(None)


class Objective:
    """Differentiable empirical risk with exact analytic gradients.

    Subclasses bind the training data; a batch is an index into it, an
    index array or ``slice(None)`` for every sample.  Gradients of several
    clients at once come from :meth:`stacked_gradient`; the single-batch
    :meth:`stochastic_gradient` is its K = 1 case.
    """

    dim: int

    # ``grad_norm_is_proxy`` marks objectives whose diagnostic gradient is
    # subsampled rather than exact.
    grad_norm_is_proxy: bool = False

    def loss(self, params: np.ndarray, batch) -> float:
        raise NotImplementedError

    def stochastic_gradient(self, params: np.ndarray, batch) -> np.ndarray:
        raise NotImplementedError

    def stacked_gradient(self, params: np.ndarray, batches: np.ndarray,
                         lengths: np.ndarray) -> np.ndarray:
        """Minibatch gradients of K clients in one call.

        ``params`` is (K, dim) and ``batches`` a (K, B) index array whose
        row k holds ``lengths[k]`` valid indices; entries past that are
        padding and do not contribute.  Returns (K, dim).
        """
        raise NotImplementedError

    def full_gradient(self, params: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def diagnostic_gradient(self, params: np.ndarray, key: StreamKey) -> np.ndarray:
        """The gradient whose squared norm the trace records; exact unless
        ``grad_norm_is_proxy``."""
        return self.full_gradient(params)

    def evaluate(self, params: np.ndarray, key: StreamKey) -> tuple[float, np.ndarray]:
        """Full-train loss and diagnostic gradient at ``params``."""
        return self.loss(params, _ALL), self.diagnostic_gradient(params, key)

    def init_params(self, key: StreamKey) -> np.ndarray:
        raise NotImplementedError

    def accuracy(self, params: np.ndarray, features: np.ndarray,
                 labels: np.ndarray) -> float:
        """Classification accuracy; 0.0 for objectives without classes."""
        return 0.0


class QuadraticObjective(Objective):
    """f(w) = 1/2 sum_i lambda_i w_i^2, independent of the data rows."""

    def __init__(self, curvatures: np.ndarray):
        self.curvatures = np.asarray(curvatures, dtype=float)
        if np.any(self.curvatures <= 0):
            raise ValueError("curvatures must be > 0")
        self.dim = self.curvatures.size

    def loss(self, params, batch=None):
        return 0.5 * float(self.curvatures @ params**2)

    def stochastic_gradient(self, params, batch=None):
        return self.curvatures * params

    def stacked_gradient(self, params, batches=None, lengths=None):
        return self.curvatures * params

    def full_gradient(self, params):
        return self.curvatures * params

    def init_params(self, key):
        return np.ones(self.dim)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over axis 1, the class axis of (K, C, B) logits."""
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _mean_xent(P: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of one batch from its (1, C, n) class
    probabilities and (1, n) labels."""
    y = labels[0]
    return float(-np.mean(np.log(P[0, y, np.arange(y.size)] + 1e-300)))


def _xent_logit_grad(P: np.ndarray, labels: np.ndarray,
                     lengths: np.ndarray) -> np.ndarray:
    """Gradient of each client's summed cross-entropy with respect to its
    logits, computed in place from (K, C, B) class probabilities.  Columns
    past a client's batch length are padding and come out zero; callers
    divide the parameter gradient by the lengths."""
    K, _, B = P.shape
    cols = np.arange(B)
    P[np.arange(K)[:, None], labels, cols] -= 1.0
    if lengths.min() < B:
        P *= (cols < lengths[:, None])[:, None, :]
    return P


class _Classifier(Objective):
    """Softmax classifier over a labeled dataset.

    Subclasses write the forward and backward pass once, over stacked
    (K, dim) parameters and (K, B, p) features.  Activations are kept
    feature-major, as (K, C, B) logits and (K, H, B) hidden units, so that
    reductions over the classes run along contiguous rows.
    """

    def __init__(self, data: LabeledDataset, n_classes: int):
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        if len(data) and data.labels.max() >= n_classes:
            raise ValueError(f"n_classes must exceed every label, got {n_classes} "
                             f"for labels up to {data.labels.max()}")
        self.data = data
        self.n_classes = n_classes
        self.n_features = data.features.shape[1]

    def _single(self, batch):
        """Features (1, n, p), labels (1, n) and length (1,) of one batch."""
        y = self.data.labels[batch]
        return self.data.features[batch][None], y[None], np.array([y.size])

    def stacked_gradient(self, params, batches, lengths):
        return self._gradients(params, self.data.features[batches],
                               self.data.labels[batches], lengths)

    def _gradients(self, params, X, labels, lengths):
        raise NotImplementedError


class LogisticObjective(_Classifier):
    """Multinomial logistic regression with bias, mean cross-entropy."""

    def __init__(self, data: LabeledDataset, n_classes: int):
        super().__init__(data, n_classes)
        self.dim = (self.n_features + 1) * n_classes

    def _probs(self, params, X):
        """(K, C, B) class probabilities."""
        split = self.n_features * self.n_classes
        W = params[:, :split].reshape(len(params), self.n_features, self.n_classes)
        b = params[:, split:, None]
        return _softmax(W.transpose(0, 2, 1) @ X.transpose(0, 2, 1) + b)

    def _backward(self, X, P, labels, lengths):
        """Gradients (K, dim) from the forward pass's probabilities, which
        are overwritten."""
        dZ = _xent_logit_grad(P, labels, lengths)
        gW = (dZ @ X).transpose(0, 2, 1)
        grads = np.concatenate([gW.reshape(len(X), -1), dZ.sum(axis=2)], axis=1)
        return grads / lengths[:, None]

    def _gradients(self, params, X, labels, lengths):
        return self._backward(X, self._probs(params, X), labels, lengths)

    def loss(self, params, batch):
        X, y, _ = self._single(batch)
        return _mean_xent(self._probs(params[None], X), y)

    def stochastic_gradient(self, params, batch):
        return self._gradients(params[None], *self._single(batch))[0]

    def full_gradient(self, params):
        return self.stochastic_gradient(params, _ALL)

    def evaluate(self, params, key):
        """Loss and exact gradient from one pass over the training set."""
        X, y, n = self._single(_ALL)
        P = self._probs(params[None], X)
        return _mean_xent(P, y), self._backward(X, P, y, n)[0]

    def init_params(self, key):
        return np.zeros(self.dim)

    def accuracy(self, params, features, labels):
        P = self._probs(params[None], features[None])[0]
        return float(np.mean(P.argmax(axis=0) == labels))


class MlpObjective(_Classifier):
    """One-hidden-layer tanh perceptron with softmax cross-entropy."""

    grad_norm_is_proxy = True
    proxy_samples = 512

    def __init__(self, data: LabeledDataset, hidden: int, n_classes: int):
        if hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {hidden}")
        super().__init__(data, n_classes)
        self.hidden = hidden
        p, H, C = self.n_features, hidden, n_classes
        self.dim = p * H + H + H * C + C
        self._shapes = [(p, H), (H, 1), (H, C), (C, 1)]

    def _unpack(self, params):
        """W1 (K, p, H), b1 (K, H, 1), W2 (K, H, C), b2 (K, C, 1) of
        (K, dim) parameters."""
        out, start = [], 0
        for shape in self._shapes:
            size = int(np.prod(shape))
            out.append(params[:, start:start + size].reshape((len(params),) + shape))
            start += size
        return out

    def _forward(self, params, X):
        """(K, H, B) hidden activations and (K, C, B) logits."""
        W1, b1, W2, b2 = self._unpack(params)
        A = np.tanh(W1.transpose(0, 2, 1) @ X.transpose(0, 2, 1) + b1)
        return A, W2.transpose(0, 2, 1) @ A + b2

    def _gradients(self, params, X, labels, lengths):
        W2 = self._unpack(params)[2]
        A, Z = self._forward(params, X)
        dZ = _xent_logit_grad(_softmax(Z), labels, lengths)
        dA = (W2 @ dZ) * (1.0 - A**2)
        K = len(params)
        grads = np.concatenate([
            (dA @ X).transpose(0, 2, 1).reshape(K, -1), dA.sum(axis=2),
            (A @ dZ.transpose(0, 2, 1)).reshape(K, -1), dZ.sum(axis=2)], axis=1)
        return grads / lengths[:, None]

    def loss(self, params, batch):
        X, y, _ = self._single(batch)
        return _mean_xent(_softmax(self._forward(params[None], X)[1]), y)

    def stochastic_gradient(self, params, batch):
        return self._gradients(params[None], *self._single(batch))[0]

    def full_gradient(self, params):
        return self.stochastic_gradient(params, _ALL)

    def diagnostic_gradient(self, params, key):
        n = len(self.data)
        if n <= self.proxy_samples:
            return self.full_gradient(params)
        idx = key.generator().choice(n, size=self.proxy_samples, replace=False)
        return self.stochastic_gradient(params, idx)

    def init_params(self, key):
        rng = key.generator()
        return 0.05 * rng.standard_normal(self.dim)

    def accuracy(self, params, features, labels):
        Z = self._forward(params[None], features[None])[1][0]
        return float(np.mean(Z.argmax(axis=0) == labels))


def build_objective(kind: str, data: LabeledDataset | None = None, *, d: int = 0,
                    curvature_range: tuple[float, float] = (1.0, 1.0),
                    seed: int = 0, hidden: int = 16,
                    n_classes: int | None = None) -> Objective:
    """Construct one of the supported objective families."""
    if kind == "quadratic":
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        lo, hi = curvature_range
        if lo <= 0 or hi < lo:
            raise ValueError(f"curvature_range must satisfy 0 < low <= high, got ({lo}, {hi})")
        rng = StreamKey(seed).generator()
        return QuadraticObjective(rng.uniform(lo, hi, size=d))
    if data is None:
        raise ValueError(f"objective kind {kind!r} needs a dataset")
    classes = n_classes if n_classes is not None else data.n_classes
    if kind == "logistic":
        return LogisticObjective(data, classes)
    if kind == "mlp":
        return MlpObjective(data, hidden, classes)
    raise ValueError(f"unknown objective kind {kind!r}")


@dataclass(frozen=True)
class FedRunConfig:
    """One FedAvg run: protocol sizes, stepsizes, aggregator and radio."""

    K: int
    Q: int
    T: int
    batch_size: int
    beta0: float
    schedule: str = "constant"  # "constant" | "inv_sqrt"
    clip_G: float | None = None
    aggregator: str = "ideal"  # "ideal" | "reed" | "coherent_csit"
    phy: ReedPhyConfig = field(default_factory=ReedPhyConfig)
    budgets: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("K", "Q", "T", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.beta0 <= 0:
            raise ValueError(f"beta0 must be > 0, got {self.beta0}")
        if self.schedule not in ("constant", "inv_sqrt"):
            raise ValueError(f"schedule must be 'constant' or 'inv_sqrt', got {self.schedule!r}")
        if self.aggregator not in ("ideal", "reed", "coherent_csit"):
            raise ValueError("aggregator must be 'ideal', 'reed' or 'coherent_csit', "
                             f"got {self.aggregator!r}")
        if self.budgets is not None:
            object.__setattr__(self, "budgets", np.asarray(self.budgets, dtype=float))
            if np.any(self.budgets <= 0):
                raise ValueError("budgets must be > 0")
            if self.clip_G is None:
                raise ValueError("budgets need clip_G set, to bound each update")
        if self.clip_G is not None and self.clip_G <= 0:
            raise ValueError(f"clip_G must be > 0, got {self.clip_G}")

    def stepsize(self, t: int) -> float:
        if self.schedule == "constant":
            return self.beta0
        return self.beta0 / np.sqrt(1.0 + t)


@dataclass(frozen=True)
class RoundTrace:
    """Per-round record of one FedAvg run."""

    round: int
    train_loss: float
    test_accuracy: float
    grad_norm_sq: float
    grad_norm_is_proxy: bool
    eps_norm_sq: float
    max_client_energy: float
    eta: float
    beta: float


def clip_gradient(g: np.ndarray, clip_G: float | None) -> np.ndarray:
    """Scale a gradient, or each row of a stack of them, to norm at most
    clip_G."""
    if clip_G is None:
        return g
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    return g * (clip_G / np.maximum(norm, clip_G))


def _client_batches(indices, Q: int, batch_size: int,
                    key: StreamKey) -> tuple[np.ndarray, list[int]]:
    """The minibatches of one client's Q local steps.

    Minibatches are taken without replacement from a shuffle of the
    client's indices, reshuffling whenever the shuffle is used up.  Returns
    a (Q, min(batch_size, n)) index array whose row q holds batch q,
    padded with index 0, and the Q batch lengths.
    """
    indices = np.asarray(indices)
    n = indices.size
    if n == 0:
        raise ValueError("client dataset is empty")
    width = min(batch_size, n)
    per_shuffle = -(-n // width)
    rng = key.generator()
    shuffles = np.zeros((-(-Q // per_shuffle), per_shuffle * width), dtype=np.intp)
    for row in shuffles:
        row[:n] = rng.permutation(indices)
    lengths = [min(width, n - width * (q % per_shuffle)) for q in range(Q)]
    return shuffles.reshape(-1, width)[:Q], lengths


def _round_batches(partitions: list[np.ndarray], Q: int, batch_size: int,
                   key: StreamKey) -> tuple[np.ndarray, np.ndarray]:
    """The minibatches of every client's Q local steps, client k drawn
    from ``key.child(k)``: a (Q, K, B) index array and the (Q, K) batch
    lengths."""
    width = min(batch_size, max(np.size(p) for p in partitions))
    batches = np.zeros((Q, len(partitions), width), dtype=np.intp)
    lengths = np.empty((Q, len(partitions)), dtype=np.intp)
    for k, part in enumerate(partitions):
        rows, lengths[:, k] = _client_batches(part, Q, batch_size, key.child(k))
        batches[:, k, :rows.shape[1]] = rows
    return batches, lengths


def local_round(params: np.ndarray, objective: Objective, client_indices: np.ndarray,
                Q: int, beta: float, batch_size: int, key: StreamKey,
                clip_G: float | None = None) -> np.ndarray:
    """Q local minibatch SGD steps of one client; returns the increment
    w_Q - w_0.

    The single-client reference for the batched steps of
    :func:`run_fedavg`: the same minibatches, one gradient call each.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    batches, lengths = _client_batches(client_indices, Q, batch_size, key)
    w = params.copy()
    for batch, n in zip(batches, lengths):
        g = clip_gradient(objective.stochastic_gradient(w, batch[:n]), clip_G)
        w = w - beta * g
    return w - params


def run_fedavg(cfg: FedRunConfig, objective: Objective,
               partitions: list[np.ndarray],
               test_data: LabeledDataset | None = None) -> list[RoundTrace]:
    """Run T rounds of full-participation FedAvg and return the trace.

    With aggregator="reed" and budgets set, the aggregation gain is
    rescheduled every round from the round's stepsize.
    """
    if len(partitions) != cfg.K:
        raise ValueError(f"need {cfg.K} partitions, got {len(partitions)}")
    root = StreamKey(cfg.seed)
    w = objective.init_params(root.child(_DOM_INIT))
    d = objective.dim
    grad = objective.diagnostic_gradient(w, root.child(_DOM_LOCAL, 0, cfg.K))
    traces: list[RoundTrace] = []

    for t in range(cfg.T):
        beta = cfg.stepsize(t)
        grad_norm_sq = float(grad @ grad)

        batches, lengths = _round_batches(partitions, cfg.Q, cfg.batch_size,
                                          root.child(_DOM_LOCAL, t))
        local = np.repeat(w[None], cfg.K, axis=0)
        for q in range(cfg.Q):
            g = objective.stacked_gradient(local, batches[q], lengths[q])
            local = local - beta * clip_gradient(g, cfg.clip_G)
        increments = local - w

        phy = cfg.phy
        if cfg.aggregator == "reed" and cfg.budgets is not None:
            eta_t = eta_schedule(cfg.budgets, cfg.K, d, phy.mean_powers,
                                 phy.weight_sum, beta, cfg.Q, cfg.clip_G)
            phy = replace(phy, eta=eta_t)

        ideal = aggregate_ideal(increments, d)
        if cfg.aggregator == "ideal":
            update, eps_norm_sq = ideal, 0.0
            max_energy = 0.0
        elif cfg.aggregator == "reed":
            update = aggregate_reed(increments, phy, root.child(_DOM_CHANNEL, t))
            eps = update - ideal
            eps_norm_sq = float(eps @ eps)
            max_energy = float(energy_audit(increments, phy, cfg.K).max())
        else:
            update = aggregate_coherent_csit(increments, phy.eta, phy.noise_var,
                                             root.child(_DOM_CHANNEL, t))
            eps = update - ideal
            eps_norm_sq = float(eps @ eps)
            max_energy = 0.0

        w = w + update
        if not np.all(np.isfinite(w)):
            raise RuntimeError(f"non-finite model after round {t}")

        # the gradient is round t + 1's diagnostic gradient
        train_loss, grad = objective.evaluate(w, root.child(_DOM_LOCAL, t + 1, cfg.K))
        if not np.isfinite(train_loss):
            raise RuntimeError(f"non-finite train loss after round {t}")
        test_acc = (objective.accuracy(w, test_data.features, test_data.labels)
                    if test_data is not None else 0.0)
        traces.append(RoundTrace(
            round=t, train_loss=train_loss, test_accuracy=test_acc,
            grad_norm_sq=grad_norm_sq,
            grad_norm_is_proxy=objective.grad_norm_is_proxy,
            eps_norm_sq=eps_norm_sq, max_client_energy=max_energy,
            eta=phy.eta, beta=beta))
    return traces
