"""Full-participation FedAvg over pluggable aggregators.

Each round: broadcast the global model, run Q local minibatch SGD steps on
every client, form increments, aggregate (ideal mean, noncoherent
paired-energy, or coherent channel-inversion reference), apply the server
update and record a trace.  All randomness flows through per-(round,
client) stream keys, so runs are reproducible and the aggregator choice
never perturbs data order or model initialization.

One run holds several aggregators, each with its own global model, in
lockstep.  The local streams and minibatches do not depend on the
aggregator, so they are drawn once per round for all of them, and a run
of several aggregators equals each one run alone, trace for trace.

Local training is batched across clients and aggregators.  At the start
of a round each client draws all of its minibatch indices from its own
(round, client) stream, exactly as the single-client reference
:func:`local_round` does.  They are stacked into a (Q, K, B) index array,
with short batches padded and masked, and each of the Q steps is one
:meth:`Objective.stacked_gradient` call over all K clients of all A
aggregators, A·K rows in aggregator-major order; the K clients' features
are gathered once and broadcast over the A models.  Aggregation stays per
aggregator.

Evaluation is stacked too.  Once every aggregator has updated its model,
one :meth:`Objective.evaluate` call takes the train losses and diagnostic
gradients of all A models in one pass over the training set, and one
:meth:`Objective.accuracy` call their test accuracies.  Each row equals
that model evaluated alone, bit for bit.  The divergence checks then run
aggregator by aggregator, each checking its model, aggregation error,
client energy and train loss in turn, so the first aggregator to leave
the finite numbers is the one named.

The train loss that closes round t and the diagnostic gradient that opens
round t + 1 are taken at the same model, so one evaluate call computes
both.  Only round 0 computes its diagnostic gradient on its own, once for
the models that all start equal, and the last round computes each
aggregator's loss alone.  Objectives whose gradients never read the batch
(``uses_batches`` False) draw no minibatch indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimator import (ReedPhyConfig, aggregate_coherent_csit, aggregate_ideal,
                        aggregate_reed)
from .datasets import LabeledDataset
from .moments import _audit, _audit_denominator, _gain, _gain_numerator, eta_schedule
from .streams import StreamKey

__all__ = [
    "Objective",
    "QuadraticObjective",
    "LogisticObjective",
    "MlpObjective",
    "build_objective",
    "FedRunConfig",
    "RoundTrace",
    "DivergenceError",
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
    index array or ``slice(None)`` for every sample.  The round loop calls
    three methods, each on a stack of models: :meth:`stacked_gradient` for
    the local steps of every client under every model, and
    :meth:`evaluate` and :meth:`accuracy` once per round for all A models
    at once.  Each row of a stacked result equals that model evaluated
    alone, bit for bit.  The single-model methods (:meth:`loss`,
    :meth:`stochastic_gradient`, :meth:`full_gradient`) serve the last
    round's loss, the first round's diagnostic gradient and the reference
    :func:`local_round`.
    """

    dim: int

    # False for objectives whose gradients never read the batch, so no
    # minibatch is drawn
    uses_batches: bool = True

    # True for objectives whose diagnostic gradient is taken on rows drawn
    # from the key evaluate gets; for the others no key is built
    uses_proxy: bool = False

    def loss(self, params: np.ndarray, batch) -> float:
        raise NotImplementedError

    def stochastic_gradient(self, params: np.ndarray, batch) -> np.ndarray:
        raise NotImplementedError

    def stacked_gradient(self, params: np.ndarray, batches: np.ndarray,
                         lengths: np.ndarray) -> np.ndarray:
        """Minibatch gradients of K clients under each of A models in one
        call.

        ``batches`` is a (K, B) index array whose row k holds ``lengths[k]``
        valid indices; entries past that are padding and do not contribute.
        ``params`` is (A·K, dim), row a·K + k being client k under model a,
        and every model reads the same K batches.  Returns a new (A·K, dim)
        array, which the caller may overwrite.
        """
        raise NotImplementedError

    def full_gradient(self, params: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def diagnostic_gradient(self, params: np.ndarray, key: StreamKey) -> np.ndarray:
        """The gradient whose squared norm the trace records; exact unless
        an objective overrides it with a subsampled proxy."""
        return self.full_gradient(params)

    def evaluate(self, params: np.ndarray,
                 key: StreamKey | None) -> tuple[np.ndarray, np.ndarray]:
        """Full-train losses (A,) and diagnostic gradients (A, dim) of A
        models (A, dim); with ``uses_proxy``, the proxy rows are drawn once
        from ``key`` for all of them."""
        raise NotImplementedError

    def init_params(self, key: StreamKey) -> np.ndarray:
        raise NotImplementedError

    def accuracy(self, params: np.ndarray, features: np.ndarray,
                 labels: np.ndarray) -> np.ndarray:
        """Classification accuracies (A,) of A models (A, dim); 0.0 for
        objectives without classes."""
        return np.zeros(len(params))


class QuadraticObjective(Objective):
    """f(w) = 1/2 sum_i lambda_i w_i^2, independent of the data rows."""

    uses_batches = False

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

    def evaluate(self, params, key):
        # one dot product per model, as loss takes it: a stacked matmul sums
        # in another order (rows are indexed, which is cheaper than iterating)
        return (np.array([self.loss(params[a]) for a in range(len(params))]),
                self.curvatures * params)

    def init_params(self, key):
        return np.ones(self.dim)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over axis -2, the class axis of (..., C, B) logits, in
    place."""
    z -= z.max(axis=-2, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-2, keepdims=True)
    return z


def _label_entries(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Flat index of each sample's true-class entry in the (..., C, B)
    class probabilities of its (..., B) labels.  The index is the same for
    every model of a stack, which the probabilities may lead with."""
    *lead, B = labels.shape
    rows = np.arange(math.prod(lead)).reshape(*lead, 1)
    return ((rows * n_classes + labels) * B + np.arange(B)).ravel()


def _accuracy(Z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Accuracies (...,) of (..., C, n) logits: the share of the n samples
    whose label is ``Z.argmax(axis=-2)``, without that argmax, which is slow
    along the strided class axis.

    Z is overwritten.  A label wins outright when its logit exceeds every
    other class's; the few columns with a tie or a NaN at the top are
    settled by argmax itself, so its rule (the first class at the max, a
    NaN counting as the max) holds exactly.
    """
    *lead, C, n = Z.shape
    # flat indices into Z, which 1-D fancy indexing reads and writes fastest
    flat = Z.reshape(-1)
    entries = _label_entries(np.broadcast_to(labels, (*lead, n)), C)
    own = flat[entries]
    flat[entries] = -np.inf
    rival = Z.max(axis=-2)  # the best logit of any other class
    own = own.reshape(rival.shape)
    hit = own > rival
    unsure = ~(hit | (own < rival))
    if unsure.any():
        flat[entries] = own.reshape(-1)
        at = np.nonzero(unsure)
        hit[at] = np.moveaxis(Z, -2, -1)[at].argmax(axis=-1) == labels[at[-1]]
    return np.mean(hit, axis=-1)


def _mean_xent(P: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Mean cross-entropy (A,) of A models' (A, C, n) class probabilities;
    each row is reduced alone, so it equals that model's loss."""
    return np.array([-np.mean(np.log(row[entries] + 1e-300))
                     for row in P.reshape(len(P), -1)])


def _xent_logit_grad(P: np.ndarray, entries: np.ndarray,
                     lengths: np.ndarray) -> np.ndarray:
    """Gradient of each batch's summed cross-entropy with respect to its
    logits, computed in place from the (..., C, B) class probabilities of
    batches whose label entries are ``entries``.  With K stacked batches
    (``lengths`` is (K,)), columns past a batch's length are padding and come
    out zero; callers divide the parameter gradient by the lengths."""
    block = entries.size * P.shape[-2]
    P.reshape(-1)[(np.arange(P.size // block)[:, None] * block + entries).ravel()] -= 1.0
    for k in np.flatnonzero(lengths < P.shape[-1]):
        P[..., k, :, lengths[k]:] *= 0.0
    return P


def _pack(pieces: list[np.ndarray], lengths: np.ndarray, dim: int) -> np.ndarray:
    """(..., dim) gradients whose rows are each (..., *shape) piece's rows
    flattened in turn, divided by the batch lengths, which broadcast
    against the leading dims."""
    lead = pieces[0].shape[:-2]
    grads = np.empty(lead + (dim,))
    start = 0
    for piece in pieces:
        tail = piece.shape[len(lead):]
        size = math.prod(tail)
        np.divide(piece, lengths.reshape(lengths.shape + (1,) * len(tail)),
                  out=grads[..., start:start + size].reshape(lead + tail))
        start += size
    return grads


class _Classifier(Objective):
    """Softmax classifier over a labeled dataset.

    Subclasses write the forward and backward pass once, over (..., dim)
    parameters and (..., B, p) features that broadcast against them: a
    stack of A models reads one (K, B, p) gather of the K clients' batches,
    or the (n, p) training set itself.  Activations are kept feature-major,
    as (..., C, B) logits and (..., H, B) hidden units, so that reductions
    over the classes run along contiguous rows.
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
        self._train = self._single(_ALL)

    def _single(self, batch):
        """Features (n, p), label entries (n,) and length (1,) of one batch."""
        y = self.data.labels[batch]
        return self.data.features[batch], _label_entries(y, self.n_classes), np.array([y.size])

    def stacked_gradient(self, params, batches, lengths):
        grads = self._gradients(params.reshape(-1, len(batches), self.dim),
                                self.data.features[batches],
                                _label_entries(self.data.labels[batches], self.n_classes),
                                lengths)
        return grads.reshape(len(params), self.dim)

    def _gradients(self, params, X, entries, lengths):
        raise NotImplementedError


class LogisticObjective(_Classifier):
    """Multinomial logistic regression with bias, mean cross-entropy."""

    def __init__(self, data: LabeledDataset, n_classes: int):
        super().__init__(data, n_classes)
        self.dim = (self.n_features + 1) * n_classes

    def _logits(self, params, X):
        """(..., C, B) logits."""
        split = self.n_features * self.n_classes
        W = params[..., :split].reshape(params.shape[:-1] + (self.n_features, self.n_classes))
        Z = W.swapaxes(-1, -2) @ X.swapaxes(-1, -2)
        Z += params[..., split:, None]
        return Z

    def _probs(self, params, X):
        """(..., C, B) class probabilities."""
        return _softmax(self._logits(params, X))

    def _backward(self, X, P, entries, lengths):
        """Gradients (..., dim) from the forward pass's probabilities, which
        are overwritten."""
        dZ = _xent_logit_grad(P, entries, lengths)
        return _pack([(dZ @ X).swapaxes(-1, -2), dZ.sum(axis=-1)], lengths, self.dim)

    def _gradients(self, params, X, entries, lengths):
        return self._backward(X, self._probs(params, X), entries, lengths)

    def loss(self, params, batch):
        X, entries, _ = self._single(batch)
        return float(_mean_xent(self._probs(params[None], X), entries)[0])

    def stochastic_gradient(self, params, batch):
        return self._gradients(params[None], *self._single(batch))[0]

    def full_gradient(self, params):
        return self.stochastic_gradient(params, _ALL)

    def evaluate(self, params, key):
        """Losses and exact gradients from one pass over the training set."""
        X, entries, n = self._train
        P = self._probs(params, X)
        return _mean_xent(P, entries), self._backward(X, P, entries, n)

    def init_params(self, key):
        return np.zeros(self.dim)

    def accuracy(self, params, features, labels):
        return _accuracy(self._logits(params, features), labels)


class MlpObjective(_Classifier):
    """One-hidden-layer tanh perceptron with softmax cross-entropy."""

    # the diagnostic gradient is taken on this many training samples
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
        """W1 (..., p, H), b1 (..., H, 1), W2 (..., H, C), b2 (..., C, 1) of
        (..., dim) parameters."""
        out, start = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            out.append(params[..., start:start + size].reshape(params.shape[:-1] + shape))
            start += size
        return out

    def _forward(self, params, X):
        """(..., H, B) hidden activations and (..., C, B) logits."""
        W1, b1, W2, b2 = self._unpack(params)
        act = W1.swapaxes(-1, -2) @ X.swapaxes(-1, -2)
        act += b1
        np.tanh(act, out=act)
        Z = W2.swapaxes(-1, -2) @ act
        Z += b2
        return act, Z

    def _backward(self, params, X, act, P, entries, lengths):
        """Gradients (..., dim) from the forward pass's hidden activations
        and probabilities; the probabilities are overwritten."""
        W2 = self._unpack(params)[2]
        dZ = _xent_logit_grad(P, entries, lengths)
        dA = (W2 @ dZ) * (1.0 - act**2)
        return _pack([(dA @ X).swapaxes(-1, -2), dA.sum(axis=-1),
                      act @ dZ.swapaxes(-1, -2), dZ.sum(axis=-1)], lengths, self.dim)

    def _gradients(self, params, X, entries, lengths):
        act, Z = self._forward(params, X)
        return self._backward(params, X, act, _softmax(Z), entries, lengths)

    def loss(self, params, batch):
        X, entries, _ = self._single(batch)
        return float(_mean_xent(_softmax(self._forward(params[None], X)[1]), entries)[0])

    def stochastic_gradient(self, params, batch):
        return self._gradients(params[None], *self._single(batch))[0]

    def full_gradient(self, params):
        return self.stochastic_gradient(params, _ALL)

    @property
    def uses_proxy(self):
        return len(self.data) > self.proxy_samples

    def _diagnostic_rows(self, key):
        """Every training row up to ``proxy_samples`` of them; above that,
        ``proxy_samples`` rows drawn without replacement from ``key``."""
        if not self.uses_proxy:
            return _ALL
        return key.generator().choice(len(self.data), size=self.proxy_samples,
                                      replace=False)

    def diagnostic_gradient(self, params, key):
        return self.stochastic_gradient(params, self._diagnostic_rows(key))

    def evaluate(self, params, key):
        """Losses from one forward pass over the training set; the gradients
        reuse it unless they are taken on proxy rows."""
        X, entries, n = self._train
        act, Z = self._forward(params, X)
        P = _softmax(Z)
        losses = _mean_xent(P, entries)
        rows = self._diagnostic_rows(key)
        if rows is _ALL:
            return losses, self._backward(params, X, act, P, entries, n)
        return losses, self._gradients(params, *self._single(rows))

    def init_params(self, key):
        rng = key.generator()
        return 0.05 * rng.standard_normal(self.dim)

    def accuracy(self, params, features, labels):
        return _accuracy(self._forward(params, features)[1], labels)


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
    """One FedAvg run: protocol sizes, stepsizes, aggregators and radio."""

    Q: int
    T: int
    batch_size: int
    beta0: float
    schedule: str = "constant"  # "constant" | "inv_sqrt"
    clip_G: float | None = None
    aggregators: tuple[str, ...] = ("ideal",)
    phy: ReedPhyConfig = field(default_factory=ReedPhyConfig)
    budgets: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("Q", "T", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.beta0 < np.inf:
            raise ValueError(f"beta0 must be finite and > 0, got {self.beta0}")
        if self.schedule not in ("constant", "inv_sqrt"):
            raise ValueError(f"schedule must be 'constant' or 'inv_sqrt', got {self.schedule!r}")
        object.__setattr__(self, "aggregators", tuple(self.aggregators))
        names = set(self.aggregators)
        if not names <= {"ideal", "reed", "coherent_csit"} or not (
                0 < len(names) == len(self.aggregators)):
            raise ValueError("aggregators must be distinct names out of 'ideal', 'reed' "
                             f"and 'coherent_csit', got {self.aggregators!r}")
        if self.budgets is not None:
            object.__setattr__(self, "budgets", np.asarray(self.budgets, dtype=float))
            if not ((self.budgets > 0) & (self.budgets < np.inf)).all():
                raise ValueError("budgets must be finite and > 0")
            if self.clip_G is None:
                raise ValueError("budgets need clip_G set, to bound each update")
        if self.clip_G is not None and not 0 < self.clip_G < np.inf:
            raise ValueError(f"clip_G must be finite and > 0, got {self.clip_G}")

    def stepsize(self, t: int) -> float:
        if self.schedule == "constant":
            return self.beta0
        return self.beta0 / np.sqrt(1.0 + t)


@dataclass(frozen=True)
class RoundTrace:
    """Per-round record of one FedAvg run; each field is a trace CSV column."""

    round: int
    train_loss: float
    test_acc: float
    grad_norm_sq: float
    eps_norm_sq: float
    max_client_energy: float


class DivergenceError(RuntimeError):
    """A run left the finite numbers: its model, train loss, aggregation
    error or largest client energy is NaN or infinite.  The message names
    the aggregator and the round."""


def clip_gradient(g: np.ndarray, clip_G: float | None) -> np.ndarray:
    """Scale a gradient, or each row of a stack of them, to norm at most
    clip_G, in place; returns ``g``.

    Each row is multiplied by clip_G / max(norm, clip_G).  When no norm
    exceeds clip_G that factor is exactly 1 for every row, and ``g`` is
    returned untouched, which is the same bits.
    """
    if clip_G is None:
        return g
    # the reduction np.linalg.norm runs, without its wrapper; the factor is
    # formed in the norm's buffer
    scale = np.add.reduce(g * g, axis=-1, keepdims=True)
    # the largest norm, as sqrt is monotone; False for a NaN norm
    if math.sqrt(scale.max()) <= clip_G:
        return g
    np.sqrt(scale, out=scale)
    np.maximum(scale, clip_G, out=scale)
    np.divide(clip_G, scale, out=scale)
    g *= scale
    return g


def _client_batches(indices, Q: int, batch_size: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    """The minibatches of one client's Q local steps, drawn from ``rng``.

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
    shuffles = np.zeros((-(-Q // per_shuffle), per_shuffle * width), dtype=np.intp)
    for row in shuffles:
        row[:n] = rng.permutation(indices)
    lengths = [min(width, n - width * (q % per_shuffle)) for q in range(Q)]
    return shuffles.reshape(-1, width)[:Q], lengths


def _round_batches(partitions: list[np.ndarray], Q: int, batch_size: int,
                   key: StreamKey) -> tuple[np.ndarray, np.ndarray]:
    """The minibatches of every client's Q local steps, client k drawn
    from the stream ``key.child(k)``: a (Q, K, B) index array and the
    (Q, K) batch lengths."""
    width = min(batch_size, max(np.size(p) for p in partitions))
    batches = np.zeros((Q, len(partitions), width), dtype=np.intp)
    lengths = np.empty((Q, len(partitions)), dtype=np.intp)
    for k, part in enumerate(partitions):
        rows, lengths[:, k] = _client_batches(part, Q, batch_size, key.generator(k))
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
    batches, lengths = _client_batches(client_indices, Q, batch_size, key.generator())
    w = params.copy()
    for batch, n in zip(batches, lengths):
        g = clip_gradient(objective.stochastic_gradient(w, batch[:n]), clip_G)
        w = w - beta * g
    return w - params


def run_fedavg(cfg: FedRunConfig, objective: Objective,
               partitions: list[np.ndarray],
               test_data: LabeledDataset | None = None) -> dict[str, list[RoundTrace]]:
    """Run T rounds of full-participation FedAvg under every aggregator of
    ``cfg`` and return each one's trace, in the order of ``cfg.aggregators``.

    There is one client per partition.  The aggregators run in lockstep on
    one set of minibatches, each with its own model; a run of several equals
    each aggregator run alone.  With "reed" and budgets set, the aggregation
    gain is rescheduled every round from the round's stepsize; a run whose
    gains are not all finite and > 0 stops before its first round.
    """
    K = len(partitions)
    if K == 0:
        raise ValueError("partitions must hold at least one client")
    names = cfg.aggregators
    A = len(names)
    root = StreamKey(cfg.seed)
    w = objective.init_params(root.child(_DOM_INIT))
    d = objective.dim
    stack = np.repeat(w[None], A, axis=0)  # row a: aggregator a's model
    # every (round, client) and (round, chip, branch) key of the run at once
    local_keys, channel_keys = root.child(_DOM_LOCAL), root.child(_DOM_CHANNEL)
    if objective.uses_batches:
        local_keys = local_keys.grid(cfg.T, K)
    budgeted = "reed" in names and cfg.budgets is not None
    # the parts of the audit and the gain that no round changes
    if "reed" in names:
        reed_keys = channel_keys.grid(cfg.T, cfg.phy.n_chips, 2)
        kmd = _audit_denominator(cfg.phy, K, d)
    if "coherent_csit" in names:
        csit_keys = channel_keys.grid(cfg.T)
    if budgeted:
        # no schedule increases beta, so the gain is least at round 0 and
        # most at round T - 1
        with np.errstate(over="ignore", divide="ignore"):
            lo, hi = (eta_schedule(cfg.budgets, K, d, cfg.phy.mean_powers, cfg.phy.weight_sum,
                                   cfg.stepsize(t), cfg.Q, cfg.clip_G) for t in (0, cfg.T - 1))
            numerator = _gain_numerator(cfg.budgets, K, d, cfg.phy.mean_powers)
        if not (0 < lo and hi < math.inf):
            raise ValueError(f"budgets must give finite gains > 0, got {lo} at round 0 "
                             f"and {hi} at round {cfg.T - 1}")
    grads = np.broadcast_to(objective.diagnostic_gradient(w, local_keys.child(0, K)), (A, d))
    traces: dict[str, list[RoundTrace]] = {name: [] for name in names}
    test_acc = [0.0] * A

    # a diverging run overflows; the checks below name what went non-finite
    # instead of letting NumPy warn about every step on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.T):
            beta = cfg.stepsize(t)

            # the minibatches do not depend on the aggregator; row a·K + k of the
            # (A·K)-row stack is client k under aggregator a, and every
            # aggregator reads the same K batches
            if objective.uses_batches:
                batches, lengths = _round_batches(partitions, cfg.Q, cfg.batch_size,
                                                  local_keys.child(t))
            else:
                batches = lengths = [None] * cfg.Q
            local = np.repeat(stack, K, axis=0)
            for q in range(cfg.Q):
                # in place: stacked_gradient returns a new array, and local is a copy
                step = clip_gradient(objective.stacked_gradient(local, batches[q], lengths[q]),
                                     cfg.clip_G)
                step *= beta
                local -= step

            phy = cfg.phy
            if budgeted:
                phy = phy.with_eta(_gain(numerator, phy.weight_sum, beta, cfg.Q, cfg.clip_G))
            eps_norm_sq, max_energy = [], []
            for a, name in enumerate(names):
                increments = local[a * K:(a + 1) * K] - stack[a]
                ideal = aggregate_ideal(increments)
                energy = 0.0
                if name == "reed":
                    update = aggregate_reed(increments, phy, reed_keys.child(t))
                    energy = float(_audit(increments, phy, kmd).max())
                elif name == "coherent_csit":
                    update = aggregate_coherent_csit(increments, cfg.phy, csit_keys.child(t))
                else:
                    update = ideal
                eps = update - ideal
                stack[a] += update
                eps_norm_sq.append(float(eps @ eps))
                max_energy.append(energy)

            # every model at once; the gradients are round t + 1's diagnostic
            # gradients, and after the last round no trace reads them
            if t + 1 < cfg.T:
                key = local_keys.child(t + 1, K) if objective.uses_proxy else None
                losses, next_grads = objective.evaluate(stack, key)
            else:
                losses, next_grads = [objective.loss(w, _ALL) for w in stack], None
            if test_data is not None:
                test_acc = objective.accuracy(stack, test_data.features,
                                              test_data.labels).tolist()

            # aggregator by aggregator, so the first to leave the finite
            # numbers is the one named
            for a, name in enumerate(names):
                loss = float(losses[a])
                for what, finite in (("model", np.isfinite(stack[a]).all()),
                                     ("eps_norm_sq", math.isfinite(eps_norm_sq[a])),
                                     ("max_client_energy", math.isfinite(max_energy[a])),
                                     ("train loss", math.isfinite(loss))):
                    if not finite:
                        raise DivergenceError(f"aggregator {name!r}: non-finite {what} "
                                              f"after round {t}")
                g = grads[a]
                traces[name].append(RoundTrace(t, loss, test_acc[a], float(g @ g),
                                               eps_norm_sq[a], max_energy[a]))
            grads = next_grads
    return traces
