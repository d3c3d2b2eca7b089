"""Full-participation FedAvg over pluggable aggregators.

Each round: broadcast the global model, run Q local minibatch SGD steps on
every client, form increments, aggregate them by each arm's round (the
registry ``AGGREGATORS``), apply the server update and record the round's
row of a trace.  A trace is one (T, F) float array per arm: row t is round
t and column f the quantity named ``TRACE_COLUMNS[f]``.  All randomness
flows through seeded streams, so runs are reproducible and the aggregator
choice never perturbs data order or model initialization.

Stream layout 5: a run builds each of its streams once, before round 0,
and every round reads on from where the last one stopped.  Under the run
seed, client k's minibatches come from the stream (local, k) and the
MLP's proxy rows from (local, K); each ``reed`` arm builds its own
generators of (channel, m, b) for chip m and branch b, and each
``coherent_csit`` arm its own of (channel,) for the receiver noise.  So
besides the model's initialisation a run builds K generators for an
objective that reads batches, 2M per ``reed`` arm, 1 per
``coherent_csit`` arm and 1 for proxy rows, whatever its T, and a run of
T₁ rounds is the first T₁ rounds of any longer run.

One run holds several arms, each an aggregator and the ``ReedPhyConfig``
it reads (:func:`radio_read`) with its own global model, in lockstep.
The local streams and minibatches do not depend on the arm, so they are
drawn once per round for all of them, and a run of several arms equals
each arm run alone, trace for trace: equal arms are one run.
Arms on one radio draw the same channel values, and so do the chips two
``reed`` arms share.

Local training is batched across clients and arms.  At the start of a
round each client draws all of its minibatch indices from its own
stream, exactly as the single-client reference :func:`local_round` does.
They are stacked into a (Q, K, B) index array, with short batches padded
and masked, and each of the Q steps is one
:meth:`Objective.stacked_gradient` call over all K clients of all A arms,
A·K rows in arm-major order; the K clients' features are gathered once
and broadcast over the A models.  Aggregation stays per arm.

Evaluation is stacked too.  Once every arm has updated its model, one
:meth:`Objective.evaluate` call takes the train losses and diagnostic
gradients of all A models in one pass over the training set, and one
:meth:`Objective.accuracy` call their test accuracies.  Each row equals
that model evaluated alone, bit for bit.  The divergence checks then run
arm by arm, each checking its model, aggregation error, client energy and
train loss in turn, so the first arm to leave the finite numbers is the
one named, by its aggregator.

Each model state, the models after s rounds for s = 0 … T, is evaluated
by one evaluate call and nothing else: state 0 before round 0, state s
after round s - 1.  The train loss that closes round t and the diagnostic
gradient that opens round t + 1 are taken at the same model, so one call
gives both.  The losses of state 0 go unread, and state T is evaluated for
its losses alone: no backward pass, and no proxy rows drawn.
Objectives whose gradients never read the batch (``uses_batches`` False)
draw no minibatch indices.

Each arm's start (``AGGREGATORS``) builds what its rounds reuse before
round 0 and checks a budgeted ``reed`` arm's every gain, so a run whose
gains are not all finite and > 0 stops before its first local step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .estimator import (ReedPhyConfig, aggregate_coherent_csit, aggregate_ideal,
                        aggregate_reed, chip_streams)
from .datasets import LabeledDataset, _allocating
from .moments import _audit, _audit_denominator, eta_schedule
from .streams import StreamKey

__all__ = [
    "Objective",
    "QuadraticObjective",
    "LogisticObjective",
    "MlpObjective",
    "build_objective",
    "FedRunConfig",
    "TRACE_COLUMNS",
    "DivergenceError",
    "local_round",
    "run_fedavg",
]

# stream-path domains under the run seed
_DOM_INIT, _DOM_LOCAL, _DOM_CHANNEL = 0, 1, 2

# the whole training set, as a batch
_ALL = slice(None)

# the per-round quantities of a trace, one column each, in order
TRACE_COLUMNS = ("train_loss", "test_acc", "grad_norm_sq", "eps_norm_sq", "max_client_energy")


class Objective:
    """Differentiable empirical risk with exact analytic gradients.

    Subclasses bind the training data; a batch is an index into it, an
    index array or ``slice(None)`` for every sample.  This base declares
    what the round loop calls: :meth:`init_params` once per run, and three
    methods on a stack of models, :meth:`stacked_gradient` for the local
    steps of every client under every model, and :meth:`evaluate` and
    :meth:`accuracy` once per model state for all A models at once.  Each
    row of a stacked result equals that model evaluated alone, bit for
    bit.  The subclasses' single-model methods (``loss``,
    ``stochastic_gradient``, ``full_gradient``) and
    :meth:`diagnostic_gradient` are not on the run path: they serve the
    reference :func:`local_round` and the tests and traces that compare
    against them.
    """

    dim: int

    # False for objectives whose gradients never read the batch, so no
    # minibatch is drawn
    uses_batches: bool = True

    # True for objectives whose diagnostic gradient is taken on rows drawn
    # from the generator evaluate gets; for the others none is built
    uses_proxy: bool = False

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

    def diagnostic_gradient(self, params: np.ndarray,
                            rng: np.random.Generator | None) -> np.ndarray:
        """The gradient whose squared norm the trace records: the
        subclass's exact ``full_gradient``, unless it overrides this with a
        subsampled proxy."""
        return self.full_gradient(params)

    def evaluate(self, params: np.ndarray, rng: np.random.Generator | None,
                 gradients: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """Full-train losses (A,) and diagnostic gradients (A, dim) of A
        models (A, dim); with ``uses_proxy``, the proxy rows are drawn once
        from ``rng`` for all of them.  Without ``gradients``, the losses
        alone, with None for the gradients: no backward pass is taken and
        nothing is drawn."""
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

    def evaluate(self, params, rng, gradients=True):
        # one dot product per model, as loss takes it: a stacked matmul sums
        # in another order (rows are indexed, which is cheaper than iterating)
        return (np.array([self.loss(params[a]) for a in range(len(params))]),
                self.curvatures * params if gradients else None)

    def init_params(self, key):
        return np.ones(self.dim)


def _softmax_parts(z: np.ndarray) -> np.ndarray:
    """Softmax over axis -2, the class axis of (..., C, B) logits, left as
    a quotient: z becomes exp(z - max) in place, and its (..., 1, B) column
    sums are returned."""
    z -= z.max(axis=-2, keepdims=True)
    np.exp(z, out=z)
    return z.sum(axis=-2, keepdims=True)


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


def _mean_xent(E: np.ndarray, sums: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Mean cross-entropy (A,) of A models' class probabilities E / sums
    (:func:`_softmax_parts`); each row is reduced alone, so it equals that
    model's loss."""
    return np.array([-np.mean(np.log(e[entries] / s + 1e-300))
                     for e, s in zip(E.reshape(len(E), -1), sums.reshape(len(E), -1))])


def _targets(labels: np.ndarray, n_classes: int, weights) -> np.ndarray:
    """(..., C, B) one-hot targets of (..., B) labels, times the weights."""
    return (labels[..., None, :] == np.arange(n_classes)[:, None]) * weights


def _xent_logit_grad(E: np.ndarray, sums: np.ndarray, targets: np.ndarray,
                     weights) -> np.ndarray:
    """Gradient of a weighted sum of cross-entropies with respect to the
    logits, (E / sums - one-hot) · weights, in place in E; ``targets`` is
    the one-hot times the weights (:func:`_targets`).  The weights are per
    column, 1/length on a batch's columns and 0 on its padding, so that
    each batch's parameter gradient is its mean."""
    E *= weights / sums
    E -= targets
    return E


def _with_ones(x: np.ndarray) -> np.ndarray:
    """(..., m + 1, B) copy of (..., m, B) inputs whose last row is the
    constant input 1."""
    out = np.ones(x.shape[:-2] + (x.shape[-2] + 1, x.shape[-1]))
    out[..., :-1, :] = x
    return out


def _affine(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(..., O, B) outputs of the affine maps whose (..., m + 1, O) weights
    read (..., m + 1, B) inputs, each column's last input the constant 1.
    Against one 2-D input, the L maps' weights are stacked into one
    (L·O, m + 1) matrix, so that all of them are one matmul; each of its
    rows is the same bits as that map's alone (the stacked-evaluation tests
    hold it to that)."""
    Wt = weights.swapaxes(-1, -2)
    if x.ndim > 2:
        return Wt @ x
    return (Wt.reshape(-1, x.shape[0]) @ x).reshape(Wt.shape[:-1] + x.shape[1:])


def _affine_grad(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(..., m + 1, O) weight gradients of :func:`_affine` from the
    gradients (..., O, B) of its outputs, one matmul per map.  A matmul over
    the stacked maps would sum the B columns in an order that can depend on
    how many maps there are, so its rows would not be each map's alone.
    Against one 2-D input, each map's (O, B) @ (B, m + 1) runs along the
    long rows of both, which is faster for wide inputs."""
    if x.ndim > 2:
        return x @ dout.swapaxes(-1, -2)
    return (dout @ x.T).swapaxes(-1, -2)


def _flat(grads: np.ndarray) -> np.ndarray:
    """(..., a·b) rows of (..., a, b) weight gradients."""
    return grads.reshape(grads.shape[:-2] + (-1,))


class _Classifier(Objective):
    """Softmax classifier over a labeled dataset.

    Every layer is one affine map, read as one matrix: a layer over m
    inputs has (m + 1, O) weights whose last row is its bias, the weight of
    a constant input 1 that follows the m others.  The training set is held
    in that form twice: as (n, p + 1) rows, sample i's features and then a
    1, which the clients' batches are gathered from, and as their
    contiguous (p + 1, n) transpose, which every pass over the whole set
    reads.  The test set's inputs are built the same way, once.

    Subclasses write the forward pass ``_forward(params, x)``, which
    returns (..., C, B) logits and what the backward pass reads, and the
    backward pass ``_backward(params, x, cache, dZ)``, which returns
    (..., dim) gradients from the logits' gradients dZ.  Both run once over
    (..., dim) parameters and (..., p + 1, B) inputs that broadcast against
    them: a stack of A models reads one (K, p + 1, B) gather of the K
    clients' batches, or the (p + 1, n) training inputs, against which the
    A models' first layers are one matmul.  Activations are feature-major,
    (..., C, B) logits and (..., H + 1, B) hidden units, so that reductions
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
        self._inputs = _with_ones(data.features.T)
        self._rows = np.ascontiguousarray(self._inputs.T)
        self._entries = _label_entries(data.labels, n_classes)
        # each sample weighs 1/n in the full-train gradient (an empty set
        # has none to weigh)
        self._weight = 1.0 / max(len(data), 1)
        self._targets = _targets(data.labels, n_classes, self._weight)
        self._test = (None, None)  # the features accuracy last read, and their inputs

    def _batch(self, batch):
        """Inputs (p + 1, B) and labels (B,) of one batch."""
        return self._inputs[:, batch], self.data.labels[batch]

    def _gradients(self, params, x, labels, weights):
        Z, cache = self._forward(params, x)
        sums = _softmax_parts(Z)
        dZ = _xent_logit_grad(Z, sums, _targets(labels, self.n_classes, weights), weights)
        return self._backward(params, x, cache, dZ)

    def _batch_gradients(self, params, batch):
        """Mean gradients (A, dim) of A models on one batch."""
        x, labels = self._batch(batch)
        return self._gradients(params, x, labels, 1.0 / labels.size)

    def _losses(self, params, batch):
        """Mean cross-entropies (A,) of A models on one batch."""
        x, labels = self._batch(batch)
        E = self._forward(params, x)[0]
        return _mean_xent(E, _softmax_parts(E), _label_entries(labels, self.n_classes))

    def _test_inputs(self, features):
        """(p + 1, n) inputs of ``features``, built once for the test set
        that every round's accuracy reads."""
        if self._test[0] is not features:
            self._test = (features, _with_ones(features.T))
        return self._test[1]

    def stacked_gradient(self, params, batches, lengths):
        K, B = batches.shape
        lengths = lengths[:, None]
        weights = (np.arange(B) < lengths) / lengths
        grads = self._gradients(params.reshape(-1, K, self.dim),
                                self._rows.take(batches, axis=0).swapaxes(1, 2),
                                self.data.labels[batches], weights[:, None, :])
        return grads.reshape(len(params), self.dim)

    def evaluate(self, params, rng, gradients=True):
        """Losses from one forward pass over the training set; the gradients
        reuse it unless they are taken on proxy rows."""
        Z, cache = self._forward(params, self._inputs)
        sums = _softmax_parts(Z)
        losses = _mean_xent(Z, sums, self._entries)
        if not gradients:
            return losses, None
        if self.uses_proxy:
            return losses, self._batch_gradients(params, self._diagnostic_rows(rng))
        dZ = _xent_logit_grad(Z, sums, self._targets, self._weight)
        return losses, self._backward(params, self._inputs, cache, dZ)


class LogisticObjective(_Classifier):
    """Multinomial logistic regression with bias, mean cross-entropy.

    The parameters are the (p, C) weights W, row-major, then the C biases
    b: one (p + 1, C) matrix [W; b] whose last row weighs the constant
    feature, so that the logits of a row [x, 1] are x·W + b.
    """

    def __init__(self, data: LabeledDataset, n_classes: int):
        super().__init__(data, n_classes)
        self.dim = (self.n_features + 1) * n_classes

    def _forward(self, params, x):
        return _affine(params.reshape(params.shape[:-1] + (-1, self.n_classes)), x), None

    def _backward(self, params, x, cache, dZ):
        return _flat(_affine_grad(dZ, x))

    def loss(self, params, batch):
        return float(self._losses(params[None], batch)[0])

    def stochastic_gradient(self, params, batch):
        return self._batch_gradients(params[None], batch)[0]

    def full_gradient(self, params):
        return self.stochastic_gradient(params, _ALL)

    def init_params(self, key):
        return np.zeros(self.dim)

    def accuracy(self, params, features, labels):
        return _accuracy(self._forward(params, self._test_inputs(features))[0], labels)


class MlpObjective(_Classifier):
    """One-hidden-layer tanh perceptron with softmax cross-entropy.

    The parameters are W1 (p, H), b1 (H), W2 (H, C) and b2 (C), each
    row-major, in turn: two matrices [W1; b1] (p + 1, H) and [W2; b2]
    (H + 1, C), each layer's bias the weight of a constant input.
    """

    # the diagnostic gradient is taken on this many training samples
    proxy_samples = 512

    def __init__(self, data: LabeledDataset, hidden: int, n_classes: int):
        super().__init__(data, n_classes)
        self.hidden = hidden
        self.dim = (self.n_features + 1) * hidden + (hidden + 1) * n_classes

    def _layers(self, params):
        """[W1; b1] (..., p + 1, H) and [W2; b2] (..., H + 1, C) of (..., dim)
        parameters."""
        lead, split = params.shape[:-1], (self.n_features + 1) * self.hidden
        return (params[..., :split].reshape(lead + (self.n_features + 1, self.hidden)),
                params[..., split:].reshape(lead + (self.hidden + 1, self.n_classes)))

    def _forward(self, params, x):
        """(..., C, B) logits and the (..., H + 1, B) hidden activations,
        with their constant row."""
        W1, W2 = self._layers(params)
        act = _with_ones(np.tanh(_affine(W1, x)))
        return _affine(W2, act), act

    def _backward(self, params, x, act, dZ):
        W2 = self._layers(params)[1][..., :-1, :]
        dA = (W2 @ dZ) * (1.0 - act[..., :-1, :]**2)
        return np.concatenate([_flat(_affine_grad(dA, x)), _flat(_affine_grad(dZ, act))],
                              axis=-1)

    def loss(self, params, batch):
        return float(self._losses(params[None], batch)[0])

    def stochastic_gradient(self, params, batch):
        return self._batch_gradients(params[None], batch)[0]

    def full_gradient(self, params):
        return self.stochastic_gradient(params, _ALL)

    @property
    def uses_proxy(self):
        return len(self.data) > self.proxy_samples

    def _diagnostic_rows(self, rng):
        """Every training row up to ``proxy_samples`` of them; above that,
        ``proxy_samples`` rows drawn without replacement from ``rng``."""
        if not self.uses_proxy:
            return _ALL
        return rng.choice(len(self.data), size=self.proxy_samples, replace=False)

    def diagnostic_gradient(self, params, rng):
        return self.stochastic_gradient(params, self._diagnostic_rows(rng))

    def init_params(self, key):
        # a run's first array of length dim; a config check builds none
        with _allocating("hidden"):
            return 0.05 * key.generator().standard_normal(self.dim)

    def accuracy(self, params, features, labels):
        return _accuracy(self._forward(params, self._test_inputs(features))[0], labels)


def build_objective(kind: str, data: LabeledDataset | None = None, *,
                    d: int | None = None,
                    curvature_range: tuple[float, float] = (1.0, 1.0),
                    seed: int = 0, hidden: int = 16,
                    n_classes: int | None = None) -> Objective:
    """Construct one of the supported objective families.  The quadratic
    needs ``d``.  Every field given is checked, whichever family reads it,
    before anything is drawn or allocated."""
    if d is None and kind == "quadratic" or d is not None and d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    lo, hi = curvature_range
    if lo <= 0 or hi < lo:
        raise ValueError(f"curvature_range must satisfy 0 < low <= high, got ({lo}, {hi})")
    if hidden < 1:
        raise ValueError(f"hidden must be >= 1, got {hidden}")
    if kind == "quadratic":
        with _allocating("d"):
            curvatures = StreamKey(seed).generator().uniform(lo, hi, size=d)
        return QuadraticObjective(curvatures)
    if data is None:
        raise ValueError(f"objective kind {kind!r} needs a dataset")
    classes = n_classes if n_classes is not None else data.n_classes
    if kind == "logistic":
        return LogisticObjective(data, classes)
    if kind == "mlp":
        return MlpObjective(data, hidden, classes)
    raise ValueError(f"unknown objective kind {kind!r}")


def _start_ideal(phy, cfg, channel_key, K, d):
    return lambda increments, ideal, t: (ideal, 0.0)


def _start_coherent_csit(phy, cfg, channel_key, K, d):
    rng = channel_key.generator()
    return lambda increments, ideal, t: (aggregate_coherent_csit(increments, phy, rng), 0.0)


def _start_reed(phy, cfg, channel_key, K, d):
    """A reed arm's streams, audit denominator and checked budgeted gains."""
    gains = None
    if cfg.budgets is not None:
        with _allocating("T"):
            betas = np.fromiter(map(cfg.stepsize, range(cfg.T)), float, cfg.T)
        gains = eta_schedule(cfg.budgets, K, d, phy.mean_powers, phy.weight_sum, betas,
                             cfg.Q, cfg.clip_G).tolist()  # floats: cheaper to read per round
    streams, kmd = chip_streams(phy, channel_key), _audit_denominator(phy, K, d)
    def round_(increments, ideal, t):
        radio = phy if gains is None else phy.with_eta(gains[t])
        return aggregate_reed(increments, radio, streams), _audit(increments, radio, kmd).max()
    return round_


# aggregator -> (the radio fields it reads, whether budgets set its gain in
# eta's place, its start (phy, cfg, channel_key, K, d) -> its round (increments,
# ideal, t) -> (update, max_client_energy), which calls aggregate_* by name)
AGGREGATORS = {
    "ideal": ((), False, _start_ideal),
    "reed": (tuple(f.name for f in fields(ReedPhyConfig) if f.init), True, _start_reed),
    "coherent_csit": (("eta", "noise_var"), False, _start_coherent_csit),
}


def radio_read(aggregator: str, phy: ReedPhyConfig, budgets=None) -> ReedPhyConfig:
    """What ``aggregator`` reads of ``phy``, with defaults in every other
    field; none of ``eta`` if ``budgets``, when set, give its gain."""
    reads, budgeted, _ = AGGREGATORS[aggregator]
    return ReedPhyConfig(**{f: getattr(phy, f) for f in reads
                            if not (budgeted and budgets is not None and f == "eta")})


@dataclass(frozen=True)
class FedRunConfig:
    """One FedAvg run: protocol sizes, stepsizes and arms, each an
    aggregator and what it reads of its radio (equal arms compare equal)."""

    Q: int
    T: int
    batch_size: int
    beta0: float
    schedule: str = "constant"  # "constant" | "inv_sqrt"
    clip_G: float | None = None
    arms: tuple[tuple[str, ReedPhyConfig], ...] = (("ideal", ReedPhyConfig()),)
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
        if not self.arms or not all(
                isinstance(arm, tuple) and len(arm) == 2 and isinstance(arm[1], ReedPhyConfig)
                and arm[0] in tuple(AGGREGATORS) for arm in self.arms):
            raise ValueError("arms must be (aggregator, ReedPhyConfig) pairs, each aggregator "
                             f"one of {', '.join(map(repr, AGGREGATORS))}, got {self.arms!r}")
        object.__setattr__(self, "arms", tuple((name, radio_read(name, phy, self.budgets))
                                               for name, phy in self.arms))
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


class DivergenceError(RuntimeError):
    """A run left the finite numbers: its model, train loss, aggregation
    error or largest client energy is NaN or infinite.  The message names
    the arm's aggregator and the round."""


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
                   rngs: list[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """The minibatches of every client's Q local steps, client k drawn
    from ``rngs[k]``: a (Q, K, B) index array and the (Q, K) batch
    lengths."""
    width = min(batch_size, max(np.size(p) for p in partitions))
    batches = np.zeros((Q, len(partitions), width), dtype=np.intp)
    lengths = np.empty((Q, len(partitions)), dtype=np.intp)
    for k, (part, rng) in enumerate(zip(partitions, rngs)):
        rows, lengths[:, k] = _client_batches(part, Q, batch_size, rng)
        batches[:, k, :rows.shape[1]] = rows
    return batches, lengths


def local_round(params: np.ndarray, objective: Objective, client_indices: np.ndarray,
                Q: int, beta: float, batch_size: int, rng: np.random.Generator,
                clip_G: float | None = None) -> np.ndarray:
    """Q local minibatch SGD steps of one client, its minibatches drawn
    from ``rng``; returns the increment w_Q - w_0.

    The single-client reference for the batched steps of
    :func:`run_fedavg`: given the client's run-long generator round after
    round, the same minibatches, one gradient call each.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    batches, lengths = _client_batches(client_indices, Q, batch_size, rng)
    w = params.copy()
    for batch, n in zip(batches, lengths):
        g = clip_gradient(objective.stochastic_gradient(w, batch[:n]), clip_G)
        w = w - beta * g
    return w - params


def run_fedavg(cfg: FedRunConfig, objective: Objective,
               partitions: list[np.ndarray],
               test_data: LabeledDataset | None = None) -> np.ndarray:
    """Run T rounds of full-participation FedAvg under every arm of ``cfg``
    and return their traces, an (A, T, len(TRACE_COLUMNS)) array in the
    order of ``cfg.arms``.  Without ``test_data``, test_acc is 0.

    There is one client per partition.  The arms run in lockstep on one set
    of minibatches, each with its own model; a run of several equals each
    arm run alone.
    """
    K = len(partitions)
    if K == 0:
        raise ValueError("partitions must hold at least one client")
    A = len(cfg.arms)
    root = StreamKey(cfg.seed)
    w = objective.init_params(root.child(_DOM_INIT))
    d = objective.dim
    stack = np.repeat(w[None], A, axis=0)  # row a: arm a's model
    # every stream of the run, built once and read round after round
    local_key, channel_key = root.child(_DOM_LOCAL), root.child(_DOM_CHANNEL)
    client_rngs = [local_key.generator(k) for k in range(K)] if objective.uses_batches else None
    proxy_rng = local_key.generator(K) if objective.uses_proxy else None
    rounds = [AGGREGATORS[name][-1](phy, cfg, channel_key, K, d) for name, phy in cfg.arms]

    grads = objective.evaluate(stack, proxy_rng)[1]
    # row t of trace[a] is arm a's round t; test_acc stays 0 without test data
    with _allocating("T"):
        trace = np.zeros((A, cfg.T, len(TRACE_COLUMNS)))

    # a diverging run overflows; the checks below name what went non-finite
    # instead of letting NumPy warn about every step on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.T):
            beta = cfg.stepsize(t)
            # round t's columns, in TRACE_COLUMNS order: (A,) views into trace
            train_loss, test_acc, grad_norm_sq, eps_norm_sq, max_energy = trace[:, t].T

            # the minibatches do not depend on the arm; row a·K + k of the
            # (A·K)-row stack is client k under arm a, and every arm reads
            # the same K batches
            try:
                if objective.uses_batches:
                    batches, lengths = _round_batches(partitions, cfg.Q, cfg.batch_size,
                                                      client_rngs)
                else:
                    batches = lengths = [None] * cfg.Q
            except MemoryError as exc:  # Q sizes every round's batches: round 0 fails
                raise ValueError(f"Q too large: {str(exc) or 'out of memory'}") from None
            local = np.repeat(stack, K, axis=0)
            for q in range(cfg.Q):
                # in place: stacked_gradient returns a new array, and local is a copy
                step = clip_gradient(objective.stacked_gradient(local, batches[q], lengths[q]),
                                     cfg.clip_G)
                step *= beta
                local -= step

            for a, round_ in enumerate(rounds):
                increments = local[a * K:(a + 1) * K] - stack[a]
                ideal = aggregate_ideal(increments)
                update, max_energy[a] = round_(increments, ideal, t)
                eps = update - ideal
                stack[a] += update
                eps_norm_sq[a] = eps @ eps

            # every model at once; the gradients are round t + 1's diagnostic
            # gradients, so after the last round none are taken
            losses, next_grads = objective.evaluate(stack, proxy_rng, gradients=t + 1 < cfg.T)
            train_loss[:] = losses
            if test_data is not None:
                test_acc[:] = objective.accuracy(stack, test_data.features, test_data.labels)

            # arm by arm, so the first to leave the finite numbers is the
            # one named
            for a, (name, _) in enumerate(cfg.arms):
                for what, finite in (("model", np.isfinite(stack[a]).all()),
                                     ("eps_norm_sq", math.isfinite(eps_norm_sq[a])),
                                     ("max_client_energy", math.isfinite(max_energy[a])),
                                     ("train loss", math.isfinite(train_loss[a]))):
                    if not finite:
                        raise DivergenceError(f"aggregator {name!r}: non-finite {what} "
                                              f"after round {t}")
                grad_norm_sq[a] = grads[a] @ grads[a]
            grads = next_grads
    return trace
