"""Full-participation FedAvg over pluggable aggregators.

Each round: broadcast the global model, run Q local minibatch SGD steps on
every client, form increments, aggregate them by each arm's round (the
registry ``AGGREGATORS``), apply the server update and record the round's
row of a trace.  A trace is one (T, F) float array per arm: row t is round
t and column f the quantity named ``TRACE_COLUMNS[f]``.  All randomness
flows through seeded streams, so runs are reproducible and the aggregator
choice never perturbs data order or model initialization.

Stream layout 6: a run builds each of its streams once, before round 0,
and every round reads on from where the last one stopped.  Under the run
seed, client k's minibatches come from the stream (local, k) and the
MLP's proxy rows from (local, K); each ``reed`` arm builds its own
generators of (channel, m, b) for branch b of each chip group whose first
chip is m (``ReedPhyConfig.chip_groups``: under Rayleigh fading the chips
of one weight, otherwise each chip), and each ``coherent_csit`` arm its
own of (channel,) for the receiver noise.  So besides the model's
initialisation a run builds K generators for an objective that reads
batches, 2 per chip group of a ``reed`` arm (2 for the unit-weight chips
of a config-built arm at kappa = 2, 2M at other kappa), 1 per
``coherent_csit`` arm and 1 for proxy rows, whatever its T, and a run of
T₁ rounds is the first T₁ rounds of any longer run.

One run holds several arms, each an aggregator and the ``ReedPhyConfig``
it reads (:func:`radio_read`) with its own global model, in lockstep.
The local streams and minibatches do not depend on the arm, so they are
drawn once per round for all of them, and a run of several arms equals
each arm run alone, trace for trace: equal arms are one run.
Arms on one radio draw the same channel values, and so do the chips two
``reed`` arms share.

Local training is batched across clients and arms, and what the steps
read is built where it changes.  Once per run, a minibatch plan
(:class:`_MinibatchPlan`) holds each client's shuffle buffer and the
(Q, K) batch lengths and (Q, 1, K·B) column weights, which are the same
every round.  At the start of a round each client draws all of its
minibatch indices from its own stream, in one call, exactly as the
single-client reference :func:`local_round` does; they fill a (Q, K, B)
index array, with short batches padded and masked.  The objective then
takes every step's targets for all A models (a classifier's label
entries) in one pass, :meth:`Objective.step_targets`.  Each of the Q
steps is one :meth:`Objective.stacked_gradient` call over all K clients
of all A arms, A·K rows in arm-major order, which gathers the K clients'
features once and broadcasts them over the A models.  A classifier lays
a step's logits out class-major: model a's logits for the K clients'
batches are one (C, K·B) block, so that the softmax and the
cross-entropy run along rows of K·B columns, and one indexed call
reaches the label entries of all A models.  An objective that reads no
batch gets None in their place, from one tuple of Q steps built per run.
Aggregation stays per arm.

Evaluation is stacked too.  Once every arm has updated its model, one
:meth:`Objective.evaluate` call takes the train losses and diagnostic
gradients of all A models in one pass over the training set, and one
:meth:`Objective.accuracy` call their test accuracies; the label entries
of both sets are built once per run, for the stack of A models, and each
is read by one indexed call per pass.  Each row equals that model
evaluated alone, bit for bit.

Each model state, the models after s rounds for s = 0 … T, is copied
when it is reached, state 0 before round 0, into a pending evaluation: a
call that returns its losses, diagnostic gradients and accuracies.
Round t closes once round t + 1 has trained, the last after the loop,
by the call of state t + 1.  For an objective that reads batches, on
more than one usable core and outside a process pool, the call collects
what a second thread evaluated while the main thread trained; otherwise
it evaluates, in line.  Closing round t fills its losses and accuracies
and runs its divergence checks arm by arm, each checking its model,
aggregation error, client energy and train loss in turn, so the first
arm to leave the finite numbers is the one named, by its aggregator, in
the same words on either path.  The train loss that closes round t and
the diagnostic gradient that opens round t + 1 are taken at the same
model, by one evaluate call; the losses of state 0 go unread, and state
T is evaluated for its losses alone: no backward pass, and no proxy rows
drawn.
Objectives whose gradients never read the batch (``uses_batches`` False)
build no plan and draw no minibatch indices.

Each arm's start (``AGGREGATORS``) builds what its rounds reuse before
round 0, a ``reed`` arm's streams and kernel buffers among them, and
checks a budgeted ``reed`` arm's every gain; the run then reserves what
its rounds' model-sized temporaries need.  So a run whose gains are not
all finite and > 0, or whose model is too large, stops before round 0.
"""

from __future__ import annotations

import math
import mmap
import os
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .estimator import (ReedPhyConfig, aggregate_coherent_csit, aggregate_ideal,
                        aggregate_reed, chip_streams, kernel_buffers)
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

# the per-round quantities of a trace, one column each, in order, and their indices
TRACE_COLUMNS = ("train_loss", "test_acc", "grad_norm_sq", "eps_norm_sq", "max_client_energy")
_LOSS, _ACC, _GRAD, _EPS, _ENERGY = range(len(TRACE_COLUMNS))


class Objective:
    """Differentiable empirical risk with exact analytic gradients.

    Subclasses bind the training data; a batch is an index into it, an
    index array or ``slice(None)`` for every sample.  This base declares
    what the round loop calls: :meth:`init_params` and
    :meth:`check_passes` once per run, :meth:`step_targets` once per round
    on its batches, and three methods on a stack of models,
    :meth:`stacked_gradient` for the local steps of every client under
    every model, and :meth:`evaluate` and
    :meth:`accuracy` once per model state for all A models at once.  Each
    row of a stacked result equals that model evaluated alone, bit for
    bit.  :meth:`evaluate` and :meth:`accuracy` may run on another thread,
    concurrently with :meth:`stacked_gradient`, so they must not write any
    state that :meth:`stacked_gradient` reads.  The subclasses'
    single-model methods (``loss``, ``stochastic_gradient``,
    ``full_gradient``) and :meth:`diagnostic_gradient` are not on the run
    path: they serve the reference :func:`local_round` and the tests and
    traces that compare against them.
    """

    dim: int

    # the constructor field that sets dim, which a run names when it cannot
    # allocate its model-sized arrays
    dim_field: str = "dim"

    # False for objectives whose gradients never read the batch, so no
    # minibatch is drawn
    uses_batches: bool = True

    # True for objectives whose diagnostic gradient is taken on rows drawn
    # from the generator evaluate gets; for the others none is built
    uses_proxy: bool = False

    def stacked_gradient(self, params: np.ndarray, batches: np.ndarray,
                         targets: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Minibatch gradients of K clients under each of A models in one
        call.

        ``batches`` is a (K, B) index array whose row k holds client k's
        batch, padded with index 0.  ``weights`` (1, K·B) weigh its
        columns, batch after batch, 1/length on a batch and 0 on its
        padding, which does not contribute.  ``targets`` is this step's row
        of what :meth:`step_targets` made of the round's batches for the A
        models.  ``params`` is (A·K, dim), row a·K + k being client k under
        model a, and every model reads the same K batches.  Returns a new
        (A·K, dim) array, which the caller may overwrite.  An objective that
        reads no batch (``uses_batches`` False) gets None for the batches,
        targets and weights.
        """
        raise NotImplementedError

    def step_targets(self, batches: np.ndarray, models: int) -> np.ndarray:
        """What the Q steps of a round read of their (Q, K, B) batches
        beside the inputs, for a stack of ``models`` models, taken once per
        round: row q is step q's ``targets``."""
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

    def check_passes(self, models: int, columns: int) -> None:
        """Ask for, and give back untouched, the memory that passes of
        ``models`` models over ``columns`` samples, or over the training set
        if it is longer, hold at their peak beside the models, so that a run
        whose passes cannot be held fails once, before round 0, naming the
        field that sets their size.  Nothing for an objective whose passes
        hold only model-sized arrays, which the run allocates itself."""


class QuadraticObjective(Objective):
    """f(w) = 1/2 sum_i lambda_i w_i^2, independent of the data rows."""

    uses_batches = False
    dim_field = "d"

    def __init__(self, curvatures: np.ndarray):
        self.curvatures = np.asarray(curvatures, dtype=float)
        if np.any(self.curvatures <= 0):
            raise ValueError("curvatures must be > 0")
        self.dim = self.curvatures.size

    def loss(self, params, batch=None):
        return 0.5 * float(self.curvatures @ params**2)

    def stochastic_gradient(self, params, batch=None):
        return self.curvatures * params

    def stacked_gradient(self, params, batches=None, targets=None, weights=None):
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


def _label_entries(labels: np.ndarray, n_classes: int, models: int = 1) -> np.ndarray:
    """Flat index of each sample's true-class entry in the class-major
    (models, C, K, B) class probabilities of a stack of models that all read
    (K, B) labels, as (models·K·B,) entries: the entry of model a, class c,
    batch k and column j is ((a·C + c)·K + k)·B + j, so model a's entries
    fall in its (C, K·B) block.  (n,) labels are one batch, K = 1, and one
    model's entries are then c·n + j.  Labels (Q, K, B) of Q steps give one
    row of entries per step, (Q, models·K·B)."""
    if labels.ndim == 1:
        labels = labels[None]
    K, B = labels.shape[-2:]
    one = (labels * K + np.arange(K)[:, None]) * B + np.arange(B)  # model 0's
    entries = one[..., None, :, :] + (np.arange(models) * (n_classes * K * B))[:, None, None]
    return entries.reshape(labels.shape[:-2] + (-1,))


def _accuracy(Z: np.ndarray, labels: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Accuracies (...,) of (..., C, n) logits: the share of the n samples
    whose label is ``Z.argmax(axis=-2)``, without that argmax, which is slow
    along the strided class axis.  ``entries`` are the labels' entries in
    the whole stack of logits (:func:`_label_entries`).

    Z is overwritten.  A label wins outright when its logit exceeds every
    other class's; the few columns with a tie or a NaN at the top are
    settled by argmax itself, so its rule (the first class at the max, a
    NaN counting as the max) holds exactly.
    """
    # every model's entries read and written at once by 1-D indexing, the fastest
    flat = Z.reshape(-1)
    own = flat[entries]
    flat[entries] = -np.inf
    rival = Z.max(axis=-2)  # the best logit of any other class
    hit = own.reshape(rival.shape) > rival
    unsure = ~(hit | (own.reshape(rival.shape) < rival))
    if unsure.any():
        flat[entries] = own
        at = np.nonzero(unsure)
        hit[at] = np.moveaxis(Z, -2, -1)[at].argmax(axis=-1) == labels[at[-1]]
    return np.mean(hit, axis=-1)


def _mean_xent(E: np.ndarray, sums: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Mean cross-entropy (A,) of A models' class probabilities E / sums
    (:func:`_softmax_parts`), ``entries`` the labels' entries in all of E;
    each model's row is reduced alone, so it equals that model's loss."""
    p = E.reshape(-1)[entries].reshape(len(E), -1)
    p /= sums.reshape(len(E), -1)
    p += 1e-300
    return -np.log(p, out=p).mean(axis=-1)


def _xent_logit_grad(E: np.ndarray, sums: np.ndarray, entries: np.ndarray,
                     weights) -> np.ndarray:
    """Gradient of a weighted sum of cross-entropies with respect to the
    logits, (E / sums - one-hot) · weights, in place in E: each column's
    weight is subtracted at its label's entry, ``entries`` those of the
    labels in all of E's (A, C, n) probabilities (:func:`_label_entries`).
    The weights are per column, a scalar or (1, n), 1/length on a batch's
    columns and 0 on its padding, so that each batch's parameter gradient
    is its mean."""
    E *= weights / sums
    flat = E.reshape(-1)
    own = flat[entries]
    labelled = own.reshape(len(E), -1)  # a view: model a's row of own
    labelled -= weights
    flat[entries] = own
    return E


def _reserve(shape: tuple[int, ...]) -> None:
    """Ask the system for the memory of a float64 array of ``shape`` and
    give it back untouched, as np.empty would, but outside the C
    allocator: freeing a block of up to 32 MiB that glibc mapped raises its
    mmap threshold for the rest of the process, which would move the run's
    own arrays of that size onto its heap.  A refusal is a MemoryError."""
    nbytes = 8 * math.prod(shape)
    try:
        mmap.mmap(-1, nbytes).close()
    except OSError:
        raise MemoryError(f"Unable to allocate {nbytes / 2**30:.3g} GiB for an array with "
                          f"shape {shape} and data type float64") from None


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
    long rows of both, which is faster for wide inputs.  It is np.dot, the
    same bits as @: NumPy's matmul over the stack holds the GIL through
    its BLAS calls, and np.dot lets another thread run beside it."""
    if x.ndim > 2:
        return x @ dout.swapaxes(-1, -2)
    out = np.empty(dout.shape[:-1] + x.shape[:1])
    for g, o in zip(dout.reshape(-1, *dout.shape[-2:]), out.reshape(-1, *out.shape[-2:])):
        np.dot(g, x.T, out=o)
    return out.swapaxes(-1, -2)


def _logits(weights: np.ndarray, inputs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(..., C, n) logits of the last layer, whose (..., m + 1, C) weights
    read its (..., m + 1, B) inputs (:func:`_affine`).  When x, the first
    layer's inputs, are K clients' (K, p + 1, B) batches, the logits are
    class-major, (..., C, K·B): each model's logits for all K batches are
    one (C, K·B) block, which the per-client matmul writes through its
    (..., K, C, B) transposed view."""
    if x.ndim == 2:
        return _affine(weights, inputs)
    K, B = x.shape[0], x.shape[-1]
    Z = np.empty(weights.shape[:-3] + (weights.shape[-1], K, B))
    np.matmul(weights.swapaxes(-1, -2), inputs, out=Z.swapaxes(-2, -3))
    return Z.reshape(Z.shape[:-2] + (K * B,))


def _per_client(dZ: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (..., K, C, B) view of class-major (..., C, K·B) logits'
    gradients (:func:`_logits`) that the K clients' layers read, x being
    their (K, p + 1, B) batches; dZ itself for one (p + 1, n) input."""
    if x.ndim == 2:
        return dZ
    return dZ.reshape(dZ.shape[:-1] + (x.shape[0], -1)).swapaxes(-2, -3)


def _flat(grads: np.ndarray) -> np.ndarray:
    """(..., a·b) rows of (..., a, b) weight gradients."""
    return grads.reshape(grads.shape[:-2] + (-1,))


class _Classifier(Objective):
    """Softmax classifier over a labeled dataset.

    Every layer is one affine map, read as one matrix: a layer over m
    inputs has (m + 1, O) weights whose last row is its bias, the weight of
    a constant input 1 that follows the m others.  The training set is held
    in that form once, as (n, p + 1) rows, sample i's features and then a
    1: the clients' batches are gathered from them, and every pass over the
    whole set reads their (p + 1, n) transpose, a view, beside the labels.
    The test set's inputs are built once, as a contiguous (p + 1, n) array.

    Subclasses write the forward pass ``_forward(params, x)``, which
    returns (..., C, n) logits and what the backward pass reads, and the
    backward pass ``_backward(params, x, cache, dZ)``, which returns
    (..., dim) gradients from the logits' gradients dZ.  Both run once over
    (..., dim) parameters and (..., p + 1, B) inputs that broadcast against
    them: a stack of A models reads one (K, p + 1, B) gather of the K
    clients' batches, or the (p + 1, n) training inputs, against which the
    A models' first layers are one matmul.  Activations are feature-major,
    so that reductions over the classes run along contiguous rows: hidden
    units are (..., H + 1, B), per client in a local step, and logits are
    (A, C, columns) in every pass.  A pass over one set of n samples has n
    columns; a local step's logits are class-major (:func:`_logits`), K·B
    columns, model a's logits for the K batches one (C, K·B) block.  So the
    softmax and the cross-entropy run on one shape in every pass, along
    rows of all its columns, and reach the label entries of all A models
    (:func:`_label_entries`) by one indexed call.
    """

    def __init__(self, data: LabeledDataset, n_classes: int):
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        if len(data) and data.labels.max() >= n_classes:
            raise ValueError(f"n_classes must exceed every label, got {n_classes} "
                             f"for labels up to {data.labels.max()}")
        self._labels = data.labels
        self.n_classes = n_classes
        self.n_features = data.features.shape[1]
        self._rows = np.hstack((data.features, np.ones((len(data), 1))))
        # each sample weighs 1/n in the full-train gradient (an empty set
        # has none to weigh)
        self._weight = 1.0 / max(len(data), 1)
        # the label entries of the stacks evaluate and accuracy last read,
        # and the test features accuracy last read with their inputs: each
        # is built once for the A models of a run
        self._train_entries = self._test_entries = (None, 0, None)
        self._test = (None, None)

    # arrays of its widest layer's outputs that a step and an evaluation on
    # the other thread hold at once, besides the gradients: a logistic pass
    # peaked at 1.0 such arrays (tracemalloc, A = 2 models, K = 10 batches
    # of 64, n = 4000), an MLP step at 3.9 with the hidden units widest and
    # its evaluation at 2.0
    _PASS_ARRAYS = 2

    def _widest(self) -> tuple[int, str]:
        """The outputs per column of the widest layer, and the field that
        sets them."""
        return self.n_classes, "n_classes"

    def check_passes(self, models, columns):
        rows, field = self._widest()
        with _allocating(field):
            _reserve((self._PASS_ARRAYS, models, rows, max(columns, len(self._rows))))

    def _entries(self, cached, labels, models):
        """(labels, models, entries), the label entries of a stack of
        ``models`` models reading ``labels``: ``cached`` if it holds them,
        else built anew."""
        if cached[0] is not labels or cached[1] != models:
            cached = (labels, models, _label_entries(labels, self.n_classes, models))
        return cached

    def _batch(self, batch):
        """Inputs (p + 1, B) and labels (B,) of one batch."""
        return self._rows[batch].T, self._labels[batch]

    def _gradients(self, params, inputs, x, entries, weights):
        """Gradients of the weighted cross-entropies; the forward pass reads
        ``inputs`` and the backward pass x, the same values."""
        Z, cache = self._forward(params, inputs)
        sums = _softmax_parts(Z)
        return self._backward(params, x, cache, _xent_logit_grad(Z, sums, entries, weights))

    def _batch_gradients(self, params, batch):
        """Mean gradients (A, dim) of A models on one batch."""
        x, labels = self._batch(batch)
        return self._gradients(params, x, x, _label_entries(labels, self.n_classes, len(params)),
                               1.0 / labels.size)

    def _losses(self, params, batch):
        """Mean cross-entropies (A,) of A models on one batch."""
        x, labels = self._batch(batch)
        E = self._forward(params, x)[0]
        return _mean_xent(E, _softmax_parts(E),
                          _label_entries(labels, self.n_classes, len(params)))

    def _test_accuracy(self, params, features, labels):
        """Accuracies (A,) of A models on a test set whose (p + 1, n) inputs
        and label entries are built once, for the one every round reads."""
        if self._test[0] is not features:
            self._test = (features, _with_ones(features.T))
        # one (dim,) model reads one model's entries too
        self._test_entries = self._entries(self._test_entries, labels, params.size // self.dim)
        return _accuracy(self._forward(params, self._test[1])[0], labels,
                         self._test_entries[2])

    def stacked_gradient(self, params, batches, targets, weights):
        x = self._rows.take(batches, axis=0).swapaxes(1, 2)
        # the forward matmul reads a contiguous copy of the batches faster,
        # to the same bits; a copy would change the backward's bits
        grads = self._gradients(params.reshape(-1, len(batches), self.dim),
                                np.ascontiguousarray(x), x, targets, weights)
        return grads.reshape(len(params), self.dim)

    def step_targets(self, batches, models):
        """Each step's label entries (:func:`_label_entries`): (Q,
        models·K·B) of (Q, K, B) batches, row q in the class-major (models,
        C, K·B) probabilities of step q."""
        return _label_entries(self._labels.take(batches), self.n_classes, models)

    def evaluate(self, params, rng, gradients=True):
        """Losses from one forward pass over the training set; the gradients
        reuse it unless they are taken on proxy rows."""
        Z, cache = self._forward(params, self._rows.T)
        sums = _softmax_parts(Z)
        self._train_entries = self._entries(self._train_entries, self._labels, len(params))
        entries = self._train_entries[2]
        losses = _mean_xent(Z, sums, entries)
        if not gradients:
            return losses, None
        if self.uses_proxy:
            return losses, self._batch_gradients(params, self._diagnostic_rows(rng))
        dZ = _xent_logit_grad(Z, sums, entries, self._weight)
        return losses, self._backward(params, self._rows.T, cache, dZ)


class LogisticObjective(_Classifier):
    """Multinomial logistic regression with bias, mean cross-entropy.

    The parameters are the (p, C) weights W, row-major, then the C biases
    b: one (p + 1, C) matrix [W; b] whose last row weighs the constant
    feature, so that the logits of a row [x, 1] are x·W + b.
    """

    dim_field = "weights"

    def __init__(self, data: LabeledDataset, n_classes: int):
        super().__init__(data, n_classes)
        self.dim = (self.n_features + 1) * n_classes

    def _forward(self, params, x):
        return _logits(params.reshape(params.shape[:-1] + (-1, self.n_classes)), x, x), None

    def _backward(self, params, x, cache, dZ):
        return _flat(_affine_grad(_per_client(dZ, x), x))

    def loss(self, params, batch):
        return float(self._losses(params[None], batch)[0])

    def stochastic_gradient(self, params, batch):
        return self._batch_gradients(params[None], batch)[0]

    def full_gradient(self, params):
        return self.stochastic_gradient(params, _ALL)

    def init_params(self, key):
        return np.zeros(self.dim)

    def accuracy(self, params, features, labels):
        return self._test_accuracy(params, features, labels)


class MlpObjective(_Classifier):
    """One-hidden-layer tanh perceptron with softmax cross-entropy.

    The parameters are W1 (p, H), b1 (H), W2 (H, C) and b2 (C), each
    row-major, in turn: two matrices [W1; b1] (p + 1, H) and [W2; b2]
    (H + 1, C), each layer's bias the weight of a constant input.
    """

    dim_field = "hidden"
    _PASS_ARRAYS = 4

    # the diagnostic gradient is taken on this many training samples
    proxy_samples = 512

    def __init__(self, data: LabeledDataset, hidden: int, n_classes: int):
        super().__init__(data, n_classes)
        self.hidden = hidden
        self.dim = (self.n_features + 1) * hidden + (hidden + 1) * n_classes

    def _widest(self):
        return max((self.n_classes, "n_classes"), (self.hidden + 1, "hidden"))

    def _layers(self, params):
        """[W1; b1] (..., p + 1, H) and [W2; b2] (..., H + 1, C) of (..., dim)
        parameters."""
        lead, split = params.shape[:-1], (self.n_features + 1) * self.hidden
        return (params[..., :split].reshape(lead + (self.n_features + 1, self.hidden)),
                params[..., split:].reshape(lead + (self.hidden + 1, self.n_classes)))

    def _forward(self, params, x):
        """(..., C, n) logits (:func:`_logits`) and the (..., H + 1, B)
        hidden activations, with their constant row, per client."""
        W1, W2 = self._layers(params)
        act = _with_ones(np.tanh(_affine(W1, x)))
        return _logits(W2, act, x), act

    def _backward(self, params, x, act, dZ):
        W2 = self._layers(params)[1][..., :-1, :]
        dZ = _per_client(dZ, x)
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
        return len(self._rows) > self.proxy_samples

    def _diagnostic_rows(self, rng):
        """Every training row up to ``proxy_samples`` of them; above that,
        ``proxy_samples`` rows drawn without replacement from ``rng``."""
        if not self.uses_proxy:
            return _ALL
        return rng.choice(len(self._rows), size=self.proxy_samples, replace=False)

    def diagnostic_gradient(self, params, rng):
        return self.stochastic_gradient(params, self._diagnostic_rows(rng))

    def init_params(self, key):
        return 0.05 * key.generator().standard_normal(self.dim)

    def accuracy(self, params, features, labels):
        return self._test_accuracy(params, features, labels)


def check_objective(kind: str, *, d: int | None = None,
                    curvature_range: tuple[float, float] = (1.0, 1.0), hidden: int = 16) -> None:
    """Check the fields :func:`build_objective` reads, every one whichever
    family reads it, drawing nothing.  A quadratic's d curvatures are
    allocated and never filled, so that too large a d fails here as their
    draw would."""
    if d is None and kind == "quadratic" or d is not None and d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    lo, hi = curvature_range
    if lo <= 0 or hi < lo:
        raise ValueError(f"curvature_range must satisfy 0 < low <= high, got ({lo}, {hi})")
    if hidden < 1:
        raise ValueError(f"hidden must be >= 1, got {hidden}")
    if kind == "quadratic":
        with _allocating("d"):
            np.empty(d)


def build_objective(kind: str, data: LabeledDataset | None = None, *,
                    d: int | None = None,
                    curvature_range: tuple[float, float] = (1.0, 1.0),
                    seed: int = 0, hidden: int = 16,
                    n_classes: int | None = None) -> Objective:
    """Construct one of the supported objective families.  The quadratic
    needs ``d``.  Every field given is checked, whichever family reads it,
    before anything is drawn (:func:`check_objective`)."""
    check_objective(kind, d=d, curvature_range=curvature_range, hidden=hidden)
    if kind == "quadratic":
        with _allocating("d"):
            curvatures = StreamKey(seed).generator().uniform(*curvature_range, size=d)
        return QuadraticObjective(curvatures)
    if data is None:
        raise ValueError(f"objective kind {kind!r} needs a dataset")
    classes = n_classes if n_classes is not None else data.n_classes
    if kind == "logistic":
        return LogisticObjective(data, classes)
    if kind == "mlp":
        return MlpObjective(data, hidden, classes)
    raise ValueError(f"unknown objective kind {kind!r}")


def _start_ideal(phy, cfg, channel_key, K, objective):
    return lambda increments, ideal, t: (ideal, 0.0)


def _start_coherent_csit(phy, cfg, channel_key, K, objective):
    rng = channel_key.generator()
    return lambda increments, ideal, t: (aggregate_coherent_csit(ideal, phy, rng), 0.0)


def _start_reed(phy, cfg, channel_key, K, objective):
    """A reed arm's streams, audit denominator, checked gains and kernel buffers."""
    d, gains = objective.dim, None
    if cfg.budgets is not None:
        with _allocating("T"):
            betas = np.fromiter(map(cfg.stepsize, range(cfg.T)), float, cfg.T)
        gains = eta_schedule(cfg.budgets, K, d, phy.mean_powers, phy.weight_sum, betas,
                             cfg.Q, cfg.clip_G).tolist()  # floats: cheaper to read per round
    streams, kmd = chip_streams(phy, channel_key), _audit_denominator(phy, K, d)
    with _allocating(objective.dim_field):
        buffers = kernel_buffers(d)
    def round_(increments, ideal, t):
        radio = phy if gains is None else phy.with_eta(gains[t])
        return (aggregate_reed(increments, radio, streams, buffers),
                _audit(increments, radio, kmd).max())
    return round_


# aggregator -> (the radio fields it reads, whether budgets set its gain in
# eta's place, its start (phy, cfg, channel_key, K, objective) -> its round (increments,
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


class _MinibatchPlan:
    """Every client's minibatches of a round's Q local steps, round after
    round, client k's drawn from ``rngs[k]`` exactly as
    :func:`_client_batches` draws them.

    What is the same every round is built once per run.  Client k's
    shuffles are written in place into block k of one (K, R, B) index
    array, its Q batches of width min(B, n) row after row, padded with
    index 0, and copied from there into the contiguous (Q, K, B)
    ``batches``, row q the K batches of step q, which the steps' gathers
    read fastest.  The (Q, K) ``lengths`` and the (Q, 1, K·B) column
    ``weights`` do not depend on the draws.  Row q of the weights weighs the
    class-major columns of step q's logits, its K batches in turn: 1/length
    on a batch's columns and 0 on its padding, so that each batch's
    gradient is its mean.
    """

    def __init__(self, partitions: list[np.ndarray], Q: int, batch_size: int,
                 rngs: list[np.random.Generator]):
        sizes = np.array([np.size(p) for p in partitions])
        if not sizes.all():
            raise ValueError("client dataset is empty")
        B = min(batch_size, sizes.max())
        # each client's batch width, batches per shuffle and shuffles per round
        widths = np.minimum(B, sizes)
        per_shuffle = -(-sizes // widths)
        # Q sizes every array, the largest first, so that too large a Q
        # fails before any is filled
        with _allocating("Q"):
            shuffles = -(-Q // per_shuffle)
            index = np.zeros((len(sizes), (shuffles * per_shuffle).max(), B), dtype=np.intp)
            self._drawn = index[:, :Q].swapaxes(0, 1)
            self.batches = np.empty(self._drawn.shape, dtype=np.intp)
            self.lengths = np.minimum(widths,
                                      sizes - widths * (np.arange(Q)[:, None] % per_shuffle))
            lengths = self.lengths[:, :, None]
            self.weights = ((np.arange(B) < lengths) / lengths).reshape(Q, 1, -1)
        # one permuted call a round shuffles a client's S copies of its
        # indices, row after row, as S permutation calls would
        self._shuffles = [
            (np.broadcast_to(np.asarray(part, dtype=np.intp), (S, n)), rng,
             block[:S * per].reshape(S, per * B)[:, :n])
            for part, rng, block, n, per, S in zip(partitions, rngs, index, sizes.tolist(),
                                                   per_shuffle.tolist(), shuffles.tolist())]

    def draw(self) -> np.ndarray:
        """Draw a round's minibatches into ``batches`` and return it."""
        for indices, rng, out in self._shuffles:
            rng.permuted(indices, axis=1, out=out)
        np.copyto(self.batches, self._drawn)
        return self.batches


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


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask, which
    ``taskset`` sets, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    d = objective.dim
    # the run's model-sized arrays, the largest first, so that too large a
    # model fails before any is filled: row a of the stack is arm a's model,
    # and row a·K + k of local, refilled every round, client k's copy of it
    with _allocating(objective.dim_field):
        local = np.empty((A * K, d))
        stack = np.empty((A, d))
        stack[:] = objective.init_params(root.child(_DOM_INIT))
    clients = local.reshape(A, K, d)  # a view: clients[a] are arm a's K rows
    # every stream of the run, built once and read round after round; the
    # client streams fill the minibatch plan.  Q sizes the plan, or a
    # batch-free run's Q steps without inputs, so too large a Q fails here
    local_key, channel_key = root.child(_DOM_LOCAL), root.child(_DOM_CHANNEL)
    if objective.uses_batches:
        plan = _MinibatchPlan(partitions, cfg.Q, cfg.batch_size,
                              [local_key.generator(k) for k in range(K)])
        # a step's K batches are one pass, as are the training and test sets
        objective.check_passes(A, max(plan.batches[0].size,
                                      0 if test_data is None else len(test_data)))
    else:
        with _allocating("Q"):
            plan, steps = None, ((None, None, None),) * cfg.Q
    proxy_rng = local_key.generator(K) if objective.uses_proxy else None
    rounds = [AGGREGATORS[name][-1](phy, cfg, channel_key, K, objective)
              for name, phy in cfg.arms]

    # row t of trace[a] is arm a's round t; test_acc stays 0 without test data
    with _allocating("T"):
        trace = np.zeros((A, cfg.T, len(TRACE_COLUMNS)))

    def evaluated(models, t):
        """The models after round t, their train losses, round t + 1's
        diagnostic gradients (none after the last round) and their test
        accuracies (None without test data)."""
        losses, next_grads = objective.evaluate(models, proxy_rng, gradients=t + 1 < cfg.T)
        return (models, losses, next_grads, None if test_data is None else
                objective.accuracy(models, test_data.features, test_data.labels))

    def close(t, grads, models, losses, next_grads, acc):
        """Round t's columns from its evaluation and then its divergence
        checks; returns round t + 1's diagnostic gradients."""
        row = trace[:, t]
        row[:, _LOSS] = losses
        if acc is not None:
            row[:, _ACC] = acc
        # arm by arm, so the first to leave the finite numbers is the one named
        for a, (name, _) in enumerate(cfg.arms):
            for what, finite in (("model", np.isfinite(models[a]).all()),
                                 ("eps_norm_sq", math.isfinite(row[a, _EPS])),
                                 ("max_client_energy", math.isfinite(row[a, _ENERGY])),
                                 ("train loss", math.isfinite(row[a, _LOSS]))):
                if not finite:
                    raise DivergenceError(f"aggregator {name!r}: non-finite {what} "
                                          f"after round {t}")
            row[a, _GRAD] = grads[a] @ grads[a]
        return next_grads

    # a pending evaluation is a call: a classifier's runs on a second core
    # while the next round trains, unless this process is one of a pool's,
    # which keeps its cores busy already, and any other in line when its
    # round closes.  The thread sets its own error state, and leaving the
    # loop, however, joins it
    run, pool = partial, None
    if objective.uses_batches and _usable_cores() > 1:
        from concurrent.futures import ThreadPoolExecutor
        from multiprocessing import parent_process
        if parent_process() is None:
            pool = ThreadPoolExecutor(1, initializer=lambda: np.seterr(over="ignore",
                                                                       invalid="ignore"))
            run = lambda *job: pool.submit(*job).result
    # a round's model-sized temporaries at their peak, asked for once so that
    # a model too large for them fails here: beside the models pending
    # evaluation, their gradients and the thread's, either a step's last and
    # new gradients and a third stack (clip_G's squares, an MLP's layers),
    # or, with the last step released, a reed arm's increments, parts,
    # column sums and means, 3K + 5 rows.  tracemalloc found every round
    # within 3AK + K + 5 rows (A <= 3, K <= 10)
    with _allocating(objective.dim_field):
        _reserve(((2 + (pool is not None)) * A + 3 * A * K + K + 5, d))
    # a diverging run overflows; the checks name what went non-finite
    # instead of letting NumPy warn about every step on the way
    with np.errstate(over="ignore", invalid="ignore"), pool or nullcontext():
        # state 0's diagnostic gradients open round 0
        pending = run(objective.evaluate, stack.copy(), proxy_rng)
        for t in range(cfg.T):
            beta = cfg.stepsize(t)
            row = trace[:, t]  # round t's row of every arm

            # the minibatches do not depend on the arm; row a·K + k of the
            # (A·K)-row stack is client k under arm a, and every arm reads
            # the same K batches, and their targets, taken once a round
            if plan is not None:
                drawn = plan.draw()
                steps = zip(drawn, objective.step_targets(drawn, A), plan.weights)
            clients[:] = stack[:, None]
            for batches, targets, weights in steps:
                # in place: stacked_gradient returns a new array
                step = clip_gradient(objective.stacked_gradient(local, batches, targets, weights),
                                     cfg.clip_G)
                step *= beta
                local -= step
            del step  # not alive while the arms aggregate

            for a, round_ in enumerate(rounds):
                increments = clients[a] - stack[a]
                ideal = aggregate_ideal(increments)
                update, row[a, _ENERGY] = round_(increments, ideal, t)
                eps = update - ideal
                stack[a] += update
                row[a, _EPS] = eps @ eps

            # every model at once, on a copy: on the thread while round
            # t + 1 trains, or in line when round t closes, once round t + 1
            # has (after round 0, state 0's gradients are read)
            grads = close(t - 1, grads, *pending()) if t else pending()[1]
            pending = run(evaluated, stack.copy(), t)
        close(cfg.T - 1, grads, *pending())
    return trace
