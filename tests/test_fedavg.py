import multiprocessing
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from reedsim import estimator, experiments, fedavg, moments
from reedsim.config import parse_config
from reedsim.datasets import PartitionSpec, partition, synth_dataset
from reedsim.channel import sample_noise
from reedsim.estimator import ReedPhyConfig, aggregate_coherent_csit, aggregate_ideal
from reedsim.fedavg import (TRACE_COLUMNS, FedRunConfig, LogisticObjective, MlpObjective,
                            QuadraticObjective, _MinibatchPlan, _accuracy, _client_batches,
                            _label_entries, build_objective, clip_gradient, local_round,
                            radio_read, run_fedavg)
from reedsim.streams import StreamKey

from reference import arms, column

KEY = StreamKey(8128)


def _blob_setup(n=600, classes=3, p=4, K=3, seed=0, separation=3.0):
    ds = synth_dataset(n, seed=seed, classes=classes, p=p, separation=separation)
    parts = partition(ds, PartitionSpec("iid", K, seed=seed + 1))
    return ds, parts


class TestObjectives:
    def test_quadratic_identity_gradient(self):
        obj = build_objective("quadratic", d=4, curvature_range=(1.0, 1.0))
        w = np.array([1.0, -2.0, 0.5, 0.0])
        assert np.allclose(obj.full_gradient(w), w)

    def test_logistic_single_sample_loss(self):
        from reedsim.datasets import LabeledDataset
        ds = LabeledDataset(np.array([[1.0, 0.0]]), np.array([1]))
        obj = LogisticObjective(ds, 2)
        w = np.zeros(obj.dim)
        # probability of the correct class is 1/2 at w = 0
        assert obj.loss(w, np.array([0])) == pytest.approx(-np.log(0.5))

    def test_stochastic_gradient_full_batch_matches_full_gradient(self):
        ds, _ = _blob_setup()
        for kind in ("logistic", "mlp"):
            obj = build_objective(kind, ds, hidden=8)
            w = 0.1 * StreamKey(1).generator().standard_normal(obj.dim)
            g1 = obj.stochastic_gradient(w, np.arange(len(ds)))
            g2 = obj.full_gradient(w)
            assert np.allclose(g1, g2, rtol=1e-8)

    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
    def test_finite_difference_gradients(self, kind):
        if kind == "quadratic":
            obj = build_objective("quadratic", d=6, curvature_range=(0.5, 2.0), seed=3)
            batch = None
        else:
            ds, _ = _blob_setup(n=40)
            obj = build_objective(kind, ds, hidden=5)
            batch = np.arange(40)
        rng = StreamKey(17).generator()
        h = 1e-5
        for trial in range(20):
            w = rng.standard_normal(obj.dim)
            g = obj.stochastic_gradient(w, batch)
            # probe along 3 random directions per point
            for _ in range(3):
                v = rng.standard_normal(obj.dim)
                v /= np.linalg.norm(v)
                fd = (obj.loss(w + h * v, batch) - obj.loss(w - h * v, batch)) / (2 * h)
                assert fd == pytest.approx(float(g @ v), rel=1e-4, abs=1e-7)

    def test_build_objective_validation(self):
        with pytest.raises(ValueError):
            build_objective("quadratic", d=0)
        with pytest.raises(ValueError):
            build_objective("spline", d=3)

    @pytest.mark.parametrize("call, message", [
        (lambda: build_objective("spline", synth_dataset(4, seed=0)),
         "unknown objective kind 'spline'"),
        (lambda: QuadraticObjective([1.0, 0.0]), "curvatures must be > 0"),
        (lambda: FedRunConfig(Q=1, T=1, batch_size=4, beta0=0.1, schedule="cosine"),
         "schedule must be 'constant' or 'inv_sqrt', got 'cosine'"),
        (lambda: local_round(np.ones(2), build_objective("quadratic", d=2), np.arange(10), 0,
                             0.1, 4, KEY.generator()), "Q must be >= 1"),
    ], ids=["kind", "curvature", "schedule", "local-Q"])
    def test_invalid_argument_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestLocalRound:
    def test_beta_zero_rejected(self):
        obj = build_objective("quadratic", d=2)
        with pytest.raises(ValueError):
            local_round(np.ones(2), obj, np.arange(10), 1, 0.0, 4, KEY.generator())

    def test_empty_client_rejected(self):
        obj = build_objective("quadratic", d=2)
        with pytest.raises(ValueError):
            local_round(np.ones(2), obj, np.array([]), 1, 0.1, 4, KEY.generator())

    def test_single_quadratic_step(self):
        obj = build_objective("quadratic", d=2, curvature_range=(1.0, 1.0))
        delta = local_round(np.array([1.0, 0.0]), obj, np.arange(10), 1, 0.1, 10,
                            KEY.generator())
        assert np.allclose(delta, [-0.1, 0.0])

    def test_two_quadratic_steps_compose(self):
        obj = build_objective("quadratic", d=2, curvature_range=(1.0, 1.0))
        delta = local_round(np.array([1.0, 0.0]), obj, np.arange(10), 2, 0.1, 10,
                            KEY.generator())
        assert np.allclose(delta, [-0.19, 0.0])

    def test_clipping_bounds_increment(self):
        ds, parts = _blob_setup()
        obj = build_objective("logistic", ds)
        w = StreamKey(3).generator().standard_normal(obj.dim)
        Q, beta, G = 10, 0.5, 0.2
        delta = local_round(w, obj, parts[0], Q, beta, 16, KEY.generator(1), clip_G=G)
        assert np.linalg.norm(delta) <= beta * Q * G + 1e-12


    @pytest.mark.parametrize("shape", [(7,), (5, 7)], ids=["one", "stack"])
    def test_clip_gradient_scales_in_place_bit_for_bit(self, shape):
        # rows far below, near and far above each bound
        g = StreamKey(4).generator().standard_normal(shape)
        if g.ndim == 2:
            g *= np.array([[0.01], [0.3], [1.0], [10.0], [1e3]])
        nan = g.copy()
        nan[..., 0] = np.nan
        # every row clipped, some rows, none; a NaN norm goes through the
        # arithmetic too
        for clip_G in (0.05, 1.0, 30.0, 1e6):
            for grad in (g, nan):
                norm = np.sqrt(np.add.reduce(grad * grad, axis=-1, keepdims=True))
                expected = grad * (clip_G / np.maximum(norm, clip_G))
                out = grad.copy()
                assert clip_gradient(out, clip_G) is out
                assert np.array_equal(out, expected, equal_nan=True)
        assert clip_gradient(g, None) is g


class TestRunFedavg:
    def _run(self, aggregator, T=5, seed=4, phy=None, K=3, **kw):
        ds, parts = _blob_setup(K=K)
        obj = build_objective("logistic", ds)
        cfg = FedRunConfig(Q=2, T=T, batch_size=32, beta0=0.1,
                           arms=arms(aggregator, phy=phy), seed=seed, **kw)
        return run_fedavg(cfg, obj, parts, ds)[0]

    def test_empty_partition_list_rejected(self):
        ds, _ = _blob_setup(K=3)
        obj = build_objective("logistic", ds)
        cfg = FedRunConfig(Q=1, T=1, batch_size=8, beta0=0.1)
        with pytest.raises(ValueError, match="at least one client"):
            run_fedavg(cfg, obj, [], ds)

    def test_seed_determinism(self):
        a = self._run("reed", phy=ReedPhyConfig(eta=5.0, noise_var=0.5))
        b = self._run("reed", phy=ReedPhyConfig(eta=5.0, noise_var=0.5))
        assert np.array_equal(a, b)

    def test_ideal_eps_identically_zero(self):
        traces = self._run("ideal")
        assert all(column(t, "eps_norm_sq") == 0.0 for t in traces)

    def test_trace_fields_sane(self):
        traces = self._run("reed", phy=ReedPhyConfig(eta=5.0, noise_var=0.5))
        assert traces.shape == (5, len(TRACE_COLUMNS))
        for t in traces:
            assert 0.0 <= column(t, "test_acc") <= 1.0
            assert column(t, "eps_norm_sq") >= 0.0
            assert np.isfinite(column(t, "train_loss"))
        # one trace per arm, in the config's order; without a test set,
        # test_acc reads 0
        ds, parts = _blob_setup(K=3)
        names = ("reed", "ideal", "coherent_csit")
        cfg = FedRunConfig(Q=2, T=3, batch_size=32, beta0=0.1, arms=arms(*names))
        untested = run_fedavg(cfg, build_objective("logistic", ds), parts)
        assert untested.shape == (len(names), 3, len(TRACE_COLUMNS))
        assert (column(untested, "test_acc") == 0.0).all()
        assert (column(untested[names.index("ideal")], "eps_norm_sq") == 0.0).all()
        assert (column(untested[names.index("reed")], "max_client_energy") > 0.0).all()

    def test_reed_single_client_constant_modulus_matches_ideal_trajectory(self):
        # K = 1, |h|^2 = mu^2 and no noise: reed agrees with ideal up to
        # float roundoff in sqrt(eta * c * u)^2 / eta
        clean = self._run("ideal", K=1)
        degenerate = self._run(
            "reed", K=1, phy=ReedPhyConfig(noise_var=0.0, kappa=1.0))
        for a, b in zip(clean, degenerate):
            assert column(a, "train_loss") == pytest.approx(column(b, "train_loss"), rel=1e-12)
            assert column(a, "test_acc") == column(b, "test_acc")
            assert column(b, "eps_norm_sq") < 1e-20

    def test_single_client_ideal_is_centralized_sgd(self):
        obj = build_objective("quadratic", d=3, curvature_range=(1.0, 1.0))
        parts = [np.arange(10)]
        cfg = FedRunConfig(Q=1, T=4, batch_size=10, beta0=0.1, arms=arms("ideal"), seed=0)
        [traces] = run_fedavg(cfg, obj, parts)
        w = np.ones(3)
        for t in range(4):
            w = w - 0.1 * w
        # final loss recorded by the harness equals the hand-rolled value
        assert column(traces[-1], "train_loss") == pytest.approx(0.5 * float(w @ w))

    def test_ideal_quadratic_loss_monotone(self):
        obj = build_objective("quadratic", d=5, curvature_range=(0.5, 2.0), seed=1)
        parts = [np.arange(i * 5, (i + 1) * 5) for i in range(2)]
        cfg = FedRunConfig(Q=3, T=10, batch_size=5, beta0=0.05, arms=arms("ideal"), seed=2)
        [traces] = run_fedavg(cfg, obj, parts)
        losses = column(traces, "train_loss")
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_budget_requires_clipping(self):
        with pytest.raises(ValueError):
            FedRunConfig(Q=1, T=1, batch_size=4, beta0=0.1,
                         budgets=np.ones(2))

    def test_energy_feasible_under_schedule(self):
        traces = self._run("reed", clip_G=0.5, budgets=np.full(3, 1.0),
                          phy=ReedPhyConfig(noise_var=0.5))
        for t in traces:
            assert column(t, "max_client_energy") <= 1.0 + 1e-12

    def test_budgeted_reed_checks_once_per_run(self, monkeypatch):
        # every gain is formed and checked at the run's start by one
        # eta_schedule call over the run's stepsizes, and the round loop
        # reuses the audit's denominator: no round calls the checks
        calls = []
        check = moments._check
        monkeypatch.setattr(moments, "_check",
                            lambda *a, **kw: calls.append(1) or check(*a, **kw))
        moments.eta_schedule(np.ones(3), 3, 4, np.ones(1), 1.0, np.full(3, 0.05), 2, 1.0)
        one_call = len(calls)
        obj = build_objective("quadratic", d=4, curvature_range=(0.5, 2.0), seed=1)
        counts = []
        for T in (3, 12):
            calls.clear()
            cfg = FedRunConfig(Q=2, T=T, batch_size=5, beta0=0.05, schedule="inv_sqrt",
                               clip_G=1.0, arms=arms("reed", phy=ReedPhyConfig(noise_var=0.5)),
                               budgets=np.ones(3))
            run_fedavg(cfg, obj, [np.arange(5)] * 3)
            counts.append(len(calls))
        assert counts[0] == counts[1] == one_call > 0

    def test_bad_middle_gain_rejected_before_the_first_step(self, monkeypatch):
        # a stepsize of 0 at round 2 alone gives that round an infinite gain;
        # the run stops before any local step and names the round
        stepsize = FedRunConfig.stepsize
        monkeypatch.setattr(FedRunConfig, "stepsize",
                            lambda self, t: 0.0 if t == 2 else stepsize(self, t))
        obj = build_objective("quadratic", d=4, curvature_range=(0.5, 2.0), seed=1)
        steps = []
        stacked = QuadraticObjective.stacked_gradient
        monkeypatch.setattr(QuadraticObjective, "stacked_gradient",
                            lambda self, *a: steps.append(1) or stacked(self, *a))
        cfg = FedRunConfig(Q=2, T=5, batch_size=5, beta0=0.05, clip_G=1.0,
                           arms=arms("ideal", "reed", phy=ReedPhyConfig(noise_var=0.5)),
                           budgets=np.ones(3))
        with pytest.raises(ValueError, match=r"^budgets must give finite gains > 0, "
                                             r"got inf at round 2$"):
            run_fedavg(cfg, obj, [np.arange(5)] * 3)
        assert steps == []

    def test_matched_seed_aggregators_share_local_randomness(self):
        # identical increments round 0: the first-round ideal update of the
        # reed run's sibling equals the ideal run's first-round update
        clean = self._run("ideal", T=1)
        noisy = self._run("coherent_csit", T=1,
                         phy=ReedPhyConfig(eta=1e12, noise_var=1e-12))
        assert column(clean[0], "train_loss") == pytest.approx(column(noisy[0], "train_loss"),
                                                               rel=1e-6)

    @pytest.mark.parametrize("names, K", [(("reed",), 1), (("reed",), 6), (("ideal",), 6),
                                          (("reed", "ideal", "coherent_csit"), 3)])
    def test_round_peak_is_what_the_run_reserves(self, monkeypatch, names, K):
        # the model-sized temporaries of clipped quadratic rounds, evaluated
        # in line, peak within the rows that the run reserves for them before
        # round 0, one call of (rows, d), and within 4 rows of it
        reserved = []
        monkeypatch.setattr(fedavg, "_reserve", reserved.append)
        d, A = 100_000, len(names)
        cfg = FedRunConfig(Q=2, T=3, batch_size=4, beta0=0.1, clip_G=1.0,
                           arms=arms(*names, phy=ReedPhyConfig(noise_var=0.5,
                                                               chip_weights=np.ones(3))))
        obj = build_objective("quadratic", d=d)
        # the run's own: its models, the clients' copies and the kernel buffers
        own = 8 * d * (A * K + A) + names.count("reed") * sum(
            b.nbytes for b in estimator.kernel_buffers(d))
        tracemalloc.start()
        try:
            run_fedavg(cfg, obj, [np.empty(0, dtype=int)] * K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        [(rows, width)] = reserved
        assert width == d and rows - 4 < (peak - own) / (8 * d) <= rows


def _ragged_setup():
    # clients of 5, 19, 5, 1 and 90 samples: three smaller than a 16-sample
    # batch (one of them a single sample) and two with a short last batch.
    # The index arrays are fixed (a stride-7 walk over the 120 rows) rather
    # than drawn, so no stream layout moves them
    ds = synth_dataset(120, seed=0, classes=3, p=4, separation=3.0)
    order = np.arange(120) * 7 % 120
    parts = [np.sort(chunk) for chunk in np.split(order, np.cumsum([5, 19, 5, 1]))]
    assert [p.size for p in parts] == [5, 19, 5, 1, 90]
    return ds, parts


def _objective(kind, ds):
    return build_objective(kind, ds, hidden=6, d=5, curvature_range=(0.5, 2.0), seed=2)


def _assert_rel(actual, reference, rel=1e-12):
    actual, reference = np.asarray(actual), np.asarray(reference)
    assert actual.shape == reference.shape
    assert np.max(np.abs(actual - reference)) <= rel * np.max(np.abs(reference))


def _client_rngs(key, K):
    """Client k's minibatch generator at ``key.generator(k)``, for k < K."""
    return [key.generator(k) for k in range(K)]


def _plan(parts, Q, batch_size, key=KEY):
    """The minibatch plan of one client per partition, client k drawing
    from ``key.generator(k)``."""
    return _MinibatchPlan(parts, Q, batch_size, _client_rngs(key, len(parts)))


def _steps(obj, plan, models=1):
    """A round's stacked_gradient inputs after the parameters of
    ``models`` models, drawn from ``plan``, one tuple per step, as
    run_fedavg passes them."""
    batches = plan.draw()
    if not obj.uses_batches:
        return [(None, None, None)] * len(batches)
    return list(zip(batches, obj.step_targets(batches, models), plan.weights))


def _record_local_round_batches(monkeypatch, obj, parts, Q, batch_size, key):
    """The minibatches local_round feeds to stochastic_gradient, per client,
    client k drawing from ``key.generator(k)``."""
    seen = []
    original = type(obj).stochastic_gradient
    monkeypatch.setattr(type(obj), "stochastic_gradient",
                        lambda self, w, batch: seen.append(batch) or original(self, w, batch))
    per_client = []
    for k, part in enumerate(parts):
        seen.clear()
        local_round(np.zeros(obj.dim), obj, part, Q, 0.1, batch_size, key.generator(k))
        per_client.append(list(seen))
    return per_client


class TestMinibatchPlan:
    """The run-long minibatch plan against the per-client draws it stands in
    for: the same batches from the same generators, and each step's inputs
    as a per-step computation would make them."""

    Q, BATCH = 7, 16  # Q forces a reshuffle on every client but the largest

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("S", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 17, 600])
    def test_permuted_rows_are_sequential_permutations(self, n, S, dtype):
        # one permuted call over S stacked copies draws what S permutation
        # calls draw, and leaves the generator where they leave it
        indices = (np.arange(n) * 7 % 1201).astype(dtype)
        ours, theirs = KEY.generator(n, S), KEY.generator(n, S)
        out = np.zeros((S, n + 3), dtype=np.intp)
        ours.permuted(np.broadcast_to(indices, (S, n)), axis=1, out=out[:, :n])
        assert np.array_equal(out[:, :n], [theirs.permutation(indices) for _ in range(S)])
        assert (out[:, n:] == 0).all()
        assert ours.integers(1 << 62, size=4).tolist() == theirs.integers(1 << 62, size=4).tolist()

    def test_batches_equal_client_batches_round_after_round(self):
        # reshuffles, the single-sample client and padded short batches,
        # over several rounds of run-long generators
        ds, parts = _ragged_setup()
        K, B = len(parts), self.BATCH
        plan, twins = _plan(parts, self.Q, B), _client_rngs(KEY, K)
        assert plan.batches.shape == (self.Q, K, B) and plan.lengths.shape == (self.Q, K)
        for t in range(4):
            batches = plan.draw()
            assert batches is plan.batches and batches.flags.c_contiguous
            for k, part in enumerate(parts):
                rows, lengths = _client_batches(part, self.Q, B, twins[k])
                width = rows.shape[1]
                assert plan.lengths[:, k].tolist() == lengths
                assert np.array_equal(batches[:, k, :width], rows), (t, k)
                assert (batches[:, k, width:] == 0).all()
        assert (plan.lengths[:, 3] == 1).all()

    def test_step_inputs_equal_per_step_computation(self):
        ds, parts = _ragged_setup()
        obj = _objective("logistic", ds)
        plan = _plan(parts, self.Q, self.BATCH)
        for t in range(3):
            steps = _steps(obj, plan, models=2)
            assert len(steps) == self.Q
            for q, (batches, entries, weights) in enumerate(steps):
                assert np.array_equal(batches, plan.batches[q])
                assert np.array_equal(entries, _label_entries(ds.labels[batches], obj.n_classes,
                                                              2))
                # the K batches' weights in turn, over the class-major columns
                lengths = plan.lengths[q][:, None]
                expected = ((np.arange(self.BATCH) < lengths) / lengths).reshape(1, -1)
                assert weights.shape == expected.shape
                assert (weights == expected).all()

    def test_empty_client_rejected(self):
        # in its own words, even where Q is too large as well
        for Q in (self.Q, 10**20):
            with pytest.raises(ValueError, match="^client dataset is empty$"):
                _plan([np.arange(4), np.arange(0)], Q, self.BATCH)

    # at the C5 shape, 10 clients and 64-sample batches, the plan's index
    # array would exceed NumPy's largest size, and then a C integer's range
    @pytest.mark.parametrize("Q", [10**16, 10**20])
    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    def test_oversized_Q_names_Q(self, kind, Q):
        ds, parts = _blob_setup(n=1000, K=10)
        cfg = FedRunConfig(Q=Q, T=1, batch_size=64, beta0=0.1)
        with pytest.raises(ValueError, match="^Q too large: "):
            run_fedavg(cfg, _objective(kind, ds), parts)


class TestLabelEntries:
    """The label entries of a stack of models against a per-model,
    per-sample reference: model a's entry of sample (k, j) is its true
    class's in the model's own (C, K·B) block of class-major logits."""

    @pytest.mark.parametrize("A, K, B, C", [(1, 1, 7, 3), (3, 1, 5, 2), (2, 4, 6, 5),
                                            (3, 10, 64, 10)])
    def test_stacked_entries_index_each_models_block(self, A, K, B, C):
        labels = StreamKey(76).generator().integers(0, C, size=(K, B))
        entries = _label_entries(labels, C, A)
        assert entries.shape == (A * K * B,)
        expected = [np.ravel_multi_index((a, labels[k, j], k * B + j), (A, C, K * B))
                    for a in range(A) for k in range(K) for j in range(B)]
        assert entries.tolist() == expected
        # Q steps' labels give each step's row
        steps = np.stack([labels, (labels + 1) % C])
        assert np.array_equal(_label_entries(steps, C, A),
                              [entries, _label_entries(steps[1], C, A)])

    def test_one_batch_entries_are_the_full_train_entries(self):
        # (n,) labels are one batch of n: c·n + j for one model, and the
        # class-major block of each model of a stack in turn
        n, C, A = 37, 4, 3
        labels = StreamKey(77).generator().integers(0, C, size=n)
        assert np.array_equal(_label_entries(labels, C), labels * n + np.arange(n))
        assert np.array_equal(_label_entries(labels[None], C), labels * n + np.arange(n))
        assert np.array_equal(_label_entries(labels, C, A),
                              np.concatenate([a * C * n + labels * n + np.arange(n)
                                              for a in range(A)]))


class TestBatchedTraining:
    """run_fedavg's stacked steps against the per-client local_round loop."""

    Q, BATCH = 7, 16  # Q forces a reshuffle on every client but the largest

    def test_batch_indices_equal_local_round(self, monkeypatch):
        ds, parts = _ragged_setup()
        obj = _objective("logistic", ds)
        plan = _plan(parts, self.Q, self.BATCH)
        batches, lengths = plan.draw(), plan.lengths
        expected = _record_local_round_batches(monkeypatch, obj, parts, self.Q,
                                               self.BATCH, KEY)
        assert batches.shape == (self.Q, len(parts), self.BATCH)
        for k, client in enumerate(expected):
            assert len(client) == self.Q
            for q, batch in enumerate(client):
                assert lengths[q, k] == batch.size
                assert np.array_equal(batches[q, k, :lengths[q, k]], batch)
        # the single-sample client sees its one sample every step
        assert np.all(lengths[:, 3] == 1)
        assert np.all(batches[:, 3, 0] == parts[3][0])

    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
    def test_stacked_gradient_matches_per_client(self, kind):
        ds, parts = _ragged_setup()
        obj = _objective(kind, ds)
        plan = _plan(parts, self.Q, self.BATCH)
        steps, batches, lengths = _steps(obj, plan), plan.batches, plan.lengths
        params = 0.3 * StreamKey(5).generator().standard_normal((len(parts), obj.dim))
        for q in range(self.Q):
            stacked = obj.stacked_gradient(params, *steps[q])
            for k in range(len(parts)):
                single = obj.stochastic_gradient(params[k], batches[q, k, :lengths[q, k]])
                _assert_rel(stacked[k], single)

    @pytest.mark.parametrize("clip_G", [None, 0.05])
    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
    def test_run_fedavg_matches_local_round_loop(self, monkeypatch, kind, clip_G):
        ds, parts = _ragged_setup()
        obj = _objective(kind, ds)
        K, T = len(parts), 4
        cfg = FedRunConfig(Q=self.Q, T=T, batch_size=self.BATCH, beta0=0.2,
                           schedule="inv_sqrt", clip_G=clip_G, seed=9)
        recorded = []
        monkeypatch.setattr(fedavg, "aggregate_ideal",
                            lambda inc: recorded.append(inc) or aggregate_ideal(inc))
        [traces] = run_fedavg(cfg, obj, parts)
        assert len(recorded) == T

        # each client's generator and the proxy rows' are built once and
        # read on, round after round
        root = StreamKey(cfg.seed)
        w = obj.init_params(root.child(0))
        clients, proxy = _client_rngs(root.child(1), K), root.generator(1, K)
        for t in range(T):
            _assert_rel(column(traces[t], "grad_norm_sq"),
                        float(np.sum(obj.diagnostic_gradient(w, proxy)**2)))
            inc = np.stack([local_round(w, obj, parts[k], self.Q, cfg.stepsize(t),
                                        self.BATCH, clients[k], clip_G)
                            for k in range(K)])
            _assert_rel(recorded[t], inc)
            w = w + aggregate_ideal(inc)
            _assert_rel(column(traces[t], "train_loss"), obj.loss(w, np.arange(len(ds))))
        if clip_G is not None:
            # clipping is active from the first step on
            steps = _steps(obj, _plan(parts, self.Q, self.BATCH, root.child(1)))
            w0 = np.tile(obj.init_params(root.child(0)), (K, 1))
            g0 = obj.stacked_gradient(w0, *steps[0])
            assert np.max(np.linalg.norm(g0, axis=1)) > clip_G

    def test_fused_logistic_evaluate_equals_loss_and_full_gradient(self):
        ds, _ = _ragged_setup()
        obj = _objective("logistic", ds)
        w = 0.3 * StreamKey(6).generator().standard_normal(obj.dim)
        loss, grad = obj.evaluate(w[None], None)
        assert loss[0] == obj.loss(w, np.arange(len(ds)))
        assert np.array_equal(grad[0], obj.full_gradient(w))

    def test_one_stacked_gradient_per_step_and_one_full_pass_per_round(self, monkeypatch):
        ds, parts = _ragged_setup()
        obj = _objective("logistic", ds)
        cls = LogisticObjective
        calls = {"stacked": 0, "stochastic": 0, "local_round": 0}
        full_passes, full_backward = [], []
        for name in ("stacked_gradient", "stochastic_gradient"):
            def spy(self, *args, _fn=getattr(cls, name), _key=name.split("_")[0]):
                calls[_key] += 1
                return _fn(self, *args)
            monkeypatch.setattr(cls, name, spy)
        softmax_parts, backward = fedavg._softmax_parts, cls._backward
        # a pass over the training set reads all n of its samples
        monkeypatch.setattr(fedavg, "_softmax_parts", lambda Z: (
            full_passes.append(Z.shape[-1] == len(ds)) or softmax_parts(Z)))
        monkeypatch.setattr(cls, "_backward", lambda self, params, x, *a: (
            full_backward.append(x.shape[-1] == len(ds)) or backward(self, params, x, *a)))
        monkeypatch.setattr(fedavg, "local_round", lambda *a, **kw: calls.update(
            local_round=calls["local_round"] + 1))
        T = 3
        for aggregators in (("ideal",), ("ideal", "reed", "coherent_csit")):
            calls.update(stacked=0, stochastic=0)
            full_passes.clear()
            full_backward.clear()
            cfg = FedRunConfig(Q=self.Q, T=T, batch_size=self.BATCH, beta0=0.1,
                               arms=arms(*aggregators), seed=1)
            run_fedavg(cfg, obj, parts, ds)
            assert calls["stacked"] == self.Q * T  # not A * K * Q * T
            assert calls["local_round"] == 0
            # one evaluate pass over all aggregators per model state, the
            # initial one and one after each round.  Accuracy reads the
            # logits, not the probabilities.
            assert calls["stochastic"] == 0
            assert sum(full_passes) == T + 1  # not 1 + T·A, one per aggregator and round
            # no trace reads the last state's gradients
            assert sum(full_backward) == T

    @pytest.mark.parametrize("kind,draws", [("quadratic", False), ("logistic", True)])
    def test_batch_free_objective_draws_no_batches(self, monkeypatch, kind, draws):
        ds, parts = _ragged_setup()
        obj = _objective(kind, ds)
        calls = []
        draw = _MinibatchPlan.draw
        monkeypatch.setattr(_MinibatchPlan, "draw", lambda plan: (
            calls.append(plan) or draw(plan)))
        T = 3
        cfg = FedRunConfig(Q=self.Q, T=T, batch_size=self.BATCH, beta0=0.1)
        run_fedavg(cfg, obj, parts)
        assert obj.uses_batches is draws
        assert len(calls) == (T if draws else 0)


class TestClassifierPasses:
    """The classifiers' stacked passes against central differences of
    ``loss`` on short and padded batches, and the parameter layout they
    read."""

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_stacked_passes_match_finite_differences(self, kind):
        ds, parts = _ragged_setup()
        obj = _objective(kind, ds)
        K, Q = len(parts), 2
        # widths 16: short batches of 5, 3 and 1 sample, padded
        plan = _plan(parts, Q, 16)
        steps, batches, lengths = _steps(obj, plan, models=2), plan.batches, plan.lengths
        assert (lengths < 16).any()
        rng = StreamKey(73).generator()
        params = 0.3 * rng.standard_normal((2, obj.dim))  # two models
        full = obj.evaluate(params, None)[1]
        stacked = [obj.stacked_gradient(np.repeat(params, K, axis=0), *steps[q])
                   for q in range(Q)]
        h = 1e-5

        def central(w, batch, v):
            return (obj.loss(w + h * v, batch) - obj.loss(w - h * v, batch)) / (2 * h)

        for a, w in enumerate(params):
            for _ in range(3):
                v = rng.standard_normal(obj.dim)
                v /= np.linalg.norm(v)
                assert central(w, np.arange(len(ds)), v) == pytest.approx(
                    float(full[a] @ v), rel=1e-4, abs=1e-7)
                for q in range(Q):
                    for k in range(K):
                        batch = batches[q, k, :lengths[q, k]]
                        assert central(w, batch, v) == pytest.approx(
                            float(stacked[q][a * K + k] @ v), rel=1e-4, abs=1e-7)

    def test_logistic_logits_are_w_x_plus_b(self):
        # the parameters are W (p, C), row-major, then b (C)
        ds, _ = _ragged_setup()
        obj = _objective("logistic", ds)
        params = 0.3 * StreamKey(74).generator().standard_normal((3, obj.dim))
        p, C = obj.n_features, obj.n_classes
        W, b = params[:, :p * C].reshape(3, p, C), params[:, p * C:]
        expected = W.swapaxes(1, 2) @ ds.features.T + b[:, :, None]
        _assert_rel(obj._forward(params, fedavg._with_ones(ds.features.T))[0], expected)

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_training_inputs_held_once(self, kind):
        # one (n, p + 1) block that every pass reads, and O(n) label
        # entries: no transposed copy and no (C, n) one-hot targets
        n, p = 2000, 50
        ds = synth_dataset(n, seed=0, classes=10, p=p)
        tracemalloc.start()
        try:
            obj = build_objective(kind, ds, hidden=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * (p + 1) * 8 + 6 * n * 8
        obj.proxy_samples = n  # the MLP's diagnostic gradient over the whole set
        read, forward = [], obj._forward
        obj._forward = lambda params, x: (read.append(x), forward(params, x))[1]
        params = 0.1 * StreamKey(75).generator().standard_normal((2, obj.dim))
        obj.evaluate(params, None)
        obj.full_gradient(params[0])
        obj.loss(params[0], slice(None))
        assert len(read) == 3
        assert all(np.shares_memory(x, obj._rows) for x in read)


class TestStackedEvaluation:
    """evaluate and accuracy on a stack of A models against each model
    alone: every row must be bit-identical, whatever its place in the
    stack."""

    KINDS = ["quadratic", "logistic", "mlp-full", "mlp-proxy"]

    def _setup(self, kind):
        if kind == "mlp-proxy":
            # above proxy_samples, the MLP's diagnostic gradient is subsampled
            ds, _ = _blob_setup(n=MlpObjective.proxy_samples + 88, K=4)
            obj = _objective("mlp", ds)
        else:
            ds, _ = _ragged_setup()
            obj = _objective(kind.removesuffix("-full"), ds)
        params = 0.3 * StreamKey(11).generator().standard_normal((3, obj.dim))
        return obj, ds, params

    @pytest.mark.parametrize("kind", KINDS)
    def test_stacked_evaluate_equals_each_model_alone(self, kind):
        obj, ds, params = self._setup(kind)
        # a fresh generator per call, so that every call draws the same
        # proxy rows
        losses, grads = obj.evaluate(params, KEY.generator())
        assert losses.shape == (3,) and grads.shape == (3, obj.dim)
        assert len(set(losses.tolist())) == 3  # three distinct models
        for a, w in enumerate(params):
            alone_loss, alone_grad = obj.evaluate(params[a:a + 1], KEY.generator())
            assert alone_loss.shape == (1,) and alone_grad.shape == (1, obj.dim)
            assert alone_loss[0] == losses[a]
            assert (alone_grad[0] == grads[a]).all()
            # and each equals the single-model methods
            assert losses[a] == obj.loss(w, np.arange(len(ds)))
            assert (grads[a] == obj.diagnostic_gradient(w, KEY.generator())).all()

    @pytest.mark.parametrize("kind", KINDS)
    def test_stacked_accuracy_equals_each_model_alone(self, kind):
        obj, ds, params = self._setup(kind)
        acc = obj.accuracy(params, ds.features, ds.labels)
        assert acc.shape == (3,)
        for a in range(3):
            assert obj.accuracy(params[a:a + 1], ds.features, ds.labels)[0] == acc[a]

    @pytest.mark.parametrize("kind", KINDS)
    def test_permuting_the_stack_permutes_the_results(self, kind):
        obj, ds, params = self._setup(kind)
        losses, grads = obj.evaluate(params, KEY.generator())
        acc = obj.accuracy(params, ds.features, ds.labels)
        for order in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            shuffled_losses, shuffled_grads = obj.evaluate(params[order], KEY.generator())
            assert (shuffled_losses == losses[order]).all()
            assert (shuffled_grads == grads[order]).all()
            assert (obj.accuracy(params[order], ds.features, ds.labels) == acc[order]).all()

    @pytest.mark.parametrize("kind", KINDS)
    def test_evaluation_key_built_only_for_proxy_rows(self, monkeypatch, kind):
        obj, ds, _ = self._setup(kind)
        rngs, rows = [], []
        evaluate = type(obj).evaluate
        monkeypatch.setattr(type(obj), "evaluate", lambda self, params, rng, **kw: (
            rngs.append(rng) or evaluate(self, params, rng, **kw)))
        if obj.uses_proxy:
            diagnostic_rows = MlpObjective._diagnostic_rows
            monkeypatch.setattr(MlpObjective, "_diagnostic_rows", lambda self, rng: (
                rows.append(diagnostic_rows(self, rng)) or rows[-1]))
        K, T = 3, 3
        cfg = FedRunConfig(Q=1, T=T, batch_size=8, beta0=0.05, seed=2)
        run_fedavg(cfg, obj, partition(ds, PartitionSpec("iid", K, seed=0)), ds)
        assert obj.uses_proxy is (kind == "mlp-proxy")
        # model states 0 .. T, all evaluated with one generator, built at
        # (local, K), whose proxy rows each state reads on from the last;
        # state T is evaluated for its losses alone and draws none
        assert len(rngs) == T + 1
        if not obj.uses_proxy:
            assert rngs == [None] * (T + 1)
            return
        assert all(rng is rngs[0] for rng in rngs) and len(rows) == T
        proxy = StreamKey(cfg.seed).generator(fedavg._DOM_LOCAL, K)
        for drawn in rows:
            assert np.array_equal(drawn, proxy.choice(len(ds), size=obj.proxy_samples,
                                                      replace=False))

    @pytest.mark.parametrize("kind", KINDS)
    def test_run_path_uses_only_the_stacked_api(self, monkeypatch, kind):
        # each of the model states 0 .. T is evaluated by one evaluate call;
        # run_fedavg itself calls no single-model method, and the gains come
        # from one eta_schedule call before round 0
        obj, ds, _ = self._setup(kind)
        cls = type(obj)
        calls, depth = [], [0]
        for name in ("evaluate", "loss", "full_gradient", "diagnostic_gradient",
                     "stochastic_gradient"):
            def spy(self, *args, _fn=getattr(cls, name), _name=name, **kw):
                # only the outermost call counts: the quadratic's evaluate
                # takes each model's loss
                if not depth[0]:
                    calls.append(_name)
                depth[0] += 1
                try:
                    return _fn(self, *args, **kw)
                finally:
                    depth[0] -= 1
            monkeypatch.setattr(cls, name, spy)
        schedule = fedavg.eta_schedule
        monkeypatch.setattr(fedavg, "eta_schedule",
                            lambda *a: calls.append("eta_schedule") or schedule(*a))
        K, T = 3, 3
        cfg = FedRunConfig(Q=1, T=T, batch_size=8, beta0=0.05, schedule="inv_sqrt",
                           clip_G=1.0, arms=arms("ideal", "reed"), budgets=np.ones(K),
                           seed=2)
        run_fedavg(cfg, obj, partition(ds, PartitionSpec("iid", K, seed=0)), ds)
        assert obj.uses_proxy is (kind == "mlp-proxy")
        assert calls == ["eta_schedule"] + ["evaluate"] * (T + 1)


# Stacked against alone at full-train sizes, in a fresh interpreter whose
# BLAS thread count is set before NumPy loads.  At n <= 600 even one
# stacked gradient matmul over all the models happens to be row-exact, yet
# at n = 2000 (one thread) or n = 6000 (two) it is not, so only these sizes
# hold _affine_grad to one matmul per model.  At p = 784, the width of the
# paper's images, the full passes hand BLAS the training rows' transposed
# view over a much longer reduction.  There, too, the full-train backward's
# np.dot per model must give the bits of the matmul it stands in for.
_EXACT_AT_SCALE = """
import numpy as np
from reedsim.datasets import synth_dataset
from reedsim.fedavg import _affine_grad, build_objective
from reedsim.streams import StreamKey

A, K = 3, 2
for n, p in ((2000, 20), (6000, 20), (2000, 784)):
    ds = synth_dataset(n, seed=0, classes=10, p=p, separation=2.0)
    x = build_objective("logistic", ds)._rows.T
    for O in (10, 16):  # the logits' and the MLP's hidden units' gradients
        dout = StreamKey(5).generator().standard_normal((A, O, n))
        assert (_affine_grad(dout, x) == (dout @ x.T).swapaxes(-1, -2)).all(), ("np.dot", n, p)
    # two clients whose batches span the set, the second with padding
    batches = np.arange(n).reshape(K, -1)
    lengths = np.array([n // K, n // K - 7])[:, None]
    weights = ((np.arange(n // K) < lengths) / lengths).reshape(1, -1)
    for kind in ("logistic", "mlp"):
        obj = build_objective(kind, ds, hidden=16, seed=2)
        obj.proxy_samples = n  # the MLP's diagnostic gradient on every row
        rng = StreamKey(11).generator()
        params = 0.3 * rng.standard_normal((A, obj.dim))
        losses, grads = obj.evaluate(params, None)
        clients = 0.3 * rng.standard_normal((A * K, obj.dim))
        stacked = obj.stacked_gradient(clients, batches,
                                       obj.step_targets(batches[None], A)[0], weights)
        inputs = batches, obj.step_targets(batches[None], 1)[0], weights
        for a in range(A):
            alone_loss, alone_grad = obj.evaluate(params[a:a + 1], None)
            assert alone_loss[0] == losses[a], ("evaluate loss", n, kind, a)
            assert (alone_grad[0] == grads[a]).all(), ("evaluate gradient", n, kind, a)
            rows = slice(a * K, (a + 1) * K)
            alone = obj.stacked_gradient(clients[rows], *inputs)
            assert (alone == stacked[rows]).all(), ("stacked_gradient", n, kind, a)
"""


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_stacked_rows_exact_at_full_train_sizes(blas_threads):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "OMP_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _EXACT_AT_SCALE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _run_setups():
    """(FedRunConfig, objective, partitions, test data) of a budgeted
    quadratic run, a logistic run on ragged clients and an MLP run with
    proxy rows."""
    quadratic = build_objective("quadratic", d=6, curvature_range=(0.5, 2.0), seed=1)
    # budgeted: each reed arm's gains follow its own chips and mean power
    yield (FedRunConfig(Q=3, T=5, batch_size=5, beta0=0.05, schedule="inv_sqrt",
                        clip_G=1.0, budgets=np.ones(4), seed=3),
           quadratic, [np.arange(5)] * 4, None)
    ds, parts = _ragged_setup()
    yield (FedRunConfig(Q=7, T=4, batch_size=16, beta0=0.2, clip_G=0.05, seed=9),
           _objective("logistic", ds), parts, ds)
    # above proxy_samples, the MLP's diagnostic gradient is subsampled
    ds, parts = _blob_setup(n=MlpObjective.proxy_samples + 88, K=4)
    yield (FedRunConfig(Q=3, T=4, batch_size=32, beta0=0.1, seed=5),
           _objective("mlp", ds), parts, ds)


def _assert_divergence_messages():
    ds, parts = _blob_setup(K=3)
    cfg = FedRunConfig(Q=2, T=2, batch_size=32, beta0=0.1,
                       arms=arms("ideal", "reed", phy=ReedPhyConfig(noise_var=1e308)))
    with pytest.raises(RuntimeError,
                       match=r"^aggregator 'reed': non-finite model after round 0$"):
        run_fedavg(cfg, build_objective("logistic", ds), parts, ds)
    # two arms that diverge in the same round: the first in order is
    # named, with what it left the finite numbers by
    loud, sound = ReedPhyConfig(noise_var=1e308), ReedPhyConfig()
    for run_arms, message in (
            ((("reed", sound), ("coherent_csit", loud), ("reed", loud)),
             "aggregator 'coherent_csit': non-finite eps_norm_sq"),
            ((("ideal", sound), ("reed", loud), ("coherent_csit", loud)),
             "aggregator 'reed': non-finite model")):
        with pytest.raises(RuntimeError, match=f"^{message} after round 0$"):
            run_fedavg(replace(cfg, arms=run_arms), build_objective("logistic", ds),
                       parts, ds)


class TestLockstep:
    """Several arms in one run_fedavg call against each arm run alone."""

    AGGREGATORS = ("ideal", "reed", "coherent_csit")
    PHY = ReedPhyConfig(eta=4.0, noise_var=0.5, chip_weights=np.ones(2))
    # radios that differ from PHY in one field each: the chips, the
    # antennas, a kappa other than 2, the mean power and the gain
    RADIOS = (PHY, replace(PHY, chip_weights=np.ones(3)), replace(PHY, chip_weights=np.ones(1)),
              replace(PHY, antennas=2), replace(PHY, kappa=3.0),
              replace(PHY, mean_powers=np.array([0.6])), replace(PHY, eta=9.0))

    def _assert_each_arm_alone(self, cfg, obj, parts, test, run_arms):
        together = run_fedavg(replace(cfg, arms=run_arms), obj, parts, test)
        assert together.shape == (len(run_arms), cfg.T, len(TRACE_COLUMNS))
        for a, arm in enumerate(run_arms):
            [alone] = run_fedavg(replace(cfg, arms=(arm,)), obj, parts, test)
            assert np.array_equal(together[a], alone), (type(obj).__name__, a, arm[0])
        return together

    def test_lockstep_equals_each_aggregator_alone(self):
        for setup in _run_setups():
            self._assert_each_arm_alone(*setup, arms(*self.AGGREGATORS, phy=self.PHY))

    def test_lockstep_equals_each_arm_alone(self):
        # one ideal arm, and a reed and a coherent_csit arm on every radio
        run_arms = (("ideal", self.PHY),) + tuple(
            (name, radio) for radio in self.RADIOS for name in ("reed", "coherent_csit"))
        for setup in _run_setups():
            together = self._assert_each_arm_alone(*setup, run_arms)
            # the radios are not all the same run
            reed = {together[a].tobytes() for a, (name, _) in enumerate(run_arms)
                    if name == "reed"}
            assert len(reed) >= len(self.RADIOS) - 1
            # but coherent_csit reads only eta and noise_var: the radios that
            # share them are one run
            coherent = {}
            for a, (name, radio) in enumerate(run_arms):
                if name == "coherent_csit":
                    coherent.setdefault((radio.eta, radio.noise_var), set()).add(
                        together[a].tobytes())
            assert [len(runs) for runs in coherent.values()] == [1, 1]

    def test_one_data_build_and_one_batch_draw_per_round(self, monkeypatch):
        calls = {"build": 0, "batches": 0}
        build, draw = experiments.build_experiment_data, fedavg._MinibatchPlan.draw
        runs = []
        run = experiments.run_fedavg
        monkeypatch.setattr(experiments, "run_fedavg",
                            lambda cfg, *a: runs.append(cfg.arms) or run(cfg, *a))

        def counting(name, fn):
            return lambda *a: calls.update({name: calls[name] + 1}) or fn(*a)

        monkeypatch.setattr(experiments, "build_experiment_data", counting("build", build))
        monkeypatch.setattr(fedavg._MinibatchPlan, "draw", counting("batches", draw))
        T = 3
        cfg = parse_config(f"""
fed.K = 3
fed.Q = 2
fed.T = {T}
fed.batch_size = 8
fed.aggregators = ["ideal", "reed", "coherent_csit"]
data.synth_n = 60
data.test_n = 20
data.classes = 3
data.features = 4
phy.noise_var = 0.5
""")
        # a three-point phy.chips group: one ideal arm, one coherent_csit arm,
        # which reads no chips, and three reed arms
        points = [{**cfg, "phy.chips": M} for M in (1, 2, 4)]
        traces = experiments.run_trial(points, 0)
        assert [[len(point[name]) for name in ("ideal", "reed", "coherent_csit")]
                for point in traces] == [[T, T, T]] * 3
        assert calls == {"build": 1, "batches": T}
        assert [name for name, _ in runs[0]] == [
            "ideal", "reed", "coherent_csit", "reed", "reed"]
        # each point's traces are its own run's, ideal included
        for point, together in zip(points, traces):
            [alone] = experiments.run_trial([point], 0)
            assert list(together) == list(alone)
            for name in alone:
                assert np.array_equal(together[name], alone[name])

    def test_budgeted_eta_group_runs_one_reed_arm(self, monkeypatch):
        # with fed.budget set, reed's gain is the budget's and it reads no
        # eta: a three-point phy.eta group runs one reed arm, while
        # coherent_csit, which reads eta, runs one arm per value
        runs = []
        run = experiments.run_fedavg
        monkeypatch.setattr(experiments, "run_fedavg",
                            lambda cfg, *a: runs.append(cfg.arms) or run(cfg, *a))
        cfg = parse_config("""
fed.K = 3
fed.Q = 2
fed.T = 3
fed.batch_size = 8
fed.clip_G = 1.0
fed.budget = 0.5
data.synth_n = 60
data.test_n = 20
data.classes = 3
data.features = 4
phy.noise_var = 0.5
""")
        for aggregators, coherent in ((["ideal", "reed"], 0),
                                      (["ideal", "reed", "coherent_csit"], 3)):
            points = [{**cfg, "fed.aggregators": aggregators, "phy.eta": eta}
                      for eta in (1.0, 50.0, 300.0)]
            runs.clear()
            traces = experiments.run_trial(points, 0)
            names = [name for name, _ in runs[0]]
            assert (names.count("ideal"), names.count("reed"),
                    names.count("coherent_csit")) == (1, 1, coherent)
            # each point's traces are those of the point run alone, byte
            # for byte
            for point, together in zip(points, traces):
                [alone] = experiments.run_trial([point], 0)
                assert list(together) == list(alone)
                for name in alone:
                    assert together[name].tobytes() == alone[name].tobytes()

    def test_mlp_proxy_rows_drawn_once_per_round(self, monkeypatch):
        # every arm evaluates model state s in one call, so the proxy rows
        # are drawn once per state, not once per arm, from the one stream
        # (local, K) that the run builds; the last state, evaluated for its
        # losses alone, draws none
        cfg, obj, parts, test = list(_run_setups())[-1]
        assert isinstance(obj, MlpObjective)
        K = len(parts)
        builds, draws = [], []
        original, diagnostic_rows = StreamKey.generator, MlpObjective._diagnostic_rows
        monkeypatch.setattr(StreamKey, "generator", lambda key, *index: (
            builds.append(key.child(*index).path) or original(key, *index)))
        monkeypatch.setattr(MlpObjective, "_diagnostic_rows", lambda self, rng: (
            draws.append(rng) or diagnostic_rows(self, rng)))
        run_fedavg(replace(cfg, arms=arms(*self.AGGREGATORS, phy=self.PHY)), obj, parts, test)
        assert builds.count((fedavg._DOM_LOCAL, K)) == 1
        assert len(draws) == cfg.T and all(rng is draws[0] for rng in draws)

    def test_divergence_names_the_aggregator(self):
        _assert_divergence_messages()

    def test_radio_read_is_what_each_aggregator_reads(self):
        cfg = ReedPhyConfig(eta=3.0, noise_var=0.5, mean_powers=[0.5, 2.0],
                            chip_weights=[1.0, 0.5], antennas=2, kappa=3.0)
        assert radio_read("ideal", cfg) == ReedPhyConfig()
        assert radio_read("coherent_csit", cfg) == ReedPhyConfig(eta=3.0, noise_var=0.5)
        assert radio_read("reed", cfg) == cfg
        key = StreamKey(271828)
        mean = aggregate_ideal(key.child(14).generator().normal(size=(2, 50)))
        assert np.array_equal(aggregate_coherent_csit(mean, cfg, key.generator(15)),
                              aggregate_coherent_csit(mean, radio_read("coherent_csit", cfg),
                                                      key.generator(15)))
        # under budgets reed's gain is the budgets', so it reads every field
        # but eta, which takes its default; the others read what they did
        budgets = np.ones(2)
        assert radio_read("reed", cfg, budgets) == replace(cfg, eta=ReedPhyConfig().eta)
        for name in ("ideal", "coherent_csit"):
            assert radio_read(name, cfg, budgets) == radio_read(name, cfg)
        # and a run config holds its arms' reads, budgeted or not
        for run_budgets in (None, budgets):
            run = FedRunConfig(Q=1, T=1, batch_size=4, beta0=0.1, clip_G=1.0,
                               arms=arms(*self.AGGREGATORS, phy=cfg), budgets=run_budgets)
            assert run.arms == tuple((name, radio_read(name, cfg, run_budgets))
                                     for name in self.AGGREGATORS)

    @pytest.mark.parametrize("aggregators", [
        (), (("ideal", ReedPhyConfig()), ("bogus", ReedPhyConfig())), ("reed", "reed"), "reed"])
    def test_aggregators_rejected(self, aggregators):
        # no arm, an unknown aggregator, and aggregators without a radio
        with pytest.raises(ValueError, match="^arms must"):
            FedRunConfig(Q=1, T=1, batch_size=4, beta0=0.1, arms=aggregators)


class TestGeneratorBuilds:
    """Every generator of a trial is built through StreamKey.generator, the
    method the benchmark's tracer counts, so no stream escapes the count;
    and a run builds each of its streams once (stream layouts 5 and 6)."""

    @pytest.mark.parametrize("model", ["quadratic", "logistic", "mlp"])
    def test_builds_per_run(self, monkeypatch, model):
        builds = []
        original = StreamKey.generator
        monkeypatch.setattr(StreamKey, "generator", lambda key, *index: (
            builds.append(key.child(*index).path) or original(key, *index)))
        K, M = 3, 2
        extra = {"quadratic": """
fed.model = "quadratic"
fed.quad_dim = 4
fed.clip_G = 1.0
fed.budget = 1.0
data.synth_kind = "quadratic-free"
data.synth_n = 60
data.test_n = 0
""", "logistic": """
data.synth_n = 60
data.classes = 3
data.features = 4
data.test_n = 20
""", "mlp": f"""
fed.model = "mlp"
fed.hidden = 3
data.synth_n = {MlpObjective.proxy_samples + 1}
data.classes = 3
data.features = 4
data.test_n = 20
"""}[model]
        # c per run, as in a benchmark unit.  A classifier's is 5: the
        # config check and the trial each build the partition's seed and the
        # synthetic data, and the trial builds the partition; the MLP builds
        # its initialisation too.  A quadratic-free trial builds no data,
        # partition or partition seed, and the config check draws no
        # curvatures, so the quadratic's is 3: the config check's class means
        # and partition seed, and the trial's curvatures
        c = {"quadratic": 3, "logistic": 5, "mlp": 6}[model]
        # one minibatch stream per client for an objective that reads its
        # batches, 2 channel streams per distinct chip weight of a reed arm
        # (its M unit-weight chips are one), one noise stream per
        # coherent_csit arm, and the MLP's proxy rows: none per round
        per_run = c + (K if model != "quadratic" else 0) + 2 + 1 + (model == "mlp")
        for T in (2, 5):
            builds.clear()
            experiments.run_trial([parse_config(f"""
fed.K = {K}
fed.Q = 2
fed.T = {T}
fed.batch_size = 8
fed.aggregators = ["ideal", "reed", "coherent_csit"]
phy.chips = {M}
phy.noise_var = 0.5
""" + extra)], 0)
            assert len(builds) == per_run
            channel = [path for path in builds if path[:1] == (fedavg._DOM_CHANNEL,)]
            assert sorted(channel) == [(fedavg._DOM_CHANNEL,)] + [
                (fedavg._DOM_CHANNEL, 0, b) for b in (0, 1)]

    def test_every_reed_arm_builds_its_own_streams(self, monkeypatch):
        # a phy.chips group: each reed arm builds the 2 streams of its
        # unit-weight chips, at chip 0, the same path in every arm (common
        # draws)
        builds = []
        original = StreamKey.generator
        monkeypatch.setattr(StreamKey, "generator", lambda key, *index: (
            builds.append(key.child(*index).path) or original(key, *index)))
        cfg = parse_config("""
fed.K = 3
fed.Q = 2
fed.T = 3
fed.batch_size = 8
data.synth_n = 60
data.test_n = 20
data.classes = 3
data.features = 4
""")
        experiments.run_trial([{**cfg, "phy.chips": M} for M in (1, 2, 4)], 0)
        channel = [path for path in builds if path[:1] == (fedavg._DOM_CHANNEL,)]
        assert sorted(channel) == sorted((fedavg._DOM_CHANNEL, 0, b)
                                         for M in (1, 2, 4) for b in (0, 1))

    def test_coherent_rounds_read_on_one_stream(self, monkeypatch):
        # every round of a coherent_csit arm draws from the one generator
        # its run built at (channel,), on from where the last round stopped
        rngs = []
        coherent = fedavg.aggregate_coherent_csit
        monkeypatch.setattr(fedavg, "aggregate_coherent_csit", lambda mean, phy, rng: (
            rngs.append(rng) or coherent(mean, phy, rng)))
        ds, parts = _blob_setup(K=3)
        obj = build_objective("logistic", ds)
        T = 4
        phy = ReedPhyConfig(eta=3.0, noise_var=0.5)
        cfg = FedRunConfig(Q=1, T=T, batch_size=16, beta0=0.1, seed=6,
                           arms=arms("coherent_csit", "ideal", phy=phy))
        coherent_trace, ideal_trace = run_fedavg(cfg, obj, parts, ds)
        assert len(rngs) == T and all(rng is rngs[0] for rng in rngs)
        # round t's aggregation error is the noise it drew, up to the
        # rounding of adding it to the mean and taking it off again
        noise = StreamKey(cfg.seed).generator(fedavg._DOM_CHANNEL)
        for t in range(T):
            eps = sample_noise(noise, phy.noise_var, size=obj.dim).real / np.sqrt(phy.eta)
            assert column(coherent_trace[t], "eps_norm_sq") == pytest.approx(eps @ eps, rel=1e-9)
        assert (column(ideal_trace, "eps_norm_sq") == 0).all()

    def test_coherent_round_takes_the_mean_once(self, monkeypatch):
        # a coherent_csit round adds its noise to the mean the round loop
        # formed, so T rounds take T means, counted in either module
        calls = []
        monkeypatch.setattr(fedavg, "aggregate_ideal",
                            lambda inc: calls.append(inc) or aggregate_ideal(inc))
        monkeypatch.setattr(estimator, "aggregate_ideal", fedavg.aggregate_ideal)
        T = 5
        cfg = FedRunConfig(Q=1, T=T, batch_size=4, beta0=0.1,
                           arms=arms("coherent_csit", phy=ReedPhyConfig(noise_var=0.5)))
        run_fedavg(cfg, build_objective("quadratic", d=3), [np.empty(0, dtype=int)] * 2)
        assert len(calls) == T

    def test_reed_rounds_call_the_module_aggregate_reed(self, monkeypatch):
        # every round of a reed arm calls fedavg.aggregate_reed, looked up
        # when the round runs, as the benchmark's tracer wraps it: once per
        # round, always on the one streams list and the one set of kernel
        # buffers that its run built for the arm, by one fedavg.kernel_buffers
        # call per reed arm.  The streams hold one pair for the arm's two
        # unit-weight chips
        calls, built = [], []
        reed, make = fedavg.aggregate_reed, fedavg.kernel_buffers
        monkeypatch.setattr(fedavg, "aggregate_reed", lambda inc, phy, streams, buffers: (
            calls.append((streams, buffers)) or reed(inc, phy, streams, buffers)))
        monkeypatch.setattr(fedavg, "kernel_buffers", lambda d: built.append(make(d)) or built[-1])
        ds, parts = _blob_setup(K=3)
        obj = build_objective("logistic", ds)
        T = 4
        phy = ReedPhyConfig(eta=3.0, noise_var=0.5, chip_weights=np.ones(2))
        cfg = FedRunConfig(Q=1, T=T, batch_size=16, beta0=0.1, seed=6,
                           arms=(*arms("reed", "ideal", phy=phy), ("reed", phy.with_eta(1.0))))
        traced = run_fedavg(cfg, obj, parts, ds)
        assert len(built) == 2 and len(calls) == 2 * T
        # a round aggregates arm by arm: the first reed arm, then the second
        for own, buffers in zip((calls[0::2], calls[1::2]), built):
            assert all(streams is own[0][0] and mine is buffers for streams, mine in own)
            assert len(own[0][0]) == 1
        monkeypatch.undo()
        assert np.array_equal(run_fedavg(cfg, obj, parts, ds), traced)


class TestStreamLayout:
    """What run-long streams promise: a short run is the start of a long
    one, and arms that need the same draws get them."""

    def test_short_run_is_a_prefix_of_a_long_run(self):
        for cfg, obj, parts, test in _run_setups():
            # budgeted under inv_sqrt: every round's gain and stepsize differ
            cfg = replace(cfg, schedule="inv_sqrt", clip_G=cfg.clip_G or 1.0,
                          budgets=np.ones(len(parts)),
                          arms=arms(*TestLockstep.AGGREGATORS, phy=TestLockstep.PHY))
            long = run_fedavg(replace(cfg, T=5), obj, parts, test)
            for T in (1, 3):
                short = run_fedavg(replace(cfg, T=T), obj, parts, test)
                assert np.array_equal(short, long[:, :T]), (type(obj).__name__, T)

    def test_zero_weight_chip_leaves_the_draws_alone(self):
        # at noise_var = 0 a chip of weight 0 receives exactly 0, and chip 0
        # reads the same stream in either arm, so [1, 0] is [1], trace for
        # trace
        for cfg, obj, parts, test in _run_setups():
            run_arms = (("reed", ReedPhyConfig(eta=4.0, chip_weights=[1.0, 0.0])),
                        ("reed", ReedPhyConfig(eta=4.0, chip_weights=[1.0])))
            two, one = run_fedavg(replace(cfg, arms=run_arms), obj, parts, test)
            assert np.array_equal(two, one), type(obj).__name__
            assert (column(two, "eps_norm_sq") > 0).all()


class TestAccuracyTies:
    """accuracy takes argmax's answer without calling argmax on the whole
    stack, ties and non-finite logits included."""

    @staticmethod
    def _argmax_accuracy(Z, labels):
        return np.mean(Z.argmax(axis=-2) == labels, axis=-1)

    def test_equals_argmax_on_tied_and_non_finite_logits(self):
        rng = StreamKey(71).generator()
        for trial in range(300):
            A, C, n = rng.integers(1, 4), rng.integers(2, 6), rng.integers(1, 40)
            # a few integer levels make ties at the top common
            Z = rng.integers(-2, 3, size=(A, C, n)).astype(float)
            if trial % 3 == 0:
                Z[rng.random(Z.shape) < 0.1] = rng.choice([np.inf, -np.inf, np.nan])
            if trial % 5 == 0:
                Z = Z[0]  # one model, (C, n)
            labels = rng.integers(0, C, size=n)
            entries = _label_entries(labels, C, Z.size // (C * n))
            assert np.array_equal(_accuracy(Z.copy(), labels, entries),
                                  self._argmax_accuracy(Z, labels))

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_objectives_break_ties_like_argmax(self, kind):
        ds, _ = _ragged_setup()
        obj = _objective(kind, ds)
        params = 0.3 * StreamKey(72).generator().standard_normal((3, obj.dim))
        # model 0 has every logit equal (class 0 wins every sample); in
        # model 1 classes 1 and 2 share their weights and biases, so they
        # tie wherever they lead.  The last layer's weights are one
        # (m + 1, C) matrix whose last row is the biases.
        params[0] = 0.0
        W = (params[1].reshape(-1, obj.n_classes) if kind == "logistic"
             else obj._layers(params[1])[1])
        W[:, 2] = W[:, 1]
        logits = obj._forward(params, fedavg._with_ones(ds.features.T))[0]
        assert (logits[1, 1] == logits[1, 2]).all()
        expected = self._argmax_accuracy(logits, ds.labels)
        assert expected[0] == np.mean(ds.labels == 0)
        assert np.array_equal(obj.accuracy(params, ds.features, ds.labels), expected)


def _on_cores(monkeypatch, cores, *run):
    """run_fedavg(*run) with ``cores`` usable cores, and the threads that
    evaluated its model states 0 .. T."""
    monkeypatch.setattr(fedavg, "_usable_cores", lambda: cores)
    obj = run[1]
    evaluate, threads = type(obj).evaluate, []

    def spy(self, params, rng, **kw):
        threads.append(threading.current_thread())
        return evaluate(self, params, rng, **kw)

    monkeypatch.setattr(type(obj), "evaluate", spy)
    try:
        return run_fedavg(*run), threads
    finally:
        monkeypatch.setattr(type(obj), "evaluate", evaluate)


def _overlap_setups():
    """(FedRunConfig, classifier, partitions, test data) of runs that take
    the evaluation thread on two cores: logistic and MLP, with and without
    proxy rows and test data, on several arms."""
    three = arms("ideal", "reed", "coherent_csit",
                 phy=ReedPhyConfig(eta=4.0, noise_var=0.5, chip_weights=np.ones(2)))
    for cfg, obj, parts, test in list(_run_setups())[1:]:
        for run_arms in (cfg.arms, three):
            for data in (test, None):
                yield replace(cfg, arms=run_arms), obj, parts, data
    ds, parts = _blob_setup(n=200, K=4)  # below proxy_samples, the MLP reads every row
    yield FedRunConfig(Q=2, T=3, batch_size=16, beta0=0.1, arms=three, seed=4), \
        _objective("mlp", ds), parts, ds


class TestOverlappedEvaluation:
    """On more than one core, a classifier's model states are evaluated on
    a second thread while the next round trains; the trace must be the
    serial one, byte for byte, and the thread must not outlive the run."""

    def test_traces_equal_on_one_and_two_cores(self, monkeypatch):
        for setup in _overlap_setups():
            serial, inline = _on_cores(monkeypatch, 1, *setup)
            overlapped, worker = _on_cores(monkeypatch, 2, *setup)
            assert overlapped.tobytes() == serial.tobytes()
            T = setup[0].T
            assert inline == [threading.main_thread()] * (T + 1)
            # state 0 too: the main thread evaluates nothing
            assert len(worker) == T + 1 and len(set(worker)) == 1
            assert worker[0] is not threading.main_thread()

    def test_proxy_rows_drawn_in_state_order_on_the_thread(self, monkeypatch):
        # states 0 .. T - 1 draw their proxy rows on the thread, one after
        # the other from the run's one generator, as the serial run does
        cfg, obj, parts, test = list(_run_setups())[-1]
        assert obj.uses_proxy
        diagnostic_rows, drawn = MlpObjective._diagnostic_rows, []
        monkeypatch.setattr(MlpObjective, "_diagnostic_rows", lambda self, rng: (
            drawn.append((threading.current_thread(), diagnostic_rows(self, rng)))
            or drawn[-1][1]))
        _on_cores(monkeypatch, 2, cfg, obj, parts, test)
        proxy = StreamKey(cfg.seed).generator(fedavg._DOM_LOCAL, len(parts))
        assert len(drawn) == cfg.T
        for thread, rows in drawn:
            assert thread is not threading.main_thread()
            assert np.array_equal(rows, proxy.choice(len(obj._rows), size=obj.proxy_samples,
                                                     replace=False))

    def test_batch_free_objective_evaluates_inline(self, monkeypatch):
        cfg, obj, parts, test = next(_run_setups())
        trace, threads = _on_cores(monkeypatch, 2, cfg, obj, parts, test)
        assert threads == [threading.main_thread()] * (cfg.T + 1)
        assert trace.tobytes() == _on_cores(monkeypatch, 1, cfg, obj, parts, test)[0].tobytes()

    def test_pool_process_evaluates_inline(self, monkeypatch):
        # a pool's process leaves the other cores to the pool's other processes
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        cfg, obj, parts, test = list(_run_setups())[1]
        trace, threads = _on_cores(monkeypatch, 2, cfg, obj, parts, test)
        assert threads == [threading.main_thread()] * (cfg.T + 1)
        monkeypatch.undo()
        assert trace.tobytes() == _on_cores(monkeypatch, 1, cfg, obj, parts, test)[0].tobytes()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_divergence_messages_on_either_path(self, monkeypatch, cores):
        monkeypatch.setattr(fedavg, "_usable_cores", lambda: cores)
        _assert_divergence_messages()

    @pytest.mark.parametrize("T", [1, 3])
    def test_diverging_run_on_the_thread_warns_nothing(self, monkeypatch, T):
        # the thread runs under the loop's error state, set by itself
        monkeypatch.setattr(fedavg, "_usable_cores", lambda: 2)
        ds, parts = _blob_setup(K=3)
        cfg = FedRunConfig(Q=2, T=T, batch_size=32, beta0=0.1,
                           arms=arms("ideal", "reed", phy=ReedPhyConfig(noise_var=1e308)))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(fedavg.DivergenceError, match="^aggregator 'reed': non-finite "
                                                              "model after round 0$"):
                run_fedavg(cfg, build_objective("mlp", ds, hidden=6), parts, ds)
        assert [w.message for w in seen] == []

    def _assert_joined(self, monkeypatch, run, *, raises=None):
        """Run on two cores; every thread the run started must have ended
        by the time run_fedavg returns or raises."""
        before = set(threading.enumerate())
        monkeypatch.setattr(fedavg, "_usable_cores", lambda: 2)
        if raises is None:
            run()
        else:
            with pytest.raises(raises[0], match=raises[1]):
                run()
        started = [t for t in threading.enumerate() if t not in before]
        alive = [t.is_alive() for t in started]
        for t in started:
            t.join(timeout=10)
        assert alive == [False] * len(started)

    def test_no_thread_outlives_a_run(self, monkeypatch):
        cfg, obj, parts, test = list(_run_setups())[1]
        seen = []
        evaluate = type(obj).evaluate
        monkeypatch.setattr(type(obj), "evaluate", lambda self, *a, **kw: (
            seen.append(threading.current_thread()) or evaluate(self, *a, **kw)))
        self._assert_joined(monkeypatch, lambda: run_fedavg(cfg, obj, parts, test))
        # states 0 .. T on one thread, which has ended
        [worker] = set(seen)
        assert worker is not threading.main_thread() and not worker.is_alive()

    def test_no_thread_outlives_a_divergence(self, monkeypatch):
        ds, parts = _blob_setup(K=3)
        cfg = FedRunConfig(Q=2, T=4, batch_size=32, beta0=0.1,
                           arms=arms("reed", phy=ReedPhyConfig(noise_var=1e308)))
        self._assert_joined(monkeypatch, lambda: run_fedavg(
            cfg, build_objective("logistic", ds), parts, ds),
            raises=(fedavg.DivergenceError, "after round 0$"))

    def test_thread_error_surfaces_at_the_join(self, monkeypatch):
        cfg, obj, parts, test = list(_run_setups())[1]
        accuracy, states = type(obj).accuracy, []

        def failing(self, params, *args):
            states.append(threading.current_thread())
            if len(states) == 2:
                raise ArithmeticError("state 2")
            return accuracy(self, params, *args)

        monkeypatch.setattr(type(obj), "accuracy", failing)
        self._assert_joined(monkeypatch, lambda: run_fedavg(cfg, obj, parts, test),
                            raises=(ArithmeticError, "^state 2$"))
        assert len(states) == 2 and threading.main_thread() not in states

    def test_main_thread_error_joins_the_thread(self, monkeypatch):
        # round 2 fails on the main thread while state 2 is on the thread
        cfg, obj, parts, test = list(_run_setups())[1]
        stacked, calls = type(obj).stacked_gradient, []

        def failing(self, *args):
            calls.append(None)
            if len(calls) > 2 * cfg.Q:
                raise ArithmeticError("round 2")
            return stacked(self, *args)

        monkeypatch.setattr(type(obj), "stacked_gradient", failing)
        self._assert_joined(monkeypatch, lambda: run_fedavg(cfg, obj, parts, test),
                            raises=(ArithmeticError, "^round 2$"))

    def test_fine_thread_switching_keeps_the_bytes(self, monkeypatch):
        # switching threads every microsecond interleaves the rounds' work
        # with the evaluation at many more points
        cfg, obj, parts, test = list(_run_setups())[-1]
        serial = _on_cores(monkeypatch, 1, cfg, obj, parts, test)[0]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            overlapped = _on_cores(monkeypatch, 2, cfg, obj, parts, test)[0]
        finally:
            sys.setswitchinterval(interval)
        assert overlapped.tobytes() == serial.tobytes()


def test_import_starts_no_thread():
    # run_fedavg loads its thread pool only when a run takes it, so that
    # importing reedsim stays cheap
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", (
        "import sys, threading, reedsim\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "assert 'concurrent.futures' not in sys.modules\n")],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
