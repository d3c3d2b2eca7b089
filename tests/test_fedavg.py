import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from reedsim import experiments, fedavg, moments
from reedsim.config import parse_config
from reedsim.datasets import PartitionSpec, partition, synth_dataset
from reedsim.channel import sample_noise
from reedsim.estimator import ReedPhyConfig, aggregate_coherent_csit, aggregate_ideal
from reedsim.fedavg import (TRACE_COLUMNS, FedRunConfig, LogisticObjective, MlpObjective,
                            QuadraticObjective, _accuracy, _round_batches, build_objective,
                            clip_gradient, local_round, radio_read, run_fedavg)
from reedsim.streams import StreamKey

from reference import arms, column

KEY = StreamKey(8128)


def _blob_setup(n=600, classes=3, p=4, K=3, seed=0, separation=3.0):
    ds = synth_dataset("gaussian-blobs", n, seed=seed, classes=classes, p=p,
                       separation=separation)
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


def _ragged_setup():
    # clients of 5, 19, 5, 1 and 90 samples: three smaller than a 16-sample
    # batch (one of them a single sample) and two with a short last batch.
    # The index arrays are fixed (a stride-7 walk over the 120 rows) rather
    # than drawn, so no stream layout moves them
    ds = synth_dataset("gaussian-blobs", 120, seed=0, classes=3, p=4, separation=3.0)
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


class TestBatchedTraining:
    """run_fedavg's stacked steps against the per-client local_round loop."""

    Q, BATCH = 7, 16  # Q forces a reshuffle on every client but the largest

    def test_batch_indices_equal_local_round(self, monkeypatch):
        ds, parts = _ragged_setup()
        obj = _objective("logistic", ds)
        batches, lengths = _round_batches(parts, self.Q, self.BATCH,
                                          _client_rngs(KEY, len(parts)))
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
        batches, lengths = _round_batches(parts, self.Q, self.BATCH,
                                          _client_rngs(KEY, len(parts)))
        params = 0.3 * StreamKey(5).generator().standard_normal((len(parts), obj.dim))
        for q in range(self.Q):
            stacked = obj.stacked_gradient(params, batches[q], lengths[q])
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
            batches, lengths = _round_batches(parts, self.Q, self.BATCH,
                                              _client_rngs(root.child(1), K))
            w0 = np.tile(obj.init_params(root.child(0)), (K, 1))
            g0 = obj.stacked_gradient(w0, batches[0], lengths[0])
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
        monkeypatch.setattr(fedavg, "_round_batches", lambda parts, Q, B, rngs: (
            calls.append(rngs) or _round_batches(parts, Q, B, rngs)))
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
        batches, lengths = _round_batches(parts, Q, 16, _client_rngs(KEY, K))
        assert (lengths < 16).any()
        rng = StreamKey(73).generator()
        params = 0.3 * rng.standard_normal((2, obj.dim))  # two models
        full = obj.evaluate(params, None)[1]
        stacked = [obj.stacked_gradient(np.repeat(params, K, axis=0), batches[q], lengths[q])
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
# hold _affine_grad to one matmul per model.
_EXACT_AT_SCALE = """
import numpy as np
from reedsim.datasets import synth_dataset
from reedsim.fedavg import build_objective
from reedsim.streams import StreamKey

A, K = 3, 2
for n in (2000, 6000):
    ds = synth_dataset("gaussian-blobs", n, seed=0, classes=10, p=20, separation=2.0)
    # two clients whose batches span the set, the second with padding
    batches = np.arange(n).reshape(K, -1)
    lengths = np.array([n // K, n // K - 7])
    for kind in ("logistic", "mlp"):
        obj = build_objective(kind, ds, hidden=16, seed=2)
        obj.proxy_samples = n  # the MLP's diagnostic gradient on every row
        rng = StreamKey(11).generator()
        params = 0.3 * rng.standard_normal((A, obj.dim))
        losses, grads = obj.evaluate(params, None)
        clients = 0.3 * rng.standard_normal((A * K, obj.dim))
        stacked = obj.stacked_gradient(clients, batches, lengths)
        for a in range(A):
            alone_loss, alone_grad = obj.evaluate(params[a:a + 1], None)
            assert alone_loss[0] == losses[a], ("evaluate loss", n, kind, a)
            assert (alone_grad[0] == grads[a]).all(), ("evaluate gradient", n, kind, a)
            rows = slice(a * K, (a + 1) * K)
            alone = obj.stacked_gradient(clients[rows], batches, lengths)
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
        build, batches = experiments.build_experiment_data, fedavg._round_batches
        runs = []
        run = experiments.run_fedavg
        monkeypatch.setattr(experiments, "run_fedavg",
                            lambda cfg, *a: runs.append(cfg.arms) or run(cfg, *a))

        def counting(name, fn):
            return lambda *a: calls.update({name: calls[name] + 1}) or fn(*a)

        monkeypatch.setattr(experiments, "build_experiment_data", counting("build", build))
        monkeypatch.setattr(fedavg, "_round_batches", counting("batches", batches))
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

    def test_radio_read_is_what_each_aggregator_reads(self):
        cfg = ReedPhyConfig(eta=3.0, noise_var=0.5, mean_powers=[0.5, 2.0],
                            chip_weights=[1.0, 0.5], antennas=2, kappa=3.0)
        assert radio_read("ideal", cfg) == ReedPhyConfig()
        assert radio_read("coherent_csit", cfg) == ReedPhyConfig(eta=3.0, noise_var=0.5)
        assert radio_read("reed", cfg) == cfg
        key = StreamKey(271828)
        inc = key.child(14).generator().normal(size=(2, 50))
        assert np.array_equal(aggregate_coherent_csit(inc, cfg, key.generator(15)),
                              aggregate_coherent_csit(inc, radio_read("coherent_csit", cfg),
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
    and a run builds each of its streams once (stream layout 5)."""

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
        # c = 5 per run, as in a benchmark unit: the config check and the
        # trial each build the partition's seed and the synthetic data or
        # the quadratic's curvatures, and the trial builds the partition;
        # the MLP builds its initialisation too
        c = 6 if model == "mlp" else 5
        # one minibatch stream per client for an objective that reads its
        # batches, 2M channel streams per reed arm, one noise stream per
        # coherent_csit arm, and the MLP's proxy rows: none per round
        per_run = c + (K if model != "quadratic" else 0) + 2 * M + 1 + (model == "mlp")
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
                (fedavg._DOM_CHANNEL, m, b) for m in range(M) for b in (0, 1)]

    def test_every_reed_arm_builds_its_own_streams(self, monkeypatch):
        # a phy.chips group: each reed arm builds 2M streams of its own,
        # chip m of every arm at the same path (common draws)
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
        assert sorted(channel) == sorted((fedavg._DOM_CHANNEL, m, b)
                                         for M in (1, 2, 4) for m in range(M) for b in (0, 1))

    def test_coherent_rounds_read_on_one_stream(self, monkeypatch):
        # every round of a coherent_csit arm draws from the one generator
        # its run built at (channel,), on from where the last round stopped
        rngs = []
        coherent = fedavg.aggregate_coherent_csit
        monkeypatch.setattr(fedavg, "aggregate_coherent_csit", lambda inc, phy, rng: (
            rngs.append(rng) or coherent(inc, phy, rng)))
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

    def test_reed_rounds_call_the_module_aggregate_reed(self, monkeypatch):
        # every round of a reed arm calls fedavg.aggregate_reed, looked up
        # when the round runs, as the benchmark's tracer wraps it: once per
        # round, always on the one streams list its run built
        calls = []
        reed = fedavg.aggregate_reed
        monkeypatch.setattr(fedavg, "aggregate_reed", lambda inc, phy, streams: (
            calls.append(streams) or reed(inc, phy, streams)))
        ds, parts = _blob_setup(K=3)
        obj = build_objective("logistic", ds)
        T = 4
        phy = ReedPhyConfig(eta=3.0, noise_var=0.5, chip_weights=np.ones(2))
        cfg = FedRunConfig(Q=1, T=T, batch_size=16, beta0=0.1, seed=6,
                           arms=arms("reed", "ideal", phy=phy))
        traced = run_fedavg(cfg, obj, parts, ds)
        assert len(calls) == T and all(streams is calls[0] for streams in calls)
        assert len(calls[0]) == phy.n_chips
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
            assert np.array_equal(_accuracy(Z.copy(), labels),
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
