from dataclasses import replace

import numpy as np
import pytest

from reedsim import experiments, fedavg, moments
from reedsim.config import parse_config
from reedsim.datasets import PartitionSpec, partition, synth_dataset
from reedsim.estimator import ReedPhyConfig, aggregate_ideal
from reedsim.fedavg import (FedRunConfig, LogisticObjective, MlpObjective,
                            QuadraticObjective, _round_batches, build_objective,
                            local_round, run_fedavg)
from reedsim.streams import StreamKey

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
            local_round(np.ones(2), obj, np.arange(10), 1, 0.0, 4, KEY)

    def test_empty_client_rejected(self):
        obj = build_objective("quadratic", d=2)
        with pytest.raises(ValueError):
            local_round(np.ones(2), obj, np.array([]), 1, 0.1, 4, KEY)

    def test_single_quadratic_step(self):
        obj = build_objective("quadratic", d=2, curvature_range=(1.0, 1.0))
        delta = local_round(np.array([1.0, 0.0]), obj, np.arange(10), 1, 0.1, 10, KEY)
        assert np.allclose(delta, [-0.1, 0.0])

    def test_two_quadratic_steps_compose(self):
        obj = build_objective("quadratic", d=2, curvature_range=(1.0, 1.0))
        delta = local_round(np.array([1.0, 0.0]), obj, np.arange(10), 2, 0.1, 10, KEY)
        assert np.allclose(delta, [-0.19, 0.0])

    def test_clipping_bounds_increment(self):
        ds, parts = _blob_setup()
        obj = build_objective("logistic", ds)
        w = StreamKey(3).generator().standard_normal(obj.dim)
        Q, beta, G = 10, 0.5, 0.2
        delta = local_round(w, obj, parts[0], Q, beta, 16, KEY.child(1), clip_G=G)
        assert np.linalg.norm(delta) <= beta * Q * G + 1e-12


class TestRunFedavg:
    def _run(self, aggregator, T=5, seed=4, phy=None, K=3, **kw):
        ds, parts = _blob_setup(K=K)
        obj = build_objective("logistic", ds)
        cfg = FedRunConfig(Q=2, T=T, batch_size=32, beta0=0.1,
                           aggregators=(aggregator,), seed=seed,
                           phy=phy or ReedPhyConfig(), **kw)
        return run_fedavg(cfg, obj, parts, ds)[aggregator]

    def test_empty_partition_list_rejected(self):
        ds, _ = _blob_setup(K=3)
        obj = build_objective("logistic", ds)
        cfg = FedRunConfig(Q=1, T=1, batch_size=8, beta0=0.1)
        with pytest.raises(ValueError, match="at least one client"):
            run_fedavg(cfg, obj, [], ds)

    def test_seed_determinism(self):
        a = self._run("reed", phy=ReedPhyConfig(eta=5.0, noise_var=0.5))
        b = self._run("reed", phy=ReedPhyConfig(eta=5.0, noise_var=0.5))
        assert a == b

    def test_ideal_eps_identically_zero(self):
        traces = self._run("ideal")
        assert all(t.eps_norm_sq == 0.0 for t in traces)

    def test_trace_fields_sane(self):
        traces = self._run("reed", phy=ReedPhyConfig(eta=5.0, noise_var=0.5))
        for t in traces:
            assert 0.0 <= t.test_acc <= 1.0
            assert t.eps_norm_sq >= 0.0
            assert np.isfinite(t.train_loss)

    def test_reed_single_client_constant_modulus_matches_ideal_trajectory(self):
        # K = 1, |h|^2 = mu^2 and no noise: reed agrees with ideal up to
        # float roundoff in sqrt(eta * c * u)^2 / eta
        clean = self._run("ideal", K=1)
        degenerate = self._run(
            "reed", K=1, phy=ReedPhyConfig(noise_var=0.0, kappa=1.0))
        for a, b in zip(clean, degenerate):
            assert a.train_loss == pytest.approx(b.train_loss, rel=1e-12)
            assert a.test_acc == b.test_acc
            assert b.eps_norm_sq < 1e-20

    def test_single_client_ideal_is_centralized_sgd(self):
        obj = build_objective("quadratic", d=3, curvature_range=(1.0, 1.0))
        parts = [np.arange(10)]
        cfg = FedRunConfig(Q=1, T=4, batch_size=10, beta0=0.1,
                           aggregators=("ideal",), seed=0)
        traces = run_fedavg(cfg, obj, parts)["ideal"]
        w = np.ones(3)
        for t in range(4):
            w = w - 0.1 * w
        # final loss recorded by the harness equals the hand-rolled value
        assert traces[-1].train_loss == pytest.approx(0.5 * float(w @ w))

    def test_ideal_quadratic_loss_monotone(self):
        obj = build_objective("quadratic", d=5, curvature_range=(0.5, 2.0), seed=1)
        parts = [np.arange(i * 5, (i + 1) * 5) for i in range(2)]
        cfg = FedRunConfig(Q=3, T=10, batch_size=5, beta0=0.05,
                           aggregators=("ideal",), seed=2)
        traces = run_fedavg(cfg, obj, parts)["ideal"]
        losses = [t.train_loss for t in traces]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_budget_requires_clipping(self):
        with pytest.raises(ValueError):
            FedRunConfig(Q=1, T=1, batch_size=4, beta0=0.1,
                         budgets=np.ones(2))

    def test_energy_feasible_under_schedule(self):
        traces = self._run("reed", clip_G=0.5, budgets=np.full(3, 1.0),
                          phy=ReedPhyConfig(noise_var=0.5))
        for t in traces:
            assert t.max_client_energy <= 1.0 + 1e-12

    def test_budgeted_reed_checks_once_per_run(self, monkeypatch):
        # the round loop reuses the parts of the gain and the audit that the
        # run checked at its start, so the check count does not grow with T
        calls = []
        check = moments._check
        monkeypatch.setattr(moments, "_check",
                            lambda *a, **kw: calls.append(1) or check(*a, **kw))
        obj = build_objective("quadratic", d=4, curvature_range=(0.5, 2.0), seed=1)
        counts = []
        for T in (3, 12):
            calls.clear()
            cfg = FedRunConfig(Q=2, T=T, batch_size=5, beta0=0.05, schedule="inv_sqrt",
                               clip_G=1.0, aggregators=("reed",), budgets=np.ones(3),
                               phy=ReedPhyConfig(noise_var=0.5))
            run_fedavg(cfg, obj, [np.arange(5)] * 3)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_matched_seed_aggregators_share_local_randomness(self):
        # identical increments round 0: the first-round ideal update of the
        # reed run's sibling equals the ideal run's first-round update
        clean = self._run("ideal", T=1)
        noisy = self._run("coherent_csit", T=1,
                         phy=ReedPhyConfig(eta=1e12, noise_var=1e-12))
        assert clean[0].train_loss == pytest.approx(noisy[0].train_loss, rel=1e-6)


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


def _record_local_round_batches(monkeypatch, obj, parts, Q, batch_size, key):
    """The minibatches local_round feeds to stochastic_gradient, per client."""
    seen = []
    original = type(obj).stochastic_gradient
    monkeypatch.setattr(type(obj), "stochastic_gradient",
                        lambda self, w, batch: seen.append(batch) or original(self, w, batch))
    per_client = []
    for k, part in enumerate(parts):
        seen.clear()
        local_round(np.zeros(obj.dim), obj, part, Q, 0.1, batch_size, key.child(k))
        per_client.append(list(seen))
    return per_client


class TestBatchedTraining:
    """run_fedavg's stacked steps against the per-client local_round loop."""

    Q, BATCH = 7, 16  # Q forces a reshuffle on every client but the largest

    def test_batch_indices_equal_local_round(self, monkeypatch):
        ds, parts = _ragged_setup()
        obj = _objective("logistic", ds)
        batches, lengths = _round_batches(parts, self.Q, self.BATCH, KEY)
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
        batches, lengths = _round_batches(parts, self.Q, self.BATCH, KEY)
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
        traces = run_fedavg(cfg, obj, parts)["ideal"]
        assert len(recorded) == T

        root = StreamKey(cfg.seed)
        w = obj.init_params(root.child(0))
        for t in range(T):
            _assert_rel(traces[t].grad_norm_sq,
                        float(np.sum(obj.diagnostic_gradient(w, root.child(1, t, K))**2)))
            inc = np.stack([local_round(w, obj, parts[k], self.Q, cfg.stepsize(t),
                                        self.BATCH, root.child(1, t, k), clip_G)
                            for k in range(K)])
            _assert_rel(recorded[t], inc)
            w = w + aggregate_ideal(inc)
            _assert_rel(traces[t].train_loss, obj.loss(w, np.arange(len(ds))))
        if clip_G is not None:
            # clipping is active from the first step on
            batches, lengths = _round_batches(parts, self.Q, self.BATCH, root.child(1, 0))
            w0 = np.tile(obj.init_params(root.child(0)), (K, 1))
            g0 = obj.stacked_gradient(w0, batches[0], lengths[0])
            assert np.max(np.linalg.norm(g0, axis=1)) > clip_G

    def test_fused_logistic_evaluate_equals_loss_and_full_gradient(self):
        ds, _ = _ragged_setup()
        obj = _objective("logistic", ds)
        w = 0.3 * StreamKey(6).generator().standard_normal(obj.dim)
        loss, grad = obj.evaluate(w[None], KEY)
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
        probs, backward = cls._probs, cls._backward
        # a pass over the training set reads its (n, p) features
        monkeypatch.setattr(cls, "_probs", lambda self, params, X: (
            full_passes.append(X.shape[-2] == len(ds)) or probs(self, params, X)))
        monkeypatch.setattr(cls, "_backward", lambda self, X, *a: (
            full_backward.append(X.shape[-2] == len(ds)) or backward(self, X, *a)))
        monkeypatch.setattr(fedavg, "local_round", lambda *a, **kw: calls.update(
            local_round=calls["local_round"] + 1))
        T = 3
        for aggregators in (("ideal",), ("ideal", "reed", "coherent_csit")):
            A = len(aggregators)
            calls.update(stacked=0, stochastic=0)
            full_passes.clear()
            full_backward.clear()
            cfg = FedRunConfig(Q=self.Q, T=T, batch_size=self.BATCH, beta0=0.1,
                               aggregators=aggregators, seed=1)
            run_fedavg(cfg, obj, parts, ds)
            assert calls["stacked"] == self.Q * T  # not A * K * Q * T
            assert calls["local_round"] == 0
            # round 0: one diagnostic gradient for every aggregator; each
            # round before the last: one evaluate pass over all of them; the
            # last round: each aggregator's loss alone.  Accuracy reads the
            # logits, not the probabilities.
            assert calls["stochastic"] == 1
            assert sum(full_passes) == T + A  # not 1 + T·A, one per aggregator and round
            assert sum(full_backward) == T

    @pytest.mark.parametrize("kind,draws", [("quadratic", False), ("logistic", True)])
    def test_batch_free_objective_draws_no_batches(self, monkeypatch, kind, draws):
        ds, parts = _ragged_setup()
        obj = _objective(kind, ds)
        keys = []
        monkeypatch.setattr(fedavg, "_round_batches", lambda parts, Q, B, key: (
            keys.append(key) or _round_batches(parts, Q, B, key)))
        T = 3
        cfg = FedRunConfig(Q=self.Q, T=T, batch_size=self.BATCH, beta0=0.1)
        run_fedavg(cfg, obj, parts)
        assert obj.uses_batches is draws
        assert len(keys) == (T if draws else 0)


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
        losses, grads = obj.evaluate(params, KEY)
        assert losses.shape == (3,) and grads.shape == (3, obj.dim)
        assert len(set(losses.tolist())) == 3  # three distinct models
        for a, w in enumerate(params):
            alone_loss, alone_grad = obj.evaluate(params[a:a + 1], KEY)
            assert alone_loss.shape == (1,) and alone_grad.shape == (1, obj.dim)
            assert alone_loss[0] == losses[a]
            assert (alone_grad[0] == grads[a]).all()
            # and each equals the single-model methods
            assert losses[a] == obj.loss(w, np.arange(len(ds)))
            assert (grads[a] == obj.diagnostic_gradient(w, KEY)).all()

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
        losses, grads = obj.evaluate(params, KEY)
        acc = obj.accuracy(params, ds.features, ds.labels)
        for order in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            shuffled_losses, shuffled_grads = obj.evaluate(params[order], KEY)
            assert (shuffled_losses == losses[order]).all()
            assert (shuffled_grads == grads[order]).all()
            assert (obj.accuracy(params[order], ds.features, ds.labels) == acc[order]).all()

    @pytest.mark.parametrize("kind", KINDS)
    def test_evaluation_key_built_only_for_proxy_rows(self, monkeypatch, kind):
        obj, ds, _ = self._setup(kind)
        keys = []
        evaluate = type(obj).evaluate
        monkeypatch.setattr(type(obj), "evaluate", lambda self, params, key: (
            keys.append(key) or evaluate(self, params, key)))
        K, T = 3, 3
        cfg = FedRunConfig(Q=1, T=T, batch_size=8, beta0=0.05, seed=2)
        run_fedavg(cfg, obj, partition(ds, PartitionSpec("iid", K, seed=0)), ds)
        assert obj.uses_proxy is (kind == "mlp-proxy")
        # rounds 1 .. T - 1; the key of round t is (local, t, K), as in round 0
        assert keys == [StreamKey(cfg.seed, (fedavg._DOM_LOCAL, t, K)) if obj.uses_proxy
                        else None for t in range(1, T)]


class TestLockstep:
    """Several aggregators in one run_fedavg call against each run alone."""

    AGGREGATORS = ("ideal", "reed", "coherent_csit")

    def _setups(self):
        phy = ReedPhyConfig(eta=4.0, noise_var=0.5, chip_weights=np.ones(2))
        quadratic = build_objective("quadratic", d=6, curvature_range=(0.5, 2.0), seed=1)
        yield (FedRunConfig(Q=3, T=5, batch_size=5, beta0=0.05, schedule="inv_sqrt",
                            clip_G=1.0, budgets=np.ones(4), phy=phy, seed=3),
               quadratic, [np.arange(5)] * 4, None)
        ds, parts = _ragged_setup()
        yield (FedRunConfig(Q=7, T=4, batch_size=16, beta0=0.2, clip_G=0.05, phy=phy,
                            seed=9),
               _objective("logistic", ds), parts, ds)
        # above proxy_samples, the MLP's diagnostic gradient is subsampled
        ds, parts = _blob_setup(n=MlpObjective.proxy_samples + 88, K=4)
        yield (FedRunConfig(Q=3, T=4, batch_size=32, beta0=0.1, phy=phy, seed=5),
               _objective("mlp", ds), parts, ds)

    def test_lockstep_equals_each_aggregator_alone(self):
        for cfg, obj, parts, test in self._setups():
            together = run_fedavg(replace(cfg, aggregators=self.AGGREGATORS), obj,
                                  parts, test)
            assert list(together) == list(self.AGGREGATORS)
            for name in self.AGGREGATORS:
                alone = run_fedavg(replace(cfg, aggregators=(name,)), obj, parts, test)
                assert together[name] == alone[name], (type(obj).__name__, name)

    def test_one_data_build_and_one_batch_draw_per_round(self, monkeypatch):
        calls = {"build": 0, "batches": 0}
        build, batches = experiments.build_experiment_data, fedavg._round_batches

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
fed.aggregators = ["ideal", "reed"]
data.synth_n = 60
data.test_n = 20
data.classes = 3
data.features = 4
""")
        traces = experiments.run_trial(cfg, 0)
        assert [len(traces[name]) for name in ("ideal", "reed")] == [T, T]
        assert calls == {"build": 1, "batches": T}

    def test_mlp_proxy_rows_drawn_once_per_round(self, monkeypatch):
        # every aggregator evaluates round t in one call with the key
        # (local, t, K), so the proxy rows are drawn once per round, not once
        # per aggregator
        cfg, obj, parts, test = list(self._setups())[-1]
        assert isinstance(obj, MlpObjective)
        K = len(parts)
        draws = []
        original = StreamKey.generator

        def counting(key):
            if len(key.path) == 3 and key.path[2] == K:
                draws.append(key.path)
            return original(key)

        monkeypatch.setattr(StreamKey, "generator", counting)
        run_fedavg(replace(cfg, aggregators=self.AGGREGATORS), obj, parts, test)
        assert draws == [(fedavg._DOM_LOCAL, t, K) for t in range(cfg.T)]

    def test_divergence_names_the_aggregator(self):
        ds, parts = _blob_setup(K=3)
        cfg = FedRunConfig(Q=2, T=2, batch_size=32, beta0=0.1, aggregators=("ideal", "reed"),
                           phy=ReedPhyConfig(noise_var=1e308))
        with pytest.raises(RuntimeError,
                           match=r"^aggregator 'reed': non-finite model after round 0$"):
            run_fedavg(cfg, build_objective("logistic", ds), parts, ds)

    @pytest.mark.parametrize("aggregators", [(), ("ideal", "bogus"), ("reed", "reed"),
                                             "reed"])
    def test_aggregators_rejected(self, aggregators):
        with pytest.raises(ValueError, match="^aggregators must"):
            FedRunConfig(Q=1, T=1, batch_size=4, beta0=0.1, aggregators=aggregators)
