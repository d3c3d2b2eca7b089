"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with the measured quantity at its stated tolerance."""

import struct
from functools import partial

import numpy as np
import pytest

from reedsim import cli
from reedsim.config import parse_config
from reedsim.datasets import PartitionSpec, parse_idx, partition, synth_dataset
from reedsim.estimator import (ReedPhyConfig, ScalarInputs, aggregate_ideal,
                               aggregate_reed, chip_streams, sample_estimates)
from reedsim.experiments import run_trial
from reedsim.fedavg import (FedRunConfig, build_objective, local_round, run_fedavg)
from reedsim.moments import (energy_audit, eta_schedule, sigma_air_bound,
                             variance_chip)
from reedsim.streams import StreamKey

from reference import arms, column, write_idx

N = 1_000_000
KEY = StreamKey(12345)
U = ScalarInputs([2.0, -1.0])


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"{cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid} failed: {detail}"


def test_c1_single_shot_variance_law():
    cfg = ReedPhyConfig(eta=1.0, noise_var=1.0)
    draws = sample_estimates(U, cfg, KEY.child(1), N)
    mean, var = draws.mean(), draws.var(ddof=1)
    mean_ok = abs(mean - 1.0) <= 4.0 * np.sqrt(13.0 / N)
    var_ok = abs(var - 13.0) <= 0.015 * 13.0
    _report("C1", mean_ok and var_ok, f"mean={mean:.5f}, var={var:.4f} vs 13.0")


def test_c2_chip_diversity_variance_laws():
    per_chip = ReedPhyConfig(eta=1.0, noise_var=1.0, chip_weights=[1.0, 1.0])
    total = ReedPhyConfig(eta=1.0, noise_var=1.0, chip_weights=[0.5, 0.5])
    v1 = sample_estimates(U, per_chip, KEY.child(2, 0), N).var(ddof=1)
    v2 = sample_estimates(U, total, KEY.child(2, 1), N).var(ddof=1)
    ok1 = abs(v1 - 6.5) <= 0.02 * 6.5
    ok2 = abs(v2 - 12.5) <= 0.02 * 12.5
    _report("C2", ok1 and ok2, f"fixed-per-chip var={v1:.4f} vs 6.5, "
                               f"fixed-total var={v2:.4f} vs 12.5")


def test_c3_fourth_moment_correction():
    k3 = ReedPhyConfig(eta=1.0, noise_var=1.0, kappa=3.0)
    k2 = ReedPhyConfig(eta=1.0, noise_var=1.0, kappa=2.0)
    v3 = sample_estimates(U, k3, KEY.child(3, 0), N).var(ddof=1)
    v2 = sample_estimates(U, k2, KEY.child(3, 1), N).var(ddof=1)
    assert variance_chip(U, k3).variance == 18.0
    ok3 = abs(v3 - 18.0) <= 0.02 * 18.0
    ok2 = abs(v2 - 13.0) <= 0.02 * 13.0
    _report("C3", ok3 and ok2, f"kappa=3 var={v3:.4f} vs 18.0, "
                               f"kappa=2 var={v2:.4f} vs 13.0")


def test_c4_simo_reception():
    cfg = ReedPhyConfig(eta=1.0, noise_var=1.0, antennas=4)
    v = sample_estimates(U, cfg, KEY.child(4), N).var(ddof=1)
    ok = abs(v - 13.0 / 4) <= 0.03 * 13.0 / 4
    _report("C4", ok, f"R=4 var={v:.4f} vs {13.0 / 4}")


C5_CONFIG = """
seed = 7
fed.K = 10
fed.Q = 10
fed.T = 100
fed.batch_size = 64
fed.beta0 = 0.05
fed.schedule = "inv_sqrt"
fed.model = "logistic"
data.source = "synth"
data.synth_kind = "gaussian-blobs"
data.synth_n = 6000
data.test_n = 2000
data.classes = 10
data.features = 20
data.separation = 2.0
data.partition = "dirichlet"
data.alpha = 0.3
phy.snr_db = -10
phy.eta = 300.0
"""


def test_c5_chip_diversity_closes_the_accuracy_gap():
    cfg = parse_config(C5_CONFIG)
    trials = 10
    # ideal and reed at M = 1, 2 and 4 in one lockstep run per trial: one
    # ideal arm and one reed arm per M, each equal to that arm run alone
    chips = (1, 2, 4)
    points = [{**cfg, "phy.chips": M, "fed.aggregators": ["ideal", "reed"]} for M in chips]
    # the trials are independent jobs, run on one process per usable core
    runs = cli._map(partial(run_trial, points), list(range(trials)), cli._usable_cores())
    final_acc = {"ideal": float(np.mean([column(run[0]["ideal"][-1], "test_acc")
                                         for run in runs]))}
    for i, M in enumerate(chips):
        final_acc[f"M{M}"] = float(np.mean([column(run[i]["reed"][-1], "test_acc")
                                            for run in runs]))
    gap = {M: final_acc["ideal"] - final_acc[f"M{M}"] for M in (1, 2, 4)}
    ordered = gap[4] <= gap[2] <= gap[1]
    closed = gap[4] <= 0.4 * gap[1]
    _report("C5", ordered and closed,
            f"gaps pp: M1={100 * gap[1]:.2f}, M2={100 * gap[2]:.2f}, "
            f"M4={100 * gap[4]:.2f}")


def _frozen_increments(K=5, Q=10, beta=0.05, batch=16, clip_G=0.5):
    ds = synth_dataset(400, seed=21, classes=3, p=4, separation=2.0)
    parts = partition(ds, PartitionSpec("iid", K, seed=22))
    obj = build_objective("logistic", ds, n_classes=3)
    w = 0.2 * StreamKey(23).generator().standard_normal(obj.dim)
    inc = np.stack([
        local_round(w, obj, parts[k], Q, beta, batch, StreamKey(24).generator(k),
                    clip_G=clip_G)
        for k in range(K)])
    return inc, obj.dim


def test_c6_aggregation_error_audit():
    beta, Q, G = 0.05, 10, 0.5
    inc, d = _frozen_increments(Q=Q, beta=beta, clip_G=G)
    K = inc.shape[0]
    weights = [1.0, 1.0]
    eta = eta_schedule(1.0, K, d, 1.0, sum(weights), beta, Q, G)
    cfg = ReedPhyConfig(eta=eta, noise_var=1.0, chip_weights=weights)
    ideal = aggregate_ideal(inc)
    n_trials = 2000
    eps = np.empty((n_trials, d))
    for i in range(n_trials):
        eps[i] = aggregate_reed(inc, cfg, chip_streams(cfg, StreamKey(25).child(i))) - ideal
    # per-coordinate CLT bands from the closed-form coordinate variances
    coord_var = np.array([
        variance_chip(ScalarInputs(inc[:, j] / K), cfg).variance for j in range(d)])
    bands = 4.0 * np.sqrt(coord_var / n_trials)
    mean_ok = np.all(np.abs(eps.mean(axis=0)) <= bands)
    bound = sigma_air_bound(beta, Q, G, d, eta, 1.0, weights)
    mean_sq = float(np.mean(np.sum(eps**2, axis=1)))
    bound_ok = mean_sq <= bound
    _report("C6", bool(mean_ok and bound_ok),
            f"mean ||eps||^2={mean_sq:.4g} vs bound {bound:.4g}, "
            f"coord means in band: {mean_ok}")


def test_c7_energy_feasibility_and_scaling():
    # (a) T=50 run with the scheduled gain never exceeds the budget
    ds = synth_dataset(300, seed=31, classes=3, p=4, separation=2.0)
    parts = partition(ds, PartitionSpec("iid", 5, seed=32))
    obj = build_objective("logistic", ds, n_classes=3)
    budget = 1.0
    run_cfg = FedRunConfig(Q=5, T=50, batch_size=16, beta0=0.05,
                           schedule="inv_sqrt", clip_G=0.5,
                           arms=arms("reed", phy=ReedPhyConfig(noise_var=1.0)),
                           budgets=np.full(5, budget), seed=33)
    [traces] = run_fedavg(run_cfg, obj, parts)
    run_ok = all(column(t, "max_client_energy") <= budget + 1e-12 for t in traces)

    # (b) 1000 random bounded increments stay within heterogeneous budgets
    rng = StreamKey(34).generator()
    K, d, Q, G, beta = 6, 15, 10, 1.0, 0.1
    budgets = rng.uniform(0.5, 2.0, K)
    eta = eta_schedule(budgets, K, d, np.ones(K), 1.0, beta, Q, G)
    cfg = ReedPhyConfig(eta=eta)
    prop_ok = True
    for _ in range(1000):
        inc = rng.standard_normal((K, d))
        inc *= beta * Q * G * rng.random((K, 1)) / np.linalg.norm(
            inc, axis=1, keepdims=True)
        if np.any(energy_audit(inc, cfg) > budgets + 1e-12):
            prop_ok = False

    # (c) bound / beta^2 stays bounded under the schedule
    ratios = []
    for b in (0.2, 0.1, 0.05, 0.025):
        e = eta_schedule(1.0, K, d, 1.0, 1.0, b, Q, G)
        ratios.append(sigma_air_bound(b, Q, G, d, e, 1.0, [1.0]) / b**2)
    scale_ok = max(ratios) <= min(ratios) * (1 + 1e-9)
    _report("C7", run_ok and prop_ok and scale_ok,
            f"run feasible: {run_ok}, property feasible: {prop_ok}, "
            f"bound/beta^2 range [{min(ratios):.4g}, {max(ratios):.4g}]")


def _c8_avg_grad_norm(seed: int, T: int) -> float:
    obj = build_objective("quadratic", d=20, curvature_range=(0.5, 2.0), seed=123)
    # the quadratic reads no batch: ten empty partitions count its clients
    parts = [np.empty(0, dtype=int)] * 10
    cfg = FedRunConfig(Q=5, T=T, batch_size=20,
                       beta0=0.4 / np.sqrt(T), schedule="constant",
                       clip_G=1.0, arms=arms("reed", phy=ReedPhyConfig(noise_var=1.0)),
                       budgets=np.ones(10), seed=seed)
    [traces] = run_fedavg(cfg, obj, parts)
    return float(np.mean([column(t, "grad_norm_sq") for t in traces]))


def test_c8_stationarity_scaling():
    # the 20 runs are independent jobs, run on one process per usable core
    g400, g1600 = (np.mean(cli._map(partial(_c8_avg_grad_norm, T=T), list(range(10)),
                                    cli._usable_cores())) for T in (400, 1600))
    ratio = g1600 / g400
    _report("C8", ratio <= 0.6,
            f"avg grad^2: T=400 -> {g400:.4f}, T=1600 -> {g1600:.4f}, "
            f"ratio {ratio:.3f} <= 0.6")


def test_c9_parsers_and_partitions():
    rng = StreamKey(41).generator()
    raw = rng.integers(0, 256, size=(7, 12), dtype=np.uint8)
    payload = struct.pack(">IIII", 0x00000803, 7, 3, 4) + raw.tobytes()
    round_trip = write_idx(parse_idx(payload), 3, 4) == payload
    labels = rng.integers(0, 10, size=50)
    label_payload = struct.pack(">II", 0x00000801, 50) + labels.astype(np.uint8).tobytes()
    round_trip &= write_idx(parse_idx(label_payload)) == label_payload

    part_ok = True
    for i in range(200):
        n = int(rng.integers(10, 400))
        K = int(rng.integers(1, 11))
        kind = "dirichlet" if i % 2 else "iid"
        ds = synth_dataset(n, seed=i % 13, classes=4, p=2)
        parts = partition(ds, PartitionSpec(kind, K, seed=i, alpha=0.3))
        joined = np.concatenate(parts)
        if len(joined) != n or not np.array_equal(np.sort(joined), np.arange(n)):
            part_ok = False
    _report("C9", round_trip and part_ok,
            f"IDX round-trip: {round_trip}, 200 partitions disjoint-covering: {part_ok}")


def test_c10_numerical_gradients():
    ds = synth_dataset(40, seed=51, classes=3, p=4, separation=2.0)
    objectives = {
        "quadratic": (build_objective("quadratic", d=6,
                                      curvature_range=(0.5, 2.0), seed=52), None),
        "logistic": (build_objective("logistic", ds, n_classes=3), np.arange(40)),
        "mlp": (build_objective("mlp", ds, hidden=5, n_classes=3), np.arange(40)),
    }
    rng = StreamKey(53).generator()
    h = 1e-5
    worst = 0.0
    for obj, batch in objectives.values():
        for _ in range(20):
            w = rng.standard_normal(obj.dim)
            g = obj.stochastic_gradient(w, batch)
            v = rng.standard_normal(obj.dim)
            v /= np.linalg.norm(v)
            fd = (obj.loss(w + h * v, batch) - obj.loss(w - h * v, batch)) / (2 * h)
            ref = float(g @ v)
            rel = abs(fd - ref) / max(abs(ref), 1e-8)
            worst = max(worst, rel)
    _report("C10", worst <= 1e-4, f"worst finite-difference rel err {worst:.2e}")
