"""Experiment drivers shared by the CLI and the test suite.

Moment-law validation points (Monte Carlo against closed form) and
config-driven FedAvg trials.  A trial of a group of configs that differ
only in phy.* keys builds its data, partition and objective once and runs
every arm of every config on them in lockstep, so the matched-seed
contract holds by construction: neither the aggregator nor the radio ever
perturbs data partitioning, model initialization or local minibatch order.
Arms equal in what they read (``fedavg.radio_read``) are one run.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any

import numpy as np

from .config import (ConfigError, _keyed, client_partition, fed_run_config,
                     run_objective, synth_data)
from .datasets import LabeledDataset, _allocating, load_idx_dataset
from .estimator import ReedPhyConfig, ScalarInputs, sample_estimates
from .fedavg import run_fedavg
from .moments import variance_chip
from .streams import StreamKey

__all__ = [
    "MomentPoint",
    "MomentResult",
    "default_moment_matrix",
    "validate_point",
    "build_experiment_data",
    "run_trial",
    "run_single_trial",
]


@dataclass(frozen=True)
class MomentPoint:
    """One Monte Carlo vs closed-form comparison point.

    cf_cfg lets a negative-control fixture deliberately mismatch the
    closed-form side; it defaults to the simulated configuration.
    """

    point_id: str
    inputs: ScalarInputs
    cfg: ReedPhyConfig
    cf_cfg: ReedPhyConfig | None = None


@dataclass(frozen=True)
class MomentResult:
    point_id: str
    s: float
    mc_mean: float
    cf_mean: float
    mc_var: float
    cf_var: float
    rel_err: float
    passed: bool


def default_moment_matrix() -> list[MomentPoint]:
    """Validation matrix spanning eta in {0.5, 1, 10}, noise_var in
    {0, 0.5, 2}, K in {1, 3, 10} and M in {1, 2, 4}."""
    rng = StreamKey(20260826).generator()
    points = []
    matrix = [
        # (eta, noise_var, K, M)
        (0.5, 0.0, 1, 1),
        (0.5, 0.5, 3, 2),
        (0.5, 2.0, 10, 4),
        (1.0, 0.0, 3, 4),
        (1.0, 0.5, 1, 1),
        (1.0, 0.5, 10, 2),
        (1.0, 2.0, 3, 1),
        (10.0, 0.0, 10, 2),
        (10.0, 0.5, 3, 4),
        (10.0, 2.0, 1, 2),
        (10.0, 2.0, 10, 1),
        (1.0, 2.0, 10, 4),
    ]
    for i, (eta, nv, K, M) in enumerate(matrix):
        u = np.round(rng.uniform(-2.0, 2.0, size=K), 3)
        if np.all(u == 0):
            u[0] = 1.0
        points.append(MomentPoint(
            point_id=f"p{i:02d}_eta{eta}_nv{nv}_K{K}_M{M}",
            inputs=ScalarInputs(u),
            cfg=ReedPhyConfig(eta=eta, noise_var=nv, chip_weights=np.ones(M)),
        ))
    return points


def validate_point(point: MomentPoint, n_trials: int, tolerance: float,
                   seed: int) -> MomentResult:
    """Monte Carlo moments vs closed form at one parameter point.

    Pass requires the empirical mean inside its 4-sigma CLT band around
    the closed-form mean and the empirical variance within the relative
    tolerance of the closed-form variance (absolute tolerance at zero
    variance)."""
    cf = variance_chip(point.inputs, point.cf_cfg or point.cfg)
    stream_id = zlib.crc32(point.point_id.encode()) & 0x7FFFFFFF
    with _keyed(), _allocating("n_trials"):
        draws = sample_estimates(point.inputs, point.cfg,
                                 StreamKey(seed).child(stream_id), n_trials)
    mc_mean = float(draws.mean())
    # draws.var(ddof=1) on the draws' own memory: np.var's operations in its
    # order, so the same bits without its n-long temporary
    np.subtract(draws, mc_mean, out=draws)
    np.square(draws, out=draws)
    mc_var = float(draws.sum() / (n_trials - 1))
    if cf.variance > 0:
        rel_err = abs(mc_var - cf.variance) / cf.variance
        mean_ok = abs(mc_mean - cf.mean) <= 4.0 * np.sqrt(cf.variance / n_trials)
    else:
        rel_err = abs(mc_var)
        mean_ok = mc_mean == cf.mean
    passed = bool(mean_ok and rel_err <= tolerance)
    return MomentResult(point.point_id, point.inputs.signed_sum, mc_mean, cf.mean,
                        mc_var, cf.variance, rel_err, passed)


def _idx_dataset(images: str, labels: str) -> LabeledDataset:
    """The IDX pair at these paths, parsed once per process while neither
    file changes (same modification time and size); every trial shares it,
    so its arrays are read-only."""
    stamp = tuple((st.st_mtime_ns, st.st_size) for st in map(os.stat, (images, labels)))
    return _parsed_idx(images, labels, stamp)


@lru_cache(maxsize=2)  # the train pair and the test pair
def _parsed_idx(images: str, labels: str, stamp: tuple) -> LabeledDataset:
    data = load_idx_dataset(images, labels)
    data.features.flags.writeable = False
    data.labels.flags.writeable = False
    return data


def build_experiment_data(cfg: dict[str, Any], trial: int
                          ) -> tuple[LabeledDataset, LabeledDataset | None, list[np.ndarray]]:
    """Train set, optional test set and client partition for one trial.

    Depends only on the data config, base seed and trial index, never on
    the aggregator (matched-seed contract).  A ``fed.K`` above the number
    of samples, or an IDX test label at or above ``data.classes`` for a
    classifier, is a ConfigError."""
    if cfg["data.source"] == "idx":
        train = _idx_dataset(cfg["data.idx_images"], cfg["data.idx_labels"])
        test = None
        if cfg["data.idx_test_images"] is not None:
            test = _idx_dataset(cfg["data.idx_test_images"], cfg["data.idx_test_labels"])
            classes = cfg["data.classes"]
            if cfg["fed.model"] != "quadratic" and test.labels.max(initial=0) >= classes:
                raise ConfigError(f"data.classes: must exceed every test label, got "
                                  f"{classes} for test labels up to {test.labels.max()}")
    else:
        n_train, n_test = cfg["data.synth_n"], cfg["data.test_n"]
        # one pool, so train and test share the class means
        pool = synth_data(cfg, n_train + n_test, trial)
        train = LabeledDataset(pool.features[:n_train], pool.labels[:n_train])
        test = (LabeledDataset(pool.features[n_train:], pool.labels[n_train:])
                if n_test > 0 else None)
    return train, test, client_partition(cfg, train, trial)


def run_trial(points: list[dict[str, Any]], trial: int) -> list[dict[str, np.ndarray]]:
    """One trial of validated configs that differ only in phy.* keys: the
    data, partition and objective are built once, and one :func:`run_fedavg`
    call runs each distinct arm once.  Returns each config's traces by
    aggregator.  A label of the training data at or above ``data.classes``,
    or a budget whose gains are not finite and > 0, is a ConfigError."""
    train, test, parts = build_experiment_data(points[0], trial)
    fed = fed_run_config(points[0], trial, [(agg, point) for point in points
                                            for agg in point["fed.aggregators"]])
    arms = list(dict.fromkeys(fed.arms))  # equal arms are one run
    objective = run_objective(points[0], train, trial)
    # the gains depend on the objective's dimension, so run_fedavg checks them
    with _keyed():
        traces = run_fedavg(replace(fed, arms=arms), objective, parts, test)
    runs = iter(traces[arms.index(arm)] for arm in fed.arms)  # in the order listed
    return [{agg: next(runs) for agg in point["fed.aggregators"]} for point in points]


def run_single_trial(cfg: dict[str, Any], trial: int, aggregator: str) -> np.ndarray:
    """The trace of one aggregator's run of one trial, whatever
    ``fed.aggregators`` lists."""
    return run_trial([{**cfg, "fed.aggregators": [aggregator]}], trial)[0][aggregator]
