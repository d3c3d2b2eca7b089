"""Flat dotted-key experiment configuration.

A config file is a plain text document of ``section.key = value`` lines
(values in JSON syntax, ``#`` comments).  The whole document is validated
before any computation: unknown keys, type mismatches and malformed values
are reported with the offending key path.  Value rules belong to the typed
objects built here, whose errors are reported under the key of the field.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from typing import Any

import numpy as np

from .datasets import LabeledDataset, PartitionSpec, _allocating, partition, synth_dataset
from .estimator import ReedPhyConfig
from .fedavg import AGGREGATORS, FedRunConfig, Objective, build_objective
from .streams import StreamKey

__all__ = ["ConfigError", "SCHEMA", "parse_config", "load_config", "check_config",
           "fmt_value", "resolve_noise_var", "synth_data", "client_partition",
           "run_objective", "fed_run_config"]


_DECODER = json.JSONDecoder()


class ConfigError(ValueError):
    """Malformed or invalid experiment configuration."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _num(x) -> bool:
    # JSON NaN and Infinity parse as floats, and a long int literal
    # overflows one
    try:
        return not isinstance(x, bool) and math.isfinite(x)
    except (TypeError, OverflowError):
        return False


# key -> (checker, human-readable type, default); defaults of None mean unset
SCHEMA: dict[str, tuple] = {
    "seed": (_is_int, "int", 0),
    "trials": (_is_int, "int", 1),
    "workers": (_is_int, "int", 1),

    "phy.eta": (_num, "number", 1.0),
    "phy.noise_var": (_num, "number", 0.0),
    "phy.snr_db": (_num, "number", None),
    "phy.mean_power": (_num, "number", 1.0),
    "phy.chips": (_is_int, "int", 1),
    "phy.antennas": (_is_int, "int", 1),
    "phy.kappa": (_num, "number", 2.0),

    "fed.K": (_is_int, "int", 10),
    "fed.Q": (_is_int, "int", 10),
    "fed.T": (_is_int, "int", 100),
    "fed.batch_size": (_is_int, "int", 64),
    "fed.beta0": (_num, "number", 0.05),
    "fed.schedule": (lambda x: x in ("constant", "inv_sqrt"),
                     "'constant' or 'inv_sqrt'", "inv_sqrt"),
    "fed.clip_G": (_num, "number", None),
    "fed.aggregators": (lambda x: isinstance(x, list) and all(v in tuple(AGGREGATORS) for v in x)
                        and 0 < len(set(x)) == len(x),
                        f"distinct names out of {', '.join(map(repr, AGGREGATORS))}",
                        ["ideal", "reed"]),
    "fed.budget": (_num, "number", None),
    "fed.model": (lambda x: x in ("quadratic", "logistic", "mlp"),
                  "'quadratic', 'logistic' or 'mlp'", "logistic"),
    "fed.hidden": (_is_int, "int", 16),
    "fed.quad_dim": (_is_int, "int", 10),
    "fed.quad_curv_min": (_num, "number", 1.0),
    "fed.quad_curv_max": (_num, "number", 1.0),

    "data.source": (lambda x: x in ("synth", "idx"), "'synth' or 'idx'", "synth"),
    "data.synth_kind": (lambda x: x in ("gaussian-blobs", "quadratic-free"),
                        "'gaussian-blobs' or 'quadratic-free'", "gaussian-blobs"),
    "data.synth_n": (_is_int, "int", 6000),
    "data.test_n": (_is_int, "int", 2000),
    "data.classes": (_is_int, "int", 10),
    "data.features": (_is_int, "int", 20),
    "data.separation": (_num, "number", 1.0),
    "data.idx_images": (lambda x: isinstance(x, str), "string", None),
    "data.idx_labels": (lambda x: isinstance(x, str), "string", None),
    "data.idx_test_images": (lambda x: isinstance(x, str), "string", None),
    "data.idx_test_labels": (lambda x: isinstance(x, str), "string", None),
    "data.partition": (lambda x: x in ("iid", "dirichlet"),
                       "'iid' or 'dirichlet'", "iid"),
    "data.alpha": (_num, "number", 0.3),

    "output.dir": (lambda x: isinstance(x, str), "string", "out"),

    "moments.n_trials": (_is_int, "int", 1_000_000),
    "moments.tolerance": (_num, "number", 0.015),

    # one point per value, with only the named key changed
    "sweep.key": (lambda x: isinstance(x, str) and x in SCHEMA and not x.startswith("sweep."),
                  "a config key other than sweep.*", None),
    "sweep.values": (lambda x: isinstance(x, list) and len(x) > 0, "non-empty list", None),
}


def parse_config(text: str, seed: int | None = None,
                 workers: int | None = None) -> dict[str, Any]:
    """Parse and fully validate a config document.  Returns a key->value
    mapping with schema defaults filled in; ``seed`` and ``workers``, when
    given, replace the document's values before validation."""
    values: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # a '#' before the line's first '=' starts a comment; after it, the
        # value decides whether a '#' is quoted
        head = raw.split("#", 1)[0]
        if not head.strip():
            continue
        if "=" not in head:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value_text = raw.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        values[key] = _checked(key, _decoded(key, value_text.strip()))
    # one quantity, one key, whether set or swept
    if {"phy.snr_db", "phy.noise_var"} <= values.keys() | {values.get("sweep.key")}:
        raise ConfigError("phy.noise_var: cannot be set together with phy.snr_db")
    for key, override in (("seed", seed), ("workers", workers)):
        if override is not None:
            values[key] = override
    for key, (_, _, default) in SCHEMA.items():
        values.setdefault(key, default)
    check_config(values)
    _check_sweep(values)
    return values


def _decoded(key: str, text: str):
    """The JSON value at the start of ``text``, which may be followed only
    by whitespace and a ``#`` comment."""
    try:
        value, end = _DECODER.raw_decode(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{key}: malformed value {text!r} ({exc.msg})") from None
    rest = text[end:].lstrip()
    if rest and rest[0] != "#":
        raise ConfigError(f"{key}: malformed value {text!r} (Extra data)")
    return value


def _checked(key: str, value):
    checker, type_name, _ = SCHEMA[key]
    if not checker(value):
        raise ConfigError(f"{key}: expected {type_name}, got {value!r}")
    return value


# keys that say only how or where a command runs, or that only
# validate-moments reads: every FedAvg point of a sweep over one would be
# the same run
_UNSWEPT = ("workers", "output.dir", "moments.n_trials", "moments.tolerance")


def _check_sweep(cfg: dict[str, Any]) -> None:
    """Both sweep keys or neither, a key that a FedAvg point reads, and at
    each value a valid config whose value prints in one CSV cell, unlike
    any other value."""
    for key, other in (("sweep.key", "sweep.values"), ("sweep.values", "sweep.key")):
        if cfg[key] is None and cfg[other] is not None:
            raise ConfigError(f"{key}: required when {other} is set")
    values = cfg["sweep.values"] or []
    labels = [fmt_value(value) for value in values]
    for label in labels:
        if any(c in label for c in ',"\n'):
            raise ConfigError(f"sweep.values: value {label!r}: a CSV cell cannot "
                              "hold ',', '\"' or a newline")
    if cfg["sweep.key"] in _UNSWEPT:
        raise ConfigError(f"sweep.key: no FedAvg point reads {cfg['sweep.key']}, "
                          "so every point would be the same run")
    for value, label in zip(values, labels):
        try:
            check_config({**cfg, cfg["sweep.key"]: _checked(cfg["sweep.key"], value)})
        except ConfigError as exc:
            raise ConfigError(f"sweep.values: value {label}: {exc}") from None
        if labels.count(label) > 1:
            raise ConfigError(f"sweep.values: repeated value {label}")


def check_config(cfg: dict[str, Any]) -> None:
    """Validate a filled-in config: the rules no constructor owns, then the
    typed objects of a trial, built on no data."""
    _cross_validate(cfg)
    # each synthetic key's own rules hold whatever the source, but only
    # synthetic data draws its class means
    kind = cfg["data.synth_kind"] if cfg["data.source"] == "synth" else "quadratic-free"
    synth_data({**cfg, "data.synth_kind": kind}, 0, 0)
    _partition_spec(cfg, 0)
    run_objective(cfg, LabeledDataset(np.zeros((0, 1)), np.zeros(0)), 0)
    fed_run_config(cfg, 0, [(agg, cfg) for agg in cfg["fed.aggregators"]])


def _cross_validate(cfg: dict[str, Any]) -> None:
    for key, low in (("seed", 0), ("trials", 1), ("workers", 1), ("moments.n_trials", 2),
                     ("phy.chips", 1), ("data.test_n", 0), ("data.synth_n", 0)):
        if cfg[key] < low:
            raise ConfigError(f"{key}: must be >= {low}, got {cfg[key]}")
    if cfg["moments.tolerance"] <= 0:
        raise ConfigError(f"moments.tolerance: must be > 0, got {cfg['moments.tolerance']}")
    # the relations of the synthetic keys bind only the data they build
    if cfg["data.source"] == "synth":
        if cfg["data.synth_n"] < cfg["fed.K"]:
            raise ConfigError("data.synth_n: must be >= fed.K")
        if cfg["data.synth_kind"] == "quadratic-free" and cfg["fed.model"] != "quadratic":
            raise ConfigError("data.synth_kind: 'quadratic-free' builds all-zero rows with "
                              f"one label, nothing to train fed.model = {cfg['fed.model']!r} on")
    if cfg["data.source"] == "idx":
        for key in ("data.idx_images", "data.idx_labels"):
            if cfg[key] is None:
                raise ConfigError(f"{key}: required when data.source = 'idx'")
        for key, other in (("data.idx_test_labels", "data.idx_test_images"),
                           ("data.idx_test_images", "data.idx_test_labels")):
            if cfg[key] is None and cfg[other] is not None:
                raise ConfigError(f"{key}: required when {other} is set")


def load_config(path: str, seed: int | None = None,
                workers: int | None = None) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read(), seed, workers)


def fmt_value(x) -> str:
    """The printed form of a value in an output file: bools as 1 and 0,
    floats to 9 significant digits."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float) or isinstance(x, np.floating):
        return f"{float(x):.9g}"
    return str(x)


def resolve_noise_var(cfg: dict[str, Any]) -> float:
    """Receive-SNR convention: snr_db maps to sigma_z^2 = 10^(-snr_db/10),
    the noise variance at unit branch signal power."""
    snr_db = cfg["phy.snr_db"]
    if snr_db is None:
        return float(cfg["phy.noise_var"])
    try:
        noise_var = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        noise_var = math.inf
    if not math.isfinite(noise_var):
        raise ConfigError(f"phy.snr_db: {snr_db} dB gives a non-finite noise variance")
    return noise_var


# constructor field -> config key; constructor errors start with the field
_FIELD_KEYS = {
    "eta": "phy.eta", "noise_var": "phy.noise_var", "mean_powers": "phy.mean_power",
    "antennas": "phy.antennas", "kappa": "phy.kappa", "K": "fed.K", "Q": "fed.Q",
    "T": "fed.T", "batch_size": "fed.batch_size", "beta0": "fed.beta0",
    "arms": "fed.aggregators", "budgets": "fed.budget", "clip_G": "fed.clip_G",
    "hidden": "fed.hidden", "d": "fed.quad_dim", "chips": "phy.chips",
    "n_trials": "moments.n_trials",
    "curvature_range": "fed.quad_curv_min, fed.quad_curv_max",
    "alpha": "data.alpha", "classes": "data.classes", "n_classes": "data.classes",
    "p": "data.features", "separation": "data.separation", "means": "data.classes, data.features",
    "n": "data.synth_n, data.test_n",
}


@contextmanager
def _keyed():
    """Turn a constructor's ValueError into a ConfigError naming the config
    key of the field the message starts with."""
    try:
        yield
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        key = _FIELD_KEYS.get(field)
        if key is None:
            raise
        raise ConfigError(f"{key}: {rest}") from None


def _trial_seed(cfg: dict[str, Any], trial: int) -> int:
    return cfg["seed"] * 1_000_003 + trial


@_keyed()
def synth_data(cfg: dict[str, Any], n: int, trial: int) -> LabeledDataset:
    return synth_dataset(cfg["data.synth_kind"], n, seed=_trial_seed(cfg, trial),
                         classes=cfg["data.classes"], p=cfg["data.features"],
                         separation=cfg["data.separation"])


@_keyed()
def _partition_spec(cfg: dict[str, Any], trial: int) -> PartitionSpec:
    # the trial's own domain 3 (a run uses 0-2): replays no trial's root stream
    seed = int(StreamKey(_trial_seed(cfg, trial)).generator(3).integers(2**63))
    return PartitionSpec(kind=cfg["data.partition"], K=cfg["fed.K"], seed=seed,
                         alpha=cfg["data.alpha"])


@_keyed()
def client_partition(cfg: dict[str, Any], train: LabeledDataset,
                     trial: int) -> list[np.ndarray]:
    return partition(train, _partition_spec(cfg, trial))


@_keyed()
def run_objective(cfg: dict[str, Any], train: LabeledDataset, trial: int) -> Objective:
    # each model reads its own fields, and build_objective checks them all
    return build_objective(
        cfg["fed.model"], train, d=cfg["fed.quad_dim"],
        curvature_range=(cfg["fed.quad_curv_min"], cfg["fed.quad_curv_max"]),
        seed=_trial_seed(cfg, trial), hidden=cfg["fed.hidden"],
        n_classes=cfg["data.classes"])


def _chip_weights(chips: int) -> np.ndarray:
    """Unit weights for ``chips`` chips, a count NumPy may refuse."""
    with _allocating("chips"):
        return np.ones(chips)


@_keyed()
def fed_run_config(cfg: dict[str, Any], trial: int, arms: list[tuple[str, dict]]) -> FedRunConfig:
    """The run of one trial of ``cfg`` over ``arms``, (aggregator, config)
    pairs, each arm on its config's radio."""
    # one budget, like one mean power, is shared by every client
    budgets = None if cfg["fed.budget"] is None else np.array([cfg["fed.budget"]])
    return FedRunConfig(
        Q=cfg["fed.Q"], T=cfg["fed.T"], batch_size=cfg["fed.batch_size"],
        beta0=cfg["fed.beta0"], schedule=cfg["fed.schedule"], clip_G=cfg["fed.clip_G"],
        arms=tuple((agg, ReedPhyConfig(
            eta=point["phy.eta"], noise_var=resolve_noise_var(point),
            antennas=point["phy.antennas"], mean_powers=np.array([point["phy.mean_power"]]),
            chip_weights=_chip_weights(point["phy.chips"]), kappa=point["phy.kappa"]))
            for agg, point in arms),
        budgets=budgets, seed=_trial_seed(cfg, trial))
