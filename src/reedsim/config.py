"""Flat dotted-key experiment configuration.

A config file is a plain text document of ``section.key = value`` lines
(values in JSON syntax, ``#`` comments).  The whole document is validated
against the schema before any computation: unknown keys, type mismatches
and malformed values are reported with the offending key path.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["ConfigError", "SCHEMA", "parse_config", "load_config", "resolve_noise_var"]


class ConfigError(ValueError):
    """Malformed or invalid experiment configuration."""


def _num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _num_list(x) -> bool:
    return isinstance(x, list) and len(x) > 0 and all(_num(v) for v in x)


def _str_list(x) -> bool:
    return isinstance(x, list) and len(x) > 0 and all(isinstance(v, str) for v in x)


# key -> (checker, human-readable type, default); defaults of None mean unset
SCHEMA: dict[str, tuple] = {
    "seed": (_is_int, "int", 0),
    "trials": (_is_int, "int", 1),
    "workers": (_is_int, "int", 1),

    "phy.eta": (_num, "number", 1.0),
    "phy.noise_var": (_num, "number", 0.0),
    "phy.snr_db": (_num, "number", None),
    "phy.snr_ref_power": (_num, "number", 1.0),
    "phy.mean_power": (_num, "number", 1.0),
    "phy.chips": (_is_int, "int", 1),
    "phy.chip_weight": (_num, "number", 1.0),
    "phy.chip_weights": (_num_list, "list of numbers", None),
    "phy.antennas": (_is_int, "int", 1),
    "phy.kappa": (_num, "number", 2.0),
    "phy.ideal_channel": (lambda x: isinstance(x, bool), "bool", False),

    "fed.K": (_is_int, "int", 10),
    "fed.Q": (_is_int, "int", 10),
    "fed.T": (_is_int, "int", 100),
    "fed.batch_size": (_is_int, "int", 64),
    "fed.beta0": (_num, "number", 0.05),
    "fed.schedule": (lambda x: x in ("constant", "inv_sqrt"),
                     "'constant' or 'inv_sqrt'", "inv_sqrt"),
    "fed.clip_G": (_num, "number", None),
    "fed.aggregators": (_str_list, "list of strings", ["ideal", "reed"]),
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

    "sweep.M_values": (_num_list, "list of numbers", [1, 2, 4]),
    "sweep.snr_db_values": (_num_list, "list of numbers", None),
    "sweep.alpha_values": (_num_list, "list of numbers", None),
    "sweep.beta0_values": (_num_list, "list of numbers", None),
}


def parse_config(text: str, seed: int | None = None,
                 workers: int | None = None) -> dict[str, Any]:
    """Parse and fully validate a config document.  Returns a key->value
    mapping with schema defaults filled in; ``seed`` and ``workers``, when
    given, replace the document's values before validation."""
    values: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            value = json.loads(value_text.strip())
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{key}: malformed value {value_text.strip()!r} ({exc.msg})") from None
        checker, type_name, _ = SCHEMA[key]
        if not checker(value):
            raise ConfigError(f"{key}: expected {type_name}, got {value!r}")
        values[key] = value
    for key, override in (("seed", seed), ("workers", workers)):
        if override is not None:
            values[key] = override
    for key, (_, _, default) in SCHEMA.items():
        values.setdefault(key, default)
    _cross_validate(values)
    return values


def _cross_validate(cfg: dict[str, Any]) -> None:
    if cfg["seed"] < 0:
        raise ConfigError(f"seed: must be >= 0, got {cfg['seed']}")
    for key in ("trials", "workers", "fed.K", "fed.Q", "fed.T", "fed.batch_size",
                "phy.chips", "phy.antennas", "moments.n_trials"):
        if cfg[key] < 1:
            raise ConfigError(f"{key}: must be >= 1, got {cfg[key]}")
    for key in ("phy.eta", "fed.beta0", "phy.mean_power", "phy.snr_ref_power",
                "moments.tolerance"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key}: must be > 0, got {cfg[key]}")
    if cfg["phy.noise_var"] < 0:
        raise ConfigError(f"phy.noise_var: must be >= 0, got {cfg['phy.noise_var']}")
    if cfg["phy.kappa"] < 1:
        raise ConfigError(f"phy.kappa: must be >= 1, got {cfg['phy.kappa']}")
    if cfg["phy.chip_weights"] is not None:
        w = cfg["phy.chip_weights"]
        if any(v < 0 for v in w) or sum(w) <= 0:
            raise ConfigError("phy.chip_weights: must be >= 0 with positive sum")
    for agg in cfg["fed.aggregators"]:
        if agg not in ("ideal", "reed", "coherent_csit"):
            raise ConfigError(f"fed.aggregators: unknown aggregator {agg!r}")
    if cfg["fed.budget"] is not None:
        if cfg["fed.budget"] <= 0:
            raise ConfigError("fed.budget: must be > 0")
        if cfg["fed.clip_G"] is None:
            raise ConfigError("fed.budget requires fed.clip_G to be set")
    if cfg["fed.clip_G"] is not None and cfg["fed.clip_G"] <= 0:
        raise ConfigError("fed.clip_G: must be > 0")
    if cfg["data.source"] == "idx":
        for key in ("data.idx_images", "data.idx_labels"):
            if cfg[key] is None:
                raise ConfigError(f"{key}: required when data.source = 'idx'")
    if cfg["data.partition"] == "dirichlet" and cfg["data.alpha"] <= 0:
        raise ConfigError("data.alpha: must be > 0 for dirichlet partitions")
    if cfg["data.synth_n"] < cfg["fed.K"]:
        raise ConfigError("data.synth_n: must be >= fed.K")
    if cfg["fed.model"] == "quadratic" and cfg["fed.quad_dim"] < 1:
        raise ConfigError("fed.quad_dim: must be >= 1")
    if cfg["fed.quad_curv_min"] <= 0 or cfg["fed.quad_curv_max"] < cfg["fed.quad_curv_min"]:
        raise ConfigError("invalid quadratic curvature range")


def load_config(path: str, seed: int | None = None,
                workers: int | None = None) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read(), seed, workers)


def resolve_noise_var(cfg: dict[str, Any]) -> float:
    """Receive-SNR convention: snr_db maps to sigma_z^2 =
    10^(-snr_db/10) * reference branch signal power (default 1)."""
    if cfg["phy.snr_db"] is not None:
        return 10.0 ** (-cfg["phy.snr_db"] / 10.0) * cfg["phy.snr_ref_power"]
    return float(cfg["phy.noise_var"])
