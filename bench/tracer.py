"""Per-layer call counts and times, recorded from outside the program.

Each layer is a set of reedsim functions or methods.  The tracer wraps them
in place and restores them afterwards; nothing in reedsim knows it is being
traced.  A wrapper records the call count, the inclusive time and the self
time (inclusive time minus the time spent in other wrapped calls beneath
it).

Several reedsim modules bind functions by name at import time
(``from .channel import sample_dither``), so wrapping the defining module
alone would miss every call made through those copies.  A function is
therefore replaced under every name any reedsim module holds it by.
Methods are looked up through their class, so they are replaced on the
class that defines them.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np

# layer -> functions ("module:name") or methods ("module:Class.name")
LAYERS: dict[str, tuple[str, ...]] = {
    "streams.generator": ("reedsim.streams:StreamKey.generator",),
    "channel.samplers": tuple(f"reedsim.channel:{name}" for name in (
        "sample_dither", "sample_fading", "sample_noise", "sample_general_fading")),
    "estimator.aggregate_reed": ("reedsim.estimator:aggregate_reed",),
    "estimator.aggregate_ideal": ("reedsim.estimator:aggregate_ideal",),
    "estimator.sample_estimates": ("reedsim.estimator:sample_estimates",),
    "moments.energy_audit": ("reedsim.moments:energy_audit",),
    "moments.eta_schedule": ("reedsim.moments:eta_schedule",),
    "moments.variance_chip": ("reedsim.moments:variance_chip",),
    "fedavg.local_round": ("reedsim.fedavg:local_round",),
    "fedavg.objective.gradient": tuple(
        f"reedsim.fedavg:{cls}.stochastic_gradient"
        for cls in ("QuadraticObjective", "LogisticObjective", "MlpObjective")),
    # loss, accuracy and the per-round diagnostic gradient
    "fedavg.objective.eval": (
        "reedsim.fedavg:Objective.accuracy",
        "reedsim.fedavg:QuadraticObjective.loss",
        "reedsim.fedavg:QuadraticObjective.full_gradient",
        "reedsim.fedavg:LogisticObjective.loss",
        "reedsim.fedavg:LogisticObjective.full_gradient",
        "reedsim.fedavg:LogisticObjective.accuracy",
        "reedsim.fedavg:MlpObjective.loss",
        "reedsim.fedavg:MlpObjective.full_gradient",
        "reedsim.fedavg:MlpObjective.diagnostic_gradient",
        "reedsim.fedavg:MlpObjective.accuracy",
    ),
    "fedavg.run_fedavg": ("reedsim.fedavg:run_fedavg",),
    "datasets.synth_dataset": ("reedsim.datasets:synth_dataset",),
    "datasets.partition": ("reedsim.datasets:partition",),
    "experiments.build_experiment_data": ("reedsim.experiments:build_experiment_data",),
    "experiments.validate_point": ("reedsim.experiments:validate_point",),
    "config.parse_config": ("reedsim.config:parse_config",),
    "cli.write_outputs": ("reedsim.cli:_write_csv", "reedsim.cli:_write_json"),
}

# layers whose wrapped calls also count the samples they return
DRAW_LAYERS = frozenset({"channel.samplers"})

# (layer, field) pairs a traced run reports, named "<layer>.<field>"
METRICS: tuple[tuple[str, str], ...] = (
    ("streams.generator", "calls"),
    ("streams.generator", "self_s"),
    ("channel.samplers", "calls"),
    ("channel.samplers", "draws"),
    ("channel.samplers", "self_s"),
    ("estimator.aggregate_reed", "calls"),
    ("estimator.aggregate_reed", "s"),
    ("estimator.aggregate_reed", "self_s"),
    ("estimator.sample_estimates", "s"),
    ("estimator.sample_estimates", "self_s"),
    ("estimator.aggregate_ideal", "s"),
    ("moments.energy_audit", "s"),
    ("moments.eta_schedule", "s"),
    ("moments.variance_chip", "s"),
    ("fedavg.local_round", "calls"),
    ("fedavg.local_round", "self_s"),
    ("fedavg.objective.gradient", "calls"),
    ("fedavg.objective.gradient", "s"),
    ("fedavg.objective.eval", "s"),
    ("fedavg.run_fedavg", "self_s"),
    ("datasets.synth_dataset", "s"),
    ("datasets.partition", "s"),
    ("experiments.build_experiment_data", "s"),
    ("config.parse_config", "s"),
    ("experiments.validate_point", "s"),
    ("cli.write_outputs", "s"),
)
COUNT_FIELDS = frozenset({"calls", "draws"})


@dataclass
class LayerStats:
    calls: int = 0
    draws: int = 0
    s: float = 0.0       # inclusive time of outermost calls
    self_s: float = 0.0  # time not spent in other wrapped calls

    def minus(self, other: "LayerStats") -> "LayerStats":
        return LayerStats(self.calls - other.calls, self.draws - other.draws,
                          self.s - other.s, self.self_s - other.self_s)


class Tracer:
    """Wraps every layer of :data:`LAYERS` while used as a context manager."""

    def __init__(self) -> None:
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self._depth = dict.fromkeys(LAYERS, 0)
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def snapshot(self) -> dict[str, LayerStats]:
        return {layer: LayerStats(**vars(st)) for layer, st in self.stats.items()}

    def _wrap(self, layer: str, fn):
        stats, depth, stack = self.stats[layer], self._depth, self._stack
        count_draws = layer in DRAW_LAYERS

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            depth[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                depth[layer] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - children[0]
                if depth[layer] == 0:
                    stats.s += elapsed
            if count_draws:
                stats.draws += int(np.size(result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        importlib.import_module("reedsim.cli")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "reedsim" or name.startswith("reedsim."))]
        try:
            for layer, targets in LAYERS.items():
                for target in targets:
                    module_name, _, qualname = target.partition(":")
                    owner = importlib.import_module(module_name)
                    if "." in qualname:
                        cls_name, name = qualname.split(".")
                        owner = getattr(owner, cls_name)
                        self._set(owner, name, self._wrap(layer, vars(owner)[name]))
                        continue
                    original = getattr(owner, qualname)
                    traced = self._wrap(layer, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._set(module, attr, traced)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)
