"""The benchmark tracer names reedsim functions and methods as strings, and
its workloads write reedsim configs as text, so a rename, a move or a
config rule that rejects a workload would only show when a benchmark run
fails.  These tests resolve every name the way ``Tracer.__enter__`` does,
parse every workload's config, and build the data of every FedAvg
workload's trials, the set-up that ``setup_probe.py`` times."""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from reedsim.config import parse_config
from reedsim.experiments import build_experiment_data

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    # by file path, so that the benchmark's own modules shadow nothing on
    # sys.path; registered only while it runs, which its dataclasses need
    spec = importlib.util.spec_from_file_location(f"reedsim_bench_{name}",
                                                  BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TARGETS = [(layer, target) for layer, targets in _load_bench("tracer").LAYERS.items()
           for target in targets]


@pytest.mark.parametrize("layer, target", TARGETS, ids=[t for _, t in TARGETS])
def test_tracer_target_resolves(layer, target):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    if "." in qualname:
        # a method is wrapped on the class that defines it
        cls_name, name = qualname.split(".")
        assert name in vars(getattr(owner, cls_name)), (layer, target)
    else:
        assert callable(getattr(owner, qualname, None)), (layer, target)


WORKLOADS = _load_bench("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_validates(name):
    # parsing checks the whole config, as the benchmark's unit would
    parse_config(WORKLOADS[name].config_text(0))


@pytest.mark.parametrize("name", sorted(n for n, w in WORKLOADS.items() if w.is_fedavg))
def test_workload_data_builds(name):
    # one partition per client for every trial, as setup_probe.py builds them
    cfg = parse_config(WORKLOADS[name].config_text(0))
    for trial in range(cfg["trials"]):
        assert len(build_experiment_data(cfg, trial)[2]) == cfg["fed.K"]
