"""The benchmark tracer names reedsim functions and methods as strings, so a
rename or a move would only show when a traced benchmark run fails.  These
tests resolve every name the way ``Tracer.__enter__`` does."""

import importlib
import importlib.util
import pathlib
import sys

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    # by file path, so that the benchmark's own modules shadow nothing on
    # sys.path; registered only while it runs, which its dataclass needs
    spec = importlib.util.spec_from_file_location("reedsim_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TARGETS = [(layer, target) for layer, targets in _load_tracer().LAYERS.items()
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
