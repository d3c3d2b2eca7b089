"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from reedsim import channel, estimator  # noqa: E402
from reedsim.config import parse_config  # noqa: E402
from reedsim.experiments import default_moment_matrix, run_single_trial, validate_point  # noqa: E402
from reedsim.streams import StreamKey  # noqa: E402


def _cfg(name: str, T: int | None = None, seed: int = 5) -> dict:
    cfg = parse_config(workloads.WORKLOADS[name].config_text(seed))
    if T is not None:
        cfg["fed.T"] = T
    return cfg


def _traced_trial(cfg: dict, aggregator: str) -> dict:
    with tracer.Tracer() as tr:
        run_single_trial(cfg, 0, aggregator)
    return tr.stats


@pytest.mark.parametrize("name, aggregator, M, expected", [
    ("quadratic-budget", "reed", 1, 52),
    ("logistic-chips", "reed", 4, 178),
    ("logistic-chips", "ideal", 4, 10),
])
def test_generator_calls_per_round(name, aggregator, M, expected):
    K, R = 10, 1
    short = _traced_trial(_cfg(name, T=2), aggregator)
    long = _traced_trial(_cfg(name, T=5), aggregator)
    per_round = (long["streams.generator"].calls - short["streams.generator"].calls) / 3
    samplers = (long["channel.samplers"].calls - short["channel.samplers"].calls) / 3
    if aggregator == "reed":
        assert expected == K + M * 2 * (K + K * R + R)
        assert samplers == M * 2 * (K + K * R + R)
    else:
        assert samplers == 0
    assert per_round == expected


def test_counts_repeat_and_originals_are_restored():
    cfg = _cfg("quadratic-budget", T=3)
    first = _traced_trial(cfg, "reed")
    second = _traced_trial(cfg, "reed")
    for layer in tracer.LAYERS:
        assert first[layer].calls == second[layer].calls, layer
        assert first[layer].draws == second[layer].draws, layer
    assert estimator.sample_dither is channel.sample_dither
    assert not hasattr(channel.sample_dither, "__wrapped__")
    assert not hasattr(StreamKey.generator, "__wrapped__")


def test_self_time_excludes_wrapped_children():
    stats = _traced_trial(_cfg("logistic-chips", T=2), "reed")
    reed = stats["estimator.aggregate_reed"]
    assert 0 < reed.self_s < reed.s
    assert stats["channel.samplers"].draws > 0


def test_negative_control_fails_the_gate():
    assert run.negative_control_rejected(seed=0)


def test_correct_moment_points_pass_the_gate():
    n = workloads.MC_TRIALS
    for point in default_moment_matrix()[:4]:
        r = validate_point(point, n, workloads.mc_tolerance(n), seed=1)
        assert workloads.moment_point_ok(r.mc_mean, r.cf_mean, r.cf_var, r.rel_err, n)


_HEADER = "trial,round,aggregator,train_loss,test_acc,grad_norm_sq,eps_norm_sq,max_client_energy\n"


def _fedavg_csv(losses_by_agg: dict) -> str:
    rows = [f"0,{t},{agg},{loss},0.5,1,0,0\n"
            for agg, losses in losses_by_agg.items() for t, loss in enumerate(losses)]
    return _HEADER + "".join(rows)


@pytest.mark.parametrize("losses, failed", [
    ({"ideal": [2.0, 1.0, 0.5], "reed": [2.0, 1.5, 1.0]}, 0),
    ({"ideal": [2.0, 1.0, 0.5], "reed": [2.0, 2.5, 2.0]}, 1),     # no progress
    ({"ideal": [2.0, 1.0, 0.5], "reed": [2.0, "nan", 1.0]}, 1),   # non-finite
    ({"ideal": [2.0, 1.0, 0.5], "reed": [2.0, 1.0]}, 1),          # short
    ({"ideal": [2.0, 1.0, 0.5]}, 1),                               # missing
])
def test_fedavg_gate(losses, failed):
    cfg = {"trials": 1, "fed.T": 3, "fed.aggregators": ["ideal", "reed"]}
    gate = workloads.gate_fedavg(_fedavg_csv(losses), cfg)
    assert (gate.attempted, gate.failed) == (2, failed)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (f"{layer}.{field}", "count" if field in tracer.COUNT_FIELDS else "s")
        for layer, field in tracer.METRICS]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_run_prints_every_layer_metric():
    out = _run(ROOT, "--workload", "quadratic-budget", "--seed", "3",
               "--seconds", "0.5", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [f"{l}.{f}" for l, f in tracer.METRICS]
    assert result["metrics"]["streams.generator.calls"]["value"] == 2 + 52 * 400


def test_untraced_run_prints_every_end_to_end_metric():
    out = _run(ROOT, "--workload", "moments-mc", "--seed", "3",
               "--seconds", "0.5", "--trace", "0")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2].removeprefix("record "))
    assert result["correct"] and result["attempted"] == 2 * 12
    assert list(result["metrics"]) == list(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["negative_control_rejected"]
    assert len(record["output_sha256"]) == 1
    assert record["provenance"]["blas_threads"]["OMP_NUM_THREADS"] == run.THREADS


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    out = _run(tmp_path, "--workload", "moments-mc", "--seed", "0",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
