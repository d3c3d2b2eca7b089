import itertools
import json
import os
import pathlib
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from reedsim import cli, config, experiments, fedavg
from reedsim.cli import cmd_run_fedavg, cmd_sweep, cmd_validate_moments, main
from reedsim.config import (SCHEMA, ConfigError, _partition_spec, _trial_seed, load_config,
                            parse_config, resolve_noise_var)
from reedsim.estimator import ReedPhyConfig, ScalarInputs, sample_estimates
from reedsim.experiments import (MomentPoint, default_moment_matrix,
                                 run_single_trial, run_trial, validate_point)
from reedsim.fedavg import TRACE_COLUMNS, LogisticObjective, MlpObjective, QuadraticObjective
from reedsim.datasets import LabeledDataset
from reedsim.streams import StreamKey

from reference import write_idx

FAST_FED = """
trials = 2
seed = 3
fed.K = 3
fed.Q = 2
fed.T = 3
fed.batch_size = 16
fed.beta0 = 0.1
fed.aggregators = ["ideal"]
data.synth_n = 90
data.test_n = 60
data.classes = 3
data.features = 4
data.separation = 3.0
"""

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "configs"


def _with(text: str, overrides: dict[str, str]) -> str:
    """A config document with each key of ``overrides`` set to its JSON
    value text, replacing any line that sets it."""
    lines = [line for line in text.splitlines()
             if line.partition("=")[0].strip() not in overrides]
    return "\n".join(lines + [f"{k} = {v}" for k, v in overrides.items()]) + "\n"


# FAST_FED cut to one trial, with both aggregators and a quick moment matrix
TINY = _with(FAST_FED, {"trials": "1", "fed.aggregators": '["ideal", "reed"]',
                        "moments.n_trials": "2000", "moments.tolerance": "1.0"})


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every process pool that cli starts."""
    started = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    return started


@pytest.fixture
def helpers(monkeypatch):
    """Every helper thread that cli starts, on four usable cores unless the
    test sets another count.  The calling thread is a worker besides them,
    so a map over n items on c cores starts min(c, n) - 1."""
    monkeypatch.setattr(cli, "_usable_cores", lambda: 4)
    started = []

    class RecordingThread(cli.Thread):
        def start(self):
            super().start()
            started.append(self)

    monkeypatch.setattr(cli, "Thread", RecordingThread)
    return started


class TestConfigParsing:
    def test_defaults_filled(self):
        cfg = parse_config("")
        assert cfg["fed.K"] == 10
        assert cfg["phy.kappa"] == 2.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="phy.bandwidth"):
            parse_config("phy.bandwidth = 20")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="fed.K"):
            parse_config('fed.K = "ten"')

    def test_malformed_value(self):
        for line in ("fed.K = [1,", "fed.K = 3 4", "fed.K = 3 4  # note",
                     'output.dir = "out#1'):
            with pytest.raises(ConfigError, match=f"^{line.split()[0]}: malformed value"):
                parse_config(line)

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="^line 2: expected 'key = value', got 'fed.K 3'$"):
            parse_config("# a comment = no key\nfed.K 3")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("fed.K = 1\nfed.K = 2")

    def test_comments_and_blank_lines(self):
        cfg = parse_config('# comment\n\nfed.K = 5  # trailing\n'
                           'output.dir = "out#1"  # a quoted # is no comment\n')
        assert cfg["fed.K"] == 5
        assert cfg["output.dir"] == "out#1"

    def test_cross_validation(self):
        with pytest.raises(ConfigError, match="fed.budget"):
            parse_config("fed.budget = 1.0")  # requires clip_G
        with pytest.raises(ConfigError, match=r"^phy\.eta: must be > 0, got -1$"):
            parse_config("phy.eta = -1")
        with pytest.raises(ConfigError, match=r"^fed\.Q: must be >= 1, got 0$"):
            parse_config("fed.Q = 0")
        with pytest.raises(ConfigError, match="data.idx_images"):
            parse_config('data.source = "idx"')

    def test_snr_convention(self):
        cfg = parse_config("phy.snr_db = -10")
        assert resolve_noise_var(cfg) == pytest.approx(10.0)

    @pytest.mark.parametrize("key", ["phy.chip_weight", "phy.chip_weights",
                                     "phy.snr_ref_power", "sweep.M_values",
                                     "sweep.snr_db_values", "sweep.alpha_values",
                                     "sweep.beta0_values"])
    def test_restating_keys_unknown(self, key):
        # eta, noise_var and chips each have one key, which sweep.key also
        # names when the quantity is swept
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config(f"{key} = 1.0")

    def test_mutated_configs_never_crash_unvalidated(self, tmp_path, capsys):
        # every key set to every garbage value, as a tiny end-to-end CLI
        # run: it succeeds, or stops with status 2 and an "error:" line,
        # never with a traceback
        # garbage in sweep.values runs as a sweep of each key that used to
        # have its own sweep axis.  Each case writes a new config file and
        # output directory: on ext4, truncating a file or renaming over one
        # starts its writeback, so rewriting the same paths in every case
        # made the test wait on the disk
        case = itertools.count()
        for key in sorted(SCHEMA):
            command = ("validate-moments" if key.startswith("moments.") else
                       "sweep" if key.startswith("sweep.") else "run-fedavg")
            swept = (["phy.chips", "phy.snr_db", "data.alpha", "fed.beta0"]
                     if key == "sweep.values" else [None])
            for sweep_key in swept:
                for garbage in ['"x"', "[]", "-3", "1.5", "{}", "null", "true",
                                "0", "[0]", "[-3]", "[1.5]", "NaN", "Infinity", "-Infinity"]:
                    overrides = {key: garbage}
                    if sweep_key is not None:
                        overrides["sweep.key"] = f'"{sweep_key}"'
                    i = next(case)
                    cfgfile = tmp_path / f"{i}.cfg"
                    cfgfile.write_text(_with(TINY, overrides))
                    status = main([command, str(cfgfile), "--out", str(tmp_path / f"o{i}")])
                    err = capsys.readouterr().err
                    assert status in (0, 2), (key, sweep_key, garbage)
                    assert "Traceback" not in err
                    assert status == 0 or err.startswith("error: "), (key, sweep_key, garbage)

    def test_partition_stream_replays_no_trial_root(self):
        # trial t's client partition must not redraw the root stream that
        # seeds trial u's synthetic data and quadratic curvatures
        cfg = parse_config("")

        def first_draws(seed):
            return StreamKey(seed).generator().random(4).tolist()

        roots = [first_draws(_trial_seed(cfg, u)) for u in range(10)]
        for t in range(10):
            assert first_draws(_partition_spec(cfg, t).seed) not in roots, t

    def test_quadratic_config_parses_without_drawing(self, monkeypatch):
        # the check sizes the curvatures and builds no objective, at each
        # sweep value too, and still names fed.quad_dim when it is wrong
        built = []
        monkeypatch.setattr(config, "build_objective", lambda *a, **k: built.append(a))
        monkeypatch.setattr(fedavg.QuadraticObjective, "__init__", lambda *a: built.append(a))
        quadratic = {"fed.model": '"quadratic"', "fed.quad_dim": "10000000"}
        cfg = parse_config(_with(FAST_FED, {**quadratic, "sweep.key": '"fed.beta0"',
                                            "sweep.values": "[0.1, 0.2, 0.3, 0.4]"}))
        assert cfg["fed.quad_dim"] == 10**7
        for bad in ("0", "1" + "0" * 15):
            with pytest.raises(ConfigError, match="^fed.quad_dim: "):
                parse_config(_with(FAST_FED, {**quadratic, "fed.quad_dim": bad}))
        assert built == []

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
    def test_script_configs_validate(self, path):
        # loading checks every point of the config's sweep, for sweep too
        load_config(str(path))


class TestValidateMoments:
    def test_matrix_has_at_least_12_points(self):
        assert len(default_moment_matrix()) >= 12

    def test_small_run_passes(self, tmp_path):
        cfg = parse_config("moments.n_trials = 200000\nmoments.tolerance = 0.05")
        status = cmd_validate_moments(cfg, str(tmp_path))
        assert status == 0
        lines = (tmp_path / "moments.csv").read_text().splitlines()
        assert lines[0].startswith("point_id,s,mc_mean,cf_mean,mc_var,cf_var")
        assert len(lines) == 1 + len(default_moment_matrix())

    def test_moments_are_numpys_bits(self, monkeypatch):
        # validate_point takes the variance in place on the draws; it must
        # give np.var's bits
        kept = []

        def keep(*args):
            draws = sample_estimates(*args)
            kept.append(draws.copy())
            return draws

        monkeypatch.setattr(experiments, "sample_estimates", keep)
        for point in default_moment_matrix()[:4]:
            result = validate_point(point, 5000, 0.2, seed=3)
            assert result.mc_mean == float(kept[-1].mean())
            assert result.mc_var == float(kept[-1].var(ddof=1))

    @pytest.mark.parametrize("cores", [1, 2, 3, 16])
    def test_one_thread_per_usable_core(self, tmp_path, monkeypatch, pools, helpers,
                                        cores):
        # at most one worker per point, the caller one of them, so no
        # helper thread on one core
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        assert cmd_validate_moments(parse_config(TINY), str(tmp_path)) == 0
        n_points = len(default_moment_matrix())
        assert len(helpers) == min(cores, n_points) - 1
        assert pools == []

    def test_workers_start_no_process_pool(self, tmp_path, monkeypatch, pools, helpers):
        # workers sizes only the FedAvg pool: at any workers the points run
        # on one thread per usable core, and on this thread alone on one core
        cfgfile = tmp_path / "moments.cfg"
        cfgfile.write_text(TINY)
        n_points = len(default_moment_matrix())
        for cores in (1, 4, 16):
            monkeypatch.setattr(cli, "_usable_cores", lambda cores=cores: cores)
            for workers in (2, 3):
                helpers.clear()
                assert main(["validate-moments", str(cfgfile), "--workers", str(workers),
                             "--out", str(tmp_path / f"{cores}-{workers}")]) == 0
                assert len(helpers) == min(cores, n_points) - 1
        assert pools == []

    def test_moments_bytes_equal_at_any_core_count(self, tmp_path, monkeypatch, helpers):
        # and no helper outlives its call
        written = set()
        for cores in (1, 2, 3, 16):
            monkeypatch.setattr(cli, "_usable_cores", lambda cores=cores: cores)
            assert cmd_validate_moments(parse_config(TINY), str(tmp_path / str(cores))) == 0
            written.add((tmp_path / str(cores) / "moments.csv").read_bytes())
        assert len(written) == 1
        assert len(helpers) == 1 + 2 + 11 and not any(t.is_alive() for t in helpers)

    @pytest.mark.parametrize("cores", [2, 3, 16])
    def test_point_error_in_a_helper_reaches_the_caller(self, tmp_path, monkeypatch, helpers,
                                                        cores):
        # every point a helper takes raises, and so do points 7 and 9 on any
        # thread: the caller raises point 7's error, or a lower helper
        # point's, after every helper has joined, and writes nothing
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        ids = [point.point_id for point in default_moment_matrix()]
        taken, failed = [], []

        def failing(point, *args):
            taken.append(point.point_id)
            if threading.current_thread() is not threading.main_thread() or \
                    point.point_id in (ids[7], ids[9]):
                failed.append(point.point_id)
                raise ConfigError(f"failed {point.point_id}")
            return validate_point(point, *args)

        monkeypatch.setattr(cli, "validate_point", failing)
        with pytest.raises(ConfigError, match="failed ") as raised:
            cmd_validate_moments(parse_config(TINY), str(tmp_path))
        assert str(raised.value) == f"failed {min(failed)}" and min(failed) <= ids[7]
        # each point is taken once, in order, and after the first failure
        # none but those the other workers already run
        assert sorted(taken) == ids[:len(taken)] and len(taken) <= 8 + cores - 1
        assert len(helpers) == min(cores, len(ids)) - 1
        assert not any(t.is_alive() for t in helpers)
        assert not (tmp_path / "moments.csv").exists()

    def test_threaded_map_takes_each_item_once(self, helpers):
        # more workers than cores, switching threads often: a lost update
        # of the shared iterator or of the results would show here
        calls, starts = [], []

        def start():
            starts.append(threading.current_thread())
            return lambda item: calls.append(item) or item * item

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = cli._threaded(start, list(range(500)), 16)
        finally:
            sys.setswitchinterval(interval)
        assert results == [i * i for i in range(500)] and sorted(calls) == list(range(500))
        assert len(helpers) == 15 and not any(t.is_alive() for t in helpers)
        assert len(set(starts)) == len(starts) <= 16

    @pytest.mark.parametrize("cores", [1, 2, 16])
    def test_oversized_trials_name_their_key_at_any_core_count(self, tmp_path, capsys,
                                                                monkeypatch, helpers, cores):
        # each worker allocates its buffers under the key, on its first point
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        cfgfile = tmp_path / "big.cfg"
        cfgfile.write_text(_with(TINY, {"moments.n_trials": "1" + "0" * 15}))
        assert main(["validate-moments", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: moments.n_trials: too large: "), err
        assert len(err.splitlines()) == 1
        assert not any(t.is_alive() for t in helpers) and not (tmp_path / "o").exists()

    def test_two_workers_hold_one_set_of_buffers_each(self, tmp_path, monkeypatch, helpers):
        # at two workers the call's peak is two sets of kernel buffers,
        # 2n + min(n, 2**16) doubles each, and what does not grow with n (the
        # matrix, the results and the rows, about 30 KB): no point allocates
        # n-long arrays of its own beside them.  n is raised so that one more
        # n-long array would pass the slack
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        cfg = parse_config(_with(TINY, {"moments.n_trials": "20000"}))
        n = cfg["moments.n_trials"]
        cmd_validate_moments(cfg, str(tmp_path))  # imports and caches warm
        tracemalloc.start()
        try:
            assert cmd_validate_moments(cfg, str(tmp_path)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (2 * n + min(n, 1 << 16)) * 8 + (64 << 10)

    def test_usable_cores_follow_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert cli._usable_cores() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._usable_cores() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert cli._usable_cores() == 6

    def test_negative_control_flagged(self):
        point = MomentPoint(
            point_id="wrong_eta",
            inputs=ScalarInputs([2.0, -1.0]),
            cfg=ReedPhyConfig(eta=1.0, noise_var=1.0),
            cf_cfg=ReedPhyConfig(eta=3.0, noise_var=1.0))
        result = validate_point(point, 100_000, 0.015, seed=0)
        assert not result.passed

    def test_zero_variance_point_is_exact(self):
        # no signal and no noise: every draw is the closed-form mean, 0
        point = MomentPoint(point_id="silent", inputs=ScalarInputs([0.0, 0.0]),
                            cfg=ReedPhyConfig(noise_var=0.0))
        result = validate_point(point, 1000, 0.015, seed=0)
        assert (result.cf_var, result.mc_var, result.mc_mean, result.rel_err) == (0, 0, 0, 0)
        assert result.passed

    def test_noiseless_rows_match_self_noise(self):
        point = MomentPoint(
            point_id="noiseless",
            inputs=ScalarInputs([2.0, -1.0]),
            cfg=ReedPhyConfig(eta=1.0, noise_var=0.0, chip_weights=[1.0, 1.0]))
        result = validate_point(point, 500_000, 0.02, seed=1)
        assert result.passed
        assert result.cf_var == pytest.approx(5.0 / 2)


class TestRunFedavg:
    def test_row_accounting_and_summary(self, tmp_path):
        cfg = parse_config(FAST_FED)
        assert cmd_run_fedavg(cfg, str(tmp_path)) == 0
        lines = (tmp_path / "fedavg_trace.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3  # header + trials * rounds
        summary = json.loads((tmp_path / "fedavg_summary.json").read_text())
        assert summary["ideal"]["trials"] == 2

    def test_output_byte_identical(self, tmp_path):
        cfg = parse_config(FAST_FED)
        cmd_run_fedavg(cfg, str(tmp_path / "a"))
        cmd_run_fedavg(cfg, str(tmp_path / "b"))
        assert (tmp_path / "a" / "fedavg_trace.csv").read_bytes() == \
            (tmp_path / "b" / "fedavg_trace.csv").read_bytes()

    def test_matched_seed_contract(self):
        cfg = parse_config(FAST_FED)
        alone = run_single_trial(cfg, 0, "ideal")
        cfg2 = dict(cfg)
        cfg2["fed.aggregators"] = ["ideal", "reed"]
        alongside = run_trial([cfg2], 0)[0]["ideal"]
        assert np.array_equal(alone, alongside)

    def test_trace_header_is_round_trace_fields(self, tmp_path):
        cfg = parse_config(FAST_FED)
        cmd_run_fedavg(cfg, str(tmp_path))
        header = (tmp_path / "fedavg_trace.csv").read_text().splitlines()[0].split(",")
        assert header == ["trial", "round", "aggregator", *TRACE_COLUMNS]

    def test_one_job_starts_no_pool(self, tmp_path, pools, helpers):
        # one trial is one job, which runs in this process
        cfg = parse_config(_with(FAST_FED, {"trials": "1"}))
        cmd_run_fedavg(cfg, str(tmp_path / "serial"), workers=1)
        cmd_run_fedavg(cfg, str(tmp_path / "parallel"), workers=2)
        assert pools == [] and helpers == []
        for name in ("fedavg_trace.csv", "fedavg_summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "parallel" / name).read_bytes()

    def test_quadratic_free_trial_builds_no_data(self, monkeypatch):
        # the quadratic reads no batch: its trial synthesizes no row and
        # draws no partition, and its clients are fed.K empty partitions
        cfg = parse_config(_with(FAST_FED, QUADRATIC_FREE))
        called = []
        for name in ("synth_dataset", "partition"):
            monkeypatch.setattr(config, name, lambda *args, name=name, **kwargs: (
                called.append(name)))
        train, test, parts = experiments.build_experiment_data(cfg, 0)
        assert train is None and test is None
        assert len(parts) == cfg["fed.K"] and all(part.size == 0 for part in parts)
        run_trial([cfg], 0)
        assert called == []

    def test_workers_match_serial(self, tmp_path):
        cfg = parse_config(FAST_FED)
        cmd_run_fedavg(cfg, str(tmp_path / "serial"), workers=1)
        cmd_run_fedavg(cfg, str(tmp_path / "parallel"), workers=2)
        assert (tmp_path / "serial" / "fedavg_trace.csv").read_bytes() == \
            (tmp_path / "parallel" / "fedavg_trace.csv").read_bytes()


class TestOutputs:
    @pytest.mark.parametrize("write, good, bad", [
        (cli._write_csv, (["a", "b"], [["1", "2"]]), (["a", "b"], [["3", "4"], ["5", 6]])),
        (cli._write_json, ({"a": 1},), ({"a": 2, "b": object()},))], ids=["csv", "json"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, write, good, bad):
        # the second write raises partway, on a cell or value it cannot print
        path = tmp_path / "out" / "file"
        write(str(path), *good)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write(str(path), *bad)
        assert path.read_bytes() == before
        assert os.listdir(path.parent) == ["file"]
        write(str(path), *good)
        assert path.read_bytes() == before


class TestSweep:
    def test_single_value_axis_matches_run_fedavg(self, tmp_path):
        cfg = parse_config(_with(FAST_FED, {"fed.aggregators": '["ideal", "reed"]',
                                            "sweep.key": '"phy.chips"',
                                            "sweep.values": "[1]"}))
        cmd_run_fedavg(cfg, str(tmp_path / "run"))
        cmd_sweep(cfg, str(tmp_path / "sweep"))
        run_rows = (tmp_path / "run" / "fedavg_trace.csv").read_text().splitlines()[1:]
        sweep_rows = (tmp_path / "sweep" / "sweep_phy.chips.csv").read_text().splitlines()[1:]
        assert [r.split(",", 1)[1] for r in sweep_rows] == run_rows
        run_summary = json.loads((tmp_path / "run" / "fedavg_summary.json").read_text())
        sweep_summary = json.loads(
            (tmp_path / "sweep" / "sweep_phy.chips_summary.json").read_text())
        assert sweep_summary == {"1": run_summary}

    @pytest.mark.parametrize("key, values", [
        ("data.partition", '["iid", "dirichlet"]'),
        ("fed.model", '["logistic", "mlp"]')])
    def test_each_point_matches_run_fedavg(self, tmp_path, key, values):
        # any key can be swept; only that key changes from point to point
        cfg = parse_config(_with(FAST_FED, {"fed.aggregators": '["ideal", "reed"]',
                                            "sweep.key": f'"{key}"', "sweep.values": values}))
        cmd_sweep(cfg, str(tmp_path / "sweep"))
        header, *rows = (tmp_path / "sweep" / f"sweep_{key}.csv").read_text().splitlines()
        summary = json.loads((tmp_path / "sweep" / f"sweep_{key}_summary.json").read_text())
        assert header == ",".join([key] + cli._FEDAVG_HEADER)
        assert sorted(summary) == sorted(json.loads(values))
        for value in json.loads(values):
            out = tmp_path / value
            cmd_run_fedavg({**cfg, key: value}, str(out))
            assert [r.split(",", 1)[1] for r in rows if r.startswith(value + ",")] == \
                (out / "fedavg_trace.csv").read_text().splitlines()[1:]
            assert summary[value] == json.loads((out / "fedavg_summary.json").read_text())

    def test_one_pool_per_sweep_and_workers_match_serial(self, tmp_path, pools,
                                                         helpers):
        cfg = parse_config(FAST_FED + 'sweep.key = "data.partition"\n'
                           'sweep.values = ["iid", "dirichlet"]\n')
        cmd_sweep(cfg, str(tmp_path / "serial"), workers=1)
        cmd_sweep(cfg, str(tmp_path / "parallel"), workers=2)
        # every (point, trial) run goes through one pool
        assert pools == [2]
        assert helpers == []
        for name in ("sweep_data.partition.csv", "sweep_data.partition_summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "parallel" / name).read_bytes()

    def test_one_pool_per_phy_sweep_and_workers_match_serial(self, tmp_path, pools,
                                                             helpers):
        # the points of a phy.* sweep run as one job per trial, so the pool
        # is never larger than the trial count
        cfg = parse_config(_with(FAST_FED, {"fed.aggregators": '["ideal", "reed"]',
                                            "sweep.key": '"phy.chips"',
                                            "sweep.values": "[1, 2, 4]"}))
        for workers in (1, 2, 3):
            cmd_sweep(cfg, str(tmp_path / str(workers)), workers=workers)
        assert pools == [min(2, cfg["trials"]), min(3, cfg["trials"])]
        assert helpers == []
        for name in ("sweep_phy.chips.csv", "sweep_phy.chips_summary.json"):
            serial = (tmp_path / "1" / name).read_bytes()
            assert (tmp_path / "2" / name).read_bytes() == serial
            assert (tmp_path / "3" / name).read_bytes() == serial

    def test_empty_axis_rejected(self, tmp_path):
        cfg = parse_config(FAST_FED)
        with pytest.raises(ConfigError, match="^sweep.key: required by sweep$"):
            cmd_sweep(cfg, str(tmp_path))

    def test_unknown_axis_rejected(self):
        for key in ("phy.carrier", "sweep.key", "sweep.values"):
            with pytest.raises(ConfigError, match="^sweep.key: expected a config key other"):
                parse_config(f'sweep.key = "{key}"\nsweep.values = [1]')

    def test_snr_axis_monotone_eps(self, tmp_path):
        cfg = parse_config(
            FAST_FED.replace('["ideal"]', '["reed"]')
            + 'sweep.key = "phy.snr_db"\nsweep.values = [-10, 0]\nphy.eta = 50.0\n')
        cmd_sweep(cfg, str(tmp_path))
        rows = (tmp_path / "sweep_phy.snr_db.csv").read_text().splitlines()[1:]
        eps = {}
        for row in rows:
            parts = row.split(",")
            if int(parts[2]) == 2:  # final round
                eps.setdefault(parts[0], []).append(float(parts[7]))
        mean = {k: np.mean(v) for k, v in eps.items()}
        assert mean["0"] < mean["-10"]


# the quadratic on quadratic-free data, which builds none
QUADRATIC_FREE = {"fed.model": '"quadratic"', "data.synth_kind": '"quadratic-free"'}

# a tiny reed run whose energy budget gives an overflowing gain
BUDGETED = {"fed.aggregators": '["reed"]', "fed.clip_G": "1.0", "fed.budget": "1.0"}

# (config overrides, command, key the error must start with); the IDX
# cases read six samples with labels 0, 1, 2, and {test_labels} holds six
# labels 5
BAD_INPUTS = [
    ({"phy.eta": "NaN"}, "run-fedavg", "phy.eta"),
    ({"fed.beta0": "Infinity"}, "run-fedavg", "fed.beta0"),
    ({"data.separation": "NaN"}, "run-fedavg", "data.separation"),
    ({"data.separation": "1e308"}, "run-fedavg", "data.separation"),
    ({"phy.snr_db": "-4000"}, "run-fedavg", "phy.snr_db"),
    ({"phy.kappa": "1" + "0" * 400}, "run-fedavg", "phy.kappa"),
    ({"data.classes": "0"}, "run-fedavg", "data.classes"),
    ({"data.classes": "1"}, "run-fedavg", "data.classes"),
    ({"data.features": "0"}, "run-fedavg", "data.features"),
    ({"data.separation": "-1"}, "run-fedavg", "data.separation"),
    # class means NumPy refuses at once: petabytes, and more entries than an
    # array index holds
    *(({"data.features": "1" + "0" * zeros}, "run-fedavg", "data.classes, data.features")
      for zeros in (15, 19)),
    ({"fed.model": '"mlp"', "fed.hidden": "0"}, "run-fedavg", "fed.hidden"),
    # shapes NumPy refuses at once: the train/test pool, the quadratic's
    # curvatures and the MLP's parameters
    ({"data.synth_n": "1" + "0" * 15}, "run-fedavg", "data.synth_n, data.test_n"),
    ({"fed.model": '"quadratic"', "fed.quad_dim": "1" + "0" * 15}, "run-fedavg", "fed.quad_dim"),
    ({"fed.model": '"mlp"', "fed.hidden": "1" + "0" * 15}, "run-fedavg", "fed.hidden"),
    # and the trace, the stepsizes, a round's batches, the chip weights, the
    # superposition's fading per antenna (the Rayleigh kernel holds no
    # array that grows with the antennas, so its run completes) and the
    # moment draws
    *(({**overrides, "fed.T": "1" + "0" * 15}, "run-fedavg", "fed.T")
      for overrides in ({}, BUDGETED)),
    *(({"fed.model": model, "fed.Q": "1" + "0" * 15}, "run-fedavg", "fed.Q")
      for model in ('"logistic"', '"quadratic"')),
    # at the C5 shape, 10 clients and 64-sample batches: a plan larger than
    # NumPy's largest size, and a Q beyond a C integer's range
    *(({"fed.model": model, "fed.K": "10", "fed.batch_size": "64", "data.synth_n": "1000",
        "fed.Q": "1" + "0" * zeros}, "run-fedavg", "fed.Q")
      for model in ('"logistic"', '"quadratic"') for zeros in (16, 20)),
    # budgeted stepsizes for more rounds than a C integer counts
    ({**BUDGETED, "fed.T": "1" + "0" * 20}, "run-fedavg", "fed.T"),
    ({"phy.chips": "1" + "0" * 15}, "run-fedavg", "phy.chips"),
    ({"fed.aggregators": '["reed"]', "phy.kappa": "3", "phy.antennas": "1" + "0" * 15},
     "run-fedavg", "phy.antennas"),
    ({"moments.n_trials": "1" + "0" * 15}, "validate-moments", "moments.n_trials"),
    # a model's keys are checked whichever model runs
    ({"fed.hidden": "-4"}, "run-fedavg", "fed.hidden"),
    ({"fed.quad_dim": "0"}, "run-fedavg", "fed.quad_dim"),
    ({"fed.quad_curv_max": "0.5"}, "run-fedavg", "fed.quad_curv_min, fed.quad_curv_max"),
    ({"fed.model": '"mlp"', "fed.quad_dim": "0"}, "run-fedavg", "fed.quad_dim"),
    # and the data keys whichever kind of data is built, or none
    *(({**QUADRATIC_FREE, key: value}, "run-fedavg", key) for key, value in (
        ("data.classes", "0"), ("data.features", "0"), ("data.separation", "-1"),
        ("data.separation", "1e308"))),
    # quadratic-free builds no data for a classifier to train on
    *(({"fed.model": model, "data.synth_kind": '"quadratic-free"'}, "run-fedavg",
       "data.synth_kind") for model in ('"logistic"', '"mlp"')),
    ({**QUADRATIC_FREE, "sweep.key": '"fed.model"', "sweep.values": '["quadratic", "logistic"]'},
     "sweep", "sweep.values"),
    # its clients are as many empty partitions, a list Python refuses
    ({**QUADRATIC_FREE, "fed.K": "1" + "0" * 15}, "run-fedavg", "fed.K"),
    ({"data.test_n": "-1"}, "run-fedavg", "data.test_n"),
    *(({**BUDGETED, key: value}, "run-fedavg", "fed.budget") for key, value in (
        ("fed.budget", "1e308"), ("phy.mean_power", "1e308"), ("fed.beta0", "1e308"),
        ("fed.beta0", "1e-320"), ("fed.clip_G", "1e-320"))),
    # under inv_sqrt the smallest stepsize rounds to 0 from round 3 on, and
    # round 0's gain already overflows
    ({**BUDGETED, "fed.model": '"quadratic"', "fed.schedule": '"inv_sqrt"',
      "fed.beta0": "5e-324", "fed.T": "5"}, "run-fedavg", "fed.budget"),
    # an overflowing numerator over an overflowing denominator: a NaN gain
    ({**BUDGETED, "fed.budget": "1e308", "phy.mean_power": "1e308", "fed.clip_G": "1e308",
      "fed.beta0": "1e308"}, "run-fedavg", "fed.budget"),
    ({"data.partition": '"dirichlet"', "sweep.key": '"data.alpha"', "sweep.values": "[-1]"},
     "sweep", "sweep.values"),
    ({"sweep.key": '"phy.chips"', "sweep.values": "[0]"}, "sweep", "sweep.values"),
    ({"sweep.key": '"phy.chips"', "sweep.values": "[1, 0]"}, "sweep", "sweep.values"),
    ({"sweep.key": '"phy.chips"', "sweep.values": "[1.5]"}, "sweep", "sweep.values"),
    ({"sweep.key": '"fed.beta0"', "sweep.values": "[0]"}, "sweep", "sweep.values"),
    ({"sweep.key": '"phy.bandwidth"', "sweep.values": "[1]"}, "sweep", "sweep.key"),
    ({"sweep.key": '"sweep.values"', "sweep.values": "[1]"}, "sweep", "sweep.key"),
    ({"sweep.values": "[1]"}, "sweep", "sweep.key"),
    ({}, "sweep", "sweep.key"),
    # a CSV cell holds a swept value unquoted
    *(({"sweep.key": '"output.dir"', "sweep.values": f'["a{c}b"]'}, "sweep", "sweep.values")
      for c in (",", '\\"', "\\n")),
    # a ddof = 1 variance needs two trials
    ({"moments.n_trials": "1"}, "run-fedavg", "moments.n_trials"),
    # a repeated value would rerun its trials and share one summary key
    ({"fed.aggregators": '["ideal", "ideal"]'}, "run-fedavg", "fed.aggregators"),
    ({"fed.aggregators": '["ideal", "bogus"]'}, "run-fedavg", "fed.aggregators"),
    # a name the registry cannot even look up, being unhashable
    ({"fed.aggregators": '[["reed"]]'}, "run-fedavg", "fed.aggregators"),
    ({"sweep.key": '"phy.chips"', "sweep.values": "[1, 1]"}, "sweep", "sweep.values"),
    ({"sweep.key": '"phy.snr_db"', "sweep.values": "[1, 1.0]"}, "sweep", "sweep.values"),
    # one key per quantity, set or swept: snr_db sets the noise variance
    ({"phy.snr_db": "0", "phy.noise_var": "1.0"}, "run-fedavg", "phy.noise_var"),
    ({"phy.noise_var": "1.0", "sweep.key": '"phy.snr_db"', "sweep.values": "[0]"},
     "sweep", "phy.noise_var"),
    ({"phy.snr_db": "0", "sweep.key": '"phy.noise_var"', "sweep.values": "[1.0]"},
     "sweep", "phy.noise_var"),
    # a key that no FedAvg point reads would make every point the same run
    ({"sweep.key": '"workers"', "sweep.values": "[1, 2]"}, "sweep", "sweep.key"),
    ({"sweep.key": '"output.dir"', "sweep.values": '["a", "b"]'}, "sweep", "sweep.key"),
    ({"sweep.key": '"moments.n_trials"', "sweep.values": "[2, 3]"}, "sweep", "sweep.key"),
    ({"sweep.key": '"moments.tolerance"', "sweep.values": "[0.1, 0.2]"},
     "sweep", "sweep.key"),
    # IID clients read no alpha, but a bad one is still an error
    ({"data.alpha": "-3"}, "run-fedavg", "data.alpha"),
    ({"sweep.key": '"data.alpha"', "sweep.values": "[0.3, -3]"}, "sweep", "sweep.values"),
    ({"data.source": '"idx"', "data.idx_test_images": '"{images}"'},
     "run-fedavg", "data.idx_test_labels"),
    ({"data.source": '"idx"', "data.idx_test_labels": '"{labels}"'},
     "run-fedavg", "data.idx_test_images"),
    ({"data.source": '"idx"', "fed.K": "7"}, "run-fedavg", "fed.K"),
    # IDX data reads no synthetic key, but a bad one is still an error
    ({"data.source": '"idx"', "data.features": "-3"}, "run-fedavg", "data.features"),
    ({"data.source": '"idx"', "data.separation": "-2"}, "run-fedavg", "data.separation"),
    # (1e308 spelled apart from the synthetic case's, for a test id of its own)
    ({"data.source": '"idx"', "data.separation": "1.0e308"}, "run-fedavg", "data.separation"),
    ({"data.source": '"idx"', "data.synth_n": "-1"}, "run-fedavg", "data.synth_n"),
    ({"data.source": '"idx"', "data.classes": "2"}, "run-fedavg", "data.classes"),
    ({"data.source": '"idx"', "data.idx_test_images": '"{images}"',
      "data.idx_test_labels": '"{test_labels}"'}, "run-fedavg", "data.classes"),
    # the images key names the labels file, and the labels key the images file
    ({"data.source": '"idx"', "data.idx_images": '"{labels}"', "data.idx_labels": '"{images}"'},
     "run-fedavg", "data.idx_images, data.idx_labels"),
]

# sizes NumPy does not refuse at once, each with the key its error must name:
# the quadratic's, the logistic model's and the MLP's (A·K, dim) local
# copies, the job list of too many trials, a step's hidden activations, the
# full-train logits and a one-client reed round's model-sized temporaries,
# each more than a process limited to 512 MiB of address space can hold
OVERSIZED = [
    ({"fed.model": '"quadratic"', "fed.quad_dim": "10000000"}, "fed.quad_dim"),
    ({"data.classes": "2000000"}, "data.classes, data.features"),
    ({"fed.model": '"mlp"', "fed.hidden": "1000000"}, "fed.hidden"),
    ({"trials": "1" + "0" * 20}, "trials"),
    ({"fed.model": '"mlp"', "fed.hidden": "200000"}, "fed.hidden"),
    ({"data.classes": "100000", "data.synth_n": "6000"}, "data.classes"),
    ({"fed.model": '"quadratic"', "fed.K": "1", "fed.aggregators": '["reed"]',
      "fed.quad_dim": "4000000"}, "fed.quad_dim"),
]

# reedsim.cli.main on each config path after the first argument, under a
# 512 MiB address space; prints each run's exit status and stderr, or the
# exception that escaped it
_UNDER_LIMIT = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from reedsim.cli import main
runs = []
for path in sys.argv[2:]:
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            runs.append((main(["run-fedavg", path, "--out", sys.argv[1]]), err.getvalue()))
    except Exception as exc:
        runs.append((None, repr(exc)))
print(json.dumps(runs))
"""


class TestMain:
    @pytest.mark.parametrize("overrides, command, key", BAD_INPUTS, ids=[
        ",".join(f"{k}={v[:24]}" for k, v in o.items()
                 if k not in ("data.source", "data.partition")) or command
        for o, command, _ in BAD_INPUTS])
    def test_bad_input_names_its_key(self, tmp_path, capsys, overrides, command, key):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        test_labels = tmp_path / "test_labels.idx"
        images.write_bytes(write_idx(np.linspace(0.0, 1.0, 24).reshape(6, 4)))
        labels.write_bytes(write_idx(np.array([0, 1, 2, 0, 1, 2])))
        test_labels.write_bytes(write_idx(np.full(6, 5)))
        overrides = {"data.idx_images": f'"{images}"', "data.idx_labels": f'"{labels}"',
                     **{k: v.format(images=images, labels=labels, test_labels=test_labels)
                        for k, v in overrides.items()}}
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(_with(FAST_FED, overrides))
        out = tmp_path / "o"
        # record every warning the run would print to stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = main([command, str(cfgfile), "--out", str(out)])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith(f"error: {key}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not out.exists()  # nothing ran

    @pytest.mark.parametrize("overrides", [
        {"data.alpha": "-3"}, {"data.alpha": "NaN"}, {"data.alpha": "Infinity"},
        *({"sweep.key": '"data.alpha"', "sweep.values": values}
          for values in ("[-3]", "[0.3, -1e-9]", "[NaN]", "[-Infinity]", "[1e400]"))])
    @pytest.mark.parametrize("command", ["run-fedavg", "sweep"])
    def test_bad_iid_alpha_names_data_alpha(self, tmp_path, capsys, overrides, command):
        cfgfile = tmp_path / "iid.cfg"
        cfgfile.write_text(_with(TINY, overrides))
        assert main([command, str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "data.alpha: " in err, err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_oversized_arrays_name_their_key(self, tmp_path):
        # one interpreter for every case; the limit binds it alone
        pytest.importorskip("resource")
        paths = []
        for i, (overrides, _) in enumerate(OVERSIZED):
            paths.append(tmp_path / f"{i}.cfg")
            paths[-1].write_text(_with(FAST_FED, {"fed.K": "10", **overrides}))
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _UNDER_LIMIT, str(tmp_path / "o"), *paths],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        runs = json.loads(done.stdout)
        for (status, err), (_, key) in zip(runs, OVERSIZED):
            assert status == 2 and err.startswith(f"error: {key}: too large: "), err
            assert len(err.splitlines()) == 1
        assert len(runs) == len(OVERSIZED) and not (tmp_path / "o").exists()

    def test_every_size_guard_names_a_config_key(self):
        # a size error reaches the user as its config key only through
        # _FIELD_KEYS; a field missing there would surface as a traceback
        src = pathlib.Path(config.__file__).parent
        text = "".join(path.read_text() for path in sorted(src.glob("*.py")))
        guarded = re.findall(r"_allocating\(([^)]*)\)", text)
        literal = [arg[1:-1] for arg in guarded if re.fullmatch(r'"\w+"', arg)]
        # besides the definition, the guards whose field is not spelled out
        # are a run's, the field of its model, and a classifier's passes,
        # the field of its widest layer
        assert sorted(set(guarded) - {f'"{name}"' for name in literal}) == [
            "field", "name: str", "objective.dim_field"]
        data = LabeledDataset(np.zeros((0, 2)), np.zeros(0))
        widest = [MlpObjective(data, hidden, 3)._widest()[1] for hidden in (1, 9)]
        fields = (literal + re.findall(r'ValueError\(f"(\w+) too large', text)
                  + [cls.dim_field for cls in (QuadraticObjective, LogisticObjective,
                                               MlpObjective)]
                  + [LogisticObjective(data, 3)._widest()[1], *widest])
        assert "hidden" in widest and "n_classes" in widest
        assert "antennas" in fields and "trials" in fields
        assert [name for name in fields if name not in config._FIELD_KEYS] == []

    def test_rayleigh_run_at_any_antennas_completes(self, tmp_path):
        # at kappa = 2 a branch's energy over M chips and R antennas is one
        # Gamma(M R) value per coordinate, so 10**15 antennas allocate
        # nothing that grows with R
        cfgfile = tmp_path / "antennas.cfg"
        cfgfile.write_text(_with(FAST_FED, {"fed.aggregators": '["reed"]',
                                            "phy.antennas": "1" + "0" * 15}))
        assert main(["run-fedavg", str(cfgfile), "--out", str(tmp_path / "o")]) == 0
        header, *rows = (tmp_path / "o" / "fedavg_trace.csv").read_text().splitlines()
        eps = [float(row.split(",")[header.split(",").index("eps_norm_sq")]) for row in rows]
        assert len(eps) == 2 * 3 and np.isfinite(eps).all()

    def test_cli_error_reporting(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("phy.warp = 9\n")
        status = main(["run-fedavg", str(bad)])
        assert status == 2
        assert "phy.warp" in capsys.readouterr().err

    @pytest.mark.parametrize("config_seed, flag", [(-1, []), (3, ["--seed", "-1"])])
    def test_negative_seed_rejected(self, tmp_path, capsys, config_seed, flag):
        cfgfile = tmp_path / "neg.cfg"
        cfgfile.write_text(f"seed = {config_seed}\nmoments.n_trials = 10\n")
        status = main(["validate-moments", str(cfgfile), "--out", str(tmp_path / "o"), *flag])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: seed: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("config_workers, flag", [
        (0, []), (-1, []), (2, ["--workers", "0"]), (2, ["--workers", "-1"])])
    def test_nonpositive_workers_rejected(self, tmp_path, capsys, config_workers, flag):
        cfgfile = tmp_path / "workers.cfg"
        cfgfile.write_text(f"workers = {config_workers}\nmoments.n_trials = 10\n")
        status = main(["validate-moments", str(cfgfile), "--out", str(tmp_path / "o"), *flag])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: workers: must be >= 1")
        assert "Traceback" not in err

    def test_config_workers_used_and_byte_identical(self, tmp_path, pools, helpers):
        outputs = []
        for workers, flag in ((1, []), (2, []), (2, ["--workers", "1"])):
            cfgfile = tmp_path / "workers.cfg"
            cfgfile.write_text(FAST_FED + f"workers = {workers}\n")
            out = tmp_path / f"o{len(outputs)}"
            assert main(["run-fedavg", str(cfgfile), "--out", str(out), *flag]) == 0
            outputs.append((out / "fedavg_trace.csv").read_bytes())
        # only the config's workers = 2 starts a pool; --workers overrides it
        assert pools == [2]
        assert helpers == []
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("overrides, what", [
        # the model stays finite, but the aggregation error overflows
        ({"fed.beta0": "1e300"}, "eps_norm_sq"),
        # the energies overflow and their difference is NaN
        ({"phy.noise_var": "1e308"}, "model")], ids=["beta0", "noise_var"])
    def test_divergence_is_one_error_line(self, tmp_path, capsys, overrides, what):
        cfgfile = tmp_path / "diverge.cfg"
        cfgfile.write_text(_with(FAST_FED, {"fed.aggregators": '["reed"]', **overrides}))
        out = tmp_path / "o"
        # record every warning the run would print to stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = main(["run-fedavg", str(cfgfile), "--out", str(out)])
        err = capsys.readouterr().err
        assert status == 1
        assert err.splitlines() == [f"error: aggregator 'reed': non-finite {what} after round 0"]
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not out.exists()

    def test_overflowing_audit_denominator_is_silent(self, tmp_path, capsys):
        # K mu^2 d overflows to inf, which makes every audit 0; without a
        # budget the run is sound and prints nothing to stderr
        cfgfile = tmp_path / "loud.cfg"
        cfgfile.write_text(_with(FAST_FED, {"fed.aggregators": '["reed"]',
                                            "phy.mean_power": "1e308"}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = main(["run-fedavg", str(cfgfile), "--out", str(tmp_path / "o")])
        assert status == 0
        assert capsys.readouterr().err == ""
        assert caught == []
        rows = (tmp_path / "o" / "fedavg_trace.csv").read_text().splitlines()[1:]
        assert {row.rsplit(",", 1)[1] for row in rows} == {"0"}

    def test_idx_parsed_once_per_run(self, tmp_path, monkeypatch):
        # the data does not depend on the trial: five trials parse it once
        # and share it read-only; a changed file is parsed again
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        parsed = []
        load = experiments.load_idx_dataset
        monkeypatch.setattr(experiments, "load_idx_dataset",
                            lambda *paths: parsed.append(paths) or load(*paths))
        cfg = parse_config(_with(FAST_FED, {
            "trials": "5", "data.source": '"idx"', "data.idx_images": f'"{images}"',
            "data.idx_labels": f'"{labels}"'}))
        for n in (6, 9):
            images.write_bytes(write_idx(np.linspace(0.0, 1.0, 4 * n).reshape(n, 4)))
            labels.write_bytes(write_idx(np.arange(n) % 3))
            assert cmd_run_fedavg(cfg, str(tmp_path / f"o{n}")) == 0
            assert parsed == [(str(images), str(labels))] * (1 + (n == 9))
        train = experiments.build_experiment_data(cfg, 0)[0]
        assert len(train) == 9
        assert not train.features.flags.writeable and not train.labels.flags.writeable

    def test_idx_binds_no_synthetic_relation(self, tmp_path):
        # six samples over three clients: the synthetic size below fed.K,
        # and a synthetic kind that no classifier trains on, are never read
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(write_idx(np.linspace(0.0, 1.0, 24).reshape(6, 4)))
        labels.write_bytes(write_idx(np.array([0, 1, 2, 0, 1, 2])))
        cfgfile = tmp_path / "idx.cfg"
        cfgfile.write_text(_with(FAST_FED, {
            "data.source": '"idx"', "data.idx_images": f'"{images}"',
            "data.idx_labels": f'"{labels}"', "data.synth_n": "2",
            "data.synth_kind": '"quadratic-free"'}))
        assert main(["run-fedavg", str(cfgfile), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("data", [
        {"data.synth_n": "2"},
        {"data.source": '"idx"', "data.idx_images": '"{absent}/images.idx"',
         "data.idx_labels": '"{absent}/labels.idx"'}], ids=["blobs-below-K", "absent-idx"])
    def test_quadratic_trial_builds_no_data(self, tmp_path, monkeypatch, data):
        # whatever its data keys say, a quadratic trial draws, partitions and
        # opens nothing, and writes the bytes of its quadratic-free form
        configs = [parse_config(_with(FAST_FED, overrides)) for overrides in (
            QUADRATIC_FREE, {"fed.model": '"quadratic"', **{
                k: v.format(absent=tmp_path / "absent") for k, v in data.items()}})]
        called = []
        for module, name in ((config, "synth_dataset"), (config, "partition"),
                             (experiments, "load_idx_dataset"), (experiments, "_idx_dataset")):
            monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: (
                called.append(name)))
        for i, cfg in enumerate(configs):
            assert cmd_run_fedavg(cfg, str(tmp_path / str(i))) == 0
        assert called == []
        assert (tmp_path / "1" / "fedavg_trace.csv").read_bytes() == \
            (tmp_path / "0" / "fedavg_trace.csv").read_bytes()

    @pytest.mark.parametrize("name, content, key", [
        ("images", None, "data.idx_images"),
        ("labels", b"\x00", "data.idx_labels"),
        ("test_images", None, "data.idx_test_images"),
        ("test_labels", b"\x00\x00\x08\x01\x00\x00\x00\x02", "data.idx_test_labels")],
        ids=["missing-images", "truncated-labels", "missing-test-images",
             "truncated-test-labels"])
    def test_idx_read_error_names_its_key(self, tmp_path, capsys, name, content, key):
        # a file that cannot be read or parsed is reported under its key,
        # with its path (test_idx_count_mismatch_rejected has the pair's case)
        paths = {part: tmp_path / f"{part}.idx"
                 for part in ("images", "labels", "test_images", "test_labels")}
        for which in ("", "test_"):
            paths[f"{which}images"].write_bytes(write_idx(np.zeros((6, 4))))
            paths[f"{which}labels"].write_bytes(write_idx(np.arange(6) % 3))
        if content is None:
            paths[name].unlink()
        else:
            paths[name].write_bytes(content)
        cfgfile = tmp_path / "idx.cfg"
        cfgfile.write_text(_with(FAST_FED, {"data.source": '"idx"', **{
            f"data.idx_{part}": f'"{path}"' for part, path in paths.items()}}))
        assert main(["run-fedavg", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and len(err.splitlines()) == 1
        assert str(paths[name]) in err
        assert not (tmp_path / "o").exists()

    def test_quadratic_free_binds_no_synthetic_size(self, tmp_path):
        # no rows are built, so five clients over a synthetic size of two
        # are sound
        cfgfile = tmp_path / "quadratic.cfg"
        cfgfile.write_text(_with(FAST_FED, {**QUADRATIC_FREE, "fed.K": "5",
                                            "data.synth_n": "2"}))
        assert main(["run-fedavg", str(cfgfile), "--out", str(tmp_path / "o")]) == 0

    def test_empty_idx_test_set_is_none(self, tmp_path, capsys):
        # a test set with no rows is no test set: test_acc reads 0, and the
        # summary is strict JSON, with no NaN from a mean over no rows
        paths = {name: tmp_path / f"{name}.idx"
                 for name in ("images", "labels", "test_images", "test_labels")}
        paths["images"].write_bytes(write_idx(np.linspace(0.0, 1.0, 24).reshape(6, 4)))
        paths["labels"].write_bytes(write_idx(np.array([0, 1, 2, 0, 1, 2])))
        paths["test_images"].write_bytes(write_idx(np.zeros((0, 4))))
        paths["test_labels"].write_bytes(write_idx(np.zeros(0, dtype=int)))
        cfgfile = tmp_path / "idx.cfg"
        cfgfile.write_text(_with(FAST_FED, {"data.source": '"idx"', **{
            f"data.idx_{name}": f'"{path}"' for name, path in paths.items()}}))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run-fedavg", str(cfgfile), "--out", str(out)]) == 0
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err == ""
        header, *rows = (out / "fedavg_trace.csv").read_text().splitlines()
        acc = header.split(",").index("test_acc")
        assert rows and {row.split(",")[acc] for row in rows} == {"0"}

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")
        json.loads((out / "fedavg_summary.json").read_text(), parse_constant=reject)

    def test_malformed_idx_file_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        cfgfile = tmp_path / "idx.cfg"
        cfgfile.write_text(FAST_FED + f'data.source = "idx"\n'
                           f'data.idx_images = "{bad}"\ndata.idx_labels = "{bad}"\n')
        for payload, what in (
                (b"\x12\x34\x56\x78\x00\x00", "bad IDX magic"),
                # a labels magic, then no count
                (struct.pack(">I", 0x801), "truncated IDX header: expected 8 bytes, got 4"),
                # 4 * 2**31 * 2**31 bytes wrap to 0 in a 64-bit product
                (struct.pack(">IIII", 0x803, 4, 2**31, 2**31), "IDX payload length mismatch")):
            bad.write_bytes(payload)
            status = main(["run-fedavg", str(cfgfile), "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert status == 2
            assert err.startswith("error: ") and what in err and str(bad) in err
            assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("pair", ["train", "test"])
    def test_idx_count_mismatch_rejected(self, tmp_path, capsys, pair):
        # six images, five labels: one line naming both keys, both files and
        # both counts
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        short = tmp_path / "short_labels.idx"
        images.write_bytes(write_idx(np.linspace(0.0, 1.0, 24).reshape(6, 4)))
        labels.write_bytes(write_idx(np.array([0, 1, 2, 0, 1, 2])))
        short.write_bytes(write_idx(np.array([0, 1, 2, 0, 1])))
        train_labels, test_labels = (short, labels) if pair == "train" else (labels, short)
        cfgfile = tmp_path / "idx.cfg"
        cfgfile.write_text(_with(FAST_FED, {
            "data.source": '"idx"', "data.idx_images": f'"{images}"',
            "data.idx_labels": f'"{train_labels}"', "data.idx_test_images": f'"{images}"',
            "data.idx_test_labels": f'"{test_labels}"'}))
        status = main(["run-fedavg", str(cfgfile), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert status == 2
        keys = "data.idx_{0}images, data.idx_{0}labels".format("" if pair == "train" else "test_")
        assert err == f"error: {keys}: {images} holds 6 images but {short} holds 5 labels\n"

    def test_cli_end_to_end(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(FAST_FED)
        status = main(["run-fedavg", str(cfgfile), "--out", str(tmp_path / "o"),
                       "--seed", "5"])
        assert status == 0
        assert (tmp_path / "o" / "fedavg_trace.csv").exists()
