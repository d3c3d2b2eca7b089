import json
import os
import pathlib

import numpy as np
import pytest

from reedsim import cli
from reedsim.cli import cmd_run_fedavg, cmd_sweep, cmd_validate_moments, main
from reedsim.config import SCHEMA, ConfigError, load_config, parse_config, resolve_noise_var
from reedsim.datasets import write_idx
from reedsim.estimator import ReedPhyConfig, ScalarInputs
from reedsim.experiments import (MomentPoint, default_moment_matrix,
                                 run_single_trial, validate_point)

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
        with pytest.raises(ConfigError, match="fed.K"):
            parse_config("fed.K = [1,")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("fed.K = 1\nfed.K = 2")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nfed.K = 5  # trailing\n")
        assert cfg["fed.K"] == 5

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
        cfg = parse_config("phy.snr_db = 0\nphy.snr_ref_power = 2.0")
        assert resolve_noise_var(cfg) == pytest.approx(2.0)

    def test_mutated_configs_never_crash_unvalidated(self, tmp_path, capsys):
        # every key set to every garbage value, as a tiny end-to-end CLI
        # run: it succeeds, or stops with status 2 and an "error:" line,
        # never with a traceback
        axis_of = {key: axis for axis, key in cli._SWEEP_AXES.items()}
        cfgfile = tmp_path / "mutated.cfg"
        for key in sorted(SCHEMA):
            if key.startswith("moments."):
                command = ["validate-moments"]
            elif key in axis_of:
                command = ["sweep", "--axis", axis_of[key]]
            else:
                command = ["run-fedavg"]
            for garbage in ['"x"', "[]", "-3", "1.5", "{}", "null", "true",
                            "0", "[0]", "[-3]", "[1.5]"]:
                cfgfile.write_text(_with(TINY, {key: garbage}))
                status = main([command[0], str(cfgfile), "--out", str(tmp_path / "o"),
                               *command[1:]])
                err = capsys.readouterr().err
                assert status in (0, 2), (key, garbage)
                assert "Traceback" not in err
                assert status == 0 or err.startswith("error: "), (key, garbage)

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
    def test_script_configs_validate(self, path):
        cfg = load_config(str(path))
        for axis, key in cli._SWEEP_AXES.items():
            for value in cfg[key] or []:
                cli._apply_axis(cfg, axis, value)


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

    def test_negative_control_flagged(self):
        point = MomentPoint(
            point_id="wrong_eta",
            inputs=ScalarInputs([2.0, -1.0]),
            cfg=ReedPhyConfig(eta=1.0, noise_var=1.0),
            cf_cfg=ReedPhyConfig(eta=3.0, noise_var=1.0))
        result = validate_point(point, 100_000, 0.015, seed=0)
        assert not result.passed

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
        alongside = run_single_trial(cfg2, 0, "ideal")
        assert alone == alongside

    def test_workers_match_serial(self, tmp_path):
        cfg = parse_config(FAST_FED)
        cmd_run_fedavg(cfg, str(tmp_path / "serial"), workers=1)
        cmd_run_fedavg(cfg, str(tmp_path / "parallel"), workers=2)
        assert (tmp_path / "serial" / "fedavg_trace.csv").read_bytes() == \
            (tmp_path / "parallel" / "fedavg_trace.csv").read_bytes()


class TestSweep:
    def test_single_value_axis_matches_run_fedavg(self, tmp_path):
        cfg = parse_config(FAST_FED + 'sweep.M_values = [1]\n')
        cmd_run_fedavg(cfg, str(tmp_path / "run"))
        cmd_sweep(cfg, str(tmp_path / "sweep"), "M")
        run_rows = (tmp_path / "run" / "fedavg_trace.csv").read_text().splitlines()[1:]
        sweep_rows = (tmp_path / "sweep" / "sweep_M.csv").read_text().splitlines()[1:]
        assert [r.split(",", 1)[1] for r in sweep_rows] == run_rows

    def test_empty_axis_rejected(self, tmp_path):
        cfg = parse_config(FAST_FED)
        with pytest.raises(ConfigError):
            cmd_sweep(cfg, str(tmp_path), "snr_db")

    def test_unknown_axis_rejected(self, tmp_path):
        cfg = parse_config(FAST_FED)
        with pytest.raises(ConfigError):
            cmd_sweep(cfg, str(tmp_path), "carrier")

    def test_snr_axis_monotone_eps(self, tmp_path):
        cfg = parse_config(
            FAST_FED.replace('["ideal"]', '["reed"]')
            + "sweep.snr_db_values = [-10, 0]\nphy.eta = 50.0\n")
        cmd_sweep(cfg, str(tmp_path), "snr_db")
        rows = (tmp_path / "sweep_snr_db.csv").read_text().splitlines()[1:]
        eps = {}
        for row in rows:
            parts = row.split(",")
            if int(parts[2]) == 2:  # final round
                eps.setdefault(parts[0], []).append(float(parts[7]))
        mean = {k: np.mean(v) for k, v in eps.items()}
        assert mean["0"] < mean["-10"]


# (config overrides, sweep axis or None, key the error must start with);
# the IDX cases read six samples with labels 0, 1, 2
BAD_INPUTS = [
    ({"data.classes": "0"}, None, "data.classes"),
    ({"data.classes": "1"}, None, "data.classes"),
    ({"data.features": "0"}, None, "data.features"),
    ({"data.separation": "-1"}, None, "data.separation"),
    ({"fed.model": '"mlp"', "fed.hidden": "0"}, None, "fed.hidden"),
    ({"phy.chip_weight": "-1"}, None, "phy.chip_weight"),
    ({"data.test_n": "-1"}, None, "data.test_n"),
    ({"sweep.alpha_values": "[-1]"}, "alpha", "sweep.alpha_values"),
    ({"sweep.M_values": "[0]"}, "M", "sweep.M_values"),
    ({"sweep.M_values": "[1, 0]"}, "M", "sweep.M_values"),
    ({"sweep.M_values": "[1.5]"}, "M", "sweep.M_values"),
    ({"sweep.beta0_values": "[0]"}, "beta0", "sweep.beta0_values"),
    ({"data.source": '"idx"', "data.idx_test_images": '"{images}"'},
     None, "data.idx_test_labels"),
    ({"data.source": '"idx"', "data.idx_test_labels": '"{labels}"'},
     None, "data.idx_test_images"),
    ({"data.source": '"idx"', "fed.K": "7"}, None, "fed.K"),
    ({"data.source": '"idx"', "data.classes": "2"}, None, "data.classes"),
]


class TestMain:
    @pytest.mark.parametrize("overrides, axis, key", BAD_INPUTS, ids=[
        ",".join(f"{k}={v}" for k, v in o.items() if k != "data.source")
        for o, _, _ in BAD_INPUTS])
    def test_bad_input_names_its_key(self, tmp_path, capsys, overrides, axis, key):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(write_idx(np.linspace(0.0, 1.0, 24).reshape(6, 4)))
        labels.write_bytes(write_idx(np.array([0, 1, 2, 0, 1, 2])))
        overrides = {"data.idx_images": f'"{images}"', "data.idx_labels": f'"{labels}"',
                     **{k: v.format(images=images, labels=labels)
                        for k, v in overrides.items()}}
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(_with(FAST_FED, overrides))
        out = tmp_path / "o"
        command = ["run-fedavg"] if axis is None else ["sweep", "--axis", axis]
        status = main([command[0], str(cfgfile), "--out", str(out), *command[1:]])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith(f"error: {key}: ")
        assert "Traceback" not in err
        assert not out.exists()  # nothing ran

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

    def test_config_workers_used_and_byte_identical(self, tmp_path, monkeypatch):
        pools = []

        class RecordingPool(cli.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        outputs = []
        for workers, flag in ((1, []), (2, []), (2, ["--workers", "1"])):
            cfgfile = tmp_path / "workers.cfg"
            cfgfile.write_text(FAST_FED + f"workers = {workers}\n")
            out = tmp_path / f"o{len(outputs)}"
            assert main(["run-fedavg", str(cfgfile), "--out", str(out), *flag]) == 0
            outputs.append((out / "fedavg_trace.csv").read_bytes())
        # only the config's workers = 2 starts a pool; --workers overrides it
        assert pools == [2]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_malformed_idx_file_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x12\x34\x56\x78\x00\x00")
        cfgfile = tmp_path / "idx.cfg"
        cfgfile.write_text(FAST_FED + f'data.source = "idx"\n'
                           f'data.idx_images = "{bad}"\ndata.idx_labels = "{bad}"\n')
        status = main(["run-fedavg", str(cfgfile), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: ") and "bad IDX magic" in err and str(bad) in err
        assert "Traceback" not in err

    def test_cli_end_to_end(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(FAST_FED)
        status = main(["run-fedavg", str(cfgfile), "--out", str(tmp_path / "o"),
                       "--seed", "5"])
        assert status == 0
        assert (tmp_path / "o" / "fedavg_trace.csv").exists()
