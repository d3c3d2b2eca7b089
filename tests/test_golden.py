"""Golden outputs: the exact bytes of seven tiny run-fedavg runs, two tiny
sweeps and one small validate-moments run, the last at every usable-core
count and ``--workers`` value.

Every draw of a run comes from a fixed stream layout, so any change to how
stream keys are derived or consumed changes these hashes.  A change that
alters the layout on purpose updates them, and says so.  These are the
digests of stream layout 6 (SFC64 streams, each built once per run and
read round after round; under Rayleigh fading one Gamma draw per branch
of the chips of one weight, over all antennas).  Layout 6 moved only the
digests of runs whose ``reed`` arms sum more than one energy per branch,
several chips or antennas: ``budget-quadratic-reed-inv-sqrt``,
``dirichlet-logistic-reed-M2``, ``logistic-three-aggregators-2-trials``,
``mlp-ideal-reed``, ``CHIPS_SWEEP_GOLDEN`` and ``MOMENTS_GOLDEN``.  The
others, one chip and one antenna or no ``reed`` arm, kept their layout 5
bytes.

A change to a classifier's arithmetic can move these hashes too, with the
layout unchanged.  ``SWEEP_GOLDEN``'s summary moved in the last digits of
one standard deviation when the classifiers began to read each bias as the
weight of a constant feature, so that the logits and gradients sum in
another order; the other hashes did not move.  The two MLP runs, one with
a full-train diagnostic gradient and one on proxy rows, were pinned
before a local step's logits became class-major, (C, K·B) per model, and
kept their bytes through that change.
"""

import hashlib

import pytest

from reedsim import cli
from reedsim.cli import cmd_run_fedavg, cmd_sweep, cmd_validate_moments
from reedsim.config import parse_config

_COMMON = """
trials = 1
seed = 11
fed.K = 4
fed.Q = 2
fed.T = 6
fed.batch_size = 8
"""

_BUDGET_QUADRATIC = _COMMON + """
fed.beta0 = 0.05
fed.clip_G = 1.0
fed.budget = 1.0
fed.model = "quadratic"
fed.quad_dim = 6
fed.quad_curv_min = 0.5
fed.quad_curv_max = 2.0
fed.aggregators = ["reed"]
data.synth_kind = "quadratic-free"
data.synth_n = 40
data.test_n = 0
phy.noise_var = 1.0
"""

CONFIGS = {
    "budget-quadratic-reed": _BUDGET_QUADRATIC,
    # the gain changes every round with the inv_sqrt stepsize, across three
    # chips, two antennas and a mean power other than 1
    "budget-quadratic-reed-inv-sqrt": _BUDGET_QUADRATIC + """
fed.schedule = "inv_sqrt"
phy.chips = 3
phy.antennas = 2
phy.mean_power = 0.7
""",
    "dirichlet-logistic-reed-M2": _COMMON + """
fed.beta0 = 0.1
fed.aggregators = ["reed"]
data.synth_n = 120
data.test_n = 40
data.classes = 3
data.features = 4
data.partition = "dirichlet"
data.alpha = 0.5
phy.chips = 2
phy.noise_var = 0.5
""",
    "logistic-coherent-csit": _COMMON + """
fed.beta0 = 0.1
fed.aggregators = ["coherent_csit"]
data.synth_n = 120
data.test_n = 40
data.classes = 3
data.features = 4
phy.noise_var = 0.5
""",
    # every aggregator over two trials: pins the row order (aggregator,
    # then trial, then round) whatever the job map runs together
    "logistic-three-aggregators-2-trials": _COMMON.replace("trials = 1", "trials = 2") + """
fed.beta0 = 0.1
fed.aggregators = ["ideal", "reed", "coherent_csit"]
data.synth_n = 120
data.test_n = 40
data.classes = 3
data.features = 4
phy.chips = 2
phy.noise_var = 0.5
""",
    # the MLP's full-train diagnostic gradient, at most proxy_samples rows
    "mlp-ideal-reed": _COMMON + """
fed.beta0 = 0.1
fed.model = "mlp"
fed.hidden = 5
fed.aggregators = ["ideal", "reed"]
data.synth_n = 120
data.test_n = 40
data.classes = 3
data.features = 4
phy.chips = 2
phy.noise_var = 0.5
""",
    # above proxy_samples, the diagnostic gradient is taken on proxy rows
    "mlp-proxy-reed-coherent-csit": _COMMON + """
fed.beta0 = 0.1
fed.model = "mlp"
fed.hidden = 5
fed.aggregators = ["reed", "coherent_csit"]
data.synth_n = 600
data.test_n = 40
data.classes = 3
data.features = 4
data.partition = "dirichlet"
data.alpha = 0.5
phy.noise_var = 0.5
""",
}

# sha256 of fedavg_trace.csv and fedavg_summary.json
GOLDEN = {
    "budget-quadratic-reed": (
        "981ad3a66264619bac056522aa6613cf23545fb66ea55ceecd447da563da68a7",
        "007bf47c662bf8c1d38950db2ae1e69f643471e6bda4ed9b4799b1fddf69914f"),
    "budget-quadratic-reed-inv-sqrt": (
        "f264fcadb46176184df5b70055661e3f679442ef0564046b534759eda8248972",
        "e6435f2f23440a8ae4587e1355906eb64287a15f943a7ed8ab9face8be7d0c2f"),
    "dirichlet-logistic-reed-M2": (
        "049060fbb9fa76c344847d57315e3871963ec0b44bfc5d133df8a3ae6f3452b7",
        "ba602a9873cd0dcbb5a82e264e833b92ee624920e48d32df3c98e611b97fd14d"),
    "logistic-coherent-csit": (
        "c4416f473701e999656c0153304a5aaa1a7aecf9aa57802b694db6e703ef2adf",
        "356049def3e18a7018ce03ae728712c252b9ad6be9205b2f95d2f3dec81a4fcf"),
    "logistic-three-aggregators-2-trials": (
        "de2c96e20e3d6a1d1a09d6e525a1bf2499c4128ed7f1d052905e20dcf8b77041",
        "9d9e8990588ce7bb13f403d26f98fdaa580721856cc9d78345780545d1457d55"),
    "mlp-ideal-reed": (
        "70b2d49fba70c84df74b1eb598a4fb52fd44f459bfe4bbbe34c13e02a1f06eb9",
        "d2dcaa5fd5b65a7abe9e44703694956041f01adb8c8787dc546cadb633d56829"),
    "mlp-proxy-reed-coherent-csit": (
        "45103d50d89c3c7bab368afa9d39c731f8b74db4a7d435066d500d54c35e7e63",
        "b4e3ed177c574cad0b166a45147280f0333e827e696477274f88ce33b3740609"),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_fedavg_bytes_pinned(tmp_path, name):
    cmd_run_fedavg(parse_config(CONFIGS[name]), str(tmp_path))
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("fedavg_trace.csv", "fedavg_summary.json"))
    assert digests == GOLDEN[name]


# a float-valued axis, so each label is a value's printed form; two
# aggregators over two trials at each point
SWEEP_CONFIG = _COMMON.replace("trials = 1", "trials = 2") + """
fed.beta0 = 0.1
fed.aggregators = ["ideal", "reed"]
data.synth_n = 120
data.test_n = 40
data.classes = 3
data.features = 4
sweep.key = "phy.snr_db"
sweep.values = [-5, 2.5]
"""

# sha256 of sweep_phy.snr_db.csv and sweep_phy.snr_db_summary.json
SWEEP_GOLDEN = (
    "e7d3eeb5750b464f58d8844d6efc6d8b3f888a9b1c1752f2148e522f0b0fbd04",
    "2424d770b4d53b376c3a868cdf7a28844f0d656c1ceb7265f7484a92712261d1")


def test_sweep_bytes_pinned(tmp_path):
    assert cmd_sweep(parse_config(SWEEP_CONFIG), str(tmp_path)) == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("sweep_phy.snr_db.csv", "sweep_phy.snr_db_summary.json"))
    assert digests == SWEEP_GOLDEN


# a phy.* axis, whose points run as one job per trial: ideal, and
# coherent_csit, which reads no chips, run once and are written into both
# points; reed runs once per point
CHIPS_SWEEP_CONFIG = _COMMON.replace("trials = 1", "trials = 2") + """
fed.beta0 = 0.1
fed.aggregators = ["ideal", "reed", "coherent_csit"]
data.synth_n = 120
data.test_n = 40
data.classes = 3
data.features = 4
phy.noise_var = 0.5
sweep.key = "phy.chips"
sweep.values = [1, 2]
"""

# sha256 of sweep_phy.chips.csv and sweep_phy.chips_summary.json
CHIPS_SWEEP_GOLDEN = (
    "327d543f2517f30ed88ed5aa01a1402ef9f2bbeab95b40b425ffe7b973274f45",
    "ef400dc7ef20c920d9f9d9aff4055e38aaf32d146ca3fb04f768a23d89ccdd2c")


def test_chips_sweep_bytes_pinned(tmp_path):
    assert cmd_sweep(parse_config(CHIPS_SWEEP_CONFIG), str(tmp_path)) == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("sweep_phy.chips.csv", "sweep_phy.chips_summary.json"))
    assert digests == CHIPS_SWEEP_GOLDEN


# sha256 of moments.csv of the default matrix at 2000 trials per point
MOMENTS_GOLDEN = "adda85ae923734ca3053734d49599908c03dc06b142bd5f62fd60db0473d9e17"


def test_validate_moments_bytes_pinned(tmp_path):
    cfg = parse_config("seed = 7\nmoments.n_trials = 2000\nmoments.tolerance = 0.2\n")
    assert cmd_validate_moments(cfg, str(tmp_path)) == 0
    digest = hashlib.sha256((tmp_path / "moments.csv").read_bytes()).hexdigest()
    assert digest == MOMENTS_GOLDEN


@pytest.mark.parametrize("cores, workers", [(1, 1), (2, 1), (3, 1), (16, 1), (2, 2)])
def test_validate_moments_bytes_any_cores_or_workers(tmp_path, monkeypatch, capsys, cores,
                                                     workers):
    # one thread per usable core, whatever --workers says; the lines printed
    # are those of the run in this process
    cfgfile = tmp_path / "moments.cfg"
    cfgfile.write_text("seed = 7\nmoments.n_trials = 2000\nmoments.tolerance = 0.2\n")
    outputs = []
    for usable, flag in ((1, "1"), (cores, str(workers))):
        monkeypatch.setattr(cli, "_usable_cores", lambda usable=usable: usable)
        out = tmp_path / f"{usable}-{flag}"
        assert cli.main(["validate-moments", str(cfgfile), "--workers", flag,
                         "--out", str(out)]) == 0
        outputs.append(capsys.readouterr().out)
    digest = hashlib.sha256((out / "moments.csv").read_bytes()).hexdigest()
    assert digest == MOMENTS_GOLDEN
    assert outputs[1] == outputs[0]


def test_validate_moments_threads_match_serial_at_20000_trials(tmp_path, monkeypatch,
                                                              capsys):
    # long enough that the points' draws overlap on threads
    cfg = parse_config("seed = 7\nmoments.n_trials = 20000\nmoments.tolerance = 0.2\n")
    outputs = []
    for cores in (1, 2, 16):
        monkeypatch.setattr(cli, "_usable_cores", lambda cores=cores: cores)
        assert cmd_validate_moments(cfg, str(tmp_path / str(cores))) == 0
        outputs.append(((tmp_path / str(cores) / "moments.csv").read_bytes(),
                        capsys.readouterr().out))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
