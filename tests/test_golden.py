"""Golden outputs: the exact bytes of five tiny run-fedavg runs, two tiny
sweeps and one small validate-moments run, the last at every usable-core
count and ``--workers`` value.

Every draw of a run comes from a fixed stream layout, so any change to how
stream keys are derived or consumed changes these hashes.  A change that
alters the layout on purpose updates them, and says so.  These are the
digests of stream layout 5 (SFC64 streams, each built once per run and
read round after round).  ``MOMENTS_GOLDEN`` has not changed since layout
4: validate-moments builds its streams once per point, as it did then.

A change to a classifier's arithmetic can move these hashes too, with the
layout unchanged.  ``SWEEP_GOLDEN``'s summary moved in the last digits of
one standard deviation when the classifiers began to read each bias as the
weight of a constant feature, so that the logits and gradients sum in
another order; the other hashes did not move.
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
}

# sha256 of fedavg_trace.csv and fedavg_summary.json
GOLDEN = {
    "budget-quadratic-reed": (
        "981ad3a66264619bac056522aa6613cf23545fb66ea55ceecd447da563da68a7",
        "007bf47c662bf8c1d38950db2ae1e69f643471e6bda4ed9b4799b1fddf69914f"),
    "budget-quadratic-reed-inv-sqrt": (
        "7fc3f448e4465e5f591802dcb3a249710de8d9e05940b1287ff1244b07aa409b",
        "992c28c572f5e66dfa9d2fcd99a03cb270a289b0e2e303d8dfc4f0e9ccdbf8b7"),
    "dirichlet-logistic-reed-M2": (
        "0b3748af0fe805bba29666ca4c60df9f5fb17c8f93e5e79d9b9080f0bf0e6faf",
        "74f3e47451f36a94f533ff80f551f75f9bb41697c4676e8d7d1540274259feec"),
    "logistic-coherent-csit": (
        "c4416f473701e999656c0153304a5aaa1a7aecf9aa57802b694db6e703ef2adf",
        "356049def3e18a7018ce03ae728712c252b9ad6be9205b2f95d2f3dec81a4fcf"),
    "logistic-three-aggregators-2-trials": (
        "a15df5ee06d075ada2de834321850d091c75438715514fac5ace6b121cbe9afe",
        "8ee0aa0e74cbe09a4ecca30d704b63b90d29d92a6acbabb3e23be3d1ab6cf77d"),
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
    "68960c99ecd5d24c235b5588b83fdc6b8f7553f352bf45f3ae948aaaef3ea5b8",
    "30ab07dcb1ba90e5a2547ad4fe652cfaea17337669ce610cdd32156590c18ecc")


def test_chips_sweep_bytes_pinned(tmp_path):
    assert cmd_sweep(parse_config(CHIPS_SWEEP_CONFIG), str(tmp_path)) == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("sweep_phy.chips.csv", "sweep_phy.chips_summary.json"))
    assert digests == CHIPS_SWEEP_GOLDEN


# sha256 of moments.csv of the default matrix at 2000 trials per point
MOMENTS_GOLDEN = "7bf2177bcf2921cc3cc1ddc58633975f2f9b7f7e2ecb0082efdc29493d76a470"


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
