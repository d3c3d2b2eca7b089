"""Golden outputs: the exact bytes of five tiny run-fedavg runs, two tiny
sweeps and one small validate-moments run.

Every draw of a run comes from a fixed stream layout, so any change to how
stream keys are derived or consumed changes these hashes.  A change that
alters the layout on purpose updates them, and says so.  These are the
digests of stream layout 4 (SFC64 streams).
"""

import hashlib

import pytest

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
        "688023fbdee98734e998aecceea92a4327cf30395a24b9a41ffa12d6ed2e203f",
        "ffb025bcba9d158ccf787b39ab0f28c32adee18bdf31989a1d108cec248da9a1"),
    "budget-quadratic-reed-inv-sqrt": (
        "c16cbb7fd333df86143cc64795cd049d27e044cd63c61863fcc5d5d115009cdb",
        "cb35e4543bd833cb3d421b0ccb50727801beb33e1f3311863046ea5d2fbcaf35"),
    "dirichlet-logistic-reed-M2": (
        "9d7e76aaef1a98a130ed68aefd8bd7c8b9daa3084587a0475684e1dc6d557e4b",
        "2b1d1cdf39b1f39afcc8a4855ce4ec07c64e3026a7ba4056cb763fdb80bfa54f"),
    "logistic-coherent-csit": (
        "e2aec90312ba2f65a5093635addddadd4dc2cf7d33096a7b902100b0bed2f7ec",
        "dd7997df9c5b7b4827ceded6d58451c6889074c448628587913241532cdb079a"),
    "logistic-three-aggregators-2-trials": (
        "8b4ac2cfafccf75008d646707bef80218001c679ee38f7d144caf2d0800c33e3",
        "b1b12386580fcc47bc6dab61dd523dced6c282de81bd46ca804fd0dc1ca3be46"),
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
    "32b978cea60b23a829b81006dc4c22df166b48ea4e352ad7149476695871dd7c",
    "cd885fe0914cd4c0b84d0c7437495eca317e9500e548a340118ef69d77bed2a6")


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
    "59e0ebc93d14a7d372528609c4a480b317e6d100773875a908c93431d0a477ac",
    "9692f9156f697b45652674fd86d487b6300cd0d2f1d733dd90e7e72cc076540a")


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
