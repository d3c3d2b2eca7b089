"""Golden outputs: the exact bytes of five tiny run-fedavg runs and one
small validate-moments run.

Every draw of a run comes from a fixed stream layout, so any change to how
stream keys are derived or consumed changes these hashes.  A change that
alters the layout on purpose updates them, and says so.
"""

import hashlib

import pytest

from reedsim.cli import cmd_run_fedavg, cmd_validate_moments
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
        "7cf1e84463810ffb1b44e473dfcf6cf599022f3dec497a284d3e3b78dbf2a8a2",
        "b317a08fc5408a10020b45b695e3eec1f60f5d08478193576889f3e07055b1ee"),
    "budget-quadratic-reed-inv-sqrt": (
        "1adb1dff2e8d7b1466fb015eab123cec8fba407117965583ed8dac52a39f90ac",
        "da40f689d95853d986f4e5e7b4539cbc08849ac183f371a1b73f73355f10d9a6"),
    "dirichlet-logistic-reed-M2": (
        "319aa3a10ed2db0017133fefb57d5ac82e30422c5ed10cf7259c13f8104b4945",
        "e0ab455f7583fa1c0180bae474bdf96aced82dba25334b46a1e3c89a79ce430a"),
    "logistic-coherent-csit": (
        "1143108352bb31a6422db4b6269f31c5e1719d024fa30f5ed483ea75d521a0c2",
        "c55962ba8b8a42c9f847052b6b3cc4ab03fb865414db2974ec1d37853d5cbd4e"),
    "logistic-three-aggregators-2-trials": (
        "6fd8301083eafc6584d344eaecd1a5e7953a0d3e0e0814f00ba5ca1801208b55",
        "27cbdffb19afc55ec40d5f1e016766e5123909525ef9d3c53815eef40edce0d6"),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_fedavg_bytes_pinned(tmp_path, name):
    cmd_run_fedavg(parse_config(CONFIGS[name]), str(tmp_path))
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("fedavg_trace.csv", "fedavg_summary.json"))
    assert digests == GOLDEN[name]


# sha256 of moments.csv of the default matrix at 2000 trials per point
MOMENTS_GOLDEN = "ae253b4abffe9fb65ba47527a19bf0ea95058681be9b940a44b08ba6144f47b0"


def test_validate_moments_bytes_pinned(tmp_path):
    cfg = parse_config("seed = 7\nmoments.n_trials = 2000\nmoments.tolerance = 0.2\n")
    assert cmd_validate_moments(cfg, str(tmp_path)) == 0
    digest = hashlib.sha256((tmp_path / "moments.csv").read_bytes()).hexdigest()
    assert digest == MOMENTS_GOLDEN
