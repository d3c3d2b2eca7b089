"""One fresh-process set-up of a workload, timed: import reedsim, parse the
config, and synthesize and partition the data of every trial (FedAvg) or
build the moment matrix (moments).  Prints the seconds taken and then
the seconds of one warm pass of the reference kernel (calibrate.py).

Usage: python3 setup_probe.py SRC_DIR CONFIG COMMAND
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from reedsim.config import load_config  # noqa: E402
from reedsim.experiments import build_experiment_data, default_moment_matrix  # noqa: E402

cfg = load_config(sys.argv[2])
if sys.argv[3] == "validate-moments":
    default_moment_matrix()
else:
    for trial in range(cfg["trials"]):
        build_experiment_data(cfg, trial)
setup_s = time.perf_counter() - t0

from calibrate import kernel_seconds  # noqa: E402

kernel_seconds()  # the first pass of a fresh process pays lazy set-up
print(repr(setup_s), repr(kernel_seconds()))
