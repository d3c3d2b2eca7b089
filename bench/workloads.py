"""The benchmark's workloads: generated configs and output gates.

Each workload is one reedsim CLI command on a config generated from the
workload seed.  One call of that command is a *unit*; a run repeats the
same unit, so every unit of a run must produce byte-identical output.
Why each workload was chosen is in README.md next to this file.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

# Per-unit sizes.  The shapes follow the paper's experiments (C5 chip trend,
# C8 budgeted quadratic, the moment-law matrix); the lengths are cut so one
# unit takes about a second on one core.
LOGISTIC_T = 30
QUADRATIC_T = 400
MC_TRIALS = 50_000

# Mean band of the moment gate, in standard errors of the closed-form
# variance.  validate_point's own 4-sigma band would fail a correct
# estimator at one point in ~16000; 6 sigma fails one in ~5e8.
MC_MEAN_SIGMAS = 6.0


def mc_tolerance(n_trials: int) -> float:
    """Relative variance tolerance for ``n_trials`` Monte Carlo draws.

    Every estimate in the default matrix is a signed weighted sum of
    independent exponential energies (Rayleigh fading, one antenna), so its
    excess kurtosis is at most 6 and the sample variance has relative
    standard error at most sqrt((2 + 6) / n).  Six of those keeps a correct
    estimator, under any stream layout, from failing in practice; at 1M
    trials it is 0.017, next to the CLI's 0.015.
    """
    return 6.0 * math.sqrt(8.0 / n_trials)


_LOGISTIC_CHIPS = f"""\
# C5 / chip_trend shape: matched ideal and reed (M = 4) trials
seed = {{seed}}
trials = 1
fed.K = 10
fed.Q = 10
fed.T = {LOGISTIC_T}
fed.batch_size = 64
fed.beta0 = 0.05
fed.schedule = "inv_sqrt"
fed.model = "logistic"
fed.aggregators = ["ideal", "reed"]
data.source = "synth"
data.synth_kind = "gaussian-blobs"
data.synth_n = 6000
data.test_n = 2000
data.classes = 10
data.features = 20
data.separation = 2.0
data.partition = "dirichlet"
data.alpha = 0.3
phy.snr_db = -10
phy.eta = 300.0
phy.chips = 4
"""

_QUADRATIC_BUDGET = f"""\
# C8 / budget_fedavg shape: clipped updates, per-round scheduled gain
seed = {{seed}}
trials = 1
fed.K = 10
fed.Q = 5
fed.T = {QUADRATIC_T}
fed.batch_size = 20
fed.beta0 = 0.02
fed.schedule = "constant"
fed.clip_G = 1.0
fed.budget = 1.0
fed.model = "quadratic"
fed.quad_dim = 20
fed.quad_curv_min = 0.5
fed.quad_curv_max = 2.0
fed.aggregators = ["reed"]
data.source = "synth"
data.synth_kind = "quadratic-free"
data.synth_n = 200
data.test_n = 0
data.partition = "iid"
phy.noise_var = 1.0
"""

_MOMENTS_MC = f"""\
# default 12-point moment-law matrix
seed = {{seed}}
moments.n_trials = {MC_TRIALS}
moments.tolerance = {mc_tolerance(MC_TRIALS)!r}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str      # reedsim CLI subcommand
    output: str       # CSV the command writes into --out
    work_unit: str    # what work_per_ref_s counts
    template: str     # config text with a {seed} field

    def config_text(self, seed: int) -> str:
        return self.template.format(seed=seed)

    @property
    def is_fedavg(self) -> bool:
        return self.command == "run-fedavg"


WORKLOADS = {
    w.name: w for w in (
        Workload("logistic-chips", "run-fedavg", "fedavg_trace.csv", "rounds",
                 _LOGISTIC_CHIPS),
        Workload("quadratic-budget", "run-fedavg", "fedavg_trace.csv", "rounds",
                 _QUADRATIC_BUDGET),
        Workload("moments-mc", "validate-moments", "moments.csv", "mc_estimates",
                 _MOMENTS_MC),
    )
}


@dataclass(frozen=True)
class Gate:
    """Outcome of checking one unit's output."""

    attempted: int
    failed: int
    work: int  # rounds (FedAvg) or n_trials x points (moments) completed


def fedavg_operations(cfg: dict) -> int:
    """(trial, aggregator) runs one run-fedavg unit attempts."""
    return cfg["trials"] * len(cfg["fed.aggregators"])


def _rows(csv_text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(csv_text)))


def gate_fedavg(csv_text: str, cfg: dict) -> Gate:
    """A (trial, aggregator) run fails if it is missing or short, has a
    non-finite value, or ends with a train loss not below its round-0
    loss."""
    runs: dict[tuple[str, str], list[dict[str, str]]] = {}
    for row in _rows(csv_text):
        runs.setdefault((row["trial"], row["aggregator"]), []).append(row)
    attempted = fedavg_operations(cfg)
    passed = 0
    for rows in runs.values():
        rows.sort(key=lambda r: int(r["round"]))
        values = [float(v) for r in rows for k, v in r.items()
                  if k not in ("trial", "round", "aggregator")]
        complete = [int(r["round"]) for r in rows] == list(range(cfg["fed.T"]))
        finite = all(math.isfinite(v) for v in values)
        if complete and finite and \
                float(rows[-1]["train_loss"]) < float(rows[0]["train_loss"]):
            passed += 1
    work = sum(len(rows) for rows in runs.values())
    return Gate(attempted, attempted - min(passed, attempted), work)


def moment_point_ok(mc_mean: float, cf_mean: float, cf_var: float,
                    rel_err: float, n_trials: int) -> bool:
    """Mean inside its MC_MEAN_SIGMAS band and variance within
    mc_tolerance(n_trials) of the closed form."""
    if cf_var > 0:
        mean_ok = abs(mc_mean - cf_mean) <= MC_MEAN_SIGMAS * math.sqrt(cf_var / n_trials)
    else:
        mean_ok = mc_mean == cf_mean
    return mean_ok and rel_err <= mc_tolerance(n_trials)


def gate_moments(csv_text: str, n_points: int, n_trials: int) -> Gate:
    """A moment point fails if it is missing or misses moment_point_ok."""
    rows = {row["point_id"]: row for row in _rows(csv_text)}
    passed = 0
    for row in rows.values():
        values = [float(row[k]) for k in ("mc_mean", "cf_mean", "cf_var", "rel_err")]
        if all(math.isfinite(v) for v in values) and moment_point_ok(*values, n_trials):
            passed += 1
    return Gate(n_points, n_points - min(passed, n_points), len(rows) * n_trials)
