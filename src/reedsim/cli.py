"""Config-driven command line entry point.

Subcommands:
  validate-moments <config>   Monte Carlo vs closed-form moment matrix
  run-fedavg <config>         matched-seed FedAvg trials per aggregator
  sweep <config> --axis NAME  cross-product runs over M / snr_db / alpha / beta0

All outputs are CSV (UTF-8, header row, 9-significant-digit floats) plus a
summary JSON; identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any

import numpy as np

from .config import ConfigError, check_config, load_config
from .datasets import IdxFormatError
from .experiments import (default_moment_matrix, run_single_trial, validate_point)

__all__ = ["main", "cmd_validate_moments", "cmd_run_fedavg", "cmd_sweep"]

_SWEEP_AXES = {
    "M": "sweep.M_values",
    "snr_db": "sweep.snr_db_values",
    "alpha": "sweep.alpha_values",
    "beta0": "sweep.beta0_values",
}


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float) or isinstance(x, np.floating):
        return f"{float(x):.9g}"
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_validate_moments(cfg: dict[str, Any], out_dir: str, workers: int = 1) -> int:
    """Run the moment-law matrix; returns a nonzero exit status if any
    point misses its tolerance."""
    points = default_moment_matrix()
    n_trials = cfg["moments.n_trials"]
    tol = cfg["moments.tolerance"]
    seed = cfg["seed"]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(validate_point, points,
                                    [n_trials] * len(points), [tol] * len(points),
                                    [seed] * len(points)))
    else:
        results = [validate_point(p, n_trials, tol, seed) for p in points]
    rows = [[r.point_id, r.s, r.mc_mean, r.cf_mean, r.mc_var, r.cf_var,
             r.rel_err, r.passed] for r in results]
    _write_csv(os.path.join(out_dir, "moments.csv"),
               ["point_id", "s", "mc_mean", "cf_mean", "mc_var", "cf_var",
                "rel_err", "pass"], rows)
    n_fail = sum(1 for r in results if not r.passed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.point_id} "
              f"rel_err={r.rel_err:.4f}")
    return 1 if n_fail else 0


def _trial_job(args):
    cfg, trial, aggregator = args
    return trial, aggregator, run_single_trial(cfg, trial, aggregator)


def _run_fedavg_rows(cfg: dict[str, Any], workers: int) -> list[list]:
    jobs = [(cfg, trial, agg)
            for agg in cfg["fed.aggregators"]
            for trial in range(cfg["trials"])]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_trial_job, jobs))
    else:
        outcomes = [_trial_job(j) for j in jobs]
    rows = []
    for trial, agg, traces in outcomes:
        for tr in traces:
            rows.append([trial, tr.round, agg, tr.train_loss, tr.test_accuracy,
                         tr.grad_norm_sq, tr.eps_norm_sq, tr.max_client_energy])
    return rows


_FEDAVG_HEADER = ["trial", "round", "aggregator", "train_loss", "test_acc",
                  "grad_norm_sq", "eps_norm_sq", "max_client_energy"]


def _summarize(rows: list[list], final_round: int) -> dict:
    summary: dict[str, dict] = {}
    by_agg: dict[str, list[list]] = {}
    for row in rows:
        if row[1] == final_round:
            by_agg.setdefault(row[2], []).append(row)
    for agg, final_rows in sorted(by_agg.items()):
        acc = np.array([r[4] for r in final_rows], dtype=float)
        loss = np.array([r[3] for r in final_rows], dtype=float)
        summary[agg] = {
            "final_test_acc_mean": float(acc.mean()),
            "final_test_acc_std": float(acc.std(ddof=1)) if acc.size > 1 else 0.0,
            "final_train_loss_mean": float(loss.mean()),
            "final_train_loss_std": float(loss.std(ddof=1)) if loss.size > 1 else 0.0,
            "trials": int(acc.size),
        }
    return summary


def cmd_run_fedavg(cfg: dict[str, Any], out_dir: str, workers: int = 1) -> int:
    rows = _run_fedavg_rows(cfg, workers)
    _write_csv(os.path.join(out_dir, "fedavg_trace.csv"), _FEDAVG_HEADER, rows)
    summary = _summarize(rows, cfg["fed.T"] - 1)
    _write_json(os.path.join(out_dir, "fedavg_summary.json"), summary)
    for agg, stats in summary.items():
        print(f"{agg}: final acc {stats['final_test_acc_mean']:.4f} "
              f"+/- {stats['final_test_acc_std']:.4f}")
    return 0


def _apply_axis(cfg: dict[str, Any], axis: str, value) -> dict[str, Any]:
    """The config of one sweep point, validated like a parsed config."""
    out = dict(cfg)
    if axis == "M":
        # per-chip receive-SNR convention held fixed: eta and noise_var
        # unchanged, weights replicated at the configured per-chip energy
        out["phy.chips"] = value
        out["phy.chip_weights"] = None
    elif axis == "snr_db":
        out["phy.snr_db"] = float(value)
    elif axis == "alpha":
        out["data.partition"] = "dirichlet"
        out["data.alpha"] = float(value)
    elif axis == "beta0":
        out["fed.beta0"] = float(value)
    try:
        check_config(out)
    except ConfigError as exc:
        raise ConfigError(f"{_SWEEP_AXES[axis]}: value {_fmt(value)}: {exc}") from None
    return out


def cmd_sweep(cfg: dict[str, Any], out_dir: str, axis: str, workers: int = 1) -> int:
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; "
                          f"choose from {sorted(_SWEEP_AXES)}")
    values = cfg[_SWEEP_AXES[axis]]
    if not values:
        raise ConfigError(f"{_SWEEP_AXES[axis]}: empty or unset axis")
    # every point is validated before the first one runs
    points = [_apply_axis(cfg, axis, value) for value in values]
    rows = []
    summary = {}
    for value, point_cfg in zip(values, points):
        point_rows = _run_fedavg_rows(point_cfg, workers)
        rows.extend([[_fmt(value)] + r for r in point_rows])
        summary[_fmt(value)] = _summarize(point_rows, cfg["fed.T"] - 1)
    _write_csv(os.path.join(out_dir, f"sweep_{axis}.csv"),
               [axis] + _FEDAVG_HEADER, rows)
    _write_json(os.path.join(out_dir, f"sweep_{axis}_summary.json"), summary)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reedsim",
        description="Noncoherent paired-energy aggregation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate-moments", "run-fedavg", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a dotted-key config file")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes override (default: config workers)")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if name == "sweep":
            p.add_argument("--axis", required=True, choices=sorted(_SWEEP_AXES))
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.workers)
        out_dir = args.out if args.out is not None else cfg["output.dir"]
        workers = cfg["workers"]
        if args.command == "validate-moments":
            return cmd_validate_moments(cfg, out_dir, workers)
        if args.command == "run-fedavg":
            return cmd_run_fedavg(cfg, out_dir, workers)
        return cmd_sweep(cfg, out_dir, args.axis, workers)
    except (ConfigError, IdxFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
