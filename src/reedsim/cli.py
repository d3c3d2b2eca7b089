"""Config-driven command line entry point.

Commands, each taking a config and the options --workers, --out and
--seed, in any order:
  validate-moments <config>   Monte Carlo vs closed-form moment matrix
  run-fedavg <config>         matched-seed FedAvg trials per aggregator
  sweep <config>              run-fedavg at each of sweep.values for sweep.key

All outputs are CSV (UTF-8, header row, 9-significant-digit floats) plus a
summary JSON; identical configs produce byte-identical files, for any
worker count.  Each file is written whole beside its target, then renamed
over it.  A trace CSV row is one round of one trial under one aggregator:
trial, round and aggregator, then one cell per ``fedavg.TRACE_COLUMNS`` name.

The moment points, whose draws release the GIL, run on one thread per
usable core, at most one per point: this thread and helper threads it
starts, none on one core.  Each worker draws every point it takes into
kernel buffers it allocates once per call.  FedAvg, whose round loop holds
the GIL, runs one job per (group, trial) in a pool of ``workers``
processes.  A group is every point of a sweep
over a phy.* key, whose aggregators run as arms of one FedAvg run, each
distinct arm once (``experiments.run_trial``), or else one point.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress
from threading import Lock, Thread
from typing import Any

import numpy as np

from .config import ConfigError, _keyed, fmt_value, load_config
from .datasets import _allocating
from .estimator import kernel_buffers
from .experiments import default_moment_matrix, run_trial, validate_point
from .fedavg import TRACE_COLUMNS, DivergenceError, _usable_cores

__all__ = ["main", "cmd_validate_moments", "cmd_run_fedavg", "cmd_sweep"]

@contextmanager
def _replacing(path: str):
    """A temporary text file beside ``path``, renamed over it once written
    whole; if writing raises, it is removed and ``path`` is left as it was."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    """Write a header and rows of printed cells."""
    with _replacing(path) as f:
        f.writelines(",".join(row) + "\n" for row in [header, *rows])


def _write_json(path: str, payload: dict) -> None:
    with _replacing(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _map(fn, items: list, workers: int) -> list:
    """``fn`` over ``items`` in order: in a pool of ``workers`` processes,
    at most one per item, when that is more than one, else in this
    process."""
    workers = min(workers, len(items))
    if workers > 1:
        with ProcessPoolExecutor(workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _threaded(start, items: list, workers: int) -> list:
    """The results, in order, of a function over ``items``, taken by
    min(``workers``, len(items)) workers: this thread and helper threads
    it starts, none for one worker.

    Every worker takes the index of the next item from one shared iterator
    under a lock and stores its result by that index.  On its first item
    a worker calls ``start()`` for the function it applies to every item
    it takes, so that function may own buffers for the worker's lifetime.
    The first failure stops any further item from being taken; once every
    helper has joined, the error of the lowest-index failed item is
    raised.  Items are taken in order and every taken item runs to its
    end, so that is the error a serial map would raise."""
    results, errors, lock = [None] * len(items), {}, Lock()
    todo = iter(range(len(items)))

    def take():
        with lock:
            return None if errors else next(todo, None)

    def work():
        run = None
        while (i := take()) is not None:
            try:
                if run is None:
                    run = start()
                results[i] = run(items[i])
            except Exception as exc:  # raised in the caller, after the join
                with lock:
                    errors[i] = exc
                return

    helpers = []
    try:
        for _ in range(min(workers, len(items)) - 1):
            thread = Thread(target=work)
            thread.start()
            helpers.append(thread)
        work()
    finally:
        # whatever ended this thread's share, the helpers take nothing more
        with lock:
            todo = iter(())
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def cmd_validate_moments(cfg: dict[str, Any], out_dir: str) -> int:
    """Run the moment-law matrix; returns a nonzero exit status if any
    point misses its tolerance.  NumPy releases the GIL in the independent
    points' draws, so they run on one thread per usable core, this one and
    its helpers (``_threaded``), in order.  Each worker allocates one set
    of kernel buffers per call and draws every point it takes into it."""
    n, tolerance, seed = cfg["moments.n_trials"], cfg["moments.tolerance"], cfg["seed"]

    def start():
        with _keyed(), _allocating("n_trials"):
            buffers = kernel_buffers(n)
        return lambda point: validate_point(point, n, tolerance, seed, buffers)

    results = _threaded(start, default_moment_matrix(), _usable_cores())
    rows = [[fmt_value(v) for v in (r.point_id, r.s, r.mc_mean, r.cf_mean, r.mc_var,
                                    r.cf_var, r.rel_err, r.passed)] for r in results]
    _write_csv(os.path.join(out_dir, "moments.csv"),
               ["point_id", "s", "mc_mean", "cf_mean", "mc_var", "cf_var",
                "rel_err", "pass"], rows)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.point_id} rel_err={r.rel_err:.4f}")
    return 0 if all(r.passed for r in results) else 1


def _trial_job(job):
    return run_trial(*job)


_FEDAVG_HEADER = ["trial", "round", "aggregator", *TRACE_COLUMNS]


def _cells(trace: np.ndarray) -> list[tuple[str, ...]]:
    """The printed cells of a (T, F) trace, one tuple per round, formatted
    column by column."""
    return list(zip(*([f"{x:.9g}" for x in column] for column in trace.T.tolist())))


def _summary(final: np.ndarray) -> dict:
    """Mean and spread over the trials of one aggregator's final-round
    trace rows, a (trials, F) array."""
    out = {"trials": len(final)}
    for name in ("test_acc", "train_loss"):
        x = final[:, TRACE_COLUMNS.index(name)]
        out[f"final_{name}_mean"] = float(x.mean())
        out[f"final_{name}_std"] = float(x.std(ddof=1)) if x.size > 1 else 0.0
    return out


def _run_points(groups: list[list[dict[str, Any]]], workers: int) -> list[tuple[list, dict]]:
    """The trace rows and per-aggregator summary of each config of
    ``groups``, configs that differ only in phy.* keys, with every (group,
    trial) job run in one map.  Rows go by aggregator, then trial, then
    round."""
    # the job list is sized before any job is built, so that too many
    # trials fail at once
    with _keyed(), _allocating("trials"):
        jobs = [None] * sum(group[0]["trials"] for group in groups)
    jobs[:] = [(group, trial) for group in groups for trial in range(group[0]["trials"])]
    runs = iter(_map(_trial_job, jobs, workers))
    out = []
    for group in groups:
        # each config of the group with its runs of every trial
        for cfg, trials in zip(group, zip(*[next(runs) for _ in range(group[0]["trials"])])):
            aggs = cfg["fed.aggregators"]
            rows = [[str(trial), str(t), agg, *cells]
                    for agg in aggs for trial, run in enumerate(trials)
                    for t, cells in enumerate(_cells(run[agg]))]
            out.append((rows, {agg: _summary(np.array([run[agg][-1] for run in trials]))
                               for agg in sorted(aggs)}))
    return out


def cmd_run_fedavg(cfg: dict[str, Any], out_dir: str, workers: int = 1) -> int:
    [(rows, summary)] = _run_points([[cfg]], workers)
    _write_csv(os.path.join(out_dir, "fedavg_trace.csv"), _FEDAVG_HEADER, rows)
    _write_json(os.path.join(out_dir, "fedavg_summary.json"), summary)
    for agg, stats in summary.items():
        print(f"{agg}: final acc {stats['final_test_acc_mean']:.4f} "
              f"+/- {stats['final_test_acc_std']:.4f}")
    return 0


def cmd_sweep(cfg: dict[str, Any], out_dir: str, workers: int = 1) -> int:
    key = cfg["sweep.key"]
    if key is None:
        raise ConfigError("sweep.key: required by sweep")
    values, rows, summary = cfg["sweep.values"], [], {}
    # parse_config validated every point, and each value's printed form,
    # unique there, keys its summary.  The points of a phy.* axis differ
    # only in what the arms read, so they form one group
    points = [{**cfg, key: value} for value in values]
    runs = _run_points([points] if key.startswith("phy.") else [[p] for p in points], workers)
    for label, (point_rows, point_summary) in zip(map(fmt_value, values), runs):
        rows += [[label] + row for row in point_rows]
        summary[label] = point_summary
    _write_csv(os.path.join(out_dir, f"sweep_{key}.csv"), [key] + _FEDAVG_HEADER, rows)
    _write_json(os.path.join(out_dir, f"sweep_{key}_summary.json"), summary)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reedsim",
        description="Noncoherent paired-energy aggregation experiments")
    parser.add_argument("command", choices=("validate-moments", "run-fedavg", "sweep"))
    parser.add_argument("config", help="path to a dotted-key config file")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for run-fedavg and sweep "
                             "(default: config workers)")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.workers)
        out_dir = args.out if args.out is not None else cfg["output.dir"]
        if args.command == "validate-moments":
            return cmd_validate_moments(cfg, out_dir)
        run = cmd_run_fedavg if args.command == "run-fedavg" else cmd_sweep
        return run(cfg, out_dir, cfg["workers"])
    except (ConfigError, OSError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DivergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
