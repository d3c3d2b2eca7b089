"""reedsim benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: logistic-chips, quadratic-budget, moments-mc (see README.md).
The config is generated from the seed and fed to the reedsim CLI in this
process, one call (a *unit*) after another, for S seconds after one
untimed warm-up unit.  Every unit's output is checked.

--trace 0 reports the end-to-end metrics: work_per_ref_s (FedAvg rounds
or Monte Carlo estimates per second, median over units), setup_s (median
of fresh-process set-ups) and peak_rss_mb.  --trace 1 spends half the time
untraced and half with every layer wrapped (tracer.py), and reports the
per-layer counts and times per unit plus the tracing overhead.  Times and
rates in the metrics are at reference host speed (calibrate.py); the wall
values are printed and kept in the record too.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it ("record ...") holds the
provenance, the output digest and the raw unit times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# BLAS/OpenMP threads, fixed below nproc so that load comes from this one
# process and its one compute thread.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 7
END_TO_END_UNITS = {"work_per_ref_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class UnitSample:
    """One timed unit and the reference-kernel time around it."""

    seconds: float
    work: int
    kernel_s: float

    @property
    def slowdown(self) -> float:
        """Host slowness during the unit, 1.0 at reference speed."""
        return self.kernel_s / calibrate.REF_KERNEL_S

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.slowdown

    @property
    def ref_rate(self) -> float:
        return self.work / self.ref_seconds


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(seed: int) -> dict:
    import numpy

    sources = sorted((SRC / "reedsim").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_reedsim_lines": lines,
        "src_reedsim_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure_setup(cfg_path: Path, command: str) -> list[tuple[float, float]]:
    """(set-up seconds, reference-kernel seconds) of SETUP_REPS
    fresh-process set-ups, run one at a time."""
    probes = []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
             str(cfg_path), command],
            capture_output=True, text=True, check=True, timeout=120)
        setup_s, kernel_s = map(float, out.stdout.split())
        probes.append((setup_s, kernel_s))
    return probes


class Runner:
    """Runs and checks units of one workload."""

    def __init__(self, workload, cfg_path: Path, out_dir: Path):
        from reedsim import cli
        from reedsim.config import load_config
        from reedsim.experiments import default_moment_matrix

        self.cli = cli
        self.workload = workload
        self.cfg = load_config(str(cfg_path))
        self.argv = [workload.command, str(cfg_path), "--out", str(out_dir)]
        self.output = out_dir / workload.output
        self.n_points = len(default_moment_matrix())
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.errors: list[str] = []

    def operations(self) -> int:
        if self.workload.is_fedavg:
            return workloads.fedavg_operations(self.cfg)
        return self.n_points

    def unit(self) -> tuple[float, int]:
        """Run one unit; returns (seconds, work completed)."""
        self.output.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = self.cli.main(self.argv)
        except Exception as exc:  # a unit that raises counts as failed operations
            seconds = time.perf_counter() - t0
            self._record_failure(f"{type(exc).__name__}: {exc}")
            return seconds, 0
        seconds = time.perf_counter() - t0
        # validate-moments exits 1 when its own 4-sigma check misses; the
        # gate below decides instead
        if status not in (0, 1) or not self.output.exists():
            self._record_failure(f"exit status {status}")
            return seconds, 0
        data = self.output.read_bytes()
        self.digests.add(hashlib.sha256(data).hexdigest())
        text = data.decode("utf-8")
        if self.workload.is_fedavg:
            gate = workloads.gate_fedavg(text, self.cfg)
        else:
            gate = workloads.gate_moments(text, self.n_points, self.cfg["moments.n_trials"])
        self.attempted += gate.attempted
        self.failed += gate.failed
        return seconds, gate.work

    def _record_failure(self, message: str) -> None:
        ops = self.operations()
        self.attempted += ops
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append(message)

    def measure(self, seconds: float, tracer=None) -> tuple[list[UnitSample], list]:
        """Units until ``seconds`` have passed (at least one), each timed
        between two passes of the reference kernel.  Returns the samples
        and, when traced, the per-layer statistics of each unit."""
        samples, layers = [], []
        kernel_before = calibrate.kernel_seconds()
        deadline = time.perf_counter() + seconds
        while True:
            before = tracer.snapshot() if tracer else None
            elapsed, work = self.unit()
            if tracer:
                after = tracer.snapshot()
                layers.append({k: after[k].minus(before[k]) for k in after})
            kernel_after = calibrate.kernel_seconds()
            samples.append(UnitSample(elapsed, work, (kernel_before + kernel_after) / 2))
            kernel_before = kernel_after
            if time.perf_counter() >= deadline:
                return samples, layers


def negative_control_rejected(seed: int) -> bool:
    """A point whose closed form is computed at the wrong gain must fail
    the moment gate; otherwise the gate proves nothing."""
    from reedsim.estimator import ReedPhyConfig, ScalarInputs
    from reedsim.experiments import MomentPoint, validate_point

    n = workloads.MC_TRIALS
    point = MomentPoint(
        point_id="negative_control", inputs=ScalarInputs([2.0, -1.0]),
        cfg=ReedPhyConfig(eta=1.0, noise_var=1.0),
        cf_cfg=ReedPhyConfig(eta=3.0, noise_var=1.0))
    r = validate_point(point, n, workloads.mc_tolerance(n), seed)
    return not workloads.moment_point_ok(r.mc_mean, r.cf_mean, r.cf_var, r.rel_err, n)


def layer_metrics(per_unit: list[dict], samples: list[UnitSample]) -> tuple[dict, bool]:
    """Per-unit layer metrics: counts of the first traced unit, times at
    reference speed as medians over traced units.  Also says whether every
    count repeated."""
    import tracer

    metrics, repeat = {}, True
    for layer, field in tracer.METRICS:
        name = f"{layer}.{field}"
        if field in tracer.COUNT_FIELDS:
            counts = [getattr(unit[layer], field) for unit in per_unit]
            repeat &= len(set(counts)) == 1
            metrics[name] = {"value": counts[0], "unit": "count"}
        else:
            times = [getattr(unit[layer], field) / sample.slowdown
                     for unit, sample in zip(per_unit, samples)]
            metrics[name] = {"value": statistics.median(times), "unit": "s"}
    return metrics, repeat


def end_to_end_metrics(samples: list[UnitSample], probes: list[tuple[float, float]],
                       peak_rss_mb: float) -> dict:
    values = {
        "work_per_ref_s": statistics.median(u.ref_rate for u in samples),
        "setup_s": statistics.median(setup * calibrate.REF_KERNEL_S / kernel
                                     for setup, kernel in probes),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def end_to_end_lines(samples: list[UnitSample], probes: list[tuple[float, float]],
                     metrics: dict, work_unit: str) -> list[str]:
    """The end-to-end metrics under their workload names, with the wall
    values beside the reference-speed ones."""
    q1, q2, q3 = _quartiles([u.ref_rate for u in samples])
    w1, w2, w3 = _quartiles([u.work / u.seconds for u in samples])
    n = len(samples)
    return [
        f"{work_unit}_per_s = {q2:.6g} {work_unit}/s at reference speed "
        f"(work_per_ref_s; median of {n} units, quartiles {q1:.6g} .. {q3:.6g})",
        f"{work_unit}_per_s = {w2:.6g} {work_unit}/s wall "
        f"(median of {n} units, quartiles {w1:.6g} .. {w3:.6g})",
        f"setup_s = {metrics['setup_s']['value']:.6g} s at reference speed, "
        f"{statistics.median(p[0] for p in probes):.6g} s wall "
        f"(median of {len(probes)} fresh-process set-ups)",
        f"peak_rss_mb = {metrics['peak_rss_mb']['value']:.6g} MB",
    ]


def trace_overhead(untraced: list[UnitSample], traced: list[UnitSample],
                   record: dict) -> list[str]:
    """Traced over untraced median unit time, with both bases; adds them
    to the record."""
    ref = [statistics.median(u.ref_seconds for u in group) for group in (traced, untraced)]
    wall = [statistics.median(u.seconds for u in group) for group in (traced, untraced)]
    record["trace_overhead"] = {
        "ratio": ref[0] / ref[1],
        "traced_unit_ref_s": ref[0], "untraced_unit_ref_s": ref[1],
        "traced_unit_s": wall[0], "untraced_unit_s": wall[1]}
    return [f"trace_overhead = {ref[0] / ref[1]:.4f} (traced {ref[0]:.4f} s / "
            f"untraced {ref[1]:.4f} s per unit at reference speed; wall "
            f"{wall[0]:.4f} s / {wall[1]:.4f} s; medians of {len(traced)} "
            f"and {len(untraced)} units)"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "reedsim" / "__init__.py").is_file():
        print(f"error: reedsim sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work:
        cfg_path = Path(work) / "workload.cfg"
        cfg_path.write_text(workload.config_text(args.seed), encoding="utf-8")
        runner = Runner(workload, cfg_path, Path(work) / "out")
        control_ok = workload.is_fedavg or negative_control_rejected(args.seed)
        probes = [] if args.trace else measure_setup(cfg_path, workload.command)
        runner.unit()  # warm-up, checked but not timed
        calibrate.kernel_seconds()
        if args.trace:
            import tracer

            samples, _ = runner.measure(args.seconds / 2)
            with tracer.Tracer() as tr:
                traced, per_unit = runner.measure(args.seconds / 2, tr)
        else:
            samples, _ = runner.measure(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": workload.name,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "output_sha256": sorted(runner.digests),
        "ref_kernel_s": calibrate.REF_KERNEL_S,
        "units": [vars(u) for u in samples],
        "negative_control_rejected": control_ok,
        "errors": runner.errors,
    }
    lines = [f"workload {workload.name} seed {args.seed} trace {args.trace}: "
             f"{len(samples)} timed units after 1 warm-up; host slowdown "
             f"{statistics.median(u.slowdown for u in samples):.4g} "
             f"(reference kernel {calibrate.REF_KERNEL_S} s)"]
    if args.trace:
        metrics, calls_repeat = layer_metrics(per_unit, traced)
        record.update(traced_units=[vars(u) for u in traced], calls_repeat=calls_repeat)
        lines += trace_overhead(samples, traced, record)
        lines += [f"{name} = {m['value']} {m['unit']}" for name, m in metrics.items()]
    else:
        calls_repeat = True
        metrics = end_to_end_metrics(samples, probes, peak_rss_mb)
        record["setup_probes"] = [{"setup_s": s_, "kernel_s": k} for s_, k in probes]
        lines += end_to_end_lines(samples, probes, metrics, workload.work_unit)
    attempted, failed = runner.attempted, runner.failed
    lines.append(f"error_rate = {failed / attempted:.6g} ({failed} failed of "
                 f"{attempted} attempted)")
    deterministic = len(runner.digests) == 1
    if not deterministic:
        lines.append("error: units of one run wrote different outputs")
    if not control_ok:
        lines.append("error: the negative control passed the moment gate")
    if not calls_repeat:
        lines.append("error: per-unit call counts differ between units")
    record["metrics"] = metrics
    print("\n".join(lines))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and deterministic and control_ok and calls_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
