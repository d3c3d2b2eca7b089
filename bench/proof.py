"""Run-to-run spread of the benchmark: several seeds per workload.

    python3 bench/proof.py [--runs 10] [--first-seed 0] [--workloads A B]
                           [--traced] [--out FILE]

Runs bench/run.py once per (workload, seed), one run at a time, with the
run length and bounds from BENCHMARK.json.  For each end-to-end metric it
prints the median and the quartile spread (q3 - q1) / median, which must
stay within the metric's bound (and should stay below a third of it).
With --traced it adds one traced run per workload.  --out writes the
summary, each run's metrics and output digest, and the provenance of the
first run as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record "))
    result = json.loads(lines[-1])
    summary = {key: record[key] for key in ("provenance", "output_sha256")}
    summary["seed"] = seed
    summary.update(result, metrics={k: m["value"] for k, m in result["metrics"].items()})
    if trace:
        summary["trace_overhead"] = record["trace_overhead"]
    return summary


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    summary: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads:
        records = [run_once(workload, seed, spec["run_seconds"], 0)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        entry = {"provenance": records[0]["provenance"], "metrics": {}, "runs": records}
        for record in records:
            del record["provenance"]
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in records]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["metrics"][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": metric["bound"], "unit": metric["unit"]}
            ok = spread < metric["bound"] / 3 or metric["name"] == "setup_s"
            steady &= ok
            print(f"{workload:18s} {metric['name']:12s} median {median:.6g} "
                  f"{metric['unit']}  spread {spread:.4f} (bound {metric['bound']})"
                  f"{'' if ok else '  WIDE'}")
        correct = all(r["correct"] for r in records)
        steady &= correct
        print(f"{workload:18s} correct in all {len(records)} runs: {correct}")
        if args.traced:
            entry["traced"] = run_once(workload, args.first_seed, spec["run_seconds"], 1)
        summary["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
