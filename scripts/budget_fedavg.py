#!/usr/bin/env python3
"""Energy-budgeted FedAvg on the synthetic quadratic: the trace logs each
round's largest realized per-client energy (``max_client_energy``)
alongside the optimization trace; the scheduled gain is not written."""
import pathlib
import sys

from reedsim.cli import main

HERE = pathlib.Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.exit(main(["run-fedavg", str(HERE / "configs" / "budget_fedavg.cfg"),
                   *sys.argv[1:]]))
