#!/usr/bin/env python3
"""Sweep receive SNR for ideal, paired-energy and coherent-CSIT aggregation."""
import pathlib
import sys

from reedsim.cli import main

HERE = pathlib.Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.exit(main(["sweep", str(HERE / "configs" / "snr_sweep.cfg"), *sys.argv[1:]]))
