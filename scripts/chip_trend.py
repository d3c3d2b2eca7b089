#!/usr/bin/env python3
"""Sweep the number of repeated chips and report the accuracy gap to ideal
aggregation (the headline diversity-closes-the-gap experiment)."""
import pathlib
import sys

from reedsim.cli import main

HERE = pathlib.Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.exit(main(["sweep", str(HERE / "configs" / "chip_trend.cfg"), *sys.argv[1:]]))
