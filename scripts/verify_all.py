#!/usr/bin/env python3
"""Run the full verification report over every shipped model."""

import glob
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ttg.cli import main

MODELS_DIR = os.path.join(os.path.dirname(__file__), "..", "models")


def run():
    status = 0
    for path in sorted(glob.glob(os.path.join(MODELS_DIR, "*.json"))):
        print("== %s ==" % os.path.splitext(os.path.basename(path))[0])
        status = max(status, main(["report", "--model", path]))
    return status


if __name__ == "__main__":
    sys.exit(run())
