"""Set-up a `blowup-lab run` pays: import the package and build, with their
construction checks, every force and operator of a batch.

Usage: setup_probe.py CONFIGS_JSON

``run.py`` times this whole process from outside, interpreter start included.
"""
import json
import sys
from pathlib import Path

import blowup_lab


def main(configs_path: str) -> None:
    for doc in json.loads(Path(configs_path).read_text()):
        blowup_lab.make_force(doc["force"])
        blowup_lab.make_operator(doc["operator"])


if __name__ == "__main__":
    main(sys.argv[1])
