"""Put the source tree on PYTHONPATH, so the suite's `python -m torusdirac.cli`
subprocesses import the same package as the pyproject `pythonpath` setting
gives the tests themselves, also from a checkout that is not installed."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
