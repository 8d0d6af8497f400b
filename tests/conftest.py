"""Put the source tree on PYTHONPATH, so the suite's `python -m torusdirac.cli`
subprocesses import the same package as the pyproject `pythonpath` setting
gives the tests themselves, also from a checkout that is not installed.

Property tests draw the same examples on every run, and no example database
is kept: a failure is the code's, not a replay of an earlier run's draw.
Each test keeps its own `max_examples`."""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
