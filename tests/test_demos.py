"""Each demo script runs to completion in process."""

import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    # demos install their own warning filters; scope them to this test
    with warnings.catch_warnings():
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
