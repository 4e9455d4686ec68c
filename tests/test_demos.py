"""Smoke test: the demos that write no files run to the end against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name", ["01_exact_moments.py", "02_cross_moment_oracle.py", "04_random_walk_simulation.py"]
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
