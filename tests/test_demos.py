"""Smoke test: every demo runs to the end against the current API."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name", ["01_exact_moments.py", "02_cross_moment_oracle.py", "04_random_walk_simulation.py"]
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize(
    "name", ["03_polyomino_perimeter.py", "05_gaussian_fit.py", "06_brownian_paths.py"]
)
def test_demo_writing_files_runs(name, capsys, tmp_path):
    # a copy writes its SVGs to tmp_path/output, next to itself
    copy = tmp_path / name
    shutil.copy(DEMOS / name, copy)
    runpy.run_path(str(copy), run_name="__main__")
    assert capsys.readouterr().out.strip()
    assert any((tmp_path / "output").glob("*.svg"))
