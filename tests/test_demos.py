"""The narrative demo scripts run end to end (full size, N = 257).

Each script is copied into a temporary directory first, so its outputs land
there instead of in the source tree.
"""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, tmp_path, capsys):
    script = shutil.copy(DEMOS / name, tmp_path / name)
    runpy.run_path(str(script), run_name="__main__")
    return capsys.readouterr().out


def test_phantom_and_data(tmp_path, capsys):
    printed = run_demo("01_phantom_and_data.py", tmp_path, capsys)
    assert "transform round-trip error" in printed
    for name in ("phantom.csv", "phantom.pgm", "trace_full_T5.csv"):
        assert (tmp_path / "out" / "01" / name).exists()


def test_contraction_and_energy(tmp_path, capsys):
    printed = run_demo("05_contraction_and_energy.py", tmp_path, capsys)
    assert "forward energy drift" in printed
    assert printed.count("  t = ") == 13  # twelve snapshots and t = 0
    lines = (tmp_path / "out" / "05" / "contraction.csv").read_text().splitlines()
    assert lines[0] == "T,contraction"
    assert all(0.0 < float(line.split(",")[1]) < 1.0 for line in lines[1:])
