"""Smoke runs of the quick demos, which call the library's public entry points."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "demo_beamforming", "demo_geometry_channels", "demo_power_allocation", "demo_reflection_design",
])
def test_demo_runs(name):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True, text=True, timeout=300, cwd=DEMOS,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_demo_sweeps_writes_its_csvs(tmp_path):
    # The demo writes into demo_output/ beside the script, so run a copy.
    script = tmp_path / "demo_sweeps.py"
    shutil.copy(DEMOS / "demo_sweeps.py", script)
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("ssr_vs_power", "ssr_vs_elements", "ssr_vs_distance", "pa_surface"):
        assert (tmp_path / "demo_output" / f"{name}.csv").stat().st_size > 0, name
