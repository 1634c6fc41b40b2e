"""Smoke runs of the quick demos, which call the library's public entry points."""

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
