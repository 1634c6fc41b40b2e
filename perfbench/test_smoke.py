"""Smoke test: every workload at tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py

Checks the result line's shape, the metric names against
``[A-Za-z0-9_.-]+`` and against ``BENCHMARK.json``, zero calls into the
layers a workload bypasses, and the refusal to run without a library.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    _, end_to_end, per_layer = run.specs()
    assert list(result["metrics"]) == [name for name, _ in (per_layer if trace else end_to_end)]
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert math.isfinite(metric["value"]), name
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
    elif workload == "pa-fuzz":
        bypassed = [n for n in values if n.endswith(".calls") and
                    n.split(".")[0] in ("geometry", "channels", "ris", "beamforming", "sim", "cli")]
        assert bypassed and all(values[n] == 0 for n in bypassed)
        assert values["power_allocation.allocate.hicf.calls"] > 0
    elif workload == "sweep-elements":
        pa_calls = [n for n in values if n.startswith("power_allocation.allocate.") and n.endswith(".calls")]
        assert pa_calls and all(values[n] == 0 for n in pa_calls)
        assert values["channels.effective_channels.calls"] > 0


def test_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "pa-fuzz", "--seconds", "0.5", "--tiny", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
