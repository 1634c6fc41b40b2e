"""What the package offers its callers: the demos, the CLI and the benchmark harness.

The harness drives the program through ``risdm.cli.main``, loads configs
through the package, runs power allocation and both rate forms through
the submodules, and reads the three positional arguments of each
``scalar_gains`` call that the sweep makes.  These tests pin that surface.
"""

import subprocess
import sys

import risdm
import risdm.sim
from risdm.beamforming import BeamformerSet
from risdm.channels import EffectiveChannels
from risdm.geometry import ScenarioConfig, default_config
from risdm.sim import SweepSpec, pa_surface, run_sweep

EXPORTS = {
    "ScenarioConfig", "build_channels", "build_geometry", "default_config",
    "effective_channels", "pa_surface", "run_sweep", "write_csv",
}


def test_all_is_the_exported_names():
    assert set(risdm.__all__) == EXPORTS
    assert len(risdm.__all__) == len(EXPORTS)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from risdm import *", namespace)
    for name in EXPORTS:
        assert namespace[name] is getattr(risdm, name)


def test_harness_names_resolve_after_import():
    # A fresh interpreter, so that no other test has imported a submodule.
    # The submodules load through ``risdm.sim``; the CLI loads on its own
    # import, as the harness does it.
    code = (
        "import risdm\n"
        "def resolve(path):\n"
        "    obj = risdm\n"
        "    for part in path.split('.'):\n"
        "        obj = getattr(obj, part)\n"
        "    assert callable(obj), path\n"
        "for path in ('ScenarioConfig.from_file', 'default_config', 'rates.ScalarGains',"
        " 'rates.rate_objective', 'rates.rates_matrix_form', 'power_allocation.allocate'):\n"
        "    resolve(path)\n"
        "import risdm.cli\n"
        "resolve('cli.main')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def record_scalar_gains(monkeypatch):
    """Replace ``risdm.sim.scalar_gains`` with a recorder that forwards to it."""
    calls = []
    real = risdm.sim.scalar_gains

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(risdm.sim, "scalar_gains", recorder)
    return calls


def assert_positional_triples(calls):
    assert calls
    for args, kwargs in calls:
        assert kwargs == {}
        assert len(args) == 3
        assert isinstance(args[0], EffectiveChannels)
        assert isinstance(args[1], BeamformerSet)
        assert isinstance(args[2], ScenarioConfig)


def test_sweep_passes_scalar_gains_three_positional_arguments(monkeypatch):
    calls = record_scalar_gains(monkeypatch)
    spec = SweepSpec(axis="power_dbm", values=(10.0, 27.0), methods=("max-sv", "leakage"),
                     ris_modes=("gpg", "random"), pa_modes=("fixed", "hicf"))
    run_sweep(default_config(M=16), spec)
    assert_positional_triples(calls)


def test_pa_surface_passes_scalar_gains_three_positional_arguments(monkeypatch):
    calls = record_scalar_gains(monkeypatch)
    pa_surface(default_config(M=16), step=0.25, method="leakage")
    assert len(calls) == 1
    assert_positional_triples(calls)
