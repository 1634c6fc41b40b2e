"""Double-RIS-aided two-way directional-modulation network simulator.

Pipeline: scenario config -> planar geometry -> rank-1 LoS channels ->
reflection phase design -> beamformers -> secrecy sum rate -> power
allocation, plus a sweep driver reproducing the comparative experiments.
The package exports what the demos and the CLI use; every other name is
imported from its submodule.
"""

from .channels import build_channels, effective_channels
from .geometry import ScenarioConfig, build_geometry, default_config
from .sim import pa_surface, run_sweep, write_csv

__version__ = "0.1.0"

__all__ = [
    "ScenarioConfig", "build_channels", "build_geometry", "default_config",
    "effective_channels", "pa_surface", "run_sweep", "write_csv",
]
