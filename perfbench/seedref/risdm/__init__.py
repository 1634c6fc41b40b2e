"""Double-RIS-aided two-way directional-modulation network simulator.

Pipeline: scenario config -> planar geometry -> rank-1 LoS channels ->
reflection phase design -> beamformers -> secrecy sum rate -> power
allocation, plus a sweep driver reproducing the comparative experiments.
"""

from .beamforming import BeamformerSet, design_beamformers
from .channels import ChannelSet, EffectiveChannels, build_channels, effective_channels, steering_vector
from .geometry import (
    Placement,
    ScenarioConfig,
    build_geometry,
    default_config,
    default_placement,
    geometry_summary,
    path_loss,
)
from .power_allocation import (
    PaOutcome,
    allocate,
    epa,
    es_1d,
    es_2d,
    ferrari_roots,
    hicf,
    newton_root,
    sextic_coeffs,
)
from .rates import ScalarGains, rate_objective, rates_matrix_form, scalar_gains, ssr
from .ris import RisReflection, gpg_phases, random_phases, reflections_for, zero_reflection
from .sim import SweepRecord, SweepSpec, emit_csv, pa_surface, run_sweep, write_csv

__version__ = "0.1.0"

__all__ = [
    "BeamformerSet", "ChannelSet", "EffectiveChannels", "PaOutcome", "Placement",
    "RisReflection", "ScalarGains", "ScenarioConfig", "SweepRecord", "SweepSpec",
    "allocate", "build_channels", "build_geometry", "default_config", "default_placement",
    "design_beamformers", "effective_channels", "emit_csv", "epa", "es_1d", "es_2d",
    "ferrari_roots", "geometry_summary", "gpg_phases", "hicf", "newton_root",
    "pa_surface", "path_loss", "random_phases", "rate_objective", "rates_matrix_form",
    "reflections_for", "run_sweep", "scalar_gains", "sextic_coeffs", "ssr",
    "steering_vector", "write_csv", "zero_reflection",
]
