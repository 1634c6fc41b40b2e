"""Reflection settings for the two surfaces: geometric-parallelogram phase
synthesis, the random-phase baseline, the all-off baseline, and the
single-surface masks.

Per element m the two cascaded paths through a surface contribute phasors
exp(j theta1(m)) (toward Bob) and exp(j theta2(m)) (toward Alice); the
synthesis phase rotates their vector sum onto the positive real axis so
the reflected power delivered to both ends simultaneously is maximized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import phase_ramp, unit_phasor
from .geometry import InvalidGeometryError

MODES = ("gpg", "random", "none", "ris1-only", "ris2-only")
# The modes whose reflections read the seed; every other mode ignores it.
SEEDED_MODES = ("random",)

# Antipodal leg phasors leave the synthesized power at zero for any phase.
ANTIPODAL_TOL = 1e-12


@dataclass(frozen=True)
class RisReflection:
    """Per-element amplitude (0 or 1) and phase in [0, 2 pi) for one surface."""

    amplitudes: np.ndarray
    phases: np.ndarray
    flagged: np.ndarray | None = None  # elements where synthesis was degenerate

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        phases = np.asarray(self.phases, dtype=float)
        if amps.shape != phases.shape or amps.ndim != 1 or amps.size < 1:
            raise InvalidGeometryError("amplitudes and phases must be equal-length 1-D arrays")
        if not np.all((amps == 0.0) | (amps == 1.0)):
            raise InvalidGeometryError("amplitudes must be 0 or 1")
        if not np.all((phases >= 0.0) & (phases < 2.0 * np.pi)):
            raise InvalidGeometryError("phases must lie in [0, 2 pi)")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "phases", phases)

    def coefficients(self):
        """The M complex reflection coefficients amplitude * exp(j phase).

        The phasor is ``unit_phasor(phase)``, bit for bit ``np.exp(1j * phase)``.
        """
        return self.amplitudes * unit_phasor(self.phases)


def leg_phases(geom, which_ris, config):
    """The per-element leg phases (theta1, theta2) of one surface, radians.

    theta1 tracks the Alice -> surface -> Bob cascade, theta2 the
    Bob -> surface -> Alice cascade.
    """
    ris = {1: "i1", 2: "i2"}[which_ris]
    m, d = config.M, config.d_over_lambda
    theta1 = 2.0 * np.pi * (
        phase_ramp(geom[("a", ris)].theta_r, m, d) - phase_ramp(geom[(ris, "b")].theta_t, m, d)
    )
    theta2 = 2.0 * np.pi * (
        phase_ramp(geom[("b", ris)].theta_r, m, d) - phase_ramp(geom[(ris, "a")].theta_t, m, d)
    )
    return theta1, theta2


def synthesis_phase(theta1, theta2):
    """Per-element reflection phase from the two leg phases.

    phi = -arg(exp(j theta1) + exp(j theta2)), the exact maximizer of the
    combined reflected power: the parallelogram diagonal of the two unit
    leg phasors, rotated onto the positive real axis.  Antipodal legs
    (|theta2 - theta1| = pi) leave any phase powerless; those elements get
    phi = -theta1 and are flagged.  The leg phasors come from
    ``unit_phasor``, bit for bit ``np.exp(1j * theta)``.

    Returns (phases in [0, 2 pi), flags).
    """
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    total = unit_phasor(theta1) + unit_phasor(theta2)
    degenerate = np.abs(total) < ANTIPODAL_TOL
    phi = np.where(degenerate, -theta1, -np.angle(np.where(degenerate, 1.0, total)))
    phases = np.mod(phi, 2.0 * np.pi)
    # np.mod rounds a phase just below 0 up to 2 pi, which is the phase 0.
    return np.where(phases == 2.0 * np.pi, 0.0, phases), degenerate


def gpg_phases(geom, which_ris, config):
    """Reflection setting for one surface under the parallelogram criterion."""
    theta1, theta2 = leg_phases(geom, which_ris, config)
    phases, flags = synthesis_phase(theta1, theta2)
    return RisReflection(
        amplitudes=np.ones(config.M),
        phases=phases,
        flagged=flags if flags.any() else None,
    )


def random_phases(m, seed):
    """Phases i.i.d. uniform on [0, 2 pi), all elements on; deterministic per seed."""
    if m < 1:
        raise InvalidGeometryError(f"element count must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    return RisReflection(amplitudes=np.ones(m), phases=rng.uniform(0.0, 2.0 * np.pi, size=m))


def zero_reflection(m):
    """All elements off: the no-surface baseline."""
    if m < 1:
        raise InvalidGeometryError(f"element count must be >= 1, got {m}")
    return RisReflection(amplitudes=np.zeros(m), phases=np.zeros(m))


def reflections_for(mode, geom, config, seed=0):
    """The (Theta1, Theta2) pair for a named operating mode.

    Single-surface modes keep the parallelogram design on the active
    surface and switch the other one off.
    """
    if mode == "gpg":
        return gpg_phases(geom, 1, config), gpg_phases(geom, 2, config)
    if mode == "random":
        rng = np.random.default_rng(seed)
        lo, hi = rng.integers(0, 2**63 - 1, size=2)
        return random_phases(config.M, int(lo)), random_phases(config.M, int(hi))
    if mode == "none":
        return zero_reflection(config.M), zero_reflection(config.M)
    if mode == "ris1-only":
        return gpg_phases(geom, 1, config), zero_reflection(config.M)
    if mode == "ris2-only":
        return zero_reflection(config.M), gpg_phases(geom, 2, config)
    raise ValueError(f"unknown reflection mode '{mode}' (choose from {MODES})")
