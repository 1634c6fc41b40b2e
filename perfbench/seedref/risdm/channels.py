"""Steering vectors, rank-1 LoS link matrices, and cascaded effective channels.

Each directed link (tx -> rx) is the unit-spectral-norm outer product
h(theta_r) h(theta_t)^H of the receive and transmit steering vectors; path
gains stay out of the link matrices and enter the effective channels as
sqrt-composite weights, mirroring the system equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import LINKS, InvalidGeometryError


def steering_vector(theta, n, d_over_lambda=0.5):
    """Normalized ULA steering vector toward angle ``theta``.

    Entry n is (1/sqrt(N)) exp(j 2 pi Psi(n)) with the phase ramp
    Psi(n) = -(n - (N+1)/2) (d/lambda) cos(theta), n = 1..N, so the ramp is
    antisymmetric about the array center and the vector has unit norm.
    """
    if n < 1:
        raise InvalidGeometryError(f"array size must be >= 1, got {n}")
    if not 0.0 < theta < math.pi:
        raise InvalidGeometryError(f"steering angle must lie in (0, pi), got {theta}")
    return np.exp(2j * np.pi * phase_ramp(theta, n, d_over_lambda)) / math.sqrt(n)


def phase_ramp(theta, n, d_over_lambda=0.5):
    """The steering phase function Psi(n), n = 1..N, in cycles."""
    idx = np.arange(1, n + 1, dtype=float)
    return -(idx - (n + 1) / 2.0) * d_over_lambda * math.cos(theta)


@dataclass(frozen=True)
class ChannelSet:
    """All fourteen rank-1 link matrices plus the link geometry behind them.

    ``mats[(tx, rx)]`` has shape (size(rx), size(tx)).  Gains are linear;
    composite two-hop gains are products of the constituent link gains.
    """

    config: object
    geom: dict
    mats: dict

    def mat(self, tx, rx):
        return self.mats[(tx, rx)]

    def gain(self, tx, rx):
        return self.geom[(tx, rx)].gain

    def cascade_gain(self, src, ris, dst):
        """Composite gain of the src -> ris -> dst double hop."""
        return self.gain(src, ris) * self.gain(ris, dst)

    def departure_steering(self, tx, rx):
        """h(theta_t) of the link, sized by the transmitter array."""
        link = self.geom[(tx, rx)]
        return steering_vector(link.theta_t, self.config.node_size(tx), self.config.d_over_lambda)

    def arrival_steering(self, tx, rx):
        """h(theta_r) of the link, sized by the receiver array."""
        link = self.geom[(tx, rx)]
        return steering_vector(link.theta_r, self.config.node_size(rx), self.config.d_over_lambda)


def build_channels(geom, config):
    """Rank-1 LoS matrix h(theta_r) h(theta_t)^H for every directed link."""
    mats = {}
    for tx, rx in LINKS:
        link = geom[(tx, rx)]
        h_r = steering_vector(link.theta_r, config.node_size(rx), config.d_over_lambda)
        h_t = steering_vector(link.theta_t, config.node_size(tx), config.d_over_lambda)
        mats[(tx, rx)] = np.outer(h_r, h_t.conj())
    return ChannelSet(config=config, geom=geom, mats=mats)


@dataclass(frozen=True)
class EffectiveChannels:
    """The four cascaded end-to-end channels as functions of (Theta1, Theta2)."""

    h_a: np.ndarray  # Na x Nb, Bob -> Alice
    h_b: np.ndarray  # Nb x Na, Alice -> Bob
    h_e1: np.ndarray  # Ne x Na, Alice -> Eve
    h_e2: np.ndarray  # Ne x Nb, Bob -> Eve


def _theta_matrix(reflection, m):
    """Accept a RisReflection or a raw M x M diagonal reflection matrix."""
    if hasattr(reflection, "matrix"):
        theta = reflection.matrix()
    else:
        theta = np.asarray(reflection, dtype=complex)
    if theta.shape != (m, m):
        raise InvalidGeometryError(
            f"reflection matrix has shape {theta.shape}, expected ({m}, {m})"
        )
    return theta


def effective_channels(channels, reflection1, reflection2):
    """Assemble H_a, H_b, H_e1, H_e2 for the given reflection settings.

    Each is the sum of the two sqrt-composite-gain reflected paths and the
    sqrt-gain direct path.
    """
    cfg = channels.config
    t1 = _theta_matrix(reflection1, cfg.M)
    t2 = _theta_matrix(reflection2, cfg.M)
    g = channels.cascade_gain
    m = channels.mat

    h_b = (
        math.sqrt(g("a", "i1", "b")) * m("i1", "b") @ t1 @ m("a", "i1")
        + math.sqrt(g("a", "i2", "b")) * m("i2", "b") @ t2 @ m("a", "i2")
        + math.sqrt(channels.gain("a", "b")) * m("a", "b")
    )
    h_a = (
        math.sqrt(g("a", "i1", "b")) * m("i1", "a") @ t1 @ m("b", "i1")
        + math.sqrt(g("a", "i2", "b")) * m("i2", "a") @ t2 @ m("b", "i2")
        + math.sqrt(channels.gain("a", "b")) * m("b", "a")
    )
    h_e1 = (
        math.sqrt(g("a", "i1", "e")) * m("i1", "e") @ t1 @ m("a", "i1")
        + math.sqrt(g("a", "i2", "e")) * m("i2", "e") @ t2 @ m("a", "i2")
        + math.sqrt(channels.gain("a", "e")) * m("a", "e")
    )
    h_e2 = (
        math.sqrt(g("b", "i1", "e")) * m("i1", "e") @ t1 @ m("b", "i1")
        + math.sqrt(g("b", "i2", "e")) * m("i2", "e") @ t2 @ m("b", "i2")
        + math.sqrt(channels.gain("b", "e")) * m("b", "e")
    )
    return EffectiveChannels(h_a=h_a, h_b=h_b, h_e1=h_e1, h_e2=h_e2)
