"""Steering vectors, rank-1 LoS link matrices, and cascaded effective channels.

Each directed link (tx -> rx) is the unit-spectral-norm outer product
h(theta_r) h(theta_t)^H of the receive and transmit steering vectors, which
the channel set keeps, so no later stage computes a steering vector; path
gains stay out of the link matrices and enter the effective channels as
sqrt-composite weights, mirroring the system equations.  Each effective
channel keeps its three path terms, keyed by the node each passes through.  A surface enters
the cascades as its M reflection coefficients, never as an M x M matrix:
the diagonal product runs in 8-column blocks (the last one 8 to 15 wide),
all full blocks of a link in one stacked matmul, so the cost of a cascade
grows linearly in M and each term keeps the bits of the dense product.
Unit phasors are built from real cosines and sines (``unit_phasor``), with
the bits of the complex exponential they replace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import LINKS, InvalidGeometryError


def steering_vector(theta, n, d_over_lambda):
    """Normalized ULA steering vector toward angle ``theta``.

    Entry n is (1/sqrt(N)) exp(j 2 pi Psi(n)) with the phase ramp
    Psi(n) = -(n - (N+1)/2) (d/lambda) cos(theta), n = 1..N, so the ramp is
    antisymmetric about the array center and the vector has unit norm.  The
    phasor is ``unit_phasor(2 pi Psi)``, bit for bit ``np.exp(2j * np.pi * Psi)``.
    """
    if n < 1:
        raise InvalidGeometryError(f"array size must be >= 1, got {n}")
    if not 0.0 < theta < math.pi:
        raise InvalidGeometryError(f"steering angle must lie in (0, pi), got {theta}")
    return unit_phasor(2.0 * np.pi * phase_ramp(theta, n, d_over_lambda)) / math.sqrt(n)


def unit_phasor(x):
    """exp(j x) for a real array ``x``, written as cos x + j sin x.

    Bit for bit ``np.exp(1j * x)`` wherever numpy's complex exp returns the
    real ``np.cos`` and ``np.sin`` of the imaginary part (numpy 2.4 on
    x86-64 does, with its SIMD targets on or off; ``tests/test_channels.py``
    checks it), without the complex product and exponential.  That
    imaginary part is ``0.0 + x``, which turns -0 into +0.
    """
    x = 0.0 + x
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def phase_ramp(theta, n, d_over_lambda):
    """The steering phase function Psi(n), n = 1..N, in cycles."""
    idx = np.arange(1, n + 1, dtype=float)
    return -(idx - (n + 1) / 2.0) * d_over_lambda * math.cos(theta)


@dataclass(frozen=True)
class ChannelSet:
    """All fourteen links: their geometry, steering pairs and rank-1 matrices.

    ``steering[(tx, rx)]`` is the pair (h_r, h_t) and ``mats[(tx, rx)]``
    its outer product h_r h_t^H, of shape (size(rx), size(tx)).  Gains are
    linear; composite two-hop gains are products of the link gains.
    """

    geom: dict
    steering: dict
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
        return self.steering[(tx, rx)][1]

    def arrival_steering(self, tx, rx):
        """h(theta_r) of the link, sized by the receiver array."""
        return self.steering[(tx, rx)][0]


def build_channels(geom, config):
    """The steering pair (h_r, h_t) and rank-1 LoS matrix h_r h_t^H of every link."""
    steering, mats = {}, {}
    for tx, rx in LINKS:
        link = geom[(tx, rx)]
        h_r = steering_vector(link.theta_r, config.node_size(rx), config.d_over_lambda)
        h_t = steering_vector(link.theta_t, config.node_size(tx), config.d_over_lambda)
        steering[(tx, rx)] = h_r, h_t
        mats[(tx, rx)] = np.outer(h_r, h_t.conj())
    return ChannelSet(geom=geom, steering=steering, mats=mats)


@dataclass(frozen=True)
class EffectiveChannels:
    """The four cascaded end-to-end channels as functions of (Theta1, Theta2).

    ``paths[name]`` holds the channel's terms keyed by the node each passes
    through, e.g. ``paths["h_b"] == {"i1": ..., "i2": ..., "a": ...}``; the
    channel is their sum, in that order.
    """

    h_a: np.ndarray  # Na x Nb, Bob -> Alice
    h_b: np.ndarray  # Nb x Na, Alice -> Bob
    h_e1: np.ndarray  # Ne x Na, Alice -> Eve
    h_e2: np.ndarray  # Ne x Nb, Bob -> Eve
    paths: dict


# (effective channel, transmitter, receiver)
EFFECTIVE_LINKS = (("h_a", "b", "a"), ("h_b", "a", "b"), ("h_e1", "a", "e"), ("h_e2", "b", "e"))


# a @ diag(d) is taken in column blocks that start at multiples of
# _DIAG_BLOCK and are _DIAG_BLOCK wide, except the last, which is
# _DIAG_BLOCK to 2 * _DIAG_BLOCK - 1 wide (8 to 15).  The zeros of a dense
# diag(d) add exact zeros in gemm, so each output column depends only on its
# own product and on its place in the kernel's unroll grid.  Aligned starts
# keep that grid as in the dense product, and the minimum width keeps narrow
# tails off other kernel paths (a one-column block rounds differently), so
# every term is bit-identical to the dense a @ diag(d) wherever that product
# is itself column-local (OpenBLAS's Haswell and Zen kernels break this for
# some row counts at M >= 193: README "Reproducibility").  A w-wide block
# does w multiply-adds per output column, w - 1 of them against exact zeros,
# so narrow blocks waste less until the gemm calls' own cost dominates.  One
# 8 x 4000 link took 548, 400, 473 and 526 us at w = 4, 8, 16 and 32 under
# OpenBLAS 0.3.31's SkylakeX kernels (2-vCPU Xeon, one thread), 408, 471,
# 722 and 1261 us under its Sandybridge and 332, 285, 373 and 600 us under
# its Haswell kernels.
_DIAG_BLOCK = 8


def _surface_terms(channels, ris, reflection):
    """The reflected term through one surface of every effective channel.

    Each term is sqrt(g) * m(ris, rx) @ diag(d) @ m(tx, ris).  The full
    blocks of the diagonal product are one stacked matmul over a strided
    view of the columns; numpy calls gemm once per block there, with the
    same shapes and leading dimension as ``a[:, s:e] @ np.diag(d[s:e])``,
    so each block rounds as that product does.  The last block is one 2-D
    product.
    """
    d, size = reflection.coefficients(), channels.arrival_steering("a", ris).size
    if d.shape != (size,):
        raise InvalidGeometryError(f"reflection has {d.size} elements, expected {size}")
    w = _DIAG_BLOCK
    nb = max(size // w - 1, 0)
    last = nb * w
    diag = np.zeros((nb, w, w), dtype=d.dtype)
    idx = np.arange(w)
    diag[:, idx, idx] = d[:last].reshape(nb, w)
    tail = np.diag(d[last:])
    g = channels.cascade_gain
    m = channels.mat
    terms = []
    for _, tx, rx in EFFECTIVE_LINKS:
        a = math.sqrt(g(tx, ris, rx)) * m(ris, rx)
        n = a.shape[0]
        reflected = np.empty_like(a)
        # both reshapes split only the contiguous column axis, so they are
        # views and matmul writes straight into reflected
        np.matmul(
            a[:, :last].reshape(n, nb, w).transpose(1, 0, 2), diag,
            out=reflected[:, :last].reshape(n, nb, w).transpose(1, 0, 2),
        )
        reflected[:, last:] = a[:, last:] @ tail
        terms.append(reflected @ m(tx, ris))
    return terms


def effective_channels(channels, reflection1, reflection2):
    """Assemble H_a, H_b, H_e1, H_e2 and their per-path terms.

    Each channel is the sum of the two sqrt-composite-gain reflected paths
    and the sqrt-gain direct path, every gain taken from the directed links
    the path traverses.  ``reflection1`` and ``reflection2`` are the
    ``RisReflection`` settings of the two surfaces.
    """
    surface1 = _surface_terms(channels, "i1", reflection1)
    surface2 = _surface_terms(channels, "i2", reflection2)
    chans, paths = {}, {}
    for (name, tx, rx), p1, p2 in zip(EFFECTIVE_LINKS, surface1, surface2):
        direct = math.sqrt(channels.gain(tx, rx)) * channels.mat(tx, rx)
        paths[name] = {"i1": p1, "i2": p2, tx: direct}
        chans[name] = p1 + p2 + direct
    return EffectiveChannels(**chans, paths=paths)
