"""Transmit, artificial-noise, and receive beamformer construction.

Two transmit designs are provided: the dominant-singular-pair design
("max-sv") and the generalized leakage design ("leakage", SLNR for the
message stream, leakage-to-signal ratio for the noise stream).  Receivers
use either the dominant left singular vector (max-sv) or a zero-forcing
separation of the arriving paths followed by coherent recombination.  The
eavesdropper always runs the four-branch ZF combiner.

The designs are split by the inputs each part reads, so a sweep can
compute each part once per distinct input: the ZF vectors of a receiver
(:func:`receiver_zf`) read only its arrival steerings, the max-sv vectors
(:func:`max_sv_beamformers`) only the effective channels, and the leakage
transmitters (:func:`leakage_transmitters`) the links, powers and split.
:func:`design_beamformers` composes the parts for one scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

# A projected steering vector shorter than this means two arrival
# directions nearly coincide; the branch is dropped instead of amplified.
DEGENERATE_BRANCH_TOL = 1e-10
AN_FALLBACK_TOL = 1e-12


class DegenerateChannelError(ValueError):
    """Raised when an effective channel is identically zero."""


class InsufficientAntennasError(ValueError):
    """Raised when a receiver lacks the antennas for the requested ZF split."""


@dataclass(frozen=True)
class BeamformerSet:
    """All seven unit-norm beamformers of one scenario plus the method tag."""

    v_at: np.ndarray
    v_bt: np.ndarray
    w_a: np.ndarray
    w_b: np.ndarray
    v_ar: np.ndarray
    v_br: np.ndarray
    v_er: np.ndarray
    method: str


def _unit(v):
    n = np.linalg.norm(v)
    if n == 0:
        raise DegenerateChannelError("cannot normalize a zero vector")
    return v / n


def max_sv_design(eff):
    """Transmit/receive pairs from the dominant singular pairs.

    Returns (v_at, v_br, v_bt, v_ar): the right/left dominant singular
    vectors of the Alice->Bob effective channel and of the Bob->Alice one.
    """
    if np.linalg.norm(eff.h_b) == 0 or np.linalg.norm(eff.h_a) == 0:
        raise DegenerateChannelError("effective channel is identically zero")
    dec_b = linalg.svd(eff.h_b)
    dec_a = linalg.svd(eff.h_a)
    return dec_b.v[:, 0], dec_b.u[:, 0], dec_a.v[:, 0], dec_a.u[:, 0]


def an_nullspace_design(v_cm, h_eve_departure):
    """Artificial-noise vector: eavesdropper-pointing, orthogonal to the message.

    Projects the eavesdropper departure steering onto the orthogonal
    complement of the message beamformer and renormalizes to unit norm
    (the power split carries the budget, not the vector).  If the
    eavesdropper direction lies inside the message subspace, any unit
    vector orthogonal to it is returned and the fallback is flagged.

    Returns (w, fallback_used).
    """
    v = np.asarray(v_cm, dtype=complex)
    h = np.asarray(h_eve_departure, dtype=complex)
    t = np.eye(v.size) - np.outer(v, v.conj())
    u = t.conj().T @ h
    if np.linalg.norm(u) < AN_FALLBACK_TOL:
        # Eve parallel to the message direction: pick any orthogonal unit vector.
        basis = np.eye(v.size, dtype=complex)
        proj = basis - np.outer(v, v.conj() @ basis)
        k = int(np.argmax(np.linalg.norm(proj, axis=0)))
        return _unit(proj[:, k]), True
    return _unit(t @ (u / np.linalg.norm(u))), False


# Arrival branches of each ZF receiver, in branch order: surface-1
# reflection, surface-2 reflection, then the direct path(s).
ZF_BRANCHES = {"a": ("i1", "i2", "b"), "b": ("i1", "i2", "a"), "e": ("i1", "i2", "a", "b")}


def _zf_branches(steerings):
    """Per-branch ZF vectors: each nulls every other arrival steering.

    Returns (vectors, dropped) where dropped marks branches whose desired
    direction was annihilated by the nulling projector.
    """
    n = steerings[0].size
    vectors, dropped = [], []
    for i, h_i in enumerate(steerings):
        others = np.vstack([steerings[j].conj() for j in range(len(steerings)) if j != i])
        gram = others @ others.conj().T
        proj = np.eye(n) - others.conj().T @ linalg.pinv(gram) @ others
        v_i = proj @ h_i
        if np.linalg.norm(v_i) < DEGENERATE_BRANCH_TOL:
            vectors.append(np.zeros(n, dtype=complex))
            dropped.append(True)
        else:
            vectors.append(v_i)
            dropped.append(False)
    return vectors, dropped


def receiver_zf(channels, rx):
    """ZF vectors and drop flags of receiver ``rx`` over its ``ZF_BRANCHES``.

    Reads only the arrival steerings, so one channel set has one result
    per receiver, whatever the powers, split or reflections.
    """
    steerings = [channels.arrival_steering(tx, rx) for tx in ZF_BRANCHES[rx]]
    n, k = steerings[0].size, len(steerings)
    if n < k:
        raise InsufficientAntennasError(
            f"receiver '{rx}' needs >= {k} antennas for {k}-way ZF, has {n}"
        )
    return _zf_branches(steerings)


def _mrc_weight(signal):
    """Unit-magnitude combining weight conj(s)/|s|; 0 for a dead branch."""
    mag = abs(signal)
    if mag < 1e-300:
        return 0.0
    return np.conj(signal) / mag


def mrc_weights(zf, arrivals):
    """The unit-magnitude branch weights of one ZF+MRC combiner.

    ``zf`` is a :func:`receiver_zf` result and ``arrivals[i]`` the message
    signal vector arriving along branch i; each weight phase-aligns its
    branch to it, and a dropped branch weighs 0.
    """
    vecs, dropped = zf
    return [
        0.0 if drop else _mrc_weight(v.conj() @ y) for v, y, drop in zip(vecs, arrivals, dropped)
    ]


def zf_mrc(zf, arrivals):
    """Unit-norm ZF-separating, coherently-recombining combiner.

    Sums the ZF sub-vectors of ``zf``, each phase-aligned to its arrival.
    """
    vecs, _ = zf
    weights = mrc_weights(zf, arrivals)
    return _unit(sum(np.conj(w) * v for w, v in zip(weights, vecs)))


def eve_arrivals(eff, v_at, v_bt, config):
    """The message signal arriving along each of Eve's four branches.

    Branch order: surface-1 reflection, surface-2 reflection, Alice direct,
    Bob direct.  A surface branch carries both message streams at their
    configured powers.
    """
    from_a, from_b = eff.paths["h_e1"], eff.paths["h_e2"]
    amp_a = math.sqrt(config.beta1 * config.pa_mw)
    amp_b = math.sqrt(config.beta2 * config.pb_mw)
    arrivals = [amp_a * from_a[k] @ v_at + amp_b * from_b[k] @ v_bt for k in (0, 1)]
    return arrivals + [from_a[2] @ v_at, from_b[2] @ v_bt]


def _leakage_matrices(channels, config, side):
    """Desired-power and eavesdropper-leakage matrices of one transmit side."""
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got '{side}'")
    other = "b" if side == "a" else "a"

    def power(rx):
        link = channels.mat(side, rx)
        return channels.gain(side, rx) * link.conj().T @ link

    return power("i1") + power("i2") + power(other), power("e")


def _power_fraction(config, side):
    """The message power fraction of one side; rejects values outside [0, 1]."""
    beta = config.beta1 if side == "a" else config.beta2
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"message power fraction must lie in [0, 1], got {beta}")
    return beta


def _noise_loading(sigma2, stream_power):
    """The diagonal loading sigma2 / stream_power of a leakage design.

    Infinite where the stream power is 0, and where it is so small that
    the quotient overflows.
    """
    return sigma2 / stream_power if stream_power > 0.0 else math.inf


def slnr_transmit(channels, config, side):
    """Message beamformer maximizing the signal-to-leakage-and-noise ratio.

    The dominant generalized eigenvector of (desired-channel power,
    eavesdropper leakage + scaled receiver noise).  Where the noise term
    is infinite (beta = 0, or a message power so small that it overflows),
    the design is its limit: the dominant eigenvector of the
    desired-channel power alone.
    """
    beta = _power_fraction(config, side)
    power = config.pa_mw if side == "a" else config.pb_mw
    desired, eve = _leakage_matrices(channels, config, side)
    n = desired.shape[0]
    noise = _noise_loading(config.sigma2_e_mw, beta * power)
    if math.isinf(noise):
        return linalg.dominant_generalized_eigvec(desired, np.eye(n))
    return linalg.dominant_generalized_eigvec(desired, eve + noise * np.eye(n))


def lansr_an(channels, config, side):
    """Noise beamformer maximizing the leakage-to-signal ratio at Eve.

    The dominant generalized eigenvector of (eavesdropper power,
    desired-channel leakage + scaled noise).  Where the noise term is
    infinite (beta = 1, or a noise power so small that it overflows), the
    design is its limit: the dominant eigenvector of the eavesdropper
    power alone.
    """
    beta = _power_fraction(config, side)
    power = config.pa_mw if side == "a" else config.pb_mw
    desired, eve = _leakage_matrices(channels, config, side)
    n = desired.shape[0]
    sigma2 = config.sigma2_b_mw if side == "a" else config.sigma2_a_mw
    noise = _noise_loading(sigma2, (1.0 - beta) * power)
    if math.isinf(noise):
        return linalg.dominant_generalized_eigvec(eve, np.eye(n))
    return linalg.dominant_generalized_eigvec(eve, desired + noise * np.eye(n))


def three_way_arrivals(eff, v_t_other_side, side):
    """The message signal arriving at Alice or Bob along each of its three branches.

    Branches: surface-1 reflection, surface-2 reflection, direct path from
    the other end.
    """
    return [term @ v_t_other_side for term in eff.paths[f"h_{side}"]]


def max_sv_beamformers(channels, eff):
    """The max-sv message, noise and receive vectors, as ``BeamformerSet`` fields.

    Reads the effective channels and the departure steerings toward Eve;
    no power or split.
    """
    v_at, v_br, v_bt, v_ar = max_sv_design(eff)
    w_a, _ = an_nullspace_design(v_at, channels.departure_steering("a", "e"))
    w_b, _ = an_nullspace_design(v_bt, channels.departure_steering("b", "e"))
    return dict(v_at=v_at, v_bt=v_bt, w_a=w_a, w_b=w_b, v_ar=v_ar, v_br=v_br)


def leakage_transmitters(channels, config):
    """The SLNR message and LANSR noise vectors, as ``BeamformerSet`` fields.

    Reads the link matrices, powers and split; no reflection.
    """
    return dict(
        v_at=slnr_transmit(channels, config, "a"), v_bt=slnr_transmit(channels, config, "b"),
        w_a=lansr_an(channels, config, "a"), w_b=lansr_an(channels, config, "b"),
    )


def design_beamformers(channels, eff, config, method):
    """Build the full beamformer set for one scenario.

    method "max-sv": dominant singular pairs for the message streams,
    null-space noise vectors, dominant left singular vectors as receivers.
    method "leakage": SLNR message + LANSR noise transmitters, three-way ZF
    receivers at Alice/Bob.  Both use the four-way ZF combiner at Eve.
    Every receiver reads the effective channels ``eff`` and their per-path
    terms.
    """
    if method == "max-sv":
        parts = max_sv_beamformers(channels, eff)
    elif method == "leakage":
        parts = leakage_transmitters(channels, config)
        parts["v_br"] = zf_mrc(receiver_zf(channels, "b"),
                               three_way_arrivals(eff, parts["v_at"], "b"))
        parts["v_ar"] = zf_mrc(receiver_zf(channels, "a"),
                               three_way_arrivals(eff, parts["v_bt"], "a"))
    else:
        raise ValueError(f"unknown beamforming method '{method}'")
    v_er = zf_mrc(receiver_zf(channels, "e"),
                  eve_arrivals(eff, parts["v_at"], parts["v_bt"], config))
    return BeamformerSet(**parts, v_er=v_er, method=method)
