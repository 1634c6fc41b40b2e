"""Transmit, artificial-noise, and receive beamformer construction.

Two transmit designs are provided: the dominant-singular-pair design
("max-sv") and the generalized leakage design ("leakage", SLNR for the
message stream, leakage-to-signal ratio for the noise stream).  Receivers
use either the dominant left singular vector (max-sv) or a zero-forcing
separation of the arriving paths followed by coherent recombination.  The
eavesdropper always runs the four-branch ZF combiner.

Max-sv reads one dominant singular pair per direction
(:func:`dominant_singular_pair`).  The leakage design builds each side's
pencil once and takes both of that side's vectors from it
(:func:`leakage_side`).  Its generalized eigensolver is scipy's compiled
LAPACK module, loaded on the first leakage design without the rest of
``scipy.linalg`` (:func:`_lapack`), since no other path needs scipy.

The designs are split by the inputs each part reads, so a sweep can
compute each part once per distinct input: the ZF vectors of a receiver
(:func:`receiver_zf`) read only its arrival steerings, the max-sv vectors
(:func:`max_sv_beamformers`) only the effective channels, and each side's
leakage vectors (:func:`leakage_side`) the links, powers and split.
A ZF+MRC combiner (:func:`zf_mrc`) reads a receiver's ZF vectors, the
effective channels' path terms, the transmit vectors and the split; it
reads each branch's term under the branch's ``ZF_BRANCHES`` name.  A
dropped ZF branch is the zero vector, so its signal and weight are 0.
:func:`risdm.sim.point_design` is the one caller that composes these
parts into a :class:`BeamformerSet`, with each part memoized under the
inputs it reads; it holds the only branch on the method.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

# A projected steering vector shorter than this means two arrival
# directions nearly coincide; the branch is dropped instead of amplified.
DEGENERATE_BRANCH_TOL = 1e-10
AN_FALLBACK_TOL = 1e-12
SINGULAR_B_RATIO = 1e-14  # smallest/largest eigenvalue of B below this -> singular


class InvalidInputError(ValueError):
    """Raised for non-finite or structurally invalid inputs."""


class SingularMatrixError(ValueError):
    """Raised when a matrix required to be invertible is numerically singular."""


class DegenerateChannelError(ValueError):
    """Raised when an effective channel is identically zero."""


class InsufficientAntennasError(ValueError):
    """Raised when a receiver lacks the antennas for the requested ZF split."""


@dataclass(frozen=True)
class BeamformerSet:
    """All seven unit-norm beamformers of one scenario."""

    v_at: np.ndarray
    v_bt: np.ndarray
    w_a: np.ndarray
    w_b: np.ndarray
    v_ar: np.ndarray
    v_br: np.ndarray
    v_er: np.ndarray


def _unit(v):
    n = np.linalg.norm(v)
    if n == 0:
        raise DegenerateChannelError("cannot normalize a zero vector")
    return v / n


def _check_finite(a, name="matrix"):
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        raise InvalidInputError(f"{name} is empty")
    if not np.all(np.isfinite(a)):  # complex: checks both parts
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def _pivot_phase(col):
    """The unit factor that turns the largest entry of ``col`` real positive; 1 if zero.

    It makes singular and eigen vectors reproducible across LAPACK
    backends, but not the rates: Eve's combiner aligns to the coherent sum
    of both transmit vectors, so the SSR moves with the relative phase of
    ``v_at`` and ``v_bt`` that this convention fixes.
    """
    pivot = col[int(np.argmax(np.abs(col)))]
    return np.conj(pivot) / abs(pivot) if abs(pivot) > 0 else 1.0


def dominant_singular_pair(a):
    """(u, v): the dominant left and right singular vectors of ``a``.

    The pair's one free phase is fixed on u (largest entry real positive)
    and carried onto v, so ``u^H a v`` is the largest singular value.
    """
    u, _, vh = np.linalg.svd(_check_finite(a), full_matrices=False)
    rot = _pivot_phase(u[:, 0])
    return u[:, 0] * rot, vh[0].conj() * rot


def _lapack():
    """scipy's compiled LAPACK module, loaded without ``scipy.linalg``.

    Importing any module under ``scipy.linalg`` first runs the package's
    ``__init__``, which loads all of it (some 85 modules) to reach one
    routine.  So the extension ``scipy.linalg._flapack``, the module
    ``scipy.linalg.lapack`` re-exports, is loaded straight from scipy's
    ``linalg`` directory and registered under its own name, where a later
    ``import scipy.linalg`` finds and reuses it.  A copy already in
    ``sys.modules`` is used as it is; if the file is not found,
    ``scipy.linalg.lapack`` is imported instead.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy
    from importlib import machinery, util

    finder = machinery.FileFinder(
        os.path.join(os.path.dirname(scipy.__file__), "linalg"),
        (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(name)
    if spec is None:
        import scipy.linalg.lapack

        return scipy.linalg.lapack
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def dominant_generalized_eigvec(a, b):
    """Unit vector maximizing the generalized Rayleigh quotient v^H A v / v^H B v.

    A must be Hermitian PSD and B Hermitian positive definite; the result is
    the dominant eigenvector of the pencil (A, B), i.e. of B^{-1} A, with
    its largest entry real positive.  The pencil goes to LAPACK's
    ``zhegvd`` with the arguments ``scipy.linalg.eigh(a, b)`` passes for
    complex input, from the module :func:`_lapack` loads on the first
    call: importing all of ``scipy.linalg`` costs more than most
    commands' work.

    Raises
    ------
    SingularMatrixError
        If B's eigenvalue spread exceeds 1e14 (condition estimate), rather
        than silently regularizing.
    numpy.linalg.LinAlgError
        If ``zhegvd`` reports a failure (non-zero ``info``), as ``eigh`` does.
    """
    a = _check_finite(a, "A")
    b = _check_finite(b, "B")
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise InvalidInputError("A and B must be square and of equal size")
    beig = np.linalg.eigvalsh(b)
    if beig[0] <= SINGULAR_B_RATIO * beig[-1]:
        raise SingularMatrixError(
            f"B is numerically singular (eigenvalue ratio {beig[0] / beig[-1]:.3e})"
        )
    _, vecs, info = _lapack().zhegvd(a, b, itype=1, jobz="V", uplo="L")
    if info != 0:
        raise np.linalg.LinAlgError(f"zhegvd failed on the pencil (info = {info})")
    v = vecs[:, -1]
    v = v / np.linalg.norm(v)
    return v * _pivot_phase(v)


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


# Each ZF receiver's arrival branches in branch order, named as the path
# terms are keyed: surface 1, surface 2, then the direct transmitter(s).
ZF_BRANCHES = {"a": ("i1", "i2", "b"), "b": ("i1", "i2", "a"), "e": ("i1", "i2", "a", "b")}


def receiver_zf(channels, rx):
    """The ZF vectors of receiver ``rx``, one per branch of ``ZF_BRANCHES[rx]``.

    Each branch's vector nulls every other arrival steering.  A branch
    whose projected steering is shorter than ``DEGENERATE_BRANCH_TOL`` is
    dropped: its vector is exactly ``np.zeros(n)``.  Reads only the
    arrival steerings, so one channel set has one result per receiver,
    whatever the powers, split or reflections.
    """
    steerings = [channels.arrival_steering(tx, rx) for tx in ZF_BRANCHES[rx]]
    n, k = steerings[0].size, len(steerings)
    if n < k:
        raise InsufficientAntennasError(
            f"receiver '{rx}' needs >= {k} antennas for {k}-way ZF, has {n}"
        )
    vectors = []
    for i, h_i in enumerate(steerings):
        others = np.vstack([steerings[j].conj() for j in range(k) if j != i])
        gram = others @ others.conj().T
        proj = np.eye(n) - others.conj().T @ np.linalg.pinv(gram) @ others
        v_i = proj @ h_i
        vectors.append(np.zeros(n, dtype=complex) if np.linalg.norm(v_i) < DEGENERATE_BRANCH_TOL
                       else v_i)
    return vectors


def zf_mrc(zf, eff, rx, v_at, v_bt, config):
    """(combiner, weights): the unit-norm ZF+MRC combiner of receiver ``rx``.

    ``zf`` is ``rx``'s :func:`receiver_zf` result.  Branch ``node``'s
    arrival is the message signal it delivers, read from the path term of
    ``eff`` keyed ``node``: Alice's stream at Bob, Bob's at Alice, and at
    Eve both streams at their configured amplitudes sqrt(beta P) on each
    surface branch and one stream, unscaled, on each direct branch.  Each
    weight is conj(s)/|s| of its branch signal s, 0 for a dead branch (a
    dropped branch's zero vector gives s = 0); the combiner sums the ZF
    vectors so weighted.
    """
    if rx == "e":
        from_a, from_b = eff.paths["h_e1"], eff.paths["h_e2"]
        amp_a = math.sqrt(config.beta1 * config.pa_mw)
        amp_b = math.sqrt(config.beta2 * config.pb_mw)
        arrivals = {ris: amp_a * from_a[ris] @ v_at + amp_b * from_b[ris] @ v_bt
                    for ris in ("i1", "i2")}
        arrivals.update(a=from_a["a"] @ v_at, b=from_b["b"] @ v_bt)
    else:
        v_t = v_at if rx == "b" else v_bt
        arrivals = {node: term @ v_t for node, term in eff.paths["h_" + rx].items()}
    signals = [v.conj() @ arrivals[node] for v, node in zip(zf, ZF_BRANCHES[rx])]
    weights = [0.0 if abs(s) < 1e-300 else np.conj(s) / abs(s) for s in signals]
    return _unit(sum(np.conj(w) * v for w, v in zip(weights, zf))), weights


def _leakage_matrices(channels, side):
    """Desired-power and eavesdropper-leakage matrices of one transmit side."""
    other = "b" if side == "a" else "a"

    def power(rx):
        link = channels.mat(side, rx)
        return channels.gain(side, rx) * link.conj().T @ link

    return power("i1") + power("i2") + power(other), power("e")


def _loaded_eigvec(a, b, sigma2, stream_power):
    """The dominant eigenvector of the pencil (a, b + sigma2 / stream_power I).

    Where the loading is infinite (a stream power of 0, or one so small
    that the quotient overflows), its limit: the dominant eigenvector of
    ``a`` alone.
    """
    eye = np.eye(a.shape[0])
    loading = sigma2 / stream_power if stream_power > 0.0 else math.inf
    if math.isinf(loading):
        return dominant_generalized_eigvec(a, eye)
    return dominant_generalized_eigvec(a, b + loading * eye)


def leakage_side(channels, config, side):
    """(v, w): the SLNR message and LANSR noise vectors of one side, from one pencil.

    v maximizes the signal-to-leakage-and-noise ratio, (desired power,
    leakage to Eve + scaled Eve noise); w the leakage-to-signal ratio at
    Eve, (leakage, desired + scaled receiver noise).  Where a noise term is
    infinite (beta = 0 for v, beta = 1 for w), the design is its limit.
    """
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got '{side}'")
    beta = config.beta1 if side == "a" else config.beta2
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"message power fraction must lie in [0, 1], got {beta}")
    power = config.pa_mw if side == "a" else config.pb_mw
    sigma2 = config.sigma2_b_mw if side == "a" else config.sigma2_a_mw
    desired, eve = _leakage_matrices(channels, side)
    v = _loaded_eigvec(desired, eve, config.sigma2_e_mw, beta * power)
    w = _loaded_eigvec(eve, desired, sigma2, (1.0 - beta) * power)
    return v, w


def max_sv_beamformers(channels, eff):
    """The max-sv vectors (v_at, v_bt, w_a, w_b, v_ar, v_br).

    (v_at, v_br) and (v_bt, v_ar) are the right/left dominant singular
    vectors of the Alice->Bob and the Bob->Alice effective channel; each
    noise vector points at Eve orthogonally to its message vector.  Reads
    the effective channels and the departure steerings toward Eve; no
    power or split.
    """
    if np.linalg.norm(eff.h_b) == 0 or np.linalg.norm(eff.h_a) == 0:
        raise DegenerateChannelError("effective channel is identically zero")
    v_br, v_at = dominant_singular_pair(eff.h_b)
    v_ar, v_bt = dominant_singular_pair(eff.h_a)
    w_a, _ = an_nullspace_design(v_at, channels.departure_steering("a", "e"))
    w_b, _ = an_nullspace_design(v_bt, channels.departure_steering("b", "e"))
    return v_at, v_bt, w_a, w_b, v_ar, v_br

