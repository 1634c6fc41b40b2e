"""Dense complex linear-algebra primitives shared by every other module.

Thin, contract-checked wrappers around LAPACK-backed numpy/scipy routines,
plus a companion-matrix polynomial root oracle used to cross-check the
closed-form root finders.  All functions are pure and thread-safe.

scipy is needed only by :func:`dominant_generalized_eigvec`, i.e. by the
leakage design, and is imported on its first call: importing it costs more
than most commands' work, and no other path uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance constants, centralized.  Chosen for double precision at the
# matrix sizes this package uses (<= 2048).
SVD_RECONSTRUCT_TOL = 1e-9
UNITARY_TOL = 1e-10
PINV_TOL = 1e-9
ROOT_RESIDUAL_TOL = 1e-8
SINGULAR_B_RATIO = 1e-14  # smallest/largest eigenvalue of B below this -> singular


class InvalidInputError(ValueError):
    """Raised for non-finite or structurally invalid inputs."""


class SingularMatrixError(ValueError):
    """Raised when a matrix required to be invertible is numerically singular."""


class DegeneratePolynomialError(ValueError):
    """Raised when a polynomial's leading coefficient vanishes."""


def _check_finite(a, name="matrix"):
    a = np.asarray(a)
    if a.size == 0:
        raise InvalidInputError(f"{name} is empty")
    if not np.all(np.isfinite(a)):  # complex: checks both parts
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def phase_normalize_columns(m):
    """Rotate each column so its largest-magnitude entry is real positive.

    Makes eigen/singular vectors reproducible across LAPACK backends.  It
    does not make the rates phase-free: Eve's combiner aligns to the
    coherent sum of both transmit vectors, so the SSR moves with the
    relative phase of ``v_at`` and ``v_bt`` that this convention fixes.
    """
    m = np.array(m, dtype=complex, copy=True)
    for k in range(m.shape[1]):
        col = m[:, k]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if abs(pivot) > 0:
            col *= np.conj(pivot) / abs(pivot)
    return m


@dataclass(frozen=True)
class SvdResult:
    """Full SVD A = U @ diag(S) @ V^H with S sorted descending."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self):
        return (self.u * self.s) @ self.v.conj().T


def svd(a):
    """Singular value decomposition with a deterministic phase convention.

    Returns an :class:`SvdResult` with all ``min(rows, cols)`` singular
    values.  Columns of U are phase-normalized (largest entry real
    positive) and the matching phase is carried onto V so that
    ``U diag(S) V^H`` still reconstructs the input.
    """
    a = _check_finite(np.asarray(a, dtype=complex))
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    v = vh.conj().T
    # One free phase per singular pair: anchor it on U, compensate in V.
    for k in range(u.shape[1]):
        col = u[:, k]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if abs(pivot) > 0:
            rot = np.conj(pivot) / abs(pivot)
            u[:, k] *= rot
            v[:, k] *= rot
    return SvdResult(u=u, s=s, v=v)


def dominant_generalized_eigvec(a, b):
    """Unit vector maximizing the generalized Rayleigh quotient v^H A v / v^H B v.

    A must be Hermitian PSD and B Hermitian positive definite; the result is
    the dominant eigenvector of the pencil (A, B), i.e. of B^{-1} A.

    Raises
    ------
    SingularMatrixError
        If B's eigenvalue spread exceeds 1e14 (condition estimate), rather
        than silently regularizing.
    """
    a = _check_finite(np.asarray(a, dtype=complex), "A")
    b = _check_finite(np.asarray(b, dtype=complex), "B")
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise InvalidInputError("A and B must be square and of equal size")
    beig = np.linalg.eigvalsh(b)
    if beig[0] <= SINGULAR_B_RATIO * beig[-1]:
        raise SingularMatrixError(
            f"B is numerically singular (eigenvalue ratio {beig[0] / beig[-1]:.3e})"
        )
    import scipy.linalg

    w, vecs = scipy.linalg.eigh(a, b)
    v = vecs[:, -1]
    v = v / np.linalg.norm(v)
    return phase_normalize_columns(v[:, None])[:, 0]


def pinv(a):
    """Moore-Penrose pseudo-inverse."""
    a = np.asarray(a, dtype=complex)
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix contains non-finite entries")
    return np.linalg.pinv(a)


def companion_roots(coeffs):
    """All roots of a real-coefficient polynomial via companion-matrix eigenvalues.

    ``coeffs`` is highest-degree first.  The polynomial is normalized to
    monic form; this is the independent oracle the closed-form root finders
    are checked against.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if c.ndim != 1 or c.size < 2:
        raise InvalidInputError("need a polynomial of degree >= 1")
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("coefficients contain non-finite values")
    if c[0] == 0.0:
        raise DegeneratePolynomialError("leading coefficient is zero")
    return np.roots(c)
