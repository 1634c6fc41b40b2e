"""Power-split optimization between message and artificial-noise streams.

Four strategies over the split factors (beta1, beta2):

* ``epa``  : the fixed equal split (0.5, 0.5).
* ``es2d``: exhaustive grid search over the unit square, scoring only
  the cells a bound on the boundary cannot rule out (:func:`es_2d`).
* ``es1d``: exhaustive grid search along the diagonal beta1 = beta2.
* ``hicf`` : hybrid iterative/closed-form.  On the diagonal the rate is a
  weighted sum of logs of seven linear factors; its stationarity
  condition, the paper's sextic with Eve's shared denominator divided out
  (that root lies above 1), is a monic quintic, or a quartic where the
  gains null its leading term.  One Newton-Raphson root extraction with
  synthetic deflation, from fixed starts, reduces a quintic to a quartic
  solved by Ferrari's radical formula; the optimum is picked from the
  real roots in [0, 1] plus the interval boundaries, each refined by
  Newton on the rate's derivative.  A function of the gains alone.

Every root comes from a closed form: a Newton stage whose every start
fails, or a Ferrari that fails on the quartic and on its reversal, adds
no roots and records ``no-root:<stage>``, and a polynomial of degree
below 4 or with a coefficient that is not finite adds es1d's grid point
as a candidate.  :func:`companion_roots` is the closed forms' test oracle.

The root stages run on lists of Python floats.  Newton and deflation keep
the operation order of the numpy forms they replaced (``np.polyval``'s
Horner loop from 0.0, the deflation recurrence), so their bits are the
array forms'.  Ferrari keeps numpy's rounding where CPython's differs:
the real-by-complex quotient takes numpy's complex128 division steps
(:func:`_real_over_complex`), and the resolvent's fractional complex
power is numpy's.  Mixed float/complex operations rely on CPython
promoting the float to ``complex(x, 0.0)``, as numpy does; releases that
follow C99's mixed-mode rules (3.14 on) can differ in signed zeros.
Ferrari's residual check is a Python complex Horner loop, the same bits
on every CPU, where numpy's complex kernels vary with fused multiply-adds.
Every split grid, the searches' and ``sim.pa_surface``'s, is
:func:`_grid`: the exact values i / n, cached read-only per step, scored
with the rate expression directly; the searches report the chosen grid
value, which has the scalar objective's bits, and es2d's pruned search
answers the whole grid's maximum bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rates import _objective, rate_objective, ssr

NEWTON_TOL = 1e-5  # stop when |beta^{p+1} - beta^p| falls below this
NEWTON_MAX_ITER = 200
# Newton's starts: 0.5, then the midpoints of eight equal strata of (0, 1)
NEWTON_STARTS = (0.5, *((k + 0.5) / 8 for k in range(8)))
REFINE_STEPS = 16  # Newton steps on R' from each hicf candidate
DERIVATIVE_TOL = 1e-14
DEFLATION_RESIDUAL_TOL = 1e-6  # x coefficient scale
REAL_ROOT_IMAG_TOL = 1e-8
FERRARI_RESIDUAL_TOL = 1e-7  # x coefficient scale
ETA1_DEGENERATE_TOL = 1e-10
DEGENERATE_LEADING_RATIO = 1e-12
DEFAULT_STEP_1D = 1e-3
DEFAULT_STEP_2D = 1e-2
MIN_GRID_STEP = 1e-9  # 1e9 intervals: 8 GB per float64 grid
ES2D_SLACK = 1e-12  # es2d's pruning slack per unit of rate-term scale


class DegeneratePolynomialError(ValueError):
    """Raised when a polynomial's leading coefficient vanishes."""


class DegenerateSexticError(ValueError):
    """The stationarity polynomial's degree fell below 4, or it is not finite."""


class NewtonError(RuntimeError):
    """Newton iteration failed: derivative vanished or no convergence."""


class DeflationError(ValueError):
    """Refused to deflate: the claimed root has too large a residual."""


@dataclass(frozen=True)
class PaCandidate:
    beta: float
    objective: float  # unclamped rate objective at (beta, beta)
    origin: str  # newton-1 | ferrari | boundary | es1d | refined


@dataclass(frozen=True)
class PaOutcome:
    """Chosen split, achieved secrecy sum rate, and per-candidate diagnostics."""

    method: str
    beta1: float
    beta2: float
    ssr: float
    candidates: tuple
    diagnostics: dict


def _diagonal_factors(g):
    """The diagonal rate's seven linear factors, as (weight, a, b, noise).

    On beta1 = beta2 = beta, R ln 2 is the sum of weight ln L over the
    factors L = beta a + (1 - beta) b + noise: each rate term's numerator
    (weight 1 for Alice's and Bob's, -1 for Eve's two) and denominator
    (the opposite weight), Eve's shared denominator Le last, with weight 2.
    All are positive on [0, 1], and the weights sum to 0.
    """
    s1, s2, s3, s4, s5, s6, s7, s8 = g.as_tuple()
    leak, sa, sb, se = s7 + s8, g.sigma2_a, g.sigma2_b, g.sigma2_e
    return ((1.0, s1, s2, sa), (-1.0, 0.0, s2, sa), (1.0, s3, s4, sb), (-1.0, 0.0, s4, sb),
            (-1.0, s5, leak, se), (-1.0, s6, leak, se), (2.0, 0.0, leak, se))


def _polymul(p, q):
    """Product of two highest-first coefficient lists."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def sextic_coeffs(g):
    """Monic polynomial whose real roots in (0, 1) are the diagonal
    stationary points: a quintic, or a quartic where its leading term vanishes.

    With the factors of :func:`_diagonal_factors`, R = log2(N / D) for
    N = L1 L3 Le^2 and D = L2 L4 L5 L6.  The paper's sextic N'D - ND' is
    Le times P = (N1' Le + 2 Le' N1) D - N1 Le D', N1 = L1 L3; Le's root,
    1 + sigma2_e / (s7 + s8), lies above 1, so P is solved instead.  P's
    beta^6 term cancels, the weights summing to 0, and is dropped.  While
    the leading coefficient is zero or below ``DEGENERATE_LEADING_RATIO``
    times the largest of the rest, it is dropped too: it only adds a root
    beyond about 1 / ratio, far outside [0, 1].  Max-sv designs null the
    noise leaks s2 and s4, so D is a quadratic and P a quartic.  Dividing
    by the leading coefficient left gives the monic form [1, alpha1, ...],
    a list of Python floats, highest degree first; |alpha_i| <= 1 / ratio.

    Raises
    ------
    DegenerateSexticError
        If a coefficient is not finite, or the degree falls below 4; the
        optimizer then scores the 1-D grid search's point instead.
    """
    l1, l2, l3, l4, l5, l6, le = [[a - b, b + noise] for _, a, b, noise in _diagonal_factors(g)]
    n1 = _polymul(l1, l3)  # a quadratic
    d = _polymul(_polymul(l2, l4), _polymul(l5, l6))  # a quartic
    outer = [p + 2.0 * le[0] * q for p, q in zip(_polymul([2.0 * n1[0], n1[1]], le), n1)]
    d_prime = [4.0 * d[0], 3.0 * d[1], 2.0 * d[2], d[3]]
    left, right = _polymul(outer, d), _polymul(_polymul(n1, le), d_prime)
    raw = [p - q for p, q in zip(left[1:], right[1:])]  # beta^6 cancels
    if not all(map(math.isfinite, raw)):
        raise DegenerateSexticError("stationarity polynomial coefficients are not finite")
    while raw[0] == 0.0 or abs(raw[0]) < DEGENERATE_LEADING_RATIO * max(map(abs, raw[1:])):
        raw = raw[1:]
        if len(raw) < 5:
            raise DegenerateSexticError("stationarity polynomial degree fell below 4")
    return [1.0, *[c / raw[0] for c in raw[1:]]]


def companion_roots(coeffs):
    """All roots of a real-coefficient polynomial via companion-matrix eigenvalues.

    ``coeffs`` is highest-degree first.  The polynomial is normalized to
    monic form; this is the independent oracle the closed-form root finders
    are checked against.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if c.ndim != 1 or c.size < 2:
        raise ValueError("need a polynomial of degree >= 1")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients contain non-finite values")
    if c[0] == 0.0:
        raise DegeneratePolynomialError("leading coefficient is zero")
    return np.roots(c)


def _horner(coeffs, x):
    """Value at x of a highest-first list of Python floats.

    The operation sequence of ``np.polyval`` (``y = y * x + c`` from
    y = 0), so for a real x the result is bit-identical, without its
    per-call array overhead.  A complex x gives the same bits on every
    CPU; numpy's complex kernels do not (see the module docstring).
    """
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def _residuals_within(coeffs, roots, bound):
    """Whether |p(z)| <= bound at every root z, by complex Horner, where a
    root outside the unit disc is checked as |z^-n p(z)|, the reversed
    polynomial at 1/z; a NaN residual fails, as under ``np.max``."""
    n = len(coeffs) - 1
    return all(abs(_horner(coeffs, complex(z))) <= bound * max(1.0, abs(z)) ** n for z in roots)


def newton_root(coeffs, beta):
    """Newton-Raphson on a real polynomial of degree <= 6, a list of Python
    floats with the highest-degree coefficient first.

    Iterates beta <- beta - f(beta)/f'(beta) until the step is <=
    ``NEWTON_TOL``.  Raises :class:`NewtonError` when the derivative
    vanishes or ``NEWTON_MAX_ITER`` iterations do not converge, and
    ``ValueError`` for a degree above 6.

    The polynomial and its derivative are zero-padded on the left to
    degree 6 and 5 and evaluated as two written-out Horner expressions
    from 0.0, ``np.polyval``'s order: each leading zero leaves the
    accumulator at +0.0, so every degree gives ``np.polyval``'s bits.
    """
    n = len(coeffs) - 1
    if n > 6:
        raise ValueError(f"newton_root takes a degree of at most 6, got {n}")
    deriv = [coeffs[i] * (n - i) for i in range(n)]  # np.polyder's products
    c0, c1, c2, c3, c4, c5, c6 = [0.0] * (6 - n) + list(coeffs)
    d0, d1, d2, d3, d4, d5 = [0.0] * (6 - n) + deriv
    tol, min_slope = NEWTON_TOL, DERIVATIVE_TOL  # locals: the loop reads them every step
    for _ in range(NEWTON_MAX_ITER):
        # two passes: a fused f, f' pass would round differently
        fval = ((((((0.0 * beta + c0) * beta + c1) * beta + c2) * beta + c3) * beta + c4)
                * beta + c5) * beta + c6
        gval = ((((((0.0 * beta + d0) * beta + d1) * beta + d2) * beta + d3) * beta + d4)
                * beta + d5)
        if abs(gval) < min_slope:
            raise NewtonError(f"derivative vanished at beta={beta!r}")
        beta_next = beta - fval / gval
        if not math.isfinite(beta_next):
            raise NewtonError("iteration left the finite domain")
        if abs(beta_next - beta) <= tol:
            return beta_next
        beta = beta_next
    raise NewtonError(f"no convergence within {NEWTON_MAX_ITER} iterations")


def deflate(coeffs, root):
    """Synthetic division of a monic polynomial, a list of Python floats, by
    (beta - root); returns the quotient as a list.

    Quotient coefficients follow the recurrence
    alpha_bar_i = alpha_i + root * alpha_bar_{i-1}; the remainder is the
    polynomial value at the root, in ``np.polyval``'s operations, and must
    be negligible, else :class:`DeflationError`.
    """
    # Python's max skips a NaN that np.max would return; the residual is
    # then NaN too, and the test below passes under either scale.
    scale = max(map(abs, coeffs))
    acc = coeffs[0]
    quotient = [acc]
    for c in coeffs[1:-1]:
        acc = c + root * acc
        quotient.append(acc)
    residual = coeffs[-1] + root * acc
    if abs(residual) > DEFLATION_RESIDUAL_TOL * scale:
        raise DeflationError(
            f"residual {abs(residual):.3e} exceeds {DEFLATION_RESIDUAL_TOL:.0e} x scale {scale:.3e}"
        )
    return quotient


# The cube roots of unity as (omega**k, omega**-k), k = 0, 1, 2.
_OMEGA = cmath.exp(2j * cmath.pi / 3.0)
_OMEGA_PAIRS = tuple((_OMEGA**k, _OMEGA**-k) for k in range(3))


def _real_over_complex(x, z):
    """x / z for a real x, in numpy's complex128 operation order.

    numpy divides (x, 0) by z with the ratio of z's smaller part to its
    larger one and one reciprocal; CPython's complex division rounds
    differently.  z must not be zero.
    """
    zr, zi = z.real, z.imag
    if abs(zr) >= abs(zi):
        rat = zi / zr
        scl = 1.0 / (zr + zi * rat)
        return complex((x + 0.0 * rat) * scl, (0.0 - x * rat) * scl)
    rat = zr / zi
    scl = 1.0 / (zi + zr * rat)
    return complex((x * rat + 0.0) * scl, (0.0 * rat - x) * scl)


def _resolvent_shifts(gamma1, gamma2):
    """The three roots of the depressed resolvent cubic z^3 + gamma1 z + gamma2.

    Branches are paired so the principal root is real for real input
    (conjugate cube-root pairing below the discriminant's sign change).
    """
    disc = gamma2**2 / 4.0 + gamma1**3 / 27.0
    if disc >= 0.0:
        sq = math.sqrt(disc)
        t1 = complex(math.copysign(abs(-gamma2 / 2.0 + sq) ** (1.0 / 3.0), -gamma2 / 2.0 + sq))
        t2 = complex(math.copysign(abs(-gamma2 / 2.0 - sq) ** (1.0 / 3.0), -gamma2 / 2.0 - sq))
    else:
        # numpy's complex power: CPython's rounds differently
        t1 = complex(np.complex128(-gamma2 / 2.0 + 1j * math.sqrt(-disc)) ** (1.0 / 3.0))
        t2 = t1.conjugate()
    return [t1 * w + t2 * w_inv for w, w_inv in _OMEGA_PAIRS]


def _ferrari(a1, a2, a3, a4):
    """:func:`ferrari_roots` on finite Python floats."""
    gamma1 = (3.0 * a1 * a3 - 12.0 * a4 - a2**2) / 3.0
    gamma2 = (
        -2.0 * a2**3 + 9.0 * a1 * a2 * a3 + 72.0 * a2 * a4
        - 27.0 * a3**2 - 27.0 * a1**2 * a4
    ) / 27.0
    odd_term = 4.0 * a1 * a2 - 8.0 * a3 - a1**3
    scale = max(1.0, abs(a1), abs(a2), abs(a3), abs(a4))
    bound = FERRARI_RESIDUAL_TOL * scale
    quartic = [1.0, a1, a2, a3, a4]
    a1_sq = a1**2
    base, pivot, offset = a2 / 3.0, a1_sq / 4.0 - a2, -a1 / 4.0

    for shift in _resolvent_shifts(gamma1, gamma2):
        eta1 = cmath.sqrt(pivot + (base + shift))
        if abs(eta1) < ETA1_DEGENERATE_TOL:
            continue
        even = 0.75 * a1_sq - eta1**2 - 2.0 * a2
        roots = []
        for sign_s in (1.0, -1.0):
            eta2 = cmath.sqrt(even + _real_over_complex(sign_s * odd_term, 4.0 * eta1))
            centre = offset + sign_s * eta1 / 2.0
            for sign_i in (1.0, -1.0):
                roots.append(centre + sign_i * eta2 / 2.0)
        if _residuals_within(quartic, roots, bound):
            return roots

    # Depressed quartic may be biquadratic: y^4 + p y^2 + r, with no odd term.
    if not abs(odd_term) < ETA1_DEGENERATE_TOL * scale:
        return []
    p = a2 - 3.0 * a1_sq / 8.0
    r = a4 - a1 * a3 / 4.0 + a1_sq * a2 / 16.0 - 3.0 * a1**4 / 256.0
    inner = cmath.sqrt(p * p - 4.0 * r)
    roots = []
    for z in ((-p + inner) / 2.0, (-p - inner) / 2.0):
        y = cmath.sqrt(z)
        roots.extend([y - a1 / 4.0, -y - a1 / 4.0])
    return roots if _residuals_within(quartic, roots, bound) else []


def _ferrari_or_none(a1, a2, a3, a4):
    """:func:`_ferrari`, with a power beyond the float range as no roots."""
    try:
        return _ferrari(a1, a2, a3, a4)
    except OverflowError:
        return []


def ferrari_roots(a1, a2, a3, a4):
    """The four complex roots of beta^4 + a1 beta^3 + a2 beta^2 + a3 beta + a4
    by Ferrari's closed form, as a list, or [] when the formula fails.

    The resolvent shift gamma3 is computed with principal branches; if the
    chosen resolvent root makes eta1 vanish, or its roots fail the residual
    check, the other resolvent roots are tried, then the biquadratic
    branch.  The first branch whose four roots pass the check answers.
    When none does and a4 != 0, the reversed monic quartic (roots 1 / beta)
    is solved the same way and its roots inverted: a quartic with roots of
    very different sizes can fail one way and pass the other.

    The coefficients are taken as Python floats whatever the caller
    passes.  A power beyond the float range, where Python raises
    ``OverflowError``, is a failure of the formula like any other.
    """
    for coeff in (a1, a2, a3, a4):
        if not math.isfinite(coeff):
            raise ValueError("quartic coefficients must be finite")
    a1, a2, a3, a4 = float(a1), float(a2), float(a3), float(a4)
    roots = _ferrari_or_none(a1, a2, a3, a4)
    if roots or a4 == 0.0:
        return roots
    flipped = (a3 / a4, a2 / a4, a1 / a4, 1.0 / a4)
    if not all(map(math.isfinite, flipped)):
        return []
    # the reversed constant term is 1 / a4, so a root at 0 passed only through the check's scale
    flipped_roots = _ferrari_or_none(*flipped)
    return [_real_over_complex(1.0, y) for y in flipped_roots] if all(flipped_roots) else []


def grid_intervals(step):
    """Intervals of the [0, 1] search grid for a step in (0, 0.5], no finer
    than ``MIN_GRID_STEP``: checked before the division, which overflows
    below about 5.6e-309."""
    if not 0.0 < step <= 0.5:
        raise ValueError("grid step must lie in (0, 0.5]")
    if step < MIN_GRID_STEP:
        raise ValueError(
            f"grid step {step!r} is finer than the finest grid step {MIN_GRID_STEP!r}")
    return round(1.0 / step)


@lru_cache(maxsize=8)
def _grid(step):
    """The split grid of a step, the exact values i / n (n intervals):
    built once, read-only, and shared by the grid searches and the
    power-split surface."""
    n = grid_intervals(step)
    grid = np.arange(n + 1) / n
    grid.flags.writeable = False
    return grid


def es_1d(g, step=DEFAULT_STEP_1D):
    """Exhaustive search of the unclamped objective along beta1 = beta2."""
    grid = _grid(step)
    values = _objective(grid, grid, g)  # the grid lies in [0, 1]: no range check
    k = int(np.argmax(values))  # first max -> smallest beta on ties
    beta = float(grid[k])
    return PaOutcome(  # a grid value has the scalar objective's bits
        method="es1d", beta1=beta, beta2=beta, ssr=max(0.0, float(values[k])),
        candidates=(), diagnostics={"step": step, "evaluations": grid.size},
    )


@lru_cache(maxsize=8)
def _boundary(step):
    """The square grid's boundary cells in C order, as read-only (beta1,
    beta2, flat index) arrays: the beta1 = 0 row, the first and last cell
    of each interior row, then the beta1 = 1 row.  Built once per step."""
    grid = _grid(step)
    n, last = grid.size, grid.size - 1
    inner = np.arange(1, last)
    rows = np.concatenate([np.zeros(n, int), np.repeat(inner, 2), np.full(n, last)])
    cols = np.concatenate([np.arange(n), np.tile([0, last], n - 2), np.arange(n)])
    cells = grid[rows], grid[cols], rows * n + cols
    for array in cells:
        array.flags.writeable = False
    return cells


def _es2d_slack(g):
    """``ES2D_SLACK`` times 1 plus the four rate terms' values at full power
    with only their noise, the most each can take: an infinite term makes it
    infinite."""
    bounds = ((g.s1, g.sigma2_a), (g.s3, g.sigma2_b), (g.s5, g.sigma2_e), (g.s6, g.sigma2_e))
    return ES2D_SLACK * (1.0 + sum(math.log2(1.0 + float(s) / float(sigma))
                                   for s, sigma in bounds))


def es_2d(g, step=DEFAULT_STEP_2D):
    """Exhaustive search of the unclamped objective over the unit square,
    scoring only the cells a bound on the boundary cannot rule out.

    Write the objective as R = A(beta2) + B(beta1) - C(beta1, beta2) -
    D(beta1, beta2), its four log terms.  Eve's denominator only shrinks as
    either split grows, so C >= C(beta1, 0) and D >= D(0, beta2), and A(0),
    C(0, .) and D(., 0) are log2(1) = 0: in exact arithmetic
    R(beta1, beta2) <= R(beta1, 0) + R(0, beta2), two boundary cells.  The
    four edges are scored first, and ``best`` is their maximum.  An interior
    row i is dropped when R(beta_i, 0) + max_j R(0, beta_j) + slack < best,
    the j over the interior columns, and an interior column likewise; the
    kept rows and columns are scored as one broadcast sub-grid.

    The slack (:func:`_es2d_slack`) is ``ES2D_SLACK`` times 1 plus each log
    term's value at full power with only its noise, which bounds that term
    in every cell.  It thus bounds the rounding of the three cells a test
    compares, numpy's log2 error included, however much the large terms
    cancel, which a slack relative to R would not.  A NaN in a test keeps
    its row or column, and an infinite term makes the slack infinite and
    keeps every cell.  So a dropped cell lies strictly below ``best``, and
    the C-order-first maximum of the scored cells (the first NaN, if any,
    as under ``np.argmax``) is the full grid's: ties break toward smaller
    beta1, then smaller beta2.  Each scored value is the full grid's bits.

    ``diagnostics["evaluations"]`` is the grid size and ``"scored"`` the
    number of cells whose objective was computed.
    """
    grid = _grid(step)
    n = grid.size
    beta1, beta2, flat = _boundary(step)
    edge = _objective(beta1, beta2, g)  # C order: argmax takes the first maximum
    k = int(np.argmax(edge))
    best = edge[k]
    # R(beta_i, 0) of the interior rows and R(0, beta_j) of the interior columns
    row_edge, col_edge = edge[n:3 * n - 4:2], edge[1:n - 1]
    slack = _es2d_slack(g)
    rows = np.flatnonzero(~(row_edge + (col_edge.max() + slack) < best)) + 1
    # with no row left there is no sub-grid, whatever the columns
    cols = np.flatnonzero(~(col_edge + (row_edge.max() + slack) < best)) + 1 if rows.size else rows
    k, value = int(flat[k]), best
    if cols.size:
        values = _objective(grid[rows, None], grid[None, cols], g)
        r, c = divmod(int(np.argmax(values)), cols.size)
        # argmax's rules over the two candidates in C order: the first NaN, else the first maximum
        cells = sorted([(k, value), (int(rows[r]) * n + int(cols[c]), values[r, c])])
        k, value = cells[int(np.argmax([v for _, v in cells]))]
    i, j = divmod(k, n)
    return PaOutcome(  # a grid value has the scalar objective's bits
        method="es2d", beta1=float(grid[i]), beta2=float(grid[j]), ssr=max(0.0, float(value)),
        candidates=(), diagnostics={"step": step, "evaluations": n * n,
                                    "scored": edge.size + rows.size * cols.size},
    )


def _newton_stage(coeffs, inits):
    """Newton on a list of Python floats from each start in turn, until a
    root deflates (the remainder is its residual, checked once).  Returns
    (root, quotient, attempts), or (None, None, attempts) when every start
    fails."""
    attempts = 0
    for beta0 in inits:
        attempts += 1
        try:
            root = newton_root(coeffs, beta0)
            return root, deflate(coeffs, root), attempts
        except (NewtonError, DeflationError):
            continue
    return None, None, attempts


def _refine(g, beta):
    """Up to ``REFINE_STEPS`` Newton steps on R'(beta) from ``beta``: the last point reached.

    Over the factors of :func:`_diagonal_factors`, R' ln 2 is the sum of
    weight (a - b) / L and R'' ln 2 minus that of weight ((a - b) / L)^2:
    sums that stay accurate where the expanded polynomial's roots cluster.
    Stops where R'' >= 0 (or is NaN), where a step would leave [0, 1], and
    at a fixed point or a last-bit 2-cycle.
    """
    factors = [(weight, a - b, a, b, noise) for weight, a, b, noise in _diagonal_factors(g)]
    last = None
    for _ in range(REFINE_STEPS):
        slope = curvature = 0.0
        rest = 1.0 - beta
        for weight, span, a, b, noise in factors:
            ratio = span / (beta * a + rest * b + noise)
            term = weight * ratio
            slope += term
            curvature -= term * ratio
        if not curvature < 0.0:
            break
        beta_next = beta - slope / curvature
        if not 0.0 <= beta_next <= 1.0 or beta_next in (beta, last):
            break
        last, beta = beta, beta_next
    return beta


def hicf(g):
    """Hybrid iterative/closed-form split optimization on the diagonal.

    Pipeline: the stationarity polynomial (:func:`sextic_coeffs`); on a
    quintic, one Newton stage (``newton-1``) from ``NEWTON_STARTS`` whose
    root deflates it; Ferrari on the quartic.  A Newton stage whose every
    start fails, or a Ferrari that fails, records ``no-root:<stage>`` and
    adds no roots; a failed Newton stage ends the chain.  A degenerate
    polynomial records ``degenerate-sextic->es1d`` and adds es1d's grid
    point as a candidate.  The candidates are the real roots in [0, 1] and
    the boundaries; :func:`_refine` runs from each, and the best point
    reached becomes a ``refined`` candidate when it scores higher than
    every candidate.  The argmax of the unclamped objective (smallest beta
    on ties) applies to both split factors.  ``diagnostics["degree"]`` is
    the polynomial's degree, None where it degenerates.
    """
    diagnostics = {"fallbacks": [], "newton_attempts": {}, "degree": None, "root_residuals": []}
    labeled, candidates = [], [(0.0, "boundary"), (1.0, "boundary")]  # labeled: (root, origin)
    try:
        stationary = sextic_coeffs(g)
    except DegenerateSexticError as err:
        diagnostics["fallbacks"].append("degenerate-sextic->es1d")
        diagnostics["reason"] = str(err)
        candidates.append((es_1d(g).beta1, "es1d"))
    else:
        diagnostics["degree"] = len(stationary) - 1
        poly = stationary
        if len(poly) == 6:  # a quintic: one Newton root deflates it to a quartic
            root, poly, attempts = _newton_stage(poly, NEWTON_STARTS)
            diagnostics["newton_attempts"]["newton-1"] = attempts
            if root is None:  # every start failed: the chain ends
                diagnostics["fallbacks"].append("no-root:newton-1")
            else:
                labeled.append((root, "newton-1"))
        if poly is not None:
            q_roots = ferrari_roots(*poly[1:])
            if not q_roots:
                diagnostics["fallbacks"].append("no-root:ferrari")
            labeled.extend((r, "ferrari") for r in q_roots)
        diagnostics["root_residuals"] = [abs(_horner(stationary, complex(r))) for r, _ in labeled]

    roots = diagnostics["roots"] = [complex(r) for r, _ in labeled]
    origins = diagnostics["origins"] = [origin for _, origin in labeled]

    candidates.extend((z.real, origin) for z, origin in zip(roots, origins)
                      if abs(z.imag) < REAL_ROOT_IMAG_TOL and 0.0 <= z.real <= 1.0)
    candidates.sort(key=lambda item: item[0])  # smallest beta wins ties

    evaluated = tuple(PaCandidate(b, rate_objective(b, b, g), origin) for b, origin in candidates)
    best = max(evaluated, key=lambda cand: cand.objective)  # the first, smallest beta, on ties
    ends = [_refine(g, cand.beta) for cand in evaluated]
    refined = max((PaCandidate(b, rate_objective(b, b, g), "refined") for b in ends),
                  key=lambda cand: cand.objective)
    if refined.objective > best.objective:
        best, evaluated = refined, (*evaluated, refined)
    return PaOutcome(method="hicf", beta1=best.beta, beta2=best.beta, ssr=max(0.0, best.objective),
                     candidates=evaluated, diagnostics=diagnostics)


def allocate(g, method, seed=None):
    """Run one power-allocation strategy, ``epa``, ``es1d``, ``es2d`` or
    ``hicf``, and return its outcome.

    The grid searches use their default steps.  ``seed`` is accepted and
    unused: every strategy is a function of the gains alone.
    """
    if method == "epa":
        return PaOutcome(
            method="epa", beta1=0.5, beta2=0.5, ssr=ssr(0.5, 0.5, g),
            candidates=(), diagnostics={},
        )
    if method == "es1d":
        return es_1d(g)
    if method == "es2d":
        return es_2d(g)
    if method == "hicf":
        return hicf(g)
    raise ValueError(f"unknown power-allocation method '{method}'")
