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
  synthetic deflation, from fixed starts of at most ``NEWTON_MAX_ITER``
  = 30 steps each, reduces a quintic to a quartic solved by Ferrari's
  radical formula; the optimum is picked from the real part of every
  closed-form root in [0, 1] plus the interval boundaries, each refined
  by Newton on the rate's derivative.  A function of the gains alone.

Every root comes from a closed form.  Where one is missing, es1d's grid
point is scored instead: a Newton stage whose every start fails, or a
Ferrari that fails on the quartic and on its reversal, adds no roots and
records ``no-root:<stage>``, a polynomial of degree below 4 or with a
coefficient that is not finite records ``degenerate-sextic->es1d``, and
each adds es1d's grid point as a candidate.  So the cap can lose only a
root that the 1e-3 grid and the refinement from it also miss.

The root stages run on Python floats and complex numbers, with no numpy.
The Newton stage solves only the quintic, its Horner passes and
deflation written out in the operations of the numpy forms they replaced,
so its bits are theirs.  Ferrari's residual check is a Python complex
Horner loop, the same bits on every CPU.
Mixed float/complex operations rely on CPython promoting the float to
``complex(x, 0.0)``; releases that follow C99's mixed-mode rules (3.14
on) can differ in signed zeros.
Every split grid, the searches' and ``sim.pa_surface``'s, is
:func:`_grid`: the exact values i / n, cached read-only per step, scored
with the rate expression directly; the searches report the chosen grid
value, which has the scalar objective's bits, and es2d's pruned search
answers the whole grid's maximum bit for bit.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .rates import _objective, ssr

NEWTON_TOL = 1e-5  # stop when |beta^{p+1} - beta^p| falls below this
NEWTON_MAX_ITER = 30  # steps per start; a stage with no root scores es1d's grid point
# Newton's starts: 0.5, then the midpoints of eight equal strata of (0, 1)
NEWTON_STARTS = (0.5, *((k + 0.5) / 8 for k in range(8)))
REFINE_STEPS = 16  # Newton steps on R' from each hicf candidate
DERIVATIVE_TOL = 1e-14
DEFLATION_RESIDUAL_TOL = 1e-6  # x coefficient scale
FERRARI_RESIDUAL_TOL = 1e-7  # x coefficient scale
ETA1_DEGENERATE_TOL = 1e-10
DEGENERATE_LEADING_RATIO = 1e-12
DEFAULT_STEP_1D = 1e-3
DEFAULT_STEP_2D = 1e-2
MIN_GRID_STEP = 1e-9  # 1e9 intervals: 8 GB per float64 grid
ES2D_SLACK = 1e-12  # es2d's pruning slack per unit of rate-term scale


class DegenerateSexticError(ValueError):
    """The stationarity polynomial's degree fell below 4, or it is not finite."""


class PaCandidate(NamedTuple):
    beta: float
    objective: float  # unclamped rate objective at (beta, beta)
    origin: str  # newton-1 | ferrari | boundary | es1d | refined


class PaOutcome(NamedTuple):
    """Chosen split, achieved secrecy sum rate, and per-candidate diagnostics."""

    method: str
    beta1: float
    beta2: float
    ssr: float
    candidates: tuple
    diagnostics: dict


def _diagonal_factors(g):
    """The diagonal rate's seven linear factors, as (weight, a - b, a, b, noise).

    On beta1 = beta2 = beta, R ln 2 is the sum of weight ln L over the
    factors L = beta a + (1 - beta) b + noise = (a - b) beta + b + noise:
    each rate term's numerator (weight 1 for Alice's and Bob's, -1 for
    Eve's two) and denominator (the opposite weight), Eve's shared
    denominator Le last, with weight 2.  All are positive on [0, 1], and
    the weights sum to 0.  :func:`hicf` builds them once for the
    polynomial and the refinement.
    """
    s1, s2, s3, s4, s5, s6, s7, s8 = g.as_tuple()
    leak, sa, sb, se = s7 + s8, g.sigma2_a, g.sigma2_b, g.sigma2_e
    return tuple((weight, a - b, a, b, noise) for weight, a, b, noise in (
        (1.0, s1, s2, sa), (-1.0, 0.0, s2, sa), (1.0, s3, s4, sb), (-1.0, 0.0, s4, sb),
        (-1.0, s5, leak, se), (-1.0, s6, leak, se), (2.0, 0.0, leak, se)))


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
    return _stationary(_diagonal_factors(g))


def _stationary(factors):
    """:func:`sextic_coeffs` from the factors of :func:`_diagonal_factors`.

    Each factor is the line u beta + v, u = a - b and v = b + noise.  The
    products are written out in the order of a generic product of
    highest-first coefficient lists, in which coefficient k of p q is
    0.0 + p0 q_k + p1 q_(k-1) + ..., summed from the left, so every
    coefficient has that product's bits.
    """
    (_, u1, _, b1, n1), (_, u2, _, b2, n2), (_, u3, _, b3, n3), (_, u4, _, b4, n4), \
        (_, u5, _, b5, n5), (_, u6, _, b6, n6), (_, ue, _, be, ne) = factors
    v1, v2, v3, v4, v5, v6, ve = b1 + n1, b2 + n2, b3 + n3, b4 + n4, b5 + n5, b6 + n6, be + ne
    # N1 = L1 L3 as m, and D = (L2 L4)(L5 L6) as x times y
    m0, m1, m2 = 0.0 + u1 * u3, 0.0 + u1 * v3 + v1 * u3, 0.0 + v1 * v3
    x0, x1, x2 = 0.0 + u2 * u4, 0.0 + u2 * v4 + v2 * u4, 0.0 + v2 * v4
    y0, y1, y2 = 0.0 + u5 * u6, 0.0 + u5 * v6 + v5 * u6, 0.0 + v5 * v6
    d0 = 0.0 + x0 * y0
    d1 = 0.0 + x0 * y1 + x1 * y0
    d2 = 0.0 + x0 * y2 + x1 * y1 + x2 * y0
    d3 = 0.0 + x1 * y2 + x2 * y1
    d4 = 0.0 + x2 * y2
    # outer = N1' Le + 2 Le' N1, the first product as [2 m0, m1] times Le
    twice, lead = 2.0 * m0, 2.0 * ue
    o0 = 0.0 + twice * ue + lead * m0
    o1 = 0.0 + twice * ve + m1 * ue + lead * m1
    o2 = 0.0 + m1 * ve + lead * m2
    # D' and N1 Le
    e0, e1, e2, e3 = 4.0 * d0, 3.0 * d1, 2.0 * d2, d3
    c0 = 0.0 + m0 * ue
    c1 = 0.0 + m0 * ve + m1 * ue
    c2 = 0.0 + m1 * ve + m2 * ue
    c3 = 0.0 + m2 * ve
    # outer D - N1 Le D', its beta^6 term cancelling
    raw = [
        (0.0 + o0 * d1 + o1 * d0) - (0.0 + c0 * e1 + c1 * e0),
        (0.0 + o0 * d2 + o1 * d1 + o2 * d0) - (0.0 + c0 * e2 + c1 * e1 + c2 * e0),
        (0.0 + o0 * d3 + o1 * d2 + o2 * d1) - (0.0 + c0 * e3 + c1 * e2 + c2 * e1 + c3 * e0),
        (0.0 + o0 * d4 + o1 * d3 + o2 * d2) - (0.0 + c1 * e3 + c2 * e2 + c3 * e1),
        (0.0 + o1 * d4 + o2 * d3) - (0.0 + c2 * e3 + c3 * e2),
        (0.0 + o2 * d4) - (0.0 + c3 * e3),
    ]
    if not all(map(math.isfinite, raw)):
        raise DegenerateSexticError("stationarity polynomial coefficients are not finite")
    while raw[0] == 0.0 or abs(raw[0]) < DEGENERATE_LEADING_RATIO * max(map(abs, raw[1:])):
        raw = raw[1:]
        if len(raw) < 5:
            raise DegenerateSexticError("stationarity polynomial degree fell below 4")
    return [1.0, *[c / raw[0] for c in raw[1:]]]


def _horner(coeffs, x):
    """Value at x of a highest-first list of Python floats.

    The operation sequence of ``np.polyval`` (``y = y * x + c`` from
    y = 0), so for a real x the result is bit-identical, without its
    per-call array overhead.  A complex x gives the same bits on every CPU.
    """
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def _residuals_within(coeffs, roots, bound):
    """Whether |p(z)| <= bound at every complex root z, by :func:`_horner`'s
    loop written inline, where a root outside the unit disc is checked as
    |z^-n p(z)|, the reversed polynomial at 1/z; a NaN residual fails, as
    under ``np.max``."""
    n = len(coeffs) - 1
    for z in roots:
        y = 0.0
        for c in coeffs:
            y = y * z + c
        if not abs(y) <= bound * max(1.0, abs(z)) ** n:
            return False
    return True


# The cube roots of unity as (omega**k, omega**-k), k = 0, 1, 2.
_OMEGA = cmath.exp(2j * cmath.pi / 3.0)
_OMEGA_PAIRS = tuple((_OMEGA**k, _OMEGA**-k) for k in range(3))


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
        t1 = complex(-gamma2 / 2.0, math.sqrt(-disc)) ** (1.0 / 3.0)
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
            eta2 = cmath.sqrt(even + sign_s * odd_term / (4.0 * eta1))
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
    try:
        roots = _ferrari(a1, a2, a3, a4)
    except OverflowError:
        roots = []
    if roots or a4 == 0.0:
        return roots
    flipped = (a3 / a4, a2 / a4, a1 / a4, 1.0 / a4)
    if not all(map(math.isfinite, flipped)):
        return []
    try:
        flipped_roots = _ferrari(*flipped)
    except OverflowError:
        return []
    # the reversed constant term is 1 / a4, so a root at 0 passed only through the check's scale
    return [1.0 / y for y in flipped_roots] if all(flipped_roots) else []


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
    k = int(values.argmax())  # first max -> smallest beta on ties
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
    with only their noise, the most each can take."""
    return ES2D_SLACK * (1.0 + (math.log2(1.0 + float(g.s1) / float(g.sigma2_a))
                                + math.log2(1.0 + float(g.s3) / float(g.sigma2_b))
                                + math.log2(1.0 + float(g.s5) / float(g.sigma2_e))
                                + math.log2(1.0 + float(g.s6) / float(g.sigma2_e))))


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
    kept rows and columns are scored as one broadcast sub-grid.  The best
    interior row is tested first: float addition is monotone, so when it is
    dropped every row is, and no mask or sub-grid is built (on 82 % of the
    log-uniform draws of the benchmark's ``pa-fuzz`` seed 1).

    The slack (:func:`_es2d_slack`) is ``ES2D_SLACK`` times 1 plus each log
    term's value at full power with only its noise, which bounds that term
    in every cell.  It thus bounds the rounding of the three cells a test
    compares, numpy's log2 error included, however much the large terms
    cancel, which a slack relative to R would not.  So a dropped cell lies
    strictly below ``best``, and the C-order-first maximum of the scored
    cells is the full grid's: ties break toward smaller beta1, then smaller
    beta2.  Each scored value is the full grid's bits.

    ``diagnostics["evaluations"]`` is the grid size and ``"scored"`` the
    number of cells whose objective was computed.
    """
    grid = _grid(step)
    n = grid.size
    beta1, beta2, flat = _boundary(step)
    edge = _objective(beta1, beta2, g)  # C order: argmax takes the first maximum
    k = int(edge.argmax())
    best, k = edge[k], int(flat[k])  # the edges' maximum and its cell
    scored = edge.size
    # R(beta_i, 0) of the interior rows and R(0, beta_j) of the interior columns
    row_edge, col_edge = edge[n:3 * n - 4:2], edge[1:n - 1]
    slack = _es2d_slack(g)
    row_top, reach = row_edge.max(), col_edge.max() + slack
    # when the best row fails the test every row does (float addition is monotone)
    if not row_top + reach < best:
        rows = (row_edge + reach >= best).nonzero()[0] + 1
        # with no row left there is no sub-grid, whatever the columns
        cols = (col_edge + (row_top + slack) >= best).nonzero()[0] + 1 if rows.size else rows
        scored += rows.size * cols.size
        if cols.size:
            values = _objective(grid[rows, None], grid[None, cols], g)
            r, c = divmod(int(values.argmax()), cols.size)
            cell, value = int(rows[r]) * n + int(cols[c]), values[r, c]
            # the larger value wins; on a tie the first in C order
            if value > best or value == best and cell < k:
                k, best = cell, value
    i, j = divmod(k, n)
    return PaOutcome(  # a grid value has the scalar objective's bits
        method="es2d", beta1=float(grid[i]), beta2=float(grid[j]), ssr=max(0.0, float(best)),
        candidates=(), diagnostics={"step": step, "evaluations": n * n, "scored": scored},
    )


def _newton_stage(quintic):
    """One Newton-Raphson root of the monic quintic [1, a1, ..., a5], a list
    of Python floats, and the quartic [1, q1, ..., q4] it deflates to.

    From each of ``NEWTON_STARTS`` in turn, beta <- beta - f / f' until a
    step is <= ``NEWTON_TOL``.  A start fails where |f'| < ``DERIVATIVE_TOL``,
    where a step is not finite, after ``NEWTON_MAX_ITER`` steps, and where
    the root's remainder exceeds ``DEFLATION_RESIDUAL_TOL`` times the
    largest |coefficient| (a NaN remainder passes).  Returns (root,
    quartic, starts tried), or (None, None, 9) when every start fails.

    f and f' are two Horner passes (a fused pass would round differently)
    in ``np.polyval``'s operations on the polynomial and ``np.polyder``'s
    products, whose accumulator is exactly 1.0 (5.0 for f') before a1
    (4 a1) on a monic quintic, so they have its bits.
    """
    _, a1, a2, a3, a4, a5 = quintic
    d1, d2, d3 = 4.0 * a1, 3.0 * a2, 2.0 * a3
    bound = DEFLATION_RESIDUAL_TOL * max(map(abs, quintic))
    tol, min_slope = NEWTON_TOL, DERIVATIVE_TOL  # locals: the loop reads them every step
    for tried, beta in enumerate(NEWTON_STARTS, 1):
        for _ in range(NEWTON_MAX_ITER):
            slope = (((5.0 * beta + d1) * beta + d2) * beta + d3) * beta + a4
            if abs(slope) < min_slope:
                break
            r = beta - (((((beta + a1) * beta + a2) * beta + a3) * beta + a4) * beta + a5) / slope
            if not math.isfinite(r):
                break
            if abs(r - beta) <= tol:
                q1 = a1 + r
                q2 = a2 + r * q1
                q3 = a3 + r * q2
                q4 = a4 + r * q3
                if not abs(a5 + r * q4) > bound:
                    return r, [1.0, q1, q2, q3, q4], tried
                break
            beta = r
    return None, None, len(NEWTON_STARTS)


def _refine(factors, beta):
    """Up to ``REFINE_STEPS`` Newton steps on R'(beta) from ``beta``: the last point reached.

    Over the factors of :func:`_diagonal_factors`, R' ln 2 is the sum of
    weight (a - b) / L and R'' ln 2 minus that of weight ((a - b) / L)^2:
    sums that stay accurate where the expanded polynomial's roots cluster.
    The seven terms are written out with their weights' signs, summed from
    0.0 in the factors' order.  Stops where R'' >= 0 (or is NaN), where a
    step would leave [0, 1], and at a fixed point or a last-bit 2-cycle.
    """
    (_, u1, a1, b1, n1), (_, u2, a2, b2, n2), (_, u3, a3, b3, n3), (_, u4, a4, b4, n4), \
        (_, u5, a5, b5, n5), (_, u6, a6, b6, n6), (_, ue, ae, be, ne) = factors
    last = None
    for _ in range(REFINE_STEPS):
        rest = 1.0 - beta
        r1 = u1 / (beta * a1 + rest * b1 + n1)
        r2 = u2 / (beta * a2 + rest * b2 + n2)
        r3 = u3 / (beta * a3 + rest * b3 + n3)
        r4 = u4 / (beta * a4 + rest * b4 + n4)
        r5 = u5 / (beta * a5 + rest * b5 + n5)
        r6 = u6 / (beta * a6 + rest * b6 + n6)
        re = ue / (beta * ae + rest * be + ne)
        twice = 2.0 * re  # Le's weight
        curvature = 0.0 - r1 * r1 + r2 * r2 - r3 * r3 + r4 * r4 + r5 * r5 + r6 * r6 - twice * re
        if not curvature < 0.0:
            break
        slope = 0.0 + r1 - r2 + r3 - r4 - r5 - r6 + twice
        beta_next = beta - slope / curvature
        if not 0.0 <= beta_next <= 1.0 or beta_next in (beta, last):
            break
        last, beta = beta, beta_next
    return beta


def hicf(g):
    """Hybrid iterative/closed-form split optimization on the diagonal.

    Pipeline: the stationarity polynomial (:func:`sextic_coeffs`); on a
    quintic, one Newton stage (``newton-1``) from ``NEWTON_STARTS``, each
    start capped at ``NEWTON_MAX_ITER`` steps, whose root deflates it;
    Ferrari on the quartic.  A Newton stage whose every start fails, or a
    Ferrari that fails, records ``no-root:<stage>``; a failed Newton stage
    ends the chain.  A degenerate polynomial records
    ``degenerate-sextic->es1d``.  Whenever a closed-form root is missing
    in one of these three ways, es1d's grid point is a candidate (origin
    ``es1d``).  The candidates are the real part of every closed-form root
    in [0, 1], that grid point and the boundaries; :func:`_refine` runs
    from each, and the best point reached (the first on ties) becomes a
    ``refined`` candidate when it scores higher than every candidate.  Each
    distinct split among the candidates and the points reached is scored
    once, from one table keyed by beta; a refinement often ends where it
    started.  The argmax of the unclamped objective (smallest beta on ties)
    applies to both split factors.  ``candidates`` holds one
    :class:`PaCandidate` per candidate, in beta order, then the refined one.
    ``diagnostics["degree"]`` is the polynomial's degree, None where it
    degenerates.
    """
    factors = _diagonal_factors(g)
    diagnostics = {"fallbacks": [], "newton_attempts": {}, "degree": None, "root_residuals": []}
    labeled, candidates = [], [(0.0, "boundary"), (1.0, "boundary")]  # labeled: (root, origin)
    try:
        stationary = _stationary(factors)
    except DegenerateSexticError as err:
        diagnostics["fallbacks"].append("degenerate-sextic->es1d")
        diagnostics["reason"] = str(err)
    else:
        diagnostics["degree"] = len(stationary) - 1
        poly = stationary
        if len(poly) == 6:  # a quintic: one Newton root deflates it to a quartic
            root, poly, attempts = _newton_stage(poly)
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
    if diagnostics["fallbacks"]:  # a closed-form root is missing: score es1d's grid point
        candidates.append((es_1d(g).beta1, "es1d"))

    diagnostics["roots"] = [complex(r) for r, _ in labeled]
    diagnostics["origins"] = [origin for _, origin in labeled]
    candidates.extend((r.real, origin) for r, origin in labeled if 0.0 <= r.real <= 1.0)
    candidates.sort(key=lambda item: item[0])  # smallest beta wins ties

    ends = [_refine(factors, b) for b, _ in candidates]
    # each distinct split scored once, with rate_objective's bits (every point
    # lies in [0, 1]); -0.0 and 0.0 share a key and a value
    scores = dict.fromkeys([b for b, _ in candidates] + ends)
    for b in scores:
        scores[b] = float(_objective(b, b, g))
    evaluated = tuple(PaCandidate(b, scores[b], origin) for b, origin in candidates)
    best = max(evaluated, key=lambda cand: cand.objective)  # the first, smallest beta, on ties
    end = max(ends, key=scores.__getitem__)  # the first end on ties
    if scores[end] > best.objective:
        best = PaCandidate(end, scores[end], "refined")
        evaluated += (best,)
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
