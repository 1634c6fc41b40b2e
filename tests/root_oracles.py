"""Test oracles for hicf's roots and its diagonal optimum.

``companion_roots`` is the float oracle the closed-form root finders are
checked against.  ``certified_diagonal`` is an exact one: the largest
objective on beta1 = beta2 = beta in [0, 1], found from the rate's
stationary points in exact integer arithmetic, standard library alone.
"""

import math

import numpy as np

from risdm.rates import rate_objective


class DegeneratePolynomialError(ValueError):
    """Raised when a polynomial's leading coefficient vanishes."""


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


# Exact polynomials are lists of integers, lowest degree first, with no
# trailing zeros: [] is the zero polynomial.  Only their real roots
# matter, so each is kept up to a positive factor.

def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _add(p, q):
    if len(p) < len(q):
        p, q = q, p
    return _trim([a + (q[i] if i < len(q) else 0) for i, a in enumerate(p)])


def _derivative(p):
    return [i * a for i, a in enumerate(p)][1:]


def _primitive(p):
    """p divided by the gcd of its coefficients."""
    content = math.gcd(*p)
    return [c // content for c in p] if content else p


def _divmod(p, q):
    """Positive multiples c (quotient, remainder) of p by a nonzero q, for
    one c > 0: each step multiplies by |lead(q)| before it cancels."""
    lead, sign = abs(q[-1]), (q[-1] > 0) - (q[-1] < 0)
    quotient, rem = [0] * max(len(p) - len(q) + 1, 0), list(p)
    while len(rem) >= len(q):
        shift, c = len(rem) - len(q), sign * rem[-1]
        quotient = [lead * a for a in quotient]
        quotient[shift] += c
        rem = _trim([lead * a - (c * q[i - shift] if i >= shift else 0)
                     for i, a in enumerate(rem)])
    return _primitive(_trim(quotient)), _primitive(rem)


def _gcd(p, q):
    while q:
        p, q = q, _divmod(p, q)[1]
    return p


def _sign(p, x):
    """The sign of an integer polynomial at a float x = n / d, from the
    integer d^deg p(n / d)."""
    n, d = float(x).as_integer_ratio()
    acc, power = p[-1], d
    for c in reversed(p[:-1]):
        acc = acc * n + c * power
        power *= d
    return (acc > 0) - (acc < 0)


def stationary_numerator(g):
    """Q = sum over the diagonal rate's seven linear factors L_i of
    w_i (a_i - b_i) prod_{j != i} L_j, exact: (ln 2) R'(beta) times the
    factors' product, which is positive on [0, 1], so Q has R''s sign there.

    L = (a - b) beta + b + noise, with (w, a, b, noise) as in
    ``power_allocation._diagonal_factors``.  Each gain, an exact binary
    rational, is taken times the power of two that makes all of them
    integers: Q is homogeneous in the gains, so that scales it by a
    positive constant, and its coefficients are integers.
    """
    ratios = [float(x).as_integer_ratio()
              for x in (*g.as_tuple(), g.sigma2_a, g.sigma2_b, g.sigma2_e)]
    scale = max(d for _, d in ratios)  # each denominator a power of two
    s1, s2, s3, s4, s5, s6, s7, s8, sa, sb, se = (n * (scale // d) for n, d in ratios)
    leak = s7 + s8
    factors = [(1, s1, s2, sa), (-1, 0, s2, sa), (1, s3, s4, sb), (-1, 0, s4, sb),
               (-1, s5, leak, se), (-1, s6, leak, se), (2, 0, leak, se)]
    lines = [[b + noise, a - b] for _, a, b, noise in factors]
    q = []
    for i, (weight, a, b, _) in enumerate(factors):
        term = [weight * (a - b)]
        for j, line in enumerate(lines):
            if j != i:
                term = _mul(term, line)
        q = _add(q, term)
    return q


def _sturm_chain(p):
    """p's Sturm sequence, each term up to a positive factor."""
    chain = [p, _derivative(p)]
    while rem := _divmod(chain[-2], chain[-1])[1]:
        chain.append([-c for c in rem])
    return chain


def _sign_changes(chain, x):
    signs = [s for s in (_sign(p, x) for p in chain) if s]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def _between(lo, hi):
    """A float strictly between two floats, or None when they are adjacent."""
    mid = (lo + hi) / 2.0
    if lo < mid < hi:
        return mid
    mid = math.nextafter(lo, hi)
    return mid if mid < hi else None


def stationary_floats(g):
    """Each distinct real root of Q in (0, 1] as the two adjacent floats
    around it (or the float it equals): a Sturm count isolates the roots of
    Q's square-free part, and sign bisection narrows each to floats."""
    q = stationary_numerator(g)
    if len(q) < 2:
        return []  # Q constant: R' never changes sign
    sqf = _divmod(q, _gcd(q, _derivative(q)))[0]
    chain = _sturm_chain(sqf)

    def count(lo, hi):  # distinct roots in (lo, hi]
        return _sign_changes(chain, lo) - _sign_changes(chain, hi)

    def isolate(lo, hi):
        n = count(lo, hi)
        if n == 0:
            return []
        s_lo, s_hi = _sign(sqf, lo), _sign(sqf, hi)
        if n == 1 and s_hi == 0:
            return [hi]
        if n == 1 and s_lo * s_hi < 0:
            while (mid := _between(lo, hi)) is not None:
                s_mid = _sign(sqf, mid)
                if s_mid == 0:
                    return [mid]
                lo, hi = (mid, hi) if s_mid == s_lo else (lo, mid)
            return [lo, hi]
        mid = _between(lo, hi)
        if mid is None:
            return [lo, hi]
        return isolate(lo, mid) + isolate(mid, hi)

    return isolate(0.0, 1.0)


def certified_diagonal(g):
    """(beta, objective): the best float objective on the diagonal over 0,
    1 and the floats that bracket each stationary point, smallest beta on
    ties.  The exact maximum over [0, 1] lies at one of these points, so
    this bounds from above, to rounding, what any diagonal search can reach.
    """
    betas = sorted({0.0, 1.0, *stationary_floats(g)})
    return max(((b, rate_objective(b, b, g)) for b in betas), key=lambda item: item[1])
