"""Achievable rates and the secrecy sum rate, in two equivalent forms.

The scalar form reduces the whole network to eight nonnegative gains
s1..s8 (mW-scaled squared channel-beamformer magnitudes) and evaluates the
rate expression in closed form over the power-split factors; the matrix
form rebuilds the quadratic-form numerators/denominators from the raw
channels and serves as an independent oracle for the scalar path.

Logs are base 2; rates are bits/s/Hz.  Clamping to zero happens once, at
the secrecy-sum-rate level.

:func:`rate_objective` takes two scalar splits, rejects one outside
[0, 1] (NaN included) and returns a float.  The grids of ``sim`` and
``power_allocation`` evaluate the same expression, ``_objective``, on
arrays over [0, 1], so a grid value is bit-identical to the scalar one.
The expression keeps ``np.log2`` on scalars too: ``math.log2`` rounds
differently in the last bit on a fraction of inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# each rate term's message gain and noise power
_SNR_TERMS = (("s1", "sigma2_a"), ("s3", "sigma2_b"), ("s5", "sigma2_e"), ("s6", "sigma2_e"))


@dataclass(frozen=True)
class ScalarGains:
    """The eight link-budget scalars plus the three noise powers (all mW).

    Each rate term's full-power SNR, s1 / sigma2_a, s3 / sigma2_b,
    s5 / sigma2_e and s6 / sigma2_e, must be finite: gains that overflow
    one are refused, naming each such term, so no rate term is infinite
    or NaN.
    """

    s1: float
    s2: float
    s3: float
    s4: float
    s5: float
    s6: float
    s7: float
    s8: float
    sigma2_a: float
    sigma2_b: float
    sigma2_e: float

    def __post_init__(self):
        for name in ("s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        for name in ("sigma2_a", "sigma2_b", "sigma2_e"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        over = [f"{s} / {sigma}" for s, sigma in _SNR_TERMS
                if not np.isfinite(float(getattr(self, s)) / float(getattr(self, sigma)))]
        if over:
            raise ValueError(f"full-power SNR is not finite: {', '.join(over)}")

    def as_tuple(self):
        return (self.s1, self.s2, self.s3, self.s4, self.s5, self.s6, self.s7, self.s8)


def _mag2(x):
    return float(np.abs(x) ** 2)


def scalar_gains(eff, bf, config):
    """The s1..s8 scalars for a frozen beamformer set.

    s1/s2: message/noise power reaching Alice, s3/s4: reaching Bob,
    s5/s6: message power leaking to Eve from Alice/Bob, s7/s8: noise power
    arriving at Eve from Alice/Bob.
    """
    pa, pb = config.pa_mw, config.pb_mw
    # each receiver's left product, shared by its message and noise terms
    # (``@`` is left-associative, so every s_i keeps the chained product's bits)
    at_a = bf.v_ar.conj() @ eff.h_a
    at_b = bf.v_br.conj() @ eff.h_b
    at_e1 = bf.v_er.conj() @ eff.h_e1
    at_e2 = bf.v_er.conj() @ eff.h_e2
    return ScalarGains(
        s1=pb * _mag2(at_a @ bf.v_bt),
        s2=pb * _mag2(at_a @ bf.w_b),
        s3=pa * _mag2(at_b @ bf.v_at),
        s4=pa * _mag2(at_b @ bf.w_a),
        s5=pa * _mag2(at_e1 @ bf.v_at),
        s6=pb * _mag2(at_e2 @ bf.v_bt),
        s7=pa * _mag2(at_e1 @ bf.w_a),
        s8=pb * _mag2(at_e2 @ bf.w_b),
        sigma2_a=config.sigma2_a_mw,
        sigma2_b=config.sigma2_b_mw,
        sigma2_e=config.sigma2_e_mw,
    )


def _objective(beta1, beta2, g):
    rest1, rest2 = 1.0 - beta1, 1.0 - beta2
    d_e = rest1 * g.s7 + rest2 * g.s8 + g.sigma2_e
    return (
        np.log2(1.0 + beta2 * g.s1 / (rest2 * g.s2 + g.sigma2_a))
        + np.log2(1.0 + beta1 * g.s3 / (rest1 * g.s4 + g.sigma2_b))
        - np.log2(1.0 + beta1 * g.s5 / d_e)
        - np.log2(1.0 + beta2 * g.s6 / d_e)
    )


def rate_objective(beta1, beta2, g):
    """Unclamped secrecy objective R(beta1, beta2) of two scalar splits, as a float.

    Exposed unclamped because the power-split optimizer needs a function
    without the flat clamped region.
    """
    beta1, beta2 = float(beta1), float(beta2)
    if not (0.0 <= beta1 <= 1.0 and 0.0 <= beta2 <= 1.0):
        raise ValueError("power-split factors must lie in [0, 1]")
    return float(_objective(beta1, beta2, g))


def ssr(beta1, beta2, g):
    """Secrecy sum rate max{0, R(beta1, beta2)} in bits/s/Hz."""
    return max(0.0, rate_objective(beta1, beta2, g))


def rates_matrix_form(eff, bf, config):
    """(R_a, R_b, R_e) from the quadratic-form matrices.

    Deliberately rebuilt from outer products so this path shares no
    arithmetic with :func:`rate_objective`; the two must agree to 1e-10.
    """
    pa, pb = config.pa_mw, config.pb_mw
    b1, b2 = config.beta1, config.beta2

    def quad(vec, mat):
        return float(np.real(vec.conj() @ mat @ vec))

    def outer_of(channel, vec):
        col = channel @ vec
        return np.outer(col, col.conj())

    a_mat = b2 * pb * outer_of(eff.h_a, bf.v_bt)
    b_mat = (1.0 - b2) * pb * outer_of(eff.h_a, bf.w_b)
    c_mat = b1 * pa * outer_of(eff.h_b, bf.v_at)
    d_mat = (1.0 - b1) * pa * outer_of(eff.h_b, bf.w_a)
    e_mat = b1 * pa * outer_of(eff.h_e1, bf.v_at)
    f_mat = b2 * pb * outer_of(eff.h_e2, bf.v_bt)
    g_mat = (1.0 - b1) * pa * outer_of(eff.h_e1, bf.w_a)
    j_mat = (1.0 - b2) * pb * outer_of(eff.h_e2, bf.w_b)

    r_a = np.log2(1.0 + quad(bf.v_ar, a_mat) / (quad(bf.v_ar, b_mat) + config.sigma2_a_mw))
    r_b = np.log2(1.0 + quad(bf.v_br, c_mat) / (quad(bf.v_br, d_mat) + config.sigma2_b_mw))
    eve_den = quad(bf.v_er, g_mat + j_mat) + config.sigma2_e_mw
    r_e = (
        np.log2(1.0 + quad(bf.v_er, e_mat) / eve_den)
        + np.log2(1.0 + quad(bf.v_er, f_mat) / eve_den)
    )
    return float(r_a), float(r_b), float(r_e)
