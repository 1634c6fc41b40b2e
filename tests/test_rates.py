"""Scalar-form and matrix-form rate agreement, plus objective properties."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import direct_only, pipeline, pipeline_gains, random_config, random_gains
from risdm.geometry import default_config
from risdm.rates import (
    ScalarGains,
    _objective,
    rate_objective,
    rates_matrix_form,
    scalar_gains,
    ssr,
)


class TestScalarGains:
    def test_power_linearity(self, default_cfg):
        _, _, _, eff, bf = pipeline(default_cfg)
        g1 = scalar_gains(eff, bf, default_cfg)
        doubled = default_cfg.replace(Pa_dbm=default_cfg.Pa_dbm + 10 * math.log10(2))
        g2 = scalar_gains(eff, bf, doubled)  # same frozen beamformers
        for name in ("s3", "s4", "s5", "s7"):
            assert getattr(g2, name) == pytest.approx(2 * getattr(g1, name), rel=1e-12)
        for name in ("s1", "s2", "s6", "s8"):
            assert getattr(g2, name) == pytest.approx(getattr(g1, name), rel=1e-12)

    def test_max_sv_nulls_an_at_legit_receivers(self, default_cfg):
        # the noise beam lies in the message null space, so s4 << s3
        g = pipeline_gains(default_cfg, method="max-sv")
        assert g.s4 < 1e-20 * g.s3
        assert g.s2 < 1e-20 * g.s1

    def test_zero_channels_zero_gains(self, default_cfg):
        _, _, _, _, bf = pipeline(default_cfg)
        zero = direct_only(
            h_a=np.zeros((default_cfg.Na, default_cfg.Nb)),
            h_b=np.zeros((default_cfg.Nb, default_cfg.Na)),
            h_e1=np.zeros((default_cfg.Ne, default_cfg.Na)),
            h_e2=np.zeros((default_cfg.Ne, default_cfg.Nb)),
        )
        g = scalar_gains(zero, bf, default_cfg)
        assert g.as_tuple() == (0.0,) * 8

    @pytest.mark.parametrize("method", ["max-sv", "leakage"])
    @pytest.mark.parametrize("ris_mode", ["gpg", "random", "none"])
    def test_shared_left_products_keep_the_chained_bits(self, default_cfg, method, ris_mode):
        _, _, _, eff, bf = pipeline(default_cfg, ris_mode=ris_mode, method=method, seed=3)
        pa, pb = default_cfg.pa_mw, default_cfg.pb_mw
        want = (
            pb * float(np.abs(bf.v_ar.conj() @ eff.h_a @ bf.v_bt) ** 2),
            pb * float(np.abs(bf.v_ar.conj() @ eff.h_a @ bf.w_b) ** 2),
            pa * float(np.abs(bf.v_br.conj() @ eff.h_b @ bf.v_at) ** 2),
            pa * float(np.abs(bf.v_br.conj() @ eff.h_b @ bf.w_a) ** 2),
            pa * float(np.abs(bf.v_er.conj() @ eff.h_e1 @ bf.v_at) ** 2),
            pb * float(np.abs(bf.v_er.conj() @ eff.h_e2 @ bf.v_bt) ** 2),
            pa * float(np.abs(bf.v_er.conj() @ eff.h_e1 @ bf.w_a) ** 2),
            pb * float(np.abs(bf.v_er.conj() @ eff.h_e2 @ bf.w_b) ** 2),
        )
        got = scalar_gains(eff, bf, default_cfg).as_tuple()
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_validation(self):
        with pytest.raises(ValueError):
            ScalarGains(-1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            ScalarGains(1, 1, 1, 1, 1, 1, 1, 1, 0.0, 1, 1)

    @pytest.mark.parametrize("gains, terms", [
        ((1e300,) * 8 + (1e-300,) * 3,
         "s1 / sigma2_a, s3 / sigma2_b, s5 / sigma2_e, s6 / sigma2_e"),
        ((1e200, 0, 1, 0, 1, 1, 1, 1, 1e-200, 1, 1), "s1 / sigma2_a"),
        ((1, 0, 1, 0, 1, 1e300, 1, 1, 1, 1, 1e-10), "s6 / sigma2_e"),
    ])
    def test_overflowing_snr_refused_naming_its_terms(self, gains, terms):
        with pytest.raises(ValueError, match=f"full-power SNR is not finite: {re.escape(terms)}$"):
            ScalarGains(*gains)

    def test_finite_snr_and_overflowing_leaks_accepted(self):
        # s1 / sigma2_a = 1e308 is finite, and the leaks s2, s4, s7, s8 sit
        # only in denominators, so their ratios to the noise may overflow
        g = ScalarGains(1e300, 1e300, 1, 1e300, 1, 1, 1e300, 1e300, 1e-8, 1e-10, 1e-10)
        assert 0.0 <= ssr(0.5, 0.5, g) < math.inf


class TestObjective:
    def test_no_message_power_gives_zero(self, rng):
        g = random_gains(rng)
        assert ssr(0.0, 0.0, g) == 0.0

    def test_eavesdropper_free_reduction(self):
        g = ScalarGains(4.0, 1.0, 9.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        want = math.log2(1 + 4.0) + math.log2(1 + 9.0)
        assert ssr(1.0, 1.0, g) == pytest.approx(want, abs=1e-12)

    def test_hand_evaluated_point(self):
        g = ScalarGains(4, 1, 4, 1, 1, 1, 1, 1, 1, 1, 1)
        # R_a = R_b = log2(1 + 2/1.5); R_e = 2 log2(1 + 0.5/2)
        want = 2 * math.log2(1 + 0.5 * 4 / (0.5 * 1 + 1)) - 2 * math.log2(1 + 0.5 / 2)
        assert ssr(0.5, 0.5, g) == pytest.approx(want, abs=1e-12)

    def test_out_of_range_rejected(self, rng):
        g = random_gains(rng)
        with pytest.raises(ValueError):
            ssr(1.2, 0.5, g)

    @pytest.mark.parametrize("b1, b2", [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan)])
    def test_nan_split_rejected(self, rng, b1, b2):
        # max(0.0, nan) is 0.0, so ssr once returned 0 for a NaN split
        g = random_gains(rng)
        for fn in (ssr, rate_objective):
            with pytest.raises(ValueError, match=re.escape("must lie in [0, 1]")):
                fn(b1, b2, g)

    def test_array_split_rejected(self, rng):
        # rate_objective takes scalars; grids evaluate _objective
        g = random_gains(rng)
        betas = np.array([0.25, 0.5])
        with pytest.raises(TypeError):
            rate_objective(betas, 0.5, g)
        with pytest.raises(TypeError):
            rate_objective(0.5, betas, g)

    def test_scalar_forms_give_a_float(self, rng):
        g = random_gains(rng)
        want = rate_objective(0.25, 0.75, g)
        assert type(want) is float
        for b1, b2 in [(np.float64(0.25), np.array(0.75)), (np.array(0.25), 0.75)]:
            got = rate_objective(b1, b2, g)
            assert type(got) is float and got == want
        assert rate_objective(0, 1, g) == rate_objective(0.0, 1.0, g)

    def test_scalar_broadcast_against_array(self, rng):
        g = random_gains(rng)
        betas = np.linspace(0.0, 1.0, 11)
        got = _objective(0.3, betas, g)
        assert got.shape == (11,)
        assert got.tolist() == [rate_objective(0.3, b, g) for b in betas.tolist()]

    @settings(max_examples=400, deadline=None)
    @given(
        s=st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0**e), min_size=8, max_size=8),
        b1=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        b2=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_scalar_path_matches_array_path_bit_for_bit(self, s, b1, b2):
        g = ScalarGains(*s, 1.0, 1.0, 1.0)
        array = _objective(np.array([b1]), np.array([b2]), g)
        assert float.hex(rate_objective(b1, b2, g)) == float.hex(float(array[0]))

    def test_clamped_nonnegative(self, rng):
        for _ in range(200):
            g = random_gains(rng)
            b1, b2 = rng.uniform(0, 1, size=2)
            assert ssr(b1, b2, g) >= 0.0

    def test_monotone_in_eavesdropper_gain(self, rng):
        for _ in range(50):
            g = random_gains(rng)
            b1, b2 = rng.uniform(0.1, 0.9, size=2)
            values = []
            for s5 in np.linspace(g.s5, g.s5 + 10, 30):
                values.append(ssr(b1, b2, replace(g, s5=float(s5))))
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_vectorized_matches_scalar(self, rng):
        g = random_gains(rng)
        betas = rng.uniform(0, 1, size=64)
        vec = _objective(betas, betas, g)
        for b, v in zip(betas, vec):
            assert v == pytest.approx(rate_objective(float(b), float(b), g), abs=1e-14)

    def test_swap_symmetry_under_symmetric_gains(self, rng):
        # with s1=s3, s2=s4, s5=s6, s7=s8, sigma_a=sigma_b the objective is
        # invariant under (beta1, beta2) swap
        s1, s2, s5, s7 = 3.0, 0.7, 0.4, 1.1
        g = ScalarGains(s1, s2, s1, s2, s5, s5, s7, s7, 0.3, 0.3, 0.2)
        for _ in range(100):
            b1, b2 = rng.uniform(0, 1, size=2)
            assert rate_objective(b1, b2, g) == pytest.approx(
                rate_objective(b2, b1, g), abs=1e-12)


class TestMatrixFormOracle:
    @pytest.mark.parametrize("method", ["max-sv", "leakage"])
    def test_agreement_on_default(self, default_cfg, method):
        _, _, _, eff, bf = pipeline(default_cfg, method=method)
        g = scalar_gains(eff, bf, default_cfg)
        ra, rb, re = rates_matrix_form(eff, bf, default_cfg)
        s_form = rate_objective(default_cfg.beta1, default_cfg.beta2, g)
        assert s_form == pytest.approx(ra + rb - re, abs=1e-10)

    def test_agreement_random_scenarios(self, rng):
        for i in range(20):
            cfg = random_config(rng, m=int(rng.integers(8, 65)))
            method = "max-sv" if i % 2 == 0 else "leakage"
            _, _, _, eff, bf = pipeline(cfg, method=method)
            g = scalar_gains(eff, bf, cfg)
            ra, rb, re = rates_matrix_form(eff, bf, cfg)
            s_form = rate_objective(cfg.beta1, cfg.beta2, g)
            assert abs(s_form - (ra + rb - re)) < 1e-10

    def test_all_zero_channels(self, default_cfg):
        _, _, _, _, bf = pipeline(default_cfg)
        zero = direct_only(
            h_a=np.zeros((default_cfg.Na, default_cfg.Nb)),
            h_b=np.zeros((default_cfg.Nb, default_cfg.Na)),
            h_e1=np.zeros((default_cfg.Ne, default_cfg.Na)),
            h_e2=np.zeros((default_cfg.Ne, default_cfg.Nb)),
        )
        assert rates_matrix_form(zero, bf, default_cfg) == (0.0, 0.0, 0.0)

    def test_beta2_zero_kills_alice_rate(self, default_cfg):
        cfg = default_config(beta2=0.0)
        _, _, _, eff, bf = pipeline(cfg)
        ra, _, _ = rates_matrix_form(eff, bf, cfg)
        assert ra == 0.0


class TestUnimodality:
    def test_single_local_maximum_default_scenario(self, default_cfg):
        # scenario-level check, not a theorem: the diagonal objective has
        # one interior peak on the default setup
        g = pipeline_gains(default_cfg, method="max-sv")
        beta = np.linspace(0.0, 1.0, 1001)
        values = _objective(beta, beta, g)
        diffs = np.diff(values)
        rising = diffs > 1e-12
        switches = int(np.sum(rising[:-1] & ~rising[1:]))
        assert switches == 1
