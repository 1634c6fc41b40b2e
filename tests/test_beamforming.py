"""Transmit, noise, and receive beamformer contracts."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import collinear_config, direct_only, pipeline, random_config
import risdm.beamforming as beamforming
from risdm.beamforming import (
    DegenerateChannelError,
    InsufficientAntennasError,
    InvalidInputError,
    SingularMatrixError,
    an_nullspace_design,
    dominant_generalized_eigvec,
    dominant_singular_pair,
    leakage_side,
    max_sv_beamformers,
    receiver_zf,
    zf_mrc,
)
from risdm.channels import build_channels, effective_channels
from risdm.geometry import Placement, build_geometry, default_config, default_placement
from risdm.ris import reflections_for
from risdm.sim import StageMemo, SweepSpec, point_design, run_sweep, sweep_point


def random_unit(rng, n, count=1):
    v = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def max_sv_pairs(eff):
    """(v_at, v_br, v_bt, v_ar) of :func:`max_sv_beamformers` on hand-built
    effective channels, with all-ones departure steerings toward Eve."""
    steerings = SimpleNamespace(departure_steering=lambda tx, rx: np.ones(
        (eff.h_b if tx == "a" else eff.h_a).shape[1]))
    v_at, v_bt, _, _, v_ar, v_br = max_sv_beamformers(steerings, eff)
    return v_at, v_br, v_bt, v_ar


class TestMaxSv:
    def make_eff(self, rng, na=6, nb=5, ne=4):
        def mat(rows, cols):
            return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        return direct_only(h_a=mat(na, nb), h_b=mat(nb, na),
                           h_e1=mat(ne, na), h_e2=mat(ne, nb))

    def test_rank_one_channel_recovers_factors(self, rng):
        u = random_unit(rng, 5)[0]
        v = random_unit(rng, 6)[0]
        h_b = 0.37 * np.outer(u, v.conj())
        eff = direct_only(h_a=h_b.conj().T, h_b=h_b, h_e1=np.eye(4, 6), h_e2=np.eye(4, 5))
        v_at, v_br, _, _ = max_sv_pairs(eff)
        assert abs(abs(v.conj() @ v_at) - 1.0) < 1e-10
        assert abs(abs(u.conj() @ v_br) - 1.0) < 1e-10

    def test_achieves_largest_singular_value(self, rng):
        eff = self.make_eff(rng)
        v_at, v_br, v_bt, v_ar = max_sv_pairs(eff)
        s_b = np.linalg.svd(eff.h_b, compute_uv=False)
        s_a = np.linalg.svd(eff.h_a, compute_uv=False)
        assert abs(v_br.conj() @ eff.h_b @ v_at) == pytest.approx(s_b[0], abs=1e-10)
        assert abs(v_ar.conj() @ eff.h_a @ v_bt) == pytest.approx(s_a[0], abs=1e-10)

    def test_beats_random_probe_pairs(self, rng):
        eff = self.make_eff(rng)
        v_at, v_br, _, _ = max_sv_pairs(eff)
        achieved = abs(v_br.conj() @ eff.h_b @ v_at) ** 2
        tx = random_unit(rng, eff.h_b.shape[1], 10_000)
        rx = random_unit(rng, eff.h_b.shape[0], 10_000)
        probe = np.abs(np.einsum("ij,ij->i", rx.conj(), tx @ eff.h_b.T)) ** 2
        assert achieved >= probe.max() - 1e-12

    def test_zero_channel_rejected(self):
        eff = direct_only(h_a=np.zeros((4, 4)), h_b=np.zeros((4, 4)),
                          h_e1=np.zeros((4, 4)), h_e2=np.zeros((4, 4)))
        with pytest.raises(DegenerateChannelError, match="identically zero"):
            max_sv_pairs(eff)


class TestDominantSingularPair:
    @staticmethod
    def reference(a):
        """Column 0 of the thin SVD, rotated so u's largest entry is real positive."""
        u, _, vh = np.linalg.svd(a, full_matrices=False)
        u0, v0 = u[:, 0].copy(), vh.conj().T[:, 0].copy()
        pivot = u0[np.argmax(np.abs(u0))]
        rot = np.conj(pivot) / abs(pivot)
        return u0 * rot, v0 * rot

    def test_bit_identical_to_svd_column_zero(self, rng):
        mats = [rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
                for r, c in rng.integers(1, 17, size=(200, 2))]
        for cfg in (default_config(), default_config(M=7), random_config(rng, m=64)):
            _, _, _, eff, _ = pipeline(cfg)
            mats += [eff.h_a, eff.h_b]
        for a in mats:
            got, want = dominant_singular_pair(a), self.reference(a)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_pair_and_phase_convention(self, rng):
        for _ in range(50):
            rows, cols = rng.integers(1, 9, size=2)
            a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            u, v = dominant_singular_pair(a)
            pivot = u[np.argmax(np.abs(u))]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0
            gain = u.conj() @ a @ v  # real and equal to the largest singular value
            assert gain.real == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
            assert abs(gain.imag) < 1e-12 * gain.real

    def test_rejects_nonfinite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex)
        with pytest.raises(InvalidInputError):
            dominant_singular_pair(bad)


class TestDominantGeneralizedEigvec:
    def test_diagonal_a(self):
        v = dominant_generalized_eigvec(np.diag([2.0, 1.0]), np.eye(2))
        assert abs(abs(v[0]) - 1.0) < 1e-12

    def test_diagonal_b(self):
        v = dominant_generalized_eigvec(np.eye(2), np.diag([1.0, 4.0]))
        assert abs(abs(v[0]) - 1.0) < 1e-12  # ratio 1 beats 0.25

    def test_singular_b_rejected(self):
        b = np.diag([1.0, 1e-16])
        with pytest.raises(SingularMatrixError):
            dominant_generalized_eigvec(np.eye(2), b)

    @staticmethod
    def quotient(a, b, vecs):
        num = np.einsum("ij,jk,ik->i", vecs.conj(), a, vecs).real
        den = np.einsum("ij,jk,ik->i", vecs.conj(), b, vecs).real
        return num / den

    def random_hpd_pair(self, rng, n):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return x @ x.conj().T, y @ y.conj().T + n * np.eye(n)

    def test_random_probe_dominance_size8(self, rng):
        a, b = self.random_hpd_pair(rng, 8)
        v = dominant_generalized_eigvec(a, b)
        best = self.quotient(a, b, v[None, :])[0]
        probes = random_unit(rng, 8, 10_000)
        assert best >= self.quotient(a, b, probes).max() - 1e-12 * abs(best)

    def test_probe_dominance_sweep(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a, b = self.random_hpd_pair(rng, n)
            v = dominant_generalized_eigvec(a, b)
            best = self.quotient(a, b, v[None, :])[0]
            probes = random_unit(rng, n, 10_000)
            assert best >= self.quotient(a, b, probes).max() - 1e-10 * abs(best)

    def test_largest_entry_real_positive(self, rng):
        a, b = self.random_hpd_pair(rng, 6)
        v = dominant_generalized_eigvec(a, b)
        pivot = v[np.argmax(np.abs(v))]
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 16), ranks=st.tuples(st.integers(1, 16), st.integers(1, 16)),
           eps=st.floats(1e-6, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_bits_equal_scipy_eigh(self, n, ranks, eps, seed):
        rng = np.random.default_rng(seed)
        x, y = (rng.standard_normal((n, min(k, n))) + 1j * rng.standard_normal((n, min(k, n)))
                for k in ranks)
        a, b = x @ x.conj().T, y @ y.conj().T + eps * np.eye(n)
        v = scipy.linalg.eigh(a, b)[1][:, -1]
        v = v / np.linalg.norm(v)
        reference = v * beamforming._pivot_phase(v)
        assert dominant_generalized_eigvec(a, b).tobytes() == reference.tobytes()

    def test_lapack_failure_raises(self, monkeypatch):
        failing = SimpleNamespace(zhegvd=lambda a, b, **kw: (None, None, 3))
        monkeypatch.setattr(beamforming, "_lapack", lambda: failing)
        with pytest.raises(np.linalg.LinAlgError, match="info = 3"):
            dominant_generalized_eigvec(np.eye(2), np.eye(2))


class TestAnNullspace:
    def test_already_orthogonal(self):
        w, fallback = an_nullspace_design(np.eye(4)[0], np.eye(4)[1].astype(complex))
        assert not fallback
        assert np.allclose(w, np.eye(4)[1])

    def test_parallel_falls_back(self, rng):
        v = random_unit(rng, 5)[0]
        w, fallback = an_nullspace_design(v, v)
        assert fallback
        assert abs(v.conj() @ w) < 1e-10
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12

    def test_orthogonality_and_leakage_optimality(self, rng):
        for _ in range(10):
            v = random_unit(rng, 8)[0]
            h = random_unit(rng, 8)[0]
            w, fallback = an_nullspace_design(v, h)
            assert not fallback
            assert abs(v.conj() @ w) < 1e-12
            assert abs(np.linalg.norm(w) - 1.0) < 1e-12
            # best unit vector orthogonal to v: compare against projected probes
            probes = random_unit(rng, 8, 10_000)
            probes = probes - np.outer(probes @ v.conj(), v)
            probes /= np.linalg.norm(probes, axis=1, keepdims=True)
            leak = np.abs(probes @ h.conj())
            assert abs(h.conj() @ w) >= leak.max() - 1e-12


class TestEveCombiner:
    def test_orthogonal_arrivals_reduce_to_steering(self, rng):
        # arrival angles with cos theta on a 2/Ne lattice: steering vectors
        # are exactly orthogonal at d/lambda = 1/2
        cos_values = [0.75, 0.25, -0.25, -0.75]
        angles = [math.acos(c) for c in cos_values]
        placement = default_placement()
        pinned = {
            "i1->e": {"theta_r": angles[0]},
            "i2->e": {"theta_r": angles[1]},
            "a->e": {"theta_r": angles[2]},
            "b->e": {"theta_r": angles[3]},
        }
        cfg = default_config(Ne=4, placement=Placement(
            positions=placement.positions, orientations=placement.orientations, pinned=pinned))
        channels = build_channels(build_geometry(cfg), cfg)
        vecs, _ = receiver_zf(channels, "e")
        steer = [channels.arrival_steering(tx, "e") for tx in ("i1", "i2", "a", "b")]
        for v, h in zip(vecs, steer):
            corr = abs(h.conj() @ v) / np.linalg.norm(v)
            assert corr == pytest.approx(1.0, abs=1e-9)

    def test_coincident_arrivals_drop_both_branches(self):
        # surface 1 and Alice reach Eve from one direction, so each of the
        # two branches is nulled by the other; the rest of the chain goes on
        placement = default_placement()
        cfg = default_config(placement=Placement(
            positions=placement.positions, orientations=placement.orientations,
            pinned={"i1->e": {"theta_r": 1.1}, "a->e": {"theta_r": 1.1}}))
        geom = build_geometry(cfg)
        channels = build_channels(geom, cfg)
        zf = receiver_zf(channels, "e")
        assert zf[1] == [True, False, True, False]
        eff = effective_channels(channels, *reflections_for("gpg", geom, cfg))
        v_at, v_bt, *_ = max_sv_beamformers(channels, eff)
        combiner, _ = zf_mrc(zf, eff, "e", v_at, v_bt, cfg)
        assert np.linalg.norm(combiner) == pytest.approx(1.0, abs=1e-12)
        records = run_sweep(cfg, SweepSpec(axis="power_dbm", values=(27.0,),
                                           methods=("max-sv", "leakage"),
                                           pa_modes=("fixed", "hicf")))
        assert len(records) == 4
        assert all(math.isfinite(r.ssr_bits) for r in records)

    def test_zf_nulls_and_unit_weights(self, default_cfg):
        geom = build_geometry(default_cfg)
        channels = build_channels(geom, default_cfg)
        refls = reflections_for("gpg", geom, default_cfg)
        eff = effective_channels(channels, *refls)
        v_at, v_bt, *_ = max_sv_beamformers(channels, eff)
        zf = receiver_zf(channels, "e")
        vecs, dropped = zf
        _, weights = zf_mrc(zf, eff, "e", v_at, v_bt, default_cfg)
        steer = [channels.arrival_steering(tx, "e") for tx in ("i1", "i2", "a", "b")]
        for i, v in enumerate(vecs):
            if dropped[i]:
                continue
            for j, h in enumerate(steer):
                if j != i:
                    assert abs(h.conj() @ v) < 1e-9
        for w, drop in zip(weights, dropped):
            if not drop and w != 0.0:
                assert abs(abs(w) - 1.0) < 1e-12

    def test_insufficient_antennas(self, default_cfg):
        cfg = default_config(Ne=3)
        geom = build_geometry(cfg)
        channels = build_channels(geom, cfg)
        refls = reflections_for("gpg", geom, cfg)
        eff = effective_channels(channels, *refls)
        v_at, v_bt, *_ = max_sv_beamformers(channels, eff)
        with pytest.raises(InsufficientAntennasError):
            zf_mrc(receiver_zf(channels, "e"), eff, "e", v_at, v_bt, cfg)


class TestLeakageDesigns:
    def slnr_value(self, channels, cfg, v):
        # independent evaluation of the quotient the design maximizes
        g = channels.gain
        m = channels.mat
        num = (g("a", "i1") * np.abs(m("a", "i1") @ v) ** 2).sum() \
            + (g("a", "i2") * np.abs(m("a", "i2") @ v) ** 2).sum() \
            + (g("a", "b") * np.abs(m("a", "b") @ v) ** 2).sum()
        den = (g("a", "e") * np.abs(m("a", "e") @ v) ** 2).sum() \
            + cfg.sigma2_e_mw / (cfg.beta1 * cfg.pa_mw)
        return num / den

    def test_dominant_link_alignment(self):
        placement = default_placement()
        pinned = {  # push every Alice-side link except a->i1 far away
            "a->i2": {"distance": 1e5},
            "a->b": {"distance": 1e5},
            "a->e": {"distance": 1e5},
        }
        cfg = default_config(placement=Placement(
            positions=placement.positions, orientations=placement.orientations, pinned=pinned))
        geom = build_geometry(cfg)
        channels = build_channels(geom, cfg)
        v = leakage_side(channels, cfg, "a")[0]
        h = channels.departure_steering("a", "i1")
        assert abs(h.conj() @ v) > 0.999

    def test_beats_random_probes(self, rng, default_cfg):
        geom = build_geometry(default_cfg)
        channels = build_channels(geom, default_cfg)
        v = leakage_side(channels, default_cfg, "a")[0]
        best = self.slnr_value(channels, default_cfg, v)
        probes = random_unit(rng, default_cfg.Na, 10_000)
        values = [self.slnr_value(channels, default_cfg, p) for p in probes[:2000]]
        assert best >= max(values) - 1e-10 * abs(best)

    def test_scale_invariance(self, default_cfg):
        # scaling all gains and sigma^2 together must not move the argmax
        geom = build_geometry(default_cfg)
        channels = build_channels(geom, default_cfg)
        v1 = leakage_side(channels, default_cfg, "a")[0]
        scaled = default_config(
            pathloss_alpha=default_cfg.pathloss_alpha * 10.0,
            sigma2_e_dbm=default_cfg.sigma2_e_dbm + 10.0,
        )
        channels2 = build_channels(build_geometry(scaled), scaled)
        v2 = leakage_side(channels2, scaled, "a")[0]
        assert abs(abs(v1.conj() @ v2) - 1.0) < 1e-9

    def test_lansr_unit_norm_and_probes(self, rng, default_cfg):
        geom = build_geometry(default_cfg)
        channels = build_channels(geom, default_cfg)
        for side in ("a", "b"):
            w = leakage_side(channels, default_cfg, side)[1]
            assert abs(np.linalg.norm(w) - 1.0) < 1e-12

    def test_lansr_quotient_beats_message_beam(self, default_cfg):
        # the noise design maximizes its own ratio, so in particular it
        # beats the message beamformer evaluated on that ratio
        from risdm.beamforming import _leakage_matrices

        geom = build_geometry(default_cfg)
        channels = build_channels(geom, default_cfg)
        desired, eve = _leakage_matrices(channels, "a")
        noise = default_cfg.sigma2_b_mw / ((1 - default_cfg.beta1) * default_cfg.pa_mw)
        denom = desired + noise * np.eye(default_cfg.Na)

        def quotient(x):
            return float((x.conj() @ eve @ x).real / (x.conj() @ denom @ x).real)

        v, w = leakage_side(channels, default_cfg, "a")
        assert quotient(w) >= quotient(v) - 1e-12 * abs(quotient(w))

    def test_beta_bounds(self, default_cfg):
        # a config cannot hold such a split, so a bare namespace carries it
        geom = build_geometry(default_cfg)
        channels = build_channels(geom, default_cfg)
        for beta in (-0.1, 1.1, math.nan):
            cfg = SimpleNamespace(
                beta1=beta, beta2=0.5, pa_mw=default_cfg.pa_mw, pb_mw=default_cfg.pb_mw)
            with pytest.raises(ValueError, match="message power fraction"):
                leakage_side(channels, cfg, "a")

    def test_unknown_side(self, default_cfg):
        channels = build_channels(build_geometry(default_cfg), default_cfg)
        with pytest.raises(ValueError, match="side must be 'a' or 'b'"):
            leakage_side(channels, default_cfg, "e")

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_endpoints_are_the_limits(self, default_cfg, side):
        # beta -> 0 (SLNR) and beta -> 1 (LANSR): the noise term dominates,
        # leaving the dominant eigenvector of the other matrix alone
        from risdm.beamforming import _leakage_matrices

        channels = build_channels(build_geometry(default_cfg), default_cfg)

        def at(beta):
            return default_config(beta1=beta, beta2=beta)

        def collinear(u, v):
            return abs(abs(u.conj() @ v) - 1.0) < 1e-9

        desired, eve = _leakage_matrices(channels, side)
        v0 = leakage_side(channels, at(0.0), side)[0]
        assert collinear(v0, leakage_side(channels, at(1e-12), side)[0])
        assert collinear(v0, np.linalg.eigh(desired)[1][:, -1])
        w1 = leakage_side(channels, at(1.0), side)[1]
        assert collinear(w1, leakage_side(channels, at(1.0 - 1e-12), side)[1])
        assert collinear(w1, np.linalg.eigh(eve)[1][:, -1])

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_overflowing_noise_term_takes_the_limit(self, default_cfg, side):
        # a subnormal message power (SLNR) overflows the noise term, and a
        # noise power that underflows to 0 (LANSR) leaves it infinite; the
        # design is then the endpoint's limit
        channels = build_channels(build_geometry(default_cfg), default_cfg)

        def collinear(u, v):
            return np.all(np.isfinite(u)) and abs(abs(u.conj() @ v) - 1.0) < 1e-9

        v0 = leakage_side(channels, default_config(beta1=0.0, beta2=0.0), side)[0]
        assert collinear(leakage_side(channels, default_config(beta1=5e-324, beta2=5e-324), side)[0], v0)
        w1 = leakage_side(channels, default_config(beta1=1.0, beta2=1.0), side)[1]
        faint = default_config(Pa_dbm=-3235.0, Pb_dbm=-3235.0)  # about 3e-324 mW
        assert collinear(leakage_side(channels, faint, side)[1], w1)


    def test_pencils_built_once_per_side(self, default_cfg, monkeypatch):
        # a leakage point builds each side's pencil once, and its transmit
        # vectors are that side's leakage_side vectors
        channels = build_channels(build_geometry(default_cfg), default_cfg)
        built = []
        real = beamforming._leakage_matrices

        def counting(channels_, side):
            built.append(side)
            return real(channels_, side)

        monkeypatch.setattr(beamforming, "_leakage_matrices", counting)
        _, bf, _ = point_design(StageMemo(), sweep_point(default_cfg), "leakage", "gpg", 0)
        assert built == ["a", "b"]
        for side, v, w in (("a", bf.v_at, bf.w_a), ("b", bf.v_bt, bf.w_b)):
            v_side, w_side = leakage_side(channels, default_cfg, side)
            assert np.array_equal(v, v_side) and np.array_equal(w, w_side)


class TestThreeWayCombiner:
    def test_zf_nulls(self, default_cfg):
        geom = build_geometry(default_cfg)
        channels = build_channels(geom, default_cfg)
        eff = effective_channels(channels, *reflections_for("gpg", geom, default_cfg))
        v_at = leakage_side(channels, default_cfg, "a")[0]
        vecs, dropped = receiver_zf(channels, "b")
        steer = [channels.arrival_steering(tx, "b") for tx in ("i1", "i2", "a")]
        for i, v in enumerate(vecs):
            if dropped[i]:
                continue
            for j, h in enumerate(steer):
                if j != i:
                    assert abs(h.conj() @ v) < 1e-9

    @pytest.mark.parametrize("method", ["max-sv", "leakage"])
    def test_dropped_branches_are_zero_and_weigh_nothing(self, method):
        # on the Alice-Bob line Bob's ZF drops surface 1 and the direct
        # path; their zero vectors carry no signal, so zf_mrc weighs them 0
        cfg = collinear_config()
        channels = build_channels(build_geometry(cfg), cfg)
        eff, bf, _ = point_design(StageMemo(), sweep_point(cfg), method, "gpg", 0)
        zf = receiver_zf(channels, "b")
        assert zf[1] == [True, False, True]
        _, weights = zf_mrc(zf, eff, "b", bf.v_at, bf.v_bt, cfg)
        for i in (0, 2):
            assert np.array_equal(zf[0][i], np.zeros(cfg.Nb, dtype=complex))
            assert weights[i] == 0.0
        assert abs(abs(weights[1]) - 1.0) < 1e-12

    def test_insufficient_antennas(self):
        cfg = default_config(Nb=2)
        geom = build_geometry(cfg)
        channels = build_channels(geom, cfg)
        eff = effective_channels(channels, *reflections_for("gpg", geom, cfg))
        v_at, v_bt = (leakage_side(channels, cfg, side)[0] for side in "ab")
        with pytest.raises(InsufficientAntennasError):
            zf_mrc(receiver_zf(channels, "b"), eff, "b", v_at, v_bt, cfg)

    def test_coherent_recombination_oracle(self, default_cfg):
        # achieved message magnitude vs. an independently recomputed
        # phase-aligned branch sum
        geom = build_geometry(default_cfg)
        channels = build_channels(geom, default_cfg)
        refls = reflections_for("gpg", geom, default_cfg)
        eff = effective_channels(channels, *refls)
        v_at, v_bt = (leakage_side(channels, default_cfg, side)[0] for side in "ab")
        zf = receiver_zf(channels, "b")
        v_br, weights = zf_mrc(zf, eff, "b", v_at, v_bt, default_cfg)
        achieved = abs(v_br.conj() @ eff.h_b @ v_at)

        t1, t2 = np.diag(refls[0].coefficients()), np.diag(refls[1].coefficients())
        branch_mats = [
            math.sqrt(channels.cascade_gain("a", "i1", "b")) * channels.mat("i1", "b") @ t1 @ channels.mat("a", "i1"),
            math.sqrt(channels.cascade_gain("a", "i2", "b")) * channels.mat("i2", "b") @ t2 @ channels.mat("a", "i2"),
            math.sqrt(channels.gain("a", "b")) * channels.mat("a", "b"),
        ]
        vecs = zf[0]
        signals = [abs(v.conj() @ bm @ v_at) for v, bm in zip(vecs, branch_mats)]
        norm = np.linalg.norm(sum(np.conj(w) * v for w, v in zip(weights, vecs)))
        oracle = sum(signals) / norm
        assert achieved >= 0.999 * oracle


class TestFullSets:
    @pytest.mark.parametrize("method", ["max-sv", "leakage"])
    def test_unit_norms_random_geometries(self, rng, method):
        for _ in range(10):
            cfg = random_config(rng, m=32)
            _, _, _, _, bf = pipeline(cfg, method=method)
            for v in (bf.v_at, bf.v_bt, bf.w_a, bf.w_b, bf.v_ar, bf.v_br, bf.v_er):
                assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_max_sv_an_orthogonality(self, rng):
        for _ in range(10):
            cfg = random_config(rng, m=32)
            _, _, _, _, bf = pipeline(cfg, method="max-sv")
            assert abs(bf.v_at.conj() @ bf.w_a) < 1e-10
            assert abs(bf.v_bt.conj() @ bf.w_b) < 1e-10

    def test_unknown_method(self, default_cfg):
        with pytest.raises(ValueError):
            point_design(StageMemo(), sweep_point(default_cfg), "mystery", "gpg", 0)


def dense_eve_signals(channels, refls, v_at, v_bt, vecs, config):
    """Eve's branch message signals through the dense reflection matrices."""
    t1, t2 = np.diag(refls[0].coefficients()), np.diag(refls[1].coefficients())
    g, m = channels.cascade_gain, channels.mat
    b1, b2, pa, pb = config.beta1, config.beta2, config.pa_mw, config.pb_mw
    return [
        vecs[0].conj() @ m("i1", "e") @ t1 @ (
            math.sqrt(b1 * pa * g("a", "i1", "e")) * m("a", "i1") @ v_at
            + math.sqrt(b2 * pb * g("b", "i1", "e")) * m("b", "i1") @ v_bt
        ),
        vecs[1].conj() @ m("i2", "e") @ t2 @ (
            math.sqrt(b1 * pa * g("a", "i2", "e")) * m("a", "i2") @ v_at
            + math.sqrt(b2 * pb * g("b", "i2", "e")) * m("b", "i2") @ v_bt
        ),
        vecs[2].conj() @ m("a", "e") @ v_at,
        vecs[3].conj() @ m("b", "e") @ v_bt,
    ]


def dense_three_way_signals(channels, refls, v_t, vecs, side):
    """A legitimate receiver's branch signals through the dense reflection matrices."""
    t1, t2 = np.diag(refls[0].coefficients()), np.diag(refls[1].coefficients())
    m = channels.mat
    other = "b" if side == "a" else "a"
    return [
        vecs[0].conj() @ m("i1", side) @ t1 @ m(other, "i1") @ v_t,
        vecs[1].conj() @ m("i2", side) @ t2 @ m(other, "i2") @ v_t,
        vecs[2].conj() @ m(other, side) @ v_t,
    ]


def assembled(vecs, weights):
    combined = sum(np.conj(w) * v for w, v in zip(weights, vecs))
    return combined / np.linalg.norm(combined)


class TestCombinersReadPathTerms:
    @pytest.mark.parametrize("m", [7, 100, 400])
    @pytest.mark.parametrize("mode", ["gpg", "random", "none", "ris1-only"])
    @pytest.mark.parametrize("method", ["max-sv", "leakage"])
    def test_match_dense_branch_signals(self, m, mode, method):
        cfg = default_config(M=m)
        geom = build_geometry(cfg)
        channels = build_channels(geom, cfg)
        refls = reflections_for(mode, geom, cfg, seed=5)
        eff = effective_channels(channels, *refls)
        if method == "max-sv":
            v_at, v_bt, *_ = max_sv_beamformers(channels, eff)
        else:
            v_at, v_bt = (leakage_side(channels, cfg, side)[0] for side in "ab")

        for rx, v_t in (("e", None), ("b", v_at), ("a", v_bt)):
            zf = receiver_zf(channels, rx)
            vecs, dropped = zf
            signals = (dense_eve_signals(channels, refls, v_at, v_bt, vecs, cfg) if rx == "e"
                       else dense_three_way_signals(channels, refls, v_t, vecs, rx))
            want = [0.0 if d or abs(s) < 1e-300 else np.conj(s) / abs(s)
                    for s, d in zip(signals, dropped)]
            combiner, weights = zf_mrc(zf, eff, rx, v_at, v_bt, cfg)
            assert np.max(np.abs(np.subtract(weights, want))) < 1e-12
            assert np.max(np.abs(combiner - assembled(vecs, want))) < 1e-12

    @pytest.mark.parametrize("method", ["max-sv", "leakage"])
    def test_design_allocates_no_surface_sized_matrix(self, method):
        # The other method first fills the memo with the channel stages, so
        # that only this method's beamformer stage runs under tracemalloc.
        memo, point = StageMemo(), sweep_point(default_config(M=1024))
        other = "leakage" if method == "max-sv" else "max-sv"
        point_design(memo, point, other, "gpg", 0)
        tracemalloc.start()
        try:
            point_design(memo, point, method, "gpg", 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
