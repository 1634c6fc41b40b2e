"""Steering vectors, rank-1 link matrices, and effective-channel assembly."""

import math
import tracemalloc

import numpy as np
import pytest

from risdm.beamforming import ZF_BRANCHES
from risdm.channels import (
    EFFECTIVE_LINKS,
    build_channels,
    effective_channels,
    phase_ramp,
    steering_vector,
    unit_phasor,
)
from risdm.geometry import (
    InvalidGeometryError,
    Link,
    LINKS,
    Placement,
    build_geometry,
    default_config,
    default_placement,
)
from risdm.ris import MODES, RisReflection, reflections_for, zero_reflection


class TestSteeringVector:
    def test_broadside_four_elements(self):
        h = steering_vector(math.pi / 2, 4, 0.5)
        assert np.allclose(h, 0.5 * np.ones(4))

    def test_single_element(self):
        assert np.allclose(steering_vector(1.2345, 1, 0.5), [1.0])

    def test_hand_evaluated_two_elements(self):
        # theta = pi/3, d/lambda = 0.5: ramp values +-0.125 cycles
        h = steering_vector(math.pi / 3, 2, 0.5)
        expected = np.array([np.exp(2j * np.pi * 0.125), np.exp(-2j * np.pi * 0.125)]) / math.sqrt(2)
        assert np.allclose(h, expected, atol=1e-15)

    def test_unit_norm(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 65))
            theta = float(rng.uniform(1e-3, math.pi - 1e-3))
            h = steering_vector(theta, n, 0.5)
            assert abs(np.linalg.norm(h) - 1.0) < 1e-13

    def test_center_antisymmetry(self, rng):
        # Psi(n) = -Psi(N+1-n), so h(n) h(N+1-n) = 1/N.
        for _ in range(50):
            n = int(rng.integers(2, 33))
            theta = float(rng.uniform(1e-3, math.pi - 1e-3))
            h = steering_vector(theta, n, 0.5)
            products = h * h[::-1]
            assert np.allclose(products, 1.0 / n, atol=1e-14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidGeometryError):
            steering_vector(1.0, 0, 0.5)
        with pytest.raises(InvalidGeometryError):
            steering_vector(0.0, 4, 0.5)
        with pytest.raises(InvalidGeometryError):
            steering_vector(math.pi, 4, 0.5)

    @pytest.mark.parametrize("func", [steering_vector, phase_ramp])
    def test_spacing_has_no_default(self, func):
        # a default spacing could hide a mismatch with the scenario's d_over_lambda
        with pytest.raises(TypeError, match="d_over_lambda"):
            func(math.pi / 3, 4)


def test_unit_phasor_is_complex_exp_bit_for_bit(rng):
    # Compared as bits: np.array_equal treats -0 and +0 as equal.
    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    tiny = np.finfo(float).smallest_subnormal
    x = np.concatenate([
        [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1e-300, np.pi, -np.pi, 1e4, -1e4],
        rng.uniform(-1e4, 1e4, 20000),
        rng.uniform(-2 * np.pi, 2 * np.pi, 20000),
        np.sign(rng.uniform(-1, 1, 2000)) * 10.0 ** rng.uniform(-320, 4, 2000),
    ])
    assert np.array_equal(bits(unit_phasor(x)), bits(np.exp(1j * x)))
    # An odd length puts an exact zero at the ramp's centre, whose sign is
    # the one 2j * pi * ramp forms.
    for n in [1, 2, 3, 4, 7, 8, 100, 101, 1024, 1025, 4000, 4001]:
        for _ in range(5):
            theta = float(rng.uniform(1e-3, math.pi - 1e-3))
            want = np.exp(2j * np.pi * phase_ramp(theta, n, 0.5)) / math.sqrt(n)
            assert np.array_equal(bits(steering_vector(theta, n, 0.5)), bits(want))


def unit_gain_geometry(cfg):
    """Hand-built geometry: unit gains, fixed distinct angles everywhere."""
    angles = {}
    base = 0.35
    for k, link in enumerate(LINKS):
        angles[link] = (base + 0.17 * k) % (math.pi - 0.2) + 0.1
    return {
        link: Link(theta_t=angles[link], theta_r=(angles[link] * 0.7 + 0.3), distance=1.0, gain=1.0)
        for link in LINKS
    }


class TestBuildChannels:
    def test_rank_one_unit_norm(self, default_cfg):
        channels = build_channels(build_geometry(default_cfg), default_cfg)
        for link in LINKS:
            s = np.linalg.svd(channels.mat(*link), compute_uv=False)
            assert s[0] == pytest.approx(1.0, abs=1e-12)
            assert s[1] < 1e-12 * s[0]

    def test_dimensions(self, default_cfg):
        channels = build_channels(build_geometry(default_cfg), default_cfg)
        cfg = default_cfg
        assert channels.mat("a", "i1").shape == (cfg.M, cfg.Na)
        assert channels.mat("a", "b").shape == (cfg.Nb, cfg.Na)
        assert channels.mat("i1", "e").shape == (cfg.Ne, cfg.M)
        assert channels.mat("b", "i2").shape == (cfg.M, cfg.Nb)

    def test_entry_product_of_steering_entries(self):
        cfg = default_config(Na=2, Nb=2, Ne=4, M=2)
        geom = build_geometry(cfg)
        channels = build_channels(geom, cfg)
        link = geom[("a", "b")]
        h_r = steering_vector(link.theta_r, 2, cfg.d_over_lambda)
        h_t = steering_vector(link.theta_t, 2, cfg.d_over_lambda)
        assert channels.mat("a", "b")[0, 0] == pytest.approx(h_r[0] * np.conj(h_t[0]), abs=1e-15)

    def test_scenario_spacing_reaches_every_link(self):
        cfg = default_config(M=16, d_over_lambda=0.25)
        geom = build_geometry(cfg)
        channels = build_channels(geom, cfg)
        for (tx, rx), link in geom.items():
            h_r = steering_vector(link.theta_r, cfg.node_size(rx), 0.25)
            h_t = steering_vector(link.theta_t, cfg.node_size(tx), 0.25)
            assert np.array_equal(channels.mat(tx, rx), np.outer(h_r, h_t.conj()))
            assert np.array_equal(channels.arrival_steering(tx, rx), h_r)
            assert np.array_equal(channels.departure_steering(tx, rx), h_t)

    def test_composite_gains_multiply(self, default_cfg):
        channels = build_channels(build_geometry(default_cfg), default_cfg)
        assert channels.cascade_gain("a", "i1", "b") == pytest.approx(
            channels.gain("a", "i1") * channels.gain("i1", "b"), rel=1e-12)


class TestEffectiveChannels:
    def test_zero_reflection_leaves_direct_term(self, default_cfg):
        channels = build_channels(build_geometry(default_cfg), default_cfg)
        off = zero_reflection(default_cfg.M)
        eff = effective_channels(channels, off, off)
        want = math.sqrt(channels.gain("a", "b")) * channels.mat("a", "b")
        assert np.allclose(eff.h_b, want, atol=1e-18)

    def test_single_element_scalar_expansion(self):
        cfg = default_config(Na=1, Nb=1, Ne=4, M=1)
        geom = unit_gain_geometry(cfg)
        channels = build_channels(geom, cfg)
        phi = 0.6
        refl = RisReflection(amplitudes=np.ones(1), phases=np.array([phi]))
        eff = effective_channels(channels, refl, refl)

        def h(theta, n=1):
            return steering_vector(theta, n, cfg.d_over_lambda)

        def scalar(tx_ris, ris, ris_rx):
            a = h(geom[(tx_ris, ris)].theta_r)[0] * np.conj(h(geom[(tx_ris, ris)].theta_t)[0])
            b = h(geom[(ris, ris_rx)].theta_r)[0] * np.conj(h(geom[(ris, ris_rx)].theta_t)[0])
            return b * np.exp(1j * phi) * a

        want = scalar("a", "i1", "b") + scalar("a", "i2", "b") + (
            h(geom[("a", "b")].theta_r)[0] * np.conj(h(geom[("a", "b")].theta_t)[0]))
        assert eff.h_b[0, 0] == pytest.approx(want, abs=1e-14)

    def test_rank_at_most_three(self, default_cfg, rng):
        channels = build_channels(build_geometry(default_cfg), default_cfg)
        refl1 = RisReflection(np.ones(default_cfg.M), rng.uniform(0, 2 * np.pi, default_cfg.M))
        refl2 = RisReflection(np.ones(default_cfg.M), rng.uniform(0, 2 * np.pi, default_cfg.M))
        eff = effective_channels(channels, refl1, refl2)
        for mat in (eff.h_a, eff.h_b, eff.h_e1, eff.h_e2):
            s = np.linalg.svd(mat, compute_uv=False)
            assert s[3] < 1e-12 * s[0]

    def test_linearity_in_reflection_matrix(self, default_cfg, rng):
        channels = build_channels(build_geometry(default_cfg), default_cfg)
        m = default_cfg.M
        phases = rng.uniform(0, 2 * np.pi, m)
        mask1 = (rng.uniform(size=m) < 0.5).astype(float)
        t1 = RisReflection(mask1, phases)
        t1p = RisReflection(1.0 - mask1, phases)
        t2 = RisReflection(np.ones(m), rng.uniform(0, 2 * np.pi, m))
        direct = math.sqrt(channels.gain("a", "b")) * channels.mat("a", "b")
        lhs = effective_channels(channels, RisReflection(np.ones(m), phases), t2).h_b
        rhs = (effective_channels(channels, t1, t2).h_b
               + effective_channels(channels, t1p, zero_reflection(m)).h_b - direct)
        scale = np.linalg.norm(lhs)
        assert np.linalg.norm(lhs - rhs) < 1e-11 * max(scale, 1.0)

    def test_size_mismatch_rejected(self, default_cfg):
        channels = build_channels(build_geometry(default_cfg), default_cfg)
        small = zero_reflection(default_cfg.M - 1)
        with pytest.raises(InvalidGeometryError):
            effective_channels(channels, small, zero_reflection(default_cfg.M))

    def test_phase_irrelevant_at_zero_amplitude(self, default_cfg, rng):
        channels = build_channels(build_geometry(default_cfg), default_cfg)
        m = default_cfg.M
        off1 = zero_reflection(m)
        off2 = RisReflection(np.zeros(m), rng.uniform(0, 2 * np.pi, m))
        a = effective_channels(channels, off1, off1)
        b = effective_channels(channels, off2, off2)
        assert np.array_equal(a.h_b, b.h_b)
        assert np.array_equal(a.h_e1, b.h_e1)


def dense_effective_channels(channels, reflection1, reflection2):
    """The twelve-term dense assembly, written out term by term as a reference."""
    t1, t2 = np.diag(reflection1.coefficients()), np.diag(reflection2.coefficients())
    g = channels.cascade_gain
    m = channels.mat
    h_b = (
        math.sqrt(g("a", "i1", "b")) * m("i1", "b") @ t1 @ m("a", "i1")
        + math.sqrt(g("a", "i2", "b")) * m("i2", "b") @ t2 @ m("a", "i2")
        + math.sqrt(channels.gain("a", "b")) * m("a", "b")
    )
    h_a = (
        math.sqrt(g("a", "i1", "b")) * m("i1", "a") @ t1 @ m("b", "i1")
        + math.sqrt(g("a", "i2", "b")) * m("i2", "a") @ t2 @ m("b", "i2")
        + math.sqrt(channels.gain("a", "b")) * m("b", "a")
    )
    h_e1 = (
        math.sqrt(g("a", "i1", "e")) * m("i1", "e") @ t1 @ m("a", "i1")
        + math.sqrt(g("a", "i2", "e")) * m("i2", "e") @ t2 @ m("a", "i2")
        + math.sqrt(channels.gain("a", "e")) * m("a", "e")
    )
    h_e2 = (
        math.sqrt(g("b", "i1", "e")) * m("i1", "e") @ t1 @ m("b", "i1")
        + math.sqrt(g("b", "i2", "e")) * m("i2", "e") @ t2 @ m("b", "i2")
        + math.sqrt(channels.gain("b", "e")) * m("b", "e")
    )
    return {"h_a": h_a, "h_b": h_b, "h_e1": h_e1, "h_e2": h_e2}


def pinned_config(link, distance):
    placement = default_placement()
    return default_config(placement=Placement(
        positions=placement.positions, orientations=placement.orientations,
        pinned={f"{link[0]}->{link[1]}": {"distance": distance}}))


def path_links(tx, rx):
    """The directed links each path term traverses, keyed as the terms are."""
    return {"i1": {(tx, "i1"), ("i1", rx)}, "i2": {(tx, "i2"), ("i2", rx)}, tx: {(tx, rx)}}


class TestPathTerms:
    # Block edges of the column-blocked diagonal product: one block up to
    # M = 15, then 8-column blocks starting at multiples of 8, the last one
    # 8..15 wide (a new block starts at M = 16, 24, 32, ...).
    # M = 1537 is a large M whose dense reference stays near 36 MiB.
    @pytest.mark.parametrize("m", [
        1, 7, 63, 64, 65, 100, 127, 128, 129, 130, 193, 1025, 95, 96, 97, 159, 160, 161, 1537,
        8, 15, 16, 17, 23, 24, 25, 31, 33])
    @pytest.mark.parametrize("mode", MODES)
    def test_bit_identical_to_dense_assembly(self, m, mode):
        self.check_bit_identical(default_config(M=m), mode)

    @pytest.mark.parametrize("m", [7, 129, 1025])
    @pytest.mark.parametrize("mode", MODES)
    def test_bit_identical_mixed_arrays(self, m, mode):
        self.check_bit_identical(default_config(M=m, Na=3, Nb=5, Ne=2), mode)

    @staticmethod
    def check_bit_identical(cfg, mode):
        geom = build_geometry(cfg)
        channels = build_channels(geom, cfg)
        refls = reflections_for(mode, geom, cfg, seed=11)
        eff = effective_channels(channels, *refls)
        want = dense_effective_channels(channels, *refls)
        for name, h in want.items():
            assert np.array_equal(getattr(eff, name), h), name

    def test_terms_sum_to_channel(self, default_cfg):
        geom = build_geometry(default_cfg)
        channels = build_channels(geom, default_cfg)
        eff = effective_channels(channels, *reflections_for("gpg", geom, default_cfg))
        assert set(eff.paths) == {name for name, _, _ in EFFECTIVE_LINKS}
        for name, tx, _ in EFFECTIVE_LINKS:
            terms = eff.paths[name]
            assert np.array_equal(terms["i1"] + terms["i2"] + terms[tx], getattr(eff, name))

    def test_terms_keyed_by_the_node_they_pass_through(self, default_cfg):
        geom = build_geometry(default_cfg)
        channels = build_channels(geom, default_cfg)
        eff = effective_channels(channels, *reflections_for("gpg", geom, default_cfg))
        for name, tx, rx in EFFECTIVE_LINKS:
            assert set(eff.paths[name]) == {"i1", "i2", tx}, name
            if rx != "e":
                assert set(eff.paths[name]) == set(ZF_BRANCHES[rx]), name

    @pytest.mark.parametrize("link", [
        ("a", "i1"), ("b", "i1"), ("i1", "a"), ("i2", "e"), ("a", "b"), ("b", "a"), ("b", "e"),
    ])
    def test_pinned_link_moves_only_the_terms_through_it(self, default_cfg, link):
        def terms(cfg):
            geom = build_geometry(cfg)
            channels = build_channels(geom, cfg)
            return effective_channels(channels, *reflections_for("gpg", geom, cfg)).paths

        base = terms(default_cfg)
        moved = terms(pinned_config(link, 300.0))
        for name, tx, rx in EFFECTIVE_LINKS:
            for node, traversed in path_links(tx, rx).items():
                unchanged = np.array_equal(base[name][node], moved[name][node])
                assert unchanged == (link not in traversed), (name, node)

    def test_peak_memory_one_surface_at_a_time(self):
        m = 1024
        cfg = default_config(M=m)
        geom = build_geometry(cfg)
        channels = build_channels(geom, cfg)
        refls = reflections_for("gpg", geom, cfg)
        tracemalloc.start()
        try:
            effective_channels(channels, *refls)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense = m * m * np.dtype(complex).itemsize
        assert peak <= 1.25 * dense

    def test_peak_memory_linear_in_surface_size(self):
        def peak(m):
            cfg = default_config(M=m)
            geom = build_geometry(cfg)
            channels = build_channels(geom, cfg)
            refls = reflections_for("gpg", geom, cfg)
            tracemalloc.start()
            try:
                effective_channels(channels, *refls)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(1024), peak(4096)
        dense = 4096 * 4096 * np.dtype(complex).itemsize
        assert large < dense / 16
        assert large / small < 5
