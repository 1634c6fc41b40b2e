"""Reflection-phase synthesis and the baseline reflection settings."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import risdm.ris
from risdm.channels import build_channels, effective_channels
from risdm.geometry import (
    InvalidGeometryError,
    Placement,
    build_geometry,
    default_config,
    default_placement,
)
from risdm.ris import (
    MODES,
    RisReflection,
    gpg_phases,
    leg_phases,
    random_phases,
    reflections_for,
    synthesis_phase,
    zero_reflection,
)

TWO_PI = 2.0 * math.pi

# Leg phases within 1e-15 of a multiple of 2 pi, and any finite leg phase.
NEAR_TURNS = st.builds(lambda k, eps: k * TWO_PI + eps,
                       st.integers(-10**6, 10**6), st.floats(-1e-15, 1e-15))
LEG_PHASES = st.one_of(NEAR_TURNS, st.floats(allow_nan=False, allow_infinity=False))


class TestSynthesisPhase:
    def test_coincident_phasors(self):
        theta = np.array([0.3, 1.7, 4.0])
        phases, flags = synthesis_phase(theta, theta)
        assert np.allclose(phases, (-theta) % TWO_PI, atol=1e-12)
        assert not flags.any()

    def test_quarter_turn_pair(self):
        # arg(1 + j) = pi/4, so phi = -pi/4
        phases, _ = synthesis_phase(np.array([0.0]), np.array([math.pi / 2]))
        assert phases[0] == pytest.approx((-math.pi / 4) % TWO_PI, abs=1e-12)

    def test_alignment_residual(self, rng):
        theta1 = rng.uniform(-20, 20, size=2000)
        theta2 = rng.uniform(-20, 20, size=2000)
        phases, flags = synthesis_phase(theta1, theta2)
        total = np.exp(1j * theta1) + np.exp(1j * theta2)
        rotated = np.exp(1j * phases) * total
        keep = ~flags
        assert np.all(np.abs(total[keep]) - rotated[keep].real < 1e-12)
        assert np.all(np.abs(rotated[keep].imag) < 1e-12)

    def test_bisector_inside_half_turn(self, rng):
        # with theta2 - theta1 in [0, pi) the diagonal of the two unit
        # phasors bisects them, so phi = -(theta1 + theta2) / 2
        theta1 = rng.uniform(-6, 6, size=500)
        theta2 = theta1 + rng.uniform(0, math.pi - 1e-6, size=500)
        phases, flags = synthesis_phase(theta1, theta2)
        delta = np.angle(np.exp(1j * (phases + (theta1 + theta2) / 2)))
        assert np.max(np.abs(delta)) < 1e-12
        assert not flags.any()

    def test_phase_just_below_zero_is_zero(self):
        # np.mod takes -1e-16 to 2 pi exactly, which is the phase 0
        phases, flags = synthesis_phase([1e-16], [1e-16])
        assert phases.tolist() == [0.0] and not flags.any()

    @settings(max_examples=300, deadline=None)
    @given(legs=st.lists(st.tuples(LEG_PHASES, LEG_PHASES), min_size=1, max_size=16))
    def test_phases_in_range_for_any_finite_legs(self, legs):
        theta1, theta2 = (np.array(t) for t in zip(*legs))
        phases, _ = synthesis_phase(theta1, theta2)
        assert np.all((phases >= 0.0) & (phases < TWO_PI))
        with mock.patch.object(risdm.ris, "leg_phases", return_value=(theta1, theta2)):
            refl = gpg_phases(None, 1, default_config(M=len(legs)))
        assert np.array_equal(refl.phases, phases)

    def test_antipodal_flagged(self):
        phases, flags = synthesis_phase(np.array([0.25]), np.array([0.25 + math.pi]))
        assert flags[0]
        assert phases[0] == pytest.approx((-0.25) % TWO_PI, abs=1e-12)


class TestGpgDesign:
    def test_legs_coincide_on_planar_layouts(self, default_cfg):
        # propagation-direction angle convention makes the two cascaded
        # legs identical on any ray-consistent geometry
        geom = build_geometry(default_cfg)
        for which in (1, 2):
            theta1, theta2 = leg_phases(geom, which, default_cfg)
            assert np.max(np.abs(theta2 - theta1)) < 1e-10

    def test_cascade_alignment_exact(self, default_cfg):
        geom = build_geometry(default_cfg)
        channels = build_channels(geom, default_cfg)
        refl = gpg_phases(geom, 1, default_cfg)
        # designed-surface cascade scalar toward Bob is exactly real 1
        h_out = channels.departure_steering("i1", "b")
        h_in = channels.arrival_steering("a", "i1")
        scalar = h_out.conj() @ np.diag(refl.coefficients()) @ h_in
        assert scalar.real == pytest.approx(1.0, abs=1e-10)
        assert abs(scalar.imag) < 1e-10

    def test_amplitudes_on(self, default_cfg):
        geom = build_geometry(default_cfg)
        refl = gpg_phases(geom, 2, default_cfg)
        assert np.all(refl.amplitudes == 1.0)
        assert refl.flagged is None

    def test_pinned_angles_break_leg_symmetry(self):
        # pinning surface-side angles independently decouples the two legs;
        # the synthesized phase must still align their vector sum exactly
        placement = default_placement()
        cfg = default_config(placement=Placement(
            positions=placement.positions,
            orientations=placement.orientations,
            pinned={
                "a->i1": {"theta_r": 0.61},
                "i1->b": {"theta_t": 1.97},
                "b->i1": {"theta_r": 2.44},
                "i1->a": {"theta_t": 0.35},
            },
        ))
        geom = build_geometry(cfg)
        theta1, theta2 = leg_phases(geom, 1, cfg)
        assert np.max(np.abs(theta2 - theta1)) > 1.0  # genuinely decoupled
        refl = gpg_phases(geom, 1, cfg)
        total = np.exp(1j * theta1) + np.exp(1j * theta2)
        aligned = np.exp(1j * refl.phases) * total
        keep = np.ones(cfg.M, bool) if refl.flagged is None else ~refl.flagged
        assert np.all(np.abs(total[keep]) - aligned[keep].real < 1e-12)


class TestBaselines:
    def test_random_deterministic(self):
        a = random_phases(64, seed=123)
        b = random_phases(64, seed=123)
        assert np.array_equal(a.phases, b.phases)
        assert np.all(a.amplitudes == 1.0)

    def test_random_range_and_mean(self):
        refl = random_phases(100_000, seed=7)
        assert np.all(refl.phases >= 0.0) and np.all(refl.phases < TWO_PI)
        sigma = TWO_PI / math.sqrt(12.0) / math.sqrt(100_000)
        assert abs(refl.phases.mean() - math.pi) < 3 * sigma

    def test_zero_reflection(self):
        refl = zero_reflection(16)
        assert np.all(refl.amplitudes == 0.0)
        assert np.allclose(np.diag(refl.coefficients()), np.zeros((16, 16)))

    def test_reflection_validation(self):
        with pytest.raises(Exception):
            RisReflection(amplitudes=np.array([0.5]), phases=np.array([0.0]))
        with pytest.raises(Exception):
            RisReflection(amplitudes=np.array([1.0]), phases=np.array([7.0]))

    @pytest.mark.parametrize("amplitudes, phases", [
        (np.ones(3), np.zeros(2)),
        (np.ones((2, 2)), np.zeros((2, 2))),
        (np.ones(0), np.zeros(0)),
    ], ids=["unequal-length", "2-d", "empty"])
    def test_malformed_arrays_rejected(self, amplitudes, phases):
        with pytest.raises(InvalidGeometryError,
                           match="^amplitudes and phases must be equal-length 1-D arrays$"):
            RisReflection(amplitudes=amplitudes, phases=phases)

    @pytest.mark.parametrize("make", [lambda m: random_phases(m, seed=1), zero_reflection],
                             ids=["random", "zero"])
    def test_no_elements_rejected(self, make):
        with pytest.raises(InvalidGeometryError, match="^element count must be >= 1, got 0$"):
            make(0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, bad):
        with pytest.raises(InvalidGeometryError, match="phases must lie in"):
            RisReflection(amplitudes=np.ones(3), phases=np.array([0.1, bad, 0.2]))

    def test_single_surface_masks(self, default_cfg):
        geom = build_geometry(default_cfg)
        r1, r2 = reflections_for("ris1-only", geom, default_cfg)
        assert np.all(r1.amplitudes == 1.0) and np.all(r2.amplitudes == 0.0)
        r1, r2 = reflections_for("ris2-only", geom, default_cfg)
        assert np.all(r1.amplitudes == 0.0) and np.all(r2.amplitudes == 1.0)

    def test_mask_matches_designed_surface(self, default_cfg):
        geom = build_geometry(default_cfg)
        masked, _ = reflections_for("ris1-only", geom, default_cfg)
        designed = gpg_phases(geom, 1, default_cfg)
        assert np.allclose(masked.phases, designed.phases)

    def test_none_mode_is_direct_only(self, default_cfg):
        geom = build_geometry(default_cfg)
        channels = build_channels(geom, default_cfg)
        r1, r2 = reflections_for("none", geom, default_cfg)
        eff = effective_channels(channels, r1, r2)
        want = math.sqrt(channels.gain("a", "e")) * channels.mat("a", "e")
        assert np.allclose(eff.h_e1, want)

    def test_mode_list(self):
        assert MODES == ("gpg", "random", "none", "ris1-only", "ris2-only")

    def test_literal_mode_rejected(self, default_cfg):
        geom = build_geometry(default_cfg)
        with pytest.raises(ValueError, match="unknown reflection mode 'gpg-literal'"):
            reflections_for("gpg-literal", geom, default_cfg)

    def test_unknown_mode_rejected(self, default_cfg):
        geom = build_geometry(default_cfg)
        with pytest.raises(ValueError):
            reflections_for("bogus", geom, default_cfg)
