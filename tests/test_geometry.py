"""Placement, link derivation, path loss, and config ingestion."""

import json
import math
import re
import sys

import numpy as np
import pytest

from risdm.geometry import (
    ConfigError,
    InvalidGeometryError,
    LINKS,
    Placement,
    ScenarioConfig,
    build_geometry,
    default_config,
    default_placement,
    fold_angle,
    geometry_summary,
    link_class,
    path_loss,
)
from risdm.sim import SweepSpec, apply_axis, run_sweep


def assert_rejected(doc, match):
    """``doc`` raises ConfigError matching ``match`` both through JSON
    ingestion and through direct Placement/ScenarioConfig construction."""
    with pytest.raises(ConfigError, match=match):
        ScenarioConfig.from_json(json.dumps(doc))
    fields = dict(doc)
    with pytest.raises(ConfigError, match=match):
        if isinstance(doc["placement"], dict):
            fields["placement"] = Placement(**doc["placement"])
        ScenarioConfig(**fields)


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss(1.0, 3.7e-2, 2.0) == 3.7e-2

    def test_formula_30m(self):
        assert abs(path_loss(30.0, 1e-3, 2.0) - 1.1111111111e-6) < 1e-15

    def test_formula_80m(self):
        assert path_loss(80.0, 1e-3, 2.0) == pytest.approx(1.5625e-7, rel=1e-12)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(InvalidGeometryError):
            path_loss(0.0, 1e-3, 2.0)

    def test_monotone_in_distance(self):
        d = np.linspace(1.0, 500.0, 200)
        g = [path_loss(x, 1e-3, 2.7) for x in d]
        assert all(a > b for a, b in zip(g, g[1:]))


def assert_link_refused(cfg, link, distance, exponent):
    """build_geometry refuses ``cfg`` naming the link, distance and exponent."""
    with pytest.raises(InvalidGeometryError) as err:
        build_geometry(cfg)
    message = str(err.value)
    assert message.startswith(f"link {link}: ")
    assert f"distance d = {distance!r} m" in message and f"exponent c = {exponent!r}" in message
    return message


def pinned_a_e(cfg, distance):
    placement = cfg.placement
    return cfg.replace(placement=Placement(
        positions=placement.positions, orientations=placement.orientations,
        pinned={"a->e": {"distance": distance}}))


class TestGainNotFinite:
    # each once failed without naming the link: an errno text, a division
    # by zero, or numpy warnings and "matrix contains non-finite entries"

    def test_far_distance_overflows(self, default_cfg):
        assert_link_refused(apply_axis(default_cfg, "distance_ab", 1e300), "a->b", 1e300, 4.5)

    def test_large_exponent_overflows(self, default_cfg):
        cfg = default_cfg.replace(pathloss_exp={"direct": 400.0, "ris": 2.0})
        distance = build_geometry(default_cfg)[("a", "b")].distance
        assert_link_refused(cfg, "a->b", distance, 400.0)

    def test_tiny_distance_underflows(self, default_cfg):
        assert_link_refused(pinned_a_e(default_cfg, 1e-200), "a->e", 1e-200, 4.5)

    def test_gain_overflows_to_inf(self, default_cfg):
        cfg = pinned_a_e(default_cfg.replace(pathloss_alpha=1e300), 1e-10)
        assert_link_refused(cfg, "a->e", 1e-10, 4.5)

    def test_negative_distance(self, default_cfg):
        assert_link_refused(pinned_a_e(default_cfg, -5.0), "a->e", -5.0, 4.5)

    def test_gain_underflows_to_zero(self, default_cfg):
        # once refused only at the beamformers, as "effective channel is identically zero"
        distance = build_geometry(default_cfg)[("a", "b")].distance
        cfg = default_cfg.replace(pathloss_alpha=1e-320)
        assert "path gain alpha / d^c underflows to 0" in assert_link_refused(
            cfg, "a->b", distance, 4.5)

    def test_subnormal_gain_is_kept(self, default_cfg):
        # a gain this small carries no rate, and the sweep says so
        cfg = default_cfg.replace(pathloss_alpha=1e-300)
        assert 0.0 < build_geometry(cfg)[("a", "b")].gain < sys.float_info.min
        records = run_sweep(cfg, SweepSpec(axis="power_dbm", values=(27.0,)))
        assert [r.ssr_bits for r in records] == [0.0]


class TestDefaultLayout:
    def test_standard_distances_and_departures(self, default_cfg):
        geom = build_geometry(default_cfg)
        assert geom[("a", "i1")].distance == pytest.approx(30.0, abs=1e-12)
        assert geom[("a", "i1")].theta_t == pytest.approx(math.pi / 8, abs=1e-12)
        assert geom[("a", "i2")].theta_t == pytest.approx(7 * math.pi / 8, abs=1e-12)
        assert geom[("a", "b")].distance == pytest.approx(80.0, abs=1e-10)
        assert geom[("a", "b")].theta_t == pytest.approx(5 * math.pi / 9, abs=1e-12)
        assert geom[("a", "e")].theta_t == pytest.approx(4 * math.pi / 9, abs=1e-12)

    def test_polar_roundtrip(self):
        placement = default_placement()
        ax, ay = placement.positions["a"]
        rx, ry = placement.positions["i1"]
        assert math.hypot(rx - ax, ry - ay) == pytest.approx(30.0, abs=1e-12)

    def test_all_angles_interior(self, default_cfg):
        geom = build_geometry(default_cfg)
        for link in geom.values():
            assert 0.0 < link.theta_t < math.pi
            assert 0.0 < link.theta_r < math.pi

    def test_axis_aligned_broadside(self):
        # Alice at origin, Bob on the +y axis, both arrays along x: broadside.
        placement = Placement(
            positions={"a": (0.0, 0.0), "b": (0.0, 80.0), "e": (30.0, 40.0),
                       "i1": (10.0, 10.0), "i2": (-10.0, 10.0)},
            orientations={n: 0.0 for n in ("a", "b", "e", "i1", "i2")},
        )
        cfg = default_config(placement=placement)
        geom = build_geometry(cfg)
        assert geom[("a", "b")].distance == pytest.approx(80.0)
        assert geom[("a", "b")].theta_t == pytest.approx(math.pi / 2)
        assert geom[("a", "b")].theta_r == pytest.approx(math.pi / 2)

    def test_link_gain_uses_class_exponent(self, default_cfg):
        geom = build_geometry(default_cfg)
        alpha = default_cfg.pathloss_alpha
        for (tx, rx), link in geom.items():
            c = default_cfg.pathloss_exp[link_class(tx, rx)]
            assert link.gain == pytest.approx(alpha / link.distance**c, rel=1e-12)

    def test_coincident_nodes_rejected(self):
        placement = default_placement()
        positions = dict(placement.positions)
        positions["e"] = positions["b"]
        bad = Placement(positions=positions, orientations=placement.orientations)
        with pytest.raises(InvalidGeometryError):
            build_geometry(default_config(placement=bad))

    def test_pinned_override(self):
        placement = default_placement()
        pinned = Placement(
            positions=placement.positions,
            orientations=placement.orientations,
            pinned={"a->b": {"theta_t": 1.234, "distance": 55.0}},
        )
        geom = build_geometry(default_config(placement=pinned))
        assert geom[("a", "b")].theta_t == 1.234
        assert geom[("a", "b")].distance == 55.0
        # gain recomputed from the pinned distance
        cfg = default_config()
        assert geom[("a", "b")].gain == pytest.approx(
            path_loss(55.0, cfg.pathloss_alpha, cfg.pathloss_exp["direct"]))
        # non-pinned angle still derived
        assert geom[("a", "b")].theta_r == build_geometry(cfg)[("a", "b")].theta_r

    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_end_fire_pin_rejected(self, theta):
        placement = default_placement()
        cfg = default_config(placement=Placement(
            positions=placement.positions, orientations=placement.orientations,
            pinned={"a->b": {"theta_t": theta}}))
        with pytest.raises(InvalidGeometryError, match=re.escape(
                f"link a->b: theta_t={theta:.6f} falls on the array axis (end-fire)")):
            build_geometry(cfg)

    def test_all_fourteen_links_present(self, default_cfg):
        geom = build_geometry(default_cfg)
        assert set(geom) == set(LINKS)
        assert len(LINKS) == 14


class TestFoldAngle:
    def test_wraps_and_folds(self):
        assert fold_angle(math.pi / 8 + math.pi, 0.0) == pytest.approx(math.pi - math.pi / 8)
        assert fold_angle(-math.pi / 3, 0.0) == pytest.approx(math.pi / 3)
        assert fold_angle(math.pi / 4, math.pi / 4) == 0.0

    def test_cos_invariant_under_fold(self, rng):
        for _ in range(200):
            ray = rng.uniform(-10, 10)
            orient = rng.uniform(-10, 10)
            assert math.cos(fold_angle(ray, orient)) == pytest.approx(
                math.cos(ray - orient), abs=1e-12)


class TestConfigIngestion:
    def test_roundtrip(self, default_cfg):
        doc = default_cfg.to_json()
        again = ScenarioConfig.from_json(doc)
        assert again == default_cfg

    @pytest.mark.parametrize("content, reason", [
        (b"{'Pa_dbm': 27}", "Expecting property name enclosed in double quotes"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
    ])
    def test_unreadable_file_names_its_path(self, tmp_path, content, reason):
        # malformed JSON, and bytes that are not UTF-8
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_file(path)
        assert str(err.value).startswith(f"{path}: {reason}")

    def test_unknown_field_rejected(self, default_cfg):
        doc = default_cfg.to_dict()
        doc["bogus_knob"] = 1
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(doc)

    def test_unknown_placement_field_rejected(self, default_cfg):
        doc = default_cfg.to_dict()
        doc["placement"]["extra"] = {}
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(doc)

    def test_missing_field_rejected(self, default_cfg):
        doc = default_cfg.to_dict()
        del doc["Pa_dbm"]
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(doc)

    def test_scalar_exponent_rejected(self, default_cfg):
        # pathloss_exp names each link class; one number no longer stands for both
        doc = default_cfg.to_dict()
        doc["pathloss_exp"] = 2.0
        assert_rejected(doc, re.escape("pathloss_exp must be an object, got 2.0"))

    def test_beta_range_enforced(self, default_cfg):
        doc = default_cfg.to_dict()
        doc["beta1"] = 1.5
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "27", True, False])
    @pytest.mark.parametrize("field, cls", [
        ("d_over_lambda", None), ("noise_ratio", None), ("pathloss_alpha", None),
        ("pathloss_exp", "direct"), ("pathloss_exp", "ris"), ("Pa_dbm", None), ("beta1", None),
    ])
    def test_non_finite_value_rejected(self, default_cfg, field, cls, value):
        # "Pa_dbm": "27" once ran at 27 dBm and "beta1": true at beta1 = 1
        doc = default_cfg.to_dict()
        if cls is None:
            doc[field], name = value, field
        else:
            doc[field][cls], name = value, f"{field}['{cls}']"
        assert_rejected(doc, re.escape(f"{name} must be finite"))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "75", True, [1]])
    @pytest.mark.parametrize("entry, name", [
        (("orientations", "e"), "orientations['e']"),
        (("orientations", "i1"), "orientations['i1']"),
        (("pinned", "a->e", "distance"), "pinned['a->e']['distance']"),
        (("pinned", "i1->b", "theta_t"), "pinned['i1->b']['theta_t']"),
        (("pinned", "b->a", "theta_r"), "pinned['b->a']['theta_r']"),
    ])
    def test_non_finite_placement_rejected(self, default_cfg, entry, name, value):
        # an infinite pinned distance once ran a sweep with Eve's direct gain at 0
        doc = default_cfg.to_dict()
        if entry[0] == "orientations":
            doc["placement"]["orientations"][entry[1]] = value
        else:
            doc["placement"]["pinned"][entry[1]] = {entry[2]: value}
        assert_rejected(doc, re.escape(f"{name} must be finite"))

    @pytest.mark.parametrize("value", [100.7, 2.5, True, False, "8", None, math.inf])
    @pytest.mark.parametrize("name", ["Na", "Nb", "Ne", "M", "seed"])
    def test_whole_number_fields_reject_other_values(self, default_cfg, name, value):
        # "M": 100.7 once became M = 100, "Na": true Na = 1, "seed": 2.5 seed 2
        doc = default_cfg.to_dict()
        doc[name] = value
        assert_rejected(doc, re.escape(f"{name} must be a whole number"))

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("name", ["Na", "Nb", "Ne", "M", "d_over_lambda", "noise_ratio",
                                      "pathloss_alpha"])
    def test_non_positive_value_rejected(self, default_cfg, name, value):
        doc = default_cfg.to_dict()
        doc[name] = value
        assert_rejected(doc, f"^{name} must be positive$")

    @pytest.mark.parametrize("kind, value", [("positions", [1.0, 2.0]), ("orientations", 0.5)])
    def test_unknown_node_rejected(self, default_cfg, kind, value):
        doc = default_cfg.to_dict()
        doc["placement"][kind]["z"] = value
        with pytest.raises(ConfigError, match=re.escape(f"{kind} names unknown nodes ['z']")):
            ScenarioConfig.from_dict(doc)

    @pytest.mark.parametrize("value", [5, None, "12", {"x": 1.0, "y": 2.0}, ["x", 1], [1.0],
                                       [1.0, 2.0, 3.0], [True, 1.0]])
    def test_position_entry_must_be_a_list(self, default_cfg, value):
        doc = default_cfg.to_dict()
        doc["placement"]["positions"]["b"] = value
        assert_rejected(doc, re.escape("positions['b'] must be a list"))

    @pytest.mark.parametrize("value", [5, None, 1.5, [1.0]])
    def test_pinned_entry_must_be_an_object(self, default_cfg, value):
        doc = default_cfg.to_dict()
        doc["placement"]["pinned"] = {"a->e": value}
        assert_rejected(doc, re.escape("pinned['a->e'] must be an object"))

    @pytest.mark.parametrize("value", [None, "2", [1.0, 2.0]])
    @pytest.mark.parametrize("name", ["positions", "orientations", "pinned", "placement",
                                      "pathloss_exp"])
    def test_non_object_rejected(self, default_cfg, name, value):
        # a list of positions once escaped as a bare AttributeError
        doc = default_cfg.to_dict()
        if name in ("placement", "pathloss_exp"):
            doc[name] = value
        else:
            doc["placement"][name] = value
        assert_rejected(doc, re.escape(f"{name} must be an object"))

    def test_finite_pins_still_accepted(self, default_cfg):
        doc = default_cfg.to_dict()
        doc["placement"]["pinned"] = {"a->e": {"distance": 75.0, "theta_t": 1.2}}
        geom = build_geometry(ScenarioConfig.from_dict(doc))
        assert geom[("a", "e")].distance == 75.0 and geom[("a", "e")].theta_t == 1.2

    @pytest.mark.parametrize("name", ["Pa_dbm", "Pb_dbm", "sigma2_e_dbm"])
    def test_power_overflowing_in_mw_rejected(self, default_cfg, name):
        # 4000 dBm once escaped as "(34, 'Numerical result out of range')"
        doc = default_cfg.to_dict()
        doc[name] = 4000.0
        assert_rejected(doc, re.escape(f"{name} = 4000.0 dBm overflows in mW"))

    @pytest.mark.parametrize("changes, name, noise", [
        ({"sigma2_e_dbm": -4000.0}, "sigma2_e_dbm", "0.0"),
        ({"sigma2_e_dbm": -3000.0, "noise_ratio": 1e-300}, "noise_ratio x sigma2_e_dbm", "0.0"),
        ({"sigma2_e_dbm": 3000.0, "noise_ratio": 1e300}, "noise_ratio x sigma2_e_dbm", "inf"),
    ])
    def test_noise_power_must_be_finite_and_positive(self, default_cfg, changes, name, noise):
        # -4000 dBm once failed every sweep point on "sigma2_a must be finite and > 0"
        doc = {**default_cfg.to_dict(), **changes}
        assert_rejected(doc, re.escape(f"{name} gives a noise power of {noise} mW"))

    def test_transmit_power_may_underflow_to_zero(self, default_cfg):
        cfg = default_cfg.replace(Pa_dbm=-4000.0, Pb_dbm=-4000.0)
        assert cfg.pa_mw == cfg.pb_mw == 0.0

    def test_dbm_conversion(self, default_cfg):
        assert default_cfg.pa_mw == pytest.approx(10 ** 2.7)
        assert default_cfg.sigma2_a_mw == pytest.approx(1e-7, rel=1e-9)
        assert default_cfg.sigma2_a_mw == pytest.approx(2 * default_cfg.sigma2_e_mw)

    def test_summary_is_json_serializable(self, default_cfg):
        text = json.dumps(geometry_summary(default_cfg))
        doc = json.loads(text)
        assert set(doc["links"]) == {f"{t}->{r}" for t, r in LINKS}
