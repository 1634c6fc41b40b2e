"""Scenario configuration, planar node placement, and per-link geometry.

Five nodes live on a 2-D plane: Alice ("a"), Bob ("b"), Eve ("e") and the
two reflecting surfaces ("i1", "i2"), each an on-axis uniform linear array
with its own orientation angle.  Every directed link gets a departure
angle, an arrival angle, a distance, and a path gain alpha / d^c with the
exponent c chosen per link class (node-to-node "direct" links vs. links
touching a reflecting surface).

Both link angles are measured from the transmitter-to-receiver ray
direction against the local array axis and folded into (0, pi); a linear
array cannot tell front from back, so the fold loses nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

NODES = ("a", "b", "e", "i1", "i2")
RIS_NODES = ("i1", "i2")

# The fourteen directed links of the network (tx, rx).
LINKS = (
    ("a", "i1"), ("a", "i2"), ("a", "b"), ("a", "e"),
    ("b", "i1"), ("b", "i2"), ("b", "a"), ("b", "e"),
    ("i1", "b"), ("i2", "b"), ("i1", "a"), ("i2", "a"),
    ("i1", "e"), ("i2", "e"),
)

LINK_CLASSES = ("direct", "ris")


class ConfigError(ValueError):
    """Raised for malformed scenario configuration documents."""


class InvalidGeometryError(ValueError):
    """Raised for coincident nodes or end-fire link angles."""


def link_class(tx, rx):
    """"ris" if either endpoint is a reflecting surface, else "direct"."""
    return "ris" if tx in RIS_NODES or rx in RIS_NODES else "direct"


def path_loss(d, alpha, c):
    """Linear path gain alpha / d^c at distance d meters."""
    if d <= 0:
        raise InvalidGeometryError(f"distance must be positive, got {d}")
    return alpha / d**c


def fold_angle(ray_angle, orientation):
    """Angle between a ray and an array axis, folded into [0, pi]."""
    delta = (ray_angle - orientation) % (2.0 * math.pi)
    if delta > math.pi:
        delta = 2.0 * math.pi - delta
    return delta


@dataclass(frozen=True)
class Link:
    """Geometry of one directed link."""

    theta_t: float  # departure angle at the transmitter array, radians in (0, pi)
    theta_r: float  # arrival angle at the receiver array, radians in (0, pi)
    distance: float  # meters
    gain: float  # linear path gain


@dataclass(frozen=True)
class Placement:
    """Node positions (meters), array orientations (radians), and optional
    per-link pins overriding derived angles/distances.

    ``pinned`` maps a directed link key like ``"a->i1"`` to a dict with any
    of ``theta_t``, ``theta_r``, ``distance``.
    """

    positions: dict
    orientations: dict
    pinned: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, entries in (("positions", self.positions), ("orientations", self.orientations)):
            unknown = set(entries) - set(NODES)
            if unknown:
                raise ConfigError(f"{name} names unknown nodes {sorted(unknown)}")
        for node in NODES:
            if node not in self.positions:
                raise ConfigError(f"placement is missing a position for node '{node}'")
            pos = self.positions[node]
            if len(pos) != 2 or not all(math.isfinite(v) for v in pos):
                raise ConfigError(f"position of '{node}' must be two finite numbers")
            if node not in self.orientations:
                raise ConfigError(f"placement is missing an orientation for node '{node}'")
        for node, angle in self.orientations.items():
            if not math.isfinite(angle):
                raise ConfigError(f"orientations['{node}'] must be finite")
        for key, pins in self.pinned.items():
            tx, _, rx = key.partition("->")
            if (tx, rx) not in LINKS:
                raise ConfigError(f"pinned link '{key}' is not one of the network links")
            if not isinstance(pins, dict):
                raise ConfigError(f"pinned['{key}'] must be an object, got {pins!r}")
            unknown = set(pins) - {"theta_t", "theta_r", "distance"}
            if unknown:
                raise ConfigError(f"pinned link '{key}' has unknown fields {sorted(unknown)}")
            for name, value in pins.items():
                if not math.isfinite(float(value)):
                    raise ConfigError(f"pinned['{key}']['{name}'] must be finite")

    @classmethod
    def from_dict(cls, doc):
        known = {"positions", "orientations", "pinned"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown placement fields {sorted(unknown)}")
        positions = {}
        for node, pos in doc.get("positions", {}).items():
            if not isinstance(pos, (list, tuple)):
                raise ConfigError(f"positions['{node}'] must be a list, got {pos!r}")
            positions[node] = tuple(float(x) for x in pos)
        orientations = {k: float(v) for k, v in doc.get("orientations", {}).items()}
        return cls(positions=positions, orientations=orientations, pinned=doc.get("pinned", {}))

    def to_dict(self):
        return {
            "positions": {k: list(v) for k, v in self.positions.items()},
            "orientations": dict(self.orientations),
            "pinned": {k: dict(v) for k, v in self.pinned.items()},
        }


def default_placement(d_ai1=30.0, d_ai2=30.0, d_ab=80.0, d_ae=80.0,
                      theta_ai1=math.pi / 8, theta_ai2=7 * math.pi / 8,
                      theta_ab=5 * math.pi / 9, theta_ae=4 * math.pi / 9):
    """Planar layout built from Alice-side polar coordinates.

    Alice sits at the origin with her array along the x-axis; every other
    node is placed at its configured (distance, departure angle) pair, so
    with Alice's orientation zero the departure angles at Alice equal the
    polar angles by construction.  Bob's and Eve's arrays are oriented
    broadside to their Alice ray (receivers face the network); this keeps
    every link angle strictly inside (0, pi): with all arrays parallel
    the Bob-Eve ray of the standard layout would be exactly end-fire.
    """
    def polar(d, theta):
        return (d * math.cos(theta), d * math.sin(theta))

    return Placement(
        positions={
            "a": (0.0, 0.0),
            "i1": polar(d_ai1, theta_ai1),
            "i2": polar(d_ai2, theta_ai2),
            "b": polar(d_ab, theta_ab),
            "e": polar(d_ae, theta_ae),
        },
        orientations={
            "a": 0.0,
            "i1": 0.0,
            "i2": 0.0,
            "b": theta_ab - 3.0 * math.pi / 2.0,
            "e": theta_ae - 3.0 * math.pi / 2.0,
        },
    )


_CONFIG_FIELDS = (
    "Na", "Nb", "Ne", "M", "d_over_lambda", "Pa_dbm", "Pb_dbm", "beta1", "beta2",
    "sigma2_e_dbm", "noise_ratio", "pathloss_alpha", "pathloss_exp", "placement", "seed",
)


def _whole_number(doc, name):
    """``doc[name]`` as an int: an integer or an integral float, never a bool."""
    value = doc[name]
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value % 1 == 0:
        return int(value)
    raise ConfigError(f"{name} must be a whole number, got {value!r}")


def dbm_to_mw(dbm):
    return 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description.

    Powers are dBm; all internal power arithmetic is done in mW.
    ``pathloss_exp`` maps a link class ("direct", "ris") to its exponent.
    ``noise_ratio`` is sigma^2_a / sigma^2_e (= sigma^2_b / sigma^2_e).
    """

    Na: int
    Nb: int
    Ne: int
    M: int
    d_over_lambda: float
    Pa_dbm: float
    Pb_dbm: float
    beta1: float
    beta2: float
    sigma2_e_dbm: float
    noise_ratio: float
    pathloss_alpha: float
    pathloss_exp: dict
    placement: Placement
    seed: int

    def __post_init__(self):
        for name in ("Na", "Nb", "Ne", "M"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        for name in ("d_over_lambda", "Pa_dbm", "Pb_dbm", "sigma2_e_dbm", "noise_ratio",
                     "pathloss_alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.d_over_lambda <= 0:
            raise ConfigError("d_over_lambda must be positive")
        if self.noise_ratio <= 0 or self.pathloss_alpha <= 0:
            raise ConfigError("noise_ratio and pathloss_alpha must be positive")
        unknown = set(self.pathloss_exp) - set(LINK_CLASSES)
        if unknown:
            raise ConfigError(f"unknown path-loss classes {sorted(unknown)}")
        for cls_name in LINK_CLASSES:
            if cls_name not in self.pathloss_exp:
                raise ConfigError(f"pathloss_exp is missing class '{cls_name}'")
            if not math.isfinite(self.pathloss_exp[cls_name]):
                raise ConfigError(f"pathloss_exp['{cls_name}'] must be finite")

    # -- unit conversions ---------------------------------------------------
    @property
    def pa_mw(self):
        return dbm_to_mw(self.Pa_dbm)

    @property
    def pb_mw(self):
        return dbm_to_mw(self.Pb_dbm)

    @property
    def sigma2_e_mw(self):
        return dbm_to_mw(self.sigma2_e_dbm)

    @property
    def sigma2_a_mw(self):
        return self.noise_ratio * self.sigma2_e_mw

    @property
    def sigma2_b_mw(self):
        return self.noise_ratio * self.sigma2_e_mw

    def node_size(self, node):
        return {"a": self.Na, "b": self.Nb, "e": self.Ne, "i1": self.M, "i2": self.M}[node]

    def replace(self, **changes):
        from dataclasses import replace as _replace

        return _replace(self, **changes)

    # -- JSON ingestion -----------------------------------------------------
    @classmethod
    def from_dict(cls, doc):
        unknown = set(doc) - set(_CONFIG_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config fields {sorted(unknown)}")
        missing = set(_CONFIG_FIELDS) - set(doc)
        if missing:
            raise ConfigError(f"missing config fields {sorted(missing)}")
        exp = doc["pathloss_exp"]
        if isinstance(exp, (int, float)):
            exp = {c: float(exp) for c in LINK_CLASSES}
        else:
            exp = {k: float(v) for k, v in exp.items()}
        return cls(
            Na=_whole_number(doc, "Na"), Nb=_whole_number(doc, "Nb"),
            Ne=_whole_number(doc, "Ne"), M=_whole_number(doc, "M"),
            d_over_lambda=float(doc["d_over_lambda"]),
            Pa_dbm=float(doc["Pa_dbm"]), Pb_dbm=float(doc["Pb_dbm"]),
            beta1=float(doc["beta1"]), beta2=float(doc["beta2"]),
            sigma2_e_dbm=float(doc["sigma2_e_dbm"]), noise_ratio=float(doc["noise_ratio"]),
            pathloss_alpha=float(doc["pathloss_alpha"]), pathloss_exp=exp,
            placement=Placement.from_dict(doc["placement"]),
            seed=_whole_number(doc, "seed"),
        )

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        return {
            "Na": self.Na, "Nb": self.Nb, "Ne": self.Ne, "M": self.M,
            "d_over_lambda": self.d_over_lambda,
            "Pa_dbm": self.Pa_dbm, "Pb_dbm": self.Pb_dbm,
            "beta1": self.beta1, "beta2": self.beta2,
            "sigma2_e_dbm": self.sigma2_e_dbm, "noise_ratio": self.noise_ratio,
            "pathloss_alpha": self.pathloss_alpha, "pathloss_exp": dict(self.pathloss_exp),
            "placement": self.placement.to_dict(),
            "seed": self.seed,
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)


def default_config(**overrides):
    """Default scenario: the standard two-way layout at desk scale.

    Path-loss constants and absolute noise power are invented defaults
    (the source setup leaves them open), so absolute SSR values are
    implementation-relative; trends are what this scenario reproduces.
    """
    base = dict(
        Na=8, Nb=8, Ne=8, M=100,
        d_over_lambda=0.5,
        Pa_dbm=27.0, Pb_dbm=27.0,
        beta1=0.9, beta2=0.9,
        # sigma^2_a = sigma^2_b = -70 dBm = 2 * sigma^2_e
        sigma2_e_dbm=-70.0 - 10.0 * math.log10(2.0),
        noise_ratio=2.0,
        pathloss_alpha=1.0,
        pathloss_exp={"direct": 4.5, "ris": 2.0},
        placement=default_placement(),
        seed=1,
    )
    base.update(overrides)
    placement = base.pop("placement")
    return ScenarioConfig(placement=placement, **base)


def build_geometry(config):
    """Derive all fourteen directed links from the placement.

    Returns a dict mapping (tx, rx) to a :class:`Link`.  Links pinned in
    the placement override the derived angles/distance; the gain is always
    recomputed from the (possibly pinned) distance.
    """
    placement = config.placement
    geom = {}
    for tx, rx in LINKS:
        px, py = placement.positions[tx]
        qx, qy = placement.positions[rx]
        dx, dy = qx - px, qy - py
        dist = math.hypot(dx, dy)
        if dist < 1e-12:
            raise InvalidGeometryError(f"nodes '{tx}' and '{rx}' coincide")
        ray = math.atan2(dy, dx)
        theta_t = fold_angle(ray, placement.orientations[tx])
        theta_r = fold_angle(ray, placement.orientations[rx])

        pins = placement.pinned.get(f"{tx}->{rx}", {})
        theta_t = float(pins.get("theta_t", theta_t))
        theta_r = float(pins.get("theta_r", theta_r))
        dist = float(pins.get("distance", dist))

        for name, ang in (("theta_t", theta_t), ("theta_r", theta_r)):
            if not 0.0 < ang < math.pi:
                raise InvalidGeometryError(
                    f"link {tx}->{rx}: {name}={ang:.6f} falls on the array axis "
                    f"(end-fire); adjust the placement or pin the angle"
                )
        gain = path_loss(dist, config.pathloss_alpha, config.pathloss_exp[link_class(tx, rx)])
        geom[(tx, rx)] = Link(theta_t=theta_t, theta_r=theta_r, distance=dist, gain=gain)
    return geom


def geometry_summary(config):
    """Fully resolved geometry (derived angles, distances, gains) as a dict."""
    geom = build_geometry(config)
    return {
        "positions": {k: list(v) for k, v in config.placement.positions.items()},
        "orientations": dict(config.placement.orientations),
        "noise_mw": {
            "sigma2_a": config.sigma2_a_mw,
            "sigma2_b": config.sigma2_b_mw,
            "sigma2_e": config.sigma2_e_mw,
        },
        "power_mw": {"Pa": config.pa_mw, "Pb": config.pb_mw},
        "links": {
            f"{tx}->{rx}": {
                "theta_t": link.theta_t,
                "theta_r": link.theta_r,
                "distance": link.distance,
                "gain": link.gain,
                "class": link_class(tx, rx),
            }
            for (tx, rx), link in geom.items()
        },
    }
