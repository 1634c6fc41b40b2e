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
import numbers
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, field, fields
from dataclasses import replace as _replace

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

COINCIDENT_M = 1e-12  # two nodes closer than this many meters coincide


class ConfigError(ValueError):
    """Raised for malformed scenario configuration documents."""


class InvalidGeometryError(ValueError):
    """Raised for coincident nodes, end-fire link angles or a link whose
    path gain is not a finite number."""


def link_class(tx, rx):
    """"ris" if either endpoint is a reflecting surface, else "direct"."""
    return "ris" if tx in RIS_NODES or rx in RIS_NODES else "direct"


def path_loss(d, alpha, c):
    """Linear path gain alpha / d^c at distance d meters.

    Raises :class:`InvalidGeometryError` for a distance that is not
    positive and for a gain that is 0 or not finite, including where d^c
    overflows or underflows to 0; a subnormal gain is kept.
    """
    if d <= 0:
        raise InvalidGeometryError(f"distance d = {d!r} m must be positive (exponent c = {c!r})")
    try:
        gain = alpha / d**c
    except (OverflowError, ZeroDivisionError):
        gain = math.nan
    if gain == 0.0 or not math.isfinite(gain):
        what = "underflows to 0" if gain == 0.0 else "is not a finite number"
        raise InvalidGeometryError(
            f"path gain alpha / d^c {what} "
            f"(distance d = {d!r} m, exponent c = {c!r}, alpha = {alpha!r})")
    return gain


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


def _is_number(value):
    """A finite real number that is neither a bool nor a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_integer(value):
    """An integer of any integral type except bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _number(value, name):
    """``value`` as a float: a finite real number, never a bool or a string."""
    if _is_number(value):
        return float(value)
    raise ConfigError(f"{name} must be finite and a real number, got {value!r}")


def _whole_number(value, name):
    """``value`` as an int: an integer or an integral float, never a bool."""
    if _is_number(value) and value % 1 == 0:
        return int(value)
    raise ConfigError(f"{name} must be a whole number, got {value!r}")


def _position(value, name):
    """``value`` as an (x, y) tuple of floats."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value))):
        raise ConfigError(f"{name} must be a list of two finite numbers, got {value!r}")
    return tuple(_number(v, name) for v in value)


def _entries(doc, name, what, keys, rule, required=()):
    """The JSON object ``doc`` as a dict with each value passed through ``rule``.

    Its keys must lie in ``keys`` and include ``required``; ``rule(value,
    label)`` checks and normalises one value, ``label`` naming it in errors.
    """
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{name} must be an object, got {doc!r}")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigError(f"{name} names unknown {what} {sorted(unknown, key=str)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigError(f"{name} is missing {what} {missing}")
    return {key: rule(value, f"{name}['{key}']") for key, value in doc.items()}


def _from_fields(cls, doc, name):
    """``cls`` built from a JSON object holding its fields; a field with a
    default may be left out."""
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    return cls(**_entries(doc, name, "fields", [f.name for f in fields(cls)],
                          lambda value, _: value, required))


_LINK_KEYS = tuple(f"{tx}->{rx}" for tx, rx in LINKS)
_PIN_FIELDS = ("theta_t", "theta_r", "distance")


def _pins(doc, name):
    """One link's pins: an object over ``theta_t``, ``theta_r``, ``distance``."""
    return _entries(doc, name, "fields", _PIN_FIELDS, _number)


@dataclass(frozen=True)
class Placement:
    """Node positions (meters), array orientations (radians), and optional
    per-link pins overriding derived angles/distances.

    ``pinned`` maps a directed link key like ``"a->i1"`` to a dict with any
    of ``theta_t``, ``theta_r``, ``distance``.  Construction checks every
    entry and stores positions as float pairs and every angle and distance
    as a float.
    """

    positions: dict
    orientations: dict
    pinned: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, what, keys, rule, required in (
            ("positions", "nodes", NODES, _position, NODES),
            ("orientations", "nodes", NODES, _number, NODES),
            ("pinned", "links", _LINK_KEYS, _pins, ()),
        ):
            object.__setattr__(self, name, _entries(getattr(self, name), name, what, keys, rule,
                                                    required))

    @classmethod
    def from_dict(cls, doc):
        return _from_fields(cls, doc, "placement")


def default_placement():
    """The standard planar layout, built from Alice-side polar coordinates.

    Alice sits at the origin with her array along the x-axis; the surfaces
    sit at 30 m (pi/8 and 7 pi/8), Bob and Eve at 80 m (5 pi/9 and 4 pi/9),
    so with Alice's orientation zero the departure angles at Alice equal
    the polar angles by construction.  Bob's and Eve's arrays are oriented
    broadside to their Alice ray (receivers face the network); this keeps
    every link angle strictly inside (0, pi): with all arrays parallel
    the Bob-Eve ray of the standard layout would be exactly end-fire.
    """
    def polar(d, theta):
        return (d * math.cos(theta), d * math.sin(theta))

    theta_ab, theta_ae = 5 * math.pi / 9, 4 * math.pi / 9
    return Placement(
        positions={
            "a": (0.0, 0.0),
            "i1": polar(30.0, math.pi / 8),
            "i2": polar(30.0, 7 * math.pi / 8),
            "b": polar(80.0, theta_ab),
            "e": polar(80.0, theta_ae),
        },
        orientations={
            "a": 0.0,
            "i1": 0.0,
            "i2": 0.0,
            "b": theta_ab - 3.0 * math.pi / 2.0,
            "e": theta_ae - 3.0 * math.pi / 2.0,
        },
    )


# The rule for a ScenarioConfig field by its annotation, a string under
# ``from __future__ import annotations``: the counts and the seed are whole
# numbers, every other scalar a finite float.
_FIELD_RULES = {"int": _whole_number, "float": _number}


def dbm_to_mw(dbm):
    return 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description.

    Powers are dBm; all internal power arithmetic is done in mW.
    ``pathloss_exp`` maps a link class ("direct", "ris") to its exponent.
    ``noise_ratio`` is sigma^2_a / sigma^2_e (= sigma^2_b / sigma^2_e).

    Construction checks every field and stores it normalised: the counts
    and ``seed`` as ints, the other scalars as floats, ``pathloss_exp``
    (an object over both classes) as a dict, and ``placement`` (a
    :class:`Placement` or its JSON object) as a Placement.
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
        for f in fields(self):
            rule = _FIELD_RULES.get(f.type)
            if rule is not None:
                object.__setattr__(self, f.name, rule(getattr(self, f.name), f.name))
        for name in ("Na", "Nb", "Ne", "M", "d_over_lambda", "noise_ratio", "pathloss_alpha"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        for name in ("Pa_dbm", "Pb_dbm", "sigma2_e_dbm"):
            try:
                dbm_to_mw(getattr(self, name))
            except OverflowError:
                raise ConfigError(f"{name} = {getattr(self, name)!r} dBm overflows in mW") from None
        # a transmit power may underflow to 0 mW, a noise power may not
        for name, noise in (("sigma2_e_dbm", self.sigma2_e_mw),
                            ("noise_ratio x sigma2_e_dbm", self.sigma2_a_mw)):
            if not (math.isfinite(noise) and noise > 0.0):
                raise ConfigError(f"{name} gives a noise power of {noise!r} mW; "
                                  "it must be finite and > 0")
        object.__setattr__(self, "pathloss_exp", _entries(
            self.pathloss_exp, "pathloss_exp", "classes", LINK_CLASSES, _number, LINK_CLASSES))
        if not isinstance(self.placement, Placement):
            object.__setattr__(self, "placement", Placement.from_dict(self.placement))

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
        return _replace(self, **changes)

    # -- JSON ingestion -----------------------------------------------------
    @classmethod
    def from_dict(cls, doc):
        return _from_fields(cls, doc, "config")

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as err:  # malformed JSON or not UTF-8
                raise ConfigError(f"{path}: {err}") from None
        return cls.from_dict(doc)

    def to_dict(self):
        return asdict(self)

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
    return ScenarioConfig(**base)


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
        if dist < COINCIDENT_M:
            raise InvalidGeometryError(f"nodes '{tx}' and '{rx}' coincide")
        ray = math.atan2(dy, dx)
        theta_t = fold_angle(ray, placement.orientations[tx])
        theta_r = fold_angle(ray, placement.orientations[rx])

        pins = placement.pinned.get(f"{tx}->{rx}", {})
        theta_t = pins.get("theta_t", theta_t)
        theta_r = pins.get("theta_r", theta_r)
        dist = pins.get("distance", dist)

        for name, ang in (("theta_t", theta_t), ("theta_r", theta_r)):
            if not 0.0 < ang < math.pi:
                raise InvalidGeometryError(
                    f"link {tx}->{rx}: {name}={ang:.6f} falls on the array axis "
                    f"(end-fire); adjust the placement or pin the angle"
                )
        try:
            gain = path_loss(dist, config.pathloss_alpha, config.pathloss_exp[link_class(tx, rx)])
        except InvalidGeometryError as err:
            raise InvalidGeometryError(f"link {tx}->{rx}: {err}") from None
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
