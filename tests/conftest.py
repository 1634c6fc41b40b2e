"""Shared generators: random planar scenarios and random link-budget gains."""

import math
import os

import numpy as np
import pytest

import risdm
from risdm.channels import EFFECTIVE_LINKS, EffectiveChannels, build_channels
from risdm.geometry import (
    NODES,
    InvalidGeometryError,
    Placement,
    build_geometry,
    default_config,
)
from risdm.rates import ScalarGains, scalar_gains
from risdm.ris import reflections_for
from risdm.sim import StageMemo, point_design, sweep_point


def random_placement(rng, box=120.0, min_dist=5.0):
    """Random node positions in a box with a minimum pairwise separation."""
    while True:
        positions = {}
        ok = True
        for node in NODES:
            for _ in range(200):
                p = tuple(rng.uniform(-box / 2, box / 2, size=2))
                if all(math.hypot(p[0] - q[0], p[1] - q[1]) >= min_dist
                       for q in positions.values()):
                    positions[node] = p
                    break
            else:
                ok = False
                break
        if ok:
            return Placement(
                positions=positions,
                orientations={n: float(rng.uniform(0, 2 * math.pi)) for n in NODES},
            )


def random_config(rng, na=None, nb=None, ne=None, m=None, **overrides):
    """A full random scenario with a valid geometry (retries end-fire layouts)."""
    for _ in range(100):
        cfg = default_config(
            Na=int(na if na is not None else rng.integers(4, 17)),
            Nb=int(nb if nb is not None else rng.integers(4, 17)),
            Ne=int(ne if ne is not None else rng.integers(4, 17)),
            M=int(m if m is not None else rng.integers(8, 257)),
            beta1=float(rng.uniform(0.05, 0.95)),
            beta2=float(rng.uniform(0.05, 0.95)),
            placement=random_placement(rng),
            **overrides,
        )
        try:
            build_geometry(cfg)
        except InvalidGeometryError:
            continue
        return cfg
    raise RuntimeError("could not draw a valid random scenario")


def collinear_config():
    """The default scenario with Alice and Bob moved so that surface 1 lies
    between them on one line; GPG's phases there round to just below 0."""
    placement = default_config().placement
    positions = dict(placement.positions,
                     a=(-2.6232212868368734, 1.9071228385628576),
                     b=(63.446446316532864, 22.75479030248067))
    return default_config(placement=Placement(positions=positions,
                                              orientations=placement.orientations))


def random_gains(rng):
    """Generic positive link-budget scalars (healthy, non-degenerate sextic)."""
    s = 10.0 ** rng.uniform(-2.0, 0.7, size=8)
    sigma = 10.0 ** rng.uniform(-2.0, 0.0, size=3)
    return ScalarGains(*map(float, s), *map(float, sigma))


def direct_only(h_a, h_b, h_e1, h_e2):
    """Hand-built effective channels whose every channel is its direct term."""
    chans = {"h_a": h_a, "h_b": h_b, "h_e1": h_e1, "h_e2": h_e2}
    return EffectiveChannels(**chans, paths={
        name: {"i1": 0 * chans[name], "i2": 0 * chans[name], tx: chans[name]}
        for name, tx, _ in EFFECTIVE_LINKS})


def pipeline(cfg, ris_mode="gpg", method="max-sv", seed=0):
    """Run geometry -> channels -> reflections -> beamformers for one scenario.

    The effective channels and beamformers come from the sweep's stage,
    :func:`risdm.sim.point_design`.
    """
    geom = build_geometry(cfg)
    channels = build_channels(geom, cfg)
    refls = reflections_for(ris_mode, geom, cfg, seed=seed)
    eff, bf, _ = point_design(StageMemo(), sweep_point(cfg), method, ris_mode, seed)
    return geom, channels, refls, eff, bf


def pipeline_gains(cfg, ris_mode="gpg", method="max-sv", seed=0):
    _, _, _, eff, bf = pipeline(cfg, ris_mode=ris_mode, method=method, seed=seed)
    return scalar_gains(eff, bf, cfg)


@pytest.fixture(autouse=True, scope="session")
def child_pythonpath():
    """CLI tests run ``python -m risdm`` in a child: import the same package there."""
    src = os.path.dirname(os.path.dirname(risdm.__file__))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def default_cfg():
    return default_config()
