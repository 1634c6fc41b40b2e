"""Experiment driver: parameter sweeps, Monte-Carlo baselines, CSV output.

A sweep walks one axis (transmit power, element count, split factor, or
Alice-Bob distance) over a value list crossed with beamforming methods,
reflection modes, and power-allocation modes.  Each (value, method,
reflection mode, trial) unit runs the geometry-to-gains chain
(:func:`point_design`: channels, transmit vectors, receivers, gains)
and every power-allocation mode, but each stage
is computed once per distinct input it reads, through a
:class:`StageMemo` that lives for one sweep; its ``get(key, compute)``
calls a zero-argument ``compute`` only for a key it has not stored.
A power or split sweep thus builds its channels once, a mode that reads
no seed builds its effective channels once per site, a beamformer set
is stored with its gains, and an optimized split, hicf's included, is
computed once per distinct set of gains.  Every stage result is
the one the unit would have computed alone, and records are sorted into
a deterministic order before emission, so sharing does not change the
output bytes.

Randomized points derive their sub-seed from the master seed and the
(axis index, trial index) pair through the splitmix64 mixer, documented
in the README; identical inputs therefore give byte-identical CSV.

A :class:`SweepRecord` is a NamedTuple whose fields are the CSV columns
in order, so :func:`emit_csv` renders each record with one ``%`` format:
the floats to 12 significant digits, every other field through ``str()``.
:func:`pa_surface` returns a :class:`Surface`, the clamped SSR grid with
its beta values, not one record per cell; :func:`emit_csv` writes the
same rows from it, formatting each beta1's leading columns and each
beta2's trailing columns once and each beta1's SSR row in one ``%``.
The surface scores the split grid of the grid searches
(``power_allocation._grid``), at es2d's step by default, so its best cell
is es2d's and its diagonal's best cell es1d's, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import NamedTuple

import numpy as np

from .beamforming import (
    BeamformerSet,
    leakage_transmitters,
    max_sv_beamformers,
    receiver_zf,
    zf_mrc,
)
from .channels import build_channels, effective_channels
from .geometry import COINCIDENT_M, InvalidGeometryError, ScenarioConfig, build_geometry
from .geometry import _is_integer, _is_number
from .power_allocation import DEFAULT_STEP_2D, _grid, allocate, grid_intervals
from .rates import _objective, scalar_gains, ssr
from .ris import MODES as RIS_MODES
from .ris import SEEDED_MODES, reflections_for

AXES = ("power_dbm", "elements_m", "beta", "distance_ab")
METHODS = ("max-sv", "leakage")
PA_MODES = ("fixed", "epa", "es1d", "es2d", "hicf")

CSV_HEADER = "axis,method,ris_mode,pa_mode,beta1,beta2,ssr_bits,trial,seed"

_MASK64 = (1 << 64) - 1


def splitmix64(state):
    """One splitmix64 step: the 64-bit mixing function behind sub-seeding."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def sub_seed(seed, axis_index, trial):
    """Deterministic per-point seed: seed mixed with the point coordinates."""
    return splitmix64(splitmix64(int(seed) & _MASK64) ^ splitmix64((axis_index << 32) ^ trial))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep description: axis, values, and the mode cross product.

    Each mode list names at least one mode, and each mode at most once.
    es1d and es2d search at their default grid steps; no power-allocation
    mode reads the seed.
    """

    axis: str
    values: tuple
    methods: tuple = ("max-sv",)
    ris_modes: tuple = ("gpg",)
    pa_modes: tuple = ("fixed",)
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"unknown sweep axis '{self.axis}' (choose from {AXES})")
        if len(self.values) == 0:
            raise ValueError("sweep needs at least one axis value")
        for v in self.values:
            if not _is_number(v):
                raise ValueError(f"{self.axis} values must be finite real numbers, got {v!r}")
        if any(b >= a for a, b in zip(self.values[1:], self.values)):
            raise ValueError("axis values must be strictly increasing")
        if self.axis == "elements_m" and not all(
            float(v).is_integer() and v >= 1 for v in self.values
        ):
            raise ValueError("elements_m values must be whole numbers >= 1")
        if self.axis == "distance_ab" and not all(v > 0 for v in self.values):
            raise ValueError("distance_ab values must be finite and > 0")
        if not (_is_integer(self.trials) and self.trials >= 1):
            raise ValueError("trials must be an integer >= 1")
        if not _is_integer(self.seed):
            raise ValueError("seed must be an integer")
        for field, known, kind in (
            ("methods", METHODS, "method"),
            ("ris_modes", RIS_MODES, "reflection mode"),
            ("pa_modes", PA_MODES, "power-allocation mode"),
        ):
            modes = getattr(self, field)
            if len(modes) == 0:
                raise ValueError(f"{field} must list at least one {kind}")
            seen = set()
            for m in modes:
                if m not in known:
                    raise ValueError(f"unknown {kind} '{m}'")
                if m in seen:
                    raise ValueError(f"{field} lists '{m}' more than once")
                seen.add(m)


class SweepRecord(NamedTuple):
    """One evaluated sweep point; a pure function of (config, spec, seed).

    The fields are in the column order of ``CSV_HEADER``, so a record is
    one CSV row as it stands.
    """

    axis_value: float
    method: str
    ris_mode: str
    pa_mode: str
    beta1: float
    beta2: float
    ssr_bits: float
    trial: int
    seed: int


def apply_axis(config, axis, value):
    """The scenario with one swept parameter overridden; the scenario's
    constructor checks and converts ``value``."""
    if axis == "power_dbm":
        return config.replace(Pa_dbm=value, Pb_dbm=value)
    if axis == "elements_m":
        return config.replace(M=value)
    if axis == "beta":
        return config.replace(beta1=value, beta2=value)
    if axis == "distance_ab":
        placement = config.placement
        ax, ay = placement.positions["a"]
        bx, by = placement.positions["b"]
        d_old = math.hypot(bx - ax, by - ay)
        if d_old < COINCIDENT_M:
            raise InvalidGeometryError("nodes 'a' and 'b' coincide")
        scale = value / d_old
        new_b = (ax + (bx - ax) * scale, ay + (by - ay) * scale)
        positions = dict(placement.positions)
        positions["b"] = new_b
        return config.replace(placement=replace(placement, positions=positions))
    raise ValueError(f"unknown sweep axis '{axis}'")


class StageMemo:
    """Stage results keyed by the inputs each stage reads, for one sweep.

    ``get(key, compute)`` calls the zero-argument ``compute`` for the first
    request of a key and stores its result; every later request gets the
    stored result.  A ``compute`` that raises stores nothing.
    """

    def __init__(self):
        self._results = {}

    def get(self, key, compute):
        if key not in self._results:
            self._results[key] = compute()
        return self._results[key]


# The scenario fields that neither the geometry, the channels, the
# reflections nor the ZF vectors read; a site is a scenario with them reset.
_SITE_RESET = dict(Pa_dbm=0.0, Pb_dbm=0.0, beta1=0.0, beta2=0.0, seed=0)


class SweepPoint(NamedTuple):
    """A scenario, its site, and the site's JSON, the key of every site stage."""

    scenario: ScenarioConfig
    site: ScenarioConfig
    site_key: str


def sweep_point(scenario):
    """The :class:`SweepPoint` of one scenario."""
    site = scenario.replace(**_SITE_RESET)
    return SweepPoint(scenario, site, site.to_json())


def point_design(memo, point, method, ris_mode, seed):
    """(effective channels, :class:`~risdm.beamforming.BeamformerSet`, gains) of one point.

    ``point`` is a :class:`SweepPoint`.  Each stage is taken from ``memo``
    under the inputs it reads:

    * geometry and channels: the site (the scenario with its powers, split
      and seed reset);
    * reflections and effective channels: the site, the mode, and the
      seed for a mode in ``ris.SEEDED_MODES``;
    * ZF vectors: the site and the receiver;
    * max-sv design: the effective channels;
    * leakage transmitters: the site, powers and split;
    * the leakage receivers, Eve's combiner and the set's gains: the
      effective channels, method, powers and split, in one entry.

    Each ZF+MRC receiver is :func:`~risdm.beamforming.zf_mrc` over its
    memoized ZF vectors, so no path term is read here.
    """
    scenario, site, site_key = point
    channels = memo.get(("channels", site_key), lambda: build_channels(build_geometry(site), site))
    eff_key = (site_key, ris_mode, seed if ris_mode in SEEDED_MODES else None)
    budget = (scenario.Pa_dbm, scenario.Pb_dbm, scenario.beta1, scenario.beta2)
    eff = memo.get(("eff", eff_key), lambda: effective_channels(
        channels, *reflections_for(ris_mode, channels.geom, site, seed=seed)))

    def receiver(rx, v_at, v_bt):
        zf = memo.get(("zf", site_key, rx), lambda: receiver_zf(channels, rx))
        return zf_mrc(zf, eff, rx, v_at, v_bt, scenario)[0]

    def design():
        if method == "max-sv":
            v_at, v_bt, w_a, w_b, v_ar, v_br = memo.get(
                ("max-sv", eff_key), lambda: max_sv_beamformers(channels, eff))
        elif method == "leakage":
            v_at, v_bt, w_a, w_b = memo.get(
                ("leakage", site_key, budget), lambda: leakage_transmitters(channels, scenario))
            v_br, v_ar = receiver("b", v_at, v_bt), receiver("a", v_at, v_bt)
        else:
            raise ValueError(f"unknown beamforming method '{method}'")
        bf = BeamformerSet(v_at, v_bt, w_a, w_b, v_ar, v_br, receiver("e", v_at, v_bt))
        return bf, scalar_gains(eff, bf, scenario)

    bf, gains = memo.get(("design", eff_key, method, budget), design)
    return eff, bf, gains


def run_sweep(config, spec):
    """Evaluate every (value x method x ris_mode x pa_mode x trial) point.

    Every stage runs once per distinct input within this call (see
    :func:`point_design`), and each axis value is applied once; an
    :func:`~risdm.power_allocation.allocate` outcome is keyed by the mode
    and the gains, and ``fixed`` is scored at the scenario's split.
    Errors propagate with the offending parameters attached.  Records come
    back sorted.
    """
    memo = StageMemo()
    records = []
    for (axis_index, value), method, ris_mode, trial in product(
        enumerate(spec.values), spec.methods, spec.ris_modes, range(spec.trials)
    ):
        seed = sub_seed(spec.seed, axis_index, trial)
        where = f"axis={spec.axis}={value} method={method} ris={ris_mode} trial={trial}"
        try:
            point = memo.get(("point", value),
                             lambda: sweep_point(apply_axis(config, spec.axis, value)))
            _, _, gains = point_design(memo, point, method, ris_mode, seed)
        except Exception as err:
            raise RuntimeError(f"sweep point failed: {where}: {err}") from err
        scenario = point.scenario
        for pa_mode in spec.pa_modes:
            try:
                if pa_mode == "fixed":
                    b1, b2 = scenario.beta1, scenario.beta2
                    rate = ssr(b1, b2, gains)
                else:
                    out = memo.get(("pa", pa_mode, gains), lambda: allocate(gains, pa_mode))
                    b1, b2, rate = out.beta1, out.beta2, out.ssr
            except Exception as err:
                raise RuntimeError(f"sweep point failed: {where} pa={pa_mode}: {err}") from err
            records.append(SweepRecord(
                float(value), method, ris_mode, pa_mode, b1, b2, rate, trial, seed,
            ))
    records.sort(key=lambda r: (r.axis_value, r.method, r.ris_mode, r.pa_mode, r.trial))
    return records


# The largest surface grid, in points per axis (step 0.001).
MAX_SURFACE_POINTS = 1001


class Surface:
    """The SSR over the (beta1, beta2) grid of one point design.

    ``ssr[i, j]`` is the clamped SSR at ``(betas[i], betas[j])``; ``betas``
    is the grid searches' split grid as a list, the values ``i / n``.
    ``len()`` counts the cells, the records :func:`emit_csv` writes for it.
    """

    __slots__ = ("method", "ris_mode", "seed", "betas", "ssr")

    def __init__(self, method, ris_mode, seed, betas, ssr):
        self.method, self.ris_mode, self.seed = method, ris_mode, seed
        self.betas, self.ssr = betas, ssr

    def __len__(self):
        return self.ssr.size


def pa_surface(config, step=DEFAULT_STEP_2D, method="max-sv", ris_mode="gpg"):
    """The :class:`Surface` of the config's beamformers, frozen at the config split.

    ``step`` must lie in (0, 0.5], no finer than ``MIN_GRID_STEP``, with
    at most ``MAX_SURFACE_POINTS`` grid points per axis; it defaults to
    es2d's, ``DEFAULT_STEP_2D``, whose grid the surface then scores cell
    for cell.  The CSV holds one record per cell, the axis column carrying
    beta1.
    """
    n = grid_intervals(step)
    if n + 1 > MAX_SURFACE_POINTS:
        raise ValueError(
            f"grid step {step!r} gives {(n + 1) ** 2} records, more than the "
            f"{MAX_SURFACE_POINTS ** 2} of a {MAX_SURFACE_POINTS}-point grid"
        )
    _, _, gains = point_design(StageMemo(), sweep_point(config), method, ris_mode, config.seed)
    grid = _grid(step)
    values = _objective(grid[:, None], grid[None, :], gains)
    # max(0, R) of each cell: -0.0 becomes 0.0
    return Surface(method, ris_mode, config.seed, grid.tolist(),
                   np.where(values > 0.0, values, 0.0))


# One CSV row: the floats to 12 significant digits, the rest through str().
_ROW = "%.12g,%s,%s,%s,%.12g,%.12g,%.12g,%s,%s\n"


def _surface_rows(surface):
    """The rows of a surface, beta1-major: each beta1's head and each beta2's
    tail (``"<beta2>,%.12g,0,<seed>\\n"``) are formatted once, and a beta1's
    rows are the tails joined by its head, filled with its SSR row in one
    ``%``.  The tails' SSR fields are the only directives: a head holds a beta
    and the method and reflection names, which :func:`point_design` and
    :func:`~risdm.ris.reflections_for` validate, and a tail a beta and the
    integer seed."""
    heads = ["%.12g,%s,%s,surface,%.12g," % (b, surface.method, surface.ris_mode, b)
             for b in surface.betas]
    tails = ["", *["%.12g,%%.12g,0,%s\n" % (b, surface.seed) for b in surface.betas]]
    return [head.join(tails) % tuple(row) for head, row in zip(heads, surface.ssr.tolist())]


def emit_csv(records):
    """Render records, or a :class:`Surface`, as a CSV document (fixed header,
    LF endings, 12 sig digits): one join of the header and the rows."""
    if isinstance(records, Surface):
        rows = _surface_rows(records)
    elif records:
        rows = [_ROW % r for r in records]
    else:
        raise ValueError("no records to emit")
    return "".join([CSV_HEADER + "\n", *rows])


def write_csv(records, path):
    text = emit_csv(records)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise OSError(f"cannot write CSV to {path}: {err}") from err
    return text
