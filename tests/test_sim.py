"""Sweep driver, CSV emission, and the power-split surface."""

import csv
import io
import math
from dataclasses import replace
from itertools import product, zip_longest

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import risdm.channels
import risdm.sim
from conftest import collinear_config, pipeline_gains
from risdm.beamforming import DegenerateChannelError, receiver_zf
from risdm.channels import build_channels
from risdm.geometry import LINKS, InvalidGeometryError, build_geometry, default_config
from risdm.power_allocation import allocate, es_1d, es_2d, hicf
from risdm.rates import ScalarGains, rate_objective, ssr
from risdm.ris import MODES as RIS_MODES
from risdm.sim import (
    AXES,
    CSV_HEADER,
    MAX_SURFACE_POINTS,
    METHODS,
    PA_MODES,
    StageMemo,
    Surface,
    SweepRecord,
    SweepSpec,
    apply_axis,
    emit_csv,
    pa_surface,
    point_design,
    run_sweep,
    splitmix64,
    sub_seed,
    sweep_point,
    write_csv,
)


def small_cfg(**overrides):
    base = dict(M=16)
    base.update(overrides)
    return default_config(**base)


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="frequency", values=(1.0,))
        with pytest.raises(ValueError):
            SweepSpec(axis="power_dbm", values=())
        with pytest.raises(ValueError):
            SweepSpec(axis="power_dbm", values=(10.0, 5.0))
        with pytest.raises(ValueError):
            SweepSpec(axis="power_dbm", values=(5.0,), trials=0)
        with pytest.raises(ValueError):
            SweepSpec(axis="power_dbm", values=(5.0,), ris_modes=("nope",))

    @pytest.mark.parametrize("trials", [1.5, 2.0, "2", None, 0, -1, True])
    def test_trials_must_be_integer_at_least_one(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            SweepSpec(axis="power_dbm", values=(5.0,), trials=trials)

    @pytest.mark.parametrize("seed", [2.5, 3.0, "3", None, float("nan"), True, False])
    def test_seed_must_be_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SweepSpec(axis="power_dbm", values=(5.0,), seed=seed)

    @pytest.mark.parametrize("trials, seed", [(1, 0), (3, -7), (np.int64(2), np.int64(5)),
                                              (1, 2**70)])
    def test_integer_trials_and_seed_accepted(self, trials, seed):
        spec = SweepSpec(axis="power_dbm", values=(5.0,), trials=trials, seed=seed)
        records = run_sweep(small_cfg(), spec)
        assert len(records) == trials
        assert records == run_sweep(small_cfg(), replace(spec, trials=int(trials), seed=int(seed)))

    @pytest.mark.parametrize("axis, values", [
        ("power_dbm", (True,)), ("power_dbm", ("27",)), ("power_dbm", (float("nan"),)),
        ("power_dbm", (1.0, float("nan"))), ("power_dbm", (None,)), ("beta", (0.5, float("inf"))),
        ("elements_m", (16.0, float("inf"))), ("elements_m", (np.bool_(True),)),
        ("distance_ab", (80.0, float("inf"))), ("distance_ab", (float("nan"),)),
    ])
    def test_axis_values_must_be_finite_numbers(self, axis, values):
        with pytest.raises(ValueError, match=f"{axis} values must be finite real numbers"):
            SweepSpec(axis=axis, values=values)

    @pytest.mark.parametrize("values", [(100.2, 100.7), (0.0, 8.0), (-4.0,)])
    def test_elements_axis_takes_whole_counts(self, values):
        with pytest.raises(ValueError, match="whole numbers"):
            SweepSpec(axis="elements_m", values=values)

    @pytest.mark.parametrize("values", [(-80.0, 80.0), (-200.0, -80.0), (0.0, 80.0)])
    def test_distance_axis_takes_positive_distances(self, values):
        with pytest.raises(ValueError, match="distance_ab values must be finite and > 0"):
            SweepSpec(axis="distance_ab", values=values)

    @pytest.mark.parametrize("field", ["methods", "ris_modes", "pa_modes"])
    def test_repeated_mode_rejected(self, field):
        known = {"methods": METHODS, "ris_modes": RIS_MODES, "pa_modes": PA_MODES}[field]
        modes = (known[0], known[-1], known[0])
        with pytest.raises(ValueError, match=f"{field} lists '{known[0]}' more than once"):
            SweepSpec(axis="power_dbm", values=(5.0,), **{field: modes})

    @pytest.mark.parametrize("field, kind", [
        ("methods", "method"), ("ris_modes", "reflection mode"),
        ("pa_modes", "power-allocation mode"),
    ])
    def test_empty_mode_list_rejected(self, field, kind):
        # an empty pa_modes once computed every gain and returned no record
        with pytest.raises(ValueError, match=f"{field} must list at least one {kind}"):
            SweepSpec(axis="power_dbm", values=(5.0,), **{field: ()})

    @pytest.mark.parametrize("field, value", [("pa_seed", 3), ("pa_grid_step", 0.1)])
    def test_optimizer_overrides_are_not_fields(self, field, value):
        # es1d and es2d search at their default steps; hicf takes the sub-seed
        with pytest.raises(TypeError, match=field):
            SweepSpec(axis="power_dbm", values=(5.0,), **{field: value})

    def test_negative_master_seed_accepted(self):
        # masked to 64 bits by sub_seed, as the README documents
        assert SweepSpec(axis="power_dbm", values=(5.0,), seed=-5).seed == -5

    def test_elements_axis_accepts_integral_floats(self):
        assert SweepSpec(axis="elements_m", values=(1.0, 8, 100.0)).values == (1.0, 8, 100.0)

    def test_apply_axis(self):
        cfg = small_cfg()
        assert apply_axis(cfg, "power_dbm", 12.0).Pa_dbm == 12.0
        assert apply_axis(cfg, "elements_m", 64).M == 64
        beta = apply_axis(cfg, "beta", 0.4)
        assert beta.beta1 == beta.beta2 == 0.4
        moved = apply_axis(cfg, "distance_ab", 120.0)
        ax, ay = moved.placement.positions["a"]
        bx, by = moved.placement.positions["b"]
        assert math.hypot(bx - ax, by - ay) == pytest.approx(120.0, abs=1e-9)
        # bearing preserved
        geom = build_geometry(moved)
        assert geom[("a", "b")].theta_t == pytest.approx(5 * math.pi / 9, abs=1e-12)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="^unknown sweep axis 'bogus'$"):
            apply_axis(small_cfg(), "bogus", 1.0)

    def test_distance_axis_on_coincident_alice_and_bob(self):
        # the distance axis once divided by the zero Alice-Bob distance
        cfg = small_cfg()
        positions = dict(cfg.placement.positions, b=cfg.placement.positions["a"])
        cfg = cfg.replace(placement=replace(cfg.placement, positions=positions))
        with pytest.raises(InvalidGeometryError, match="nodes 'a' and 'b' coincide"):
            apply_axis(cfg, "distance_ab", 40.0)
        for axis, value in (("distance_ab", 40.0), ("power_dbm", 10.0)):
            with pytest.raises(RuntimeError, match="nodes 'a' and 'b' coincide"):
                run_sweep(cfg, SweepSpec(axis=axis, values=(value,)))


class TestSubSeeding:
    def test_splitmix_is_64_bit(self):
        values = {splitmix64(k) for k in range(64)}
        assert len(values) == 64
        assert all(0 <= v < 2**64 for v in values)

    def test_sub_seed_distinct_per_point(self):
        seeds = {sub_seed(1, i, t) for i in range(8) for t in range(8)}
        assert len(seeds) == 64

    def test_sub_seed_depends_on_master(self):
        assert sub_seed(1, 0, 0) != sub_seed(2, 0, 0)


class TestRunSweep:
    def test_record_count_and_order(self):
        cfg = small_cfg()
        spec = SweepSpec(
            axis="power_dbm", values=(7.0, 17.0), methods=("max-sv",),
            ris_modes=("gpg", "none"), pa_modes=("fixed",), trials=2, seed=3,
        )
        records = run_sweep(cfg, spec)
        assert len(records) == 2 * 2 * 2
        keys = [(r.axis_value, r.method, r.ris_mode, r.pa_mode, r.trial) for r in records]
        assert keys == sorted(keys)

    def test_deterministic_across_runs_and_workers(self):
        cfg = small_cfg()
        spec = SweepSpec(
            axis="elements_m", values=(8, 16), ris_modes=("random",), trials=3, seed=11,
        )
        a = emit_csv(run_sweep(cfg, spec))
        b = emit_csv(run_sweep(cfg, spec))
        assert a == b

    def test_random_trials_differ(self):
        cfg = small_cfg()
        spec = SweepSpec(axis="power_dbm", values=(27.0,), ris_modes=("random",), trials=4, seed=5)
        ssrs = {r.ssr_bits for r in run_sweep(cfg, spec)}
        assert len(ssrs) == 4

    def test_power_monotone_for_designed_phases(self):
        cfg = small_cfg()
        spec = SweepSpec(axis="power_dbm", values=(7.0, 12.0, 17.0, 22.0, 27.0))
        records = run_sweep(cfg, spec)
        ssrs = [r.ssr_bits for r in records]
        assert all(a <= b + 1e-12 for a, b in zip(ssrs, ssrs[1:]))

    def test_pa_mode_hicf_beats_fixed_epa(self):
        cfg = small_cfg()
        spec = SweepSpec(axis="power_dbm", values=(27.0,), pa_modes=("epa", "hicf"))
        by_mode = {r.pa_mode: r for r in run_sweep(cfg, spec)}
        assert by_mode["hicf"].ssr_bits >= by_mode["epa"].ssr_bits - 1e-12

    def test_optimizers_run_at_default_steps_and_sub_seeds(self):
        cfg = small_cfg()
        spec = SweepSpec(axis="power_dbm", values=(7.0, 27.0), ris_modes=("random",),
                         pa_modes=("es1d", "es2d", "hicf"), trials=2, seed=4)
        records = run_sweep(cfg, spec)
        assert len(records) == 2 * 3 * 2
        for r in records:
            assert r.seed == sub_seed(spec.seed, spec.values.index(r.axis_value), r.trial)
            scenario = apply_axis(cfg, spec.axis, r.axis_value)
            gains = pipeline_gains(scenario, ris_mode=r.ris_mode, method=r.method, seed=r.seed)
            want = {"es1d": lambda: es_1d(gains, step=1e-3),
                    "es2d": lambda: es_2d(gains, step=1e-2),
                    "hicf": lambda: hicf(gains)}[r.pa_mode]()
            assert (r.beta1, r.beta2, r.ssr_bits) == (want.beta1, want.beta2, want.ssr)

    def test_point_failure_carries_context(self, monkeypatch):
        cfg = small_cfg(Ne=3)  # four-way ZF impossible
        spec = SweepSpec(axis="power_dbm", values=(27.0,))
        with pytest.raises(RuntimeError, match="power_dbm=27") as pipeline_err:
            run_sweep(cfg, spec)
        assert "method=max-sv ris=gpg trial=0" in str(pipeline_err.value)
        assert "pa=" not in str(pipeline_err.value)

        def failing_allocate(gains, mode, **kwargs):
            raise ValueError("no split")

        monkeypatch.setattr(risdm.sim, "allocate", failing_allocate)
        spec = SweepSpec(axis="power_dbm", values=(27.0,), pa_modes=("fixed", "hicf"))
        with pytest.raises(RuntimeError, match="power_dbm=27") as pa_err:
            run_sweep(small_cfg(), spec)
        message = str(pa_err.value)
        assert "method=max-sv ris=gpg trial=0" in message
        assert "pa=hicf" in message and "no split" in message

    def test_singular_leakage_pencil_carries_context(self):
        # at 200 dBm the loaded leakage pencil's B is numerically singular
        spec = SweepSpec(axis="power_dbm", values=(200.0,), methods=("leakage",))
        with pytest.raises(RuntimeError, match="power_dbm=200") as err:
            run_sweep(default_config(), spec)
        message = str(err.value)
        assert "method=leakage" in message and "singular" in message

    @pytest.mark.parametrize("ris_mode", ["none", "ris1-only"])
    def test_dead_receiver_carries_context(self, ris_mode):
        # on the Alice-Bob line surface 1 and Alice reach Bob from one
        # direction, so Bob's ZF drops both branches that carry her message
        cfg = collinear_config()
        channels = build_channels(build_geometry(cfg), cfg)
        assert [not v.any() for v in receiver_zf(channels, "b")] == [True, False, True]
        spec = SweepSpec(axis="power_dbm", values=(27.0,), methods=("leakage",),
                         ris_modes=(ris_mode,))
        with pytest.raises(RuntimeError, match=f"ris={ris_mode}") as err:
            run_sweep(cfg, spec)
        assert "cannot normalize a zero vector" in str(err.value)
        assert isinstance(err.value.__cause__, DegenerateChannelError)

    def test_surface_on_the_alice_bob_line(self):
        # GPG's phases there round to just below 0 on surface 1
        spec = SweepSpec(axis="power_dbm", values=(10.0, 27.0), methods=METHODS,
                         ris_modes=("gpg", "random", "ris2-only"))
        records = run_sweep(collinear_config(), spec)
        assert len(records) == 12
        assert all(math.isfinite(r.ssr_bits) for r in records)

    @pytest.mark.parametrize("method", METHODS)
    def test_gains_stored_with_the_beamformers(self, monkeypatch, method):
        calls = []
        real = risdm.sim.scalar_gains

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(risdm.sim, "scalar_gains", counting)
        memo, point = StageMemo(), sweep_point(small_cfg())
        eff, bf, gains = point_design(memo, point, method, "gpg", 0)
        again = point_design(memo, point, method, "gpg", 0)
        assert len(calls) == 1 and calls[0][:2] == (eff, bf)
        assert all(a is b for a, b in zip(again, (eff, bf, gains)))
        assert gains == real(eff, bf, point.scenario)

    def test_stages_built_once_per_distinct_input(self, monkeypatch):
        calls = {}

        def counting(name):
            func = getattr(risdm.sim, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return func(*args, **kwargs)

            monkeypatch.setattr(risdm.sim, name, wrapper)

        stages = ("apply_axis", "sweep_point", "build_geometry", "build_channels",
                  "reflections_for", "effective_channels", "receiver_zf", "max_sv_beamformers",
                  "leakage_side", "scalar_gains", "allocate")
        for name in stages:
            counting(name)
        spec = SweepSpec(
            axis="power_dbm", values=(7.0, 27.0), methods=METHODS,
            ris_modes=("gpg", "random", "none"), pa_modes=PA_MODES, trials=2, seed=3,
        )
        records = run_sweep(small_cfg(), spec)
        assert len(records) == 2 * 2 * 3 * 5 * 2
        # random: one effective-channel key per (value, trial); gpg and none: one each
        effective = 1 + 4 + 1
        # gains: both methods on every effective-channel key, at its powers
        gains = 2 * (2 * 1 + 4 + 2 * 1)
        assert calls == {
            "apply_axis": 2, "sweep_point": 2,  # once per axis value
            "build_geometry": 1, "build_channels": 1,
            "reflections_for": effective, "effective_channels": effective,
            # leakage_side: both sides at each of the two budgets
            "receiver_zf": 3, "max_sv_beamformers": effective, "leakage_side": 2 * 2,
            "scalar_gains": gains,
            # epa, es1d, es2d and hicf once per set of gains
            "allocate": 4 * gains,
        }

    def test_steering_vectors_built_once_per_site(self, monkeypatch):
        # two per link, in build_channels; the receivers and max-sv read
        # the stored vectors
        calls = []
        real = risdm.channels.steering_vector

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(risdm.channels, "steering_vector", counting)
        memo, point = StageMemo(), sweep_point(small_cfg())
        for method, ris_mode in product(METHODS, RIS_MODES):
            point_design(memo, point, method, ris_mode, 0)
        assert len(calls) == 2 * len(LINKS) == 28

    def test_all_pa_modes_match_single_mode_sweeps(self):
        cfg = small_cfg()
        base = dict(axis="power_dbm", values=(7.0, 27.0), methods=("max-sv", "leakage"),
                    ris_modes=("gpg", "random"), trials=2, seed=13)

        def rows(pa_modes):
            return emit_csv(run_sweep(cfg, SweepSpec(**base, pa_modes=pa_modes))).splitlines()[1:]

        combined = rows(PA_MODES)
        single = [row for mode in PA_MODES for row in rows((mode,))]
        assert len(combined) == len(single) == 2 * 2 * 2 * 5 * 2
        assert sorted(combined) == sorted(single)


def unstaged_sweep(config, spec):
    """The sweep with every stage recomputed for every unit and nothing shared."""
    records = []
    for (axis_index, value), method, ris_mode, trial in product(
        enumerate(spec.values), spec.methods, spec.ris_modes, range(spec.trials)
    ):
        seed = sub_seed(spec.seed, axis_index, trial)
        scenario = apply_axis(config, spec.axis, value)
        gains = pipeline_gains(scenario, ris_mode=ris_mode, method=method, seed=seed)
        for pa_mode in spec.pa_modes:
            if pa_mode == "fixed":
                b1, b2 = scenario.beta1, scenario.beta2
                rate = ssr(b1, b2, gains)
            else:
                out = allocate(gains, pa_mode, seed=seed)
                b1, b2, rate = out.beta1, out.beta2, out.ssr
            records.append(SweepRecord(float(value), method, ris_mode, pa_mode, b1, b2, rate,
                                       trial, seed))
    records.sort(key=lambda r: (r.axis_value, r.method, r.ris_mode, r.pa_mode, r.trial))
    return records


AXIS_VALUES = {
    "power_dbm": st.floats(-10.0, 40.0),
    "elements_m": st.integers(1, 24),
    "beta": st.floats(0.0, 1.0),
    "distance_ab": st.floats(20.0, 160.0),
}


@st.composite
def staged_cases(draw):
    axis = draw(st.sampled_from(AXES))
    spec = SweepSpec(
        axis=axis,
        values=tuple(sorted(draw(st.sets(AXIS_VALUES[axis], min_size=1, max_size=3)))),
        methods=METHODS,
        ris_modes=tuple(draw(st.lists(st.sampled_from(RIS_MODES), min_size=1, unique=True))),
        pa_modes=PA_MODES,
        trials=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32)),
    )
    return small_cfg(M=draw(st.integers(1, 24))), spec


class TestStageMemo:
    def test_a_raising_compute_stores_nothing(self):
        memo, calls = StageMemo(), []

        def failing():
            calls.append("fail")
            raise RuntimeError("stage failed")

        with pytest.raises(RuntimeError, match="stage failed"):
            memo.get("key", failing)
        assert memo.get("key", lambda: calls.append("ok") or 42) == 42
        assert calls == ["fail", "ok"]

    def test_a_stored_key_never_calls_its_compute_again(self):
        memo, calls = StageMemo(), []
        stored = object()
        assert memo.get(("stage", 1), lambda: calls.append(1) or stored) is stored

        def refused():
            raise AssertionError("a stored key was computed again")

        assert memo.get(("stage", 1), refused) is stored
        assert memo.get(("stage", 1), lambda: calls.append(2)) is stored
        assert calls == [1]


class TestStagedSweep:
    @settings(max_examples=25, deadline=None)
    @given(case=staged_cases())
    def test_csv_equals_unstaged_loop(self, case):
        cfg, spec = case
        want = emit_csv(unstaged_sweep(cfg, spec))
        assert emit_csv(run_sweep(cfg, spec)) == want


class TestCsv:
    def make_records(self):
        cfg = small_cfg()
        spec = SweepSpec(axis="power_dbm", values=(7.0, 27.0), ris_modes=("gpg",))
        return run_sweep(cfg, spec)

    def test_header_and_line_endings(self):
        text = emit_csv(self.make_records())
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert "\r" not in text
        assert text.endswith("\n")

    def test_single_record_two_lines(self):
        records = self.make_records()[:1]
        assert emit_csv(records).count("\n") == 2

    def test_roundtrip(self):
        records = self.make_records()
        reader = csv.DictReader(io.StringIO(emit_csv(records)))
        rows = list(reader)
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert float(row["axis"]) == rec.axis_value
            assert float(row["ssr_bits"]) == pytest.approx(rec.ssr_bits, rel=1e-11)
            assert int(row["trial"]) == rec.trial
            assert row["method"] == rec.method

    def test_twelve_significant_digits(self):
        records = self.make_records()
        line = emit_csv(records).split("\n")[1].split(",")
        digits = line[6].replace("-", "").replace(".", "").replace("e", "").lstrip("0")
        assert len(digits) <= 12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emit_csv([])

    def test_write_failure_mentions_path(self, tmp_path):
        records = self.make_records()
        with pytest.raises(OSError, match="no/such"):
            write_csv(records, str(tmp_path / "no" / "such" / "file.csv"))


def old_emit_csv(records):
    """The per-field renderer that emit_csv's one-format rows replaced."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            f"{r.axis_value:.12g}", r.method, r.ris_mode, r.pa_mode,
            f"{r.beta1:.12g}", f"{r.beta2:.12g}", f"{r.ssr_bits:.12g}",
            str(r.trial), str(r.seed),
        ]))
    return "\n".join(lines) + "\n"


_any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1e-12, 0.1, 1 / 3, 1e22, 1.7976931348623157e308]
)
_csv_floats = _any_float | _any_float.map(np.float64)
_csv_labels = st.sampled_from(METHODS + RIS_MODES + PA_MODES + ("surface",))


def _csv_ints(hi):
    return st.integers(0, hi) | st.integers(0, 2**63 - 1).map(np.int64)


_csv_records = st.builds(
    SweepRecord, _csv_floats, _csv_labels, _csv_labels, _csv_labels,
    _csv_floats, _csv_floats, _csv_floats, _csv_ints(1000), _csv_ints(2**64 - 1),
)


class TestRecordFormat:
    def test_fields_are_csv_columns_in_order(self):
        pairs = list(zip(SweepRecord._fields, CSV_HEADER.split(","), strict=True))
        assert pairs == [
            ("axis_value", "axis"), ("method", "method"), ("ris_mode", "ris_mode"),
            ("pa_mode", "pa_mode"), ("beta1", "beta1"), ("beta2", "beta2"),
            ("ssr_bits", "ssr_bits"), ("trial", "trial"), ("seed", "seed"),
        ]

    def test_record_is_immutable(self):
        record = SweepRecord(1.0, "max-sv", "gpg", "fixed", 0.9, 0.9, 3.0, 0, 5)
        with pytest.raises(AttributeError):
            record.ssr_bits = 4.0
        assert record.ssr_bits == 3.0

    @settings(max_examples=300, deadline=None)
    @given(records=st.lists(_csv_records, min_size=1, max_size=12))
    def test_rows_equal_per_field_renderer(self, records):
        assert emit_csv(records) == old_emit_csv(records)

    def test_sweep_rows_equal_per_field_renderer(self):
        cfg = small_cfg()
        spec = SweepSpec(axis="power_dbm", values=(7.0, 27.0), methods=METHODS,
                         ris_modes=("gpg", "random"), pa_modes=PA_MODES, trials=2, seed=-3)
        records = run_sweep(cfg, spec)
        assert emit_csv(records) == old_emit_csv(records)
        surface = pa_surface(cfg, step=0.1)
        assert emit_csv(surface) == old_emit_csv(surface_records(surface))


def surface_records(surface):
    """The per-cell records of a surface grid, beta1-major."""
    return [
        SweepRecord(b1, surface.method, surface.ris_mode, "surface", b1, b2, float(v), 0,
                    surface.seed)
        for b1, row in zip(surface.betas, surface.ssr) for b2, v in zip(surface.betas, row)
    ]


def reference_surface_records(gains, step, method, ris_mode, seed):
    """One record per grid cell from the scalar objective, as pa_surface once built them."""
    n = round(1 / step)
    grid = [i / n for i in range(n + 1)]
    return [
        SweepRecord(x, method, ris_mode, "surface", x, y, max(0.0, rate_objective(x, y, gains)),
                    0, seed)
        for x, y in product(grid, grid)
    ]


class TestPaSurface:
    def test_grid_maximum_matches_es2d(self):
        cfg = small_cfg()
        surface = pa_surface(cfg, step=0.05)
        assert len(surface) == 21 * 21
        assert surface.ssr.shape == (21, 21)
        best = float(surface.ssr.max())
        gains = pipeline_gains(cfg)
        out = es_2d(gains, step=0.05)
        assert best == out.ssr

    def test_diagonal_matches_1d_search_samples(self):
        cfg = small_cfg()
        surface = pa_surface(cfg, step=0.05)
        gains = pipeline_gains(cfg)
        diag = {b: surface.ssr[i, i] for i, b in enumerate(surface.betas)}
        out = es_1d(gains, step=0.05)
        assert max(diag.values()) == out.ssr

    def test_default_surface_is_the_default_es2d_grid(self):
        cfg = small_cfg()
        surface = pa_surface(cfg)
        out = allocate(pipeline_gains(cfg, seed=cfg.seed), "es2d")
        i, j = divmod(int(np.argmax(surface.ssr)), len(surface.betas))
        assert len(surface) == out.diagnostics["evaluations"]
        assert (surface.betas[i], surface.betas[j], float(surface.ssr[i, j])) == (
            out.beta1, out.beta2, out.ssr)

    @pytest.mark.parametrize("step", [0.5, 0.1, 0.05, 0.01, 0.002])
    @pytest.mark.parametrize("ris_mode", ["gpg", "random", "none"])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("m", [16, 100])
    def test_best_cells_are_the_grid_searches_bit_for_bit(self, m, method, ris_mode, step):
        # the surface scores es2d's grid: its best cell is es2d's, and its
        # diagonal's best cell es1d's, with the same SSR bits and, where
        # that SSR is > 0, the same split (an all-zero surface's first
        # cell is its best)
        cfg = small_cfg(M=m)
        surface = pa_surface(cfg, step=step, method=method, ris_mode=ris_mode)
        gains = pipeline_gains(cfg, ris_mode=ris_mode, method=method, seed=cfg.seed)
        betas, diag = surface.betas, surface.ssr.diagonal()
        for out, (i, j), best in (
            (es_2d(gains, step=step), divmod(int(np.argmax(surface.ssr)), len(betas)),
             surface.ssr.max()),
            (es_1d(gains, step=step), (int(np.argmax(diag)),) * 2, diag.max()),
        ):
            assert float(best).hex() == out.ssr.hex()
            if out.ssr > 0.0:
                assert (betas[i].hex(), betas[j].hex()) == (out.beta1.hex(), out.beta2.hex())

    @pytest.mark.parametrize("step", [-0.1, 0.0, 0.7, float("nan")])
    def test_bad_step_rejected(self, step):
        with pytest.raises(ValueError, match=r"grid step must lie in \(0, 0.5\]"):
            pa_surface(small_cfg(), step=step)

    def test_records_equal_scalar_objective(self):
        cfg = small_cfg()
        surface = pa_surface(cfg, step=0.05)
        gains = pipeline_gains(cfg, seed=cfg.seed)
        assert (surface.method, surface.ris_mode, surface.seed) == ("max-sv", "gpg", cfg.seed)
        assert surface.betas == [i / 20 for i in range(21)]
        rows = [line.split(",") for line in emit_csv(surface).splitlines()[1:]]
        assert [(float(r[4]), float(r[5])) for r in rows] == [
            (i / 20, j / 20) for i in range(21) for j in range(21)
        ]
        assert all(r[0] == r[4] for r in rows)
        for i, b1 in enumerate(surface.betas):
            for j, b2 in enumerate(surface.betas):
                assert surface.ssr[i, j] == max(0.0, rate_objective(b1, b2, gains))

    def test_grid_size_bounded_before_any_work(self, monkeypatch):
        def no_design(*args):
            raise AssertionError("the point design ran")

        monkeypatch.setattr(risdm.sim, "point_design", no_design)
        with pytest.raises(ValueError, match=r"grid step 0\.0001 gives 100020001 records"):
            pa_surface(small_cfg(), step=1e-4)

    @pytest.mark.parametrize("step", [5e-324, 1e-300])
    def test_step_finer_than_the_finest_rejected_before_any_work(self, monkeypatch, step):
        # 1 / 5e-324 overflows; 1e-300 would name a 601-digit record count
        def no_design(*args):
            raise AssertionError("the point design ran")

        monkeypatch.setattr(risdm.sim, "point_design", no_design)
        with pytest.raises(ValueError, match=f"^grid step {step!r} is finer than the finest"):
            pa_surface(small_cfg(), step=step)

    def test_largest_grid_accepted(self):
        surface = pa_surface(small_cfg(), step=1 / (MAX_SURFACE_POINTS - 1))
        assert len(surface) == surface.ssr.size == MAX_SURFACE_POINTS ** 2 == 1002001

    def test_clamp_maps_negative_nan_and_negative_zero_to_zero(self, monkeypatch):
        raw = np.array([[1.5, -2.0, np.nan], [-0.0, 0.0, 5e-324], [np.inf, -np.inf, 0.25]])
        monkeypatch.setattr(risdm.sim, "_objective", lambda b1, b2, g: raw.copy())
        surface = pa_surface(small_cfg(), step=0.5)
        want = [[max(0.0, float(v)) for v in row] for row in raw]
        assert surface.ssr.tolist() == want
        assert not np.signbit(surface.ssr).any()
        assert emit_csv(surface) == old_emit_csv(surface_records(surface))


class TestSurfaceCsv:
    @pytest.mark.parametrize("ris_mode", ["gpg", "random", "none"])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("step", [0.5, 0.3, 0.05])
    def test_bytes_equal_per_cell_records(self, step, method, ris_mode):
        cfg = small_cfg(seed=11)
        gains = pipeline_gains(cfg, ris_mode=ris_mode, method=method, seed=cfg.seed)
        want = old_emit_csv(reference_surface_records(gains, step, method, ris_mode, cfg.seed))
        text = emit_csv(pa_surface(cfg, step=step, method=method, ris_mode=ris_mode))
        assert text == want
        assert text.count("\n") == 1 + (round(1 / step) + 1) ** 2

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e), min_size=8, max_size=8),
        step=st.sampled_from([0.5, 0.3, 0.1, 0.05]),
        method=st.sampled_from(METHODS),
        seed=st.integers(0, 2**31),
    )
    # Eve hears far more than Alice and Bob: R < 0 off the beta = 0 edges
    @example(s=[1e-3, 1e-3, 1e-3, 1e-3, 1e3, 1e3, 1e-3, 1e-3], step=0.1, method="max-sv", seed=1)
    def test_bytes_equal_per_cell_records_on_any_gains(self, s, step, method, seed):
        gains = ScalarGains(*s, 1.0, 1.0, 1.0)
        cfg = small_cfg(seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(risdm.sim, "point_design", lambda *args: (None, None, gains))
            surface = pa_surface(cfg, step=step, method=method, ris_mode="random")
        want = reference_surface_records(gains, step, method, "random", seed)
        assert emit_csv(surface) == old_emit_csv(want)

    def test_surface_is_a_grid_not_records(self):
        surface = pa_surface(small_cfg(), step=0.5)
        assert isinstance(surface, Surface)
        assert len(surface) == 9
        with pytest.raises(TypeError):
            iter(surface)


def per_cell_surface_csv(surface):
    """The per-cell surface renderer that the one-format-per-row renderer
    replaced: each beta1's head plus each beta2's tail filled with one SSR."""
    heads = ["%.12g,%s,%s,surface,%.12g," % (b, surface.method, surface.ris_mode, b)
             for b in surface.betas]
    cells = ["%.12g,%%.12g,0,%s\n" % (b, surface.seed) for b in surface.betas]
    return CSV_HEADER + "\n" + "".join([head + cell % v for head, row in
                                        zip(heads, surface.ssr.tolist())
                                        for cell, v in zip(cells, row)])


def first_difference(text, want):
    """(line number, line, wanted line) of the first line where two CSV
    documents differ, or None; reports a failing million-row comparison
    without diffing the whole documents."""
    if text == want:
        return None
    pairs = zip_longest(text.split("\n"), want.split("\n"))
    return next((i, a, b) for i, (a, b) in enumerate(pairs) if a != b)


# SSR values at the format's edges: overflow to inf, the largest and smallest
# magnitudes, and values whose 12th significant digit rounds (up to a new
# power of ten for 9.9999999999995 and 999999999999.5)
EDGE_SSR = [np.inf, 1e300, 1.7976931348623157e308, 5e-324, 9.9999999999995,
            0.1234567890125, 999999999999.5, 0.0, 2.5]


class TestSurfaceRowRenderer:
    def test_largest_grid_equals_per_cell_renderer(self):
        surface = pa_surface(small_cfg(), step=1 / (MAX_SURFACE_POINTS - 1))
        text = emit_csv(surface)
        assert text.count("\n") == 1 + MAX_SURFACE_POINTS ** 2 == 1002002
        assert first_difference(text, per_cell_surface_csv(surface)) is None

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("step", [0.07, 0.003])
    def test_twelve_digit_betas_equal_per_cell_renderer(self, step, method):
        surface = pa_surface(small_cfg(seed=2**64 - 1), step=step, method=method)
        assert any(len(("%.12g" % b).replace(".", "").lstrip("0")) == 12 for b in surface.betas)
        assert first_difference(emit_csv(surface), per_cell_surface_csv(surface)) is None

    @pytest.mark.parametrize("step", [0.5, 0.3])
    def test_edge_values_equal_per_cell_renderer(self, monkeypatch, step):
        n = round(1 / step) + 1
        raw = np.resize(np.array(EDGE_SSR), (n, n))
        monkeypatch.setattr(risdm.sim, "_objective", lambda b1, b2, g: raw.copy())
        surface = pa_surface(small_cfg(), step=step)
        assert surface.ssr.tolist() == raw.tolist()
        text = emit_csv(surface)
        assert text == per_cell_surface_csv(surface)
        ssr_column = [line.split(",")[6] for line in text.splitlines()[1:]]
        assert ssr_column == ["%.12g" % v for v in raw.ravel().tolist()]
        assert {"inf", "10", "0.123456789012", "1e+12", "4.94065645841e-324"} <= set(ssr_column)
