"""Acceptance suite: one test per criterion, one printed verdict line each.

Absolute secrecy rates are implementation-relative (path-loss constants,
absolute noise power, and several link geometries are invented defaults),
so the suite combines exact dual-path equivalences, root-oracle
agreements, property checks, and qualitative trend reproduction on the
default scenario.  Run with ``pytest tests/test_acceptance.py -s`` to see
the per-criterion lines.
"""

import functools
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import pipeline, random_config, random_gains
from root_oracles import companion_roots
from risdm.beamforming import _leakage_matrices, leakage_side, receiver_zf
from risdm.geometry import build_geometry, default_config
from risdm.power_allocation import (
    allocate,
    es_1d,
    ferrari_roots,
    hicf,
    sextic_coeffs,
)
from risdm.rates import rate_objective, rates_matrix_form, scalar_gains, ssr
from risdm.ris import gpg_phases, leg_phases, synthesis_phase
from risdm.sim import apply_axis


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.time()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {label}")
                raise
            elapsed = time.time() - start
            suffix = f" ({detail})" if detail else ""
            print(f"[PASS] criterion {number}: {label}{suffix} [{elapsed:.1f}s]")
        return run
    return wrap


def matched_error(got, want):
    cost = np.abs(np.asarray(got)[:, None] - np.asarray(want)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


def min_separation(roots):
    roots = np.asarray(roots)
    d = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(d, np.inf)
    return d.min()


def scenario_ssr(cfg, ris_mode, method, seed=0):
    _, _, _, eff, bf = pipeline(cfg, ris_mode=ris_mode, method=method, seed=seed)
    g = scalar_gains(eff, bf, cfg)
    return ssr(cfg.beta1, cfg.beta2, g)


@criterion(1, "dual-form rate equivalence on 100 random scenarios (1e-10)")
def test_criterion_1_dual_form_equivalence():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for i in range(100):
        cfg = random_config(rng)
        method = "max-sv" if i % 2 == 0 else "leakage"
        _, _, _, eff, bf = pipeline(cfg, method=method)
        g = scalar_gains(eff, bf, cfg)
        s_form = max(0.0, rate_objective(cfg.beta1, cfg.beta2, g))
        ra, rb, re = rates_matrix_form(eff, bf, cfg)
        matrix_form = max(0.0, ra + rb - re)
        worst = max(worst, abs(s_form - matrix_form))
        assert abs(s_form - matrix_form) < 1e-10
    assert time.time() - start < 30.0
    return f"worst |diff| = {worst:.2e}"


def diagonal_factors(g):
    """The linear factors L1, L2, L3, L4, L5, L6, Le of the diagonal rate, as
    highest-first numpy arrays: R = log2(L1 L3 Le^2 / (L2 L4 L5 L6))."""
    s1, s2, s3, s4, s5, s6, s7, s8 = g.as_tuple()
    leak, sa, sb, se = s7 + s8, g.sigma2_a, g.sigma2_b, g.sigma2_e
    return [np.array([a - b, b + noise], dtype=float) for a, b, noise in (
        (s1, s2, sa), (0.0, s2, sa), (s3, s4, sb), (0.0, s4, sb),
        (s5, leak, se), (s6, leak, se), (0.0, leak, se))]


@criterion(2, "stationarity polynomial times Le matches N'D - ND' and rate derivative")
def test_criterion_2_stationarity_algebra():
    rng = np.random.default_rng(202)
    worst_rel = 0.0
    worst_diff = 0.0
    stationary_checked = 0
    for _ in range(100):
        g = random_gains(rng)
        l1, l2, l3, l4, l5, l6, le = diagonal_factors(g)
        num = np.polymul(np.polymul(l1, l3), np.polymul(le, le))
        den = np.polymul(np.polymul(l2, l4), np.polymul(l5, l6))
        raw = np.polysub(np.polymul(np.polyder(num), den), np.polymul(num, np.polyder(den)))
        sc = np.array(sextic_coeffs(g))
        # raw = Le lead P: its beta^(deg P + 1) term is Le's slope times lead
        lead = raw[raw.size - sc.size - 1] / le[0]
        for beta in rng.uniform(0.0, 1.0, size=10):
            lhs = lead * np.polyval(le, beta) * np.polyval(sc, beta)
            rhs = np.polyval(raw, beta)
            rel = abs(lhs - rhs) / max(np.polyval(np.abs(raw), beta), 1e-300)
            worst_rel = max(worst_rel, rel)
            assert rel < 1e-9
        roots = np.roots(sc)
        if min_separation(roots) < 5e-2:
            continue  # coalescing roots are not resolvable by any method
        for root in roots:
            if abs(root.imag) < 1e-9 and 1e-4 < root.real < 1 - 1e-4:
                b, h = root.real, 1e-6
                diff = abs(rate_objective(b + h, b + h, g)
                           - rate_objective(b - h, b - h, g)) / (2 * h)
                worst_diff = max(worst_diff, diff)
                assert diff < 1e-4
                stationary_checked += 1
    assert stationary_checked > 20
    return (f"worst identity rel = {worst_rel:.2e}, "
            f"worst |dR| at {stationary_checked} roots = {worst_diff:.2e}")


@criterion(3, "closed-form roots match the companion oracle")
def test_criterion_3_root_oracle_equivalence():
    rng = np.random.default_rng(303)
    worst_quartic = 0.0
    for _ in range(1000):
        a = rng.uniform(-10, 10, size=4)
        err = matched_error(np.array(ferrari_roots(*a)), companion_roots([1.0, *a]))
        worst_quartic = max(worst_quartic, err)
        assert err < 1e-8

    fallbacks = 0
    tested = 0
    worst_sextic = 0.0
    while tested < 100:
        g = random_gains(rng)
        want = companion_roots(sextic_coeffs(g))
        if min_separation(want) < 5e-2:
            continue
        tested += 1
        out = hicf(g)
        if out.diagnostics["fallbacks"]:
            fallbacks += 1
            continue
        err = matched_error(np.array(out.diagnostics["roots"]), want)
        worst_sextic = max(worst_sextic, err)
        assert err < 1e-6
    assert fallbacks < 5
    return (f"worst quartic = {worst_quartic:.2e}, worst sextic = {worst_sextic:.2e}, "
            f"fallbacks = {fallbacks}/100")


@criterion(4, "HICF matches the 1e-5 grid oracle on 100 random scenarios")
def test_criterion_4_hicf_vs_fine_grid():
    rng = np.random.default_rng(404)
    start = time.time()
    worst_beta = 0.0
    worst_ssr = 0.0
    for i in range(100):
        g = random_gains(rng)
        fast = hicf(g)
        fine = es_1d(g, step=1e-5)
        worst_beta = max(worst_beta, abs(fast.beta1 - fine.beta1))
        worst_ssr = max(worst_ssr, abs(fast.ssr - fine.ssr))
        assert abs(fast.ssr - fine.ssr) <= 1e-6
        assert abs(fast.beta1 - fine.beta1) <= 2e-5
    assert time.time() - start < 60.0
    return f"worst |dbeta| = {worst_beta:.2e}, worst |dSSR| = {worst_ssr:.2e}"


class TestCriterion5Trends:
    @criterion(5, "(a) designed surfaces lift SSR >= 1.5x over no-RIS, growing in M")
    def test_a_gain_over_no_ris(self):
        ratios = []
        for m in (100, 500, 1024):
            cfg = default_config(M=m)
            gpg = scenario_ssr(cfg, "gpg", "max-sv")
            none = scenario_ssr(cfg, "none", "max-sv")
            assert none > 0
            ratios.append(gpg / none)
        assert ratios[0] >= 1.5
        assert ratios[0] < ratios[1] < ratios[2]
        return "ratios at M=100/500/1024: " + ", ".join(f"{r:.4f}" for r in ratios)

    @criterion(5, "(b) designed > random-mean > none for both methods")
    def test_b_mode_ordering(self):
        details = []
        cfg = default_config()
        for method in ("max-sv", "leakage"):
            designed = scenario_ssr(cfg, "gpg", method)
            none = scenario_ssr(cfg, "none", method)
            randoms = [scenario_ssr(cfg, "random", method, seed=k) for k in range(50)]
            mean_random = float(np.mean(randoms))
            assert designed > mean_random > none
            details.append(f"{method}: {designed:.2f} > {mean_random:.2f} > {none:.2f}")
        return "; ".join(details)

    @criterion(5, "(c) two surfaces never lose to one")
    def test_c_two_vs_single(self):
        cfg = default_config()
        details = []
        for method in ("max-sv", "leakage"):
            both = scenario_ssr(cfg, "gpg", method)
            single = max(scenario_ssr(cfg, "ris1-only", method),
                         scenario_ssr(cfg, "ris2-only", method))
            assert both >= single
            details.append(f"{method}: {both:.2f} >= {single:.2f}")
        return "; ".join(details)

    @criterion(5, "(d) SSR decreases as the Alice-Bob distance grows 70 -> 200 m")
    def test_d_distance_degradation(self):
        details = []
        for method in ("max-sv", "leakage"):
            values = []
            for d_ab in (70.0, 200.0):
                cfg = apply_axis(default_config(), "distance_ab", d_ab)
                values.append(scenario_ssr(cfg, "gpg", method))
            assert values[1] < values[0]
            details.append(f"{method}: {values[0]:.2f} -> {values[1]:.2f}")
        return "; ".join(details)

    @criterion(5, "(e) HICF strictly beats equal split at M = 128")
    def test_e_hicf_vs_epa(self):
        cfg = default_config(M=128)
        _, _, _, eff, bf = pipeline(cfg, method="max-sv")
        g = scalar_gains(eff, bf, cfg)
        fast = hicf(g)
        equal = allocate(g, "epa")
        assert fast.ssr > equal.ssr
        gain = 100.0 * (fast.ssr - equal.ssr) / equal.ssr
        return f"gain over equal split = {gain:.2f}% at beta = {fast.beta1:.4f}"


@criterion(6, "beamformer properties hold on 50 random geometries")
def test_criterion_6_beamforming_properties():
    rng = np.random.default_rng(606)
    quotient_margin = np.inf
    for i in range(50):
        cfg = random_config(rng, m=int(rng.integers(8, 65)))
        method = "max-sv" if i % 2 == 0 else "leakage"
        geom, channels, refls, eff, bf = pipeline(cfg, method=method)

        for v in (bf.v_at, bf.v_bt, bf.w_a, bf.w_b, bf.v_ar, bf.v_br, bf.v_er):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

        if method == "max-sv":
            assert abs(bf.v_at.conj() @ bf.w_a) < 1e-10
            assert abs(bf.v_bt.conj() @ bf.w_b) < 1e-10
            s_b = np.linalg.svd(eff.h_b, compute_uv=False)
            assert abs(bf.v_br.conj() @ eff.h_b @ bf.v_at) == pytest.approx(
                s_b[0], abs=1e-10)

        # zero-forcing nulls at Eve and at the legitimate receivers
        vecs = receiver_zf(channels, "e")
        steer = [channels.arrival_steering(tx, "e") for tx in ("i1", "i2", "a", "b")]
        for k, v in enumerate(vecs):
            if not v.any():
                continue
            for j, h in enumerate(steer):
                if j != k:
                    assert abs(h.conj() @ v) < 1e-9
        vecs = receiver_zf(channels, "b")
        steer = [channels.arrival_steering(tx, "b") for tx in ("i1", "i2", "a")]
        for k, v in enumerate(vecs):
            if not v.any():
                continue
            for j, h in enumerate(steer):
                if j != k:
                    assert abs(h.conj() @ v) < 1e-9

        # generalized Rayleigh-quotient dominance over 1e4 random probes
        desired, eve = _leakage_matrices(channels, "a")
        noise = cfg.sigma2_e_mw / (cfg.beta1 * cfg.pa_mw)
        a_mat, b_mat = desired, eve + noise * np.eye(cfg.Na)
        v, _ = leakage_side(channels, cfg, "a")
        probes = rng.standard_normal((10_000, cfg.Na)) + 1j * rng.standard_normal((10_000, cfg.Na))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)

        def quot(vecs_):
            num = np.einsum("ij,jk,ik->i", vecs_.conj(), a_mat, vecs_).real
            den = np.einsum("ij,jk,ik->i", vecs_.conj(), b_mat, vecs_).real
            return num / den

        best = quot(v[None, :])[0]
        margin = best - quot(probes).max()
        quotient_margin = min(quotient_margin, margin / abs(best))
        assert best >= quot(probes).max() - 1e-10 * abs(best)
    return f"min relative probe margin = {quotient_margin:.2e}"


@criterion(7, "per-element reflection alignment residual < 1e-12 up to M = 1024")
def test_criterion_7_gpg_optimality():
    rng = np.random.default_rng(707)
    worst = 0.0
    for i in range(50):
        m = int(rng.integers(2, 1025))
        cfg = random_config(rng, m=m)
        geom = build_geometry(cfg)
        for which in (1, 2):
            theta1, theta2 = leg_phases(geom, which, cfg)
            phases, flags = synthesis_phase(theta1, theta2)
            total = np.exp(1j * theta1) + np.exp(1j * theta2)
            residual = np.abs(total) - (np.exp(1j * phases) * total).real
            worst = max(worst, float(residual.max()))
            assert np.all(residual < 1e-12)
            refl = gpg_phases(geom, which, cfg)
            assert np.all(refl.amplitudes == 1.0)
    return f"worst residual = {worst:.2e}"


@criterion(8, "same seed gives byte-identical sweep CSV")
def test_criterion_8_determinism(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(default_config(M=16).to_json())
    args = [
        sys.executable, "-m", "risdm", "sweep", "--config", str(cfg_path),
        "--axis", "power_dbm", "--values", "7,17,27",
        "--methods", "max-sv,leakage", "--ris", "gpg,random,none",
        "--trials", "3", "--seed", "42",
    ]
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run([*args, "--out", str(out)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    return f"{len(outputs[0])} bytes identical"
