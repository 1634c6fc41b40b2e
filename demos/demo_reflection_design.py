"""Reflection-phase synthesis: the parallelogram criterion at work.

Each surface element sees two cascaded paths (toward Bob and toward
Alice) whose phasors it must serve simultaneously.  The synthesized phase
rotates their vector sum onto the positive real axis, which on a planar
layout aligns both legs exactly.  Random phases scatter the reflected
power; switched-off surfaces leave only the direct path.
"""

import numpy as np

from risdm import build_geometry, default_config
from risdm.rates import ssr
from risdm.ris import leg_phases, synthesis_phase
from risdm.sim import StageMemo, point_design, sweep_point

cfg = default_config()
geom = build_geometry(cfg)
memo, point = StageMemo(), sweep_point(cfg)

theta1, theta2 = leg_phases(geom, 1, cfg)
print("Surface-1 leg phases (first 5 elements):")
print("  toward Bob  :", np.round(theta1[:5], 4))
print("  toward Alice:", np.round(theta2[:5], 4))
print("  max |difference| over all elements:", np.abs(theta2 - theta1).max())
print("  (the propagation-direction angle convention makes the legs coincide,")
print("   so one phase profile serves both directions exactly)\n")

phases, flagged = synthesis_phase(theta1, theta2)
aligned = np.exp(1j * phases) * (np.exp(1j * theta1) + np.exp(1j * theta2))
print(f"Alignment: min Re = {aligned.real.min():.6f}, "
      f"max |Im| = {np.abs(aligned.imag).max():.2e}, flagged elements: {flagged.sum()}")

print("\nSecrecy sum rate by reflection mode (both beamforming methods):")
print(f"{'mode':>12} {'max-sv':>10} {'leakage':>10}")
for mode in ("gpg", "ris1-only", "ris2-only", "none"):
    row = []
    for method in ("max-sv", "leakage"):
        _, _, g = point_design(memo, point, method, mode, 0)
        row.append(ssr(cfg.beta1, cfg.beta2, g))
    print(f"{mode:>12} {row[0]:10.3f} {row[1]:10.3f}")

trials = 20
means = []
for method in ("max-sv", "leakage"):
    values = []
    for k in range(trials):
        _, _, g = point_design(memo, point, method, "random", k)
        values.append(ssr(cfg.beta1, cfg.beta2, g))
    means.append(np.mean(values))
print(f"{'random(mean)':>12} {means[0]:10.3f} {means[1]:10.3f}   ({trials} seeds)")
