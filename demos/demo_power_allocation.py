"""The hybrid iterative/closed-form power split, stage by stage.

The diagonal (equal-split-factor) secrecy objective is log2 of a ratio of
two quartics, N / D, so its stationary points are roots of the sextic
N'D - ND'.  That sextic always holds Eve's shared denominator Le as a
factor, whose root lies above 1; divided out, a monic quintic is left, or
a quartic where the gains null its leading term.  One Newton extraction
with synthetic deflation leaves a quartic that Ferrari's radical formula
finishes; the optimum is the best of the refined root candidates and the
interval boundaries.
"""

import numpy as np

from risdm import default_config
from risdm.power_allocation import _newton_stage, allocate, es_1d, hicf, sextic_coeffs
from risdm.rates import ScalarGains
from risdm.sim import StageMemo, point_design, sweep_point

# a generic healthy link budget (mW-scaled)
g = ScalarGains(s1=2.1, s2=0.6, s3=3.4, s4=0.8, s5=0.9, s6=0.5, s7=1.3, s8=1.0,
                sigma2_a=0.2, sigma2_b=0.25, sigma2_e=0.15)

monic = sextic_coeffs(g)
print("Monic quintic coefficients (alpha1..alpha5):")
print(" ", np.round(monic[1:], 6))

beta_1, quartic, tried = _newton_stage(monic)
print(f"\nNewton, start {tried} of 9 -> beta(1) = {beta_1:.8f}  "
      f"(|f| = {abs(np.polyval(monic, beta_1)):.2e})")
print("Deflated quartic      ->", np.round(quartic, 6))

out = hicf(g)
print("\nAll five roots recovered by the pipeline:")
for root in out.diagnostics["roots"]:
    print(f"  {root:.6f}")
print("\nCandidates: the real part of every root in [0, 1], the boundaries, and a\n"
      "refined point where it scores higher (origin, beta, unclamped objective):")
for cand in out.candidates:
    marker = " <- chosen" if cand.beta == out.beta1 else ""
    print(f"  {cand.origin:>9} {cand.beta:10.6f} {cand.objective:12.6f}{marker}")

print(f"\nhicf      : beta = {out.beta1:.6f}, SSR = {out.ssr:.6f}")
for method in ("es1d", "es2d", "epa"):  # the grids at steps 1e-3 and 1e-2
    o = allocate(g, method)
    print(f"{method:<10}: beta = ({o.beta1:.4f}, {o.beta2:.4f}), SSR = {o.ssr:.6f}")

fine = es_1d(g, step=1e-5)
print(f"\nAgainst the 1e-5 grid oracle: |dbeta| = {abs(out.beta1 - fine.beta1):.2e}, "
      f"|dSSR| = {abs(out.ssr - fine.ssr):.2e}")

# the same machinery on a full scenario (surfaces and beamformers designed first)
cfg = default_config(M=128)
_, _, gs = point_design(StageMemo(), sweep_point(cfg), "max-sv", "gpg", 0)
best = hicf(gs)
equal = allocate(gs, "epa")
print(f"\nFull scenario at M = {cfg.M} (max-sv + designed surfaces):")
print(f"  optimized split beta = {best.beta1:.4f}: SSR = {best.ssr:.4f}")
print(f"  equal split          : SSR = {equal.ssr:.4f}  "
      f"({100 * (best.ssr - equal.ssr) / equal.ssr:.1f}% gain)")
print(f"  stationarity polynomial of degree {best.diagnostics['degree']}: Newton stages "
      f"{list(best.diagnostics['newton_attempts'])}, then Ferrari")
print("  (the singular-pair design nulls the noise beams at the receivers, so")
print("   s2 = s4 = 0 drops the quintic's leading term, and Ferrari solves")
print("   the quartic with no Newton stage)")
if best.diagnostics["fallbacks"]:
    print(f"  stages with no root: {best.diagnostics['fallbacks']}")
