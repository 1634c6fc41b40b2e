"""The hybrid iterative/closed-form power split, stage by stage.

The diagonal (equal-split-factor) secrecy objective is log2 of a ratio of
two quartics, so its stationary points are roots of a monic sextic, or of
a quintic where the gains null its leading term.  One Newton extraction
with synthetic deflation per degree above 4 leaves a quartic that
Ferrari's radical formula finishes; the optimum is the best of the root
candidates and the interval boundaries.
"""

import numpy as np

from risdm import default_config
from risdm.power_allocation import allocate, deflate, es_1d, hicf, newton_root, sextic_coeffs
from risdm.rates import ScalarGains
from risdm.sim import StageMemo, point_design, sweep_point

# a generic healthy link budget (mW-scaled)
g = ScalarGains(s1=2.1, s2=0.6, s3=3.4, s4=0.8, s5=0.9, s6=0.5, s7=1.3, s8=1.0,
                sigma2_a=0.2, sigma2_b=0.25, sigma2_e=0.15)

monic = sextic_coeffs(g)
print("Monic sextic coefficients (alpha1..alpha6):")
print(" ", np.round(monic[1:], 6))

beta_1 = newton_root(monic, 0.5)
print(f"\nNewton from 0.5     -> beta(1) = {beta_1:.8f}  "
      f"(|f| = {abs(np.polyval(monic, beta_1)):.2e})")
quintic = deflate(monic, beta_1)
print("Deflated quintic    ->", np.round(quintic, 6))

out = hicf(g)
print("\nAll six roots recovered by the pipeline:")
for root in out.diagnostics["roots"]:
    print(f"  {root:.6f}")
print("\nCandidate table after the real-in-[0,1] filter "
      "(origin, beta, unclamped objective):")
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
print(f"  stationarity polynomial of degree {len(sextic_coeffs(gs)) - 1}: Newton stages "
      f"{list(best.diagnostics['newton_attempts'])}, then Ferrari")
print("  (the singular-pair design nulls the noise beams at the receivers, so")
print("   s2 = s4 = 0 drops the sextic's leading term, and one Newton stage")
print("   leaves the quartic)")
if best.diagnostics["fallbacks"]:
    print(f"  stages with no root: {best.diagnostics['fallbacks']}")
