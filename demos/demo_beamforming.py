"""Beamformer construction for both transmit designs.

The singular-pair design matched to the realized end-to-end channel vs.
the leakage-ratio design built from the link geometry alone, plus the
zero-forcing path separation at every receiver.
"""

import numpy as np

from risdm import build_channels, build_geometry, default_config
from risdm.beamforming import ZF_BRANCHES, receiver_zf, zf_mrc
from risdm.rates import rates_matrix_form, ssr
from risdm.sim import StageMemo, point_design, sweep_point

cfg = default_config()
channels = build_channels(build_geometry(cfg), cfg)
memo, point = StageMemo(), sweep_point(cfg)

for method in ("max-sv", "leakage"):
    eff, bf, g = point_design(memo, point, method, "gpg", 0)
    ra, rb, re = rates_matrix_form(eff, bf, cfg)
    print(f"=== {method} ===")
    norms = [np.linalg.norm(v) for v in (bf.v_at, bf.v_bt, bf.w_a, bf.w_b,
                                         bf.v_ar, bf.v_br, bf.v_er)]
    print(f"  unit norms: max deviation = {max(abs(n - 1) for n in norms):.2e}")
    print(f"  message/noise orthogonality at Alice: |v_at^H w_a| = "
          f"{abs(bf.v_at.conj() @ bf.w_a):.2e}")
    print(f"  rates: R_a = {ra:.3f}, R_b = {rb:.3f}, R_e = {re:.3f}  ->  "
          f"SSR = {ssr(cfg.beta1, cfg.beta2, g):.3f} bits/s/Hz")
    print(f"  link budget: s3 (message at Bob) = {g.s3:.3e} mW, "
          f"s4 (noise at Bob) = {g.s4:.3e} mW")
    print(f"               s5 (Alice leak to Eve) = {g.s5:.3e} mW, "
          f"s7 (noise at Eve) = {g.s7:.3e} mW")

print("\nEve's four-branch zero-forcing separation (max-sv design):")
eff, bf, _ = point_design(memo, point, "max-sv", "gpg", 0)
zf = receiver_zf(channels, "e")
weights = zf_mrc(zf, eff, "e", bf.v_at, bf.v_bt, cfg)[1]
steer = [channels.arrival_steering(tx, "e") for tx in ZF_BRANCHES["e"]]
names = ("surface-1", "surface-2", "Alice", "Bob")
for i, (v, w, name) in enumerate(zip(zf, weights, names)):
    nulls = max(abs(steer[j].conj() @ v) for j in range(4) if j != i)
    print(f"  branch {name:>9}: |weight| = {abs(w):.3f}, "
          f"worst residual toward nulled arrivals = {nulls:.2e}")
