"""Reproduce the comparative experiments as CSV files.

Four sweeps: secrecy rate vs. transmit power, vs. surface size, vs. the
Alice-Bob distance, and the power-split surface.  Output lands in
``demo_output/`` next to this script; every run with the same seed is
byte-identical.
"""

import pathlib

import numpy as np

from risdm import default_config, pa_surface, run_sweep, write_csv
from risdm.sim import SweepSpec

out_dir = pathlib.Path(__file__).resolve().parent / "demo_output"
out_dir.mkdir(exist_ok=True)
cfg = default_config()


def summarize(records, group=("method", "ris_mode")):
    rows = {}
    for r in records:
        rows.setdefault(tuple(getattr(r, f) for f in group), []).append(r.ssr_bits)
    return rows


print("1) SSR vs transmit power (designed surfaces vs none), both methods")
spec = SweepSpec(axis="power_dbm", values=(7.0, 12.0, 17.0, 22.0, 27.0),
                 methods=("max-sv", "leakage"), ris_modes=("gpg", "none"), seed=1)
records = run_sweep(cfg, spec)
write_csv(records, out_dir / "ssr_vs_power.csv")
for key, vals in sorted(summarize(records).items()):
    print(f"   {key[0]:>8} | {key[1]:>5}: " + "  ".join(f"{v:7.3f}" for v in vals))

print("\n2) SSR vs surface size (designed vs 10-trial random mean vs none)")
spec = SweepSpec(axis="elements_m", values=(16, 64, 100, 256, 512),
                 methods=("max-sv",), ris_modes=("gpg", "random", "none"),
                 trials=10, seed=2)
records = run_sweep(cfg, spec)
write_csv(records, out_dir / "ssr_vs_elements.csv")
for mode in ("gpg", "random", "none"):
    per_value = {}
    for r in records:
        if r.ris_mode == mode:
            per_value.setdefault(r.axis_value, []).append(r.ssr_bits)
    means = [np.mean(per_value[v]) for v in sorted(per_value)]
    print(f"   {mode:>7}: " + "  ".join(f"{v:7.3f}" for v in means))

print("\n3) SSR vs Alice-Bob distance (designed surfaces)")
spec = SweepSpec(axis="distance_ab", values=(70.0, 100.0, 140.0, 200.0),
                 methods=("max-sv", "leakage"), seed=3)
records = run_sweep(cfg, spec)
write_csv(records, out_dir / "ssr_vs_distance.csv")
for key, vals in sorted(summarize(records, group=("method",)).items()):
    print(f"   {key[0]:>8}: " + "  ".join(f"{v:7.3f}" for v in vals))

print("\n4) power-split surface (0.02 grid) and its ridge")
surface = pa_surface(cfg, step=0.02)
write_csv(surface, out_dir / "pa_surface.csv")
# the first maximum in beta1-major order, the CSV's row order
i, j = np.unravel_index(np.argmax(surface.ssr), surface.ssr.shape)
print(f"   grid maximum: SSR = {surface.ssr[i, j]:.4f} at "
      f"(beta1, beta2) = ({surface.betas[i]:.2f}, {surface.betas[j]:.2f})")
print(f"\nwrote 4 CSV files to {out_dir}")
