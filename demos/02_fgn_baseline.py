"""Sweep the Hurst exponent and watch the deformation ratio rise.

Fractional Gaussian noise mapped against its own lag is the reference
"uncoupled" system. Anti-persistent noise (H < 0.5) jumps between bins, so
the joint mass spreads across the anti-diagonal and R goes negative;
persistent noise (H > 0.5) lingers in nearby bins and pushes R positive.
White noise (H = 0.5) sits near zero.
"""

import tempfile

from couplemap.ensemble import EnsembleConfig, run_fgn_ensemble, write_summary_csv

# a trimmed version of the default battery, small enough to rerun freely
cfg = EnsembleConfig(
    hurst_values=(0.1, 0.3, 0.5, 0.7, 0.9),
    replicas_per_h=16,
    series_length=1000,
    bin_count=30,
    master_seed=7,
)
summary = run_fgn_ensemble(cfg)

print(f"{len(cfg.hurst_values)} Hurst values x {cfg.replicas_per_h} replicas, "
      f"N={cfg.series_length}, B={cfg.bin_count}")
print(f"{'system':>10} {'mean R':>8} {'90% half-width':>15}")
for system, rows in summary.systems.items():
    row = rows["deformation_R"]
    print(f"{system:>10} {row.mean:+8.3f} {row.half_width:15.3f}")

out = tempfile.mkdtemp(prefix="couplemap_demo02_") + "/baseline_summary.csv"
write_summary_csv(summary, out)
print(f"full 21-measure summary written to {out}")
