"""Phase-randomized surrogates: keep the spectrum, drop everything else.

A surrogate redraws the Fourier phases of a series while keeping its
amplitude spectrum, which preserves mean, variance and autocorrelation but
Gaussianizes the value distribution and severs any cross-series phase
alignment. Mapping surrogate pairs therefore gives a per-pair null: the
coupling survives only if it lives in more than the two marginal spectra.
"""

import numpy as np

from couplemap.ensemble import run_surrogate_pair
from couplemap.metrics import measure_all
from couplemap.netmap import map_pair
from couplemap.series import AlignedPair, index_series, standardize
from couplemap.synth import surrogate


def skew_and_excess_kurtosis(values):
    """Population moments: m3 / m2^1.5 and m4 / m2^2 - 3."""
    d = values - values.mean()
    m2, m3, m4 = (np.mean(d**k) for k in (2, 3, 4))
    return m3 / m2**1.5, m4 / m2**2 - 3.0


rng = np.random.default_rng(3)
n = 2000

# heavy-tailed input: surrogate keeps its spectrum but loses the tails
heavy = index_series(rng.standard_t(3, size=n))
gaussianized = surrogate(heavy, seed=11)
print("heavy-tailed series  skew %+.3f  excess kurtosis %+.3f"
      % skew_and_excess_kurtosis(heavy.values))
print("its surrogate        skew %+.3f  excess kurtosis %+.3f"
      % skew_and_excess_kurtosis(gaussianized.values))
amp_in = np.abs(np.fft.rfft(heavy.values))
amp_out = np.abs(np.fft.rfft(gaussianized.values))
print("amplitude spectrum max deviation: %.2e" % np.max(np.abs(amp_out - amp_in)))

# a coupled pair: direct mapping vs the surrogate null
common = rng.normal(0, 1, size=n)
x = standardize(index_series(0.8 * common + 0.4 * rng.normal(0, 1, n)))
y = standardize(index_series(0.8 * common + 0.4 * rng.normal(0, 1, n)))
direct_r = measure_all(map_pair(AlignedPair(x, y), bin_count=40)).deformation_R

null = run_surrogate_pair(x, y, replicas=32, bin_count=40, master_seed=5)
row = null.systems["surrogate"]["deformation_R"]
print(f"\ncoupled pair R        : {direct_r:+.3f}")
print(f"surrogate null R      : {row.mean:+.3f} +/- {row.half_width:.3f} (90% CI)")
print("the pair's R sits far outside its own phase-randomized null"
      if abs(direct_r - row.mean) > 2 * row.half_width
      else "the pair's R is consistent with its phase-randomized null")
