"""Fractional Gaussian noise, Fourier surrogates, Hurst estimation.

fGn synthesis uses the Davies-Harte circulant embedding of the
autocovariance (exact spectral method), whose eigenvalues are non-negative
for every Hurst exponent and length (Craigmile 2003), so every draw takes
the same O(N log N) path. Surrogates randomize the phases of the Fourier
transform while keeping every amplitude bin, so the linear structure
survives and the distribution Gaussianizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthTooShort
from .series import KIND_RAW, TimeSeries, index_series, standardize

_MAX_SEED = 2**64
_HURST_BLOCK_SIZES = (8, 16, 32, 64, 128)
_MIN_HURST_LENGTH = 2 * _HURST_BLOCK_SIZES[-1]


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
    return int(seed)


@dataclass(frozen=True)
class FgnSpec:
    """One fractional-Gaussian-noise draw: exponent, length and seed."""

    hurst: float
    length: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")
        if self.length < 16:
            raise ValueError(f"length must be at least 16, got {self.length}")
        _check_seed(self.seed)


def fgn_autocovariance(hurst: float, max_lag: int) -> np.ndarray:
    """Theoretical autocovariance gamma(0..max_lag) of unit-variance fGn."""
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    k = np.arange(max_lag + 1, dtype=np.float64)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** h2 - 2.0 * np.abs(k) ** h2 + np.abs(k - 1) ** h2)


def _embedding_eigenvalues(acov: np.ndarray) -> np.ndarray:
    """Eigenvalues 0..n of the 2n-circulant with first row
    [gamma(0)..gamma(n-1), gamma(n), gamma(n-1)..gamma(1)], from gamma(0..n).
    """
    return np.fft.rfft(np.concatenate([acov, acov[-2:0:-1]])).real


def _circulant_fgn(acov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact draw of length n via circulant embedding, from gamma(0..n)."""
    n = len(acov) - 1
    m = 2 * n
    eig = np.clip(_embedding_eigenvalues(acov), 0.0, None)

    # Hermitian complex-Gaussian spectrum: E|y_k|^2 = eig_k, y_{m-k} = conj(y_k).
    zr = rng.standard_normal(n + 1)
    zi = rng.standard_normal(n - 1)
    y = np.empty(m, dtype=np.complex128)
    y[0] = math.sqrt(eig[0]) * zr[0]
    y[n] = math.sqrt(eig[n]) * zr[n]
    y[1:n] = np.sqrt(eig[1:n]) * (zr[1:n] + 1j * zi) / math.sqrt(2.0)
    y[n + 1 :] = np.conj(y[1:n][::-1])
    return (np.fft.fft(y) / math.sqrt(m))[:n].real


def generate_fgn(spec: FgnSpec) -> TimeSeries:
    """Draw one fGn realization; output is standardized, timestamps 0..N-1."""
    acov = fgn_autocovariance(spec.hurst, spec.length)
    values = _circulant_fgn(acov, np.random.default_rng(spec.seed))
    return standardize(index_series(values, kind=KIND_RAW))


def surrogate(s: TimeSeries, seed: int) -> TimeSeries:
    """Phase-randomized copy preserving the full amplitude spectrum.

    The DC bin and, for even length, the Nyquist bin are untouched, so the
    output is real with the input's exact mean and population variance. The
    remaining phases are i.i.d. uniform on (-pi, pi]; Hermitian symmetry
    comes from working on the half spectrum.
    """
    _check_seed(seed)
    n = len(s)
    if n < 4:
        raise LengthTooShort(f"surrogate needs at least 4 points, got {n}")
    coeffs = np.fft.rfft(s.values)
    hi = len(coeffs) - 1 if n % 2 == 0 else len(coeffs)
    rng = np.random.default_rng(seed)
    eta = rng.uniform(-math.pi, math.pi, size=hi - 1)
    coeffs[1:hi] = np.abs(coeffs[1:hi]) * np.exp(1j * eta)
    values = np.fft.irfft(coeffs, n=n)
    return TimeSeries(s.timestamps.copy(), values, kind=s.kind)


def estimate_hurst(s: TimeSeries) -> float:
    """Aggregated-variance Hurst estimate.

    Splits the series into blocks of size m in {8,16,32,64,128}, regresses
    log Var(block means) on log m, and returns 1 + slope/2. A validation
    tool for generate_fgn, not part of the mapping pipeline.
    """
    n = len(s)
    if n < _MIN_HURST_LENGTH:
        raise LengthTooShort(
            f"hurst estimation needs at least {_MIN_HURST_LENGTH} points, got {n}"
        )
    log_var = []
    for m in _HURST_BLOCK_SIZES:
        blocks = n // m
        means = s.values[: blocks * m].reshape(blocks, m).mean(axis=1)
        log_var.append(math.log(means.var(ddof=1)))
    slope = np.polyfit(np.log(_HURST_BLOCK_SIZES), log_var, 1)[0]
    return float(1.0 + slope / 2.0)
