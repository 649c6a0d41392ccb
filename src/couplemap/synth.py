"""Fractional Gaussian noise and Fourier surrogates.

fGn synthesis uses the Davies-Harte circulant embedding of the
autocovariance (exact spectral method), whose eigenvalues are non-negative
for every Hurst exponent and length (Craigmile 2003), so every draw takes
the same O(N log N) path. Draws are made in stacks (fgn_stacks): one
embedding per (H, N), one batched FFT and one row-wise standardization for
as many seeds as keep the complex spectrum within the 512 KB per-array
budget (series.stack_size; 8 rows at N = 2000). The spectrum and one seed's
normals are work arrays that every stack of a call reuses, and the FFT
runs in place, so later stacks take no fresh pages. generate_fgn is the
one-seed stack, and each row equals that seed's generate_fgn draw bit for
bit. Surrogates randomize the phases of the Fourier transform while
keeping every amplitude bin, so the linear structure survives and the
distribution Gaussianizes. They too are drawn in stacks (surrogate_stacks:
one forward FFT per input, one batched inverse FFT per stack), and
surrogate is the one-seed stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthTooShort
from .series import (
    KIND_STANDARDIZED,
    TimeSeries,
    check_values,
    index_series,
    stack_size,
    standardized_values,
)

_MAX_SEED = 2**64


def check_seed(seed: int) -> int:
    """seed as an int, if it is an integer in [0, 2**64); TypeError or
    ValueError otherwise."""
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
        _check_shape(self.hurst, self.length)
        check_seed(self.seed)


def _check_shape(hurst: float, length: int) -> None:
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if length < 16:
        raise ValueError(f"length must be at least 16, got {length}")


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


def _circulant_fgn(root: np.ndarray, seeds, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Exact draws of length n, one row per seed, via circulant embedding.

    root holds the square roots of the embedding's eigenvalues 0..n. y (at
    least one row of 2n complex cells per seed) and z (2n float64 cells) are
    work arrays that every call overwrites; the draws are a new array.
    """
    n = len(root) - 1
    y = y[: len(seeds)]
    for row, seed in zip(y, seeds):
        # per seed, 2n normals: n + 1 real parts, then n - 1 imaginary parts,
        # the stream of drawing the two parts one after the other
        np.random.default_rng(seed).standard_normal(out=z)
        # Hermitian complex-Gaussian spectrum, E|y_k|^2 = eig_k and
        # y_{2n-k} = conj(y_k), written through a float64 view. NumPy divides
        # a complex number by a real one as a product with its reciprocal, so
        # scaling the parts gives the bits of the complex arithmetic.
        parts = row.view(np.float64)  # re y_0, im y_0, re y_1, im y_1, ...
        np.multiply(root, z[: n + 1], out=parts[: 2 * n + 2 : 2])
        np.multiply(root[1:n], z[n + 1 :], out=parts[3 : 2 * n : 2])
        parts[1] = parts[2 * n + 1] = 0.0
        parts[2 : 2 * n] *= 1.0 / math.sqrt(2.0)
        # one row at a time, as NumPy copies a source that may overlap out=
        np.conjugate(row[n - 1 : 0 : -1], out=row[n + 1 :])
    np.fft.fft(y, out=y)
    return y[:, :n].real * (1.0 / math.sqrt(2 * n))


def fgn_stacks(hurst: float, length: int, seeds):
    """Standardized fGn draws for seeds, yielded as (k, length) stacks.

    Consecutive stacks of k seeds share one embedding and one pair of work
    arrays, which live as long as the call; row i is the draw of
    generate_fgn(FgnSpec(hurst, length, seed_i)), and every row passes the
    standardized-series checks (finite, mean 0 and std 1 within 1e-9). No
    yielded stack shares memory with the work arrays.
    """
    _check_shape(hurst, length)
    seeds = [check_seed(seed) for seed in seeds]
    acov = fgn_autocovariance(hurst, length)
    root = np.sqrt(np.clip(_embedding_eigenvalues(acov), 0.0, None))
    size = stack_size(4 * length)  # the complex spectrum of 2N per seed
    y = np.empty((min(size, len(seeds)), 2 * length), dtype=np.complex128)
    z = np.empty(2 * length)
    for start in range(0, len(seeds), size):
        draws = _circulant_fgn(root, seeds[start : start + size], y, z)
        values = standardized_values(draws)
        check_values(values, KIND_STANDARDIZED)
        yield values


def generate_fgn(spec: FgnSpec) -> TimeSeries:
    """Draw one fGn realization; output is standardized, timestamps 0..N-1."""
    (values,) = fgn_stacks(spec.hurst, spec.length, [spec.seed])
    return index_series(values[0], kind=KIND_STANDARDIZED)


def _surrogate_rows(s: TimeSeries, coeffs: np.ndarray, amplitude: np.ndarray, seeds):
    """irfft of coeffs with bins 1..len(amplitude) set to amplitude times
    each seed's uniform phases, one checked row per seed; the spectrum and
    other temporaries die on return."""
    hi = len(amplitude) + 1
    spectrum = np.empty((len(seeds), len(coeffs)), dtype=np.complex128)
    spectrum[:] = coeffs
    phases = spectrum[:, 1:hi]
    for row, seed in zip(phases, seeds):
        eta = np.random.default_rng(seed).uniform(-math.pi, math.pi, size=hi - 1)
        np.multiply(1j, eta, out=row)
    # amplitudes near the float limit can overflow; check_values refuses
    # the non-finite rows that result, so NumPy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(phases, out=phases)
        phases *= amplitude
        values = np.fft.irfft(spectrum, n=len(s))
    check_values(values, s.kind)
    return values


def surrogate_stacks(s: TimeSeries, seeds):
    """Phase-randomized copies of s for seeds, yielded as (k, len(s)) stacks.

    The input's forward transform and amplitudes are taken once, and each
    stack takes one batched inverse transform: np.fft.irfft sets up its
    plan on every call, and at a prime N such as 2447 that Bluestein set-up
    costs more than transforming one row. Row i is the values of
    surrogate(s, seed_i), bit for bit, and every row passes the checks of
    s.kind. A stack holds as many rows as keep their working set, about 4N
    float64 cells a row (complex half spectrum, values and the check's
    temporary), within the per-array budget (series.stack_size; 6 rows at
    N = 2447). The generator keeps no reference to a stack it has yielded.
    """
    seeds = [check_seed(seed) for seed in seeds]
    n = len(s)
    if n < 4:
        raise LengthTooShort(f"surrogate needs at least 4 points, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # as in _surrogate_rows
        coeffs = np.fft.rfft(s.values)
    hi = len(coeffs) - 1 if n % 2 == 0 else len(coeffs)
    amplitude = np.abs(coeffs[1:hi])
    size = stack_size(4 * n)
    for start in range(0, len(seeds), size):
        yield _surrogate_rows(s, coeffs, amplitude, seeds[start : start + size])


def surrogate(s: TimeSeries, seed: int) -> TimeSeries:
    """Phase-randomized copy preserving the full amplitude spectrum.

    The DC bin and, for even length, the Nyquist bin are untouched, so the
    output is real with the input's exact mean and population variance. The
    remaining phases are i.i.d. uniform on (-pi, pi]; Hermitian symmetry
    comes from working on the half spectrum. This is the one-seed stack of
    surrogate_stacks.
    """
    (values,) = surrogate_stacks(s, [seed])
    return TimeSeries(s.timestamps.copy(), values[0], kind=s.kind)
