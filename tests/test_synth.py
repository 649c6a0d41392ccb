"""Noise generation, surrogates and Hurst estimation."""

import math

import numpy as np
import pytest

import oracles

from couplemap import LengthTooShort, surrogate
from couplemap.series import (
    KIND_STANDARDIZED,
    TimeSeries,
    index_series,
    standardize,
    standardized_values,
)
from couplemap.synth import (
    FgnSpec,
    _circulant_fgn,
    _embedding_eigenvalues,
    fgn_autocovariance,
    fgn_stacks,
    generate_fgn,
    surrogate_stacks,
)


def one_draw(hurst: float, n: int, seed: int) -> np.ndarray:
    """Reference draw: one embedding, FFT and standardization per seed."""
    eig = np.clip(_embedding_eigenvalues(fgn_autocovariance(hurst, n)), 0.0, None)
    v = oracles.oracle_circulant_fgn(eig, [seed])[0]
    v = (v - v.mean()) / v.std()
    v -= v.mean()
    return v


def one_surrogate(s: TimeSeries, seed: int) -> np.ndarray:
    """Reference surrogate: one forward and one inverse FFT per seed."""
    n = len(s)
    coeffs = np.fft.rfft(s.values)
    hi = len(coeffs) - 1 if n % 2 == 0 else len(coeffs)
    eta = np.random.default_rng(seed).uniform(-math.pi, math.pi, size=hi - 1)
    coeffs[1:hi] = np.abs(coeffs[1:hi]) * np.exp(1j * eta)
    return np.fft.irfft(coeffs, n=n)


def sample_acf(values: np.ndarray, lag: int) -> float:
    v = values - values.mean()
    return float((v[:-lag] * v[lag:]).sum() / (v * v).sum())


class TestFgnSpec:
    def test_validation(self):
        FgnSpec(0.5, 16, 0)
        with pytest.raises(ValueError):
            FgnSpec(0.0, 100, 0)
        with pytest.raises(ValueError):
            FgnSpec(1.0, 100, 0)
        with pytest.raises(ValueError):
            FgnSpec(0.5, 15, 0)
        with pytest.raises(ValueError):
            FgnSpec(0.5, 100, -1)
        with pytest.raises(ValueError):
            FgnSpec(0.5, 100, 2**64)
        with pytest.raises(TypeError):
            FgnSpec(0.5, 100, 1.5)


class TestAutocovariance:
    def test_white_noise_is_delta(self):
        acov = fgn_autocovariance(0.5, 5)
        assert acov[0] == 1.0
        assert np.allclose(acov[1:], 0.0, atol=1e-15)

    def test_persistent_lag_one(self):
        # gamma(1) = (2^{2H} - 2) / 2
        acov = fgn_autocovariance(0.9, 1)
        assert acov[1] == pytest.approx((2**1.8 - 2) / 2)
        assert acov[1] == pytest.approx(0.7411, abs=5e-4)

    def test_antipersistent_negative_lag_one(self):
        assert fgn_autocovariance(0.3, 1)[1] < 0

    def test_hurst_range_checked(self):
        with pytest.raises(ValueError):
            fgn_autocovariance(1.2, 4)


class TestGenerateFgn:
    def test_deterministic_and_standardized(self):
        a = generate_fgn(FgnSpec(0.7, 512, 42))
        b = generate_fgn(FgnSpec(0.7, 512, 42))
        assert np.array_equal(a.values, b.values)
        assert a.kind == KIND_STANDARDIZED
        assert len(a) == 512
        assert list(a.timestamps[:3]) == [0, 1, 2]
        assert abs(a.values.mean()) < 1e-12
        assert abs(a.values.std() - 1.0) < 1e-12

    # at N = 2000 a stack holds 8 draws, so 9 seeds take two stacks
    @pytest.mark.parametrize("count, sizes", [(1, [1]), (8, [8]), (9, [8, 1])])
    @pytest.mark.parametrize("hurst", [0.1, 0.5, 0.99])
    def test_stacked_draws_equal_one_by_one(self, hurst, count, sizes):
        seeds = [2**63 + 977 * r for r in range(count)]
        stacks = list(fgn_stacks(hurst, 2000, seeds))
        assert [len(stack) for stack in stacks] == sizes
        for row, seed in zip(np.concatenate(stacks), seeds):
            assert row.tobytes() == one_draw(hurst, 2000, seed).tobytes()
            assert row.tobytes() == generate_fgn(FgnSpec(hurst, 2000, seed)).values.tobytes()

    # at N = 2000 and 2001 a stack holds 8 draws, so 9 and 17 seeds leave a
    # last stack of one; below that every count fits in one stack
    @pytest.mark.parametrize("n", [16, 17, 100, 2000, 2001])
    @pytest.mark.parametrize("hurst", [0.05, 0.3, 0.5, 0.7, 0.95, 0.99])
    def test_draws_equal_complex_temporary_formula(self, hurst, n):
        eig = np.clip(_embedding_eigenvalues(fgn_autocovariance(hurst, n)), 0.0, None)
        for count in (1, 3, 8, 9, 17):
            seeds = [2**63 + 977 * r + count for r in range(count)]
            expected = standardized_values(oracles.oracle_circulant_fgn(eig, seeds))
            stacks, copies = [], []
            for stack in fgn_stacks(hurst, n, seeds):
                stacks.append(stack)
                copies.append(stack.copy())
            assert np.concatenate(copies).tobytes() == expected.tobytes(), count
            # drawing later stacks must leave every yielded stack as it was
            for stack, copy in zip(stacks, copies):
                assert stack.tobytes() == copy.tobytes(), count

    def test_stacked_draws_checked(self):
        with pytest.raises(ValueError):
            next(fgn_stacks(0.5, 2000, [2**64]))
        with pytest.raises(ValueError):
            next(fgn_stacks(1.0, 2000, [1]))
        with pytest.raises(ValueError):
            next(fgn_stacks(0.5, 8, [1]))

    def test_distinct_seeds_differ(self):
        a = generate_fgn(FgnSpec(0.7, 256, 1))
        b = generate_fgn(FgnSpec(0.7, 256, 2))
        assert not np.array_equal(a.values, b.values)

    def test_white_noise_uncorrelated(self):
        s = generate_fgn(FgnSpec(0.5, 4096, 7))
        assert abs(sample_acf(s.values, 1)) <= 2.0 / math.sqrt(4096)

    def test_persistent_lag_one_autocorrelation(self):
        # theory gives 0.7411 at H=0.9; the sample ACF of strongly
        # persistent noise is biased low at finite N, so allow for that
        acc = [
            sample_acf(generate_fgn(FgnSpec(0.9, 4096, seed)).values, 1)
            for seed in range(20)
        ]
        assert 0.60 <= np.mean(acc) <= 0.78

    def test_pooled_autocovariance_matches_theory(self):
        # 50 pooled realizations, lags 1..5, three exponents
        n = 4096
        for h in (0.3, 0.5, 0.7):
            theory = fgn_autocovariance(h, 5)
            pooled = np.zeros(5)
            for seed in range(50):
                v = generate_fgn(FgnSpec(h, n, seed)).values
                for k in range(1, 6):
                    pooled[k - 1] += (v[:-k] * v[k:]).sum() / (n - k)
            pooled /= 50
            assert np.all(np.abs(pooled - theory[1:]) <= 0.05), h

    def test_high_hurst_lag_one_autocorrelation(self):
        # strongly persistent noise at the battery's length. Removing each
        # draw's own mean lowers the pooled lag-1 autocorrelation from
        # rho1 = 2^(2H-1) - 1 to (rho1 - V) / (1 - V), V = N^(2H-2). The
        # 32-draw estimate spreads about 0.008 over disjoint seed blocks
        n, draws = 2000, 32
        for h in (0.95, 0.99):
            num = den = 0.0
            for seed in range(draws):
                v = generate_fgn(FgnSpec(h, n, seed)).values
                v = v - v.mean()
                num += float(v[:-1] @ v[1:])
                den += float(v @ v)
            rho1 = 2.0 ** (2 * h - 1) - 1.0
            var_mean = n ** (2 * h - 2)
            expected = (rho1 - var_mean) / (1.0 - var_mean)
            assert abs(num / den - expected) <= 0.025, h

    def test_embedding_eigenvalues_non_negative(self):
        # Davies-Harte embedding of fGn is non-negative definite for every
        # H and N, so generate_fgn never needs another sampler
        for h in np.arange(1, 100) / 100:
            for n in (16, 17, 31, 64, 100, 257, 1000, 2000, 2001, 5000, 20000):
                eig = _embedding_eigenvalues(fgn_autocovariance(h, n))
                assert len(eig) == n + 1
                assert eig.min() >= 0.0, (h, n)

    def test_circulant_matches_requested_length(self):
        # whatever the work arrays hold beforehand, and however many rows y
        # has to spare, the draws depend on the seeds alone and are new
        eig = np.clip(_embedding_eigenvalues(fgn_autocovariance(0.6, 100)), 0.0, None)
        y = np.full((4, 200), np.nan, dtype=np.complex128)
        z = np.full(200, np.nan)
        out = _circulant_fgn(np.sqrt(eig), [0, 1, 2], y, z)
        assert out.shape == (3, 100)
        assert out.tobytes() == oracles.oracle_circulant_fgn(eig, [0, 1, 2]).tobytes()
        assert not np.shares_memory(out, y)


class TestSurrogate:
    def test_amplitude_spectrum_preserved(self):
        rng = np.random.default_rng(3)
        s = index_series(rng.normal(size=1000))
        out = surrogate(s, seed=11)
        amp_in = np.abs(np.fft.fft(s.values))
        amp_out = np.abs(np.fft.fft(out.values))
        scale = amp_in.max()
        assert np.all(np.abs(amp_in - amp_out) <= 1e-9 * scale)

    def test_mean_and_variance_preserved(self):
        rng = np.random.default_rng(4)
        s = index_series(rng.normal(loc=3.0, scale=2.0, size=999))
        out = surrogate(s, seed=5)
        assert out.values.mean() == pytest.approx(s.values.mean(), abs=1e-9)
        # Parseval: the amplitude spectrum fixes the population variance
        assert out.values.std() == pytest.approx(s.values.std(), rel=1e-9)

    def test_constant_series_unchanged(self):
        s = index_series([5.0] * 16)
        out = surrogate(s, seed=9)
        assert np.allclose(out.values, 5.0, atol=1e-12)

    def test_deterministic(self):
        s = index_series(np.sin(np.arange(64) / 3.0))
        assert np.array_equal(surrogate(s, 8).values, surrogate(s, 8).values)
        assert not np.array_equal(surrogate(s, 8).values, surrogate(s, 9).values)

    def test_too_short(self):
        with pytest.raises(LengthTooShort):
            surrogate(index_series([1.0, 2.0, 3.0]), 0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "values",
        [
            [-2.8e-43, 116.0, 166.1, -3.5e16, -1e308, 100.0, 100.5, 7.0],  # irfft overflows
            [1e308] * 7 + [1.5e308],  # so does rfft
        ],
    )
    def test_overflow_refused_without_warning(self, values):
        with pytest.raises(ValueError, match="values must all be finite"):
            surrogate(index_series(values), 0)
        with pytest.raises(ValueError, match="values must all be finite"):
            next(surrogate_stacks(index_series(values), [1, 2, 3]))

    def test_kind_and_timestamps_preserved(self):
        from couplemap.series import standardize

        s = standardize(index_series(np.random.default_rng(0).normal(size=100)))
        out = surrogate(s, 1)
        assert out.kind == KIND_STANDARDIZED
        assert np.array_equal(out.timestamps, s.timestamps)

    def test_odd_length_real_output(self):
        s = index_series(np.random.default_rng(1).normal(size=101))
        out = surrogate(s, 2)
        assert len(out) == 101
        assert out.values.dtype == np.float64

    def test_double_surrogate_same_amplitudes(self):
        rng = np.random.default_rng(5)
        s = index_series(rng.normal(size=256))
        once = surrogate(s, 100)
        twice = surrogate(once, 200)
        amp1 = np.abs(np.fft.fft(once.values))
        amp2 = np.abs(np.fft.fft(twice.values))
        assert np.allclose(amp1, amp2, rtol=1e-9, atol=1e-12 * amp1.max())

    def test_gaussianizes_fat_tails(self):
        from scipy.stats import kurtosis, skew

        rng = np.random.default_rng(12)
        values = rng.standard_t(3, size=2000)
        s = index_series(values)
        assert kurtosis(values) > 3.0
        skews, kurts = [], []
        for seed in range(20):
            out = surrogate(s, seed).values
            skews.append(abs(skew(out)))
            kurts.append(abs(kurtosis(out)))
        assert np.mean(skews) < 0.15
        assert np.mean(kurts) < 0.3

    # a stack holds the rows of 4N cells that fit 2**16 (4096 at N = 4, 6
    # at N = 2447), so each count takes a stack boundary; 2447 is prime and
    # 2449 = 31 * 79, so their transforms take Bluestein's algorithm
    @pytest.mark.parametrize(
        "n, sizes",
        [
            (4, [4096, 1]),
            (5, [3276, 1]),
            (16, [1024, 1]),
            (2000, [8, 8, 1]),
            (2447, [6, 6, 1]),
            (2449, [6, 1]),
        ],
    )
    @pytest.mark.parametrize("kind", ["raw", "standardized"])
    def test_stacked_draws_equal_one_by_one(self, n, sizes, kind):
        s = index_series(np.random.default_rng(n).standard_t(3, size=n))
        if kind == "standardized":
            s = standardize(s)
        seeds = [2**63 + 977 * r for r in range(sum(sizes))]
        stacks = list(surrogate_stacks(s, seeds))
        assert [len(stack) for stack in stacks] == sizes
        for row, seed in zip(np.concatenate(stacks), seeds):
            assert row.tobytes() == one_surrogate(s, seed).tobytes()
        for seed in seeds[:: max(1, len(seeds) // 8)]:
            out = surrogate(s, seed)
            assert out.values.tobytes() == one_surrogate(s, seed).tobytes()
            assert out.kind == s.kind

    def test_stacked_draws_checked(self):
        s = index_series(np.arange(16.0))
        with pytest.raises(ValueError):
            next(surrogate_stacks(s, [1, 2**64]))
        with pytest.raises(LengthTooShort):
            next(surrogate_stacks(index_series([1.0, 2.0, 3.0]), [1]))

    def test_linear_structure_preserved(self):
        n = 2000
        s = generate_fgn(FgnSpec(0.7, n, 77))
        out = surrogate(s, 13)
        for lag in range(1, 11):
            diff = abs(sample_acf(out.values, lag) - sample_acf(s.values, lag))
            assert diff <= 3.0 / math.sqrt(n), lag


class TestEstimateHurst:
    def test_length_guard(self):
        with pytest.raises(LengthTooShort):
            oracles.estimate_hurst(np.zeros(255))

    def test_white_noise_band(self):
        est = oracles.estimate_hurst(generate_fgn(FgnSpec(0.5, 4096, 7)).values)
        assert 0.43 <= est <= 0.57

    def test_persistent_band(self):
        ests = [
            oracles.estimate_hurst(generate_fgn(FgnSpec(0.8, 4096, 1000 + s)).values)
            for s in range(20)
        ]
        assert 0.73 <= np.mean(ests) <= 0.87

    def test_antipersistent_band(self):
        ests = [
            oracles.estimate_hurst(generate_fgn(FgnSpec(0.3, 4096, 1000 + s)).values)
            for s in range(20)
        ]
        assert 0.23 <= np.mean(ests) <= 0.37
