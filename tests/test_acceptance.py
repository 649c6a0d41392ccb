"""Acceptance battery: one test per shipped guarantee.

Each test prints a `CRITERION n PASS/FAIL: detail` line before asserting, so
`pytest -s tests/test_acceptance.py` reads as a report card. Criterion 8
needs real market data and skips (not fails) when COUPLEMAP_MARKET_DIR is
unset or incomplete.
"""

import os
import time

import numpy as np
import pytest
from scipy.stats import kurtosis, skew, spearmanr

import oracles
from conftest import random_weights, special_weight_matrices
from couplemap.ensemble import (
    COUPLING_PAIR,
    EnsembleConfig,
    confidence_interval,
    radar_normalize,
    run_fgn_ensemble,
    run_surrogate_pair,
    write_summary_csv,
)
from couplemap.metrics import MEASURE_FIELDS, measure_all
from couplemap.netmap import map_pair
from couplemap.series import AlignedPair, align_pair, index_series, load_csv, prepare, write_csv
from couplemap.synth import (
    FgnSpec,
    fgn_autocovariance,
    generate_fgn,
    surrogate,
)
from test_metrics import assert_matches_oracle

# the twenty radar measures: every report field but degree_concentration
TABLE_FIELDS = MEASURE_FIELDS[:20]


def _verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number} {status}: {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def _acf(values: np.ndarray, lag: int) -> float:
    v = values - values.mean()
    return float((v[:-lag] * v[lag:]).sum() / (v * v).sum())


def _student_t_series(seed: int):
    draws = np.random.default_rng(1000 + seed).standard_t(3, size=2000)
    return index_series(draws)


@pytest.fixture(scope="module")
def default_run():
    """The full default baseline battery, shared by criteria 4, 5 and 9."""
    start = time.perf_counter()
    summary = run_fgn_ensemble(EnsembleConfig())
    return summary, time.perf_counter() - start


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20200529)
    matrices = special_weight_matrices() + [random_weights(rng) for _ in range(200)]
    first_failure = None
    for index, weights in enumerate(matrices):
        try:
            assert_matches_oracle(weights)
        except AssertionError as exc:
            first_failure = f"graph {index}: {exc}"
            break
    elapsed = time.perf_counter() - start
    ok = first_failure is None and elapsed < 30.0
    detail = f"{len(matrices)} graphs vs brute force at 1e-12, {elapsed:.1f}s"
    if first_failure is not None:
        detail += f"; {first_failure}"
    _verdict(1, ok, detail)


def test_criterion_2_fgn_fidelity():
    start = time.perf_counter()
    n = 4096
    parts = []
    ok = True
    for h in (0.3, 0.5, 0.7):
        estimates = []
        pooled = np.zeros(5)
        for seed in range(20):
            series = generate_fgn(FgnSpec(h, n, seed))
            estimates.append(oracles.estimate_hurst(series.values))
            v = series.values
            for lag in range(1, 6):
                pooled[lag - 1] += (v[:-lag] * v[lag:]).sum() / (n - lag)
        pooled /= 20.0
        hurst_err = abs(float(np.mean(estimates)) - h)
        acov_err = float(np.max(np.abs(pooled - fgn_autocovariance(h, 5)[1:])))
        ok = ok and hurst_err <= 0.07 and acov_err <= 0.05
        parts.append(f"H={h} dH={hurst_err:.3f} dacov={acov_err:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(2, ok, "; ".join(parts) + f" (limits 0.07/0.05), {elapsed:.1f}s")


def test_criterion_3_surrogate_contract():
    start = time.perf_counter()
    amp_err = 0.0
    acf_err = 0.0
    skews = []
    kurts = []
    for seed in range(20):
        base = _student_t_series(seed)
        out = surrogate(base, seed)
        amp_in = np.abs(np.fft.rfft(base.values))
        amp_out = np.abs(np.fft.rfft(out.values))
        amp_err = max(amp_err, float(np.max(np.abs(amp_out - amp_in)) / amp_in.max()))
        skews.append(abs(float(skew(out.values))))
        kurts.append(abs(float(kurtosis(out.values))))
        for lag in range(1, 11):
            acf_err = max(acf_err, abs(_acf(out.values, lag) - _acf(base.values, lag)))
    mean_skew = float(np.mean(skews))
    mean_kurt = float(np.mean(kurts))
    acf_limit = 3.0 / np.sqrt(2000.0)
    elapsed = time.perf_counter() - start
    ok = (
        amp_err <= 1e-9
        and mean_skew < 0.15
        and mean_kurt < 0.3
        and acf_err <= acf_limit
        and elapsed < 30.0
    )
    _verdict(
        3,
        ok,
        f"amp rel err {amp_err:.1e} (<=1e-9), mean|skew| {mean_skew:.3f} (<0.15), "
        f"mean|exkurt| {mean_kurt:.3f} (<0.3), acf err {acf_err:.4f} "
        f"(<={acf_limit:.4f}), {elapsed:.1f}s",
    )


def test_criterion_4_deformation_trend(default_run):
    summary, elapsed = default_run
    means = [rows["deformation_R"].mean for rows in summary.systems.values()]
    rho = float(spearmanr(means, list(range(len(means)))).statistic)
    increasing = all(a < b for a, b in zip(means, means[1:]))
    mid = summary.systems["fgn_h0.5"]["deformation_R"].mean
    ok = increasing and rho == 1.0 and -0.05 <= mid <= 0.05 and elapsed < 300.0
    _verdict(
        4,
        ok,
        f"mean R over H=0.1..0.9: {[round(m, 3) for m in means]}, spearman {rho}, "
        f"R(H=0.5)={mid:.4f} in [-0.05, 0.05], {elapsed:.1f}s",
    )


def test_criterion_5_degree_identities(default_run):
    summary, _ = default_run
    worst = 0.0
    for rows in summary.systems.values():
        k_out = rows["mean_k_out"].mean
        k_in = rows["mean_k_in"].mean
        k_total = rows["mean_k_total"].mean
        worst = max(worst, abs(k_out - k_in), abs(k_out - k_total / 2.0))
    ok = worst <= 1e-12
    _verdict(5, ok, f"mean_k_out = mean_k_in = mean_k_total/2, worst gap {worst:.1e}")


def test_criterion_6_confidence_interval():
    start = time.perf_counter()
    mean, half_width = confidence_interval([1.0, 2.0, 3.0])
    elapsed = time.perf_counter() - start
    ok = abs(mean - 2.0) <= 1e-12 and abs(half_width - 0.9497) <= 1e-4 and elapsed < 1.0
    _verdict(6, ok, f"CI(1,2,3) = ({mean}, {half_width:.4f}) vs (2, 0.9497+/-1e-4)")


def test_criterion_7_surrogate_invariance_of_noise():
    start = time.perf_counter()
    cfg = EnsembleConfig(
        hurst_values=(0.5,),
        replicas_per_h=32,
        series_length=2000,
        bin_count=50,
        master_seed=104,
        coupling=COUPLING_PAIR,
    )
    direct = run_fgn_ensemble(cfg)
    x = generate_fgn(FgnSpec(0.5, 2000, 104))
    y = generate_fgn(FgnSpec(0.5, 2000, 105))
    surrogates = run_surrogate_pair(x, y, replicas=32, bin_count=50, master_seed=105)
    within = 0
    for name in TABLE_FIELDS:
        d = direct.systems["fgn_h0.5"][name]
        s = surrogates.systems["surrogate"][name]
        if abs(d.mean - s.mean) <= 2.0 * max(d.half_width, s.half_width):
            within += 1
    elapsed = time.perf_counter() - start
    ok = within >= 18 and elapsed < 180.0
    _verdict(
        7,
        ok,
        f"{within}/{len(TABLE_FIELDS)} measures within 2 half-widths "
        f"(need >= 18), {elapsed:.1f}s",
    )


def test_criterion_8_market_reproduction():
    data_dir = os.environ.get("COUPLEMAP_MARKET_DIR", "")
    paths = {
        name: os.path.join(data_dir, f"{name}.csv")
        for name in ("djia", "sp500", "ssec")
    }
    if not data_dir or not all(os.path.exists(p) for p in paths.values()):
        print(
            "CRITERION 8 SKIP: set COUPLEMAP_MARKET_DIR to a directory with "
            "djia.csv, sp500.csv, ssec.csv",
            flush=True,
        )
        pytest.skip("market data not supplied")
    start = time.perf_counter()
    series = {name: load_csv(path, "value") for name, path in paths.items()}

    def report_for(a, b):
        raw = align_pair(series[a], series[b])
        pair = AlignedPair(prepare(raw.x), prepare(raw.y))
        return measure_all(map_pair(pair, bin_count=50))

    djia_sp500 = report_for("djia", "sp500")
    djia_ssec = report_for("djia", "ssec")
    baseline = run_fgn_ensemble(EnsembleConfig(hurst_values=(0.5,)))
    rows = baseline.systems["fgn_h0.5"]
    row = rows["deformation_R"]
    noise_floor = row.mean - 2.0 * row.half_width
    radar = radar_normalize(
        {
            "fgn_h0.5": {name: r.mean for name, r in rows.items()},
            "djia_sp500": djia_sp500.as_vector(),
            "djia_ssec": djia_ssec.as_vector(),
        }
    )
    d_sp500 = radar["distance_to_uncoupled"]["djia_sp500"]
    d_ssec = radar["distance_to_uncoupled"]["djia_ssec"]
    elapsed = time.perf_counter() - start
    ok = (
        djia_sp500.deformation_R > djia_ssec.deformation_R > noise_floor
        and d_ssec < d_sp500
        and elapsed < 60.0
    )
    _verdict(
        8,
        ok,
        f"R: djia-sp500 {djia_sp500.deformation_R:.3f} > djia-ssec "
        f"{djia_ssec.deformation_R:.3f} > noise floor {noise_floor:.3f}; "
        f"radar distance {d_ssec:.3f} < {d_sp500:.3f}, {elapsed:.1f}s",
    )


def test_criterion_9_determinism(default_run, tmp_path):
    start = time.perf_counter()
    summary, _ = default_run
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"

    write_summary_csv(summary, first)
    write_summary_csv(run_fgn_ensemble(EnsembleConfig()), second)
    same_summary = first.read_bytes() == second.read_bytes()

    same_fgn = True
    for h in (0.3, 0.5, 0.7):
        for seed in range(20):
            write_csv(generate_fgn(FgnSpec(h, 4096, seed)), first)
            write_csv(generate_fgn(FgnSpec(h, 4096, seed)), second)
            same_fgn = same_fgn and first.read_bytes() == second.read_bytes()

    same_surrogate = True
    for seed in range(20):
        base = _student_t_series(seed)
        write_csv(surrogate(base, seed), first)
        write_csv(surrogate(base, seed), second)
        same_surrogate = same_surrogate and first.read_bytes() == second.read_bytes()

    elapsed = time.perf_counter() - start
    ok = same_summary and same_fgn and same_surrogate
    _verdict(
        9,
        ok,
        f"byte-identical reruns: ensemble summary {same_summary}, "
        f"60 noise draws {same_fgn}, 20 surrogates {same_surrogate}, {elapsed:.1f}s",
    )
