"""The benchmark's workloads: inputs made from a seed, one operation,
and the checks on its output.

Each workload class takes ``(seed, out_dir, smoke)``. ``operation(i)``
prepares the i-th operation outside the timed region and returns a
zero-argument callable that performs it through the package's public
functions; ``check(i, result)`` returns a list of problems (empty when the
output is right). ``subtract_stolen`` says whether the operation's time is
reported less stolen CPU time (see ``run.py``). Operations look the package
functions up on their modules
at call time, so the tracer's wrappers are used when it is installed, while
the checks hold the unwrapped references imported below and record no spans.

Every check compares with a computation made here, apart from the package
(NumPy, networkx, the csv module), or tests a property the method must have.
Regenerating a replica's noise uses the package's own ``derive_seed`` and
``generate_fgn`` or ``surrogate``, since the check is about what was done
with those draws.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import io
import json
import math
import os
from dataclasses import replace
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np

from couplemap import cli, ensemble
from couplemap.ensemble import EnsembleConfig, derive_seed
from couplemap.metrics import measure_all
from couplemap.netmap import map_lagged
from couplemap.series import index_series
from couplemap.synth import FgnSpec, generate_fgn, surrogate

# Half-width of the ensemble's 90% interval is Z90 * S / sqrt(n).
Z90 = NormalDist().inv_cdf(0.95)
# A mean within this many standard errors of its expectation passes. A 90%
# interval would miss one operation in ten by design; six standard errors of
# a 32-replica mean (Student t, 31 degrees of freedom) miss about once in 10^6.
SE_TOLERANCE = 6.0
MEASURE_COUNT = 21


def op_seed(seed: int, workload: str, i: int) -> int:
    """64-bit master seed of operation i, from the benchmark seed."""
    tag = int.from_bytes(workload.encode(), "little") % (2**32)
    state = np.random.SeedSequence([seed, tag, i]).generate_state(2, np.uint32)
    return int(state[0]) << 32 | int(state[1])


# ---------------------------------------------------------------- NumPy side


def bin_floor(values: np.ndarray, bins: int) -> np.ndarray:
    """floor(B (v - min) / (max - min)), the maximum folded into bin B-1."""
    lo, hi = values.min(), values.max()
    idx = np.floor(bins * (values - lo) / (hi - lo)).astype(np.int64)
    return np.minimum(idx, bins - 1)


def count_matrix(xi: np.ndarray, yi: np.ndarray, bins: int) -> np.ndarray:
    w = np.zeros((bins, bins), dtype=np.int64)
    np.add.at(w, (xi, yi), 1)
    return w


def deformation(w: np.ndarray) -> float:
    """R from the covariance of the bin coordinates under p = W / N.

    Var along (1, 1)/sqrt(2) is (Var i + Var j + 2 Cov) / 2 and along
    (1, -1)/sqrt(2) it is (Var i + Var j - 2 Cov) / 2.
    """
    p = w / w.sum()
    idx = np.arange(len(w), dtype=np.float64)
    pi, pj = p.sum(axis=1), p.sum(axis=0)
    mi, mj = pi @ idx, pj @ idx
    var_i = pi @ (idx - mi) ** 2
    var_j = pj @ (idx - mj) ** 2
    cov = (idx - mi) @ p @ (idx - mj)
    s_main = math.sqrt(max((var_i + var_j + 2 * cov) / 2, 0.0))
    s_anti = math.sqrt(max((var_i + var_j - 2 * cov) / 2, 0.0))
    if s_main == s_anti == 0.0:
        return 0.0
    return (s_main - s_anti) / max(s_main, s_anti)


def networkx_measures(w: np.ndarray) -> dict:
    """Degree, clustering and path measures of the binarized graph."""
    import networkx as nx  # only this workload's check needs it

    bins = len(w)
    src, dst = np.nonzero(w)
    full = nx.DiGraph()
    full.add_nodes_from(range(bins))
    full.add_edges_from(zip(src.tolist(), dst.tolist()))
    k_total = np.array([full.in_degree(v) + full.out_degree(v) for v in range(bins)])

    loopless = full.copy()
    loopless.remove_edges_from(list(nx.selfloop_edges(loopless)))
    undirected = loopless.to_undirected()
    local_u = np.array([nx.clustering(undirected, v) for v in range(bins)])
    local_d = np.array([nx.clustering(loopless, v) for v in range(bins)])

    def mean_path(graph):
        total = count = 0
        for source, lengths in nx.all_pairs_shortest_path_length(graph):
            total += sum(lengths.values())
            count += len(lengths) - 1
        return total / count

    return {
        "mean_k_total": float(k_total.mean()),
        "mean_sq_k_total": float((k_total**2).mean()),
        "std_k_total": float(k_total.std()),
        "cl_global": nx.transitivity(undirected),
        "cl_local_undirected_mean": float(local_u.mean()),
        "cl_global_std": float(local_u.std()),
        "cl_local_directed_mean": float(local_d.mean()),
        "mean_len_directed": mean_path(loopless),
        "mean_len_undirected": mean_path(undirected),
        "deformation_R": deformation(w),
    }


def compare_values(label: str, got: dict, want: dict, tol: float = 1e-9) -> list:
    return [
        f"{label}: {name} = {got[name]!r}, expected {value!r}"
        for name, value in want.items()
        if not abs(got[name] - value) <= tol * max(1.0, abs(value))
    ]


def summary_rows(rows, system: str, replicas: int) -> tuple:
    """(measure name -> row, problems) for the rows of one system."""
    rows = {row.measure_name: row for row in rows}
    problems = []
    if len(rows) != MEASURE_COUNT:
        problems.append(f"{system}: {len(rows)} measures, expected {MEASURE_COUNT}")
    bad_n = sorted(name for name, row in rows.items() if row.n != replicas)
    if bad_n:
        problems.append(f"{system}: n != {replicas} for {bad_n}")
    return rows, problems


def near_zero(label: str, row) -> list:
    """The ensemble mean lies within SE_TOLERANCE standard errors of 0."""
    se = row.half_width / Z90
    if abs(row.mean) <= SE_TOLERANCE * se:
        return []
    return [f"{label}: mean R {row.mean:.4g} is {abs(row.mean) / se:.1f} SE from 0"]


def t3_returns(rng: np.random.Generator, n: int, rho: float = 0.5) -> tuple:
    """Bivariate Student-t(3) daily log-returns with correlation rho.

    A shared chi-square mixing variable turns correlated normals into a
    multivariate t, so large moves arrive together as in index returns.
    """
    z1 = rng.standard_normal(n)
    z2 = rho * z1 + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    mix = np.sqrt(3.0 / rng.chisquare(3.0, n))
    return 0.01 * z1 * mix, 0.01 * z2 * mix


def prices(returns: np.ndarray) -> np.ndarray:
    return 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))


# ----------------------------------------------------------------- workloads


class FgnEnsemble:
    """One run_fgn_ensemble(cfg) per operation, with its own master seed."""

    round_len = 1
    # The replica loops run Python code under the interpreter lock, so time
    # stolen from the CPUs delays the operation (README, stolen time).
    subtract_stolen = True

    def __init__(self, seed: int, cfg: EnsembleConfig):
        self.seed = seed
        self.cfg = cfg
        self.networks_per_op = len(cfg.hurst_values) * cfg.replicas_per_h

    def _cfg(self, i: int) -> EnsembleConfig:
        return replace(self.cfg, master_seed=op_seed(self.seed, self.name, i))

    def operation(self, i: int):
        cfg = self._cfg(i)
        return lambda: ensemble.run_fgn_ensemble(cfg)


class Battery(FgnEnsemble):
    """run_fgn_ensemble(EnsembleConfig()): 9 H values x 32 lag-mapped draws."""

    name = "battery-b50"

    def __init__(self, seed: int, out_dir, smoke: bool):
        smoke_cfg = EnsembleConfig(hurst_values=(0.1, 0.5, 0.9), replicas_per_h=8)
        super().__init__(seed, smoke_cfg if smoke else EnsembleConfig())

    def check(self, i: int, summary) -> list:
        cfg = self._cfg(i)
        names = [f"fgn_h{h:g}" for h in cfg.hurst_values]
        if list(summary.system_names()) != names:
            return [f"systems {summary.system_names()}, expected {names}"]
        problems = []
        rows = {}
        for name in names:
            rows[name], bad = summary_rows(summary.rows(name), name, cfg.replicas_per_h)
            problems += bad
        if problems:
            return problems

        r_means = [rows[name]["deformation_R"].mean for name in names]
        if not all(a < b for a, b in zip(r_means, r_means[1:])):
            problems.append(f"mean R not increasing in H: {r_means}")
        if "fgn_h0.5" in rows and abs(rows["fgn_h0.5"]["deformation_R"].mean) > 0.05:
            problems.append(f"mean R at H=0.5 is {rows['fgn_h0.5']['deformation_R'].mean}")

        # Every replica of one H, rebuilt in NumPy, against the summary means;
        # one of them, measured by networkx, against measure_all.
        h_index = i % len(cfg.hurst_values)
        h = cfg.hurst_values[h_index]
        sampled = (self.seed + i) % cfg.replicas_per_h
        per_replica = []
        for replica in range(cfg.replicas_per_h):
            spec = FgnSpec(h, cfg.series_length, derive_seed(cfg.master_seed, h_index, replica))
            series = generate_fgn(spec)
            idx = bin_floor(series.values, cfg.bin_count)
            w = count_matrix(idx[: -cfg.lag], idx[cfg.lag :], cfg.bin_count)
            a = w > 0
            k_total = a.sum(axis=0) + a.sum(axis=1)
            per_replica.append((k_total.mean(), k_total.std(), deformation(w)))
            if replica == sampled:
                net = map_lagged(series, lag=cfg.lag, bin_count=cfg.bin_count)
                if not np.array_equal(net.weights, w):
                    problems.append(f"H={h} replica {replica}: weights differ from NumPy binning")
                    continue
                report = measure_all(net).as_vector()
                problems += compare_values(
                    f"H={h} replica {replica}", report, networkx_measures(w)
                )
        means = np.mean(per_replica, axis=0)
        system = rows[names[h_index]]
        problems += compare_values(
            f"summary {names[h_index]}",
            {name: system[name].mean for name in ("mean_k_total", "std_k_total", "deformation_R")},
            {"mean_k_total": means[0], "std_k_total": means[1], "deformation_R": means[2]},
        )
        return problems


class Persistent(FgnEnsemble):
    """run_fgn_ensemble, pair coupling, H in {0.95, 0.99}, N = 2000, B = 50."""

    name = "persistent-fgn"
    # Draws per H whose lag-1 autocorrelation is checked, and the spread of
    # one draw's estimate at N = 2000 for these H (0.032-0.035 over 64 draws).
    ACF_DRAWS = 8
    ACF_DRAW_SD = 0.035
    # Both threads spend their time in small NumPy calls that release the
    # interpreter lock; stolen CPU time lowers their CPU time and lengthens
    # the operation by much less than itself, so nothing is subtracted
    # (README, stolen time).
    subtract_stolen = False

    def __init__(self, seed: int, out_dir, smoke: bool):
        cfg = EnsembleConfig(
            hurst_values=(0.95, 0.99), replicas_per_h=8 if smoke else 32, coupling="pair"
        )
        super().__init__(seed, cfg)

    def check(self, i: int, summary) -> list:
        cfg = self._cfg(i)
        n = cfg.series_length
        problems = []
        for h_index, h in enumerate(cfg.hurst_values):
            name = f"fgn_h{h:g}"
            if name not in summary.systems:
                problems.append(f"missing system {name}")
                continue
            rows, bad = summary_rows(summary.rows(name), name, cfg.replicas_per_h)
            problems += bad
            if bad:
                continue
            problems += near_zero(f"{name} independent pairs", rows["deformation_R"])

            # Pooled lag-1 autocorrelation of the pairs' draws (streams 2r and
            # 2r + 1). Each draw has its own mean removed, which lowers the
            # expectation from rho1 = 2^(2H-1) - 1 to (rho1 - V) / (1 - V)
            # with V = Var(sample mean) = N^(2H-2).
            num = den = 0.0
            for stream in range(self.ACF_DRAWS):
                draw = generate_fgn(FgnSpec(h, n, derive_seed(cfg.master_seed, h_index, stream)))
                v = draw.values - draw.values.mean()
                num += float(v[:-1] @ v[1:])
                den += float(v @ v)
            rho1 = 2.0 ** (2 * h - 1) - 1.0
            var_mean = n ** (2 * h - 2)
            expected = (rho1 - var_mean) / (1.0 - var_mean)
            tol = SE_TOLERANCE * self.ACF_DRAW_SD / math.sqrt(self.ACF_DRAWS)
            if abs(num / den - expected) > tol:
                problems.append(
                    f"{name}: pooled lag-1 autocorrelation {num / den:.4f}, "
                    f"expected {expected:.4f} +- {tol:.3f}"
                )
        return problems


class MapSurrogate:
    """`couplemap map` then `couplemap surrogate` at B = 200, in-process.

    A user who maps a pair of price files and asks whether its coupling is
    more than chance runs these two commands. Three pairs of date-stamped
    Student-t(3) price CSVs are cycled; each series skips its own random 2%
    of business days, so the inner join drops rows and keeps about 2450
    returns.
    """

    name = "surrogate-b200"
    round_len = 1
    subtract_stolen = True
    BINS = 200
    REPLICAS = 32
    PAIRS = 3
    MAP_FILES = ("adjacency.tsv", "edges.csv", "joint.tsv", "measures.json")
    SUMMARY = "surrogate_summary.csv"

    def __init__(self, seed: int, out_dir, smoke: bool):
        days = 400 if smoke else 2550
        self.replicas = 4 if smoke else self.REPLICAS
        self.networks_per_op = 1 + self.replicas
        self.seed = seed
        rng = np.random.default_rng([seed, 200])
        calendar = []
        day = datetime.date(2000, 1, 3)
        while len(calendar) < days:
            if day.weekday() < 5:
                calendar.append(day.isoformat())
            day += datetime.timedelta(days=1)
        self.pairs = []
        for k in range(self.PAIRS):
            rx, ry = t3_returns(rng, days - 1)
            paths = []
            for label, series in (("x", prices(rx)), ("y", prices(ry))):
                keep = rng.random(days) >= 0.02
                path = os.path.join(out_dir, f"pair{k}_{label}.csv")
                with open(path, "w", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["date", "value"])
                    for stamp, value in zip(np.asarray(calendar)[keep], series[keep]):
                        writer.writerow([stamp, repr(float(value))])
                paths.append(path)
            target = os.path.join(out_dir, f"pair{k}")
            os.makedirs(target, exist_ok=True)
            self.pairs.append((paths[0], paths[1], target, self._standardized(*paths)))

    @staticmethod
    def _standardized(x_csv: str, y_csv: str) -> tuple:
        """Both standardized log-return series, rebuilt from the CSV text."""
        columns = []
        for path in (x_csv, y_csv):
            with open(path, newline="", encoding="utf-8") as fh:
                columns.append({row["date"]: float(row["value"]) for row in csv.DictReader(fh)})
        common = sorted(set(columns[0]) & set(columns[1]))
        out = []
        for column in columns:
            p = np.array([column[d] for d in common])
            r = np.log(p[1:] / p[:-1])
            out.append((r - r.mean()) / r.std())
        return tuple(out)

    def _master_seed(self, i: int) -> int:
        return op_seed(self.seed, self.name, i)

    def operation(self, i: int):
        x_csv, y_csv, target, _ = self.pairs[i % self.PAIRS]
        for name in self.MAP_FILES + (self.SUMMARY,):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(target, name))
        common = [x_csv, y_csv, "--bins", str(self.BINS), "--out", target]
        map_argv = ["map"] + common
        surrogate_argv = ["surrogate"] + common + [
            "--replicas", str(self.replicas), "--seed", str(self._master_seed(i))
        ]

        def run():
            results = []
            for argv in (map_argv, surrogate_argv):
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    code = cli.main(argv)
                results.append((code, printed.getvalue().split()))
            return results

        return run

    def check(self, i: int, result) -> list:
        _, _, target, (zx, zy) = self.pairs[i % self.PAIRS]
        wanted = (
            [os.path.join(target, name) for name in self.MAP_FILES],
            [os.path.join(target, self.SUMMARY)],
        )
        for (code, printed), paths in zip(result, wanted):
            if code != 0:
                return [f"exit code {code}"]
            if printed != paths or not all(os.path.isfile(p) for p in paths):
                return [f"files written: {printed}"]
        return self._check_map(target, zx, zy) + self._check_surrogates(i, target, zx, zy)

    def _check_map(self, target: str, zx: np.ndarray, zy: np.ndarray) -> list:
        """The map files against a NumPy rebuild: inner join, log-returns,
        standardize, floor binning."""
        w = count_matrix(bin_floor(zx, self.BINS), bin_floor(zy, self.BINS), self.BINS)
        adjacency, edges, joint, measures = (os.path.join(target, f) for f in self.MAP_FILES)
        with open(adjacency, encoding="utf-8") as fh:
            got = np.array([[int(v) for v in line.split("\t")] for line in fh])
        if not np.array_equal(got, w):
            return ["adjacency.tsv differs from the NumPy rebuild"]
        problems = []
        n = int(w.sum())
        if n != len(zx):
            problems.append(f"weights sum to {n}, expected {len(zx)} aligned returns")
        with open(edges, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        src, dst = np.nonzero(w)
        want_rows = [["source", "target", "weight"]] + [
            [str(a), str(b), str(w[a, b])] for a, b in zip(src, dst)
        ]
        if rows != want_rows:
            problems.append("edges.csv disagrees with adjacency.tsv")
        with open(joint, encoding="utf-8") as fh:
            p = np.array([[float(v) for v in line.split("\t")] for line in fh])
        if not np.array_equal(p, w / n):
            problems.append("joint.tsv is not adjacency / sample count")
        with open(measures, encoding="utf-8") as fh:
            report = json.load(fh)
        if report["sample_count"] != n or report["bin_count"] != self.BINS:
            problems.append(f"measures.json sample_count {report['sample_count']}, expected {n}")
        problems += compare_values("measures.json", report, {"deformation_R": deformation(w)})
        return problems

    def _check_surrogates(self, i: int, target: str, zx: np.ndarray, zy: np.ndarray) -> list:
        """The summary CSV against the surrogate networks rebuilt in NumPy.

        The surrogate draws come from the package's own `surrogate` with the
        seeds `run_surrogate_pair` derives; each draw must keep its input's
        amplitude spectrum, and binning and measuring them is done here.
        """
        with open(os.path.join(target, self.SUMMARY), newline="", encoding="utf-8") as fh:
            table = list(csv.DictReader(fh))
        rows = [
            SimpleNamespace(
                measure_name=row["measure_name"],
                mean=float(row["mean"]),
                half_width=float(row["half_width"]),
                n=int(row["n"]),
            )
            for row in table
            if row["system"] == "surrogate"
        ]
        if len(rows) != len(table):
            return [f"systems {sorted({row['system'] for row in table})}, expected surrogate"]
        rows, problems = summary_rows(rows, "surrogate", self.replicas)
        if problems:
            return problems
        problems += near_zero("surrogates", rows["deformation_R"])

        master = self._master_seed(i)
        x, y = index_series(zx, kind="standardized"), index_series(zy, kind="standardized")
        per_replica = []
        for replica in range(self.replicas):
            sx = surrogate(x, derive_seed(master, replica, 0)).values
            sy = surrogate(y, derive_seed(master, replica, 1)).values
            for z, s in ((zx, sx), (zy, sy)):
                if not np.allclose(np.abs(np.fft.rfft(s)), np.abs(np.fft.rfft(z)), atol=1e-8):
                    problems.append(f"replica {replica}: surrogate changed the amplitude spectrum")
            w = count_matrix(bin_floor(sx, self.BINS), bin_floor(sy, self.BINS), self.BINS)
            a = w > 0
            k_total = a.sum(axis=0) + a.sum(axis=1)
            per_replica.append((k_total.mean(), k_total.std(), deformation(w)))
        means = np.mean(per_replica, axis=0)
        problems += compare_values(
            "surrogate summary",
            {name: rows[name].mean for name in ("mean_k_total", "std_k_total", "deformation_R")},
            {"mean_k_total": means[0], "std_k_total": means[1], "deformation_R": means[2]},
        )
        return problems


WORKLOADS = {cls.name: cls for cls in (Battery, MapSurrogate, Persistent)}
