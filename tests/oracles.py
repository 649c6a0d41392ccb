"""Brute-force reference implementations, pure Python on small graphs.

Everything here recomputes the library's statistics from their definitions
with loops, fsum and exact rationals; no numpy. The community-detection
oracle replays the greedy agglomeration step by step with the same float
arithmetic, since the partition search is defined by the algorithm itself.
estimate_hurst checks generated noise against its Hurst exponent.
oracle_circulant_fgn is the one NumPy reference: the fGn draw written with
complex temporaries and a fresh FFT, whose bits synth's in-place draw must
reproduce.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from couplemap.errors import LengthTooShort

INF = float("inf")


def binarize(w):
    return [[1 if v > 0 else 0 for v in row] for row in w]


def oracle_degree_stats(w):
    b = len(w)
    a = binarize(w)
    k_out = [sum(row) for row in a]
    k_in = [sum(a[i][j] for i in range(b)) for j in range(b)]
    k_tot = [o + i for o, i in zip(k_out, k_in)]

    def mean(xs):
        return math.fsum(xs) / b

    mean_tot = mean(k_tot)
    mean_sq_tot = mean([k * k for k in k_tot])
    std_tot = math.sqrt(mean([(k - mean_tot) ** 2 for k in k_tot]))
    conc = mean_tot * mean_tot / mean_sq_tot if mean_sq_tot > 0 else 0.0
    return {
        "mean_sq_k_total": mean_sq_tot,
        "mean_sq_k_out": mean([k * k for k in k_out]),
        "mean_sq_k_in": mean([k * k for k in k_in]),
        "mean_k_total": mean_tot,
        "mean_k_out": mean(k_out),
        "mean_k_in": mean(k_in),
        "std_k_total": std_tot,
        "degree_concentration": conc,
    }


def _loopless(w):
    a = binarize(w)
    for i in range(len(a)):
        a[i][i] = 0
    return a


def oracle_clustering_stats(w):
    b = len(w)
    a = _loopless(w)
    u = [[1 if a[i][j] or a[j][i] else 0 for j in range(b)] for i in range(b)]

    deg = [sum(row) for row in u]
    closed = [
        sum(u[i][j] * u[j][k] * u[k][i] for j in range(b) for k in range(b))
        for i in range(b)
    ]
    triples = [d * (d - 1) for d in deg]
    total_triples = sum(triples)
    cl_global = sum(closed) / total_triples if total_triples > 0 else 0.0
    local_u = [
        closed[i] / triples[i] if triples[i] > 0 else 0.0 for i in range(b)
    ]
    mean_local = math.fsum(local_u) / b
    std_local = math.sqrt(math.fsum((c - mean_local) ** 2 for c in local_u) / b)

    s = [[a[i][j] + a[j][i] for j in range(b)] for i in range(b)]
    s3 = [
        sum(s[i][j] * s[j][k] * s[k][i] for j in range(b) for k in range(b))
        for i in range(b)
    ]
    d_tot = [sum(a[i]) + sum(a[j][i] for j in range(b)) for i in range(b)]
    d_bi = [sum(a[i][j] * a[j][i] for j in range(b)) for i in range(b)]
    local_d = []
    for i in range(b):
        denom = 2 * (d_tot[i] * (d_tot[i] - 1) - 2 * d_bi[i])
        local_d.append(s3[i] / denom if denom > 0 else 0.0)
    return {
        "cl_global": cl_global,
        "cl_global_std": std_local,
        "cl_local_undirected_mean": mean_local,
        "cl_local_directed_mean": math.fsum(local_d) / b,
    }


def _floyd_warshall(adj):
    b = len(adj)
    dist = [[0 if i == j else (1 if adj[i][j] else INF) for j in range(b)] for i in range(b)]
    for k in range(b):
        for i in range(b):
            for j in range(b):
                via = dist[i][k] + dist[k][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return dist


def oracle_path_stats(w):
    """(mean_directed, mean_undirected) or None when loop-free edgeless."""
    b = len(w)
    a = _loopless(w)
    if not any(any(row) for row in a):
        return None
    u = [[1 if a[i][j] or a[j][i] else 0 for j in range(b)] for i in range(b)]
    out = []
    for adj in (a, u):
        dist = _floyd_warshall(adj)
        finite = [
            dist[i][j]
            for i in range(b)
            for j in range(b)
            if i != j and dist[i][j] < INF
        ]
        out.append(sum(finite) / len(finite))
    return tuple(out)


def _edge_list(w):
    b = len(w)
    a = binarize(w)
    k_out = [sum(row) for row in a]
    k_in = [sum(a[i][j] for i in range(b)) for j in range(b)]
    k_tot = [o + i for o, i in zip(k_out, k_in)]
    return [
        (k_tot[i], k_tot[j]) for i in range(b) for j in range(b) if a[i][j]
    ]


def _pooled_pearson(edges):
    """Pearson over both edge orientations; None when degenerate."""
    pooled = [(x, y) for x, y in edges] + [(y, x) for x, y in edges]
    xs = [p[0] for p in pooled]
    ys = [p[1] for p in pooled]
    if len(set(xs + ys)) <= 1:
        return None
    n = len(pooled)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    cov = math.fsum((x - mx) * (y - my) for x, y in pooled)
    vx = math.fsum((x - mx) ** 2 for x in xs)
    vy = math.fsum((y - my) ** 2 for y in ys)
    if vx == 0.0 or vy == 0.0:
        return None
    return cov / math.sqrt(vx * vy)


def _categorical_coef(edges):
    """Exact mixing-matrix coefficient as a Fraction; None when degenerate."""
    m = len(edges)
    cats = sorted({v for e in edges for v in e})
    row = {c: 0 for c in cats}
    col = {c: 0 for c in cats}
    diag = 0
    for x, y in edges:
        row[x] += 1
        col[y] += 1
        if x == y:
            diag += 1
    trace = Fraction(diag, m)
    ab = sum(Fraction(row[c], m) * Fraction(col[c], m) for c in cats)
    if ab == 1:
        return None
    return (trace - ab) / (1 - ab)


def oracle_assortativity_stats(w):
    """Dict of the four coefficients, or None when degenerate."""
    edges = _edge_list(w)
    if len(edges) < 2:
        return None
    scalar = _pooled_pearson(edges)
    if scalar is None:
        return None
    scalar_var_terms = []
    for drop in range(len(edges)):
        rest = edges[:drop] + edges[drop + 1 :]
        r = _pooled_pearson(rest)
        if r is not None:
            scalar_var_terms.append((r - scalar) ** 2)

    cat = _categorical_coef(edges)
    cat_var_terms = []
    for drop in range(len(edges)):
        rest = edges[:drop] + edges[drop + 1 :]
        r = _categorical_coef(rest)
        if r is not None:
            cat_var_terms.append((float(r) - float(cat)) ** 2)
    return {
        "scalar_assort_coef": scalar,
        "scalar_assort_var": math.fsum(scalar_var_terms),
        "assort_coef": float(cat),
        "assort_var": math.fsum(cat_var_terms),
    }


def oracle_detect_communities(w):
    """Replay of the greedy merge sequence with identical float steps."""
    b = len(w)
    s = [[float(w[i][j] + w[j][i]) for j in range(b)] for i in range(b)]
    two_m = 0.0
    for i in range(b):
        for j in range(b):
            two_m += s[i][j]
    assert two_m > 0.0, "oracle needs at least one edge"

    e = [row[:] for row in s]
    tot = [sum(row) for row in s]
    ids = list(range(b))
    members = {i: [i] for i in ids}

    labels = list(range(b))
    trace = sum(e[i][i] for i in range(b))
    acc = 0.0
    for t in tot:
        v = t / two_m
        acc += v * v
    q = trace / two_m - acc
    best_q = q

    while len(ids) > 1:
        n = len(ids)
        tm2 = two_m * two_m
        top = -INF
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                g = 2.0 * (e[i][j] / two_m - (tot[i] * tot[j]) / tm2)
                if g > top:
                    top = g
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                g = 2.0 * (e[i][j] / two_m - (tot[i] * tot[j]) / tm2)
                if g == top:
                    pairs.append((min(ids[i], ids[j]), max(ids[i], ids[j])))
        id_a, id_b = min(pairs)
        ia, ib = ids.index(id_a), ids.index(id_b)

        for c in range(n):
            e[ia][c] = e[ia][c] + e[ib][c]
        for r in range(n):
            e[r][ia] = e[r][ia] + e[r][ib]
        del e[ib]
        for row in e:
            del row[ib]
        tot[ia] += tot[ib]
        del tot[ib]
        members[id_a].extend(members.pop(id_b))
        ids.pop(ib)

        q += top
        if q > best_q + 1e-15:
            best_q = q
            for cid in ids:
                for node in members[cid]:
                    labels[node] = cid
    return labels


def oracle_modularity_stats(w, labels):
    b = len(w)
    s = [[float(w[i][j] + w[j][i]) for j in range(b)] for i in range(b)]
    two_m = math.fsum(v for row in s for v in row)
    strength = [math.fsum(row) for row in s]
    q_total = (
        math.fsum(
            s[i][j] - strength[i] * strength[j] / two_m
            for i in range(b)
            for j in range(b)
            if labels[i] == labels[j]
        )
        / two_m
    )
    m = math.fsum(float(v) for row in w for v in row)
    w_out = [math.fsum(float(v) for v in row) for row in w]
    w_in = [math.fsum(float(w[i][j]) for i in range(b)) for j in range(b)]
    q_out = (
        math.fsum(
            float(w[i][j]) - w_out[i] * w_in[j] / m
            for i in range(b)
            for j in range(b)
            if labels[i] == labels[j]
        )
        / m
    )
    return q_total, q_out


def exhaustive_best_partition_q(w):
    """Max q_total_degree over every set partition (small graphs only)."""

    def partitions(nodes):
        if not nodes:
            yield []
            return
        first, rest = nodes[0], nodes[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
            yield [[first]] + part

    b = len(w)
    best = -INF
    best_partition = None
    for part in partitions(list(range(b))):
        labels = [0] * b
        for cid, block in enumerate(part):
            for node in block:
                labels[node] = cid
        q, _ = oracle_modularity_stats(w, labels)
        if q > best + 1e-15:
            best = q
            best_partition = part
    return best, best_partition


def oracle_deformation_ratio(p):
    b = len(p)
    cells = [(i, j, p[i][j]) for i in range(b) for j in range(b) if p[i][j] > 0]
    assert cells, "oracle needs a positive cell"
    root2 = math.sqrt(2.0)

    def weighted_std(coord):
        mean = math.fsum(mass * coord(i, j) for i, j, mass in cells)
        var = math.fsum(mass * coord(i, j) ** 2 for i, j, mass in cells) - mean**2
        return math.sqrt(max(var, 0.0))

    s_main = weighted_std(lambda i, j: (i + j) / root2)
    s_anti = weighted_std(lambda i, j: (i - j) / root2)
    if s_main == 0.0 and s_anti == 0.0:
        return 0.0
    return (s_main - s_anti) / max(s_main, s_anti)


def oracle_measure_all(w, sample_count):
    """Full report dict with the library's flagged-zero conventions."""
    b = len(w)
    report = {}
    flags = []
    report.update(oracle_degree_stats(w))
    report.update(oracle_clustering_stats(w))
    p = [[w[i][j] / sample_count for j in range(b)] for i in range(b)]
    report["deformation_R"] = oracle_deformation_ratio(p)

    paths = oracle_path_stats(w)
    if paths is None:
        report["mean_len_directed"] = 0.0
        report["mean_len_undirected"] = 0.0
        flags += ["mean_len_directed", "mean_len_undirected"]
    else:
        report["mean_len_directed"], report["mean_len_undirected"] = paths

    assort = oracle_assortativity_stats(w)
    if assort is None:
        for name in (
            "scalar_assort_coef",
            "scalar_assort_var",
            "assort_coef",
            "assort_var",
        ):
            report[name] = 0.0
            flags.append(name)
    else:
        report.update(assort)

    labels = oracle_detect_communities(w)
    q_total, q_out = oracle_modularity_stats(w, labels)
    report["modularity_total_degree"] = q_total
    report["modularity_out_degree"] = q_out

    report["bin_count"] = b
    report["sample_count"] = sample_count
    report["flags"] = tuple(sorted(set(flags)))
    return report


HURST_BLOCK_SIZES = (8, 16, 32, 64, 128)


def estimate_hurst(values):
    """Aggregated-variance Hurst estimate of a series' values.

    Splits the series into blocks of size m in HURST_BLOCK_SIZES, fits
    log Var(block means) (sample variance) against log m by least squares,
    and returns 1 + slope / 2.
    """
    values = [float(v) for v in values]
    n = len(values)
    if n < 2 * HURST_BLOCK_SIZES[-1]:
        raise LengthTooShort(
            f"hurst estimation needs at least {2 * HURST_BLOCK_SIZES[-1]} points, got {n}"
        )
    xs, ys = [], []
    for m in HURST_BLOCK_SIZES:
        means = [math.fsum(values[i : i + m]) / m for i in range(0, n - m + 1, m)]
        mu = math.fsum(means) / len(means)
        var = math.fsum((v - mu) ** 2 for v in means) / (len(means) - 1)
        xs.append(math.log(m))
        ys.append(math.log(var))
    x_bar = math.fsum(xs) / len(xs)
    y_bar = math.fsum(ys) / len(ys)
    slope = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / math.fsum(
        (x - x_bar) ** 2 for x in xs
    )
    return 1.0 + slope / 2.0


def oracle_circulant_fgn(eig, seeds):
    """Davies-Harte draws of length n, one row per seed, from the embedding's
    eigenvalues 0..n: each seed's normals give n + 1 real parts, then n - 1
    imaginary parts of a Hermitian spectrum with E|y_k|^2 = eig_k."""
    n = len(eig) - 1
    m = 2 * n
    y = np.empty((len(seeds), m), dtype=np.complex128)
    for row, seed in zip(y, seeds):
        rng = np.random.default_rng(seed)
        zr = rng.standard_normal(n + 1)
        zi = rng.standard_normal(n - 1)
        row[0] = math.sqrt(eig[0]) * zr[0]
        row[n] = math.sqrt(eig[n]) * zr[n]
        row[1:n] = np.sqrt(eig[1:n]) * (zr[1:n] + 1j * zi) / math.sqrt(2.0)
    y[:, n + 1 :] = np.conj(y[:, n - 1 : 0 : -1])
    return (np.fft.fft(y)[:, :n] / math.sqrt(m)).real
