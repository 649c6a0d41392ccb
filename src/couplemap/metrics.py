"""Deformation ratio and the twenty-statistic measure battery.

Degrees, clustering and path lengths are defined on the binarized graph
(edge present iff weight > 0); self-loops count in degrees but are removed
for clustering and paths. Modularity is the only weighted family. Every
statistic here has a matching brute-force oracle in the test suite.

measure_many measures networks of one bin count together: greedy community
detection runs once per stack of networks, every other family per network,
and each report equals measure_all's for that network alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DegenerateDegrees,
    EmptyDistribution,
    EmptyNetwork,
    InvalidPartition,
    NoEdges,
)
from .netmap import CouplingNetwork, joint_probability

#: MeasureReport schema, in report order. The first twenty names are the
#: radar measures; degree_concentration rides along as the 21st field.
TABLE_FIELDS = (
    "mean_sq_k_total",
    "mean_sq_k_out",
    "mean_sq_k_in",
    "mean_k_total",
    "mean_k_out",
    "mean_k_in",
    "std_k_total",
    "cl_global_std",
    "cl_local_undirected_mean",
    "cl_local_directed_mean",
    "cl_global",
    "scalar_assort_var",
    "mean_len_directed",
    "mean_len_undirected",
    "deformation_R",
    "assort_var",
    "assort_coef",
    "scalar_assort_coef",
    "modularity_total_degree",
    "modularity_out_degree",
)
MEASURE_FIELDS = TABLE_FIELDS + ("degree_concentration",)

_ASSORT_FIELDS = ("scalar_assort_var", "assort_var", "assort_coef", "scalar_assort_coef")
_PATH_FIELDS = ("mean_len_directed", "mean_len_undirected")


@dataclass(frozen=True)
class DegreeStats:
    mean_sq_total: float
    mean_sq_out: float
    mean_sq_in: float
    mean_total: float
    mean_out: float
    mean_in: float
    std_total: float
    concentration: float


@dataclass(frozen=True)
class ClusteringStats:
    global_coef: float
    std_local: float
    mean_local_undirected: float
    mean_local_directed: float


@dataclass(frozen=True)
class PathStats:
    mean_directed: float
    mean_undirected: float


@dataclass(frozen=True)
class AssortStats:
    coef: float
    coef_var: float
    scalar_coef: float
    scalar_coef_var: float


@dataclass(frozen=True)
class ModularityStats:
    q_total_degree: float
    q_out_degree: float


def _binarized(net: CouplingNetwork) -> np.ndarray:
    return net.weights > 0


def deformation_ratio(p: np.ndarray) -> float:
    """Normalized spread difference along the two diagonals.

    Each cell (i, j) is a point mass p[i, j] at coordinates (i, j). The mass
    is projected onto the main-diagonal direction u = (i + j) / sqrt(2) and
    the anti-diagonal direction v = (i - j) / sqrt(2); R is the normalized
    difference of the two weighted population standard deviations, +1 when
    all mass sits on the main diagonal (>= 2 cells) and 0 for symmetric
    distributions.
    """
    p = np.asarray(p, dtype=np.float64)
    if not np.any(p > 0):
        raise EmptyDistribution("joint probability has no positive cell")
    idx = np.arange(len(p), dtype=np.float64)
    ii = idx[:, None]
    jj = idx[None, :]
    u = (ii + jj) / math.sqrt(2.0)
    v = (ii - jj) / math.sqrt(2.0)
    var_main = max(float((p * u * u).sum() - (p * u).sum() ** 2), 0.0)
    var_anti = max(float((p * v * v).sum() - (p * v).sum() ** 2), 0.0)
    s_main, s_anti = math.sqrt(var_main), math.sqrt(var_anti)
    if s_main == 0.0 and s_anti == 0.0:
        return 0.0
    return (s_main - s_anti) / max(s_main, s_anti)


def degree_stats(net: CouplingNetwork) -> DegreeStats:
    """Unweighted neighbor counts over all B nodes, isolated ones included.

    A self-loop counts once in the out-degree and once in the in-degree of
    its node. The concentration ratio <k>^2 / <k^2> is 0 for an empty graph.
    """
    a = _binarized(net)
    k_out = a.sum(axis=1)
    k_in = a.sum(axis=0)
    k_tot = k_out + k_in
    mean_tot = float(k_tot.mean())
    mean_sq_tot = float((k_tot.astype(np.float64) ** 2).mean())
    concentration = mean_tot**2 / mean_sq_tot if mean_sq_tot > 0 else 0.0
    return DegreeStats(
        mean_sq_total=mean_sq_tot,
        mean_sq_out=float((k_out.astype(np.float64) ** 2).mean()),
        mean_sq_in=float((k_in.astype(np.float64) ** 2).mean()),
        mean_total=mean_tot,
        mean_out=float(k_out.mean()),
        mean_in=float(k_in.mean()),
        std_total=float(k_tot.std()),
        concentration=concentration,
    )


def clustering_stats(net: CouplingNetwork) -> ClusteringStats:
    """Triangle-density measures on the loop-free binarized graph.

    global_coef is the transitivity of the undirected projection; local
    values are averaged over all B nodes with degree-<2 nodes contributing
    0. The directed local coefficient counts all triangle orientations:
    C_i = [(A + A^T)^3]_ii / (2 [d_i (d_i - 1) - 2 d_bi,i]) with
    d_bi,i = (A^2)_ii the number of reciprocal neighbors.
    """
    if net.bin_count < 3:
        raise ValueError("clustering needs at least 3 bins")
    # float64 so the products go to BLAS; every count stays below 2**53,
    # so the results are exact integers, as with int64
    a = _binarized(net).astype(np.float64)
    np.fill_diagonal(a, 0.0)

    u = ((a + a.T) > 0).astype(np.float64)
    deg = u.sum(axis=1)
    closed = np.einsum("ij,ji->i", u @ u, u)
    triples = deg * (deg - 1)
    global_coef = float(closed.sum() / triples.sum()) if triples.sum() > 0 else 0.0
    local_u = np.divide(closed, triples, out=np.zeros_like(closed), where=triples > 0)

    s = a + a.T
    s3 = np.einsum("ij,ji->i", s @ s, s)
    d_tot = a.sum(axis=1) + a.sum(axis=0)
    d_bi = np.einsum("ij,ji->i", a, a)
    denom = 2.0 * (d_tot * (d_tot - 1) - 2 * d_bi)
    local_d = np.divide(s3, denom, out=np.zeros_like(s3), where=denom > 0)

    return ClusteringStats(
        global_coef=global_coef,
        std_local=float(local_u.std()),
        mean_local_undirected=float(local_u.mean()),
        mean_local_directed=float(local_d.mean()),
    )


def _bfs_distance_sums(adj: np.ndarray) -> tuple[int, int]:
    """(sum of finite distances, number of reachable ordered pairs i != j).

    Breadth-first search from every source at once: row i of the frontier
    holds the nodes first reached from i at the current distance.
    """
    a = adj.astype(np.float64)
    reach = np.eye(len(adj), dtype=bool)
    frontier = reach
    total = 0
    count = 0
    dist = 0
    while True:
        frontier = ((frontier @ a) > 0) & ~reach
        hits = int(frontier.sum())
        if not hits:
            break
        dist += 1
        total += dist * hits
        count += hits
        reach |= frontier
    return total, count


def path_stats(net: CouplingNetwork) -> PathStats:
    """Mean unweighted shortest-path lengths, self-loops ignored.

    Directed means run over all ordered reachable pairs, undirected over
    connected unordered pairs of the symmetrized graph; unreachable pairs
    are excluded rather than imputed.
    """
    a = _binarized(net).copy()
    np.fill_diagonal(a, False)
    if not a.any():
        raise NoEdges("no edges outside the diagonal")
    d_total, d_count = _bfs_distance_sums(a)
    u_total, u_count = _bfs_distance_sums(a | a.T)
    return PathStats(
        mean_directed=d_total / d_count,
        mean_undirected=u_total / u_count,
    )


def _pearson_int(m: int, sxy: int, sp2: int, sq2: int) -> tuple[int, int]:
    """Numerator/denominator of the endpoint-pooled Pearson coefficient.

    Exact integers: r = (4 M Sxy - Sp2^2) / (2 M Sq2 - Sp2^2) where
    Sxy = sum(x y), Sp2 = sum(x + y), Sq2 = sum(x^2 + y^2) over edges.
    A zero denominator means every endpoint degree is identical.
    """
    return 4 * m * sxy - sp2 * sp2, 2 * m * sq2 - sp2 * sp2


def assortativity_stats(net: CouplingNetwork) -> AssortStats:
    """Degree-mixing coefficients over the binarized edge list.

    scalar_coef correlates total degrees across edge endpoints with both
    orientations pooled (each edge contributes (x, y) and (y, x)), the
    form that yields -1 for a directed star. coef treats each distinct
    total-degree value as a category on the directed mixing matrix.
    Variances are delete-one-edge jackknife sums; leave-one-out
    coefficients that are themselves degenerate are skipped. When all
    endpoint degrees are identical (fewer than 2 edges included) both
    coefficients are undefined and DegenerateDegrees is raised.
    """
    a = _binarized(net)
    k_out = a.sum(axis=1)
    k_in = a.sum(axis=0)
    k_tot = (k_out + k_in).astype(np.int64)
    src, dst = np.nonzero(a)
    m = len(src)
    if m < 2:
        raise DegenerateDegrees(f"need at least 2 edges, got {m}")
    x = k_tot[src]
    y = k_tot[dst]

    sxy = int((x * y).sum())
    sp2 = int((x + y).sum())
    sq2 = int((x * x + y * y).sum())
    num, den = _pearson_int(m, sxy, sp2, sq2)
    if den == 0:
        raise DegenerateDegrees("all endpoint degrees identical")
    scalar_coef = num / den

    mp = m - 1
    sxy_e = sxy - x * y
    sp2_e = sp2 - (x + y)
    sq2_e = sq2 - (x * x + y * y)
    num_e = 4 * mp * sxy_e - sp2_e * sp2_e
    den_e = 2 * mp * sq2_e - sp2_e * sp2_e
    ok = den_e != 0
    scalar_var = float((((num_e[ok] / den_e[ok]) - scalar_coef) ** 2).sum())

    cats = np.unique(k_tot[np.concatenate([src, dst])])
    cx = np.searchsorted(cats, x)
    cy = np.searchsorted(cats, y)
    n_cats = len(cats)
    row = np.bincount(cx, minlength=n_cats)
    col = np.bincount(cy, minlength=n_cats)
    se = int((cx == cy).sum())
    sab = int((row * col).sum())
    cnum = m * se - sab
    cden = m * m - sab
    coef = cnum / cden

    se_e = se - (cx == cy)
    sab_e = sab - col[cx] - row[cy] + (cx == cy)
    cnum_e = mp * se_e - sab_e
    cden_e = mp * mp - sab_e
    ok = cden_e != 0
    coef_var = float((((cnum_e[ok] / cden_e[ok]) - coef) ** 2).sum())

    return AssortStats(coef, coef_var, scalar_coef, scalar_var)


# Greedy communities run on stacks of networks that share a bin count B:
# the next min(left, _STACK_CELLS // B**2) networks, so each of the two
# stacked arrays, e and gain, holds at most 2**16 float64 cells (512 KB).
# A stack of fewer than _STACK_MIN networks, or one holding a network of
# N samples with (2N)**2 >= 2**53 (see _communities_stack), runs one
# network at a time. Milliseconds per 32 fGn-lag networks, one at a time
# -> stacked (stack size), 2-CPU host, one thread:
#   B = 50 (26): 37 -> 10    64 (16): 46 -> 14    100 (6): 84 -> 46
#   128 (4): 117 -> 84    150 (2): 163 -> 171    181 (2): 205 -> 214
#   50 (3): 40 -> 35    100 (3): 87 -> 75    50 (2): 34 -> 43    50 (1): 37 -> 77
# Stacks of 2 lose and stacks of 3 win by little, hence the minimum of 4.
# The two stacked arrays raised the benchmark's peak RSS by 1.6% on the
# B = 50 battery and 2.1% on the B = 50 fGn pairs, against a 5% bound, so
# no third (R, B, B) array is kept.
_STACK_CELLS = 2**16
_STACK_MIN = 4


def _stacks(nets):
    """Consecutive lists of networks to measure together, one bin count."""
    bins = None
    stack = []
    for net in nets:
        if bins is None:
            bins = net.bin_count
            size = max(1, _STACK_CELLS // (bins * bins))
        elif net.bin_count != bins:
            raise ValueError(
                f"networks must share one bin count, got {bins} and {net.bin_count}"
            )
        stack.append(net)
        if len(stack) == size:
            yield stack
            stack = []
    if stack:
        yield stack


def _communities_one(net: CouplingNetwork) -> np.ndarray:
    """detect_communities for one network."""
    e = (net.weights + net.weights.T).astype(np.float64)
    two_m = e.sum()
    tot = e.sum(axis=1)
    n = net.bin_count

    labels = np.arange(n, dtype=np.int64)
    best_labels = labels.copy()
    q = float(np.trace(e) / two_m - ((tot / two_m) ** 2).sum())
    best_q = q

    # gain[i, j] for live communities i < j, -inf elsewhere; community i
    # keeps row and column i, so the first maximum in row-major order is
    # the lexicographically smallest best pair
    gain = 2.0 * (e / two_m - np.outer(tot, tot) / (two_m * two_m))
    gain[np.tril_indices(n)] = -np.inf
    live = np.ones(n, dtype=bool)

    for _ in range(n - 1):
        a, b = divmod(int(np.argmax(gain)), n)
        top = gain[a, b]

        e[a, :] += e[b, :]
        e[:, a] += e[:, b]
        tot[a] += tot[b]
        labels[labels == b] = a
        live[b] = False
        gain[b, :] = -np.inf
        gain[:, b] = -np.inf
        row = 2.0 * (e[a] / two_m - tot[a] * tot / (two_m * two_m))
        row[~live] = -np.inf
        gain[a, a + 1 :] = row[a + 1 :]
        gain[:a, a] = row[:a]

        q += top
        if q > best_q + 1e-15:
            best_q = q
            best_labels = labels.copy()
    return best_labels


def _communities_stack(nets) -> list:
    """_communities_one for R networks of B bins at once, bit for bit.

    Each merge step runs once for the whole (R, B, B) stack. gain is
    symmetric with a -inf diagonal: the first row-major maximum of a
    symmetric matrix is the lexicographically smallest best pair, so an
    argmax over each network's B**2 cells keeps _communities_one's tie-break.

    Only positive-gain pairs are merged, and a network stops when it has
    none. _communities_one goes on merging, but never again records a
    partition: the exact gain of a merged pair is the sum of its parts'
    gains, so once every exact gain is <= 0 none becomes positive again.
    A computed gain has the sign of the exact one while (2N)**2 < 2**53
    (N < 4.7e7 samples): e, tot and 2m = 2N are integers, e_ab * 2m and
    tot_a * tot_b are at most (2m)**2 / 2 < 2**52, so the two quotients are
    multiples of 1 / (2m)**2 spaced wider than an ulp, and correctly
    rounded division keeps them apart and in order. With every later gain
    <= 0, q never again exceeds best_q + 1e-15.

    A merged-away community b gets tot[b] = +inf, so every recomputed row
    (of a positive-gain merge, hence tot[a] > 0) reads -inf in column b
    without a live mask. Only the off-diagonal part of e is read after the
    initial q, so a merge adds row b into row a and copies row a into
    column a. Labels are replayed from the merge history at the end, up to
    each network's best step.
    """
    r, n = len(nets), nets[0].bin_count
    e = np.empty((r, n, n))
    for k, net in enumerate(nets):
        np.add(net.weights, net.weights.T, out=e[k])
    two_m = e.sum(axis=(1, 2))
    tm2 = (two_m * two_m)[:, None]
    tot = e.sum(axis=2)
    q = np.trace(e, axis1=1, axis2=2) / two_m - ((tot / two_m[:, None]) ** 2).sum(axis=1)

    gain = tot[:, :, None] * tot[:, None, :]
    gain /= tm2[:, :, None]
    for k in range(r):  # one network at a time, so no third stacked array
        np.subtract(e[k] / two_m[k], gain[k], out=gain[k])
    gain *= 2.0
    flat = gain.reshape(r, n * n)
    flat[:, :: n + 1] = -np.inf

    every = np.arange(r)
    best_q = q.copy()
    best_step = np.zeros(r, dtype=np.int64)
    history = np.full((n - 1, r), -1, dtype=np.int64)  # merged cell a*n + b
    for step in range(1, n):
        cell = flat.argmax(axis=1)
        top = flat[every, cell]
        live = top > 0
        k = np.flatnonzero(live)
        if not len(k):
            break
        a, b = np.divmod(cell[k], n)

        ea = e[k, a] + e[k, b]
        e[k, a] = ea
        e[k, :, a] = ea
        ta = tot[k, a] + tot[k, b]
        tot[k, a] = ta
        tot[k, b] = np.inf
        row = 2.0 * (ea / two_m[k, None] - ta[:, None] * tot[k] / tm2[k])
        gain[k, b] = -np.inf
        gain[k, :, b] = -np.inf
        gain[k, a] = row
        gain[k, :, a] = row
        gain[k, a, a] = -np.inf

        np.add(q, top, out=q, where=live)
        better = q > best_q + 1e-15
        np.copyto(best_q, q, where=better)
        best_step[better] = step
        history[step - 1] = np.where(live, cell, -1)

    steps, nets_k = np.nonzero(
        (history >= 0) & (np.arange(1, n)[:, None] <= best_step)
    )
    a, b = np.divmod(history[steps, nets_k], n)
    labels = np.tile(np.arange(n, dtype=np.int64), (r, 1))
    labels[nets_k, b] = a
    # each merged-away id points at the id it merged into; jump to the roots
    while True:
        roots = np.take_along_axis(labels, labels, axis=1)
        if np.array_equal(roots, labels):
            return list(labels)
        labels = roots


def detect_communities(nets) -> list:
    """Greedy agglomerative modularity maximization, one label array per network.

    The networks must share one bin count (ValueError otherwise). Each works
    on its weighted undirected projection W + W^T with self-loops kept as
    node strength. Communities start as singletons and are merged pairwise
    by best modularity gain, ties broken by the lexicographically smallest
    pair of community ids (a community's id is its smallest member node).
    Each network gets the labels of the highest-modularity partition it
    encountered. Networks are taken in stacks (see _STACK_CELLS); the labels
    equal those of running each network alone.
    """
    labels = []
    for stack in _stacks(nets):
        for net in stack:
            if int(net.weights.sum()) == 0:
                raise NoEdges("cannot detect communities without edges")
        if len(stack) >= _STACK_MIN and all(
            (2 * net.sample_count) ** 2 < 2**53 for net in stack
        ):
            labels += _communities_stack(stack)
        else:
            labels += [_communities_one(net) for net in stack]
    return labels


def modularity_stats(net: CouplingNetwork, partition) -> ModularityStats:
    """Weighted modularity of a partition, total-degree and out-degree null.

    q_total_degree uses the symmetrized weights with the strength-product
    null model; q_out_degree uses the directed null w_out,i * w_in,j / m on
    the raw weights.
    """
    labels = np.asarray(partition, dtype=np.int64)
    if labels.shape != (net.bin_count,):
        raise InvalidPartition("partition must label every node")
    if int(net.weights.sum()) == 0:
        raise NoEdges("modularity of an edgeless network is undefined")
    same = labels[:, None] == labels[None, :]

    s = (net.weights + net.weights.T).astype(np.float64)
    two_m = s.sum()
    strength = s.sum(axis=1)
    q_total = float(
        (s[same].sum() - (np.outer(strength, strength) / two_m)[same].sum()) / two_m
    )

    w = net.weights.astype(np.float64)
    m = w.sum()
    w_out = w.sum(axis=1)
    w_in = w.sum(axis=0)
    q_out = float((w[same].sum() - (np.outer(w_out, w_in) / m)[same].sum()) / m)

    return ModularityStats(q_total, q_out)


@dataclass(frozen=True)
class MeasureReport:
    """The twenty radar statistics plus the degree-concentration ratio."""

    mean_sq_k_total: float
    mean_sq_k_out: float
    mean_sq_k_in: float
    mean_k_total: float
    mean_k_out: float
    mean_k_in: float
    std_k_total: float
    cl_global_std: float
    cl_local_undirected_mean: float
    cl_local_directed_mean: float
    cl_global: float
    scalar_assort_var: float
    mean_len_directed: float
    mean_len_undirected: float
    deformation_R: float
    assort_var: float
    assort_coef: float
    scalar_assort_coef: float
    modularity_total_degree: float
    modularity_out_degree: float
    degree_concentration: float
    bin_count: int
    sample_count: int
    flags: tuple = ()

    def as_vector(self) -> dict:
        """Measure name -> value, in schema order."""
        return {name: getattr(self, name) for name in MEASURE_FIELDS}

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in MEASURE_FIELDS}
        out["bin_count"] = self.bin_count
        out["sample_count"] = self.sample_count
        out["flags"] = list(self.flags)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MeasureReport":
        kwargs = {f.name: data[f.name] for f in fields(cls) if f.name != "flags"}
        return cls(flags=tuple(data.get("flags", ())), **kwargs)


def measure_all(net: CouplingNetwork) -> MeasureReport:
    """Run the full battery on one network.

    Degenerate sub-measures never abort the report: their fields are set to
    0 and their names recorded in ``flags``.
    """
    return measure_many([net])[0]


def measure_many(nets) -> list:
    """measure_all for each of an iterable of networks sharing one bin count.

    Networks are taken from the iterable one stack at a time and their
    communities detected together (detect_communities); every report equals
    measure_all's for that network alone.
    """
    reports = []
    for stack in _stacks(nets):
        for net in stack:
            if net.sample_count <= 0:
                raise EmptyNetwork("cannot measure an empty network")
            if net.bin_count < 3:
                raise ValueError("measure battery needs at least 3 bins")
        reports += map(_report, stack, detect_communities(stack))
    return reports


def _report(net: CouplingNetwork, labels: np.ndarray) -> MeasureReport:
    flags: list[str] = []
    deg = degree_stats(net)
    clu = clustering_stats(net)
    r = deformation_ratio(joint_probability(net))

    try:
        paths = path_stats(net)
    except NoEdges:
        paths = PathStats(0.0, 0.0)
        flags.extend(_PATH_FIELDS)

    try:
        assort = assortativity_stats(net)
    except DegenerateDegrees:
        assort = AssortStats(0.0, 0.0, 0.0, 0.0)
        flags.extend(_ASSORT_FIELDS)

    mod = modularity_stats(net, labels)

    return MeasureReport(
        mean_sq_k_total=deg.mean_sq_total,
        mean_sq_k_out=deg.mean_sq_out,
        mean_sq_k_in=deg.mean_sq_in,
        mean_k_total=deg.mean_total,
        mean_k_out=deg.mean_out,
        mean_k_in=deg.mean_in,
        std_k_total=deg.std_total,
        cl_global_std=clu.std_local,
        cl_local_undirected_mean=clu.mean_local_undirected,
        cl_local_directed_mean=clu.mean_local_directed,
        cl_global=clu.global_coef,
        scalar_assort_var=assort.scalar_coef_var,
        mean_len_directed=paths.mean_directed,
        mean_len_undirected=paths.mean_undirected,
        deformation_R=r,
        assort_var=assort.coef_var,
        assort_coef=assort.coef,
        scalar_assort_coef=assort.scalar_coef,
        modularity_total_degree=mod.q_total_degree,
        modularity_out_degree=mod.q_out_degree,
        degree_concentration=deg.concentration,
        bin_count=net.bin_count,
        sample_count=net.sample_count,
        flags=tuple(sorted(set(flags))),
    )
