"""Deformation ratio and the twenty-statistic measure battery.

Degrees, clustering and path lengths are defined on the binarized graph
(edge present iff weight > 0); self-loops count in degrees but are removed
for clustering and paths. Modularity is the only weighted family. Every
statistic here has a matching brute-force oracle in the test suite.
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
_MODULARITY_FIELDS = ("modularity_total_degree", "modularity_out_degree")


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
    a = _binarized(net).astype(np.int64)
    np.fill_diagonal(a, 0)

    u = ((a + a.T) > 0).astype(np.int64)
    deg = u.sum(axis=1)
    closed = np.diagonal(u @ u @ u).astype(np.float64)
    triples = (deg * (deg - 1)).astype(np.float64)
    global_coef = float(closed.sum() / triples.sum()) if triples.sum() > 0 else 0.0
    local_u = np.divide(closed, triples, out=np.zeros_like(closed), where=triples > 0)

    s = a + a.T
    s3 = np.diagonal(s @ s @ s).astype(np.float64)
    d_tot = a.sum(axis=1) + a.sum(axis=0)
    d_bi = np.diagonal(a @ a)
    denom = 2.0 * (d_tot * (d_tot - 1) - 2 * d_bi)
    local_d = np.divide(s3, denom, out=np.zeros_like(s3), where=denom > 0)

    return ClusteringStats(
        global_coef=global_coef,
        std_local=float(local_u.std()),
        mean_local_undirected=float(local_u.mean()),
        mean_local_directed=float(local_d.mean()),
    )


def _bfs_distance_sums(adj: np.ndarray) -> tuple[int, int]:
    """(sum of finite distances, number of reachable ordered pairs i != j)."""
    n = len(adj)
    total = 0
    count = 0
    for source in range(n):
        visited = np.zeros(n, dtype=bool)
        visited[source] = True
        frontier = visited.copy()
        dist = 0
        while True:
            reached = adj[frontier].any(axis=0) & ~visited
            if not reached.any():
                break
            dist += 1
            hits = int(reached.sum())
            total += dist * hits
            count += hits
            visited |= reached
            frontier = reached
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


def detect_communities(net: CouplingNetwork) -> np.ndarray:
    """Greedy agglomerative modularity maximization.

    Works on the weighted undirected projection W + W^T with self-loops kept
    as node strength. Communities start as singletons and are merged pairwise
    by best modularity gain, ties broken by the lexicographically smallest
    pair of community ids (a community's id is its smallest member node).
    Returns the labels of the highest-modularity partition encountered.
    """
    if int(net.weights.sum()) == 0:
        raise NoEdges("cannot detect communities without edges")
    s = (net.weights + net.weights.T).astype(np.float64)
    two_m = s.sum()

    e = s.copy()
    tot = s.sum(axis=1)
    ids = list(range(net.bin_count))
    members = {i: [i] for i in ids}

    best_labels = np.arange(net.bin_count, dtype=np.int64)
    q = float(np.trace(e) / two_m - ((tot / two_m) ** 2).sum())
    best_q = q

    while len(ids) > 1:
        gain = 2.0 * (e / two_m - np.outer(tot, tot) / (two_m * two_m))
        np.fill_diagonal(gain, -np.inf)
        top = gain.max()
        cand = np.argwhere(gain == top)
        pairs = sorted(
            (min(ids[i], ids[j]), max(ids[i], ids[j])) for i, j in cand if i < j
        )
        id_a, id_b = pairs[0]
        ia, ib = ids.index(id_a), ids.index(id_b)

        e[ia, :] += e[ib, :]
        e[:, ia] += e[:, ib]
        e = np.delete(np.delete(e, ib, axis=0), ib, axis=1)
        tot[ia] += tot[ib]
        tot = np.delete(tot, ib)
        members[id_a].extend(members.pop(id_b))
        ids.pop(ib)

        q += top
        if q > best_q + 1e-15:
            best_q = q
            for cid in ids:
                best_labels[members[cid]] = cid
    return best_labels


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
    if net.sample_count <= 0:
        raise EmptyNetwork("cannot measure an empty network")
    if net.bin_count < 3:
        raise ValueError("measure battery needs at least 3 bins")

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

    try:
        mod = modularity_stats(net, detect_communities(net))
        q_total, q_out = mod.q_total_degree, mod.q_out_degree
    except NoEdges:
        q_total, q_out = 0.0, 0.0
        flags.extend(_MODULARITY_FIELDS)

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
        modularity_total_degree=q_total,
        modularity_out_degree=q_out,
        degree_concentration=deg.concentration,
        bin_count=net.bin_count,
        sample_count=net.sample_count,
        flags=tuple(sorted(set(flags))),
    )
