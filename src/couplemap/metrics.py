"""Deformation ratio and the twenty-statistic measure battery.

Degrees, clustering and path lengths are defined on the binarized graph
(edge present iff weight > 0); self-loops count in degrees but are removed
for clustering and paths. Modularity is the only weighted family. Every
statistic here has a matching brute-force oracle in the test suite.

Every family returns report fields: a dict keyed by the MeasureReport
field names (MEASURE_FIELDS) it fills, one per network for degrees and
clustering. measure_all merges them with deformation_R into the report.

measure_many measures networks of one bin count in stacks of as many as
keep each stacked (R, B, B) array within 512 KB (series.stack_size; 26 at
B = 50); it alone cuts the stream into stacks (_stacks). Degrees,
clustering, paths and greedy community detection run once per stack
(degree_stats, clustering_stats, path_stats and detect_communities take
one stack and return one result per network). Assortativity, deformation
and modularity run per network: stacked, assortativity ran slower, and
deformation's float64 stacks raised peak memory by 1.5 MB on the B = 50
battery to save 1% of its time (modularity would need float64 stacks
too). Each report equals measure_all's for that network alone, bit for
bit.

Clustering and paths are integer counts on the loop-free graph, taken
with popcounts of adjacency rows packed into 64-bit words (_packed), over
the stack's edge list (_edges). Nothing here multiplies matrices, so no
BLAS thread runs.

A network measured alone (a stack of fewer than _STACK_MIN, so every
network above B = 104) has its communities detected by _communities_one:
it merges occupied bins only, stops at the last positive-gain merge and
drops merged-away rows once half are dead, with the labels of the full
greedy run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .netmap import CouplingNetwork, joint_probability
from .series import stack_size

_ASSORT_FIELDS = ("scalar_assort_var", "assort_var", "assort_coef", "scalar_assort_coef")
_PATH_FIELDS = ("mean_len_directed", "mean_len_undirected")


@functools.lru_cache(maxsize=4)
def _diagonal_coordinates(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, n) coordinates u = (i + j) / sqrt(2), v = (i - j) / sqrt(2)."""
    idx = np.arange(n, dtype=np.float64)
    u = (idx[:, None] + idx[None, :]) / math.sqrt(2.0)
    v = (idx[:, None] - idx[None, :]) / math.sqrt(2.0)
    u.setflags(write=False)
    v.setflags(write=False)
    return u, v


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
        raise ValueError("joint probability has no positive cell")
    u, v = _diagonal_coordinates(len(p))
    var_main = max(float((p * u * u).sum() - (p * u).sum() ** 2), 0.0)
    var_anti = max(float((p * v * v).sum() - (p * v).sum() ** 2), 0.0)
    s_main, s_anti = math.sqrt(var_main), math.sqrt(var_anti)
    if s_main == 0.0 and s_anti == 0.0:
        return 0.0
    return (s_main - s_anti) / max(s_main, s_anti)


def _adjacency(nets) -> np.ndarray:
    """(R, B, B) bool stack of the networks' binarized weights."""
    a = np.empty((len(nets), nets[0].bin_count, nets[0].bin_count), dtype=bool)
    for k, net in enumerate(nets):
        np.greater(net.weights, 0, out=a[k])
    return a


def _loop_free(nets) -> np.ndarray:
    """_adjacency with the self-loops removed."""
    a = _adjacency(nets)
    n = a.shape[1]
    a[:, np.arange(n), np.arange(n)] = False
    return a


def _packed(rows: np.ndarray) -> np.ndarray:
    """(m, B) bool rows as (m, ceil(B / 64)) uint64 words, zero-padded.

    Cell v of a row is bit v % 8 of the row's byte v // 8. Only bitwise
    operations and popcounts read the words, so the order of the bytes
    within a word never matters.
    """
    m, n = rows.shape
    padded = np.zeros((m, -(-n // 64) * 64), dtype=bool)
    padded[:, :n] = rows
    # one flat pack: packing along axis 1 is about twice as slow
    return np.packbits(padded, bitorder="little").view(np.uint64).reshape(m, -1)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per row of (m, W) uint64 words, as int64.

    Summed one word column at a time: NumPy's sum along a short last axis
    is several times slower.
    """
    counts = np.bitwise_count(words[:, 0]).astype(np.int64)
    for w in range(1, words.shape[1]):
        counts += np.bitwise_count(words[:, w])
    return counts


def _edges(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The true cells of a (G, B, B) bool stack in row-major order: their
    flat numbers (g B + i) B + j, and the row numbers g B + i and g B + j
    of the stack's (G B, B) rows. int32 while every cell number fits, which
    halves the memory of a stack's edge lists."""
    n = adj.shape[1]
    cells = np.flatnonzero(adj).astype(np.int32 if adj.size < 2**31 else np.int64)
    i = cells // n
    j = i // n * n  # g B
    j += cells
    j -= i * n  # g B plus the column
    return cells, i, j


def _pair_counts(rows_a: np.ndarray, rows_b: np.ndarray, i, j) -> np.ndarray:
    """|rows_a[i] & rows_b[j]| for each pair of word rows, as int64.

    The rows are gathered stack_size(W) pairs at a time, so no gathered
    array passes the 512 KB budget.
    """
    counts = np.empty(len(i), dtype=np.int64)
    step = stack_size(rows_a.shape[1])
    for lo in range(0, len(i), step):
        words = np.take(rows_a, i[lo : lo + step], axis=0)
        words &= np.take(rows_b, j[lo : lo + step], axis=0)
        counts[lo : lo + step] = _popcount(words)
    return counts


def degree_stats(stack) -> list:
    """Unweighted neighbor counts over all B nodes, isolated ones included.

    One dict of report fields per network of one stack, a list of networks
    sharing one bin count (measure_many keeps it within stack_size(B**2)).
    A self-loop counts once in the out-degree and once in the in-degree of
    its node.
    """
    a = _adjacency(stack)
    k_out = a.sum(axis=2)
    k_in = a.sum(axis=1)
    k_tot = k_out + k_in
    return [
        {
            "mean_sq_k_total": sq_tot,
            "mean_sq_k_out": sq_out,
            "mean_sq_k_in": sq_in,
            "mean_k_total": tot,
            "mean_k_out": out,
            "mean_k_in": in_,
            "std_k_total": std,
            "degree_concentration": tot**2 / sq_tot,
        }
        for sq_tot, sq_out, sq_in, tot, out, in_, std in zip(
            (k_tot.astype(np.float64) ** 2).mean(axis=1).tolist(),
            (k_out.astype(np.float64) ** 2).mean(axis=1).tolist(),
            (k_in.astype(np.float64) ** 2).mean(axis=1).tolist(),
            k_tot.mean(axis=1).tolist(),
            k_out.mean(axis=1).tolist(),
            k_in.mean(axis=1).tolist(),
            k_tot.std(axis=1).tolist(),
        )
    ]


def clustering_stats(stack) -> list:
    """Triangle-density measures on the loop-free binarized graph.

    One dict of report fields per network of one stack, a list of networks
    sharing one bin count (measure_many keeps it within stack_size(B**2)).
    cl_global is the transitivity of the undirected projection; local
    values are averaged over all B nodes with degree-<2 nodes contributing
    0, and cl_global_std is the undirected ones' standard deviation. The
    directed local coefficient counts all triangle orientations:
    C_i = [S^3]_ii / (2 [d_i (d_i - 1) - 2 d_bi,i]) with S = A + A^T and
    d_bi,i = (A^2)_ii the number of reciprocal neighbors.

    Both numerators are exact integer counts over the undirected edges, by
    popcounts of packed neighbor rows. With U = A | A^T the undirected
    neighbors and Rc = A & A^T the reciprocal ones, S = U + Rc and
    - closed_i = [U^3]_ii = sum over j in U(i) of |U_i & U_j|;
    - [S^3]_ii = sum over j in U(i) of S_ij (|U_i & U_j| + |U_i & Rc_j|
      + |Rc_i & U_j| + |Rc_i & Rc_j|).
    Each edge {i, j} adds its term to both ends. Ratios and means are taken
    in float64 from these integers.
    """
    r, n = len(stack), stack[0].bin_count
    a = _loop_free(stack)
    u = a | a.transpose(0, 2, 1)
    rc = a & a.transpose(0, 2, 1)
    del a
    # each undirected edge {i, j} once, with i < j
    cells, i, j = _edges(u & (np.arange(n)[:, None] < np.arange(n)))
    reciprocal = np.take(rc, cells)
    del cells
    u, rc = _packed(u.reshape(-1, n)), _packed(rc.reshape(-1, n))
    deg, d_bi = _popcount(u), _popcount(rc)
    d_tot = deg + d_bi  # out- plus in-degree
    deg, d_tot, d_bi = (x.astype(np.float64).reshape(r, n) for x in (deg, d_tot, d_bi))

    common = _pair_counts(u, u, i, j)
    walks = common + _pair_counts(u, rc, i, j) + _pair_counts(rc, u, i, j)
    walks += _pair_counts(rc, rc, i, j)
    walks += walks * reciprocal  # S_ij = 2 on a reciprocal pair

    def per_node(values):
        # bincount of an empty edge list gives int64, so cast
        sums = np.bincount(i, values, r * n) + np.bincount(j, values, r * n)
        return sums.astype(np.float64).reshape(r, n)

    closed = per_node(common)
    triples = deg * (deg - 1)
    closed_sum, triples_sum = closed.sum(axis=1), triples.sum(axis=1)
    global_coef = np.divide(
        closed_sum, triples_sum, out=np.zeros_like(closed_sum), where=triples_sum > 0
    )
    local_u = np.divide(closed, triples, out=np.zeros_like(closed), where=triples > 0)

    s3 = per_node(walks)
    denom = 2.0 * (d_tot * (d_tot - 1) - 2 * d_bi)
    local_d = np.divide(s3, denom, out=np.zeros_like(s3), where=denom > 0)

    return [
        {
            "cl_global": coef,
            "cl_global_std": std,
            "cl_local_undirected_mean": mean_u,
            "cl_local_directed_mean": mean_d,
        }
        for coef, std, mean_u, mean_d in zip(
            global_coef.tolist(),
            local_u.std(axis=1).tolist(),
            local_u.mean(axis=1).tolist(),
            local_d.mean(axis=1).tolist(),
        )
    ]


def path_stats(stack) -> list:
    """Mean unweighted shortest-path lengths, self-loops ignored.

    One dict of report fields, or None, per network of one stack, a list
    of networks sharing one bin count (measure_many keeps it within
    stack_size(B**2)). Directed means run over all ordered reachable pairs,
    undirected over connected unordered pairs of the symmetrized graph;
    unreachable pairs are excluded rather than imputed. None when no edge
    leaves the diagonal, where both means are undefined.

    One breadth-first search runs from every source of the stack's 2R
    graphs at once (R directed, then R symmetrized), on packed bit rows
    (Then et al., PVLDB 8(4), 2014): row (g, l) of the frontier holds the
    sources whose search first reaches node l at the current distance. At
    distance 1 that is l's in-neighbors; the next frontier of l is the OR
    of its in-neighbors' rows, less the sources that have reached l before.
    Distance sums and pair counts are integers, divided once at the end.
    """
    r, n = len(stack), stack[0].bin_count
    a = _loop_free(stack)
    # row (g, l) of ins holds l's in-neighbors in graph g
    ins = np.empty((2 * r, n, n), dtype=bool)
    ins[:r] = a.transpose(0, 2, 1)
    np.logical_or(a, ins[:r], out=ins[r:])
    del a
    _, _, source = _edges(ins)
    if not len(source):
        return [None] * r
    source = source.astype(np.intp)  # np.take would convert it at every step
    frontier = _packed(ins.reshape(-1, n))
    del ins
    # sources yet to reach each node: all but the node and its in-neighbors
    unreached = np.tile(_packed(~np.eye(n, dtype=bool)), (2 * r, 1))
    unreached &= ~frontier
    # the nodes with an in-neighbor, and where their in-edges start
    indegree = _popcount(frontier)
    target = np.flatnonzero(indegree)
    starts = (np.cumsum(indegree) - indegree)[target]
    # the in-edges in runs of stack_size(W), so the gathered rows keep
    # within the 512 KB budget; a node's in-edges may span two runs
    step = stack_size(frontier.shape[1])
    runs = []
    for lo in range(0, len(source), step):
        first = np.searchsorted(starts, lo, side="right") - 1
        last = np.searchsorted(starts, lo + step)
        local = starts[first:last] - lo
        local[0] = 0
        runs.append((source[lo : lo + step], local, target[first:last]))
    gathered = np.empty((min(step, len(source)), frontier.shape[1]), dtype=np.uint64)

    def graph_hits():
        return np.bitwise_count(frontier).reshape(2 * r, -1).sum(axis=1, dtype=np.int64)

    hits = graph_hits()
    total, count = hits.copy(), hits.copy()
    dist = 1
    while hits.any():
        dist += 1
        reached = np.zeros_like(frontier)
        for run, local, nodes in runs:
            rows = gathered[: len(run)]
            # "clip" mode writes out= directly; "raise" buffers it first
            np.take(frontier, run, axis=0, out=rows, mode="clip")
            reached[nodes] |= np.bitwise_or.reduceat(rows, local, axis=0)
        np.bitwise_and(reached, unreached, out=frontier)
        unreached ^= frontier
        hits = graph_hits()
        total += dist * hits
        count += hits
    total, count = total.tolist(), count.tolist()
    return [
        {
            "mean_len_directed": total[k] / count[k],
            "mean_len_undirected": total[r + k] / count[r + k],
        }
        if count[k]
        else None
        for k in range(r)
    ]


def _pearson_int(m: int, sxy: int, sp2: int, sq2: int) -> tuple[int, int]:
    """Numerator/denominator of the endpoint-pooled Pearson coefficient.

    Exact integers: r = (4 M Sxy - Sp2^2) / (2 M Sq2 - Sp2^2) where
    Sxy = sum(x y), Sp2 = sum(x + y), Sq2 = sum(x^2 + y^2) over edges.
    A zero denominator means every endpoint degree is identical.
    """
    return 4 * m * sxy - sp2 * sp2, 2 * m * sq2 - sp2 * sp2


def assortativity_stats(net: CouplingNetwork) -> dict | None:
    """Degree-mixing coefficients over the binarized edge list.

    scalar_assort_coef correlates total degrees across edge endpoints with
    both orientations pooled (each edge contributes (x, y) and (y, x)), the
    form that yields -1 for a directed star. assort_coef treats each
    distinct total-degree value as a category on the directed mixing
    matrix. The *_var values are delete-one-edge jackknife sums;
    leave-one-out coefficients that are themselves degenerate are skipped.
    None when all endpoint degrees are identical (fewer than 2 edges
    included), where both coefficients are undefined.
    """
    a = net.weights > 0
    k_out = a.sum(axis=1)
    k_in = a.sum(axis=0)
    k_tot = (k_out + k_in).astype(np.int64)
    src, dst = np.nonzero(a)
    m = len(src)
    x = k_tot[src]
    y = k_tot[dst]

    sxy = int((x * y).sum())
    sp2 = int((x + y).sum())
    sq2 = int((x * x + y * y).sum())
    num, den = _pearson_int(m, sxy, sp2, sq2)
    if den == 0:  # so also with fewer than 2 edges
        return None
    scalar_coef = num / den

    mp = m - 1
    sxy_e = sxy - x * y
    sp2_e = sp2 - (x + y)
    sq2_e = sq2 - (x * x + y * y)
    num_e, den_e = _pearson_int(mp, sxy_e, sp2_e, sq2_e)
    ok = den_e != 0
    scalar_var = float((((num_e[ok] / den_e[ok]) - scalar_coef) ** 2).sum())

    # edge counts by source and by target degree value; a degree value
    # that no endpoint has counts 0, so these are the category sums
    row = np.bincount(x, minlength=2 * net.bin_count + 1)
    col = np.bincount(y, minlength=2 * net.bin_count + 1)
    same = x == y
    se = int(same.sum())
    sab = int((row * col).sum())
    cnum = m * se - sab
    cden = m * m - sab
    coef = cnum / cden

    se_e = se - same
    sab_e = sab - col[x] - row[y] + same
    cnum_e = mp * se_e - sab_e
    cden_e = mp * mp - sab_e
    ok = cden_e != 0
    coef_var = float((((cnum_e[ok] / cden_e[ok]) - coef) ** 2).sum())

    return {
        "assort_coef": coef,
        "assort_var": coef_var,
        "scalar_assort_coef": scalar_coef,
        "scalar_assort_var": scalar_var,
    }


# Networks are measured in stacks that share a bin count B: the next
# series.stack_size(B**2) networks (26 at B = 50, 6 at 100, 4 at 128, 1
# from 182 on), so each stacked (R, B, B) array holds at most 2**16 float64
# cells (512 KB). Greedy communities run one network at a time in a stack
# of fewer than _STACK_MIN networks (so at every B above 104), or in one
# holding a network of N samples with (2N)**2 >= 2**53 (see
# _communities_stack). Milliseconds per 32 fGn-lag networks (H = 0.9,
# N = 2000), one at a time -> stacked (stack size), median of 11
# alternating calls, 2-CPU host:
#   B = 50 (26): 26 -> 11    64 (16): 34 -> 14    95 (7): 52 -> 43
#   100 (6): 55 -> 51    105 (5): 58 -> 60
#   115 (4): 64 -> 74    128 (4): 68 -> 85
# Over four such runs stacks of 6 won by 5-16% and stacks of 5 lost by
# 4-10%. The two stacked community arrays raised the benchmark's peak RSS
# by 1.6% on the B = 50 battery and 2.1% on the B = 50 fGn pairs, against a
# 5% bound, so no third (R, B, B) float64 array is kept there.
_STACK_MIN = 6


def _stacks(nets):
    """Consecutive lists of networks to measure together, one bin count."""
    bins = None
    stack = []
    for net in nets:
        if bins is None:
            bins = net.bin_count
            size = stack_size(bins * bins)
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
    """detect_communities for one network.

    The merge order and every float of _communities_stack's scheme, one
    network at a time, with the rows cut down to what can still merge:

    - Only occupied nodes (tot > 0) take part. An empty node's gain with
      any node is exactly 0, so it never makes a positive merge, and it
      ends as its own singleton. The initial q is taken on the full arrays
      first: summing fewer zeros would change the pairwise-summation order.
    - The loop stops at the first best gain <= 0, for the reason given in
      _communities_stack: no later partition would be recorded.
    - A merged-away community b gets column b of e set to -inf, so every
      later recomputed row reads -inf there (tot stays finite, so this
      holds for empty communities too). Once half the rows are dead, one
      np.ix_ copy drops them, keeping the live ids in order.

    Where (2N)**2 >= 2**53 a computed gain may have the wrong sign, so
    every node is kept and all merges run, as the exhaustive greedy does.
    """
    e = (net.weights + net.weights.T).astype(np.float64)
    two_m = e.sum()
    tm2 = two_m * two_m
    tot = e.sum(axis=1)
    q = float(np.trace(e) / two_m - ((tot / two_m) ** 2).sum())
    best_q = q

    exact = (2 * net.sample_count) ** 2 < 2**53
    ids = np.flatnonzero(tot > 0) if exact else np.arange(net.bin_count)
    e = e[np.ix_(ids, ids)]
    tot = tot[ids]
    ids = ids.tolist()
    # symmetric gain with a -inf diagonal, as in _communities_stack
    gain = 2.0 * (e / two_m - np.outer(tot, tot) / tm2)
    np.fill_diagonal(gain, -np.inf)
    live = np.ones(len(ids), dtype=bool)
    dead = 0

    history = []  # merged (id a, id b), in order
    best_step = 0
    for step in range(1, len(ids)):
        n = len(live)
        a, b = divmod(int(gain.argmax()), n)
        top = gain[a, b]
        if exact and top <= 0:
            break

        ea = e[a]
        ea += e[b]
        e[:, b] = -np.inf
        e[:, a] = ea
        ta = tot[a] + tot[b]
        tot[a] = ta
        row = ea / two_m
        row -= ta * tot / tm2
        row *= 2.0
        gain[a] = row
        gain[:, a] = row
        gain[a, a] = -np.inf
        gain[b] = -np.inf
        gain[:, b] = -np.inf
        history.append((ids[a], ids[b]))

        q += top
        if q > best_q + 1e-15:
            best_q = q
            best_step = step

        live[b] = False
        dead += 1
        if 2 * dead >= n:
            keep = np.flatnonzero(live)
            e = e[np.ix_(keep, keep)]
            gain = gain[np.ix_(keep, keep)]
            tot = tot[keep]
            ids = [ids[i] for i in keep]
            live = live[keep]
            dead = 0

    # walking back, each merged-away id takes its survivor's final label
    labels = list(range(net.bin_count))
    for a, b in reversed(history[:best_step]):
        labels[b] = labels[a]
    return np.array(labels, dtype=np.int64)


def _communities_stack(nets) -> list:
    """_communities_one for R networks of B bins at once, bit for bit.

    Each merge step runs once for the whole (R, B, B) stack. gain is
    symmetric with a -inf diagonal: the first row-major maximum of a
    symmetric matrix is the lexicographically smallest best pair, so an
    argmax over each network's B**2 cells keeps _communities_one's tie-break.

    Only positive-gain pairs are merged, and a network stops when it has
    none. The full greedy run goes on merging, but never again records a
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


def detect_communities(stack) -> list:
    """Greedy agglomerative modularity maximization, one label array per network.

    The caller passes one stack, a list of networks sharing one bin count
    (measure_many keeps it within stack_size(B**2)). Each network works
    on its weighted undirected projection W + W^T with self-loops kept as
    node strength. Communities start as singletons and are merged pairwise
    by best modularity gain, ties broken by the lexicographically smallest
    pair of community ids (a community's id is its smallest member node).
    Each network gets the labels of the highest-modularity partition it
    encountered; the labels equal those of running each network alone.
    """
    if len(stack) >= _STACK_MIN and all(
        (2 * net.sample_count) ** 2 < 2**53 for net in stack
    ):
        return _communities_stack(stack)
    return [_communities_one(net) for net in stack]


def modularity_stats(net: CouplingNetwork, partition) -> dict:
    """Weighted modularity of a partition, total-degree and out-degree null.

    modularity_total_degree uses the symmetrized weights with the
    strength-product null model; modularity_out_degree uses the directed
    null w_out,i * w_in,j / m on the raw weights.
    """
    labels = np.asarray(partition, dtype=np.int64)
    if labels.shape != (net.bin_count,):
        raise ValueError("partition must label every node")
    # the same-community cells in row-major order, as a boolean mask takes
    # them, so every sum below adds the same terms in the same order
    i, j = np.nonzero(labels[:, None] == labels[None, :])

    s = (net.weights + net.weights.T).astype(np.float64)
    two_m = s.sum()
    strength = s.sum(axis=1)
    null = strength[i] * strength[j]
    null /= two_m
    q_total = float((s[i, j].sum() - null.sum()) / two_m)

    w = net.weights.astype(np.float64)
    m = w.sum()
    w_out = w.sum(axis=1)
    w_in = w.sum(axis=0)
    null = w_out[i] * w_in[j]
    null /= m
    q_out = float((w[i, j].sum() - null.sum()) / m)

    return {"modularity_total_degree": q_total, "modularity_out_degree": q_out}


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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["flags"] = list(self.flags)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MeasureReport":
        kwargs = {f.name: data[f.name] for f in fields(cls) if f.name != "flags"}
        return cls(flags=tuple(data.get("flags", ())), **kwargs)


#: MeasureReport schema, in report order. The first twenty names are the
#: radar measures; degree_concentration rides along as the 21st field.
MEASURE_FIELDS = tuple(f.name for f in fields(MeasureReport))[:21]


def measure_all(net: CouplingNetwork) -> MeasureReport:
    """Run the full battery on one network.

    Undefined families never abort the report: where path_stats or
    assortativity_stats returns None, their fields are set to 0.0 and their
    names recorded in ``flags``.
    """
    return measure_many([net])[0]


def measure_many(nets) -> list:
    """measure_all for each of an iterable of networks sharing one bin count.

    Networks are taken from the iterable one stack at a time (see _stacks),
    and each stack's degrees, clustering, paths and communities are
    measured together; every report equals measure_all's for that network
    alone.
    """
    reports = []
    for stack in _stacks(nets):
        if stack[0].bin_count < 3:  # _stacks gives one bin count
            raise ValueError("measure battery needs at least 3 bins")
        reports += map(
            _report,
            stack,
            detect_communities(stack),
            degree_stats(stack),
            clustering_stats(stack),
            path_stats(stack),
        )
    return reports


def _report(
    net: CouplingNetwork, labels: np.ndarray, deg: dict, clu: dict, paths: dict | None
) -> MeasureReport:
    values = {**deg, **clu, "deformation_R": deformation_ratio(joint_probability(net))}
    flags: list[str] = []
    for names, family in (
        (_PATH_FIELDS, paths),
        (_ASSORT_FIELDS, assortativity_stats(net)),
    ):
        if family is None:
            family = dict.fromkeys(names, 0.0)
            flags += names
        values.update(family)
    values.update(modularity_stats(net, labels))
    return MeasureReport(
        **values,
        bin_count=net.bin_count,
        sample_count=net.sample_count,
        flags=tuple(sorted(flags)),
    )
