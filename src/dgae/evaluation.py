"""Distribution-level evaluation of generated graphs plus study tools.

Three per-graph statistics are compared between a reference set and a
generated set: the degree histogram, the clustering-coefficient
histogram, and a small-subgraph (graphlet) orbit histogram. Each
histogram counts per-node values, so it is a distribution on the line,
and two are compared with 1-D earth mover's distance: the L1 distance
between their CDFs or, equally, between their quantile functions. Sets
are compared with a biased squared-MMD V-statistic (diagonal terms
included) under a Gaussian-of-EMD kernel.

Orbit statistic convention: for every node we count its participation
in connected induced subgraphs on 2 to 4 nodes (equivalently the sum
of its graphlet orbit counts), and histogram those totals per graph.
This reading is stated in every report this module writes.

Statistics are computed a set at a time, once for both sets of a
report: graph_stats groups the graphs by node count and works on stacked
(G, n, n) bool adjacency matrices in chunks of bounded size, with
triangles counted exactly in float32 (no count passes n^2 < 2**24). Per
statistic it returns one sparse Counts table: CSR-style row offsets, the
bins and counts of each row's nonzero entries, and the histogram length
L. Orbit counting packs each node pair's edges across a chunk's graphs
into words of up to 64 bits, one bit per graph, and tests every subset
of 2 to 4 nodes in all graphs at once: a subset is connected where it
holds an edge of every minimal cut, an AND over the cuts of the OR of
each cut's pairs. mmd reads the rows of both sets as one such table,
computes each EMD of integer counts exactly on the grid of the two
histograms' own totals n and m (their quantile functions at the shares
k/n and k/m) or at the occupied bins, and sums kernel values over row
blocks into a 2 x 2 table by set, with no N x N matrix, skipping the
pairs whose kernel is exactly 0.0.

Every CSV report goes through write_report, whose comment lines state
its conventions. Both ablation studies are one _sweep over (cell, seed).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import training

_REPORT_NOTES = [
    "# mmd: biased squared-MMD V-statistic (diagonal terms included), kernel exp(-emd^2 / "
    "(2 sigma^2)) over 1-D EMD of normalized histograms, exact on each size pair's own grid",
    "# orbit statistic: per-node participation counts in connected induced "
    "subgraphs on 2..4 nodes, histogrammed per graph",
]


# ---------------------------------------------------------------------------
# graphlet orbit machinery

def _pairs(s):
    return list(itertools.combinations(range(s), 2))


_ORBIT_TABLES = None


def graphlet_orbit_tables():
    """Connectedness lookup per subgraph size.

    Returns {s: table} for s in 2, 3, 4, where table is a boolean array
    indexed by the edge-pattern code of an s-node subgraph (bit b set
    when the b-th pair of itertools.combinations(range(s), 2) is an
    edge) and True when that pattern is connected: every entry of
    (A + I)^(s - 1) is nonzero for its adjacency matrix A. They are the
    one definition of connectedness: node_orbit_counts tests it through
    the cuts that _cuts reads off them. The tables are built on first
    use, all codes of a size at once, and cached in the module global
    _ORBIT_TABLES; setting it to None makes the next call build them
    again, which is how the eval workload of dgaebench/run.py makes
    every set-up pay for them.
    """
    global _ORBIT_TABLES
    if _ORBIT_TABLES is None:
        tables = {}
        for s in (2, 3, 4):
            i, j = np.array(_pairs(s)).T
            bits = np.arange(1 << len(i))[:, None] >> np.arange(len(i)) & 1
            reach = np.tile(np.eye(s, dtype=np.int64), (len(bits), 1, 1))  # A + I
            reach[:, i, j] = reach[:, j, i] = bits
            tables[s] = (np.linalg.matrix_power(reach, s - 1) > 0).all(axis=(1, 2))
        _ORBIT_TABLES = tables
    return _ORBIT_TABLES


@functools.lru_cache(maxsize=64)
def _subsets(n, s):
    """Read-only (C(n, s), s) array of the s-subsets of range(n) in
    lexicographic order, and (P, C(n, s)) indices into the flattened
    n x n adjacency of each subset's P node pairs, pair by pair. The
    indices are not marked read-only, as np.take copies an index array
    that is; no caller writes to them."""
    count = math.comb(n, s)
    combos = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), s)),
                         dtype=np.int64, count=count * s).reshape(count, s)
    combos.flags.writeable = False
    return combos, np.stack([combos[:, i] * n + combos[:, j] for i, j in _pairs(s)])


@functools.lru_cache(maxsize=64)
def _incidence(n, s):
    """Read-only (C(n, s), n) 0/1 float32 matrix: row k marks the nodes
    of the k-th s-subset of _subsets(n, s)."""
    combos, _ = _subsets(n, s)
    inc = np.zeros((len(combos), n), dtype=np.float32)
    inc[np.arange(len(combos))[:, None], combos] = 1.0
    inc.flags.writeable = False
    return inc


@functools.lru_cache(maxsize=None)
def _cuts(s):
    """Edge-bit lists of the minimal edge cuts of s nodes, read off
    graphlet_orbit_tables()[s]: one list per maximal disconnected
    pattern D (adding any pair it lacks connects it), of the pairs D
    lacks. Connectedness is monotone in the edges, so a pattern is
    connected iff it holds an edge of every cut; for s = 4 that is 7
    cuts, the 4 stars of a node and the 3 splits into two pairs. Cached
    for the life of the process, whatever becomes of _ORBIT_TABLES."""
    table = graphlet_orbit_tables()[s]
    codes = np.arange(len(table))[:, None]
    bits = 1 << np.arange(s * (s - 1) // 2)
    has = (codes & bits) != 0
    maximal = ~table & (table[codes | bits] | has).all(axis=1)
    return [np.flatnonzero(~row).tolist() for row in has[maximal]]


def node_orbit_counts(A):
    """(G, n) int64 per-node orbit totals of a (G, n, n) stack of
    adjacency matrices: the number of connected induced subgraphs on 2
    to 4 nodes that contain each node, which is the sum of its graphlet
    orbit counts.

    Each node pair's edge bits across the G graphs are packed into
    words of 1, 2, 4 or 8 bytes, the fewest that hold G bits (ceil(G /
    64) uint64 words past 32 graphs). Per s, the words of every
    s-subset's pairs are gathered, and the subset is connected in a graph where
    its bit is set in the AND over the cuts of _cuts(s) of the OR over
    each cut's pairs. The connected subsets are unpacked once and
    counted per node by one product with _incidence(n, s).
    """
    G, n, _ = A.shape
    bits = np.packbits(A.reshape(G, n * n).T != 0, axis=1, bitorder="little")
    # (n*n, W) words: bit g of a pair's words is its edge in graph g
    width = min(8, 1 << (bits.shape[1] - 1).bit_length())
    words = np.zeros((n * n, -(-bits.shape[1] // width) * width), dtype=np.uint8)
    words[:, :bits.shape[1]] = bits
    words = words.view(f"u{width}")
    totals = np.zeros((G, n), dtype=np.int64)
    for s in (2, 3, 4):
        if n < s:
            continue
        _, flat = _subsets(n, s)
        pairs = np.take(words, flat, axis=0)  # (P, C(n, s), W)
        connected = None
        for cut in _cuts(s):
            crossed = pairs[cut[0]].copy()
            for b in cut[1:]:
                crossed |= pairs[b]
            if connected is None:
                connected = crossed
            else:
                connected &= crossed
        ok = np.unpackbits(connected.view(np.uint8), axis=1, count=G, bitorder="little")
        # exact: every count is an integer below C(n - 1, s - 1) < 2**24
        totals += (ok.astype(np.float32).T @ _incidence(n, s)).astype(np.int64)
    return totals


# ---------------------------------------------------------------------------
# per-graph statistics, computed a set at a time

@dataclass(frozen=True)
class Counts:
    """A set's histograms, a row each: row i's nonzero entries are the
    counts counts[o:p] at ascending bins bins[o:p], o, p = offsets[i:i +
    2]. Every row is L bins long, so an all-zero row is a point mass at
    L. table[a:b] is rows a to b, as views."""
    offsets: np.ndarray
    bins: np.ndarray
    counts: np.ndarray
    L: int

    def __len__(self):
        return len(self.offsets) - 1

    def __getitem__(self, rows):
        a, b, _ = rows.indices(len(self))
        o = self.offsets[a:b + 1]
        return Counts(o - o[0], self.bins[o[0]:o[-1]], self.counts[o[0]:o[-1]], self.L)


@dataclass(frozen=True)
class GraphStats:
    """A set's three statistics, one Counts table each, rows in input order."""
    degree: Counts      # raw counts, unit bins
    clustering: Counts  # raw counts over [0, 1]
    orbit: Counts       # raw counts of per-node orbit totals, unit bins

    def __len__(self):
        return len(self.degree)


def _counts(hists):
    """hists as a Counts table: a Counts as it is, or a sequence of 1-D
    histograms read once, L their longest length."""
    if isinstance(hists, Counts):
        return hists
    lengths = np.array([len(h) for h in hists], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lengths)])
    flat = np.concatenate([np.zeros(0), *hists])
    at = np.flatnonzero(flat)
    counts, offsets = flat[at], np.searchsorted(at, starts)
    del flat
    at -= np.repeat(starts[:-1], np.diff(offsets))  # bins
    return Counts(offsets, at, counts, int(lengths.max(initial=0)))


# byte budget of graph_stats' largest per-chunk temporary, the (C(n, 4), G)
# float32 connectedness matrix that node_orbit_counts unpacks from its
# words, so that its memory does not grow with the set; from two graphs on,
# the six pair words it gathers per 4-subset take fewer bytes, and from 8
# nodes on so does each (G, n, n) float32 triangle product (below 8 nodes a
# product passes the budget only in a chunk of over 10,000 graphs)
_STATS_CHUNK_BYTES = 1 << 21


def clustering_coefficients(A):
    """(G, n) local clustering coefficients of a (G, n, n) stack of 0/1
    adjacency matrices of any dtype: 2 * triangles / (deg * (deg - 1)),
    0 where a node has fewer than two neighbours."""
    deg = A.sum(axis=2)
    Af = A.astype(np.float32)
    # diag(A @ A @ A) without the third product; exact in float32, as no
    # entry or row sum of the products passes n^2 < 2**24
    tri = ((Af @ Af) * Af.transpose(0, 2, 1)).sum(axis=2).astype(np.int64) // 2
    denom = deg * (deg - 1)
    return np.where(denom > 0, 2.0 * tri / np.maximum(denom, 1), 0.0)


def _uniform_histograms(x, bins):
    """(G, bins) int64 counts of each row of x over [0, 1] in `bins` equal
    bins, equal to np.histogram(row, bins, range=(0, 1))[0] per row: a
    value falls in the last bin whose left edge, from the same linspace
    edges, it reaches, and 1.0 in the last bin; values outside [0, 1]
    are not counted."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    rows = np.broadcast_to(np.arange(len(x))[:, None], x.shape)
    keep = (x >= 0.0) & (x <= 1.0)
    idx = np.minimum(np.searchsorted(edges, x[keep], side="right") - 1, bins - 1)
    return np.bincount(rows[keep] * bins + idx, minlength=len(keep) * bins).reshape(-1, bins)


def _bincounts(v):
    """(G, v.max() + 1) int64: np.bincount of each row of the (G, n) int64 array v."""
    width = int(v.max(initial=0)) + 1
    return np.bincount((v + width * np.arange(len(v))[:, None]).ravel(),
                       minlength=len(v) * width).reshape(-1, width)


def graph_stats(graphs, clustering_bins=100):
    """The GraphStats of a set: per statistic, one Counts table whose
    row k is graph k's histogram.

    Graphs are grouped by node count, and each group's adjacency
    matrices are stacked as bool and processed in chunks whose largest
    temporary stays near _STATS_CHUNK_BYTES: degrees and triangles come
    from batched sums and products, and each kind of histogram of a
    chunk from one binning, whose nonzero entries are kept with their
    input row. At the end one stable sort by row puts each table in
    input order.
    """
    by_n = {}
    for k, g in enumerate(graphs):
        by_n.setdefault(g.n, []).append(k)
    parts, L = ([], [], []), [0, clustering_bins, 0]  # per statistic, per chunk: (rows, bins, counts)
    for n, members in sorted(by_n.items()):
        rows = max(1, _STATS_CHUNK_BYTES // (4 * max(1, math.comb(n, 4))))
        for r in range(0, len(members), rows):
            chunk = members[r:r + rows]
            A = np.stack([graphs[k].edge_categories for k in chunk]) != 0
            coefs = clustering_coefficients(A)
            hists = (_bincounts(A.sum(axis=2)), _uniform_histograms(coefs, clustering_bins),
                     _bincounts(node_orbit_counts(A)))
            for i, h in enumerate(hists):
                at = np.flatnonzero(h)
                parts[i].append((np.take(chunk, at // h.shape[1]), at % h.shape[1], h.ravel()[at]))
                L[i] = max(L[i], h.shape[1])
    tables = []
    for part, width in zip(parts, L):
        row, bins, counts = (np.concatenate([np.zeros(0, np.int64)] + [c[i] for c in part])
                             for i in range(3))
        take = np.argsort(row, kind="stable")
        offsets = np.append(0, np.cumsum(np.bincount(row, minlength=len(graphs))))
        tables.append(Counts(offsets, bins[take], counts[take], width))
    return GraphStats(*tables)


# budget of the row block over which _pair_sums sums kernel values, in bytes
# of float32 (a float64 block is twice it): on the eval benchmark's float32
# tables 256 KB ran 1-6% slower than 512 KB and 128 KB 20%, and it keeps the
# working memory at 2,000 histograms a set near that at 250
_EMD_BLOCK_BYTES = 1 << 18

# float32 holds every integer below 2**24 exactly; size groups of fewer than _GROUP_ROWS
# histograms merge in _emd_tables, as measured in BENCH_size_pair_emd.json ("grouping")
_FLOAT32_EXACT, _GROUP_ROWS = 1 << 24, 16


@functools.lru_cache(maxsize=1024)
def _grid(sizes):
    """(t, widths, l): the shares k/n of every total n in sizes as integers t over
    l = lcm(sizes), where a row of total n reads its sorted value ceil(t n / l) - 1."""
    l = math.lcm(*sizes)
    t = np.unique(np.concatenate([np.arange(l // n, l + 1, l // n) for n in sizes]))
    return t, np.diff(t, prepend=0), l


def _emd_tables(hists):
    """The tables on which mmd compares hists (read by _counts), yielded
    as (ra, Fa, rb, Fb, weights, scale), each (columns, rows) with its
    rows sorted by mean weights @ F: the EMD in bins of rows ra[i] and
    rb[j] is weights @ |Fa[:, i] - Fb[:, j]| * scale, and each pair of
    rows is in one entry. An all-zero row is one count at L.
    Integer counts are grouped by total, and each pair of groups has
    integer entries and weights and scale 1 / l, l the lcm of their
    totals: on their _grid, read off each group's table on its own grid,
    or, where narrower, at the bins U occupied in any row, the counts
    above each times l / n. So l * EMD <= l * L is exact, in float32 if
    below _FLOAT32_EXACT. Other rows take one float64 table of the shares
    above each bin. No table is padded to L.
    """
    h = _counts(hists)
    N, L = len(h), h.L
    step = max(1, N * (_EMD_BLOCK_BYTES >> 5) // max(1, len(h.bins)))

    def read():  # (row, bin, count) of the nonzero counts, a few thousand at a time
        for a in range(0, N, step):
            o = h.offsets[a:a + step + 1]
            yield (np.repeat(np.arange(a, a + len(o) - 1), np.diff(o)), h.bins[o[0]:o[-1]],
                   h.counts[o[0]:o[-1]].astype(np.float64))

    totals, sums, occupied, integer = np.zeros(N), np.zeros(N), np.zeros(L, bool), True
    for row, col, vals in read():
        totals += np.bincount(row, vals, minlength=N)
        sums += np.bincount(row, col * vals, minlength=N)
        occupied[col] = True
        integer = integer and np.all((vals > 0) & (vals == np.floor(vals)))
    n, U = np.where(totals > 0, totals, 1.0), np.flatnonzero(occupied)
    w, sums[totals == 0] = np.diff(np.append(U, L)), L
    sizes, count = np.unique(n, return_counts=True)

    def grouped(few):  # (totals, rows): a total joins the group before while both hold
        groups = []    # fewer than `few` rows and l * L < _FLOAT32_EXACT, l its totals' lcm
        for size, c in zip(sizes.tolist(), count.tolist()):
            last, rows = groups[-1] if groups else ((), few)
            if max(c, rows) < few and math.lcm(*last, size) * L < _FLOAT32_EXACT:
                groups[-1] = (last + (size,), rows + c)
            else:
                groups.append(((size,), c))
        return groups
    exact = integer and sizes[-1] ** 2 * (L + 1) < 2.0 ** 53
    if exact:  # the narrower tables, in elements summed over pairs of groups
        n, sizes = n.astype(np.int64), sizes.astype(np.int64)
        groups = grouped(_GROUP_ROWS)
        cdf = len(U) * N ** 2 <= sum(a * b * len(_grid(tuple(sorted({*sa, *sb})))[0])
                                     for (sa, a), (sb, b) in itertools.product(groups, repeat=2))
        if cdf and 8 * N * len(U) <= _EMD_BLOCK_BYTES:  # any totals, as a float64 copy
            groups = grouped(N + 1)                     # of the table fits a block
    if not exact or cdf:  # each row's counts above each bin of U
        table = np.zeros((N, len(U)), np.min_scalar_type(int(n.max())) if exact else np.float64)
        for row, col, vals in read():
            table[row, np.searchsorted(U, col)] = vals
        np.cumsum(table, axis=1, out=table)
        np.subtract(n[:, None], table, out=table, casting="unsafe")
    if not exact:  # as shares, in one table
        table /= n[:, None]
        rows = np.argsort(table @ w, kind="stable")
        table = np.ascontiguousarray(table[rows].T)
        yield rows, table, rows, table, w.astype(np.float64), 1.0
        return
    if not cdf:  # every row's counts' bins in order, then an all-zero row's one at L
        values = np.append(np.repeat(h.bins, h.counts.astype(np.int64)), L)
        first = np.where(totals > 0, np.cumsum(totals) - totals, len(values) - 1).astype(np.int64)
    for i, (sizes, _) in enumerate(groups):
        rows = np.flatnonzero(np.isin(n, sizes))
        rows = rows[np.argsort(sums[rows] * (math.lcm(*sizes) // n[rows]), kind="stable")]
        if cdf:
            own = np.ascontiguousarray(table[rows].T)
        else:  # the rows' quantile functions on their own group's grid
            t, _, l = _grid(sizes)
            own = values[first[rows] + (t[:, None] - 1) // (l // n[rows])].astype(
                np.float32 if L < _FLOAT32_EXACT else np.float64)
        groups[i] = (sizes, rows, own)

    def side(sizes, rows, own, l, t, dtype):  # a group's table in one entry
        if cdf:
            return np.multiply(own, l // n[rows], dtype=dtype)
        t_own, _, l_own = _grid(sizes)
        if len(t_own) < len(t):  # each share of the wider grid reads the next of its own
            own = own.take(np.searchsorted(t_own * (l // l_own), t), axis=0)
        return own.astype(dtype, copy=False)

    for (sa, ra, A), (sb, rb, B) in itertools.combinations_with_replacement(groups, 2):
        union = tuple(sorted({*sa, *sb}))
        t, weights, l = (None, w, math.lcm(*union)) if cdf else _grid(union)
        dtype = np.float32 if l * L < _FLOAT32_EXACT else np.float64
        Fa = side(sa, ra, A, l, t, dtype)
        Fb = Fa if ra is rb else side(sb, rb, B, l, t, dtype)
        yield ra, Fa, rb, Fb, weights.astype(dtype), 1 / l


# exp(-x) is exactly 0.0 in float64 for x > 745.2, so a pair whose EMD
# exceeds sigma * _REACH, where x = _REACH**2 / 2 = 746, adds exactly 0.0
_REACH = math.sqrt(2.0 * 746.0)


def _pair_sums(Fa, Fb, ya, yb, weights, unit, sigma):
    """(2, 2) sums of exp(-(emd / sigma)^2 / 2), emd = weights @ |a - b| * unit,
    over the rows a of Fa and b of Fb (an _emd_tables entry) in both orders,
    keyed by their one-hot sets ya and yb; with Fb is Fa and yb ya, over
    every ordered pair. Rows of Fa go in blocks of about _EMD_BLOCK_BYTES
    (in float32) that meet, with Fb is Fa, their own square once and the
    rows after it twice, and only the rows whose means m = weights @ F lie
    within sigma * _REACH / unit (plus a rounding bound): |m_a - m_b| *
    unit <= emd, so each pair left out has a kernel of exactly 0.0.
    """
    same, w64 = Fb is Fa, weights.astype(np.float64)
    ma, mb = w64 @ Fa, w64 @ Fb
    top = float(max(-ma[0], ma[-1], -mb[0], mb[-1], 0.0))  # the means are sorted
    sigma = max(sigma / unit, 5e-324)  # in table units, off 0.0: EMD 0 gives 0.0
    reach = sigma * _REACH + 4 * len(weights) * np.finfo(np.float64).eps * top
    lo = np.searchsorted(mb, ma - reach).tolist()
    hi = np.searchsorted(mb, ma + reach, side="right").tolist()
    cap = _EMD_BLOCK_BYTES // (4 * max(1, len(weights)))  # block rows x columns
    total, square, r = np.zeros((2, 2)), np.zeros((2, 2)), 0
    with np.errstate(over="ignore"):  # emd / sigma may overflow to inf: kernel 0.0
        while r < len(ma):
            first = r if same else lo[r]  # first column this block compares with
            rows = min(len(ma) - r, max(1, cap // max(1, hi[r] - first)))
            if rows * (hi[r + rows - 1] - first) > cap:
                # a block's columns end at its last row's, nondecreasing in rows
                size = np.arange(1, rows + 1) * (np.array(hi[r:r + rows]) - first)
                rows = max(1, int(np.searchsorted(size, cap, side="right")))
            last = hi[r + rows - 1]
            # a copy and an outer-broadcast subtract: numpy subtracts about 1.4x
            # slower with the stride-0 operand innermost, as in Fa[..., None] - Fb
            k = np.empty((len(weights), rows, last - first), Fa.dtype)
            np.copyto(k, Fa[:, r:r + rows, None])
            k -= Fb[:, None, first:last]
            np.abs(k, out=k)
            k = weights @ k.reshape(len(weights), rows * (last - first))
            k = np.divide(k, sigma, dtype=np.float64).reshape(rows, last - first)  # emd / sigma
            k *= -0.5 * k
            np.exp(k, out=k)
            total += ya[r:r + rows].T @ k @ yb[first:last]
            if same:
                square += ya[r:r + rows].T @ k[:, :rows] @ ya[r:r + rows]
            r += rows
    return total + total.T - square


def mmd(hists_a, hists_b, sigma=1.0, bin_width=1.0, terms=False):
    """Biased squared-MMD V-statistic between two sets of histograms,
    two Counts tables (such as rows of graph_stats' tables) or two
    sequences of 1-D histograms, under k(x, y) = exp(-emd(x, y)^2 / (2
    sigma^2)), computed as exp(-(emd / sigma)^2 / 2) so that no sigma >
    0 gives a 0/0: as sigma falls to 0 the kernel tends to 1 at EMD 0
    and to 0 elsewhere.
    Identical sets give values <= 1e-12. The kernel is PSD on point-mass
    histograms but not on spread ones (1-D EMD is an L1 distance between
    CDFs, and L1 is not Hilbertian), so the value is not a squared RKHS
    norm there and can be genuinely negative; such values are returned
    as they are. terms=True returns (mmd, k_ref, k_gen, k_cross), the
    mean kernels within hists_a, within hists_b and across them, so that
    mmd_report's statistics stay the mmd spans dgaebench/tracer.py times.

    The EMD is over the tables of _emd_tables, exact for integer counts
    on each size pair's own grid (Vallender 1973); _pair_sums skips only
    pairs of kernel exactly 0.0, so the sums differ from the full double
    sum only in their order.
    """
    if not hists_a or not hists_b:
        raise ValueError("mmd needs nonempty sets")
    a, b, na, nb = hists_a, hists_b, len(hists_a), len(hists_b)
    both = (Counts(np.append(a.offsets, b.offsets[1:] + a.offsets[-1]), np.append(a.bins, b.bins),
                   np.append(a.counts, b.counts), max(a.L, b.L))
            if isinstance(a, Counts) else [*a, *b])  # the rows of hists_a, then of hists_b
    y = np.eye(2)  # one-hot sets
    S = sum(_pair_sums(Fa, Fb, y.take(ra >= na, 0), y.take(rb >= na, 0), w, s * bin_width, sigma)
            for ra, Fa, rb, Fb, w, s in _emd_tables(both))
    k = (float(S[0, 0]) / na ** 2, float(S[1, 1]) / nb ** 2, float(S[0, 1]) / (na * nb))
    val = k[0] + k[1] - 2.0 * k[2]
    # the floor absorbs rounding only; a value past it comes from the
    # kernel not being PSD on spread histograms and is reported as is
    val = 0.0 if -1e-12 < val < 0.0 else val
    return (val, *k) if terms else val


def mmd_report(ref_graphs, gen_graphs, sigma=1.0, clustering_bins=100):
    """All three statistics plus their average, as an ordered dict, then
    each statistic's kernel means k_ref, k_gen and k_cross. One
    graph_stats pass over both sets gives every histogram, and each
    statistic's table is split by row into the two sets; each MMD
    compares them as sums of kernel values over row blocks.
    """
    stats, na = graph_stats([*ref_graphs, *gen_graphs], clustering_bins), len(ref_graphs)
    report, terms = {}, {}
    for stat, width in (("degree", 1.0), ("clustering", 1.0 / clustering_bins), ("orbit", 1.0)):
        table = getattr(stats, stat)
        report["mmd_" + stat], *k = mmd(table[:na], table[na:], sigma, width, True)
        terms.update({f"k_{side}_{stat}": v for side, v in zip(("ref", "gen", "cross"), k)})
    report["mmd_avg"] = sum(report.values()) / 3.0
    return {**report, "ref_count": len(ref_graphs), "gen_count": len(gen_graphs),
            "sigma": sigma, "clustering_bins": clustering_bins, **terms}


def write_report(path, notes, rows):
    """A CSV report: the comment lines notes, a header of the first
    row's keys, then one line per row dict. Floats are written .10g,
    every other value with str."""
    with open(path, "w") as f:
        for line in notes:
            f.write(line + "\n")
        f.write(",".join(rows[0]) + "\n")
        for row in rows:
            f.write(",".join(format(v, ".10g") if isinstance(v, float) else str(v)
                             for v in row.values()) + "\n")


def write_mmd_report(path, report):
    terms = "# per statistic s: mmd_s = k_ref_s + k_gen_s - 2*k_cross_s, the mean kernels"
    write_report(path, _REPORT_NOTES + [terms + " within and across the sets"], [report])


# ---------------------------------------------------------------------------
# ablation studies

def _sweep(base_cfg, cells, seeds, run, log):
    """Run run(cfg) -> {metric: value} once per cell and seed, where
    cells is a list of (cell, config overrides), and return
    {cell: {metric: (mean, std)}} over seeds. A per-epoch metric is a
    sequence, averaged elementwise."""
    results = {}
    for cell, overrides in cells:
        runs = []
        for seed in seeds:
            runs.append(run(replace(base_cfg, seed=seed, **overrides)))
            if log:  # a per-epoch metric logs its last epoch
                log(f"cell {cell} seed {seed}: " + " ".join(
                    f"{k}={np.asarray(v).flat[-1]:.5f}" for k, v in runs[-1].items()))
        stacked = {k: np.array([r[k] for r in runs], dtype=np.float64) for k in runs[0]}
        results[cell] = {k: (v.mean(axis=0), v.std(axis=0)) for k, v in stacked.items()}
    return results


FEATURE_CELLS = [
    ("all", {}),
    ("none", {"feat_paths": False, "feat_spectral": False,
              "feat_cycles": False, "feat_random": False}),
    ("paths-only", {"feat_spectral": False, "feat_cycles": False, "feat_random": False}),
    ("spectral-only", {"feat_paths": False, "feat_cycles": False, "feat_random": False}),
    ("cycles-only", {"feat_paths": False, "feat_spectral": False, "feat_random": False}),
    ("random-only", {"feat_paths": False, "feat_spectral": False, "feat_cycles": False}),
    ("no-paths", {"feat_paths": False}),
    ("no-spectral", {"feat_spectral": False}),
    ("no-cycles", {"feat_cycles": False}),
    ("no-random", {"feat_random": False}),
]


def ablation_feature_report(graphs, base_cfg, out_path=None, seeds=(0, 1, 2),
                            cells=FEATURE_CELLS, log=None):
    """Train the auto-encoder once per (feature cell, seed) and report
    the held-out reconstruction loss per epoch, averaged over seeds.

    Returns {cell: {"loss_recon": (mean, std)}}, each an (epochs,) curve.
    """
    def run(cfg):
        _, info = training.train_autoencoder(graphs, cfg)
        return {"loss_recon": [h["loss_recon"] for h in info["history"]]}

    results = _sweep(base_cfg, cells, seeds, run, log)
    if out_path:
        write_report(out_path, ["# feature ablation: held-out reconstruction loss per "
                                f"epoch, mean and std over seeds {list(seeds)}"],
                     [{"cell": name, "epoch": e, "loss_recon_mean": mu, "loss_recon_std": sd}
                      for name, r in results.items()
                      for e, (mu, sd) in enumerate(zip(*r["loss_recon"]))])
    return results


DEFAULT_CODEBOOK_GRID = [(256, 1), (16, 2), (4, 4), (32, 2), (8, 4)]


def ablation_codebook_report(graphs, base_cfg, out_path=None, grid=None,
                             seeds=(0, 1, 2), with_prior=True, log=None):
    """Sweep (codebook size m, partitions C) cells at fixed dictionary
    sizes M = m**C. Per cell and seed: stage-1 best held-out loss,
    final error rates and normalized perplexity, and (optionally) the
    average generation MMD after stage 2.

    Returns {(m, C): {metric: (mean, std)}}.
    """
    def run(cfg):
        model, info = training.train_autoencoder(graphs, cfg)
        hist = info["history"]
        row = {"loss_recon": min(h["loss_recon"] for h in hist),
               "node_err": hist[-1]["node_err"],
               "edge_err": hist[-1]["edge_err"],
               "perplexity": hist[-1].get("perplexity", float("nan"))}
        if with_prior:
            pparams, _ = training.train_prior(model, graphs, cfg)
            _, val_idx = training.split_dataset(len(graphs), cfg)
            ref = [graphs[i] for i in val_idx]
            gen, _ = training.generate_graphs(model, pparams, cfg, len(ref),
                                              seed=cfg.seed + 7000)
            row["mmd_avg"] = mmd_report(ref, gen, cfg.mmd_sigma, cfg.clustering_bins)["mmd_avg"]
        return row

    grid = DEFAULT_CODEBOOK_GRID if grid is None else grid
    results = _sweep(base_cfg, [((m, C), {"codebook_size": m, "partitions": C})
                                for m, C in grid], seeds, run, log)
    if out_path:
        notes = _REPORT_NOTES + [f"# codebook sweep: mean and std over seeds {list(seeds)}; "
                                 "M = m^C"]
        rows = []
        for (m, C), agg in results.items():
            row = {"m": m, "C": C, "M": m ** C}
            for met, (mu, sd) in agg.items():
                row[met + "_mean"], row[met + "_std"] = mu, sd
            rows.append(row)
        write_report(out_path, notes, rows)
    return results
