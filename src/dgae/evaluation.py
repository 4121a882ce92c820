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

Statistics are computed a set at a time: graph_stats groups a set by
node count and works on stacked (G, n, n) adjacency matrices in chunks
of bounded size. Orbit counting packs each node pair's edges across a
chunk's graphs into words of up to 64 bits, one bit per graph, and
tests every subset of 2 to 4 nodes in all graphs at once: a subset is connected
where it holds an edge of every minimal cut, an AND over the cuts of
the OR of each cut's pairs. mmd puts both sets in one table, whichever
is narrower: CDFs on the bins occupied in any histogram, or, for
integer counts, quantile functions on the merged grid of shares k/n
over every histogram total n. Each kernel mean is a running sum over
blocks of rows, so no N x N matrix is built, and it skips the pairs
whose kernel is exactly 0.0 in float64: those whose weighted means lie
further apart than the EMD at which the kernel underflows.

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
    "# mmd: biased squared-MMD V-statistic (diagonal terms included), "
    "kernel exp(-emd^2 / (2 sigma^2)) over 1-D EMD of normalized histograms",
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

@dataclass
class GraphStats:
    degree_hist: np.ndarray      # raw counts, unit bins
    clustering_hist: np.ndarray  # raw counts over [0, 1]
    orbit_hist: np.ndarray       # raw counts of per-node orbit totals


# byte budget of graph_stats' largest per-chunk temporary, the (C(n, 4), G)
# float32 connectedness matrix that node_orbit_counts unpacks from its
# words, so that its memory does not grow with the set; from two graphs on,
# the six pair words it gathers per 4-subset take fewer bytes
_STATS_CHUNK_BYTES = 1 << 21


def clustering_coefficients(A):
    """(G, n) local clustering coefficients of a (G, n, n) stack of 0/1
    int64 adjacency matrices: 2 * triangles / (deg * (deg - 1)), 0 where
    a node has fewer than two neighbours."""
    deg = A.sum(axis=2)
    Af = A.astype(np.float64)
    # diag(A @ A @ A) without the third product; exact in float64
    tri = np.rint(((Af @ Af) * Af.transpose(0, 2, 1)).sum(axis=2)).astype(np.int64) // 2
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


def _row_bincounts(v):
    """Per row of the (G, n) int64 array v, np.bincount(row)."""
    G = len(v)
    width = int(v.max()) + 1
    counts = np.bincount((v + width * np.arange(G)[:, None]).ravel(),
                         minlength=G * width).reshape(G, width)
    # copies, so no row keeps the chunk's widest padding alive
    return [row[:top + 1].copy() for row, top in zip(counts, v.max(axis=1))]


def graph_stats(graphs, clustering_bins=100):
    """One GraphStats per graph of a set, in input order.

    Graphs are grouped by node count, and each group's adjacency
    matrices are stacked and processed in chunks whose largest
    temporary stays near _STATS_CHUNK_BYTES: degrees and triangles come
    from batched sums and products, and each kind of histogram of a
    chunk from one binning.
    """
    out = [None] * len(graphs)
    by_n = {}
    for k, g in enumerate(graphs):
        by_n.setdefault(g.n, []).append(k)
    for n, members in sorted(by_n.items()):
        rows = max(1, _STATS_CHUNK_BYTES // (4 * max(1, math.comb(n, 4))))
        for r in range(0, len(members), rows):
            chunk = members[r:r + rows]
            A = np.stack([graphs[k].adjacency() for k in chunk])
            degree = _row_bincounts(A.sum(axis=2))
            clustering = _uniform_histograms(clustering_coefficients(A), clustering_bins)
            orbit = _row_bincounts(node_orbit_counts(A))
            for k, d, c, o in zip(chunk, degree, clustering, orbit):
                out[k] = GraphStats(d, c, o)
    return out


# byte budget of the row block over which _kernel_mean sums a comparison's
# kernel values: small enough that the block and the table rows it is made
# from stay in a core's L2 cache; on 250 x 250 orbit histograms budgets of
# 128 KB to 1 MB ran alike, 16 MB about 40% and 64 MB about 140% slower
_EMD_BLOCK_BYTES = 1 << 19


def _cdf_table(M):
    """(F, weights) of the (N, L) histograms M: each normalized row's CDF
    at the bins U nonzero in any row, weighted by the number of bins up
    to the next one (or to L), over which every CDF stays constant."""
    U = np.flatnonzero(M.any(axis=0))
    F = M[:, U]
    F /= np.maximum(M.sum(axis=1, keepdims=True), 1e-300)
    np.cumsum(F, axis=1, out=F)
    return F, np.diff(np.append(U, M.shape[1])).astype(np.float64)


def _quantile_table(M, limit):
    """(F, weights) of the (N, L) histograms M by their quantile functions
    on the reduced fractions a/b = k/n, 0 < k <= n, of every nonzero row
    total n, each weighted by the gap to the fraction before; None unless
    M holds nonnegative integer counts and the grid has under `limit`
    columns. At a/b a row of total n reads the bin of its ceil(a n / b)-th
    count, and an all-zero row reads L, as its all-zero CDF does."""
    if not M.min(initial=0.0) >= 0.0:  # a negative count or NaN
        return None
    n = M.sum(axis=1).astype(np.int64)
    base = int(n.max()) + 1
    # k/T, k = 1..T, are T distinct columns: no k past limit is needed
    k, t = np.arange(1, min(base, limit + 1))[:, None], np.unique(n[n > 0])
    keys = np.unique(((k * base + t) // np.gcd(k, t))[k <= t])  # a * base + b
    # the (N, L) integer check only once the grid is known to be narrow
    if len(keys) >= limit or not np.array_equal(M, np.floor(M)):
        return None
    a, b = np.divmod(keys[np.argsort(keys // base / (keys % base))], base)
    # one search over all rows' running count, each row's ranks offset by
    # the counts before it; an all-zero row's rank 1 lands later: L
    rank = np.maximum((a * n[:, None] + b - 1) // b, 1) + (np.cumsum(n) - n)[:, None]
    at = np.searchsorted(np.cumsum(M.ravel()), rank.ravel()).reshape(rank.shape)
    L = M.shape[1]
    Q = np.minimum(at - np.arange(len(M))[:, None] * L, L)
    return Q.astype(np.float64), np.diff(a / b, prepend=0.0)


def _emd_table(hists):
    """(F, weights) of histograms padded to one length: the quantile
    table where it is narrower than the CDF table, else the CDF table."""
    M = np.zeros((len(hists), max(len(h) for h in hists)))
    for i, h in enumerate(hists):
        M[i, :len(h)] = h
    return _quantile_table(M, np.count_nonzero(M.any(axis=0))) or _cdf_table(M)


# exp(-x) is exactly 0.0 in float64 for x > 745.2, so a pair whose EMD
# exceeds sigma * _REACH, where x = _REACH**2 / 2 = 746, adds exactly 0.0
_REACH = math.sqrt(2.0 * 746.0)


def _reach(Fa, Fb, weights, sigma):
    """(Fa, Fb, lo, hi) for _kernel_mean: the rows of both sides, and per
    row i of Fa the columns lo[i]:hi[i] of Fb whose kernel with it may
    be nonzero, nondecreasing in i; Fb is still Fa if it was.

    The weights are nonnegative, so the gap between two rows' weighted
    means m = F @ weights is at most their EMD. When the means spread
    wider than reach = sigma * _REACH (plus a bound on their rounding),
    each side is sorted by its means and a row reaches only the rows
    whose means lie within reach of its own; otherwise every row reaches
    all of Fb.
    """
    same = Fb is Fa
    ma = Fa @ weights
    mb = ma if same else Fb @ weights
    top = max(ma.max(), mb.max())
    reach = sigma * _REACH + 4 * len(weights) * np.finfo(np.float64).eps * top
    if top - min(ma.min(), mb.min()) <= reach:
        return Fa, Fb, [0] * len(Fa), [len(Fb)] * len(Fa)
    order = np.argsort(ma)
    Fa, ma = Fa[order], ma[order]
    if same:
        Fb, mb = Fa, ma
    else:
        order = np.argsort(mb)
        Fb, mb = Fb[order], mb[order]
    return (Fa, Fb, np.searchsorted(mb, ma - reach).tolist(),
            np.searchsorted(mb, ma + reach, side="right").tolist())


def _kernel_mean(Fa, Fb, weights, sigma):
    """Mean of exp(-(emd(a, b) / sigma)^2 / 2) over every row a of Fa and
    b of Fb, rows of one _emd_table, where emd(a, b) = |a - b| @ weights.

    Rows of Fa go in blocks of about _EMD_BLOCK_BYTES, and each block's
    kernel values are added to a running sum. Called with Fb is Fa, a
    block compares its rows only with themselves and the rows after
    them: its own square is symmetric and counts once, the rest twice.
    A block compares only with the columns _reach gives its rows: every
    pair left out has a kernel of exactly 0.0, so the sum changes only
    in its order.
    """
    same = Fb is Fa
    Fa, Fb, lo, hi = _reach(Fa, Fb, weights, sigma)
    cap = _EMD_BLOCK_BYTES // (8 * max(1, len(weights)))  # block rows x columns
    total = 0.0
    r = 0
    with np.errstate(over="ignore"):  # e / sigma may overflow to inf: kernel 0.0
        while r < len(Fa):
            first = r if same else lo[r]  # first column this block compares with
            rows = min(len(Fa) - r, max(1, cap // max(1, hi[r] - first)))
            if hi[r + rows - 1] > hi[r]:
                # a block's columns end at its last row's, nondecreasing in rows
                size = np.arange(1, rows + 1) * (np.array(hi[r:r + rows]) - first)
                rows = max(1, int(np.searchsorted(size, cap, side="right")))
            k = Fa[r:r + rows, None, :] - Fb[None, first:hi[r + rows - 1], :]
            np.abs(k, out=k)
            k = k @ weights
            k /= sigma
            k *= k
            k *= -0.5
            np.exp(k, out=k)
            total += 2.0 * k.sum() - k[:, :rows].sum() if same else k.sum()
            r += rows
    return total / (len(Fa) * len(Fb))


def mmd(hists_a, hists_b, sigma=1.0, bin_width=1.0):
    """Biased squared-MMD V-statistic between two sets of histograms
    under k(x, y) = exp(-emd(x, y)^2 / (2 sigma^2)), computed as
    exp(-(emd / sigma)^2 / 2) so that no sigma > 0 gives a 0/0: as sigma
    falls to 0 the kernel tends to 1 at EMD 0 and to 0 elsewhere.
    Identical sets give values <= 1e-12. The kernel is PSD on point-mass
    histograms but not on spread ones (1-D EMD is an L1 distance between
    CDFs, and L1 is not Hilbertian), so the value is not a squared RKHS
    norm there and can be genuinely negative; such values are returned
    as they are.

    The EMD compares rows of _emd_table: CDFs, or for integer counts
    quantile functions (Vallender 1973), whichever table has fewer
    columns. An all-zero histogram is a point mass at the padded length.
    _kernel_mean sums the kernel in row blocks and skips the pairs whose
    kernel is exactly 0.0, so the sums differ from the full double sum
    only in their order.
    """
    if not hists_a or not hists_b:
        raise ValueError("mmd needs nonempty sets")
    F, weights = _emd_table(list(hists_a) + list(hists_b))
    Fa, Fb = F[:len(hists_a)], F[len(hists_a):]
    weights = weights * bin_width
    val = float(_kernel_mean(Fa, Fa, weights, sigma) + _kernel_mean(Fb, Fb, weights, sigma)
                - 2.0 * _kernel_mean(Fa, Fb, weights, sigma))
    # the floor absorbs rounding only; a value past it comes from the
    # kernel not being PSD on spread histograms and is reported as is
    if -1e-12 < val < 0.0:
        val = 0.0
    return val


def mmd_report(ref_graphs, gen_graphs, sigma=1.0, clustering_bins=100):
    """All three statistics plus their average, as an ordered dict.

    One graph_stats pass per set gives every histogram; each of the
    three MMDs then compares the two sets' histograms as sums of kernel
    values over blocks of rows.
    """
    ref = graph_stats(ref_graphs, clustering_bins)
    gen = graph_stats(gen_graphs, clustering_bins)
    deg = mmd([s.degree_hist for s in ref], [s.degree_hist for s in gen], sigma, 1.0)
    clu = mmd([s.clustering_hist for s in ref], [s.clustering_hist for s in gen],
              sigma, 1.0 / clustering_bins)
    orb = mmd([s.orbit_hist for s in ref], [s.orbit_hist for s in gen], sigma, 1.0)
    return {"mmd_degree": deg, "mmd_clustering": clu, "mmd_orbit": orb,
            "mmd_avg": (deg + clu + orb) / 3.0,
            "ref_count": len(ref_graphs), "gen_count": len(gen_graphs),
            "sigma": sigma, "clustering_bins": clustering_bins}


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
    write_report(path, _REPORT_NOTES, [report])


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
