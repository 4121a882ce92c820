"""Distribution-level evaluation of generated graphs plus study tools.

Three per-graph statistics are compared between a reference set and a
generated set: the degree histogram, the clustering-coefficient
histogram, and a small-subgraph (graphlet) orbit histogram. Each
statistic is turned into a normalized histogram per graph, histograms
are compared with 1-D earth mover's distance, and sets are compared
with a biased squared-MMD V-statistic (diagonal terms included) under
a Gaussian-of-EMD kernel.

Orbit statistic convention: for every node we count its participation
in connected induced subgraphs on 2 to 4 nodes (equivalently the sum
of its graphlet orbit counts), and histogram those totals per graph.
This reading is stated in every report this module writes.

Statistics are computed a set at a time: graph_stats groups a set by
node count and works on stacked (G, n, n) adjacency matrices in chunks
of bounded size. Each set's EMD matrix against itself is symmetric with
a zero diagonal, so only its upper triangle is computed.
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

def _connected(adj, s):
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in range(s):
            if adj[u][v] and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == s


def _pairs(s):
    return list(itertools.combinations(range(s), 2))


_ORBIT_TABLES = None


def graphlet_orbit_tables():
    """Connectedness lookup per subgraph size.

    Returns {s: table} for s in 2, 3, 4, where table is a boolean array
    indexed by the edge-pattern code of an s-node subgraph (bit b set
    when the b-th pair of itertools.combinations(range(s), 2) is an
    edge) and True when that pattern is connected. The tables are built
    on first use and cached in the module global _ORBIT_TABLES; setting
    it to None makes the next call build them again, which is how the
    eval workload of dgaebench/run.py makes every set-up pay for them.
    """
    global _ORBIT_TABLES
    if _ORBIT_TABLES is None:
        tables = {}
        for s in (2, 3, 4):
            pairs = _pairs(s)
            table = np.zeros(1 << len(pairs), dtype=bool)
            for code in range(len(table)):
                A = [[False] * s for _ in range(s)]
                for b, (i, j) in enumerate(pairs):
                    if code >> b & 1:
                        A[i][j] = A[j][i] = True
                table[code] = _connected(A, s)
            tables[s] = table
        _ORBIT_TABLES = tables
    return _ORBIT_TABLES


@functools.lru_cache(maxsize=64)
def _subsets(n, s):
    """Read-only (C(n, s), s) array of the s-subsets of range(n) in
    lexicographic order, and (C(n, s), P) indices into the flattened
    n x n adjacency of each subset's P node pairs."""
    count = math.comb(n, s)
    combos = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), s)),
                         dtype=np.int64, count=count * s).reshape(count, s)
    flat = np.stack([combos[:, i] * n + combos[:, j] for i, j in _pairs(s)], axis=1)
    combos.flags.writeable = flat.flags.writeable = False
    return combos, flat


@functools.lru_cache(maxsize=64)
def _incidence(n, s):
    """Read-only (C(n, s), n) 0/1 float32 matrix: row k marks the nodes
    of the k-th s-subset of _subsets(n, s)."""
    combos, _ = _subsets(n, s)
    inc = np.zeros((len(combos), n), dtype=np.float32)
    inc[np.arange(len(combos))[:, None], combos] = 1.0
    inc.flags.writeable = False
    return inc


def node_orbit_counts(A):
    """(G, n) int64 per-node orbit totals of a (G, n, n) stack of
    adjacency matrices: the number of connected induced subgraphs on 2
    to 4 nodes that contain each node, which is the sum of its graphlet
    orbit counts.

    Per s, every s-subset's edge-pattern code is built for all G graphs
    at once, looked up in the connectedness table, and the connected
    subsets are counted per node by one product with _incidence(n, s).
    """
    tables = graphlet_orbit_tables()
    G, n, _ = A.shape
    # (n*n, G): the pattern bits of a pair are one contiguous row
    pair_rows = (A.reshape(G, n * n).T != 0).astype(np.uint8)
    totals = np.zeros((G, n), dtype=np.int64)
    for s in (2, 3, 4):
        if n < s:
            continue
        _, flat = _subsets(n, s)
        codes = pair_rows[flat[:, 0]]
        for b in range(1, flat.shape[1]):
            codes |= pair_rows[flat[:, b]] << b
        ok = tables[s].astype(np.float32)[codes]
        # exact: every count is an integer below C(n - 1, s - 1) < 2**24
        totals += (ok.T @ _incidence(n, s)).astype(np.int64)
    return totals


# ---------------------------------------------------------------------------
# per-graph statistics, computed a set at a time

@dataclass
class GraphStats:
    degree_hist: np.ndarray      # raw counts, unit bins
    clustering_hist: np.ndarray  # raw counts over [0, 1]
    orbit_hist: np.ndarray       # raw counts of per-node orbit totals


# byte budget of graph_stats' largest per-chunk temporary, the (C(n, 4), G)
# float32 connectedness matrix of node_orbit_counts, so that its memory
# does not grow with the set
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
    bins, equal to np.histogram(row, bins, range=(0, 1))[0] per row: the
    same index, last-edge fold and one-ulp corrections against the same
    linspace edges; values outside [0, 1] are not counted."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    rows = np.broadcast_to(np.arange(len(x))[:, None], x.shape)
    keep = (x >= 0.0) & (x <= 1.0)
    x, rows = x[keep], rows[keep]
    idx = (x * bins).astype(np.intp)
    idx[idx == bins] -= 1
    idx[x < edges[idx]] -= 1
    idx[(x >= edges[idx + 1]) & (idx != bins - 1)] += 1
    return np.bincount(rows * bins + idx, minlength=len(keep) * bins).reshape(-1, bins)


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


# byte budget of _emd_all_pairs' per-block temporary: small enough that
# the block and the CDF rows it is made from stay in a core's L2 cache;
# on 250 x 250 orbit histograms budgets of 128 KB to 1 MB ran alike,
# 16 MB about 40% and 64 MB about 140% slower
_EMD_BLOCK_BYTES = 1 << 19


def _norm_pad(hists, length):
    M = np.zeros((len(hists), length))
    for i, h in enumerate(hists):
        M[i, :len(h)] = h
    return M / np.maximum(M.sum(axis=1, keepdims=True), 1e-300)


def _emd_all_pairs(Pa, Pb, bin_width):
    """(Na, Nb) 1-D EMD between every row of Pa and every row of Pb,
    normalized histograms padded to one length L: the total absolute
    difference of their CDFs times the bin width.

    Both CDFs are zero before the first bin that is nonzero in any row
    and constant from one such bin to the next, so only those bins U
    are compared, each weighted by the number of bins up to the next
    one (or to L). Rows of Pa go in blocks sized so the temporary stays
    near _EMD_BLOCK_BYTES. Called with Pb is Pa, a block compares its
    rows only with themselves and the rows after them, and the upper
    triangle is mirrored into the lower one: the result is exactly
    symmetric with a zero diagonal.
    """
    same = Pb is Pa
    L = Pa.shape[1]
    U = np.flatnonzero(Pa.any(axis=0) | Pb.any(axis=0))
    gaps = np.diff(np.append(U, L)).astype(np.float64)
    Fa = np.cumsum(Pa[:, U], axis=1)
    Fb = Fa if same else np.cumsum(Pb[:, U], axis=1)
    out = np.empty((len(Pa), len(Pb)))
    r = 0
    while r < len(Pa):
        first = r if same else 0  # first column this block compares with
        rows = max(1, _EMD_BLOCK_BYTES // (8 * max(1, (len(Fb) - first) * len(U))))
        d = Fa[r:r + rows, None, :] - Fb[None, first:, :]
        np.abs(d, out=d)
        out[r:r + rows, first:] = d @ gaps
        r += rows
    if same:
        for i in range(len(Pa) - 1):
            out[i + 1:, i] = out[i, i + 1:]
    return out * bin_width


def mmd(hists_a, hists_b, sigma=1.0, bin_width=1.0):
    """Biased squared-MMD V-statistic between two sets of histograms
    under k(x, y) = exp(-emd(x, y)^2 / (2 sigma^2)). Identical sets give
    values <= 1e-12. The kernel is PSD on point-mass histograms but not
    on spread ones (1-D EMD is an L1 distance between CDFs, and L1 is not
    Hilbertian), so the value is not a squared RKHS norm there and can be
    genuinely negative; such values are returned as they are.
    """
    if not hists_a or not hists_b:
        raise ValueError("mmd needs nonempty sets")
    L = max(max(len(h) for h in hists_a), max(len(h) for h in hists_b))
    Pa = _norm_pad(hists_a, L)
    Pb = _norm_pad(hists_b, L)
    s2 = 2.0 * sigma * sigma
    # each set against itself: one triangle, mirrored
    kaa = np.exp(-_emd_all_pairs(Pa, Pa, bin_width) ** 2 / s2)
    kbb = np.exp(-_emd_all_pairs(Pb, Pb, bin_width) ** 2 / s2)
    kab = np.exp(-_emd_all_pairs(Pa, Pb, bin_width) ** 2 / s2)
    val = float(kaa.mean() + kbb.mean() - 2.0 * kab.mean())
    # the floor absorbs rounding only; a value past it comes from the
    # kernel not being PSD on spread histograms and is reported as is
    if -1e-12 < val < 0.0:
        val = 0.0
    return val


def mmd_report(ref_graphs, gen_graphs, sigma=1.0, clustering_bins=100):
    """All three statistics plus their average, as an ordered dict.

    One graph_stats pass per set gives every histogram; each of the
    three MMDs then compares the two sets' histograms, computing the
    EMD matrix of a set against itself over one triangle only.
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


def write_mmd_report(path, report):
    with open(path, "w") as f:
        for line in _REPORT_NOTES:
            f.write(line + "\n")
        keys = list(report)
        f.write(",".join(keys) + "\n")
        f.write(",".join(format(report[k], ".10g") if isinstance(report[k], float)
                         else str(report[k]) for k in keys) + "\n")


# ---------------------------------------------------------------------------
# ablation studies

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

    Returns {cell: {"loss_mean": (epochs,), "loss_std": (epochs,),
    "final_loss": float}}.
    """
    results = {}
    for name, flags in cells:
        curves = []
        for seed in seeds:
            cfg = replace(base_cfg, seed=seed, **flags)
            _, info = training.train_autoencoder(graphs, cfg)
            curves.append([h["loss_recon"] for h in info["history"]])
            if log:
                log(f"cell {name} seed {seed}: final loss {curves[-1][-1]:.5f}")
        curves = np.array(curves)
        results[name] = {"loss_mean": curves.mean(axis=0), "loss_std": curves.std(axis=0),
                         "final_loss": float(curves.mean(axis=0)[-1])}
    if out_path:
        with open(out_path, "w") as f:
            f.write("# feature ablation: held-out reconstruction loss per epoch, "
                    f"mean and std over seeds {list(seeds)}\n")
            f.write("cell,epoch,loss_recon_mean,loss_recon_std\n")
            for name, _ in cells:
                r = results[name]
                for e, (mu, sd) in enumerate(zip(r["loss_mean"], r["loss_std"])):
                    f.write(f"{name},{e},{mu:.10g},{sd:.10g}\n")
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
    grid = DEFAULT_CODEBOOK_GRID if grid is None else grid
    results = {}
    for m, C in grid:
        rows = []
        for seed in seeds:
            cfg = replace(base_cfg, codebook_size=m, partitions=C, seed=seed)
            cfg.validate()
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
                rep = mmd_report(ref, gen, cfg.mmd_sigma, cfg.clustering_bins)
                row["mmd_avg"] = rep["mmd_avg"]
            rows.append(row)
            if log:
                log(f"cell m={m} C={C} seed {seed}: " +
                    " ".join(f"{k}={v:.5f}" for k, v in row.items()))
        agg = {}
        for key in rows[0]:
            vals = np.array([r[key] for r in rows], dtype=np.float64)
            agg[key] = (float(vals.mean()), float(vals.std()))
        results[(m, C)] = agg
    if out_path:
        metrics = ["loss_recon", "node_err", "edge_err", "perplexity"]
        if with_prior:
            metrics.append("mmd_avg")
        with open(out_path, "w") as f:
            for line in _REPORT_NOTES:
                f.write(line + "\n")
            f.write("# codebook sweep: mean and std over seeds "
                    f"{list(seeds)}; M = m^C\n")
            cols = ["m", "C", "M"]
            for met in metrics:
                cols += [met + "_mean", met + "_std"]
            f.write(",".join(cols) + "\n")
            for (m, C) in grid:
                agg = results[(m, C)]
                cells = [str(m), str(C), str(m ** C)]
                for met in metrics:
                    mu, sd = agg[met]
                    cells += [format(mu, ".10g"), format(sd, ".10g")]
                f.write(",".join(cells) + "\n")
    return results
