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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import training
from .graphs import Graph

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


_ORBIT_TABLES = None


def graphlet_orbit_tables():
    """Orbit-id lookup per subgraph size.

    Returns (tables, n_orbits) where tables[s] is an array indexed by
    the 6-bit (size 4) edge-pattern code whose rows give each
    position's global orbit id, or -1 for disconnected patterns.
    Orbit ids are stable: they depend only on the fixed enumeration
    order of sizes and codes.
    """
    global _ORBIT_TABLES
    if _ORBIT_TABLES is not None:
        return _ORBIT_TABLES
    tables = {}
    next_id = 0
    for s in (2, 3, 4):
        pairs = list(itertools.combinations(range(s), 2))
        P = len(pairs)
        perms = list(itertools.permutations(range(s)))

        def adj_of(code):
            A = [[False] * s for _ in range(s)]
            for b, (i, j) in enumerate(pairs):
                if code >> b & 1:
                    A[i][j] = A[j][i] = True
            return A

        def code_of(A, p):
            c = 0
            for b, (i, j) in enumerate(pairs):
                if A[p[i]][p[j]]:
                    c |= 1 << b
            return c

        canon_ids = {}
        arr = np.full((1 << P, s), -1, dtype=np.int64)
        for code in range(1 << P):
            A = adj_of(code)
            if not _connected(A, s):
                continue
            images = [(code_of(A, p), p) for p in perms]
            canon = min(c for c, _ in images)
            if canon not in canon_ids:
                Ac = adj_of(canon)
                autos = [p for p in perms if code_of(Ac, p) == canon]
                parent = list(range(s))

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for p in autos:
                    for i in range(s):
                        ri, rj = find(i), find(p[i])
                        if ri != rj:
                            parent[max(ri, rj)] = min(ri, rj)
                ids = [0] * s
                assigned = {}
                for i in range(s):
                    r = find(i)
                    if r not in assigned:
                        assigned[r] = next_id
                        next_id += 1
                    ids[i] = assigned[r]
                canon_ids[canon] = ids
            ids_c = canon_ids[canon]
            p = next(p for c, p in images if c == canon)
            inv = [0] * s
            for i in range(s):
                inv[p[i]] = i
            arr[code] = [ids_c[inv[q]] for q in range(s)]
        tables[s] = arr
    _ORBIT_TABLES = (tables, next_id)
    return _ORBIT_TABLES


def node_orbit_counts(g: Graph):
    """(n, n_orbits) matrix of graphlet orbit participation counts."""
    tables, n_orbits = graphlet_orbit_tables()
    A = g.adjacency().astype(bool)
    n = g.n
    counts = np.zeros((n, n_orbits), dtype=np.int64)
    for s in (2, 3, 4):
        if n < s:
            continue
        combos = np.array(list(itertools.combinations(range(n), s)), dtype=np.int64)
        codes = np.zeros(len(combos), dtype=np.int64)
        for b, (i, j) in enumerate(itertools.combinations(range(s), 2)):
            codes |= A[combos[:, i], combos[:, j]].astype(np.int64) << b
        orb = tables[s][codes]
        ok = orb[:, 0] >= 0
        if ok.any():
            np.add.at(counts, (combos[ok].ravel(), orb[ok].ravel()), 1)
    return counts


# ---------------------------------------------------------------------------
# per-graph statistics

@dataclass
class GraphStats:
    degree_hist: np.ndarray      # raw counts, unit bins
    clustering_hist: np.ndarray  # raw counts over [0, 1]
    orbit_hist: np.ndarray       # raw counts of per-node orbit totals


def clustering_coefficients(g: Graph):
    A = g.adjacency()
    deg = A.sum(axis=1)
    tri = np.diagonal(A @ A @ A) // 2
    denom = deg * (deg - 1)
    return np.where(denom > 0, 2.0 * tri / np.maximum(denom, 1), 0.0)


def graph_stats(g: Graph, clustering_bins=100) -> GraphStats:
    A = g.adjacency()
    deg = A.sum(axis=1)
    degree_hist = np.bincount(deg)
    coef = clustering_coefficients(g)
    clustering_hist = np.histogram(coef, bins=clustering_bins, range=(0.0, 1.0))[0]
    totals = node_orbit_counts(g).sum(axis=1)
    orbit_hist = np.bincount(totals)
    return GraphStats(degree_hist, clustering_hist, orbit_hist)


def emd_1d(p, q, bin_width=1.0):
    """Earth mover's distance between two normalized histograms on the
    same support: total absolute cumulative difference times width.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"histogram shapes differ: {p.shape} vs {q.shape}")
    return float(np.abs(np.cumsum(p - q)).sum() * bin_width)


def _norm_pad(hists, length):
    M = np.zeros((len(hists), length))
    for i, h in enumerate(hists):
        M[i, :len(h)] = h
    return M / np.maximum(M.sum(axis=1, keepdims=True), 1e-300)


def _emd_all_pairs(Pa, Pb, bin_width):
    ca = np.cumsum(Pa, axis=1)
    cb = np.cumsum(Pb, axis=1)
    return np.abs(ca[:, None, :] - cb[None, :, :]).sum(axis=2) * bin_width


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
    """All three statistics plus their average, as an ordered dict."""
    ref = [graph_stats(g, clustering_bins) for g in ref_graphs]
    gen = [graph_stats(g, clustering_bins) for g in gen_graphs]
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
                pmodel, _ = training.train_prior(model, graphs, cfg)
                _, val_idx = training.split_dataset(len(graphs), cfg)
                ref = [graphs[i] for i in val_idx]
                gen, _ = training.generate_graphs(model, pmodel, cfg, len(ref),
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
