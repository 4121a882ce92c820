"""Structural node/edge features and neighborhood augmentation.

Feature families: path counts (closed forms over adjacency powers),
Laplacian eigenvectors, per-node cycle counts, and per-node random
vectors. Augmentation also widens each node's neighborhood with
virtual edges wherever a path of length 2..p connects two non-adjacent
nodes, which is what lets a small number of message-passing rounds see
further than its hop count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph


def path_features(g: Graph, p: int = 3):
    """Counts of paths with distinct edges and distinct vertices
    (endpoints may coincide) of each length q = 1..p.

    Returns (node_pf (n, p), edge_pf (n, n, p), virtual_mask (n, n)).
    edge_pf[i, j, q-1] counts length-q paths from i to j; node_pf is
    its row sum. virtual_mask marks non-adjacent pairs i != j joined
    by at least one such path.
    """
    if not 1 <= p <= 3:
        raise ValueError("path features implemented for p in {1, 2, 3}")
    A = g.adjacency()
    n = g.n
    D = np.diag(A.sum(axis=1))
    I = np.eye(n, dtype=np.int64)
    mats = [A]
    if p >= 2:
        mats.append(A @ A - D)
    if p >= 3:
        mats.append(A @ A @ A - A @ D - (D - I) @ A)
    edge_pf = np.stack(mats, axis=2).astype(np.float64)
    node_pf = edge_pf.sum(axis=1)
    off = ~np.eye(n, dtype=bool)
    virtual = (edge_pf > 0).any(axis=2) & off & (A == 0)
    return node_pf, edge_pf, virtual


def spectral_features(g: Graph, k: int = 4):
    """First k eigenvectors of the combinatorial Laplacian L = D - A.

    Columns are ordered by ascending eigenvalue and sign-normalized so
    the largest-magnitude entry (lowest index on ties) is nonnegative.
    Graphs with n < k are zero-padded on the right.
    Returns (vectors (n, k), eigenvalues (k,)).
    """
    A = g.adjacency().astype(np.float64)
    L = np.diag(A.sum(axis=1)) - A
    try:
        w, v = np.linalg.eigh(L)
    except np.linalg.LinAlgError as e:
        raise RuntimeError(f"Laplacian eigendecomposition failed: {e}") from e
    take = min(k, g.n)
    vecs = np.zeros((g.n, k))
    vals = np.zeros(k)
    for c in range(take):
        col = v[:, c]
        top = np.argmax(np.abs(col))
        if col[top] < 0:
            col = -col
        vecs[:, c] = col
        vals[c] = w[c]
    return vecs, vals


def cycle_counts(g: Graph):
    """Per-node counts of simple cycles of lengths 3, 4, 5 through the
    node, from trace identities on adjacency powers. Returns (n, 3).
    """
    A = g.adjacency()
    n = g.n
    d = A.sum(axis=1)
    A2 = A @ A
    A3 = A2 @ A
    A4 = A3 @ A
    A5 = A4 @ A
    diag3 = np.diagonal(A3)
    c3 = diag3 // 2
    # closed 4-walks minus degenerate ones: back-and-forth over one or
    # two edges
    c4 = (np.diagonal(A4) - d * (d - 1) - A @ d) // 2
    # closed 5-walks minus walks reusing vertices via a triangle
    t = c3
    c5 = (np.diagonal(A5) - 4 * d * t - 2 * ((A * A2) @ d)
          - 2 * (A @ t) + 10 * t) // 2
    return np.stack([c3, c4, c5], axis=1).astype(np.float64)


def random_features(rng, n, d_rand: int = 4):
    """Standard normal per-node feature block (n, d_rand)."""
    return rng.standard_normal((n, d_rand))


@dataclass
class FeatureConfig:
    paths: bool = True
    spectral: bool = True
    cycles: bool = True
    random: bool = True
    p: int = 3
    k: int = 4
    d_rand: int = 4


def feature_widths(cfg: FeatureConfig, R: int, S: int):
    """(node width, edge width) of the augmented features."""
    fn = R
    fe = S
    if cfg.paths:
        fn += cfg.p
        fe += cfg.p
    if cfg.spectral:
        fn += cfg.k
    if cfg.cycles:
        fn += 3
    if cfg.random:
        fn += cfg.d_rand
    return fn, fe


@dataclass
class AugmentedGraph:
    base: Graph
    node_feats: np.ndarray    # (n, F_n)
    edge_feats: np.ndarray    # (n, n, F_e), zero outside the neighborhood
    neighborhood: np.ndarray  # (n, n) bool: real and virtual edges

    @property
    def n(self):
        return self.base.n


def augment(g: Graph, cfg: FeatureConfig, rng=None) -> AugmentedGraph:
    """Assemble model inputs for one graph.

    Node feature blocks in fixed order: one-hot node categories (R
    wide), path counts, spectral, cycles, random. Edge features are the
    one-hot edge categories (S wide) on real edges, zeros on virtual
    edges so the two are distinguishable, plus path-count channels;
    everything outside the neighborhood is zeroed. This is the one
    place the categories are spelled one-hot. With all families
    disabled the result is the one-hot graph with the real-edge
    neighborhood.
    """
    n = g.n
    A = g.adjacency()
    real = A.astype(bool)
    node_blocks = [np.eye(g.num_node_categories)[g.node_categories]]
    edge_blocks = [np.eye(g.num_edge_categories)[g.edge_categories] * real[:, :, None]]
    neigh = real.copy()
    if cfg.paths:
        node_pf, edge_pf, virtual = path_features(g, cfg.p)
        node_blocks.append(node_pf)
        edge_blocks.append(edge_pf)
        neigh |= virtual
    if cfg.spectral:
        vecs, _ = spectral_features(g, cfg.k)
        node_blocks.append(vecs)
    if cfg.cycles:
        node_blocks.append(cycle_counts(g))
    if cfg.random:
        if rng is None:
            raise ValueError("random features need an rng")
        node_blocks.append(random_features(rng, n, cfg.d_rand))
    node_feats = np.concatenate(node_blocks, axis=1)
    edge_feats = np.concatenate(edge_blocks, axis=2) * neigh[:, :, None]
    return AugmentedGraph(g, node_feats, edge_feats, neigh)
