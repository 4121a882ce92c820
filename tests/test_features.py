import itertools

import numpy as np
import pytest

import oracles
from dgae.features import (augment, cycle_counts, feature_widths, path_features,
                           random_features, spectral_features)
from dgae.graphs import new_graph, permute
from dgae.training import ModelConfig


def triangle():
    return new_graph(3, [(0, 1), (1, 2), (0, 2)])


def path3():
    return new_graph(3, [(0, 1), (1, 2)])


def test_path_features_triangle():
    node_pf, edge_pf, virtual = path_features(triangle())
    off = ~np.eye(3, dtype=bool)
    assert np.array_equal(edge_pf[..., 0], triangle().adjacency())
    assert np.all(edge_pf[..., 1][off] == 1)
    assert np.all(np.diagonal(edge_pf[..., 1]) == 0)
    # two directed traversals of the 3-cycle land back at the start
    assert np.array_equal(edge_pf[..., 2], 2 * np.eye(3))
    assert not virtual.any()  # every pair is already a real edge


def test_path_features_path_graph():
    node_pf, edge_pf, virtual = path_features(path3())
    assert np.array_equal(edge_pf[..., 0], path3().adjacency())
    assert edge_pf[0, 2, 1] == 1 and edge_pf[2, 0, 1] == 1
    assert np.all(edge_pf[..., 2] == 0)
    assert virtual[0, 2] and virtual[2, 0]
    assert virtual.sum() == 2


def test_path_features_single_edge():
    g = new_graph(2, [(0, 1)])
    node_pf, edge_pf, virtual = path_features(g)
    assert np.array_equal(node_pf, [[1, 0, 0], [1, 0, 0]])
    assert np.all(edge_pf[..., 1] == 0) and np.all(edge_pf[..., 2] == 0)
    assert not virtual.any()


def test_path_features_rejects_large_p():
    with pytest.raises(ValueError):
        path_features(triangle(), p=4)


def test_path_features_match_walk_oracle():
    rng = np.random.default_rng(0)
    for _ in range(80):
        n = int(rng.integers(2, 8))
        adj = oracles.random_adjacency(rng, n)
        g = oracles.graph_from_adjacency(adj)
        node_pf, edge_pf, virtual = path_features(g)
        for p in (1, 2, 3):
            want = oracles.distinct_edge_walk_counts(adj, p)
            assert np.array_equal(edge_pf[..., p - 1], want), f"p={p}"
            assert np.array_equal(node_pf[:, p - 1], want.sum(axis=1))
        want_virtual = ((edge_pf > 0).any(axis=-1) & (adj == 0)
                        & ~np.eye(n, dtype=bool))
        assert np.array_equal(virtual, want_virtual)


def test_path_features_permutation_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        g = oracles.graph_from_adjacency(oracles.random_adjacency(rng, n))
        perm = rng.permutation(n)
        node_a, edge_a, virt_a = path_features(permute(g, perm))
        node_b, edge_b, virt_b = path_features(g)
        assert np.array_equal(node_a, node_b[perm])
        assert np.array_equal(edge_a, edge_b[np.ix_(perm, perm)])
        assert np.array_equal(virt_a, virt_b[np.ix_(perm, perm)])


def test_spectral_constant_eigenvector():
    for g in (triangle(), path3(), oracles.graph_from_adjacency(
            oracles.random_adjacency(np.random.default_rng(3), 7, p=0.9))):
        vecs, vals = spectral_features(g, k=3)
        assert vals[0] == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(vecs[:, 0], 1.0 / np.sqrt(g.n))


def test_spectral_orthonormal_and_padded():
    g = triangle()
    vecs, vals = spectral_features(g, k=5)
    live = vecs[:, :3]
    assert np.allclose(live.T @ live, np.eye(3), atol=1e-8)
    assert np.all(vecs[:, 3:] == 0)
    assert vals.shape == (5,)
    assert np.allclose(vals[:3], [0.0, 3.0, 3.0], atol=1e-9)


def test_spectral_sign_convention():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        g = oracles.graph_from_adjacency(oracles.random_adjacency(rng, n))
        vecs, _ = spectral_features(g, k=min(4, n))
        for col in vecs.T:
            if np.any(col != 0):
                assert col[np.argmax(np.abs(col))] >= 0


def test_spectral_matches_dense_eigensolver():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        adj = oracles.random_adjacency(rng, n)
        g = oracles.graph_from_adjacency(adj)
        lap = np.diag(adj.sum(1)) - adj
        want = np.sort(np.linalg.eigvalsh(lap.astype(np.float64)))
        _, vals = spectral_features(g, k=n)
        assert np.allclose(vals, want[:n], atol=1e-8)


def test_spectral_eigenvalues_permutation_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        g = oracles.graph_from_adjacency(oracles.random_adjacency(rng, n))
        perm = rng.permutation(n)
        _, vals_a = spectral_features(g, k=n)
        _, vals_b = spectral_features(permute(g, perm), k=n)
        assert np.allclose(vals_a, vals_b, atol=1e-8)


def test_spectral_vectors_equivariant_on_simple_spectra():
    """Eigenvectors are permutation-equivariant only when eigenvalues
    are simple and the sign anchor (largest-magnitude entry) is unique;
    degenerate subspaces are solver-ordered and carry no guarantee.
    """
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(500):
        if checked >= 15:
            break
        n = int(rng.integers(6, 11))
        g = oracles.graph_from_adjacency(oracles.random_adjacency(rng, n))
        k = 4
        vecs, vals = spectral_features(g, k=k + 1)
        gaps = np.diff(vals[:k + 1])
        # column 0 of a connected graph is constant: every entry ties,
        # so the anchor-uniqueness filter applies to columns 1..k-1
        mags = np.sort(np.abs(vecs[:, 1:k]), axis=0)
        anchored = np.all(mags[-1, :] - mags[-2, :] > 1e-6)
        if np.any(gaps < 1e-6) or not anchored:
            continue
        perm = rng.permutation(n)
        vecs_p, _ = spectral_features(permute(g, perm), k=k + 1)
        assert np.allclose(vecs_p[:, :k], vecs[perm][:, :k], atol=1e-6)
        checked += 1
    assert checked >= 15, "too few simple-spectrum samples found"


def test_cycle_counts_known_graphs():
    assert np.array_equal(cycle_counts(triangle()),
                          [[1, 0, 0], [1, 0, 0], [1, 0, 0]])
    c4 = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert np.array_equal(cycle_counts(c4), np.tile([0, 1, 0], (4, 1)))
    c5 = new_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert np.array_equal(cycle_counts(c5), np.tile([0, 0, 1], (5, 1)))
    k4 = new_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert np.array_equal(cycle_counts(k4), np.tile([3, 3, 0], (4, 1)))


def test_cycle_counts_trees_are_zero():
    star = new_graph(5, [(0, i) for i in range(1, 5)])
    chain = new_graph(6, [(i, i + 1) for i in range(5)])
    assert not cycle_counts(star).any()
    assert not cycle_counts(chain).any()


def test_cycle_counts_match_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(60):
        n = int(rng.integers(3, 8))
        adj = oracles.random_adjacency(rng, n)
        g = oracles.graph_from_adjacency(adj)
        assert np.array_equal(cycle_counts(g), oracles.simple_cycle_counts(adj))


def test_random_features_determinism_and_width():
    a = random_features(np.random.default_rng(9), 5, 4)
    b = random_features(np.random.default_rng(9), 5, 4)
    assert np.array_equal(a, b)
    assert a.shape == (5, 4)
    assert random_features(np.random.default_rng(9), 5, 0).shape == (5, 0)


def test_augment_all_off_is_identity():
    cfg = ModelConfig(feat_paths=False, feat_spectral=False, feat_cycles=False,
                      feat_random=False)
    g = path3()
    ag = augment(g, cfg)
    # one node category (R=1): every node's one-hot is [1]
    assert np.array_equal(ag.node_feats, np.ones((3, 1)))
    assert np.array_equal(ag.neighborhood, g.adjacency().astype(bool))
    # category-1 one-hots on real edges, zeros elsewhere
    nb = ag.neighborhood
    assert np.array_equal(ag.edge_feats[nb], np.tile([0.0, 1.0], (nb.sum(), 1)))
    assert np.all(ag.edge_feats[~nb] == 0)


def test_augment_paths_only_widths():
    cfg = ModelConfig(feat_paths=True, feat_spectral=False, feat_cycles=False,
                      feat_random=False)
    ag = augment(triangle(), cfg)
    S = triangle().num_edge_categories
    assert ag.edge_feats.shape[-1] == S + 3
    fn, fe = feature_widths(cfg)
    assert ag.node_feats.shape[-1] == fn
    assert ag.edge_feats.shape[-1] == fe


def test_augment_width_bookkeeping_all_on():
    cfg = ModelConfig()
    rng = np.random.default_rng(10)
    g = oracles.graph_from_adjacency(oracles.random_adjacency(rng, 6))
    ag = augment(g, cfg, rng=rng)
    fn, fe = feature_widths(cfg)
    assert ag.node_feats.shape == (6, fn)
    assert ag.edge_feats.shape == (6, 6, fe)
    # neighborhood has no self loops and covers every real edge
    assert not np.diagonal(ag.neighborhood).any()
    assert np.all(ag.neighborhood[g.adjacency().astype(bool)])
    assert np.array_equal(ag.neighborhood, ag.neighborhood.T)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("flags", list(itertools.product([False, True], repeat=4)))
def test_feature_widths_do_not_depend_on_graph_size(flags, p):
    """feature_widths reads its widths off a one-node graph; a larger
    graph with more categories gets the same ones from augment."""
    paths, spectral, cycles, random = flags
    cfg = ModelConfig(node_categories=3, edge_categories=4, feat_paths=paths,
                      feat_spectral=spectral, feat_cycles=cycles, feat_random=random, feat_p=p)
    rng = np.random.default_rng(p)
    pairs = [(i, j, int(rng.integers(0, 4))) for i in range(7) for j in range(i + 1, 7)]
    g = new_graph(7, [e for e in pairs if e[2]], node_categories=rng.integers(0, 3, 7),
                  num_node_categories=3, num_edge_categories=4)
    ag = augment(g, cfg, rng=rng)
    assert feature_widths(cfg) == (ag.node_feats.shape[1], ag.edge_feats.shape[2])


def test_default_feature_widths_are_the_featurize_report():
    # R=1, S=2: 1 + 3 path + 4 spectral + 3 cycle + 4 random node
    # columns, 2 + 3 path edge columns
    assert feature_widths(ModelConfig()) == (15, 5)


def test_augment_random_requires_rng():
    with pytest.raises(ValueError):
        augment(triangle(), ModelConfig())


def test_augment_masks_edge_features_outside_neighborhood():
    cfg = ModelConfig(feat_random=False)
    g = new_graph(4, [(0, 1), (1, 2), (2, 3)])
    ag = augment(g, cfg)
    outside = ~ag.neighborhood
    assert np.all(ag.edge_feats[outside] == 0)


def test_features_distinguish_mpnn_confusable_pair():
    """Two triangles vs the 6-cycle: same degrees everywhere, and plain
    message passing cannot tell the nodes apart. The cycle counts can.
    """
    two_triangles = new_graph(6, [(0, 1), (1, 2), (0, 2),
                                  (3, 4), (4, 5), (3, 5)])
    hexagon = new_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert not np.array_equal(cycle_counts(two_triangles), cycle_counts(hexagon))
    # spectral features separate them as well
    _, vals_a = spectral_features(two_triangles, k=6)
    _, vals_b = spectral_features(hexagon, k=6)
    assert not np.allclose(vals_a, vals_b)
