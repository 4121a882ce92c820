"""Graph statistics, EMD/MMD machinery, reports, generation timing, ablations."""

import itertools
import json
import math
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dgae import evaluation
from dgae.graphs import DatasetSpec, Graph, build_dataset, load_dataset, new_graph, permute
from dgae.evaluation import (
    DEFAULT_CODEBOOK_GRID,
    FEATURE_CELLS,
    _emd_tables,
    _pair_sums,
    ablation_codebook_report,
    ablation_feature_report,
    clustering_coefficients,
    graph_stats,
    graphlet_orbit_tables,
    mmd,
    mmd_report,
    node_orbit_counts,
    write_mmd_report,
)
from dgae.prior import PriorParams
from dgae.training import (
    AutoEncoderModel,
    ModelConfig,
    generate_graphs,
    split_dataset,
)

import oracles
from oracles import (
    dense_rows,
    dense_stats,
    emd_pairs,
    emd_reference,
    graph_from_adjacency,
    load_bench_inputs,
    mmd_double_sum,
    node_orbit_participation,
    random_adjacency,
)

networkx = pytest.importorskip("networkx")


BENCH = Path(__file__).resolve().parents[1] / "dgaebench"


def random_graph(rng, n, p=0.4):
    return graph_from_adjacency(random_adjacency(rng, n, p))


def stack(g):
    """One graph's adjacency as a (1, n, n) stack."""
    return g.adjacency()[None]


# ---------------------------------------------------------------------------
# per-graph statistics


def test_triangle_stats_frozen():
    g = new_graph(3, [(0, 1), (1, 2), (0, 2)])
    s, = dense_stats(graph_stats([g]))
    np.testing.assert_array_equal(s.degree_hist, [0, 0, 3])
    np.testing.assert_allclose(clustering_coefficients(stack(g))[0], [1.0, 1.0, 1.0])
    # coefficient 1.0 lands in the last of the 100 bins
    assert s.clustering_hist[99] == 3 and s.clustering_hist.sum() == 3
    # each node: two edges plus one triangle = orbit total 3
    np.testing.assert_array_equal(s.orbit_hist, [0, 0, 0, 3])


def test_star_stats():
    g = new_graph(5, [(0, i) for i in range(1, 5)])
    s, = dense_stats(graph_stats([g]))
    np.testing.assert_array_equal(s.degree_hist, [0, 4, 0, 0, 1])
    np.testing.assert_array_equal(clustering_coefficients(stack(g))[0], np.zeros(5))
    assert s.clustering_hist[0] == 5
    assert s.degree_hist.sum() == g.n


def test_clustering_matches_networkx():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(3, 10)))
        nxg = networkx.from_numpy_array(g.adjacency())
        want = [networkx.clustering(nxg, v) for v in range(g.n)]
        np.testing.assert_allclose(clustering_coefficients(stack(g))[0], want, atol=1e-12)


def test_orbit_tables_flag_the_connected_patterns():
    tables = graphlet_orbit_tables()
    assert sorted(tables) == [2, 3, 4]
    # labeled connected graphs on 2, 3 and 4 nodes
    assert [int(tables[s].sum()) for s in (2, 3, 4)] == [1, 4, 38]
    assert [len(tables[s]) for s in (2, 3, 4)] == [2, 8, 64]
    for s in (2, 3, 4):
        assert tables[s].dtype == bool
        pairs = list(itertools.combinations(range(s), 2))
        for code, connected in enumerate(tables[s]):
            adj = np.zeros((s, s), dtype=np.int64)
            for b, (i, j) in enumerate(pairs):
                adj[i, j] = adj[j, i] = code >> b & 1
            assert connected == oracles._connected(adj), (s, code)


@pytest.mark.parametrize("bins", [1, 3, 7, 33, 100, 170])
def test_uniform_histograms_match_np_histogram(bins):
    """Every bin edge, the values one ulp either side of it and values
    outside [0, 1] land where np.histogram puts them, row by row."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    values = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                             [-0.1, 1.1, 2.0]])
    rng = np.random.default_rng(bins)
    x = np.stack([values, rng.permutation(values), rng.choice(values, len(values))])
    got = evaluation._uniform_histograms(x, bins)
    want = np.stack([np.histogram(row, bins, range=(0.0, 1.0))[0] for row in x])
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_node_orbit_totals_match_bruteforce():
    """Each node's total is its orbit counts from the oracle, summed."""
    rng = np.random.default_rng(8)
    for n in range(1, 11):
        for p in (0.3, 0.6):
            adj = random_adjacency(rng, n, p)
            got = node_orbit_counts(stack(graph_from_adjacency(adj)))[0]
            want = [sum(orbits.values()) for orbits in node_orbit_participation(adj)]
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


def test_orbit_counts_relabel_equivariant():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 7, 0.5)
    perm = rng.permutation(7)
    a = node_orbit_counts(stack(g))[0]
    assert a.shape == (7,)
    # permute places old node perm[i] at new index i
    b = node_orbit_counts(stack(permute(g, perm)))[0]
    np.testing.assert_array_equal(b, a[perm])


def edge_case_graphs():
    """Graphs at the edges of the set-level statistics: one to three
    nodes, empty and complete graphs, clustering coefficients exactly
    0.5, 1.0 and 1/3 (bin edges at several bin counts) and 0.7, where
    the index coef * bins needs np.histogram's corrections against the
    linspace edges (down for 1/3 at 33 bins, up for 0.7 at 170), and an
    asymmetric adjacency whose coefficient 2.0 falls outside [0, 1]. No
    dataset can hold that last one, so it is built with the Graph
    constructor, which does not validate."""
    k4_pendant = [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(0, 4)]
    arcs = np.zeros((5, 5), dtype=np.int64)
    arcs[[0, 0, 1, 3, 1, 4, 2, 2], [1, 2, 3, 0, 4, 0, 3, 4]] = 1
    return [
        new_graph(1), new_graph(2), new_graph(2, [(0, 1)]), new_graph(3),
        new_graph(3, [(0, 1)]), new_graph(3, [(0, 1), (1, 2)]),
        new_graph(3, [(0, 1), (1, 2), (0, 2)]),
        new_graph(6), new_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)]),
        new_graph(5, k4_pendant),                         # node 0: 0.5
        new_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]),   # node 0: 1/3
        new_graph(6, [(0, i) for i in range(1, 6)] + [(1, 2), (1, 3), (1, 4), (1, 5),
                                                      (2, 3), (2, 4), (2, 5)]),  # 0.7
        Graph(np.zeros(5, dtype=np.int64), arcs, 1, 2),
    ]


def assert_stats_equal(got, want):
    for name in ("degree_hist", "clustering_hist", "orbit_hist"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, (name, a, b)
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_set_stats_match_per_graph_oracle():
    """The set-level pass gives every graph exactly the histograms of
    the former one-graph-at-a-time definitions, whatever the mix of
    sizes in the set and the position of a graph in it: each sparse row
    of its tables, laid out dense, equals the oracle's histogram, and
    each table is as long as the set's longest histogram. The 13-node
    group has 130 graphs, so its orbit counts pack into two full uint64
    words and a partial one, and it holds the empty and the complete
    graph."""
    rng = np.random.default_rng(31)
    special = edge_case_graphs()
    coefs = np.concatenate([oracles.clustering_coefficients(g) for g in special])
    assert {0.5, 1.0, 1.0 / 3.0, 0.7, 2.0} <= set(coefs.tolist())
    words = [new_graph(13), new_graph(13, list(itertools.combinations(range(13), 2)))]
    words += [random_graph(rng, 13, float(rng.random())) for _ in range(128)]
    graphs = special + words + [random_graph(rng, int(rng.integers(1, 13)), float(rng.random()))
                                for _ in range(300)]
    assert sum(g.n == 13 for g in graphs) == 130
    order = rng.permutation(len(graphs))
    graphs = [graphs[k] for k in order]
    for bins in (100, 170, 33, 7, 6, 3, 1):
        got = graph_stats(graphs, bins)
        assert len(got) == len(graphs)
        want = [oracles.graph_stats(g, bins) for g in graphs]
        for s, w in zip(dense_stats(got), want):
            assert_stats_equal(s, w)
        for name, table in (("degree_hist", got.degree), ("clustering_hist", got.clustering),
                            ("orbit_hist", got.orbit)):
            assert table.L == max(len(getattr(w, name)) for w in want), name
    for g in special:
        np.testing.assert_array_equal(clustering_coefficients(stack(g))[0],
                                      oracles.clustering_coefficients(g))
        np.testing.assert_array_equal(node_orbit_counts(stack(g))[0],
                                      oracles.node_orbit_counts(g))
    assert len(graph_stats([])) == 0


def test_set_stats_chunks_do_not_change_the_answer(monkeypatch):
    rng = np.random.default_rng(32)
    graphs = [random_graph(rng, int(rng.integers(4, 9)), 0.5) for _ in range(40)]
    whole = graph_stats(graphs)
    # one graph per chunk
    monkeypatch.setattr(evaluation, "_STATS_CHUNK_BYTES", 1)
    chunked = graph_stats(graphs)
    for a, b in zip(dense_stats(chunked), dense_stats(whole)):
        assert_stats_equal(a, b)
    for name in ("degree", "clustering", "orbit"):
        assert getattr(chunked, name).L == getattr(whole, name).L, name


def test_graph_stats_memory_is_bounded():
    """graph_stats works through each node-count group in chunks, so
    its working memory (the tracemalloc peak less the statistics it
    returns) stays under one bound at 250 and at 2,000 graphs; stacking
    a whole 2,000-graph set of 20 nodes would take about 80 MB."""
    rng = np.random.default_rng(33)
    distinct = [random_graph(rng, 20, 0.5) for _ in range(100)]
    graphs = distinct * 20
    graph_stats(distinct[:5])  # subset tables and caches outside the measurement
    bound = 16 * 2**20
    work = {}
    for count in (250, 2000):
        tracemalloc.start()
        try:
            stats = graph_stats(graphs[:count])
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stats) == count
        del stats
        work[count] = peak - retained
        assert work[count] <= bound, (count, work[count] / 2**20)
    assert work[2000] <= 1.5 * work[250], {k: v / 2**20 for k, v in work.items()}


# ---------------------------------------------------------------------------
# EMD and MMD


def emd(p, q, bin_width=1.0):
    """EMD of one pair of same-length histograms, as a two-row call."""
    return float(emd_pairs([np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)],
                           bin_width)[0, 1])


def emd_matrix(A, B, bin_width=1.0):
    """emd_pairs between the rows of A and those of B, on the tables of
    all of them at once."""
    return emd_pairs(list(A) + list(B), bin_width)[:len(A), len(A):]


# scales small counts off the integers, which sends them to the float CDFs
OFF_INTEGER = 1.0 + 2.0 ** -20


def table_kind(hists):
    """The table _emd_tables takes for hists: "float" for CDFs of
    non-integer rows; for integer counts, per pair of totals, "grid" for
    quantile functions on the pair's own grid or "cdf" for the counts
    above each occupied bin ("mixed" if the entries disagree)."""
    kinds = set()
    for ra, Fa, rb, Fb, weights, scale in _emd_tables(list(hists)):
        steps = np.diff(np.hstack([Fa, Fb]), axis=0)
        if scale == 1.0 and not np.array_equal(Fa, np.floor(Fa)):
            kinds.add("float")
        elif steps.any():  # quantile functions rise, counts above a bin fall
            kinds.add("grid" if steps.min() >= 0 else "cdf" if steps.max() <= 0 else "mixed")
    return kinds.pop() if len(kinds) == 1 else "mixed"


def test_emd_examples():
    h = np.array([0.2, 0.3, 0.5])
    assert emd(h, h) == 0.0
    a = np.array([1.0, 0.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 0.0, 1.0])
    assert emd(a, b) == 3.0
    assert emd(b, a) == 3.0
    assert emd(a, b, bin_width=0.25) == 0.75


def test_emd_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(20):
        L = int(rng.integers(2, 12))
        p = rng.random(L)
        q = rng.random(L)
        p /= p.sum()
        q /= q.sum()
        for w in (1.0, 0.01):
            np.testing.assert_allclose(
                emd(p, q, w), emd_reference(p, q, w), atol=1e-10)


def sparse_rows(rng, count, L, zero_cols):
    P = rng.random((count, L)) * (rng.random((count, L)) < 0.5)
    P[:, zero_cols] = 0.0
    s = P.sum(axis=1, keepdims=True)
    return np.divide(P, s, out=np.zeros_like(P), where=s > 0)


def test_emd_all_pairs_matches_reference():
    """Every pair against the transport solver, on histograms whose
    leading, trailing and interior bins are empty in every row."""
    rng = np.random.default_rng(23)
    L = 14
    empty = [0, 1, 6, 7, 12, 13]
    Pa = sparse_rows(rng, 11, L, empty)
    Pb = sparse_rows(rng, 9, L, empty)
    for w in (1.0, 0.01):
        for A, B in ((Pa, Pb), (Pa, Pa), (Pb, Pa)):
            got = emd_matrix(A, B, w)
            want = np.array([[emd_reference(x, y, w) for y in B] for x in A])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        # no occupied bin at all
        Z = np.zeros((5, L))
        np.testing.assert_array_equal(emd_matrix(Z, Z[:3], w), np.zeros((5, 3)))


def count_rows(rows):
    """Integer-count histograms padded to one length, as float rows."""
    M = np.zeros((len(rows), max(len(h) for h in rows)))
    for i, h in enumerate(rows):
        M[i, :len(h)] = h
    return M


def integer_count_sets():
    """Count histograms of every statistic of the edge-case graphs and
    random ones: mixed totals, a clustering total below the node count
    (the value 2.0 of the asymmetric graph is dropped) and length-1
    histograms (the one-node graph's degree and orbit counts)."""
    rng = np.random.default_rng(26)
    special = edge_case_graphs()
    graphs = special + [random_graph(rng, int(rng.integers(2, 12)), float(rng.random()))
                        for _ in range(30)]
    stats = dense_stats(graph_stats(graphs, 10))
    dropped = stats[len(special) - 1].clustering_hist
    assert dropped.sum() < special[-1].n
    assert len(stats[0].degree_hist) == 1 and len(stats[0].orbit_hist) == 1
    return {name: [getattr(st, name) for st in stats]
            for name in ("degree_hist", "clustering_hist", "orbit_hist")}


def test_quantile_table_matches_cdf_table_and_reference():
    """On integer counts the quantile grids, the counts above each
    occupied bin and the float CDFs give one EMD matrix, and each
    matches the transport solver. Length-1 histograms meet longer ones.
    Extra rows steer the choice: one spread over
    200 bins makes the grids the narrower, many heavy ones at bin 0 the
    counts above each bin, and the same rows off the integers take the
    CDFs."""
    for name, hists in integer_count_sets().items():
        hists = hists + [np.array([1])]
        M = count_rows(hists)
        want = np.array([[emd_reference(x, y) for y in M] for x in M[:25]])
        for w in (1.0, 0.1):
            for rows, kind in ((hists + [np.ones(200)], "grid"),
                               (hists + [np.array([1000])] * len(M), "cdf"),
                               (list(M * OFF_INTEGER), "float")):
                assert table_kind(rows) == kind, (name, kind)
                got = emd_pairs(rows, w)[:25, :len(M)]
                np.testing.assert_allclose(got, w * want, rtol=1e-12, atol=1e-15,
                                           err_msg=f"{name} {kind}")


def test_kernel_mean_is_the_mean_of_the_full_kernel_matrix(monkeypatch):
    """_pair_sums adds each row block's kernel values into a 2 x 2 table
    keyed by the sets of the two rows, and a self comparison sums one
    triangle of blocks with the blocks off the diagonal counted in both
    orders. Over the entries of _emd_tables it sums to Y^T K Y for the
    full kernel matrix K over emd_pairs and one-hot sets Y: on float
    CDFs, quantile grids, counts above each bin and the zero-column
    table of all-zero rows, with the default row blocks, blocks that do
    not divide the row count, and blocks of one row.

    The pairs it skips change nothing: on histograms whose means spread
    far past reach = sigma * _REACH, so that most pairs are skipped, on
    a table with pairs whose means lie exactly reach apart, and on
    duplicate rows."""
    rng = np.random.default_rng(25)
    zero = [np.zeros(3), np.zeros(1)]
    assert next(_emd_tables(zero))[1].shape == (0, 2)
    # point masses spread over 2,000 bins, each with a little noise
    far = [np.bincount(c + rng.integers(0, 30, 5)) for c in rng.integers(0, 2000, 40)]
    m = np.array([h @ np.arange(len(h)) / h.sum() for h in far])
    assert (np.abs(m[:, None] - m[None]) > evaluation._REACH).mean() > 0.8
    orbit = integer_count_sets()["orbit_hist"]
    sets = [list(sparse_rows(rng, 37, 30, [0, 5, 29])), orbit, orbit + [np.array([1000])] * 40,
            zero, far, [far[i] for i in rng.permutation(np.arange(40).repeat(3))]]
    assert [table_kind(h) for h in sets[:3]] == ["float", "grid", "cdf"]
    # means (and EMDs) in units of reach at sigma = 1: across the halves
    # (rows 0-3 and 4-7) 0 and 1 lie exactly reach apart, and only the
    # pairs 0, 0.97 and 3, 2.03 have a kernel above 0.0, about 1e-305,
    # which a shorter reach on either side drops
    edge = np.array([[0.0, 3.0, 6.0, 9.0, 0.97, 1.0, 2.03, 10.0]])
    weights = np.array([evaluation._REACH])
    assert (weights @ edge)[[0, 5]].tolist() == [0.0, evaluation._REACH]
    for budget in (evaluation._EMD_BLOCK_BYTES, 5000, 1):
        monkeypatch.setattr(evaluation, "_EMD_BLOCK_BYTES", budget)
        for w, sigma in ((1.0, 1.0), (0.01, 0.5)):
            for hists in sets:
                Y = np.eye(2)[rng.integers(0, 2, len(hists))]
                K = np.exp(-(emd_pairs(hists, w) / sigma) ** 2 / 2)
                got = sum(_pair_sums(Fa, Fb, Y[ra], Y[rb], v, scale * w, sigma)
                          for ra, Fa, rb, Fb, v, scale in _emd_tables(hists))
                np.testing.assert_allclose(got, Y.T @ K @ Y, rtol=1e-12, atol=0.0,
                                           err_msg=f"{len(hists)} {budget} {w}")
            Y = np.eye(2)[[0, 1, 0, 1, 1, 0, 1, 1]]
            K = np.exp(-(np.abs(edge - edge.T) * weights[0] * w / sigma) ** 2 / 2)
            cross = Y[:4].T @ K[:4, 4:] @ Y[4:]
            np.testing.assert_allclose(
                _pair_sums(edge[:, :4], edge[:, 4:], Y[:4], Y[4:], weights, w, sigma),
                cross + cross.T, rtol=1e-12, atol=0.0)
            order = np.argsort(edge[0])
            E = edge[:, order]
            got = _pair_sums(E, E, Y[order], Y[order], weights, w, sigma)
            np.testing.assert_allclose(got, Y.T @ K @ Y, rtol=1e-12, atol=0.0)


def test_mmd_at_a_tiny_sigma_is_the_point_mass_limit():
    """At a sigma whose square underflows to 0.0 the kernel is 1 at EMD
    0 and 0 elsewhere, the limit as sigma falls to 0, and mmd reads the
    share of pairs at EMD 0 within A, plus that within B, minus twice
    that across A x B, with no floating-point warning."""
    rng = np.random.default_rng(27)
    stats = dense_stats(graph_stats([random_graph(rng, int(rng.integers(2, 6)), 0.5)
                                     for _ in range(60)], 10))
    for name, bin_width in (("degree_hist", 1.0), ("clustering_hist", 0.1),
                            ("orbit_hist", 1.0)):
        hists = [getattr(s, name) for s in stats]
        M = count_rows(hists)
        A, B = M[:25], M[25:]
        share = {key: (emd_matrix(X, Y, bin_width) == 0.0).mean()
                 for key, X, Y in (("aa", A, A), ("bb", B, B), ("ab", A, B))}
        assert min(share.values()) > 0.0, name
        want = share["aa"] + share["bb"] - 2.0 * share["ab"]
        for sigma in (1e-200, 5e-324):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = mmd(hists[:25], hists[25:], sigma, bin_width)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (name, sigma)


def test_all_zero_histogram_is_a_point_mass_past_the_end():
    """An all-zero histogram (a 0-node graph, or every value dropped)
    is a point mass at L, the longest length: its EMD to a histogram of
    mean m is L - m in every table. oracles.emd_reference returns 0.0
    for such degenerate inputs instead, so the convention is pinned
    against the float CDFs and the closed form, not against it. Extra
    rows of total one at bin 1 send the counts to the grids, heavy rows
    of the same length to the counts above each bin."""
    rows = [np.array([0, 0]), np.array([2, 1, 0, 1]), np.array([0]), np.array([0, 0, 0, 3]),
            np.array([1, 1, 1])]
    M = count_rows(rows)
    L = M.shape[1]
    means = (M * np.arange(L)).sum(axis=1) / np.maximum(M.sum(axis=1), 1)
    cdfs = emd_pairs(list(M * OFF_INTEGER))
    assert table_kind(list(M * OFF_INTEGER)) == "float"
    for extra, kind in (([np.array([0, 1])] * 20, "grid"), ([np.array([0, 0, 0, 50])] * 5, "cdf")):
        assert table_kind(rows + extra) == kind
        q = emd_pairs(rows + extra)[:5, :5]
        np.testing.assert_allclose(q, cdfs, rtol=1e-12, atol=1e-15)
        for i, j in ((0, 1), (0, 3), (2, 4)):
            assert q[i, j] == pytest.approx(L - means[j], rel=1e-12)
        assert q[0, 2] == 0.0
    # every row empty: no occupied bin, EMD 0
    assert next(_emd_tables([np.zeros(3), np.zeros(1)]))[1].shape == (0, 2)
    np.testing.assert_array_equal(emd_pairs([np.zeros(3), np.zeros(1)]), np.zeros((2, 2)))


def test_emd_table_is_the_narrower_one():
    """For nonnegative integer counts _emd_tables takes the counts above
    each occupied bin where that table holds no more elements than the
    quantile grids of every pair of size groups, and the grids otherwise:
    on rows of one total n, whose grid has n columns, the counts above
    each bin where no more than n bins are occupied. Integer rows take
    one of the two however few rows and many totals they have; other
    rows take the float CDFs."""
    rng = np.random.default_rng(30)
    for n, L in ((5, 3), (5, 5), (5, 6), (40, 30), (40, 60)):
        hists = [np.bincount(rng.integers(0, L, n), minlength=L) for _ in range(12)]
        occupied = np.count_nonzero(np.sum(hists, axis=0))
        assert table_kind(hists) == ("cdf" if occupied <= n else "grid"), (n, L)
    sets = integer_count_sets()
    assert {name: table_kind(hists) for name, hists in sets.items()} == \
        {"degree_hist": "cdf", "clustering_hist": "cdf", "orbit_hist": "grid"}
    # the same rows scaled off the integers keep the CDF table
    halves = [h / 2.0 for h in sets["orbit_hist"] if h.sum() % 2]
    assert table_kind(halves) == "float"


def test_benchmark_statistics_take_their_tables(tmp_path):
    """On one of the benchmark's eval inputs (250 graphs a set), degree
    takes the counts above its few occupied bins, and clustering and
    orbit take the size-pair grids."""
    inputs = load_bench_inputs()
    stats = []
    for stream in (1, 2):
        path = tmp_path / f"{stream}.jsonl"
        inputs.make_dataset(path, 250, 3, stream=stream)
        stats += dense_stats(graph_stats(load_dataset(str(path))[0]))
    for name, kind in (("degree_hist", "cdf"), ("clustering_hist", "grid"), ("orbit_hist", "grid")):
        assert table_kind([getattr(s, name) for s in stats]) == kind, name


def test_size_pair_grids_are_exact():
    """EMDs on the size-pair grids match the transport solver to 1e-12
    on mixed totals: 19 and 20 (coprime), 1 and 20, and length-1
    histograms, and L - m from an all-zero one to a row of mean m. The
    float32 and float64 branches give bit-identical EMDs. Totals 97 and
    89 over 2,000 bins, where l * L >= 2**24, compare in float64 and
    match."""
    rng = np.random.default_rng(29)

    def spread(total, L):
        return np.bincount(rng.integers(0, L, total), minlength=L)

    hists = ([spread(n, 120) for n in (19, 19, 19, 20, 20, 20, 1, 1)]
             + [np.array([3]), np.array([1]), np.zeros(7), np.zeros(0)])
    assert table_kind(hists) == "grid"
    assert {F.dtype for _, F, _, _, _, _ in _emd_tables(hists)} == {np.dtype(np.float32)}
    got = emd_pairs(hists, 0.1)
    M = count_rows(hists)
    for i, j in itertools.product(range(len(M)), repeat=2):
        if M[i].any() and M[j].any():
            want = emd_reference(M[i], M[j], 0.1)
        else:  # an all-zero row is a point mass at L = 120
            want = 0.1 * abs((M[i] @ np.arange(120) / M[i].sum() if M[i].any() else 120)
                             - (M[j] @ np.arange(120) / M[j].sum() if M[j].any() else 120))
        assert got[i, j] == pytest.approx(want, rel=1e-12, abs=1e-15), (i, j)
    # the same tables in float64 hold the same integers: bit-identical
    # EMDs and kernel sums
    Y = np.eye(2)[rng.integers(0, 2, len(hists))]
    for ra, Fa, rb, Fb, w, scale in _emd_tables(hists):
        Fa64 = Fa.astype(np.float64)
        Fb64 = Fa64 if Fb is Fa else Fb.astype(np.float64)

        def results(F, G, v):  # the entry's EMD matrix and kernel sums
            return (np.tensordot(v, np.abs(F[:, :, None] - G[:, None]), 1).astype(np.float64),
                    _pair_sums(F, G, Y[ra], Y[rb], v, scale * 0.1, 0.5))

        for got, want in zip(results(Fa, Fb, w), results(Fa64, Fb64, w.astype(np.float64))):
            np.testing.assert_array_equal(got, want)
    wide = [spread(n, 2000) for n in (97, 97, 97, 89, 89, 89)]
    assert math.lcm(97, 89) * 2000 >= 2 ** 24 and table_kind(wide) == "grid"
    # only the entry across the totals has l = 8,633
    assert [F.dtype.name for _, F, _, _, _, _ in _emd_tables(wide)] == \
        ["float32", "float64", "float32"]
    want = np.array([[emd_reference(x, y) for y in wide] for x in wide])
    np.testing.assert_allclose(emd_pairs(wide), want, rtol=1e-12, atol=1e-15)


def test_mmd_memory_stays_bounded():
    """The all-pairs EMD runs in row blocks: no (Na, Nb, L) temporary,
    which at 300 x 300 x 256 would be 184 MB."""
    rng = np.random.default_rng(24)
    a = list(rng.random((300, 256)))
    b = list(rng.random((300, 256)))
    tracemalloc.start()
    try:
        mmd(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, peak / 2**20


def test_mmd_memory_stays_bounded_on_integer_counts():
    """The quantile table of integer counts runs in the same row blocks
    under the same bound: 300 x 300 histograms of 12 to 20 node values
    spread over 300 bins, where the merged grid is the narrower table."""
    rng = np.random.default_rng(27)
    a, b = ([np.bincount(rng.integers(0, 300, size=int(rng.integers(12, 21))), minlength=300)
             for _ in range(300)] for _ in range(2))
    assert table_kind(a + b) == "grid"
    tracemalloc.start()
    try:
        mmd(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, peak / 2**20


def test_mmd_memory_is_bounded():
    """mmd adds each row block's kernel values to a running sum and
    builds no N x N matrix, so its working memory on degree-like
    histograms stays under one bound at 250 and at 2,000 graphs per set,
    and grows little between them; building the 2,000 x 2,000 distance
    and kernel matrices took about 126 MB."""
    rng = np.random.default_rng(28)
    sets = [[np.bincount(rng.integers(0, n, size=n)) for n in rng.integers(10, 21, size=2000)]
            for _ in range(2)]
    bound = 4 * 2**20
    work = {}
    for count in (250, 2000):
        tracemalloc.start()
        try:
            mmd(sets[0][:count], sets[1][:count])
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        work[count] = peak - retained
        assert work[count] <= bound, (count, work[count] / 2**20)
    assert work[2000] <= 2 * work[250], {k: v / 2**20 for k, v in work.items()}


def random_hists(rng, count, max_len=9):
    return [rng.integers(0, 8, size=int(rng.integers(2, max_len))).astype(float)
            for _ in range(count)]


def test_mmd_identical_sets_vanish():
    rng = np.random.default_rng(12)
    hists = random_hists(rng, 20)
    assert 0.0 <= mmd(hists, hists) <= 1e-12
    assert mmd(hists, list(hists)) <= 1e-12


def test_mmd_matches_double_sum_oracle():
    rng = np.random.default_rng(13)
    for trial in range(5):
        a = random_hists(rng, 20)
        b = random_hists(rng, 20)
        for sigma, w in ((1.0, 1.0), (0.5, 0.01)):
            got = mmd(a, b, sigma=sigma, bin_width=w)
            want = mmd_double_sum(a, b, sigma=sigma, bin_width=w)
            assert abs(got - want) < 1e-10


def test_mmd_invariant_to_sample_order():
    rng = np.random.default_rng(14)
    a = random_hists(rng, 12)
    b = random_hists(rng, 12)
    base = mmd(a, b)
    perm = rng.permutation(12)
    np.testing.assert_allclose(mmd([a[i] for i in perm], b), base, atol=1e-14)
    np.testing.assert_allclose(mmd(b, a), base, atol=1e-14)


def test_mmd_invariant_to_relabeling():
    rng = np.random.default_rng(15)
    ref = [random_graph(rng, int(rng.integers(4, 9))) for _ in range(8)]
    gen = [random_graph(rng, int(rng.integers(4, 9))) for _ in range(8)]
    base = mmd_report(ref, gen)
    shuffled = [permute(g, rng.permutation(g.n)) for g in gen]
    got = mmd_report(ref, shuffled)
    for key in ("mmd_degree", "mmd_clustering", "mmd_orbit", "mmd_avg"):
        np.testing.assert_allclose(got[key], base[key], atol=1e-12)


def kernel_matrix(P, bin_width=1.0):
    n = len(P)
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            d = emd(P[i], P[j], bin_width)
            K[i, j] = np.exp(-d * d / 2.0)
    return K


def test_kernel_matrix_basic_properties():
    rng = np.random.default_rng(16)
    hists = random_hists(rng, 30)
    L = max(len(h) for h in hists)
    P = np.zeros((30, L))
    for i, h in enumerate(hists):
        P[i, :len(h)] = h / h.sum() if h.sum() else h
    K = kernel_matrix(P)
    np.testing.assert_allclose(K, K.T, atol=1e-15)
    np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-15)
    assert K.min() > 0.0 and K.max() <= 1.0


def test_kernel_matrix_psd_on_point_mass_histograms():
    """Point-mass histograms reduce the EMD to a scalar distance, where
    the Gaussian kernel is provably positive semidefinite, so MMD is a
    squared RKHS norm and nonnegative; this pins the exp/EMD plumbing.
    On spread-out histograms the Gaussian-EMD kernel need not be PSD;
    there acceptance criterion 7 checks that EMD itself is conditionally
    negative definite.
    """
    rng = np.random.default_rng(17)
    P = np.zeros((40, 12))
    P[np.arange(40), rng.integers(0, 12, size=40)] = 1.0
    K = kernel_matrix(P)
    assert np.linalg.eigvalsh(K).min() >= -1e-10
    a, b = list(P[:20]), list(P[20:])
    for sigma in (1.0, 0.5):
        assert mmd(a, b, sigma=sigma) >= 0.0


def test_mmd_rejects_empty_sets():
    rng = np.random.default_rng(17)
    hists = random_hists(rng, 3)
    with pytest.raises(ValueError, match="nonempty"):
        mmd([], hists)
    with pytest.raises(ValueError, match="nonempty"):
        mmd(hists, [])


# ---------------------------------------------------------------------------
# reports


def test_mmd_report_structure_and_file(tmp_path):
    rng = np.random.default_rng(18)
    ref = [random_graph(rng, 6) for _ in range(6)]
    gen = [random_graph(rng, 6) for _ in range(6)]
    rep = mmd_report(ref, gen)
    np.testing.assert_allclose(
        rep["mmd_avg"],
        (rep["mmd_degree"] + rep["mmd_clustering"] + rep["mmd_orbit"]) / 3)
    assert rep["ref_count"] == 6 and rep["gen_count"] == 6
    assert rep["sigma"] == 1.0 and rep["clustering_bins"] == 100

    terms = [f"k_{side}_{stat}" for stat in ("degree", "clustering", "orbit")
             for side in ("ref", "gen", "cross")]
    for stat in ("degree", "clustering", "orbit"):
        k_ref, k_gen, k_cross = (rep[f"k_{side}_{stat}"] for side in ("ref", "gen", "cross"))
        assert 0.0 < k_cross <= 1.0 and 0.0 < k_ref <= 1.0 and 0.0 < k_gen <= 1.0
        assert rep["mmd_" + stat] == pytest.approx(k_ref + k_gen - 2.0 * k_cross, abs=1e-12)

    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_mmd_report(p1, rep)
    write_mmd_report(p2, rep)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert [l.startswith("#") for l in lines] == [True] * 3 + [False] * 2
    assert "k_ref_s + k_gen_s - 2*k_cross_s" in lines[2]
    header = lines[3].split(",")
    assert header[:4] == ["mmd_degree", "mmd_clustering", "mmd_orbit", "mmd_avg"]
    assert header[-9:] == terms
    row = lines[4].split(",")
    np.testing.assert_allclose(float(row[3]), rep["mmd_avg"], rtol=1e-9)


def test_mmd_report_matches_the_benchmark_reference(tmp_path):
    """mmd_report answers the benchmark's eval inputs as recorded in
    dgaebench/reference.json, at the benchmark's tolerance: every smoke
    input seed (20 graphs a set) and two full-size ones (250). On the
    full-size ones, its one statistics pass over both sets, split by
    row, gives the same MMDs, bit for bit, as statistics computed per
    set, and mmd gives the same value on the tables and on their rows
    as lists of dense histograms."""
    inputs = load_bench_inputs()
    answers = json.loads((BENCH / "reference.json").read_text())["answers"]["eval"]
    cfg = ModelConfig()
    cases = [("smoke", 20, k) for k in range(inputs.INPUT_SEEDS)] + \
        [("full", 250, k) for k in (3, 10)]
    for size, count, k in cases:
        sets = []
        for stream in (1, 2):
            path = tmp_path / f"{size}{k}_{stream}.jsonl"
            inputs.make_dataset(path, count, k, stream=stream)
            sets.append(load_dataset(str(path))[0])
        rep = mmd_report(*sets, cfg.mmd_sigma, cfg.clustering_bins)
        got = [rep[key] for key in ("mmd_degree", "mmd_clustering", "mmd_orbit")]
        np.testing.assert_allclose(got, answers[size][str(k)], rtol=1e-9, atol=0.0,
                                   err_msg=f"{size} input seed {k}")
        if size == "full":
            a, b = (graph_stats(s, cfg.clustering_bins) for s in sets)
            for stat, width in (("degree", 1.0), ("clustering", 1.0 / cfg.clustering_bins),
                                ("orbit", 1.0)):
                ta, tb = getattr(a, stat), getattr(b, stat)
                value = mmd(ta, tb, cfg.mmd_sigma, width)
                assert value == rep["mmd_" + stat], (stat, k)
                full = stat == "clustering"
                assert mmd(dense_rows(ta, full), dense_rows(tb, full), cfg.mmd_sigma,
                           width) == value, (stat, k)


def test_train_vs_test_floor_is_small():
    """Random training-set samples scored against the held-out split sit
    below the generated-sample acceptance bound; generation quality is
    measured against this floor.
    """
    graphs = build_dataset(DatasetSpec("community-small", 100, 7))
    cfg = ModelConfig(seed=7)
    tr, va = split_dataset(100, cfg)
    train = [graphs[i] for i in tr]
    test = [graphs[i] for i in va]
    rng = np.random.default_rng(0)
    avgs = []
    for _ in range(15):
        pick = rng.choice(len(train), size=len(test), replace=False)
        avgs.append(mmd_report(test, [train[i] for i in pick])["mmd_avg"])
    floor = float(np.mean(avgs))
    assert 0.0 < floor < 0.08, floor


# ---------------------------------------------------------------------------
# generation timing


def fresh_models(cfg, seed=0):
    rng = np.random.default_rng(seed)
    model = AutoEncoderModel(cfg, rng)
    for c in range(cfg.partitions):
        model.codebooks.codebooks[c][:] = rng.normal(
            size=model.codebooks.codebooks[c].shape)
    model.codebooks.ema_counts[...] = 1.0  # seeded
    pparams = PriorParams(cfg, rng)
    return model, pparams


BENCH_CFG = dict(n_max=8, feat_spectral=False, feat_random=False,
                 gnn_layers=1, state_width=16, mlp_hidden=32, d_latent=8,
                 partitions=2, codebook_size=4, blocks=1, d_model=16, heads=2)


def test_benchmark_time_linear_in_count():
    cfg = ModelConfig(**BENCH_CFG)
    model, pparams = fresh_models(cfg)
    generate_graphs(model, pparams, cfg, count=50, seed=0)  # warm caches
    counts = np.array([100, 500, 1000], dtype=np.float64)
    # min over repeats removes scheduler noise from the tiny timings; each
    # repeat sweeps the counts up and then down again, so a drift in host
    # speed during the measurement hits every count alike instead of
    # bending the line
    times = np.full(len(counts), np.inf)
    sweep = list(range(len(counts)))
    for _ in range(5):
        for k in sweep + sweep[::-1]:
            start = time.perf_counter()
            generate_graphs(model, pparams, cfg, count=int(counts[k]), seed=1)
            times[k] = min(times[k], time.perf_counter() - start)
    slope, intercept = np.polyfit(counts, times, 1)
    pred = slope * counts + intercept
    ss_res = float(((times - pred) ** 2).sum())
    ss_tot = float(((times - times.mean()) ** 2).sum())
    assert 1.0 - ss_res / ss_tot >= 0.95, (times, slope)
    assert slope > 0


# ---------------------------------------------------------------------------
# ablation table plumbing


def test_feature_cells_cover_the_grid():
    names = [n for n, _ in FEATURE_CELLS]
    assert len(names) == 10 and len(set(names)) == 10
    assert "all" in names and "none" in names
    assert sum(1 for n in names if n.endswith("-only")) == 4
    assert sum(1 for n in names if n.startswith("no-")) == 4


def test_ablation_feature_report_format(tmp_path):
    rng = np.random.default_rng(21)
    graphs = [random_graph(rng, int(rng.integers(4, 8))) for _ in range(10)]
    cfg = ModelConfig(**BENCH_CFG, epochs_ae=2, batch_size=8, kmeans_samples=128)
    cells = [c for c in FEATURE_CELLS if c[0] in ("all", "none", "paths-only")]
    out = tmp_path / "feat.csv"
    res = ablation_feature_report(graphs, cfg, out_path=str(out),
                                  seeds=(0, 1), cells=cells)
    assert list(res) == ["all", "none", "paths-only"]
    for cell in res.values():
        mu, sd = cell["loss_recon"]
        assert mu.shape == sd.shape == (2,)  # one point per epoch
        assert np.isfinite(mu).all() and (sd >= 0.0).all()
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "cell,epoch,loss_recon_mean,loss_recon_std"
    assert len(lines) == 2 + 3 * 2  # cells x epochs
    mu, sd = res["paths-only"]["loss_recon"]
    assert lines[-1] == f"paths-only,1,{mu[-1]:.10g},{sd[-1]:.10g}"


def test_ablation_codebook_report_format(tmp_path):
    rng = np.random.default_rng(22)
    graphs = [random_graph(rng, int(rng.integers(4, 8))) for _ in range(10)]
    cfg = ModelConfig(**BENCH_CFG, epochs_ae=2, batch_size=8, kmeans_samples=128)
    grid = [(4, 1), (2, 2)]
    out = tmp_path / "code.csv"
    logged = []
    res = ablation_codebook_report(graphs, cfg, out_path=str(out), grid=grid,
                                   seeds=(0,), with_prior=False, log=logged.append)
    assert set(res) == {(4, 1), (2, 2)}
    # one log line per cell and seed; with one seed the means are its values
    assert logged == [f"cell {cell} seed 0: " + " ".join(f"{k}={mu:.5f}"
                                                         for k, (mu, _) in agg.items())
                      for cell, agg in res.items()]
    for agg in res.values():
        for key in ("loss_recon", "node_err", "edge_err", "perplexity"):
            mu, sd = agg[key]
            assert np.isfinite(mu) and sd >= 0.0
        assert 0.25 - 1e-9 <= agg["perplexity"][0] <= 1.0 + 1e-9
    lines = out.read_text().splitlines()
    header = [l for l in lines if l.startswith("m,C,M")]
    assert len(header) == 1
    rows = lines[lines.index(header[0]) + 1:]
    assert len(rows) == 2
    assert rows[0].split(",")[:3] == ["4", "1", "4"]
    assert rows[1].split(",")[:3] == ["2", "2", "4"]


def test_ablation_codebook_report_with_the_prior(tmp_path):
    """The default path: stage 2 trains a prior per cell and seed, which
    generates graphs that the MMD column scores."""
    rng = np.random.default_rng(23)
    graphs = [random_graph(rng, int(rng.integers(4, 8))) for _ in range(10)]
    cfg = ModelConfig(**BENCH_CFG, epochs_ae=2, epochs_prior=1, batch_size=8,
                      kmeans_samples=128)
    out = tmp_path / "code.csv"
    res = ablation_codebook_report(graphs, cfg, out_path=str(out), grid=[(4, 1)],
                                   seeds=(0, 1))
    mu, sd = res[(4, 1)]["mmd_avg"]
    assert np.isfinite(mu) and np.isfinite(sd) and sd >= 0.0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert np.isfinite(float(row["mmd_avg_mean"])) and np.isfinite(float(row["mmd_avg_std"]))


def test_default_codebook_grid_matches_dictionary_classes():
    Ms = {}
    for m, C in DEFAULT_CODEBOOK_GRID:
        Ms.setdefault(m ** C, []).append((m, C))
    assert set(Ms) == {256, 1024, 4096}
    # the collapse signature needs the single-partition cell compared
    # against multi-partition cells of the same dictionary size
    assert (256, 1) in Ms[256] and len(Ms[256]) == 3
