"""Graph statistics, EMD/MMD machinery, reports, generation timing, ablations."""

import itertools
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dgae import evaluation
from dgae.graphs import DatasetSpec, Graph, build_dataset, load_dataset, new_graph, permute
from dgae.evaluation import (
    DEFAULT_CODEBOOK_GRID,
    FEATURE_CELLS,
    _cdf_table,
    _emd_all_pairs,
    _emd_table,
    _quantile_table,
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
    s, = graph_stats([g])
    np.testing.assert_array_equal(s.degree_hist, [0, 0, 3])
    np.testing.assert_allclose(clustering_coefficients(stack(g))[0], [1.0, 1.0, 1.0])
    # coefficient 1.0 lands in the last of the 100 bins
    assert s.clustering_hist[99] == 3 and s.clustering_hist.sum() == 3
    # each node: two edges plus one triangle = orbit total 3
    np.testing.assert_array_equal(s.orbit_hist, [0, 0, 0, 3])


def test_star_stats():
    g = new_graph(5, [(0, i) for i in range(1, 5)])
    s, = graph_stats([g])
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
    sizes in the set and the position of a graph in it."""
    rng = np.random.default_rng(31)
    special = edge_case_graphs()
    coefs = np.concatenate([oracles.clustering_coefficients(g) for g in special])
    assert {0.5, 1.0, 1.0 / 3.0, 0.7, 2.0} <= set(coefs.tolist())
    graphs = special + [random_graph(rng, int(rng.integers(1, 13)), float(rng.random()))
                        for _ in range(300)]
    order = rng.permutation(len(graphs))
    graphs = [graphs[k] for k in order]
    for bins in (100, 170, 33, 7, 6, 3, 1):
        got = graph_stats(graphs, bins)
        assert len(got) == len(graphs)
        for g, s in zip(graphs, got):
            assert_stats_equal(s, oracles.graph_stats(g, bins))
    for g in special:
        np.testing.assert_array_equal(clustering_coefficients(stack(g))[0],
                                      oracles.clustering_coefficients(g))
        np.testing.assert_array_equal(node_orbit_counts(stack(g))[0],
                                      oracles.node_orbit_counts(g))
    assert graph_stats([]) == []


def test_set_stats_chunks_do_not_change_the_answer(monkeypatch):
    rng = np.random.default_rng(32)
    graphs = [random_graph(rng, int(rng.integers(4, 9)), 0.5) for _ in range(40)]
    whole = graph_stats(graphs)
    # one graph per chunk
    monkeypatch.setattr(evaluation, "_STATS_CHUNK_BYTES", 1)
    for a, b in zip(graph_stats(graphs), whole):
        assert_stats_equal(a, b)


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
    """EMD of one pair of same-length histograms, as a single-row call."""
    F, weights = _emd_table([np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)])
    return float(_emd_all_pairs(F[:1], F[1:], weights * bin_width)[0, 0])


def emd_matrix(A, B, bin_width, table=_cdf_table):
    """_emd_all_pairs over one table of the rows of A and B; called with
    B is A, the self comparison."""
    F, weights = table(np.vstack([A, B]))
    Fa = F[:len(A)]
    return _emd_all_pairs(Fa, Fa if B is A else F[len(A):], weights * bin_width)


def quantile_table(M):
    """The quantile table of integer counts M, with no column limit."""
    return _quantile_table(M, math.inf)


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


def test_emd_all_pairs_matches_reference(monkeypatch):
    """Every pair against the transport solver, on histograms whose
    leading, trailing and interior bins are empty in every row, with
    row blocks that do not divide the row count."""
    rng = np.random.default_rng(23)
    L = 14
    empty = [0, 1, 6, 7, 12, 13]
    Pa = sparse_rows(rng, 11, L, empty)
    Pb = sparse_rows(rng, 9, L, empty)
    # 3-row blocks: 11 rows of Pa make blocks of 3, 3, 3 and 2
    occupied = L - len(empty)
    monkeypatch.setattr(evaluation, "_EMD_BLOCK_BYTES", 3 * 8 * len(Pb) * occupied)
    for w in (1.0, 0.01):
        for A, B in ((Pa, Pb), (Pa, Pa), (Pb, Pa)):
            got = emd_matrix(A, B, w)
            want = np.array([[emd_reference(x, y, w) for y in B] for x in A])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        # no occupied bin at all
        Z = np.zeros((5, L))
        np.testing.assert_array_equal(emd_matrix(Z, Z[:3], w), np.zeros((5, 3)))


def test_emd_self_comparison_is_one_mirrored_triangle(monkeypatch):
    """_emd_all_pairs(P, P) computes the upper triangle and mirrors it:
    exactly symmetric, an exactly zero diagonal, and equal to the
    rectangular path on a copy of the same rows."""
    rng = np.random.default_rng(25)
    P = sparse_rows(rng, 37, 30, [0, 5, 29])
    for budget in (evaluation._EMD_BLOCK_BYTES, 3 * 8 * 37 * 27, 1):
        monkeypatch.setattr(evaluation, "_EMD_BLOCK_BYTES", budget)
        for w in (1.0, 0.01):
            F, weights = _cdf_table(P)
            D = _emd_all_pairs(F, F, weights * w)
            R = _emd_all_pairs(F, F.copy(), weights * w)
            np.testing.assert_array_equal(D, D.T)
            np.testing.assert_array_equal(np.diag(D), np.zeros(len(P)))
            np.testing.assert_allclose(D, R, rtol=1e-15, atol=0.0)
    hists = random_hists(rng, 40)
    assert 0.0 <= mmd(hists, hists) <= 1e-12


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
    stats = graph_stats(graphs, 10)
    dropped = stats[len(special) - 1].clustering_hist
    assert dropped.sum() < special[-1].n
    assert len(stats[0].degree_hist) == 1 and len(stats[0].orbit_hist) == 1
    return {name: [getattr(st, name) for st in stats]
            for name in ("degree_hist", "clustering_hist", "orbit_hist")}


def test_quantile_table_matches_cdf_table_and_reference(monkeypatch):
    """On integer counts both tables give one EMD matrix, and both match
    the transport solver, with row blocks that do not divide the row
    count. Length-1 histograms meet longer ones, so the padding is
    compared too."""
    for name, hists in integer_count_sets().items():
        M = count_rows(hists + [np.array([1])])
        A, B = M[:25], M[25:]
        for w in (1.0, 0.1):
            want = np.array([[emd_reference(x, y, w) for y in B] for x in A])
            got = {}
            for table in (quantile_table, _cdf_table):
                # A's 25 rows against B in blocks of 4: six of 4, one of 1
                cols = table(M)[0].shape[1]
                monkeypatch.setattr(evaluation, "_EMD_BLOCK_BYTES", 4 * 8 * len(B) * cols)
                got[table] = [emd_matrix(X, Y, w, table) for X, Y in ((A, B), (A, A), (B, A))]
                np.testing.assert_allclose(got[table][0], want, rtol=1e-12, atol=1e-15,
                                           err_msg=name)
            for q, c in zip(got[quantile_table], got[_cdf_table]):
                np.testing.assert_allclose(q, c, rtol=1e-12, atol=1e-15, err_msg=name)


def test_quantile_self_comparison_is_one_mirrored_triangle(monkeypatch):
    """The quantile table's self comparison is exactly symmetric with an
    exactly zero diagonal, whatever the row blocks."""
    hists = integer_count_sets()["orbit_hist"]
    F, weights = quantile_table(count_rows(hists))
    for budget in (evaluation._EMD_BLOCK_BYTES, 3 * 8 * len(F) * F.shape[1], 1):
        monkeypatch.setattr(evaluation, "_EMD_BLOCK_BYTES", budget)
        D = _emd_all_pairs(F, F, weights)
        np.testing.assert_array_equal(D, D.T)
        np.testing.assert_array_equal(np.diag(D), np.zeros(len(F)))
        np.testing.assert_allclose(D, _emd_all_pairs(F, F.copy(), weights),
                                   rtol=1e-15, atol=0.0)


def test_all_zero_histogram_is_a_point_mass_past_the_end():
    """An all-zero histogram (a 0-node graph, or every value dropped)
    is a point mass at L, the padded length: its EMD to a histogram of
    mean m is L - m in both tables. oracles.emd_reference returns 0.0
    for such degenerate inputs instead, so the convention is pinned
    against the CDF table and the closed form, not against it."""
    rows = [np.array([0, 0]), np.array([2, 1, 0, 1]), np.array([0]), np.array([0, 0, 0, 3]),
            np.array([1, 1, 1])]
    M = count_rows(rows)
    L = M.shape[1]
    q = emd_matrix(M, M, 1.0, quantile_table)
    np.testing.assert_allclose(q, emd_matrix(M, M, 1.0), rtol=1e-12, atol=1e-15)
    means = (M * np.arange(L)).sum(axis=1) / np.maximum(M.sum(axis=1), 1)
    for i, j in ((0, 1), (0, 3), (2, 4)):
        assert q[i, j] == pytest.approx(L - means[j], rel=1e-12)
    assert q[0, 2] == 0.0
    # every row empty: no grid column and no occupied bin, EMD 0
    F, weights = _emd_table([np.zeros(3), np.zeros(1)])
    assert F.shape == (2, 0)
    np.testing.assert_array_equal(_emd_all_pairs(F, F, weights), np.zeros((2, 2)))


def test_emd_table_is_the_narrower_one():
    """_emd_table takes the quantile table only for nonnegative integer
    counts whose merged grid has fewer columns than the occupied
    support; it compares the same rows either way."""
    sets = integer_count_sets()
    for hists in sets.values():
        M = count_rows(hists)
        width = min(_cdf_table(M)[0].shape[1], quantile_table(M)[0].shape[1])
        assert _emd_table(hists)[0].shape[1] == width
    # orbit totals spread over many bins: the grid is the narrower
    orbit = count_rows(sets["orbit_hist"])
    assert quantile_table(orbit)[0].shape[1] < _cdf_table(orbit)[0].shape[1]
    # a limit at the grid's width or below gives no table
    width = quantile_table(orbit)[0].shape[1]
    assert _quantile_table(orbit, width) is None
    assert _quantile_table(orbit, width + 1)[0].shape[1] == width
    # the same rows scaled off the integers keep the CDF table
    halves = [h / 2.0 for h in sets["orbit_hist"] if h.sum() % 2]
    assert _emd_table(halves)[0].shape[1] == _cdf_table(count_rows(halves))[0].shape[1]


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
    F, _ = _emd_table(a + b)
    assert F.shape[1] < _cdf_table(count_rows(a + b))[0].shape[1]
    tracemalloc.start()
    try:
        mmd(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, peak / 2**20


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

    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_mmd_report(p1, rep)
    write_mmd_report(p2, rep)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0].startswith("#") and lines[1].startswith("#")
    header = lines[2].split(",")
    assert header[:4] == ["mmd_degree", "mmd_clustering", "mmd_orbit", "mmd_avg"]
    row = lines[3].split(",")
    np.testing.assert_allclose(float(row[3]), rep["mmd_avg"], rtol=1e-9)


def test_mmd_report_matches_the_benchmark_reference(tmp_path):
    """mmd_report answers the benchmark's eval inputs as recorded in
    dgaebench/reference.json, at the benchmark's tolerance: every smoke
    input seed (20 graphs a set) and two full-size ones (250)."""
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
