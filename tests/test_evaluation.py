"""Graph statistics, EMD/MMD machinery, reports, generation timing, ablations."""

import time
import tracemalloc

import numpy as np
import pytest

from dgae import evaluation
from dgae.graphs import DatasetSpec, build_dataset, new_graph, permute
from dgae.evaluation import (
    DEFAULT_CODEBOOK_GRID,
    FEATURE_CELLS,
    _emd_all_pairs,
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
from dgae.training import (
    AutoEncoderModel,
    ModelConfig,
    generate_graphs,
    init_prior,
    split_dataset,
)

from oracles import (
    emd_reference,
    graph_from_adjacency,
    mmd_double_sum,
    node_orbit_participation,
    random_adjacency,
)

networkx = pytest.importorskip("networkx")


def random_graph(rng, n, p=0.4):
    return graph_from_adjacency(random_adjacency(rng, n, p))


# ---------------------------------------------------------------------------
# per-graph statistics


def test_triangle_stats_frozen():
    g = new_graph(3, [(0, 1), (1, 2), (0, 2)])
    s = graph_stats(g)
    np.testing.assert_array_equal(s.degree_hist, [0, 0, 3])
    np.testing.assert_allclose(clustering_coefficients(g), [1.0, 1.0, 1.0])
    # coefficient 1.0 lands in the last of the 100 bins
    assert s.clustering_hist[99] == 3 and s.clustering_hist.sum() == 3
    # each node: two edges plus one triangle = orbit total 3
    np.testing.assert_array_equal(s.orbit_hist, [0, 0, 0, 3])


def test_star_stats():
    g = new_graph(5, [(0, i) for i in range(1, 5)])
    s = graph_stats(g)
    np.testing.assert_array_equal(s.degree_hist, [0, 4, 0, 0, 1])
    np.testing.assert_array_equal(clustering_coefficients(g), np.zeros(5))
    assert s.clustering_hist[0] == 5
    assert s.degree_hist.sum() == g.n


def test_clustering_matches_networkx():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(3, 10)))
        nxg = networkx.from_numpy_array(g.adjacency())
        want = [networkx.clustering(nxg, v) for v in range(g.n)]
        np.testing.assert_allclose(clustering_coefficients(g), want, atol=1e-12)


def test_orbit_tables_flag_the_connected_patterns():
    tables = graphlet_orbit_tables()
    assert sorted(tables) == [2, 3, 4]
    # labeled connected graphs on 2, 3 and 4 nodes
    assert [int(tables[s].sum()) for s in (2, 3, 4)] == [1, 4, 38]
    assert [len(tables[s]) for s in (2, 3, 4)] == [2, 8, 64]


def test_node_orbit_totals_match_bruteforce():
    """Each node's total is its orbit counts from the oracle, summed."""
    rng = np.random.default_rng(8)
    for n in range(1, 11):
        for p in (0.3, 0.6):
            adj = random_adjacency(rng, n, p)
            got = node_orbit_counts(graph_from_adjacency(adj))
            want = [sum(orbits.values()) for orbits in node_orbit_participation(adj)]
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


def test_orbit_counts_relabel_equivariant():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 7, 0.5)
    perm = rng.permutation(7)
    a = node_orbit_counts(g)
    assert a.shape == (7,)
    # permute places old node perm[i] at new index i
    b = node_orbit_counts(permute(g, perm))
    np.testing.assert_array_equal(b, a[perm])


# ---------------------------------------------------------------------------
# EMD and MMD


def emd(p, q, bin_width=1.0):
    """EMD of one pair of same-length histograms, as a single-row call."""
    return float(_emd_all_pairs(np.asarray(p, dtype=np.float64)[None],
                                np.asarray(q, dtype=np.float64)[None], bin_width)[0, 0])


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
            got = _emd_all_pairs(A, B, w)
            want = np.array([[emd_reference(x, y, w) for y in B] for x in A])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        # no occupied bin at all
        Z = np.zeros((5, L))
        np.testing.assert_array_equal(_emd_all_pairs(Z, Z[:3], w), np.zeros((5, 3)))


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
    model.codebooks.initialized = True
    pparams = init_prior(cfg, rng)
    return model, pparams


BENCH_CFG = dict(n_max=8, feat_spectral=False, feat_random=False,
                 gnn_layers=1, state_width=16, mlp_hidden=32, d_latent=8,
                 partitions=2, codebook_size=4, blocks=1, d_model=16, heads=2)


def test_benchmark_time_linear_in_count():
    cfg = ModelConfig(**BENCH_CFG)
    model, pparams = fresh_models(cfg)
    generate_graphs(model, pparams, cfg, count=50, seed=0)  # warm caches
    counts = np.array([100, 500, 1000], dtype=np.float64)
    # min over repeats removes scheduler noise from the tiny timings; the
    # repeats cycle through the counts so a drift in host speed during
    # the measurement hits every count alike instead of bending the line
    times = np.full(len(counts), np.inf)
    for _ in range(3):
        for k, c in enumerate(counts):
            start = time.perf_counter()
            generate_graphs(model, pparams, cfg, count=int(c), seed=1)
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
    assert set(res) == {"all", "none", "paths-only"}
    for cell in res.values():
        assert cell["loss_mean"].shape == (2,)
        assert cell["final_loss"] == pytest.approx(cell["loss_mean"][-1])
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "cell,epoch,loss_recon_mean,loss_recon_std"
    assert len(lines) == 2 + 3 * 2  # cells x epochs


def test_ablation_codebook_report_format(tmp_path):
    rng = np.random.default_rng(22)
    graphs = [random_graph(rng, int(rng.integers(4, 8))) for _ in range(10)]
    cfg = ModelConfig(**BENCH_CFG, epochs_ae=2, batch_size=8, kmeans_samples=128)
    grid = [(4, 1), (2, 2)]
    out = tmp_path / "code.csv"
    res = ablation_codebook_report(graphs, cfg, out_path=str(out), grid=grid,
                                   seeds=(0,), with_prior=False)
    assert set(res) == {(4, 1), (2, 2)}
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


def test_default_codebook_grid_matches_dictionary_classes():
    Ms = {}
    for m, C in DEFAULT_CODEBOOK_GRID:
        Ms.setdefault(m ** C, []).append((m, C))
    assert set(Ms) == {256, 1024, 4096}
    # the collapse signature needs the single-partition cell compared
    # against multi-partition cells of the same dictionary size
    assert (256, 1) in Ms[256] and len(Ms[256]) == 3
