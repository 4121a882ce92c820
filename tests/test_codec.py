import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from dgae import autodiff as ad
from dgae import codec, prior
from dgae.autodiff import Tensor
from dgae.features import augment, feature_widths
from dgae.graphs import new_graph, permute
from dgae.quantize import CodebookSet, quantize
from dgae.training import AutoEncoderModel, ModelConfig, parameters

# label-stable feature set: eigenvector bases of degenerate Laplacian
# eigenspaces are solver-ordered, so spectral features carry no exact
# equivariance guarantee and stay out of these tests
DET_CFG = ModelConfig(feat_spectral=False, feat_random=False)


def make_models(rng, d_latent=6, state_width=8, mlp_hidden=12, layers=2,
                R=1, S=2, cfg=DET_CFG):
    fn, fe = feature_widths(dataclasses.replace(cfg, node_categories=R, edge_categories=S))
    state = {}
    enc = codec.EncoderParams(state, "enc", rng, fn, fe, state_width, mlp_hidden, layers,
                              d_latent)
    dec = codec.DecoderParams(state, "dec", rng, d_latent, state_width, mlp_hidden, layers,
                              R, S)
    return enc, dec, state


def random_graph(rng, n):
    return oracles.graph_from_adjacency(oracles.random_adjacency(rng, n))


def warm_up(enc, dec, graphs):
    """One training-mode pass so the batchnorm running stats are real."""
    batch = codec.prepare_batch([augment(g, DET_CFG) for g in graphs])
    z = codec.encode(batch, enc, train=True)
    codec.decode(z, batch.node_mask, dec, train=True)


def test_encode_decode_equivariance():
    rng = np.random.default_rng(0)
    enc, dec, _ = make_models(rng)
    warm_up(enc, dec, [random_graph(rng, 7) for _ in range(8)])
    for trial in range(12):
        n = int(rng.integers(2, 10))
        g = random_graph(rng, n)
        perm = rng.permutation(n)
        ag = augment(g, DET_CFG)
        ag_p = augment(permute(g, perm), DET_CFG)

        z = oracles.encode_graph(ag, enc)
        z_p = oracles.encode_graph(ag_p, enc)
        assert np.allclose(z_p, z[perm], atol=1e-6)

        nl, el = codec.decode(z, np.ones((1, n), dtype=bool), dec, train=False)
        nl_p, el_p = codec.decode(z[perm], np.ones((1, n), dtype=bool), dec, train=False)
        assert np.allclose(nl_p.data, nl.data[perm], atol=1e-6)
        assert np.allclose(oracles.pair_matrix(el_p.data, n),
                           oracles.pair_matrix(el.data, n)[np.ix_(perm, perm)], atol=1e-6)


def test_quantized_pipeline_equivariance():
    rng = np.random.default_rng(1)
    enc, dec, _ = make_models(rng)
    warm_up(enc, dec, [random_graph(rng, 7) for _ in range(8)])
    cbs = CodebookSet(2, 4, 6)
    for c in range(2):
        cbs.codebooks[c] = rng.normal(size=(4, 3))
    cbs.ema_counts[...] = 1.0  # seeded
    for trial in range(8):
        n = int(rng.integers(2, 10))
        g = random_graph(rng, n)
        perm = rng.permutation(n)
        z = oracles.encode_graph(augment(g, DET_CFG), enc)
        z_p = oracles.encode_graph(augment(permute(g, perm), DET_CFG), enc)
        idx, words = quantize(z, cbs)
        idx_p, words_p = quantize(z_p, cbs)
        assert np.array_equal(idx_p, idx[perm])
        assert np.allclose(words_p, words[perm], atol=1e-6)


def test_k3_latents_identical():
    rng = np.random.default_rng(2)
    enc, _, _ = make_models(rng)
    g = new_graph(3, [(0, 1), (1, 2), (0, 2)])
    z = oracles.encode_graph(augment(g, DET_CFG), enc)
    assert np.allclose(z[0], z[1], atol=1e-9)
    assert np.allclose(z[1], z[2], atol=1e-9)


def test_encode_shapes():
    rng = np.random.default_rng(3)
    enc, _, _ = make_models(rng)
    for n in (2, 5, 20):
        g = random_graph(rng, n)
        z = oracles.encode_graph(augment(g, DET_CFG), enc)
        assert z.shape == (n, 6)


def test_padded_batch_matches_solo_eval():
    rng = np.random.default_rng(4)
    enc, dec, _ = make_models(rng)
    warm_up(enc, dec, [random_graph(rng, 6) for _ in range(8)])
    g_small, g_big = random_graph(rng, 4), random_graph(rng, 9)
    ags = [augment(g_small, DET_CFG), augment(g_big, DET_CFG)]
    batch = codec.prepare_batch(ags)
    z_batch = codec.encode(batch, enc, train=False).data
    z_solo = oracles.encode_graph(ags[0], enc)
    assert np.allclose(z_batch[:4], z_solo, atol=1e-10)


def test_edge_logits_exactly_symmetric():
    rng = np.random.default_rng(5)
    _, dec, _ = make_models(rng)
    z = rng.normal(size=(2 * 6, 6))
    mask = np.ones((2, 6), dtype=bool)
    _, el = codec.decode(z, mask, dec, train=False)
    for rows in np.split(el.data, 2):
        el_b = oracles.pair_matrix(rows, 6)
        assert np.array_equal(el_b, np.transpose(el_b, (1, 0, 2)))


def test_single_node_graph():
    rng = np.random.default_rng(6)
    _, dec, _ = make_models(rng)
    z = rng.normal(size=(1, 6))
    nl, el = codec.decode(z, np.ones((1, 1), dtype=bool), dec, train=False)
    assert nl.shape == (1, 1) and el.shape == (0, 2)
    g = codec.sample_graph(nl.data, el.data)
    assert g.n == 1
    g.validate()


def test_sample_graph_rules():
    nl = np.zeros((2, 1))
    el = np.zeros((2, 3))  # the pairs (0, 1) and (1, 0)
    el[0] = el[1] = [5.0, -1.0, -1.0]
    g = codec.sample_graph(nl, np.copy(el))
    assert g.adjacency()[0, 1] == 0  # dominant "no edge" wins
    el[0] = el[1] = [1.0, 1.0, 1.0]  # exact tie -> category 0
    g = codec.sample_graph(nl, el)
    assert g.adjacency()[0, 1] == 0


def test_sample_graph_recovers_one_hot_triangle():
    want = new_graph(3, [(0, 1), (1, 2), (0, 2)])
    nl = np.zeros((3, 1))
    el = np.zeros((3, 3, 2))
    el[..., 0] = 10.0
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        el[i, j] = el[j, i] = [0.0, 10.0]
    g = codec.sample_graph(nl, el[~np.eye(3, dtype=bool)])
    assert np.array_equal(g.adjacency(), want.adjacency())


def test_recon_loss_uniform_edges_is_ln2_per_pair():
    g = new_graph(3, [(0, 1), (1, 2), (0, 2)])
    batch = codec.prepare_batch([augment(g, DET_CFG)])
    nl = Tensor(np.zeros((3, 1)))
    el = Tensor(np.zeros((6, 2)))
    loss = codec.recon_loss(nl, el, batch)
    n = 3
    want = (n * (n - 1)) * np.log(2.0) / (n + n * n)
    assert float(loss.data) == pytest.approx(want, rel=1e-12)


def test_recon_loss_perfect_prediction_near_zero():
    g = new_graph(3, [(0, 1), (1, 2)])
    batch = codec.prepare_batch([augment(g, DET_CFG)])
    nl = Tensor(np.zeros((3, 1)))
    el_data = np.zeros((3, 3, 2))
    el_data[..., 0] = 100.0
    adj = g.adjacency().astype(bool)
    el_data[adj] = [0.0, 100.0]
    loss = codec.recon_loss(nl, Tensor(el_data[~np.eye(3, dtype=bool)]), batch)
    assert float(loss.data) < 1e-6


def test_recon_loss_batch_is_mean_of_singles():
    rng = np.random.default_rng(7)
    gs = [random_graph(rng, 4), random_graph(rng, 7)]
    ags = [augment(g, DET_CFG) for g in gs]
    batch = codec.prepare_batch(ags)
    nl = Tensor(rng.normal(size=(4 + 7, 1)))
    el = Tensor(rng.normal(size=(4 * 3 + 7 * 6, 2)))
    whole = float(codec.recon_loss(nl, el, batch).data)
    singles = []
    for nodes, pairs, ag in zip(np.split(nl.data, [4]), np.split(el.data, [4 * 3]), ags):
        singles.append(float(codec.recon_loss(
            Tensor(nodes), Tensor(pairs), codec.prepare_batch([ag])).data))
    assert whole == pytest.approx(np.mean(singles), rel=1e-12)


def test_error_rates_counts_mistakes():
    g = new_graph(3, [(0, 1)])
    batch = codec.prepare_batch([augment(g, DET_CFG)])
    nl = np.zeros((3, 1))
    el = np.zeros((6, 2))
    el[..., 0] = 5.0  # predicts "no edge" everywhere: misses (0,1)
    node_err, edge_err = codec.error_counts(Tensor(nl), Tensor(el), batch)
    assert node_err == 0
    assert edge_err == 2  # both directions of one pair, of 6 ordered pairs


def test_mlp_applies_the_fused_relu_on_every_layer_but_the_last():
    """Each hidden layer is max(h @ w + b, 0), bit for bit, and the last
    layer is linear; a one-layer Mlp (ffn_layers = 1) is one affine."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 4))
    for sizes in ([4, 3], [4, 5, 3], [4, 5, 5, 3]):
        mlp = codec.Mlp({}, "m", rng, sizes)
        want = x
        for i, layer in enumerate(mlp.layers):
            want = want @ layer.w.data + layer.b.data
            if i < len(mlp.layers) - 1:
                want = np.maximum(want, 0.0)
        np.testing.assert_array_equal(mlp(Tensor(x)).data, want)
        assert (want < 0).any()


def test_prepare_batch_rows_follow_the_graphs():
    """Node rows are the graphs' nodes in graph order, the neighborhood
    pairs are each graph's own shifted by its first row, and the edge
    targets list each graph's pairs i != j row-major, so sample_graph
    rebuilds every graph from one-hot rows of its targets."""
    rng = np.random.default_rng(10)
    graphs = []
    for n in (4, 1, 6, 3):
        edges = [(i, j, int(rng.integers(1, 3))) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        graphs.append(new_graph(n, edges, rng.integers(0, 2, size=n), 2, 3))
    ags = [augment(g, DET_CFG) for g in graphs]
    batch = codec.prepare_batch(ags)
    first = np.cumsum([0] + [g.n for g in graphs])
    np.testing.assert_array_equal(batch.sizes, [4, 1, 6, 3])
    np.testing.assert_array_equal(batch.node_mask.sum(axis=1), batch.sizes)
    np.testing.assert_array_equal(batch.node_feats, np.concatenate([ag.node_feats for ag in ags]))
    np.testing.assert_array_equal(batch.node_targets,
                                  np.concatenate([g.node_categories for g in graphs]))
    pairs = batch.neighborhood
    want = np.concatenate([np.stack(np.nonzero(ag.neighborhood)) + lo
                           for ag, lo in zip(ags, first)], axis=1)
    np.testing.assert_array_equal(np.stack([pairs.i, pairs.j]), want)
    assert pairs.num_nodes == first[-1]
    for k, (i, j) in enumerate(zip(pairs.i, pairs.j)):
        b = np.searchsorted(first, i, side="right") - 1
        assert np.array_equal(batch.edge_feats[k], ags[b].edge_feats[i - first[b], j - first[b]])
    np.testing.assert_array_equal(batch.edge_targets, np.concatenate(
        [g.edge_categories[~np.eye(g.n, dtype=bool)] for g in graphs]))
    nodes = np.split(np.eye(2)[batch.node_targets], first[1:-1])
    pair_rows = np.split(np.eye(3)[batch.edge_targets],
                         np.cumsum([g.n * (g.n - 1) for g in graphs])[:-1])
    for g, nl, el in zip(graphs, nodes, pair_rows):
        assert oracles.graphs_equal(codec.sample_graph(nl, el), g)


@pytest.mark.parametrize("train", [True, False])
def test_pair_list_mpnn_matches_dense_oracle(train):
    """Message passing on the live pair list computes, per live row, what
    the dense form over all B*n*n pair rows computes: on a padded batch
    with an isolated node and a 1-node graph, z and node logits on valid
    nodes, edge logits on valid pairs, the loss, every parameter
    gradient and every batchnorm buffer match, and there is one edge
    logit row per valid pair."""
    rng = np.random.default_rng(9)
    models = make_models(rng)
    warm_up(*models[:2], [random_graph(rng, 7) for _ in range(8)])
    graphs = [random_graph(rng, n) for n in (3, 7, 5)]
    graphs += [new_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)]), new_graph(1, [])]
    batch = codec.prepare_batch([augment(g, DET_CFG) for g in graphs])
    isolated = 3 + 7 + 5 + 5  # the row of node 5 of the fourth graph
    assert isolated not in batch.neighborhood.i and isolated not in batch.neighborhood.j

    def run(encode, decode):
        enc, dec, state = copy.deepcopy(models)
        z = encode(batch, enc, train)
        nl, el = decode(z, batch.node_mask, dec, train)
        loss = codec.recon_loss(nl, el, batch)
        loss.backward()
        grads = {k: p.grad for k, p in parameters(state).items()}
        buffers = {k: v for k, v in state.items() if not isinstance(v, Tensor)}
        return (z.data, nl.data, el.data, loss.data), grads, buffers

    outs, grads, buffers = run(codec.encode, codec.decode)
    want_outs, want_grads, want_buffers = run(oracles.dense_encode, oracles.dense_decode)
    assert outs[2].shape[0] == (batch.sizes * (batch.sizes - 1)).sum() == len(batch.edge_targets)
    for got, want in zip(outs, want_outs):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for name, want in want_buffers.items():
        np.testing.assert_allclose(buffers[name], want, rtol=0, atol=1e-12, err_msg=name)
    assert grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        np.testing.assert_allclose(grads[name], want, rtol=0, atol=1e-10, err_msg=name)


def test_ae_step_memory_is_bounded():
    """One autoencoder step (encode, decode, recon_loss, backward) at
    B = 32 on sparse 20-node graphs with the default model keeps its
    traced allocation peak under 250 MB. Message passing holds (P, w)
    activations over the live pairs only: the encoder's are 37% of the
    B*n*n pair rows here and the decoder's 95%. backward() frees each
    layer's activations once its gradient has passed, so the peak is
    about 180 MB, against 339 MB when the whole tape lived until the
    step ended and 610 MB when every pair row is computed."""
    cfg = ModelConfig()
    model = AutoEncoderModel(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(11)
    graphs = [oracles.graph_from_adjacency(oracles.random_adjacency(rng, 20, 0.1))
              for _ in range(32)]
    batch = codec.prepare_batch([augment(g, cfg, rng=rng) for g in graphs])
    tracemalloc.start()
    try:
        z = codec.encode(batch, model.encoder, train=True)
        nl, el = codec.decode(z, batch.node_mask, model.decoder, train=True)
        codec.recon_loss(nl, el, batch).backward()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 250, f"AE step peak {peak:.0f} MB"


def test_prior_step_memory_is_bounded():
    """One prior step (prior_nll and backward) at B = 32 on full-length
    sets with the default model keeps its traced allocation peak under
    75 MB: about 57 MB, against 97 MB when the whole tape lived until
    the step ended."""
    cfg = ModelConfig()
    rng = np.random.default_rng(12)
    pparams = prior.PriorParams(cfg, rng)
    books = rng.normal(size=(cfg.partitions, cfg.codebook_size, cfg.d_latent // cfg.partitions))
    seqs = [prior.sort_set(rng.integers(0, cfg.codebook_size, size=(cfg.n_max, cfg.partitions)))
            for _ in range(32)]
    batch = prior.pack_sequences(seqs, cfg.n_max, books)
    tracemalloc.start()
    try:
        prior.prior_nll(pparams, batch).backward()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 75, f"prior step peak {peak:.0f} MB"


def test_decode_is_bit_identical_off_the_tape():
    rng = np.random.default_rng(8)
    enc, dec, _ = make_models(rng)
    warm_up(enc, dec, [random_graph(rng, 6) for _ in range(8)])
    mask = np.ones((3, 7), dtype=bool)
    mask[1, 5:] = False
    z = rng.normal(size=(mask.sum(), 6))
    taped = codec.decode(z, mask, dec, train=False)
    with ad.no_grad():
        free = codec.decode(z, mask, dec, train=False)
    for a, b in zip(taped, free):
        assert a.requires_grad and not b.requires_grad and b._parents == ()
        assert np.array_equal(a.data, b.data)


def _decoded_grid(edge_rows, counts):
    """(k, k, S) from a class decode's edge rows: the pairs a != b, and
    (a, a) where counts[a] >= 2, row-major; unlisted entries are NaN."""
    k = len(counts)
    listed = ~np.eye(k, dtype=bool) | np.diag(counts >= 2)
    grid = np.full((k, k, edge_rows.shape[1]), np.nan)
    grid[listed] = edge_rows
    return grid


def test_decode_with_counts_gives_every_node_its_class_logits():
    """Two sets decoded once over their code tuples (classes) with
    counts, and once node by node: each node's logits, and each pair's,
    are those of its class and its (class, class) pair."""
    rng = np.random.default_rng(12)
    enc, dec, _ = make_models(rng)
    warm_up(enc, dec, [random_graph(rng, 6) for _ in range(8)])
    class_z = rng.normal(size=(2 * 4, 6))
    counts = np.array([[2, 1, 3, 1], [1, 1, 1, 4]])
    # nodes in sample order; twins need not be adjacent
    classes = [np.array([0, 2, 1, 2, 0, 3, 2]), np.array([3, 0, 3, 1, 3, 2, 3])]
    with ad.no_grad():
        nl, el = codec.decode(class_z, np.ones((2, 4), dtype=bool), dec, train=False,
                              counts=counts)
    pair_rows = np.split(el.data, [4 * 3 + 2])
    for b, cls in enumerate(classes):
        assert np.array_equal(np.bincount(cls), counts[b])
        z = class_z[4 * b:4 * (b + 1)][cls]
        with ad.no_grad():
            node_nl, node_el = codec.decode(z, np.ones((1, len(cls)), dtype=bool), dec,
                                            train=False)
        np.testing.assert_allclose(nl.data[4 * b:4 * (b + 1)][cls], node_nl.data,
                                   rtol=1e-10, atol=1e-12)
        grid = _decoded_grid(pair_rows[b], counts[b])[np.ix_(cls, cls)]
        off = ~np.eye(len(cls), dtype=bool)
        np.testing.assert_allclose(grid[off], node_el.data, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_decode_with_unit_counts_is_byte_identical(dtype):
    """With every count 1, the pair list and the arithmetic are those of
    a decode without counts, padding slots included."""
    rng = np.random.default_rng(13)
    enc, dec, _ = make_models(rng)
    warm_up(enc, dec, [random_graph(rng, 6) for _ in range(8)])
    mask = np.ones((3, 5), dtype=bool)
    mask[1, 3:] = False
    z = rng.normal(size=(mask.sum(), 6)).astype(dtype)
    with ad.no_grad():
        plain = codec.decode(z, mask, dec, train=False)
        counted = codec.decode(z, mask, dec, train=False, counts=np.ones(mask.shape, np.int64))
    for a, b in zip(plain, counted):
        assert a.data.dtype == b.data.dtype == dtype
        assert np.array_equal(a.data, b.data)


def test_decode_counts_need_eval_mode():
    rng = np.random.default_rng(14)
    _, dec, _ = make_models(rng)
    with pytest.raises(ValueError, match="eval mode"):
        codec.decode(rng.normal(size=(3, 6)), np.ones((1, 3), dtype=bool), dec, train=True,
                     counts=np.array([[2, 1, 1]]))


def test_sample_graph_expands_class_categories_to_the_nodes():
    # classes 0 (two nodes) and 1 (one node); listed pairs (0, 0),
    # (0, 1), (1, 0)
    nl = np.array([[0.0, 1.0], [2.0, 0.0]])
    el = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    g = codec.sample_graph(nl, el, np.array([0, 1, 0]))
    assert np.array_equal(g.node_categories, [1, 0, 1])
    assert np.array_equal(g.adjacency(), [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    g.validate()
