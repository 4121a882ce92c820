import numpy as np
import pytest

from dgae import autodiff as ad
from dgae.autodiff import Tensor
from dgae.quantize import (CodebookSet, commitment_loss, ema_update,
                           init_codebooks, kmeanspp_init, lookup, nearest,
                           perplexity, quantize)

from oracles import ema_update_per_partition, perplexity_from_histogram


def make_cbs(C=1, m=2, d_latent=2, **kw):
    return CodebookSet(C, m, d_latent, **kw)


def set_codewords(cbs, per_partition):
    for c, words in enumerate(per_partition):
        words = np.asarray(words, dtype=np.float64)
        cbs.codebooks[c] = words
        cbs.ema_counts[c] = np.ones(cbs.m)
        cbs.ema_sums[c] = words.copy()


def test_quantize_nearest():
    cbs = make_cbs()
    set_codewords(cbs, [np.array([[0.0, 0.0], [1.0, 1.0]])])
    idx, words = quantize(np.array([[0.2, 0.1]]), cbs)
    assert idx[0, 0] == 0
    assert np.array_equal(words[0], [0.0, 0.0])


def test_quantize_tie_takes_lower_index():
    cbs = make_cbs()
    set_codewords(cbs, [np.array([[1.0, 0.0], [-1.0, 0.0]])])
    idx, _ = quantize(np.array([[0.0, 5.0]]), cbs)
    assert idx[0, 0] == 0


def test_exact_ties_resolve_to_the_lowest_index_everywhere():
    # quantize: the query is equidistant from codewords 1 and 2
    cbs = make_cbs(m=3)
    set_codewords(cbs, [np.array([[9.0, 9.0], [1.0, 0.0], [-1.0, 0.0]])])
    idx, _ = quantize(np.array([[0.0, 0.0]]), cbs)
    assert idx.tolist() == [[1]]
    # init_codebooks: one distinct sample, so both codewords coincide
    # and every sample ties; the lower codeword takes them all
    cbs = CodebookSet(2, 2, 4)
    with pytest.warns(UserWarning):
        init_codebooks(cbs, np.full((6, 4), 3.0), np.random.default_rng(0))
    np.testing.assert_array_equal(cbs.ema_counts, [[6.0, 1.0], [6.0, 1.0]])
    # Lloyd: seeded at -1 and +1 (in either order), the midpoint 0 ties
    # and joins center 0, which moves to -k/(k+1) or k/(k+1) and keeps it
    k = 20
    samples = np.array([[-1.0]] * k + [[1.0]] * k + [[0.0]])
    centers = kmeanspp_init(samples, 2, np.random.default_rng(1))
    np.testing.assert_allclose(np.abs(centers[:, 0]), [k / (k + 1), 1.0], rtol=1e-12)


def test_nearest_is_per_partition_and_lookup_inverts_it():
    rng = np.random.default_rng(7)
    books = rng.normal(size=(3, 5, 2))
    z = rng.normal(size=(4, 6, 3, 2))
    idx = nearest(z, books)
    assert idx.shape == (4, 6, 3)
    for c in range(3):
        d2 = ((z[:, :, c, None, :] - books[c]) ** 2).sum(axis=-1)
        np.testing.assert_array_equal(idx[..., c], d2.argmin(axis=-1))
    words = lookup(books, idx)
    assert words.shape == (4, 6, 6)
    for c in range(3):
        np.testing.assert_array_equal(words[..., 2 * c:2 * c + 2], books[c][idx[..., c]])
    np.testing.assert_array_equal(nearest(words.reshape(z.shape), books), idx)


def test_lookup_of_no_tuples_is_no_rows():
    """The sampler looks up zero live rows once every sample has ended."""
    books = np.zeros((3, 5, 2))
    assert lookup(books, np.zeros((0, 1, 3), dtype=np.int64)).shape == (0, 1, 6)


def test_ema_update_matches_per_partition_oracle():
    """Each EMA step matches the per-partition oracle. Seeding and
    every step write the stacked arrays in place, so the model's
    per-partition views of them, its checkpoint entries, stay current."""
    rng = np.random.default_rng(8)
    z = rng.normal(size=(300, 12))
    cbs = CodebookSet(3, 6, 12, decay=0.9)
    keys = ("codebooks", "ema_counts", "ema_sums")
    arrays = [getattr(cbs, k) for k in keys]
    init_codebooks(cbs, z[:100], rng)
    want = {k: getattr(cbs, k).copy() for k in keys}
    for step in range(5):
        batch = z[60 * step:60 * step + 60]
        idx, _ = quantize(batch, cbs)
        ema_update(cbs, batch, idx)
        want = ema_update_per_partition(want, batch, idx, cbs.decay, cbs.eps)
        for key, arr in want.items():
            np.testing.assert_array_equal(getattr(cbs, key), arr)
    assert all(getattr(cbs, k) is a for k, a in zip(keys, arrays))


def test_quantize_idempotent_on_codewords():
    cbs = make_cbs(C=2, m=3, d_latent=4)
    rng = np.random.default_rng(0)
    set_codewords(cbs, [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))])
    z = rng.normal(size=(5, 4))
    idx1, words1 = quantize(z, cbs)
    idx2, words2 = quantize(words1, cbs)
    assert np.array_equal(idx1, idx2)
    assert np.array_equal(words1, words2)


def test_kmeanspp_saturated_seeding():
    samples = np.array([[0.0, 0.0], [5.0, 5.0], [-3.0, 1.0]])
    centers = kmeanspp_init(samples, 3, np.random.default_rng(1))
    got = {tuple(c) for c in centers}
    want = {tuple(s) for s in samples}
    assert got == want


def test_kmeanspp_single_center_is_mean():
    rng = np.random.default_rng(2)
    samples = rng.normal(size=(40, 3))
    centers = kmeanspp_init(samples, 1, rng)
    assert np.allclose(centers[0], samples.mean(axis=0), atol=1e-9)


def test_kmeanspp_warns_on_duplicates():
    samples = np.zeros((4, 2))
    with pytest.warns(UserWarning):
        kmeanspp_init(samples, 3, np.random.default_rng(3))


def test_kmeanspp_separates_two_blobs():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(50, 2)) * 0.1 + np.array([5.0, 5.0])
        b = rng.normal(size=(50, 2)) * 0.1 - np.array([5.0, 5.0])
        centers = kmeanspp_init(np.vstack([a, b]), 2, rng)
        signs = np.sign(centers[:, 0])
        if signs[0] != signs[1]:
            hits += 1
    assert hits >= 99


def test_ema_zero_memory_jumps_to_batch_mean():
    cbs = make_cbs(m=2, decay=0.0)
    set_codewords(cbs, [np.array([[0.0, 0.0], [10.0, 10.0]])])
    z = np.array([[1.0, 1.0], [3.0, 3.0]])  # both nearest codeword 0
    idx, _ = quantize(z, cbs)
    ema_update(cbs, z, idx)
    assert np.allclose(cbs.codebooks[0][0], [2.0, 2.0])


def test_ema_unassigned_codeword_is_fixed_point():
    cbs = make_cbs(m=2)
    set_codewords(cbs, [np.array([[0.0, 0.0], [10.0, 10.0]])])
    before = cbs.codebooks[0][1].copy()
    z = np.array([[0.1, 0.0]])
    for _ in range(300):
        idx, _ = quantize(z, cbs)
        ema_update(cbs, z, idx)
    # fixed point in exact arithmetic; the stored ratio drifts by ulps
    # because both accumulators are rescaled every step
    assert np.allclose(cbs.codebooks[0][1], before, rtol=1e-12, atol=0)


def test_ema_geometric_approach_to_cluster_mean():
    """With a frozen assignment, the codeword converges geometrically
    toward the batch mean at the decay rate.
    """
    cbs = make_cbs(m=2, decay=0.9)
    set_codewords(cbs, [np.array([[0.0, 0.0], [100.0, 100.0]])])
    z = np.array([[4.0, 4.0]])
    gaps = []
    for _ in range(80):
        idx, _ = quantize(z, cbs)
        ema_update(cbs, z, idx)
        gaps.append(np.linalg.norm(cbs.codebooks[0][0] - [4.0, 4.0]))
    assert gaps[-1] < 1e-2
    ratios = np.array(gaps[41:]) / np.array(gaps[40:-1])
    assert np.all(ratios < 1.0)
    assert np.allclose(ratios, ratios[0], atol=0.02)


def test_ema_contraction_after_burn_in():
    """Frozen encoder, fixed dataset: total codeword movement per step
    is monotonically non-increasing after burn-in.
    """
    rng = np.random.default_rng(4)
    data = np.vstack([rng.normal(size=(30, 2)) + off
                      for off in ([4, 0], [-4, 0], [0, 4], [0, -4])])
    z = data
    cbs = make_cbs(m=4, decay=0.95)
    init_codebooks(cbs, z, rng)
    moves = []
    for _ in range(200):
        before = cbs.codebooks.copy()
        idx, _ = quantize(z, cbs)
        ema_update(cbs, z, idx)
        after = cbs.codebooks
        moves.append(np.linalg.norm(after - before))
    burned = moves[20:]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(burned, burned[1:]))


def test_init_codebooks_seeds_accumulators():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(100, 8))
    cbs = CodebookSet(2, 4, 8)
    init_codebooks(cbs, z, rng)
    assert cbs.initialized
    for c in range(2):
        assert cbs.ema_counts[c].min() >= 1.0
        assert cbs.ema_counts[c].sum() >= 100
        want = cbs.ema_sums[c] / np.maximum(cbs.ema_counts[c], cbs.eps)[:, None]
        assert np.allclose(cbs.codebooks[c], want)


def test_commitment_zero_when_equal():
    z = Tensor(np.ones((2, 3)), requires_grad=True)
    loss = commitment_loss(z, np.ones((2, 3)), 1)
    assert float(loss.data) == 0.0


def test_commitment_single_node_value():
    z = Tensor(np.array([[1.0, 0.0]]), requires_grad=True)
    loss = commitment_loss(z, np.zeros((1, 2)), 1)
    assert float(loss.data) == pytest.approx(1.0)
    loss.backward()
    assert np.allclose(z.grad, [[2.0, 0.0]])


def test_commitment_takes_encoder_and_codeword_rows():
    z = Tensor(np.zeros((3, 4)), requires_grad=True)
    commitment_loss(z, np.zeros((3, 4)), 2)
    for words in (np.zeros((3, 2, 2)), np.zeros((2, 4)), np.zeros((3, 6))):
        with pytest.raises(ad.ShapeError):
            commitment_loss(z, words, 2)


def test_commitment_codewords_receive_no_gradient():
    z = Tensor(np.random.default_rng(6).normal(size=(4, 6)), requires_grad=True)
    words = Tensor(np.zeros((4, 6)), requires_grad=True)
    loss = commitment_loss(z, words.data, 2)
    loss.backward()
    assert z.grad is not None
    assert words.grad is None  # only the detached array ever enters the graph


def test_perplexity_counts_index_tuples():
    M = 9
    uniform = np.array([[i, j] for i in range(3) for j in range(3)])
    assert perplexity(uniform, M) == pytest.approx(1.0)
    assert perplexity(np.zeros((42, 2), dtype=np.int64), M) == pytest.approx(1.0 / M)
    half = np.repeat([[0, j] for j in range(3)], 2, axis=0)
    assert perplexity(half, 6) == pytest.approx(0.5)
    rng = np.random.default_rng(9)
    for _ in range(20):
        idx = rng.integers(0, 4, size=(int(rng.integers(1, 60)), 2))
        assert perplexity(idx, 16) == pytest.approx(perplexity_from_histogram(idx, 16),
                                                   rel=1e-12)


def test_perplexity_rejects_empty():
    with pytest.raises(ValueError):
        perplexity(np.zeros((0, 2), dtype=np.int64), 4)
