import numpy as np
import pytest

from dgae import autodiff as ad
from dgae.autodiff import Tensor
from dgae.quantize import (CodebookSet, commitment_loss, ema_update,
                           init_codebooks, kmeanspp_init, partition,
                           perplexity, quantize, tuple_histogram, unpartition)


def make_cbs(C=1, m=2, d_latent=2, **kw):
    return CodebookSet(C, m, d_latent, **kw)


def set_codewords(cbs, per_partition):
    for c, words in enumerate(per_partition):
        words = np.asarray(words, dtype=np.float64)
        cbs.codebooks[c] = words
        cbs.ema_counts[c] = np.ones(cbs.m)
        cbs.ema_sums[c] = words.copy()
    cbs.initialized = True


def test_partition_roundtrip():
    z = np.arange(32, dtype=np.float64).reshape(2, 16)
    parts = partition(z, 2)
    assert parts.shape == (2, 2, 8)
    assert np.array_equal(unpartition(parts), z)
    assert np.array_equal(partition(z, 1)[:, 0, :], z)


def test_partition_tensor_roundtrip():
    z = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4), requires_grad=True)
    back = unpartition(partition(z, 2))
    assert np.array_equal(back.data, z.data)
    ad.sum_(back).backward()
    assert np.array_equal(z.grad, np.ones((3, 4)))


def test_partition_rejects_indivisible():
    with pytest.raises(ValueError):
        partition(np.zeros((1, 16)), 3)
    with pytest.raises(ValueError):
        CodebookSet(3, 4, 16)


def test_quantize_nearest():
    cbs = make_cbs()
    set_codewords(cbs, [np.array([[0.0, 0.0], [1.0, 1.0]])])
    idx, words = quantize(np.array([[[0.2, 0.1]]]), cbs)
    assert idx[0, 0] == 0
    assert np.array_equal(words[0, 0], [0.0, 0.0])


def test_quantize_tie_takes_lower_index():
    cbs = make_cbs()
    set_codewords(cbs, [np.array([[1.0, 0.0], [-1.0, 0.0]])])
    idx, _ = quantize(np.array([[[0.0, 5.0]]]), cbs)
    assert idx[0, 0] == 0


def test_quantize_idempotent_on_codewords():
    cbs = make_cbs(C=2, m=3, d_latent=4)
    rng = np.random.default_rng(0)
    set_codewords(cbs, [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))])
    z = rng.normal(size=(5, 2, 2))
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
    z = np.array([[[1.0, 1.0]], [[3.0, 3.0]]])  # both nearest codeword 0
    idx, _ = quantize(z, cbs)
    ema_update(cbs, z, idx)
    assert np.allclose(cbs.codebooks[0][0], [2.0, 2.0])


def test_ema_unassigned_codeword_is_fixed_point():
    cbs = make_cbs(m=2)
    set_codewords(cbs, [np.array([[0.0, 0.0], [10.0, 10.0]])])
    before = cbs.codebooks[0][1].copy()
    z = np.array([[[0.1, 0.0]]])
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
    z = np.array([[[4.0, 4.0]]])
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
    z = data.reshape(-1, 1, 2)
    cbs = make_cbs(m=4, decay=0.95)
    init_codebooks(cbs, z, rng)
    moves = []
    for _ in range(200):
        before = np.concatenate([c.ravel() for c in cbs.codebooks])
        idx, _ = quantize(z, cbs)
        ema_update(cbs, z, idx)
        after = np.concatenate([c.ravel() for c in cbs.codebooks])
        moves.append(np.linalg.norm(after - before))
    burned = moves[20:]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(burned, burned[1:]))


def test_init_codebooks_seeds_accumulators():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(100, 2, 4))
    cbs = CodebookSet(2, 4, 8)
    init_codebooks(cbs, z, rng)
    assert cbs.initialized
    for c in range(2):
        assert cbs.ema_counts[c].min() >= 1.0
        assert cbs.ema_counts[c].sum() >= 100
        want = cbs.ema_sums[c] / np.maximum(cbs.ema_counts[c], cbs.eps)[:, None]
        assert np.allclose(cbs.codebooks[c], want)


def test_commitment_zero_when_equal():
    z = Tensor(np.ones((2, 1, 3)), requires_grad=True)
    loss = commitment_loss(z, np.ones((2, 1, 3)))
    assert float(loss.data) == 0.0


def test_commitment_single_node_value():
    z = Tensor(np.array([[[1.0, 0.0]]]), requires_grad=True)
    loss = commitment_loss(z, np.zeros((1, 1, 2)))
    assert float(loss.data) == pytest.approx(1.0)
    loss.backward()
    assert np.allclose(z.grad, [[[2.0, 0.0]]])


def test_commitment_codewords_receive_no_gradient():
    z = Tensor(np.random.default_rng(6).normal(size=(4, 2, 3)), requires_grad=True)
    words = Tensor(np.zeros((4, 2, 3)), requires_grad=True)
    loss = commitment_loss(z, words.data)
    loss.backward()
    assert z.grad is not None
    assert words.grad is None  # only the detached array ever enters the graph


def test_commitment_mask_excludes_padding():
    rng = np.random.default_rng(7)
    real = rng.normal(size=(1, 2, 1, 4))
    z = Tensor(np.concatenate([real, 100 * np.ones((1, 2, 1, 4))], axis=1),
               requires_grad=True)
    words = np.zeros((1, 4, 1, 4))
    mask = np.array([[True, True, False, False]])
    masked = commitment_loss(z, words, mask=mask)
    bare = commitment_loss(Tensor(real), words[:, :2])
    assert float(masked.data) == pytest.approx(float(bare.data))
    masked.backward()
    assert np.all(z.grad[0, 2:] == 0)


def test_tuple_histogram_and_perplexity():
    idx = np.array([[0, 1], [0, 1], [2, 0]])
    hist = tuple_histogram(idx, C=2)
    assert hist[(0, 1)] == 2 and hist[(2, 0)] == 1
    M = 9
    uniform = {(i, j): 1 for i in range(3) for j in range(3)}
    assert perplexity(uniform, M) == pytest.approx(1.0)
    assert perplexity({(0, 0): 42}, M) == pytest.approx(1.0 / M)
    half = {(0, j): 2 for j in range(3)}
    assert perplexity(half, 6) == pytest.approx(0.5)


def test_perplexity_rejects_empty():
    with pytest.raises(ValueError):
        perplexity({}, 4)
