"""Partitioned vector quantization with EMA codebook updates.

The encoder's d_latent-wide node embedding is split into C equal
parts; each part is snapped to its nearest codeword in a per-partition
codebook of m entries. Codebooks are not trained by gradient descent:
they track an exponential moving average of the embeddings assigned to
each codeword. The effective dictionary is the product space of the C
codebooks (M = m**C tuples).
"""

from __future__ import annotations

import warnings

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class CodebookSet:
    """C codebooks of shape (m, d_latent / C) plus EMA accumulators."""

    def __init__(self, num_partitions, codebook_size, d_latent, decay=0.99, eps=1e-5):
        if d_latent % num_partitions != 0:
            raise ValueError(f"d_latent={d_latent} not divisible by C={num_partitions}")
        self.C = num_partitions
        self.m = codebook_size
        self.d_part = d_latent // num_partitions
        self.decay = decay
        self.eps = eps
        self.codebooks = [np.zeros((self.m, self.d_part)) for _ in range(self.C)]
        self.ema_counts = [np.zeros(self.m) for _ in range(self.C)]
        self.ema_sums = [np.zeros((self.m, self.d_part)) for _ in range(self.C)]
        self.initialized = False


def partition(z, C):
    """Split the last axis into C equal chunks: (..., d) -> (..., C, d/C)."""
    d = z.shape[-1]
    if d % C != 0:
        raise ValueError(f"latent width {d} not divisible by {C} partitions")
    if isinstance(z, Tensor):
        return ad.reshape(z, z.shape[:-1] + (C, d // C))
    return np.asarray(z).reshape(z.shape[:-1] + (C, d // C))


def unpartition(z_parts):
    """Inverse of partition on arrays: (..., C, d/C) -> (..., d)."""
    z = np.asarray(z_parts)
    return z.reshape(z.shape[:-2] + (z.shape[-2] * z.shape[-1],))


def quantize(z_parts, cbs: CodebookSet):
    """Nearest-codeword assignment per partition (ties: lowest index).

    z_parts: numpy array (..., C, d_part).
    Returns (indices (..., C) int64, codewords (..., C, d_part)).
    """
    if not cbs.initialized:
        raise RuntimeError("codebooks are not initialized; run k-means++ first")
    z_parts = np.asarray(z_parts)
    lead = z_parts.shape[:-2]
    flat = z_parts.reshape(-1, cbs.C, cbs.d_part)
    indices = np.empty((flat.shape[0], cbs.C), dtype=np.int64)
    words = np.empty_like(flat)
    for c in range(cbs.C):
        zc = flat[:, c, :]
        H = cbs.codebooks[c]
        d2 = (zc * zc).sum(axis=1, keepdims=True) - 2.0 * zc @ H.T + (H * H).sum(axis=1)
        idx = np.argmin(d2, axis=1)
        indices[:, c] = idx
        words[:, c, :] = H[idx]
    return indices.reshape(lead + (cbs.C,)), words.reshape(lead + (cbs.C, cbs.d_part))


def kmeanspp_init(samples, m, rng, iters=100, tol=1e-6):
    """k-means++ seeding followed by Lloyd refinement.

    samples: (N, d). Returns centers (m, d). If the samples contain
    fewer than m distinct points some centers coincide; a warning is
    emitted because duplicate codewords waste dictionary capacity.
    """
    samples = np.asarray(samples, dtype=np.float64)
    N = samples.shape[0]
    if N == 0:
        raise ValueError("k-means++ needs at least one sample")
    distinct = np.unique(samples, axis=0).shape[0]
    if distinct < m:
        warnings.warn(f"only {distinct} distinct samples for {m} codewords; "
                      "some codewords will coincide")
    centers = np.empty((m, samples.shape[1]))
    first = int(rng.integers(0, N))
    centers[0] = samples[first]
    d2 = ((samples - centers[0]) ** 2).sum(axis=1)
    for k in range(1, m):
        total = d2.sum()
        if total <= 0:
            centers[k] = samples[int(rng.integers(0, N))]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r))
            idx = min(idx, N - 1)
            centers[k] = samples[idx]
        d2 = np.minimum(d2, ((samples - centers[k]) ** 2).sum(axis=1))

    for _ in range(iters):
        dist = ((samples[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = dist.argmin(axis=1)
        new_centers = centers.copy()
        for k in range(m):
            sel = assign == k
            if sel.any():
                new_centers[k] = samples[sel].mean(axis=0)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < tol:
            break
    return centers


def init_codebooks(cbs: CodebookSet, z_parts, rng):
    """Initialize every partition's codebook by k-means++ on the given
    embeddings and seed the EMA accumulators from the cluster masses.
    """
    z_parts = np.asarray(z_parts).reshape(-1, cbs.C, cbs.d_part)
    for c in range(cbs.C):
        centers = kmeanspp_init(z_parts[:, c, :], cbs.m, rng)
        cbs.codebooks[c] = centers
        d2 = ((z_parts[:, c, :, None] - centers.T[None]) ** 2).sum(axis=1)
        assign = d2.argmin(axis=1)
        counts = np.bincount(assign, minlength=cbs.m).astype(np.float64)
        # a cluster that owns no samples still needs mass, or the first
        # moving-average step would snap its codeword to the origin
        counts = np.maximum(counts, 1.0)
        cbs.ema_counts[c] = counts
        cbs.ema_sums[c] = centers * counts[:, None]
    cbs.initialized = True


def ema_update(cbs: CodebookSet, z_parts, indices):
    """One moving-average step toward the batch assignment means.

    N_c <- decay*N_c + (1-decay)*count_c
    S_c <- decay*S_c + (1-decay)*sum_c
    H_c = S_c / max(N_c, eps)

    The count floor keeps never-assigned codewords exactly where they
    are instead of dividing by a vanishing denominator.
    """
    z_parts = np.asarray(z_parts).reshape(-1, cbs.C, cbs.d_part)
    indices = np.asarray(indices).reshape(-1, cbs.C)
    g = cbs.decay
    for c in range(cbs.C):
        counts = np.bincount(indices[:, c], minlength=cbs.m).astype(np.float64)
        sums = np.zeros((cbs.m, cbs.d_part))
        np.add.at(sums, indices[:, c], z_parts[:, c, :])
        cbs.ema_counts[c] = g * cbs.ema_counts[c] + (1.0 - g) * counts
        cbs.ema_sums[c] = g * cbs.ema_sums[c] + (1.0 - g) * sums
        denom = np.maximum(cbs.ema_counts[c], cbs.eps)
        cbs.codebooks[c] = cbs.ema_sums[c] / denom[:, None]


def commitment_loss(z_parts: Tensor, codewords):
    """Mean squared distance pulling encoder outputs toward their
    (stop-gradient) codewords: sum over partition width, mean over the
    node x partition grid. Gradient reaches only the encoder.
    """
    codewords = np.asarray(codewords)
    if z_parts.shape != codewords.shape:
        raise ad.ShapeError(f"commitment shapes differ: {z_parts.shape} vs {codewords.shape}")
    diff = z_parts + Tensor(-codewords)
    grid = codewords.size // codewords.shape[-1]
    return ad.mul(ad.sum_(ad.mul(diff, diff)), 1.0 / max(grid, 1))


def tuple_histogram(indices, C):
    """Counts of distinct index tuples. Returns dict tuple -> count."""
    indices = np.asarray(indices).reshape(-1, C)
    hist = {}
    for row in indices:
        key = tuple(int(x) for x in row)
        hist[key] = hist.get(key, 0) + 1
    return hist


def perplexity(hist, M):
    """exp(entropy) of the tuple usage distribution, normalized by the
    dictionary size M. 1.0 means uniform usage; 1/M means collapse to
    a single tuple.
    """
    total = float(sum(hist.values()))
    if total == 0 or M <= 0:
        raise ValueError("perplexity needs a nonempty histogram and M > 0")
    h = 0.0
    for count in hist.values():
        p = count / total
        if p > 0:
            h -= p * np.log(p)
    return float(np.exp(h)) / M
