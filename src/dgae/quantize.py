"""Partitioned vector quantization with EMA codebook updates.

The encoder's d_latent-wide node embedding is split into C equal
parts; each part is snapped to its nearest codeword in a per-partition
codebook of m entries. The split stays inside this module: its callers
pass and get back d_latent-wide rows, the C parts side by side, and
(..., C) index tuples. Codebooks are not trained by gradient descent:
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
    """C stacked codebooks (C, m, d_latent / C) plus EMA accumulators:
    counts (C, m) and sums (C, m, d_latent / C). The arrays are only
    ever written in place, so views of them stay current."""

    def __init__(self, num_partitions, codebook_size, d_latent, decay=0.99, eps=1e-5):
        self.C = num_partitions
        self.m = codebook_size
        self.d_part = d_latent // num_partitions
        self.decay = decay
        self.eps = eps
        self.codebooks = np.zeros((self.C, self.m, self.d_part))
        self.ema_counts = np.zeros((self.C, self.m))
        self.ema_sums = np.zeros((self.C, self.m, self.d_part))

    @property
    def initialized(self):
        # seeding sets every EMA count >= 1; an EMA step keeps each partition's total > 0
        return bool(self.ema_counts.any())


def nearest(z, H):
    """Index of the codeword of H nearest to each vector of z, ties to
    the lowest index: z (..., d) against H (m, d), or z (..., C, d)
    against the stacked codebooks H (C, m, d) partition by partition.
    """
    return ((z[..., None, :] - H) ** 2).sum(axis=-1).argmin(axis=-1)


def lookup(codebooks, idx):
    """Codeword rows (..., C * d_part) of the index tuples idx (..., C)
    in the stacked codebooks (C, m, d_part). The width is explicit, as
    idx may hold no tuples."""
    C, _, d_part = codebooks.shape
    return codebooks[np.arange(C), idx].reshape(idx.shape[:-1] + (C * d_part,))


def quantize(z, cbs: CodebookSet):
    """Nearest-codeword assignment per partition of the rows z (...,
    d_latent): (indices (..., C) int64, codeword rows (..., d_latent)).
    """
    if not cbs.initialized:
        raise RuntimeError("codebooks are not initialized; run k-means++ first")
    indices = nearest(z.reshape(z.shape[:-1] + (cbs.C, cbs.d_part)), cbs.codebooks)
    return indices, lookup(cbs.codebooks, indices)


def kmeanspp_init(samples, m, rng):
    """k-means++ seeding, then up to 100 Lloyd steps, until no center moves 1e-6.

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
    d2 = np.full(N, np.inf)  # squared distance to the nearest center so far
    for k in range(m):
        total = d2.sum()
        if not 0 < total < np.inf:  # the first center, or every sample is one
            centers[k] = samples[int(rng.integers(0, N))]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r))
            idx = min(idx, N - 1)
            centers[k] = samples[idx]
        d2 = np.minimum(d2, ((samples - centers[k]) ** 2).sum(axis=1))

    for _ in range(100):
        assign = nearest(samples, centers)
        new_centers = centers.copy()
        for k in range(m):
            sel = assign == k
            if sel.any():
                new_centers[k] = samples[sel].mean(axis=0)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < 1e-6:
            break
    return centers


def _usage(cbs: CodebookSet, indices):
    """Flat codeword slots c*m + k of index tuples (..., C), row by row,
    and how many tuples use each codeword: counts (C, m)."""
    slots = (np.asarray(indices).reshape(-1, cbs.C) + cbs.m * np.arange(cbs.C)).ravel()
    return slots, np.bincount(slots, minlength=cbs.C * cbs.m).reshape(cbs.C, cbs.m)


def init_codebooks(cbs: CodebookSet, z, rng):
    """Seed every partition's codebook by k-means++ on the embedding
    rows z (N, d_latent), and the EMA accumulators from cluster masses.
    """
    z_parts = np.asarray(z).reshape(-1, cbs.C, cbs.d_part)
    cbs.codebooks[...] = np.stack([kmeanspp_init(z_parts[:, c, :], cbs.m, rng)
                                   for c in range(cbs.C)])
    _, counts = _usage(cbs, nearest(z_parts, cbs.codebooks))
    # a cluster that owns no samples still needs mass, or the first
    # moving-average step would snap its codeword to the origin
    cbs.ema_counts[...] = np.maximum(counts, 1.0)
    cbs.ema_sums[...] = cbs.codebooks * cbs.ema_counts[..., None]


def ema_update(cbs: CodebookSet, z, indices):
    """One moving-average step toward the batch assignment means of the
    embedding rows z (N, d_latent), assigned the index tuples (N, C).

    N_c <- decay*N_c + (1-decay)*count_c
    S_c <- decay*S_c + (1-decay)*sum_c
    H_c = S_c / max(N_c, eps)

    The count floor keeps never-assigned codewords exactly where they
    are instead of dividing by a vanishing denominator.
    """
    slots, counts = _usage(cbs, indices)
    sums = np.zeros((cbs.C * cbs.m, cbs.d_part))
    np.add.at(sums, slots, np.asarray(z).reshape(-1, cbs.d_part))
    g = cbs.decay
    cbs.ema_counts[...] = g * cbs.ema_counts + (1.0 - g) * counts
    cbs.ema_sums[...] = g * cbs.ema_sums + (1.0 - g) * sums.reshape(cbs.ema_sums.shape)
    cbs.codebooks[...] = cbs.ema_sums / np.maximum(cbs.ema_counts, cbs.eps)[..., None]


def commitment_loss(z: Tensor, words, C):
    """Mean squared distance pulling the encoder rows z (N, d_latent)
    toward their (stop-gradient) codeword rows words (N, d_latent) of C
    partitions: sum over partition width, mean over the node x
    partition grid. Gradient reaches only the encoder.
    """
    words = np.asarray(words)
    if words.ndim != 2 or z.shape != words.shape:
        raise ad.ShapeError(f"commitment shapes differ: {z.shape} vs {words.shape}")
    diff = z + Tensor(-words)
    return ad.mul(ad.sum_(ad.mul(diff, diff)), 1.0 / max(words.shape[0] * C, 1))


def perplexity(indices, M):
    """exp(entropy) of the usage distribution of the index tuples
    (N, C), normalized by the dictionary size M. 1.0 means uniform
    usage; 1/M means collapse to a single tuple.
    """
    indices = np.asarray(indices)
    if indices.shape[0] == 0 or M <= 0:
        raise ValueError("perplexity needs at least one index tuple and M > 0")
    _, counts = np.unique(indices, axis=0, return_counts=True)
    p = counts / counts.sum()
    return float(np.exp(-(p * np.log(p)).sum())) / M
