"""Autoregressive prior over sorted quantized node sets.

A graph's quantized latent is an unordered set of index tuples, one
(C,)-tuple per node. Sorting the tuples lexicographically maps the set
to a canonical sequence, which a transformer factorizes position by
position and partition by partition (raster order). Each stream
position t is one node; its C partitions are predicted left to right,
conditioned on all earlier nodes through attention and on the current
node's earlier partitions through the input projections. A node
enters as its d_latent-wide codeword row from quantize.lookup, whose
first c * d_part columns are its partitions 0..c-1.

The activations are C partition columns, column c a (B, T+1, d_model)
Tensor holding partition c at every position. Each partition has its
own input projection, queries and output head, and every column
attends with the same causal mask over the keys and values of column
0, so the per-node state that later positions attend to is built once
per node. End-of-set is an extra class (index m) that only the
partition-0 head may emit. A structural order mask zeroes the
probability of breaking the sorted-order invariant on partition 0.

Attention needs no padding mask. Row t attends only to the nodes
s < t, and every row the loss reads has t at most the set's length, so
every key it sees belongs to a real node or the start node. The keys of
padded slots reach only padded rows, whose targets are IGNORE, which
the cross-entropy scores 0 with no gradient.

Teacher forcing and sampling share one forward definition. The sampler
runs the same input projection, block and masked output head one
(t, c) at a time on a one-row column: the queries of node t,
partition c attend over the keys and values of the N live samples'
nodes 0..t-1, read from a cache (blocks, 2, N, n_max, d_model). These
are exactly the keys the teacher-forced causal mask lets row t see, so
no key is left to mask, and node 0 attends over none and gets zeros.

generate samples in float32, then re-draws in float64, from the same
uniforms, every sample whose margin (the smallest |cdf_k - u| over all
its draws) is under NEAR_TIE, and keeps the float64 sets. Its output is
the float64 sampler's as long as float32 moves no cdf entry by
NEAR_TIE / 2, a bound measured, not proven: on the benchmark's
checkpoint the largest |cdf32 - cdf64| over 16 seeds x 1,024 samples
was 1.9e-6, and NEAR_TIE = 2e-5 is about 10 times that. There all
16,384 sets equal the float64 sampler's, and 1.5 % were re-drawn.
"""

from __future__ import annotations

import os
import struct
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import quantize
from .autodiff import MASK_VALUE, Tensor
from .codec import Affine, Mlp


def sinusoidal_positions(rows, d_model):
    """Classic fixed sin/cos position table (rows, d_model)."""
    pos = np.arange(rows)[:, None].astype(np.float64)
    i = np.arange(d_model // 2)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * i / d_model)
    table = np.zeros((rows, d_model))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


class PriorBlock:
    """Post-LN transformer block with partition-wise queries.

    Queries exist per (partition, head); keys and values per head come
    from the partition-0 representation of each node.
    """

    def __init__(self, state, name, rng, d_model, heads, C, ffn_layers=4):
        self.heads = heads
        self.wq = [Affine(state, f"{name}.wq{c}", rng, d_model, d_model) for c in range(C)]
        self.wk = Affine(state, name + ".wk", rng, d_model, d_model)
        self.wv = Affine(state, name + ".wv", rng, d_model, d_model)
        self.ln1 = ad.norm_params(state, name + ".ln1", d_model)
        sizes = [d_model] + [2 * d_model] * (ffn_layers - 1) + [d_model]
        self.f_z = Mlp(state, name + ".f_z", rng, sizes)
        self.ln2 = ad.norm_params(state, name + ".ln2", d_model)


class PriorParams:
    """The prior's layers; self.state is their named table. Their sizes
    come from the ModelConfig cfg: d_latent, partitions (C),
    codebook_size (m), d_model, heads, blocks, n_max and ffn_layers,
    which cfg.validate() checks fit together."""

    def __init__(self, cfg, rng):
        C, d_latent, d_model = cfg.partitions, cfg.d_latent, cfg.d_model
        self.C = C
        self.m = cfg.codebook_size
        self.d_latent = d_latent
        self.d_part = d_latent // C
        self.d_model = d_model
        self.n_max = cfg.n_max
        self.state = {}
        # partition c sees the previous node (d_latent wide) plus the
        # current node's first c partitions
        self.in_proj = [Affine(self.state, f"prior.in_proj{c}", rng, d_latent + c * self.d_part,
                               d_model) for c in range(C)]
        self.pos_table = sinusoidal_positions(cfg.n_max + 1, d_model)
        self.blocks = [PriorBlock(self.state, f"prior.block{i}", rng, d_model, cfg.heads, C,
                                  cfg.ffn_layers) for i in range(cfg.blocks)]
        self.out = [Affine(self.state, f"prior.out{c}", rng, d_model, self.m + 1)
                    for c in range(C)]


def sort_set(indices):
    """Canonical order (T, C): lexicographic by index tuple, partition 0
    most significant. Stable, so equal tuples keep their relative order.
    """
    indices = np.asarray(indices, dtype=np.int64)
    return indices[np.lexsort(indices.T[::-1])]


IGNORE = -1  # the target of a slot the loss does not score


@dataclass
class SequenceBatch:
    """Sets of lengths len padded to T+1 teacher-forced slots. Slot t <
    len holds node t's codeword row and targets its indices; slot len
    targets end-of-set (m) on partition 0; every other target is
    IGNORE. The rows of slots t >= len are the finite lookups of their
    clipped targets, which no scored slot reads."""
    codewords: np.ndarray  # (B, T+1, d_latent)
    targets: np.ndarray    # (B, T+1, C) int64


def pack_sequences(seqs, n_max, codebooks) -> SequenceBatch:
    """Lay sorted index sequences (T, C) out in one batch's slots and look
    up their codeword rows in the stacked codebooks (C, m, d_part)."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    if lengths.min() < 1:
        raise ValueError("sequences must have at least one node")
    if lengths.max() > n_max:
        raise ValueError(f"sequence of length {lengths.max()} exceeds n_max={n_max}")
    C, m, _ = codebooks.shape
    targets = np.full((len(seqs), int(lengths.max()) + 1, C), IGNORE, dtype=np.int64)
    for b, s in enumerate(seqs):
        targets[b, :len(s)] = s
        targets[b, len(s), 0] = m
    return SequenceBatch(quantize.lookup(codebooks, np.clip(targets, 0, m - 1)), targets)


def _input_column(params: PriorParams, c, prev, cur, pos) -> Tensor:
    """Partition c's block input (B, T, d_model) at T positions:
    in_proj[c] of the codeword rows (B, T, d_latent) of the previous
    node, prev, and of the current node's partitions 0..c-1, cur's
    first c * d_part columns, plus the position rows pos (T, d_model).
    """
    inp = np.concatenate([prev, cur[:, :, :c * params.d_part]], axis=2)
    return params.in_proj[c](inp) + Tensor(pos)


def build_inputs(params: PriorParams, batch: SequenceBatch):
    """Project codeword context to the model width: C columns, column c
    (B, T+1, d_model) for partition c. Slot t, partition c sees the
    previous node's full codeword row (zeros at t = 0: the virtual start
    node) and slot t's partitions 0..c-1; the position encoding is added
    after the projection."""
    prev = np.zeros_like(batch.codewords)
    prev[:, 1:] = batch.codewords[:, :-1]
    pos = params.pos_table[:prev.shape[1]]
    return [_input_column(params, c, prev, batch.codewords, pos) for c in range(params.C)]


def _block_forward(blk: PriorBlock, x: Tensor, k: Tensor, v: Tensor, c, first):
    """Partition c's column x (B, T, d_model) -> same shape. Its rows
    are the node positions first..first+T-1, and k, v (B, S, d_model)
    are the keys and values of positions 0..S-1: the queries at
    position t average the values of the strictly earlier positions
    s < t, and a row with none (t = 0, or S = 0) gets zeros. Teacher
    forcing passes first = 0 and S = T; the sampler passes first = t
    and the S = t keys before it, which its mask allows all of. The
    mask depends on t only, so every column shares it.
    """
    T, S = x.shape[1], k.shape[1]
    allowed = np.arange(S) < (first + np.arange(T))[:, None]  # (T, S)
    a = ad.causal_attention(blk.wq[c](x), k, v, allowed, blk.heads)
    h = ad.layernorm(x + a, *blk.ln1)
    return ad.layernorm(h + blk.f_z(h), *blk.ln2)


def _logits(params: PriorParams, x: Tensor, c, prev_k0) -> Tensor:
    """Masked logits (B, T, m+1) of partition c's block output x
    (B, T, d_model). End-of-set (class m) is only available on
    partition 0, where classes below the previous node's partition-0
    index prev_k0 (B, T; 0 at the start node) are forbidden to keep the
    set sorted.
    """
    classes = np.arange(params.m + 1)
    mask = classes < prev_k0[:, :, None] if c == 0 else classes == params.m
    return ad.masked_fill(params.out[c](x), mask, MASK_VALUE)


def prior_logits(params: PriorParams, batch: SequenceBatch):
    """Teacher-forced masked logits: C columns, column c (B, T+1, m+1)
    for partition c. Logits at slots whose target is IGNORE are
    meaningless, and the loss scores them 0.
    """
    x = build_inputs(params, batch)
    for blk in params.blocks:
        k, v = blk.wk(x[0]), blk.wv(x[0])
        x = [_block_forward(blk, col, k, v, c, 0) for c, col in enumerate(x)]
    prev_k0 = np.zeros(batch.targets.shape[:2], dtype=np.int64)
    prev_k0[:, 1:] = batch.targets[:, :-1, 0]
    return [_logits(params, col, c, prev_k0) for c, col in enumerate(x)]


def prior_nll(params: PriorParams, batch: SequenceBatch) -> Tensor:
    """Mean cross-entropy over the targets that are not IGNORE (C per
    node plus one end-of-set per set), pooled across the batch and the
    C partitions."""
    parts = [ad.sum_(ad.cross_entropy_with_logits(col, batch.targets[..., c]))
             for c, col in enumerate(prior_logits(params, batch))]
    return ad.mul(sum(parts[1:], parts[0]), 1.0 / np.count_nonzero(batch.targets != IGNORE))


# ---------------------------------------------------------------------------
# ancestral sampling: the teacher-forced block run one (t, c) at a time
# over per-node key/value caches, off the tape

NEAR_TIE = 2e-5


@ad.no_grad()
def generate(params: PriorParams, codebooks, count, seed, step_times=None):
    """Sample `count` index sequences ancestrally.

    codebooks: stacked codebooks (C, m, d_part) used to embed sampled
    indices back into codeword space for conditioning.

    Each sample draws from its own spawned RNG stream, so sample i is
    reproducible from (seed, i) regardless of batching. Sampling stops
    at end-of-set or after params.n_max nodes (truncation). The first draw
    renormalizes end-of-set away so every set has at least one node.

    It samples in float32, then re-draws in float64 every sample whose
    margin, the smallest |cdf_k - u| over its draws, is under NEAR_TIE
    (about 10 times the largest float32 cdf error measured; see the
    module docstring), so it returns the float64 sampler's sets.

    Returns a list of dicts: {"indices": (T, C) int64, "truncated":
    T == n_max, as end-of-set at node t gives T = t < n_max, "redrawn":
    whether the float64 draw was kept}. step_times, if a list, collects
    (t, seconds, active) per node step of the float32 pass.
    """
    n = params.n_max * params.C
    uniforms = np.array([np.random.default_rng(s).random(n)
                         for s in np.random.SeedSequence(seed).spawn(count)]).reshape(count, n)
    indices, lengths, margin = sample(params, codebooks, uniforms, np.float32, step_times)
    redrawn = margin < NEAR_TIE
    indices[redrawn], lengths[redrawn], _ = sample(params, codebooks, uniforms[redrawn], np.float64)
    return [{"indices": indices[i, :lengths[i]].copy(),
             "truncated": bool(lengths[i] == params.n_max), "redrawn": bool(redrawn[i])}
            for i in range(count)]


@ad.no_grad()
def sample(params: PriorParams, codebooks, uniforms, dtype, step_times=None):
    """generate's sampler in dtype, which its constants and caches are
    cast to: one sample per row of uniforms (N, n_max * C), node t,
    partition c drawing against entry t * C + c. Returns (indices (N,
    n_max, C), lengths (N,), margin (N,)), a sample's margin being the
    smallest |cdf_k - u| over all classes k of all its draws.
    """
    C, m, n_max = params.C, params.m, params.n_max
    count = len(uniforms)
    uniforms = uniforms.copy()  # rows move as samples end
    codebooks, pos_table = codebooks.astype(dtype), params.pos_table.astype(dtype)
    indices = np.zeros((count, n_max, C), dtype=np.int64)
    lengths = np.full(count, n_max, dtype=np.int64)
    margin = np.full(count, np.inf)
    # one row per live sample, dropped when the sample ends: its index,
    # its uniforms (drawn up front: uniform t*C + c is the one its node
    # t, partition c would have drawn next, so truncating at end-of-set
    # consumes the stream exactly as one draw at a time does), the
    # previous node's codeword row and partition-0 index, and per block
    # the keys and values of its nodes so far: node t writes its own at
    # slot t and attends over slots 0..t-1
    active = np.arange(count)
    prev = np.zeros((count, 1, params.d_latent), dtype=dtype)
    prev_k0 = np.zeros((count, 1), dtype=np.int64)
    kv = np.zeros((len(params.blocks), 2, count, n_max, params.d_model), dtype=dtype)

    for t in range(n_max):
        if active.size == 0:
            break
        t0 = time.perf_counter()
        for c in range(C):
            # the current node's codeword row; its partitions below c are drawn
            cur = quantize.lookup(codebooks, indices[active, t:t + 1])
            x = _input_column(params, c, prev, cur, pos_table[t:t + 1])
            for l, blk in enumerate(params.blocks):
                if c == 0:
                    k, v = blk.wk(x), blk.wv(x)
                    kv[l, 0, :, t:t + 1], kv[l, 1, :, t:t + 1] = k.data, v.data
                x = _block_forward(blk, x, Tensor(kv[l, 0, :, :t]),
                                   Tensor(kv[l, 1, :, :t]), c, t)
            logits = _logits(params, x, c, prev_k0).data[:, 0]
            if c == 0 and t == 0:
                logits[:, m] = MASK_VALUE  # every set has at least one node
            p = ad._softmax(logits, 1)
            cdf = np.cumsum(p, axis=1)
            u = uniforms[:, t * C + c, None]
            margin[active] = np.minimum(margin[active], np.abs(cdf - u).min(axis=1))
            # inverse CDF, clamped to the last class with nonzero mass
            # in case rounding leaves the cdf's end below u
            last_nz = m - np.argmax(p[:, ::-1] > 0, axis=1)
            draws = np.minimum((cdf <= u).sum(axis=1), last_nz)
            if c == 0:
                ended = draws == m
                if ended.any():
                    lengths[active[ended]] = t
                    # drop the ended rows in place: live rows past the
                    # first n move into the ended rows before it
                    n = active.size - int(ended.sum())
                    holes, movers = np.flatnonzero(ended[:n]), n + np.flatnonzero(~ended[n:])
                    live = (active, uniforms, prev, draws)
                    for a in live:
                        a[holes] = a[movers]
                    kv[:, :, holes] = kv[:, :, movers]
                    active, uniforms, prev, draws = (a[:n] for a in live)
                    kv = kv[:, :, :n]
                    if n == 0:
                        break
            indices[active, t, c] = draws
        if step_times is not None:
            step_times.append((t, time.perf_counter() - t0, int(active.size)))
        prev = quantize.lookup(codebooks, indices[active, t:t + 1])
        prev_k0 = indices[active, t, :1]

    return indices, lengths, margin


# ---------------------------------------------------------------------------
# sequence cache file: magic, version, m, C, count, then per graph a
# varint node count followed by T*C varint indices in raster order.

_SEQ_MAGIC = b"DSEQ"
_SEQ_VERSION = 1


def _write_varint(f, value):
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            f.write(bytes([byte | 0x80]))
        else:
            f.write(bytes([byte]))
            return


def read_exact(f, size, path, field):
    """`size` bytes of the binary file `f`, or a ValueError naming the
    file and the field when fewer are left, so a corrupt size field
    fails before anything is read."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if size > left:
        raise ValueError(f"{path}: truncated at {field} ({size} bytes wanted, {left} left)")
    return f.read(size)


def _read_varint(f, path, field):
    shift = 0
    result = 0
    while True:
        byte = read_exact(f, 1, path, field)[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7


def write_sequences(path, m, C, sequences):
    """sequences: iterable of (T, C) int arrays."""
    if m < 1 or C < 1:
        raise ValueError(f"codebook size {m} and partitions {C} must be positive")
    with open(path, "wb") as f:
        f.write(_SEQ_MAGIC)
        f.write(struct.pack("<III", _SEQ_VERSION, m, C))
        seqs = list(sequences)
        f.write(struct.pack("<Q", len(seqs)))
        for s in seqs:
            s = np.asarray(s, dtype=np.int64)
            if s.ndim != 2 or s.shape[1] != C:
                raise ValueError(f"sequence shape {s.shape} incompatible with C={C}")
            if s.size and (s.min() < 0 or s.max() >= m):
                raise ValueError("index out of codebook range")
            _write_varint(f, s.shape[0])
            for val in s.reshape(-1):
                _write_varint(f, int(val))


def read_sequences(path):
    """Returns (m, C, list of (T, C) int64 arrays)."""
    with open(path, "rb") as f:
        if f.read(4) != _SEQ_MAGIC:
            raise ValueError(f"{path}: not a sequence cache file")
        version, m, C = struct.unpack("<III", read_exact(f, 12, path, "header"))
        if version != _SEQ_VERSION:
            raise ValueError(f"{path}: unsupported sequence cache version {version}")
        if m < 1 or C < 1:
            raise ValueError(f"{path}: codebook size {m} and partitions {C} must be positive")
        (count,) = struct.unpack("<Q", read_exact(f, 8, path, "sequence count"))
        seqs = []
        for i in range(count):
            field = f"sequence {i}"
            T = _read_varint(f, path, field)
            flat = np.array([_read_varint(f, path, field) for _ in range(T * C)],
                            dtype=np.int64)
            if flat.size and flat.max() >= m:
                raise ValueError(f"{path}: {field} has an index outside [0, {m})")
            seqs.append(flat.reshape(T, C))
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after {count} sequences")
    return m, C, seqs
