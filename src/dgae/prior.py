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
padded slots reach only padded rows, which the loss mask drops.

Teacher forcing and sampling share one forward definition. The sampler
runs the same input projection, block and masked output head one
(t, c) at a time on a one-row column: the queries of node t,
partition c attend over a cache (blocks, 2, N, n_max, d_model) of the
keys and values of the N live samples' nodes 0..t, which hides row t
itself exactly as the teacher-forced causal mask does.
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


@dataclass
class SequenceBatch:
    indices: np.ndarray    # (B, T, C) int64, zero-padded
    codewords: np.ndarray  # (B, T, d_latent), zero-padded
    lengths: np.ndarray    # (B,) int64


def pack_sequences(seqs, n_max, codebooks) -> SequenceBatch:
    """Pad sorted index sequences (T, C) to one batch and look up their
    codeword rows in the stacked codebooks (C, m, d_part)."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    if lengths.min() < 1:
        raise ValueError("sequences must have at least one node")
    if lengths.max() > n_max:
        raise ValueError(f"sequence of length {lengths.max()} exceeds n_max={n_max}")
    idx = np.zeros((len(seqs), int(lengths.max()), codebooks.shape[0]), dtype=np.int64)
    for b, s in enumerate(seqs):
        idx[b, :len(s)] = s
    codewords = quantize.lookup(codebooks, idx)
    codewords[np.arange(idx.shape[1]) >= lengths[:, None]] = 0.0
    return SequenceBatch(idx, codewords, lengths)


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
    (B, T+1, d_model) for partition c.

    Position t, partition c sees the previous node's full codeword
    row (zeros for t=0: the virtual start node) and the current
    node's partitions 0..c-1. Row T is the end-of-set slot. The node
    position encoding is added after the projection.
    """
    B, T, d_latent = batch.codewords.shape
    prev = np.zeros((B, T + 1, d_latent))
    prev[:, 1:] = batch.codewords
    cur = np.zeros((B, T + 1, d_latent))
    cur[:, :T] = batch.codewords
    pos = params.pos_table[:T + 1]
    return [_input_column(params, c, prev, cur, pos) for c in range(params.C)]


def _block_forward(blk: PriorBlock, x: Tensor, k: Tensor, v: Tensor, c):
    """Partition c's column x (B, T, d_model) -> same shape. Its rows
    are the last T of the S node positions whose keys and values k, v
    (B, S, d_model) it attends over: the queries at position t average
    the values of the strictly earlier positions s < t, and row t = 0
    gets zeros. The mask depends on t only, so every column shares it.
    """
    T, S = x.shape[1], k.shape[1]
    allowed = np.arange(S) < np.arange(S - T, S)[:, None]  # (T, S)
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
    for partition c. Logits at padded positions are meaningless; the
    loss mask of sequence_targets ignores them.
    """
    B, T, C = batch.indices.shape
    x = build_inputs(params, batch)
    for blk in params.blocks:
        k, v = blk.wk(x[0]), blk.wv(x[0])
        x = [_block_forward(blk, col, k, v, c) for c, col in enumerate(x)]
    prev_k0 = np.zeros((B, T + 1), dtype=np.int64)
    prev_k0[:, 1:] = batch.indices[:, :, 0]
    return [_logits(params, col, c, prev_k0) for c, col in enumerate(x)]


def sequence_targets(params: PriorParams, batch: SequenceBatch):
    """(targets, loss_mask), both (B, T+1, C). Real positions predict
    their index; the slot after the last node predicts end-of-set on
    partition 0 only.
    """
    B, T, C = batch.indices.shape
    targets = np.zeros((B, T + 1, C), dtype=np.int64)
    targets[:, :T] = batch.indices
    loss_mask = np.zeros((B, T + 1, C), dtype=bool)
    pos = np.arange(T + 1)[None, :]
    loss_mask[:, :, :] = (pos < batch.lengths[:, None])[:, :, None]
    targets[np.arange(B), batch.lengths, 0] = params.m
    loss_mask[np.arange(B), batch.lengths, 0] = True
    return targets, loss_mask


def nll_from_logits(logits, targets, loss_mask) -> Tensor:
    """Mean cross-entropy over unmasked positions (nodes plus the
    end-of-set slot), pooled across the batch and the C logit columns
    (B, T+1, m+1); targets and loss_mask are (B, T+1, C).
    """
    w = np.asarray(loss_mask, dtype=np.float64)
    parts = [ad.sum_(ad.mul(ad.cross_entropy_with_logits(col, targets[..., c]), Tensor(w[..., c])))
             for c, col in enumerate(logits)]
    return ad.mul(sum(parts[1:], parts[0]), 1.0 / w.sum())


def prior_nll(params: PriorParams, batch: SequenceBatch) -> Tensor:
    logits = prior_logits(params, batch)
    targets, loss_mask = sequence_targets(params, batch)
    return nll_from_logits(logits, targets, loss_mask)


# ---------------------------------------------------------------------------
# ancestral sampling: the teacher-forced block run one (t, c) at a time
# over per-node key/value caches, off the tape

@ad.no_grad()
def generate(params: PriorParams, codebooks, count, seed, step_times=None):
    """Sample `count` index sequences ancestrally.

    codebooks: stacked codebooks (C, m, d_part) used to embed sampled
    indices back into codeword space for conditioning.

    Each sample draws from its own spawned RNG stream, so sample i is
    reproducible from (seed, i) regardless of batching. Sampling stops
    at end-of-set or after params.n_max nodes (truncation). The first draw
    renormalizes end-of-set away so every set has at least one node.

    Returns a list of dicts: {"indices": (T, C) int64, "truncated":
    T == n_max, as end-of-set at node t gives T = t < n_max}.
    step_times, if a list, collects (t, seconds, active) per node step.
    """
    C, m, n_max = params.C, params.m, params.n_max
    indices = np.zeros((count, n_max, C), dtype=np.int64)
    lengths = np.full(count, n_max, dtype=np.int64)
    # one row per live sample, dropped when the sample ends: its index,
    # its uniforms (drawn up front: uniform t*C + c is the one its node
    # t, partition c would have drawn next, so truncating at end-of-set
    # consumes the stream exactly as one draw at a time does), the
    # previous node's codeword row and partition-0 index, and per block
    # the keys and values of its nodes so far
    active = np.arange(count)
    uniforms = np.array([np.random.default_rng(s).random(n_max * C)
                         for s in np.random.SeedSequence(seed).spawn(count)])
    uniforms = uniforms.reshape(count, n_max * C)
    prev = np.zeros((count, 1, params.d_latent))
    prev_k0 = np.zeros((count, 1), dtype=np.int64)
    kv = np.zeros((len(params.blocks), 2, count, n_max, params.d_model))

    for t in range(n_max):
        if active.size == 0:
            break
        t0 = time.perf_counter()
        for c in range(C):
            # the current node's codeword row; its partitions below c are drawn
            cur = quantize.lookup(codebooks, indices[active, t:t + 1])
            x = _input_column(params, c, prev, cur, params.pos_table[t:t + 1])
            for l, blk in enumerate(params.blocks):
                if c == 0:
                    k, v = blk.wk(x), blk.wv(x)
                    kv[l, 0, :, t:t + 1], kv[l, 1, :, t:t + 1] = k.data, v.data
                x = _block_forward(blk, x, Tensor(kv[l, 0, :, :t + 1]),
                                   Tensor(kv[l, 1, :, :t + 1]), c)
            logits = _logits(params, x, c, prev_k0).data[:, 0]
            if c == 0 and t == 0:
                logits[:, m] = MASK_VALUE  # every set has at least one node
            p = ad.softmax(logits, axis=1).data
            cdf = np.cumsum(p, axis=1)
            # inverse CDF, clamped to the last class with nonzero mass
            # in case rounding leaves the cdf's end below u
            last_nz = m - np.argmax(p[:, ::-1] > 0, axis=1)
            draws = np.minimum((cdf <= uniforms[:, t * C + c, None]).sum(axis=1), last_nz)
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

    return [{"indices": indices[i, :lengths[i]].copy(), "truncated": bool(lengths[i] == n_max)}
            for i in range(count)]


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
