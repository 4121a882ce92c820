"""Autoregressive prior over sorted quantized node sets.

A graph's quantized latent is an unordered set of index tuples, one
(C,)-tuple per node. Sorting the tuples lexicographically maps the set
to a canonical sequence, which a transformer factorizes position by
position and partition by partition (raster order). Each stream
position t is one node; its C partitions are predicted left to right,
conditioned on all earlier nodes through attention and on the current
node's earlier partitions through the input projections.

Attention keys and values are computed from the partition-0 stream
only, so the per-node state that later positions attend to is built
once per node. End-of-set is an extra class (index m) that only the
partition-0 head may emit. A structural order mask zeroes the
probability of breaking the sorted-order invariant on partition 0.

Teacher forcing and sampling share one forward definition. The sampler
runs the same input projection, block and masked output head one
(t, c) at a time: the queries of node t, partition c attend over a
cache of the keys and values of nodes 0..t, which hides row t itself
exactly as the teacher-forced causal mask does.
"""

from __future__ import annotations

import os
import struct
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
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


class LayerNormParams:
    def __init__(self, width):
        self.gamma = Tensor(np.ones(width), requires_grad=True)
        self.beta = Tensor(np.zeros(width), requires_grad=True)

    def params(self, prefix):
        return {prefix + ".gamma": self.gamma, prefix + ".beta": self.beta}


class PriorBlock:
    """Post-LN transformer block with partition-wise queries.

    Queries exist per (partition, head); keys and values per head come
    from the partition-0 representation of each node.
    """

    def __init__(self, rng, d_model, heads, C, ffn_layers=4):
        self.heads = heads
        self.d_k = d_model // heads
        self.wq = [Affine(rng, d_model, d_model) for _ in range(C)]
        self.wk = Affine(rng, d_model, d_model)
        self.wv = Affine(rng, d_model, d_model)
        self.ln1 = LayerNormParams(d_model)
        sizes = [d_model] + [2 * d_model] * (ffn_layers - 1) + [d_model]
        self.f_z = Mlp(rng, sizes)
        self.ln2 = LayerNormParams(d_model)

    def params(self, prefix):
        out = {}
        for c, aff in enumerate(self.wq):
            out.update(aff.params(f"{prefix}.wq{c}"))
        out.update(self.wk.params(prefix + ".wk"))
        out.update(self.wv.params(prefix + ".wv"))
        out.update(self.ln1.params(prefix + ".ln1"))
        out.update(self.f_z.params(prefix + ".f_z"))
        out.update(self.ln2.params(prefix + ".ln2"))
        return out


class PriorParams:
    def __init__(self, rng, d_latent, C, m, d_model, heads, num_blocks, n_max,
                 ffn_layers=4):
        if d_model % heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by {heads} heads")
        if d_latent % C != 0:
            raise ValueError(f"d_latent={d_latent} not divisible by C={C}")
        self.C = C
        self.m = m
        self.d_latent = d_latent
        self.d_part = d_latent // C
        self.d_model = d_model
        self.heads = heads
        self.n_max = n_max
        # partition c sees the previous node (d_latent wide) plus the
        # current node's first c partitions
        self.in_proj = [Affine(rng, d_latent + c * self.d_part, d_model) for c in range(C)]
        self.pos_table = sinusoidal_positions(n_max + 1, d_model)
        self.blocks = [PriorBlock(rng, d_model, heads, C, ffn_layers) for _ in range(num_blocks)]
        self.out = [Affine(rng, d_model, m + 1) for _ in range(C)]

    def params(self):
        out = {}
        for c, aff in enumerate(self.in_proj):
            out.update(aff.params(f"prior.in_proj{c}"))
        for i, blk in enumerate(self.blocks):
            out.update(blk.params(f"prior.block{i}"))
        for c, aff in enumerate(self.out):
            out.update(aff.params(f"prior.out{c}"))
        return out


@dataclass
class IndexSequence:
    """One graph's sorted latent: indices (T, C) with aligned codewords."""
    indices: np.ndarray    # (T, C) int64
    codewords: np.ndarray  # (T, C, d_part) float64

    @property
    def length(self):
        return self.indices.shape[0]


def sort_set(indices, codewords) -> IndexSequence:
    """Canonical order: lexicographic by index tuple, partition 0 most
    significant. Stable, so equal tuples keep their relative order.
    """
    indices = np.asarray(indices, dtype=np.int64)
    codewords = np.asarray(codewords, dtype=np.float64)
    C = indices.shape[1]
    order = np.lexsort(tuple(indices[:, c] for c in reversed(range(C))))
    return IndexSequence(indices[order].copy(), codewords[order].copy())


@dataclass
class SequenceBatch:
    indices: np.ndarray    # (B, T, C) int64, zero-padded
    codewords: np.ndarray  # (B, T, C, d_part), zero-padded
    lengths: np.ndarray    # (B,) int64


def pack_sequences(seqs, n_max) -> SequenceBatch:
    lengths = np.array([s.length for s in seqs], dtype=np.int64)
    if lengths.min() < 1:
        raise ValueError("sequences must have at least one node")
    if lengths.max() > n_max:
        raise ValueError(f"sequence of length {lengths.max()} exceeds n_max={n_max}")
    T = int(lengths.max())
    C = seqs[0].indices.shape[1]
    dp = seqs[0].codewords.shape[2]
    idx = np.zeros((len(seqs), T, C), dtype=np.int64)
    cw = np.zeros((len(seqs), T, C, dp))
    for b, s in enumerate(seqs):
        idx[b, :s.length] = s.indices
        cw[b, :s.length] = s.codewords
    return SequenceBatch(idx, cw, lengths)


def _input_column(params: PriorParams, c, prev, cur, pos) -> Tensor:
    """Partition c's block input (B, T, 1, d_model) at T positions:
    in_proj[c] of the previous node's codewords prev (B, T, d_latent)
    and the current node's partitions 0..c-1 from cur (B, T, >=c,
    d_part), plus the position rows pos (T, d_model).
    """
    B, T = prev.shape[:2]
    inp = prev
    if c > 0:
        inp = np.concatenate([prev, cur[:, :, :c].reshape(B, T, -1)], axis=2)
    x = params.in_proj[c](Tensor(inp.reshape(B * T, -1)))
    x = ad.reshape(x, (B, T, params.d_model)) + Tensor(pos)
    return ad.reshape(x, (B, T, 1, params.d_model))


def build_inputs(params: PriorParams, batch: SequenceBatch) -> Tensor:
    """Project codeword context to the model width: (B, T+1, C, d_model).

    Position t, partition c sees the previous node's full codeword
    vector (zeros for t=0: the virtual start node) and the current
    node's partitions 0..c-1. Row T is the end-of-set slot. The node
    position encoding is added after the projection.
    """
    B, T, C, dp = batch.codewords.shape
    Tp = T + 1
    prev = np.zeros((B, Tp, params.d_latent))
    prev[:, 1:, :] = batch.codewords.reshape(B, T, C * dp)
    cur = np.zeros((B, Tp, C, dp))
    cur[:, :T] = batch.codewords
    pos = params.pos_table[:Tp]
    return ad.concat([_input_column(params, c, prev, cur, pos) for c in range(C)], 2)


def attention_2d(q, k, v, kv_valid=None):
    """Causal set attention: queries at (t, c) average values over
    strictly earlier node positions s < t; rows with no predecessor
    (t = 0) return zeros.

    q: Tensor (B, H, T, C, d_k), the last T of the S node positions
    k: Tensor (B, H, S, d_k), S >= T
    v: Tensor (B, H, S, d_v)
    kv_valid: optional (B, S) bool marking real (non-padding) keys.
    """
    B, H, T, C, dk = q.shape
    S = k.shape[2]
    dv = v.shape[-1]
    qf = ad.reshape(q, (B, H, T * C, dk))
    scores = ad.matmul(qf, ad.transpose(k, (0, 1, 3, 2)))
    scores = ad.mul(scores, 1.0 / np.sqrt(dk))

    t_of_row = np.repeat(np.arange(S - T, S), C)
    allowed = np.arange(S)[None, :] < t_of_row[:, None]  # (T*C, S)
    if kv_valid is not None:
        allowed = allowed[None, :, :] & np.asarray(kv_valid, dtype=bool)[:, None, :]
        allowed = allowed[:, None, :, :]  # (B, 1, T*C, S)
    else:
        allowed = allowed[None, None, :, :]
    scores = ad.masked_fill(scores, ~np.broadcast_to(allowed, (B, H, T * C, S)), MASK_VALUE)
    probs = ad.softmax(scores, axis=-1)
    # a fully masked row softmaxes to uniform; the t=0 convention is zeros
    row_live = (t_of_row > 0).astype(np.float64)[None, None, :, None]
    probs = ad.mul(probs, Tensor(np.broadcast_to(row_live, (B, H, T * C, S))))
    out = ad.matmul(probs, v)
    return ad.reshape(out, (B, H, T, C, dv))


def _by_partition(maps, x: Tensor, parts) -> Tensor:
    """maps[c] applied to column j of x (B, T, P, d) for each (j, c)
    in enumerate(parts): (B, T, P, d_out)."""
    B, T, P, d = x.shape
    cols = []
    for j, c in enumerate(parts):
        y = maps[c](ad.reshape(x[:, :, j, :], (B * T, d)))
        cols.append(ad.reshape(y, (B, T, 1, y.shape[-1])))
    return ad.concat(cols, 2)


def _keys_values(blk: PriorBlock, x0: Tensor):
    """Keys and values (B, H, S, d_k) of partition-0 rows x0 (B, S, d_model)."""
    B, S, dm = x0.shape
    x0 = ad.reshape(x0, (B * S, dm))
    k = ad.transpose(ad.reshape(blk.wk(x0), (B, S, blk.heads, blk.d_k)), (0, 2, 1, 3))
    v = ad.transpose(ad.reshape(blk.wv(x0), (B, S, blk.heads, blk.d_k)), (0, 2, 1, 3))
    return k, v


def _block_forward(blk: PriorBlock, x: Tensor, k: Tensor, v: Tensor, parts, kv_valid=None):
    """x: (B, T, P, d_model) -> same shape. Column j of x holds
    partition parts[j] at the last T of the S node positions whose
    keys and values k, v (B, H, S, d_k) it attends over.
    """
    B, T, P, dm = x.shape
    H, dk = blk.heads, blk.d_k
    q = ad.reshape(_by_partition(blk.wq, x, parts), (B, T, P, H, dk))
    a = attention_2d(ad.transpose(q, (0, 3, 1, 2, 4)), k, v, kv_valid)  # (B, H, T, P, dk)
    a = ad.reshape(ad.transpose(a, (0, 2, 3, 1, 4)), (B, T, P, dm))
    h = ad.layernorm(x + a, blk.ln1.gamma, blk.ln1.beta)
    f = ad.reshape(blk.f_z(ad.reshape(h, (B * T * P, dm))), (B, T, P, dm))
    return ad.layernorm(h + f, blk.ln2.gamma, blk.ln2.beta)


def _logits(params: PriorParams, x: Tensor, parts, prev_k0) -> Tensor:
    """Masked logits (B, T, P, m+1) of block output x (B, T, P, d_model)
    whose column j holds partition parts[j]. End-of-set (class m) is
    only available on partition 0, where classes below the previous
    node's partition-0 index prev_k0 (B, T; 0 at the start node) are
    forbidden to keep the set sorted.
    """
    logits = _by_partition(params.out, x, parts)
    classes = np.arange(params.m + 1)
    mask = np.zeros(logits.shape, dtype=bool)
    for j, c in enumerate(parts):
        if c == 0:
            mask[:, :, j] = classes < prev_k0[:, :, None]
        else:
            mask[:, :, j, params.m] = True
    return ad.masked_fill(logits, mask, MASK_VALUE)


def prior_logits(params: PriorParams, batch: SequenceBatch) -> Tensor:
    """Teacher-forced masked logits (B, T+1, C, m+1). Logits at padded
    positions are meaningless; the loss mask of sequence_targets
    ignores them.
    """
    B, T, C = batch.indices.shape
    x = build_inputs(params, batch)
    kv_valid = np.arange(T + 1)[None, :] < batch.lengths[:, None]
    for blk in params.blocks:
        k, v = _keys_values(blk, x[:, :, 0])
        x = _block_forward(blk, x, k, v, range(C), kv_valid)
    prev_k0 = np.zeros((B, T + 1), dtype=np.int64)
    prev_k0[:, 1:] = batch.indices[:, :, 0]
    return _logits(params, x, range(C), prev_k0)


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


def nll_from_logits(logits: Tensor, targets, loss_mask) -> Tensor:
    """Mean cross-entropy over unmasked positions (nodes plus the
    end-of-set slot), pooled across the batch.
    """
    ce = ad.cross_entropy_with_logits(logits, targets)
    w = np.asarray(loss_mask, dtype=np.float64)
    return ad.mul(ad.sum_(ad.mul(ce, Tensor(w))), 1.0 / w.sum())


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

    codebooks: list of C arrays (m, d_part) used to embed sampled
    indices back into codeword space for conditioning.

    Each sample draws from its own spawned RNG stream, so sample i is
    reproducible from (seed, i) regardless of batching. Sampling stops
    at end-of-set or after params.n_max nodes (truncation). The first draw
    renormalizes end-of-set away so every set has at least one node.

    Returns a list of dicts: {"indices": (T, C) int64, "truncated":
    bool}. step_times, if a list, collects (t, seconds, active) per node
    step.
    """
    C, m, n_max = params.C, params.m, params.n_max
    indices = np.zeros((count, n_max, C), dtype=np.int64)
    lengths = np.full(count, n_max, dtype=np.int64)
    truncated = np.ones(count, dtype=bool)
    # one row per live sample, dropped when the sample ends: its index,
    # its uniforms (drawn up front: uniform t*C + c is the one its node
    # t, partition c would have drawn next, so truncating at end-of-set
    # consumes the stream exactly as one draw at a time does), the
    # previous node's codewords and partition-0 index, and per block
    # the keys and values of its nodes so far
    active = np.arange(count)
    uniforms = np.array([np.random.default_rng(s).random(n_max * C)
                         for s in np.random.SeedSequence(seed).spawn(count)])
    uniforms = uniforms.reshape(count, n_max * C)
    prev = np.zeros((count, 1, params.d_latent))
    prev_k0 = np.zeros((count, 1), dtype=np.int64)
    kv = np.zeros((len(params.blocks), 2, count, params.heads, n_max,
                   params.d_model // params.heads))

    for t in range(n_max):
        if active.size == 0:
            break
        t0 = time.perf_counter()
        cur = np.zeros((active.size, 1, C, params.d_part))
        for c in range(C):
            x = _input_column(params, c, prev, cur, params.pos_table[t:t + 1])
            for l, blk in enumerate(params.blocks):
                if c == 0:
                    k, v = _keys_values(blk, x[:, :, 0])
                    kv[l, 0, :, :, t:t + 1], kv[l, 1, :, :, t:t + 1] = k.data, v.data
                x = _block_forward(blk, x, Tensor(kv[l, 0, :, :, :t + 1]),
                                   Tensor(kv[l, 1, :, :, :t + 1]), (c,))
            logits = _logits(params, x, (c,), prev_k0).data[:, 0, 0]
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
                    truncated[active[ended]] = False
                    # drop the ended rows in place: live rows past the
                    # first n move into the ended rows before it
                    n = active.size - int(ended.sum())
                    holes, movers = np.flatnonzero(ended[:n]), n + np.flatnonzero(~ended[n:])
                    live = (active, uniforms, prev, cur, draws)
                    for a in live:
                        a[holes] = a[movers]
                    kv[:, :, holes] = kv[:, :, movers]
                    active, uniforms, prev, cur, draws = (a[:n] for a in live)
                    kv = kv[:, :, :n]
                    if n == 0:
                        break
            indices[active, t, c] = draws
            cur[:, 0, c] = codebooks[c][draws]
        if step_times is not None:
            step_times.append((t, time.perf_counter() - t0, int(active.size)))
        prev = cur.reshape(active.size, 1, C * params.d_part)
        prev_k0 = indices[active, t, :1]

    return [{"indices": indices[i, :lengths[i]].copy(), "truncated": bool(truncated[i])}
            for i in range(count)]


# ---------------------------------------------------------------------------
# sequence cache file: magic, version, m, C, count, then per graph a
# varint node count followed by T*C varint indices in raster order.

_SEQ_MAGIC = b"DSEQ"


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
    with open(path, "wb") as f:
        f.write(_SEQ_MAGIC)
        f.write(struct.pack("<III", 1, m, C))
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
        if version != 1:
            raise ValueError(f"{path}: unsupported sequence cache version {version}")
        (count,) = struct.unpack("<Q", read_exact(f, 8, path, "sequence count"))
        seqs = []
        for i in range(count):
            field = f"sequence {i}"
            T = _read_varint(f, path, field)
            flat = np.array([_read_varint(f, path, field) for _ in range(T * C)],
                            dtype=np.int64)
            seqs.append(flat.reshape(T, C))
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after {count} sequences")
    return m, C, seqs
