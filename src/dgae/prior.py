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
"""

from __future__ import annotations

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
    cols = []
    for c in range(C):
        if c == 0:
            inp = prev
        else:
            inp = np.concatenate([prev, cur[:, :, :c].reshape(B, Tp, c * dp)], axis=2)
        x = params.in_proj[c](Tensor(inp.reshape(B * Tp, -1)))
        x = ad.reshape(x, (B, Tp, params.d_model)) + Tensor(pos)
        cols.append(ad.reshape(x, (B, Tp, 1, params.d_model)))
    return ad.concat(cols, 2)


def attention_2d(q, k, v, kv_valid=None):
    """Causal set attention: queries at (t, c) average values over
    strictly earlier node positions s < t; rows with no predecessor
    (t = 0) return zeros.

    q: Tensor (B, H, T, C, d_k) or (T, C, d_k)
    k: Tensor (B, H, T, d_k) or (T, d_k)
    v: same leading shape as k with width d_v
    kv_valid: optional (B, T) bool marking real (non-padding) keys.
    """
    squeeze = q.ndim == 3
    if squeeze:
        q = ad.reshape(q, (1, 1) + q.shape)
        k = ad.reshape(k, (1, 1) + k.shape)
        v = ad.reshape(v, (1, 1) + v.shape)
    B, H, T, C, dk = q.shape
    dv = v.shape[-1]
    qf = ad.reshape(q, (B, H, T * C, dk))
    scores = ad.matmul(qf, ad.transpose(k, (0, 1, 3, 2)))
    scores = ad.mul(scores, 1.0 / np.sqrt(dk))

    t_of_row = np.repeat(np.arange(T), C)
    allowed = np.arange(T)[None, :] < t_of_row[:, None]  # (T*C, T)
    if kv_valid is not None:
        allowed = allowed[None, :, :] & np.asarray(kv_valid, dtype=bool)[:, None, :]
        allowed = allowed[:, None, :, :]  # (B, 1, T*C, T)
    else:
        allowed = allowed[None, None, :, :]
    scores = ad.masked_fill(scores, ~np.broadcast_to(allowed, (B, H, T * C, T)), MASK_VALUE)
    probs = ad.softmax(scores, axis=-1)
    # a fully masked row softmaxes to uniform; the t=0 convention is zeros
    row_live = (t_of_row > 0).astype(np.float64)[None, None, :, None]
    probs = ad.mul(probs, Tensor(np.broadcast_to(row_live, (B, H, T * C, T))))
    out = ad.matmul(probs, v)
    out = ad.reshape(out, (B, H, T, C, dv))
    if squeeze:
        out = ad.reshape(out, (T, C, dv))
    return out


def _block_forward(blk: PriorBlock, x: Tensor, kv_valid):
    """x: (B, T, C, d_model) -> same shape."""
    B, T, C, dm = x.shape
    H, dk = blk.heads, blk.d_k
    cols = []
    for c in range(C):
        xc = ad.reshape(x[:, :, c, :], (B * T, dm))
        qc = ad.reshape(blk.wq[c](xc), (B, T, 1, H, dk))
        cols.append(qc)
    q = ad.transpose(ad.concat(cols, 2), (0, 3, 1, 2, 4))  # (B, H, T, C, dk)
    x0 = ad.reshape(x[:, :, 0, :], (B * T, dm))
    k = ad.transpose(ad.reshape(blk.wk(x0), (B, T, H, dk)), (0, 2, 1, 3))
    v = ad.transpose(ad.reshape(blk.wv(x0), (B, T, H, dk)), (0, 2, 1, 3))
    a = attention_2d(q, k, v, kv_valid)  # (B, H, T, C, dk)
    a = ad.reshape(ad.transpose(a, (0, 2, 3, 1, 4)), (B, T, C, dm))
    h = ad.layernorm(x + a, blk.ln1.gamma, blk.ln1.beta)
    f = ad.reshape(blk.f_z(ad.reshape(h, (B * T * C, dm))), (B, T, C, dm))
    return ad.layernorm(h + f, blk.ln2.gamma, blk.ln2.beta)


def _logit_masks(params: PriorParams, batch: SequenceBatch):
    """Structural masks for teacher-forced logits (B, T+1, C, m+1):
    end-of-set is only available on partition 0, and partition-0
    classes below the previous node's partition-0 index are forbidden.
    """
    B, T, C = batch.indices.shape
    Tp, K = T + 1, params.m + 1
    mask = np.zeros((B, Tp, C, K), dtype=bool)
    if C > 1:
        mask[:, :, 1:, params.m] = True
    prev_k0 = np.zeros((B, Tp), dtype=np.int64)
    prev_k0[:, 1:] = batch.indices[:, :, 0]
    classes = np.arange(K)
    order = classes[None, None, :] < prev_k0[:, :, None]  # (B, Tp, K)
    order[:, 0, :] = False
    mask[:, :, 0, :] |= order
    return mask


def prior_logits(params: PriorParams, batch: SequenceBatch, train: bool) -> Tensor:
    """Teacher-forced masked logits (B, T+1, C, m+1). Logits at padded
    positions are meaningless; use sequence_loss_mask to ignore them.
    """
    B, T, C = batch.indices.shape
    x = build_inputs(params, batch)
    kv_valid = np.arange(T + 1)[None, :] < batch.lengths[:, None]
    for blk in params.blocks:
        x = _block_forward(blk, x, kv_valid)
    dm = params.d_model
    cols = []
    for c in range(C):
        xc = ad.reshape(x[:, :, c, :], (B * (T + 1), dm))
        cols.append(ad.reshape(params.out[c](xc), (B, T + 1, 1, params.m + 1)))
    logits = ad.concat(cols, 2)
    return ad.masked_fill(logits, _logit_masks(params, batch), MASK_VALUE)


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


def prior_nll(params: PriorParams, batch: SequenceBatch, train: bool) -> Tensor:
    logits = prior_logits(params, batch, train)
    targets, loss_mask = sequence_targets(params, batch)
    return nll_from_logits(logits, targets, loss_mask)


# ---------------------------------------------------------------------------
# ancestral sampling (incremental with per-node KV caches, off the tape)

@ad.no_grad()
def generate(params: PriorParams, codebooks, count, seed, n_max=None,
             collect_logits=False, step_times=None):
    """Sample `count` index sequences ancestrally.

    codebooks: list of C arrays (m, d_part) used to embed sampled
    indices back into codeword space for conditioning.

    Each sample draws from its own spawned RNG stream, so sample i is
    reproducible from (seed, i) regardless of batching. Sampling stops
    at end-of-set or after n_max nodes (truncation). The first draw
    renormalizes end-of-set away so every set has at least one node.

    Returns a list of dicts: {"indices": (T, C) int64, "truncated":
    bool, "logits": list of (m+1,) arrays if collect_logits}. The
    recorded logits carry the structural masks but not the first-draw
    end-of-set renormalization, so they match teacher forcing exactly.
    step_times, if a list, collects (t, seconds, active) per node step.
    """
    C, m, H = params.C, params.m, params.heads
    dk = params.d_model // H
    dm, dp = params.d_model, params.d_part
    n_max = params.n_max if n_max is None else n_max
    if n_max > params.pos_table.shape[0] - 1:
        # the position encoding is a fixed function, so longer tables
        # agree with the stored one on every shared row
        pos_table = sinusoidal_positions(n_max + 1, dm)
    else:
        pos_table = params.pos_table

    # sample i's stream, drawn up front: uniform t*C + c is the one its
    # node t, partition c would have drawn next, so truncating at
    # end-of-set consumes the stream exactly as one draw at a time does
    uniforms = np.array([np.random.default_rng(s).random(n_max * C)
                         for s in np.random.SeedSequence(seed).spawn(count)])
    uniforms = uniforms.reshape(count, n_max * C)
    nb = len(params.blocks)
    # attention-ready layouts so the per-step reads below are views
    K_cache = [np.zeros((count, H, dk, n_max)) for _ in range(nb)]
    V_cache = [np.zeros((count, H, n_max, dk)) for _ in range(nb)]

    indices = np.zeros((count, n_max, C), dtype=np.int64)
    prev_flat = np.zeros((count, params.d_latent))
    prev_k0 = np.zeros(count, dtype=np.int64)
    lengths = np.full(count, n_max, dtype=np.int64)
    truncated = np.ones(count, dtype=bool)
    logit_log = [[] for _ in range(count)] if collect_logits else None
    active = np.arange(count)

    for t in range(n_max):
        if active.size == 0:
            break
        t0 = time.perf_counter()
        rows = slice(None) if active.size == count else active
        # row t is written after partition 0's attention, so the cached
        # prefixes are frozen for the whole step; read them once
        if t > 0:
            kc_t = [K_cache[l][rows, :, :, :t] for l in range(nb)]  # (N, H, dk, t)
            vc_t = [V_cache[l][rows, :, :t, :] for l in range(nb)]  # (N, H, t, dk)
        cur_parts = np.zeros((active.size, C, dp))
        for c in range(C):
            if c == 0:
                inp = prev_flat[active]
            else:
                inp = np.concatenate(
                    [prev_flat[active], cur_parts[:, :c].reshape(active.size, c * dp)], axis=1)
            x = params.in_proj[c](inp).data + pos_table[t]
            for l, blk in enumerate(params.blocks):
                if c == 0:
                    k_new = blk.wk(x).data.reshape(-1, H, dk)
                    v_new = blk.wv(x).data.reshape(-1, H, dk)
                q = blk.wq[c](x).data.reshape(-1, H, dk)
                if t == 0:
                    a = np.zeros((active.size, dm))
                else:
                    s = np.einsum("nhd,nhdt->nht", q, kc_t[l]) / np.sqrt(dk)
                    s -= s.max(axis=-1, keepdims=True)
                    e = np.exp(s)
                    p = e / e.sum(axis=-1, keepdims=True)
                    a = np.einsum("nht,nhtd->nhd", p, vc_t[l]).reshape(-1, H * dk)
                if c == 0:
                    K_cache[l][rows, :, :, t] = k_new
                    V_cache[l][rows, :, t, :] = v_new
                h = ad.layernorm(x + a, blk.ln1.gamma, blk.ln1.beta)
                x = ad.layernorm(h + blk.f_z(h), blk.ln2.gamma, blk.ln2.beta).data
            logits = params.out[c](x).data
            if c > 0:
                logits[:, m] = MASK_VALUE
            if c == 0 and t >= 1:
                cls = np.arange(m + 1)
                logits[cls[None, :] < prev_k0[active][:, None]] = MASK_VALUE
            if collect_logits:
                for row, g_idx in enumerate(active):
                    logit_log[g_idx].append(logits[row].copy())
            if c == 0 and t == 0:
                logits[:, m] = MASK_VALUE  # every set has at least one node
            shifted = logits - logits.max(axis=1, keepdims=True)
            p = np.exp(shifted)
            p /= p.sum(axis=1, keepdims=True)
            cdf = np.cumsum(p, axis=1)
            u = uniforms[active, t * C + c]
            # inverse CDF, clamped to the last class with nonzero mass
            # in case rounding leaves the cdf's end below u
            last_nz = m - np.argmax(p[:, ::-1] > 0, axis=1)
            draws = np.minimum((cdf <= u[:, None]).sum(axis=1), last_nz)
            if c == 0:
                hit_eos = draws == m
                if hit_eos.any():
                    lengths[active[hit_eos]] = t
                    truncated[active[hit_eos]] = False
                    keep = ~hit_eos
                    active = active[keep]
                    cur_parts = cur_parts[keep]
                    draws = draws[keep]
                    if active.size == 0:
                        break
                    if t > 0:
                        kc_t = [kc[keep] for kc in kc_t]
                        vc_t = [vc[keep] for vc in vc_t]
            indices[active, t, c] = draws
            cur_parts[:, c] = codebooks[c][draws]
        if step_times is not None:
            step_times.append((t, time.perf_counter() - t0, int(active.size)))
        if active.size == 0:
            break
        prev_flat[active] = cur_parts.reshape(active.size, C * dp)
        prev_k0[active] = indices[active, t, 0]

    out = []
    for i in range(count):
        T = int(lengths[i])
        rec = {"indices": indices[i, :T].copy(), "truncated": bool(truncated[i])}
        if collect_logits:
            rec["logits"] = logit_log[i]
        out.append(rec)
    return out


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
    file and the field it ends in when it is shorter."""
    data = f.read(size)
    if len(data) != size:
        raise ValueError(f"{path}: truncated at {field}")
    return data


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
