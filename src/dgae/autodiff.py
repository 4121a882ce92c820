"""Reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced. Calling
backward() on a scalar root walks the recorded graph in reverse
topological order and accumulates gradients into every Tensor that
requires them. Training runs in float64: ops cast plain operands to
it. Inference runs inside no_grad(), which records no graph, and may
also run in float32: ops keep a float32 ndarray as it is, and mul,
affine, pair_affine, layernorm and batchnorm compute in the dtype of
their activation, casting their other operands to it. The other ops
cast nothing, so they stay in float32 only when every array operand
is float32: add, for one, returns float64 for a float32 activation
plus a float64 table, and the prior's float32 sampler casts its
position table and key/value cache itself. Constants inside an op are
Python floats, which keep float32; a NumPy float64 scalar would not.

backward() spends the tape. Each interior node drops its backward
closure and its parents as soon as the walk has passed its gradient
on, so a node nobody else holds is freed then, with its data, the
arrays its closure kept and its gradient. Gradients survive only on
leaves and on tensors the caller still holds. A root can be walked
once: walking it again, or walking a scalar that recorded no graph,
raises RuntimeError. Code that inspects the tape must do so before
backward().

Every op is a model layer: add, mul, sum_, affine and pair_affine
(each with an optional fused ReLU), segment_sum, permute_rows,
causal_attention, masked_fill, straight_through,
cross_entropy_with_logits, layernorm and batchnorm. None only moves
data; reshapes, head splits and row gathers happen inside an op, off
the tape. Broadcasting is deliberately restricted: binary ops accept
equal shapes, a python scalar, or a trailing-suffix shape (bias add).
Rows move between a node table and a list of node pairs (a PairIndex)
only through pair_affine, segment_sum and permute_rows. This keeps
every backward rule explicit and easy to audit.

Gradients are never written in place. A tensor keeps the first gradient
it receives as is, though the same array may be another tensor's
gradient too, and later ones are added out of place; code that scales
or clips gradients must rebind .grad, not write into it.
"""

from __future__ import annotations

import contextlib

import numpy as np

# Additive logit mask. Large enough that exp() underflows to exactly
# 0.0 in float64 (so masked classes get probability 0), small enough
# that arithmetic on it stays finite. Do not use -inf: an all-masked
# softmax row would produce NaN instead of zeros.
MASK_VALUE = -1e30
NORM_EPS = 1e-5  # both normalizations add it to the variance
BN_MOMENTUM = 0.9  # share of the old running statistics a batchnorm step keeps


class ShapeError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False):
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g):
        # callers always pass a gradient of exactly self.data.shape; g may
        # be shared with other tensors, so neither it nor self.grad is
        # ever written into
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    def backward(self):
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar root, got shape %r" % (self.shape,))
        if not self.requires_grad:
            raise RuntimeError("backward() needs a root with a recorded graph not yet walked")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                order.append(node)
            else:
                stack.append((node, True))
                for p in node._parents:
                    if id(p) not in seen:
                        stack.append((p, False))
        self.grad = np.ones_like(self.data)
        self.requires_grad = self._backward is None  # a leaf root stays walkable
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents = None, ()

    # Operator sugar. Full primitives live at module level.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)


def _as_tensor(x):
    if isinstance(x, Tensor):
        return x
    if isinstance(x, np.ndarray) and x.dtype == np.float32:
        return Tensor(x)
    return Tensor(np.asarray(x, dtype=np.float64))


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: results keep no parents and no
    backward, so inference holds no activations alive. Nests, and the
    previous mode returns on exit, also when the block raises. The mode
    is process-wide, not per thread.
    """
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _node(data, parents, backward):
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _suffix_axes(big, small):
    """Axes of `big` to sum over when reducing a gradient to `small`'s shape."""
    if small == big:
        return None
    k = len(big) - len(small)
    if k < 0 or big[k:] != small:
        raise ShapeError(f"shapes {big} and {small} are not suffix-compatible")
    return tuple(range(k))


def add(a, b):
    """a + b for equal shapes or, bias-style, b broadcast over the
    leading axes of a."""
    a, b = _as_tensor(a), _as_tensor(b)
    axes = _suffix_axes(a.shape, b.shape)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=axes) if axes else g)

    return _node(a.data + b.data, (a, b), bw)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    axes = _suffix_axes(a.shape, b.shape)
    b_data = b.data.astype(a.data.dtype, copy=False)
    out_data = a.data * b_data

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * b_data)
        if b.requires_grad:
            gb = g * a.data
            b._accumulate(gb.sum(axis=axes) if axes else gb)

    return _node(out_data, (a, b), bw)


def affine(x, w, b, relu=False):
    """x @ w + b for x (..., fan_in), w (fan_in, fan_out) and b
    (fan_out,), as one node: the leading axes of x become rows off the
    tape, the bias is added in place into the product, and one backward
    gives all three gradients. relu=True takes max(., 0) in place, so no
    pre-activation is kept. NaN propagates (it is not mapped to 0), so a
    diverged activation reaches the loss and adam_step's finiteness check.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim < 1 or w.ndim != 2 or b.shape != w.shape[1:] or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine needs (..., i) @ (i, o) + (o,): {x.shape}, {w.shape}, {b.shape}")
    rows = x.data.reshape(-1, w.shape[0])
    out_data = rows @ w.data.astype(rows.dtype, copy=False)
    out_data += b.data.astype(rows.dtype, copy=False)
    if relu:
        np.maximum(out_data, 0.0, out=out_data)

    def bw(g):
        g = g.reshape(-1, w.shape[1])
        if relu:
            g = g * (out_data > 0)
        if x.requires_grad:
            x._accumulate((g @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            w._accumulate(rows.T @ g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return _node(out_data.reshape(x.shape[:-1] + w.shape[1:]), (x, w, b), bw)


class PairIndex:
    """A list of P pairs (i_k, j_k) of rows of an N-row node table,
    sorted by i; the pairs with i_k = v form node v's segment, which
    may be empty. t orders the pairs by j, stably, so in a symmetric
    list, which holds (j, i) whenever it holds (i, j), t maps the row
    of each pair (i, j) to the row of (j, i).
    """

    def __init__(self, i, j, num_nodes):
        self.i, self.j = np.asarray(i, np.int64), np.asarray(j, np.int64)
        if np.any(np.diff(self.i) < 0):
            raise ValueError("PairIndex rows must be sorted by i")
        self.num_nodes, self.t = num_nodes, np.argsort(self.j, kind="stable")
        self._by_i = self._segments(self.i, slice(None))
        self._by_j = self._segments(self.j, self.t)

    @staticmethod
    def _segments(keys, order):
        """(keys, each pair's rank in its key's segment, the widest
        segment), in pair order; order sorts keys, stably."""
        starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
        counts = np.diff(starts, append=len(keys))
        rank = np.empty(len(keys), np.int64)
        rank[order] = np.arange(len(keys)) - np.repeat(starts, counts)
        return keys, rank, int(counts.max(initial=0))

    def segment_sum(self, x, by_j=False):
        """(N, ...) row sums of x (P, ...), in pair order, by i or by j;
        a node with no pair sums to 0."""
        keys, rank, width = self._by_j if by_j else self._by_i
        out = np.zeros((self.num_nodes, width) + x.shape[1:], dtype=x.dtype)
        out[keys, rank] = x
        return out.sum(axis=1)


def pair_affine(x, w, b, pairs, e=None, relu=False):
    """[x_i, x_j, e_k] @ w + b for every pair k = (i, j) of a PairIndex:
    (P, d) rows from node rows x (N, h), pair rows e (P, h) or None for
    zeros, and w (3h, d), which splits by rows into W_i, W_j and W_e.
    x @ W_i + b and x @ W_j are computed once per node and gathered per
    pair, and e @ W_e is added into the output and not kept, so the wide
    input is never built. Without e, W_e gets an exact zero gradient.
    relu=True fuses max(., 0) as affine does.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    e = e if e is None else _as_tensor(e)
    parents = (x, w, b) + (() if e is None else (e,))
    h = x.shape[-1]
    want = [(pairs.num_nodes, h), (3 * h,) + w.shape[1:], w.shape[1:], (len(pairs.i), h)]
    if w.ndim != 2 or [t.shape for t in parents] != want[:len(parents)]:
        raise ShapeError(f"pair_affine needs x (N, h), w (3h, d), b (d,) and e (P, h): "
                         f"{[t.shape for t in parents]} vs {want}")
    w_i, w_j, w_e = np.split(w.data.astype(x.data.dtype, copy=False), 3)
    a = x.data @ w_i
    a += b.data.astype(x.data.dtype, copy=False)
    out_data = a.take(pairs.i, axis=0)
    if e is not None:
        out_data += e.data @ w_e
    out_data += (x.data @ w_j).take(pairs.j, axis=0)
    if relu:
        np.maximum(out_data, 0.0, out=out_data)

    def bw(g):
        if relu:
            g = g * (out_data > 0)
        g_i = pairs.segment_sum(g)
        g_j = pairs.segment_sum(g, by_j=True)
        if x.requires_grad:
            x._accumulate(g_i @ w_i.T + g_j @ w_j.T)
        if w.requires_grad:
            g_e = np.zeros_like(w_e) if e is None else e.data.T @ g
            w._accumulate(np.concatenate([x.data.T @ g_i, x.data.T @ g_j, g_e]))
        if b.requires_grad:
            b._accumulate(g_i.sum(axis=0))
        if e is not None and e.requires_grad:
            e._accumulate(g @ w_e.T)

    return _node(out_data, parents, bw)


def segment_sum(x, pairs, weights=None):
    """out[v] = the sum of the pair rows x[k] with i_k = v, each scaled
    by weights[k] when weights (P,) are given: (N, ...) from x (P, ...),
    0 for a node with no pair. The weights are cast to x's dtype."""
    x = _as_tensor(x)
    w = None if weights is None else \
        weights.astype(x.data.dtype, copy=False).reshape((-1,) + (1,) * (x.ndim - 1))

    def bw(g):
        if x.requires_grad:
            g = g.take(pairs.i, axis=0)
            x._accumulate(g if w is None else g * w)

    return _node(pairs.segment_sum(x.data if w is None else x.data * w), (x,), bw)


def permute_rows(x, perm):
    """out = x[perm] for a permutation perm of x's rows."""
    x = _as_tensor(x)

    def bw(g):
        if x.requires_grad:
            gx = np.empty_like(g)
            gx[perm] = g
            x._accumulate(gx)

    return _node(x.data[perm], (x,), bw)


def sum_(a):
    """The sum of all entries, as a scalar."""
    a = _as_tensor(a)

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _node(a.data.sum(), (a,), bw)


def _softmax(x, axis, out=None):
    """softmax(x) along axis, written to out: a new array, or x itself
    to work in place. The row max is taken over an axis-major contiguous
    copy, since numpy reduces a short last axis one row at a time and a
    max is the same in any order; the sum keeps numpy's own order, which
    the training arithmetic's rounding depends on. An empty axis gives
    an empty result."""
    top = np.ascontiguousarray(np.moveaxis(x, axis, 0)).max(axis=0, initial=-np.inf)
    out = np.subtract(x, np.expand_dims(top, axis), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _softmax_grad(p, g, axis, out=None):
    """The gradient at x of p = softmax(x) from the gradient g at p,
    written to out: a new array, or g itself to work in place."""
    out = np.subtract(g, (g * p).sum(axis=axis, keepdims=True), out=out)
    out *= p
    return out


def causal_attention(q, k, v, allowed, heads):
    """Masked softmax attention with `heads` heads as one node. q is
    (B, R, d), k and v are (B, S, d), and the bool mask `allowed`
    broadcasts to (B, heads, R, S). Per head, row r of the output
    (B, R, d) is the softmax over the allowed keys s of
    q[r] . k[s] / sqrt(d_k), applied to the values; a row with no
    allowed key, and every row when S = 0, is zeros. The heads split
    and merge off the tape. The softmax runs in place in the score
    buffer, with its row max over a key-major copy (_softmax). The
    backward reuses the forward's probabilities.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 3 or k.ndim != 3 or k.shape != v.shape or k.shape[::2] != q.shape[::2] \
            or q.shape[2] % heads:
        raise ShapeError(f"causal_attention needs q (B, R, d) and k, v (B, S, d), d divisible "
                         f"by {heads} heads: {q.shape}, {k.shape}, {v.shape}")
    d = q.shape[2]

    def split(a):  # (B, ., d) -> (B, H, ., d_k)
        return np.swapaxes(a.reshape(a.shape[:2] + (heads, d // heads)), 1, 2)

    def merge(a):  # (B, H, ., d_k) -> (B, ., d)
        a = np.swapaxes(a, 1, 2)
        return a.reshape(a.shape[:2] + (d,))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / float(np.sqrt(d // heads))  # a Python float keeps float32 float32
    p = qh @ np.swapaxes(kh, 2, 3)
    p *= scale
    np.copyto(p, MASK_VALUE, where=~allowed)
    _softmax(p, -1, out=p)
    p *= allowed  # a row with no allowed key softmaxes to uniform

    def bw(g):
        gh = split(g)
        if v.requires_grad:
            v._accumulate(merge(np.swapaxes(p, 2, 3) @ gh))
        if q.requires_grad or k.requires_grad:
            ds = gh @ np.swapaxes(vh, 2, 3)
            _softmax_grad(p, ds, -1, out=ds)
            ds *= scale
            if q.requires_grad:
                q._accumulate(merge(ds @ kh))
            if k.requires_grad:
                k._accumulate(merge(np.swapaxes(ds, 2, 3) @ qh))

    return _node(merge(p @ vh), (q, k, v), bw)


def masked_fill(a, mask, value):
    """Replace entries where `mask` is True with `value` (no grad there)."""
    a = _as_tensor(a)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    out_data = np.where(mask, value, a.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.where(mask, 0.0, g))

    return _node(out_data, (a,), bw)


def straight_through(z_h, z_q):
    """Identity-gradient bridge across a non-differentiable map.

    Forward returns z_q's values; backward copies the incoming gradient
    onto z_h unchanged and sends nothing to z_q.
    """
    z_h, z_q = _as_tensor(z_h), _as_tensor(z_q)
    if z_h.shape != z_q.shape:
        raise ShapeError(f"straight_through shapes differ: {z_h.shape} vs {z_q.shape}")
    out_data = z_q.data.copy()

    def bw(g):
        if z_h.requires_grad:
            z_h._accumulate(g)

    return _node(out_data, (z_h, z_q), bw)


def cross_entropy_with_logits(logits, targets):
    """Per-row CE over the last axis with integer targets; a row whose
    target is negative scores 0 and gets no gradient (ignore_index).

    Stable log-sum-exp; tolerates additively masked logits (MASK_VALUE)
    as long as the target class itself is unmasked.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"targets shape {targets.shape} vs logits {logits.shape}")
    scored = targets >= 0
    picks = np.maximum(targets, 0)[..., None]
    m = logits.data.max(axis=-1, keepdims=True)
    e = np.exp(logits.data - m)
    se = e.sum(axis=-1, keepdims=True)
    lse = (m + np.log(se)).squeeze(-1)
    picked = np.take_along_axis(logits.data, picks, axis=-1).squeeze(-1)
    out_data = np.where(scored, lse - picked, 0.0)

    def bw(g):
        if logits.requires_grad:
            p = e / se
            onehot = np.zeros_like(p)
            np.put_along_axis(onehot, picks, 1.0, axis=-1)
            logits._accumulate((p - onehot) * np.where(scored, g, 0.0)[..., None])

    return _node(out_data, (logits,), bw)


def _normalize(x, gamma, beta, axis, eps, stats=None):
    """(x - mean) / sqrt(var + eps) * gamma + beta, with the mean and
    variance of x over `axis` (batch statistics, taped), or the fixed
    statistics stats = (mean, var), which the backward treats as
    constants. gamma and beta scale the last axis. Returns the output
    and the (mean, var) used.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if stats is None:
        mu = x.data.mean(axis=axis, keepdims=True)
        xc = x.data - mu
        var = (xc * xc).mean(axis=axis, keepdims=True)
    else:
        mu, var = (s.astype(x.data.dtype, copy=False) for s in stats)
        xc = x.data - mu
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gamma.data.astype(x.data.dtype, copy=False) \
        + beta.data.astype(x.data.dtype, copy=False)
    d = x.shape[-1]

    def bw(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx = g * gamma.data
            if stats is None:
                t1 = gx.mean(axis=axis, keepdims=True)
                t2 = (gx * xhat).mean(axis=axis, keepdims=True)
                gx = gx - t1 - xhat * t2
            x._accumulate(inv * gx)

    return _node(out_data, (x, gamma, beta), bw), mu, var


def layernorm(x, gamma, beta):
    """Normalize the last axis, then scale and shift."""
    return _normalize(x, gamma, beta, -1, NORM_EPS)[0]


def norm_params(state, name, width):
    """The scale (ones) and shift (zeros) of a normalization, entered
    in the state table as name.gamma and name.beta."""
    gamma = state[name + ".gamma"] = Tensor(np.ones(width), requires_grad=True)
    beta = state[name + ".beta"] = Tensor(np.zeros(width), requires_grad=True)
    return gamma, beta


class BatchNormState:
    """Running statistics plus affine parameters for one batchnorm,
    entered in the state table under name."""

    def __init__(self, state, name, width):
        self.gamma, self.beta = norm_params(state, name, width)
        self.running_mean = state[name + ".running_mean"] = np.zeros(width)
        self.running_var = state[name + ".running_var"] = np.ones(width)


def batchnorm(x, state, train):
    """Batch normalization over the rows of a 2-D tensor.

    In training mode the statistics are the mean and variance over all
    rows, so a caller passes only the rows that belong in them. Running
    buffers are updated in place with momentum BN_MOMENTUM. In
    eval mode the running buffers are the statistics, no state changes,
    and the backward treats them as constants, as it does the default
    statistics (mean 0, variance 1) of a training batch with no rows.
    """
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"batchnorm expects 2-D input, got {x.shape}")
    stats = None
    if not train:
        stats = state.running_mean, state.running_var
    elif x.shape[0] == 0:
        stats = np.zeros(x.shape[1]), np.ones(x.shape[1])
    out, mu, var = _normalize(x, state.gamma, state.beta, 0, NORM_EPS, stats)
    if stats is None:
        state.running_mean *= BN_MOMENTUM
        state.running_mean += (1.0 - BN_MOMENTUM) * mu[0]
        state.running_var *= BN_MOMENTUM
        state.running_var += (1.0 - BN_MOMENTUM) * var[0]
    return out
