"""Reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced. Calling
backward() on a scalar root walks the recorded graph in reverse
topological order and accumulates gradients into every Tensor that
requires them. Training runs in float64; inference code may pass
float32 arrays for speed, and runs inside no_grad(), which records no
graph.

Broadcasting is deliberately restricted: binary ops accept equal
shapes, a python scalar, or a trailing-suffix shape (bias add). Rows
move between a node table and a list of node pairs (a PairIndex) only
through named ops: pair_gather, segment_sum, permute_rows and
scatter_rows. This keeps every backward rule explicit and easy to audit.

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
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Operator sugar. Full primitives live at module level.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __getitem__(self, key):
        return slice_(self, key)


def _as_tensor(x):
    if isinstance(x, Tensor):
        return x
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
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape == b.shape:
        out_data = a.data + b.data

        def bw(g):
            if a.requires_grad:
                a._accumulate(g)
            if b.requires_grad:
                b._accumulate(g)

    else:
        # bias-style add: b broadcasts over leading axes of a
        axes = _suffix_axes(a.shape, b.shape)
        out_data = a.data + b.data

        def bw(g):
            if a.requires_grad:
                a._accumulate(g)
            if b.requires_grad:
                b._accumulate(g.sum(axis=axes) if axes else g)

    return _node(out_data, (a, b), bw)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        axes = _suffix_axes(a.shape, b.shape)
    else:
        axes = None
    out_data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            gb = g * a.data
            b._accumulate(gb.sum(axis=axes) if axes else gb)

    return _node(out_data, (a, b), bw)


def neg(a):
    a = _as_tensor(a)

    def bw(g):
        if a.requires_grad:
            a._accumulate(-g)

    return _node(-a.data, (a,), bw)


def matmul(a, b):
    """Matrix product. 2-D or batched with identical leading dims."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul needs >=2-D operands")
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul leading dims must match exactly: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b._accumulate(np.swapaxes(a.data, -1, -2) @ g)

    return _node(out_data, (a, b), bw)


def concat(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _node(out_data, tuple(tensors), bw)


def reshape(a, shape):
    a = _as_tensor(a)
    out_data = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _node(out_data, (a,), bw)


def transpose(a, axes):
    a = _as_tensor(a)
    axes = tuple(axes)
    inv = np.argsort(axes)
    out_data = np.transpose(a.data, axes)

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.transpose(g, inv))

    return _node(out_data, (a,), bw)


def slice_(a, key):
    """Basic slicing (ints/slices). Backward scatters into a zero tensor."""
    a = _as_tensor(a)
    out_data = a.data[key]

    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[key] = g
            a._accumulate(full)

    return _node(out_data, (a,), bw)


def affine(x, w, b):
    """x @ w + b for 2-D x (rows, fan_in), w (fan_in, fan_out) and b
    (fan_out,), as one node: the bias is added in place into the
    product, and one backward gives all three gradients.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or b.shape != w.shape[1:] or x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine needs (r, i) @ (i, o) + (o,): {x.shape}, {w.shape}, {b.shape}")
    out_data = x.data @ w.data
    out_data += b.data

    def bw(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return _node(out_data, (x, w, b), bw)


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
        self._by_i, self._by_j = self._segments(self.i), self._segments(self.j[self.t])

    @staticmethod
    def _segments(keys):
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        counts = np.diff(starts, append=len(keys))
        rank = np.arange(len(keys)) - np.repeat(starts, counts)
        return keys, rank, int(counts.max(initial=0))

    def segment_sum(self, x, by_j=False):
        """(N, ...) row sums of x (P, ...) by i or, for x in t order, by
        j; a node with no pair sums to 0."""
        keys, rank, width = self._by_j if by_j else self._by_i
        out = np.zeros((self.num_nodes, width) + x.shape[1:], dtype=x.dtype)
        out[keys, rank] = x
        return out.sum(axis=1)


def pair_gather(a, c, pairs, e=None):
    """out[k] = a[i_k] + e[k] + c[j_k] for node rows a, c (N, d), a
    PairIndex of P pairs and optional pair rows e (P, d): per-node terms
    gathered to every listed pair.
    """
    a, c = _as_tensor(a), _as_tensor(c)
    e = None if e is None else _as_tensor(e)
    parents = (a, c) if e is None else (a, c, e)
    shapes = [t.shape for t in parents]
    want = [(pairs.num_nodes, a.shape[-1])] * 2 + [(len(pairs.i), a.shape[-1])]
    if shapes != want[:len(shapes)]:
        raise ShapeError(f"pair_gather needs (N, d), (N, d) and (P, d): {shapes} vs {want}")
    out_data = a.data.take(pairs.i, axis=0)
    if e is not None:
        out_data += e.data
    out_data += c.data.take(pairs.j, axis=0)

    def bw(g):
        if a.requires_grad:
            a._accumulate(pairs.segment_sum(g))
        if c.requires_grad:
            c._accumulate(pairs.segment_sum(g.take(pairs.t, axis=0), by_j=True))
        if e is not None and e.requires_grad:
            e._accumulate(g)

    return _node(out_data, parents, bw)


def segment_sum(x, pairs):
    """out[v] = the sum of the pair rows x[k] with i_k = v: (N, ...)
    from x (P, ...), 0 for a node with no pair."""
    x = _as_tensor(x)

    def bw(g):
        if x.requires_grad:
            x._accumulate(g.take(pairs.i, axis=0))

    return _node(pairs.segment_sum(x.data), (x,), bw)


def permute_rows(x, perm):
    """out = x[perm] for a permutation perm of x's rows."""
    x = _as_tensor(x)

    def bw(g):
        if x.requires_grad:
            gx = np.empty_like(g)
            gx[perm] = g
            x._accumulate(gx)

    return _node(x.data[perm], (x,), bw)


def scatter_rows(x, rows, num_rows):
    """(num_rows, ...) zeros with out[rows] = x, for distinct rows."""
    x = _as_tensor(x)
    out_data = np.zeros((num_rows,) + x.shape[1:], dtype=x.data.dtype)
    out_data[rows] = x.data

    def bw(g):
        if x.requires_grad:
            x._accumulate(g[rows])

    return _node(out_data, (x,), bw)


def sum_(a):
    """The sum of all entries, as a scalar."""
    a = _as_tensor(a)

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _node(a.data.sum(), (a,), bw)


def relu(a):
    """max(a, 0). NaN propagates (it is not mapped to 0), so a diverged
    activation reaches the loss and adam_step's finiteness check. The
    backward builds its mask from the output, so inference builds none.
    """
    a = _as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * (out_data > 0))

    return _node(out_data, (a,), bw)


def softmax(a, axis=-1):
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        if a.requires_grad:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (g - dot))

    return _node(out_data, (a,), bw)


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
    """Per-row CE over the last axis with integer targets.

    Stable log-sum-exp; tolerates additively masked logits (MASK_VALUE)
    as long as the target class itself is unmasked.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"targets shape {targets.shape} vs logits {logits.shape}")
    m = logits.data.max(axis=-1, keepdims=True)
    e = np.exp(logits.data - m)
    se = e.sum(axis=-1, keepdims=True)
    lse = (m + np.log(se)).squeeze(-1)
    picked = np.take_along_axis(logits.data, targets[..., None], axis=-1).squeeze(-1)
    out_data = lse - picked

    def bw(g):
        if logits.requires_grad:
            p = e / se
            onehot = np.zeros_like(p)
            np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
            logits._accumulate((p - onehot) * g[..., None])

    return _node(out_data, (logits,), bw)


def layernorm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis, then scale and shift."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gamma.data + beta.data
    d = x.shape[-1]

    def bw(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx = g * gamma.data
            t1 = gx.mean(axis=-1, keepdims=True)
            t2 = (gx * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(inv * (gx - t1 - xhat * t2))

    return _node(out_data, (x, gamma, beta), bw)


class BatchNormState:
    """Running statistics plus affine parameters for one batchnorm."""

    def __init__(self, width, momentum=0.9, eps=1e-5):
        self.gamma = Tensor(np.ones(width), requires_grad=True)
        self.beta = Tensor(np.zeros(width), requires_grad=True)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.momentum = momentum
        self.eps = eps


def batchnorm(x, state, train, mask=None):
    """Batch normalization over rows of a 2-D tensor.

    In training mode the batch statistics are computed over rows where
    `mask` is True (all rows if None); padding rows must be left out,
    by the mask or by not passing them, or they would pollute the
    statistics. Every row is normalized with those statistics. Running
    buffers are updated in place with momentum `state.momentum`. In
    eval mode the running buffers are the statistics, no state changes,
    and the backward treats them as constants, as it does the default
    statistics of an all-masked training batch.
    """
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"batchnorm expects 2-D input, got {x.shape}")
    gamma, beta, eps = state.gamma, state.beta, state.eps

    sel = None if mask is None else np.asarray(mask, dtype=bool)
    # m counts the rows the statistics depend on: none in eval mode
    m = (x.shape[0] if sel is None else int(sel.sum())) if train else 0
    if not train:
        mu, var = state.running_mean, state.running_var
    elif m == 0:
        mu = np.zeros(x.shape[1])
        var = np.ones(x.shape[1])
    else:
        rows = x.data if sel is None else x.data[sel]
        mu = rows.mean(axis=0)
        var = ((rows - mu) ** 2).mean(axis=0)
        state.running_mean *= state.momentum
        state.running_mean += (1.0 - state.momentum) * mu
        state.running_var *= state.momentum
        state.running_var += (1.0 - state.momentum) * var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * gamma.data + beta.data

    def bw(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=0))
        if x.requires_grad:
            gx = g * gamma.data
            gi = gx * inv
            if m > 0:
                # mu and var depend only on masked rows; all rows share them
                dmu = -gi.sum(axis=0)
                dvar = (gx * (x.data - mu)).sum(axis=0) * (-0.5) * inv ** 3
                corr = dmu / m + dvar * 2.0 * (x.data - mu) / m
                gi = gi + (corr if sel is None else sel[:, None] * corr)
            x._accumulate(gi)

    return _node(out_data, (x, gamma, beta), bw)
