"""Message-passing encoder and decoder between graphs and node sets.

The encoder runs L rounds of edge-then-node updates over each node's
augmented neighborhood (real plus virtual edges) and projects the
final node states to d_latent-wide embeddings. The decoder runs the
same style of network over the complete graph on the quantized
embeddings and emits per-node category logits and per-pair edge
logits, symmetrized by averaging with their transpose.

Both directions take padded batches. Node states are (B*n, h) rows;
edge states are (P, h) rows over one row-major list of the live pairs
(b, i, j): the neighborhood pairs in the encoder, the valid pairs
i != j in the decoder. No dead pair is ever computed, edge batchnorm
averages over the listed pairs and node batchnorm over valid nodes,
so padding never leaks into the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor, batchnorm
from .graphs import Graph


class Affine:
    def __init__(self, rng, fan_in, fan_out, gain=1.0):
        scale = np.sqrt(gain / fan_in)
        self.w = Tensor(rng.standard_normal((fan_in, fan_out)) * scale, requires_grad=True)
        self.b = Tensor(np.zeros(fan_out), requires_grad=True)

    def __call__(self, x):
        return ad.affine(x, self.w, self.b)

    def params(self, prefix):
        return {prefix + ".w": self.w, prefix + ".b": self.b}


class Mlp:
    """Stack of affine maps with relu between them (linear output)."""

    def __init__(self, rng, sizes):
        self.layers = []
        for i in range(len(sizes) - 1):
            gain = 2.0 if i < len(sizes) - 2 else 1.0
            self.layers.append(Affine(rng, sizes[i], sizes[i + 1], gain))

    def __call__(self, x):
        return self.after_first(self.layers[0](x))

    def after_first(self, h):
        """The layers after the first, given the first one's output h."""
        for layer in self.layers[1:]:
            h = layer(ad.relu(h))
        return h

    def params(self, prefix):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.params(f"{prefix}.{i}"))
        return out


def _bn_entries(prefix, bn):
    params = {prefix + ".gamma": bn.gamma, prefix + ".beta": bn.beta}
    buffers = {prefix + ".running_mean": bn.running_mean, prefix + ".running_var": bn.running_var}
    return params, buffers


class GnnLayer:
    """One round: e' = bn(f_edge([x_i, x_j, e])), x' = bn(x + sum_j f_node([x_i, x_j, e']))."""

    def __init__(self, rng, state_width, mlp_hidden):
        h, w = state_width, mlp_hidden
        self.f_edge = Mlp(rng, [3 * h, w, w, h])
        self.f_node = Mlp(rng, [3 * h, w, w, h])
        self.bn_e = BatchNormState(h)
        self.bn_x = BatchNormState(h)

    def params(self, prefix):
        out = self.f_edge.params(prefix + ".f_edge")
        out.update(self.f_node.params(prefix + ".f_node"))
        p, _ = _bn_entries(prefix + ".bn_e", self.bn_e)
        out.update(p)
        p, _ = _bn_entries(prefix + ".bn_x", self.bn_x)
        out.update(p)
        return out

    def buffers(self, prefix):
        _, b1 = _bn_entries(prefix + ".bn_e", self.bn_e)
        _, b2 = _bn_entries(prefix + ".bn_x", self.bn_x)
        return {**b1, **b2}


class EncoderParams:
    def __init__(self, rng, node_width, edge_width, state_width, mlp_hidden,
                 num_layers, d_latent):
        self.state_width = state_width
        self.node_in = Affine(rng, node_width, state_width)
        self.edge_in = Affine(rng, edge_width, state_width)
        self.layers = [GnnLayer(rng, state_width, mlp_hidden) for _ in range(num_layers)]
        self.out = Affine(rng, state_width, d_latent)

    def params(self):
        out = self.node_in.params("enc.node_in")
        out.update(self.edge_in.params("enc.edge_in"))
        for i, layer in enumerate(self.layers):
            out.update(layer.params(f"enc.layer{i}"))
        out.update(self.out.params("enc.out"))
        return out

    def buffers(self):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.buffers(f"enc.layer{i}"))
        return out


class DecoderParams:
    def __init__(self, rng, d_latent, state_width, mlp_hidden, num_layers,
                 num_node_categories, num_edge_categories):
        self.state_width = state_width
        self.in_proj = Affine(rng, d_latent, state_width)
        self.layers = [GnnLayer(rng, state_width, mlp_hidden) for _ in range(num_layers)]
        self.node_out = Affine(rng, state_width, num_node_categories)
        self.edge_out = Affine(rng, state_width, num_edge_categories)

    def params(self):
        out = self.in_proj.params("dec.in_proj")
        for i, layer in enumerate(self.layers):
            out.update(layer.params(f"dec.layer{i}"))
        out.update(self.node_out.params("dec.node_out"))
        out.update(self.edge_out.params("dec.edge_out"))
        return out

    def buffers(self):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.buffers(f"dec.layer{i}"))
        return out


@dataclass
class GraphTensorBatch:
    node_feats: np.ndarray    # (B, n, F_n)
    edge_feats: np.ndarray    # (B, n, n, F_e)
    neighborhood: np.ndarray  # (B, n, n) bool
    node_mask: np.ndarray     # (B, n) bool
    node_targets: np.ndarray  # (B, n) int64
    edge_targets: np.ndarray  # (B, n, n) int64
    sizes: np.ndarray         # (B,) int64

    @property
    def pair_mask(self):
        return _valid_pairs(self.node_mask)


def _valid_pairs(node_mask):
    """(B, n, n) bool: the ordered pairs i != j of valid nodes."""
    pm = node_mask[:, :, None] & node_mask[:, None, :]
    idx = np.arange(node_mask.shape[1])
    pm[:, idx, idx] = False
    return pm


def _pair_list(mask):
    """The True entries of a (B, n, n) pair mask in row-major order: a
    PairIndex over the B*n node rows, and their flat positions in mask.
    """
    n = mask.shape[1]
    flat = np.flatnonzero(mask)
    rows = flat // n  # b * n + i
    return ad.PairIndex(rows, rows - rows % n + flat % n, mask.shape[0] * n), flat


def prepare_batch(aug_graphs) -> GraphTensorBatch:
    """Pad a list of augmented graphs into one dense batch."""
    if not aug_graphs:
        raise ValueError("empty batch")
    sizes = np.array([ag.n for ag in aug_graphs], dtype=np.int64)
    n = int(sizes.max())
    B = len(aug_graphs)
    fn = aug_graphs[0].node_feats.shape[1]
    fe = aug_graphs[0].edge_feats.shape[2]
    node_feats = np.zeros((B, n, fn))
    edge_feats = np.zeros((B, n, n, fe))
    neigh = np.zeros((B, n, n), dtype=bool)
    mask = np.zeros((B, n), dtype=bool)
    node_t = np.zeros((B, n), dtype=np.int64)
    edge_t = np.zeros((B, n, n), dtype=np.int64)
    for b, ag in enumerate(aug_graphs):
        k = ag.n
        node_feats[b, :k] = ag.node_feats
        edge_feats[b, :k, :k] = ag.edge_feats
        neigh[b, :k, :k] = ag.neighborhood
        mask[b, :k] = True
        node_t[b, :k] = ag.base.node_categories()
        edge_t[b, :k, :k] = ag.base.edge_categories()
    return GraphTensorBatch(node_feats, edge_feats, neigh, mask, node_t, edge_t, sizes)


def _pair_mlp(mlp, x, e, pairs):
    """mlp([x_i, x_j, e_ij]) for every listed pair: (P, out) rows.

    x: Tensor (B*n, h) node rows; e: Tensor (P, h), or None for an
    all-zero edge state. The first layer's (3h, w) weight splits by
    rows into W_i, W_j and W_e, so [x_i, x_j, e] @ W = x_i @ W_i +
    x_j @ W_j + e @ W_e: the node terms are computed once per node and
    gathered per pair, and the wide input is never built.
    """
    h = x.shape[1]
    first = mlp.layers[0]
    w = first.w
    a = ad.affine(x, ad.slice_(w, slice(0, h)), first.b)
    c = ad.matmul(x, ad.slice_(w, slice(h, 2 * h)))
    if e is not None:
        e = ad.matmul(e, ad.slice_(w, slice(2 * h, 3 * h)))
    return mlp.after_first(ad.pair_gather(a, c, pairs, e))


def _mpnn_rounds(x, e, layers, pairs, node_mask, train):
    """Shared message-passing stack for encoder and decoder.

    x: Tensor (B*n, h) node rows; e: Tensor (P, h) over the pairs of
    the PairIndex `pairs`, or None for an all-zero start; node_mask:
    (B*n,) bool. Returns final (x, e).
    """
    for layer in layers:
        e = batchnorm(_pair_mlp(layer.f_edge, x, e, pairs), layer.bn_e, train)
        # node messages read the updated edge states
        m = _pair_mlp(layer.f_node, x, e, pairs)
        x = batchnorm(x + ad.segment_sum(m, pairs), layer.bn_x, train, mask=node_mask)
    return x, e


def encode(batch: GraphTensorBatch, enc: EncoderParams, train: bool) -> Tensor:
    """Embed each graph's nodes: (B, n, d_latent).

    Messages run along the neighborhood pairs only. Padded node slots
    receive none; their rows are computed but carry no meaning, so
    mask with batch.node_mask.
    """
    B, n, fn = batch.node_feats.shape
    fe = batch.edge_feats.shape[-1]
    pairs, flat = _pair_list(batch.neighborhood)
    x = enc.node_in(Tensor(batch.node_feats.reshape(B * n, fn)))
    e = enc.edge_in(Tensor(batch.edge_feats.reshape(B * n * n, fe)[flat]))
    x, _ = _mpnn_rounds(x, e, enc.layers, pairs, batch.node_mask.reshape(-1), train)
    z = enc.out(x)
    return ad.reshape(z, (B, n, z.shape[-1]))


def decode(z, node_mask, dec: DecoderParams, train: bool):
    """Reconstruct logits from node embeddings over the complete graph.

    z: Tensor or ndarray (B, n, d_latent). Returns (node_logits
    (B, n, R), edge_logits (B, n, n, S)). Edge logits are computed on
    the valid pairs i != j only and are exactly symmetric; on the
    diagonal and on padding they are exactly 0. A 1-node graph simply
    has no pairs.
    """
    if not isinstance(z, Tensor):
        z = Tensor(np.asarray(z, dtype=np.float64))
    B, n, d = z.shape
    pairs, flat = _pair_list(_valid_pairs(node_mask))
    x = dec.in_proj(ad.reshape(z, (B * n, d)))
    x, e = _mpnn_rounds(x, None, dec.layers, pairs, node_mask.reshape(-1), train)

    node_logits = ad.reshape(dec.node_out(x), (B, n, -1))
    el = dec.edge_out(e)
    el = ad.mul(el + ad.permute_rows(el, pairs.t), 0.5)
    edge_logits = ad.reshape(ad.scatter_rows(el, flat, B * n * n), (B, n, n, -1))
    return node_logits, edge_logits


def recon_loss(node_logits, edge_logits, batch: GraphTensorBatch):
    """Cross-entropy reconstruction loss, averaged over the batch.

    Each graph is weighted by 1 / (n + n^2); node terms run over its n
    nodes and edge terms over all ordered pairs i != j.
    """
    sizes = batch.sizes.astype(np.float64)
    w = 1.0 / (sizes + sizes ** 2)
    node_w = batch.node_mask * w[:, None]
    pair_w = batch.pair_mask * w[:, None, None]
    ce_n = ad.cross_entropy_with_logits(node_logits, batch.node_targets)
    ce_e = ad.cross_entropy_with_logits(edge_logits, batch.edge_targets)
    total = ad.sum_(ad.mul(ce_n, Tensor(node_w))) + ad.sum_(ad.mul(ce_e, Tensor(pair_w)))
    return ad.mul(total, 1.0 / len(sizes))


def error_rates(node_logits, edge_logits, batch: GraphTensorBatch):
    """Fraction of argmax mismatches over valid nodes and ordered pairs."""
    nl = node_logits.data if isinstance(node_logits, Tensor) else node_logits
    el = edge_logits.data if isinstance(edge_logits, Tensor) else edge_logits
    node_pred = nl.argmax(axis=-1)
    edge_pred = el.argmax(axis=-1)
    nm, pm = batch.node_mask, batch.pair_mask
    node_err = float(((node_pred != batch.node_targets) & nm).sum() / max(nm.sum(), 1))
    edge_err = float(((edge_pred != batch.edge_targets) & pm).sum() / max(pm.sum(), 1))
    return node_err, edge_err


def sample_graph(node_logits, edge_logits) -> Graph:
    """Mode decode of one graph: argmax per node and per pair, ties to
    the lowest category. Edge logits are symmetrized first; category 0
    means no edge.
    """
    nl = node_logits.data if isinstance(node_logits, Tensor) else np.asarray(node_logits)
    el = edge_logits.data if isinstance(edge_logits, Tensor) else np.asarray(edge_logits)
    n, R = nl.shape
    S = el.shape[-1]
    el = 0.5 * (el + el.transpose(1, 0, 2))
    node_cat = nl.argmax(axis=1)
    edge_cat = el.argmax(axis=2)
    np.fill_diagonal(edge_cat, 0)
    node_attrs = np.zeros((n, R))
    node_attrs[np.arange(n), node_cat] = 1.0
    edge_attrs = np.zeros((n, n, S))
    rows, cols = np.indices((n, n))
    edge_attrs[rows, cols, edge_cat] = 1.0
    g = Graph(node_attrs, edge_attrs)
    g.validate()
    return g

