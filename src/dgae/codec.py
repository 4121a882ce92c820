"""Message-passing encoder and decoder between graphs and node sets.

The encoder runs L rounds of edge-then-node updates over each node's
augmented neighborhood (real plus virtual edges) and projects the
final node states to d_latent-wide embeddings. The decoder runs the
same style of network over the complete graph on the quantized
embeddings and emits per-node category logits and per-pair edge
logits, symmetrized by averaging with their transpose.

A batch is its live rows. Node states are (N, h) rows, one per node
of the batch's graphs, graph by graph; edge states are (P, h) rows over
one row-major list of the live pairs (b, i, j): the neighborhood pairs
in the encoder, the pairs i != j in the decoder. No padded slot is ever
computed, so batchnorm averages over real nodes and pairs only. Rows
come in graph order, so callers split them by graph size; only this
module maps them to padded (G, n) slots (_pair_list).

A decoded set is its distinct code tuples: nodes of a sampled set that
hold one tuple are interchangeable to the equivariant decoder, so each
tuple is one row with its node count (decode's counts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor, batchnorm
from .graphs import Graph


class Affine:
    def __init__(self, state, name, rng, fan_in, fan_out, gain=1.0):
        scale = np.sqrt(gain / fan_in)
        self.w = state[name + ".w"] = Tensor(rng.standard_normal((fan_in, fan_out)) * scale,
                                             requires_grad=True)
        self.b = state[name + ".b"] = Tensor(np.zeros(fan_out), requires_grad=True)

    def __call__(self, x, relu=False):
        return ad.affine(x, self.w, self.b, relu)


class Mlp:
    """Stack of affine maps, each but the last with a fused ReLU."""

    def __init__(self, state, name, rng, sizes):
        self.layers = []
        for i in range(len(sizes) - 1):
            gain = 2.0 if i < len(sizes) - 2 else 1.0
            self.layers.append(Affine(state, f"{name}.{i}", rng, sizes[i], sizes[i + 1], gain))

    def __call__(self, x):
        return self.after_first(self.layers[0](x, relu=len(self.layers) > 1))

    def after_first(self, h):
        """The layers after the first, given the first one's (ReLU) output h."""
        for i, layer in enumerate(self.layers[1:], 1):
            h = layer(h, relu=i < len(self.layers) - 1)
        return h


class GnnLayer:
    """One round: e' = bn(f_edge([x_i, x_j, e])), x' = bn(x + sum_j f_node([x_i, x_j, e']))."""

    def __init__(self, state, name, rng, state_width, mlp_hidden):
        h, w = state_width, mlp_hidden
        self.f_edge = Mlp(state, name + ".f_edge", rng, [3 * h, w, w, h])
        self.f_node = Mlp(state, name + ".f_node", rng, [3 * h, w, w, h])
        self.bn_e = BatchNormState(state, name + ".bn_e", h)
        self.bn_x = BatchNormState(state, name + ".bn_x", h)


class EncoderParams:
    def __init__(self, state, name, rng, node_width, edge_width, state_width, mlp_hidden,
                 num_layers, d_latent):
        self.node_in = Affine(state, name + ".node_in", rng, node_width, state_width)
        self.edge_in = Affine(state, name + ".edge_in", rng, edge_width, state_width)
        self.layers = [GnnLayer(state, f"{name}.layer{i}", rng, state_width, mlp_hidden)
                       for i in range(num_layers)]
        self.out = Affine(state, name + ".out", rng, state_width, d_latent)


class DecoderParams:
    def __init__(self, state, name, rng, d_latent, state_width, mlp_hidden, num_layers,
                 num_node_categories, num_edge_categories):
        self.in_proj = Affine(state, name + ".in_proj", rng, d_latent, state_width)
        self.layers = [GnnLayer(state, f"{name}.layer{i}", rng, state_width, mlp_hidden)
                       for i in range(num_layers)]
        self.node_out = Affine(state, name + ".node_out", rng, state_width, num_node_categories)
        self.edge_out = Affine(state, name + ".edge_out", rng, state_width, num_edge_categories)


@dataclass
class GraphTensorBatch:
    """G graphs as one table of their N = sum(sizes) node rows, graph by
    graph, and row-major lists of their pairs (b, i, j)."""
    node_feats: np.ndarray       # (N, F_n)
    node_targets: np.ndarray     # (N,) int64
    neighborhood: ad.PairIndex   # the neighborhood pairs over the N rows
    edge_feats: np.ndarray       # (P, F_e) on the neighborhood pairs
    edge_targets: np.ndarray     # (sum n(n-1),) int64 on the pairs i != j
    sizes: np.ndarray            # (G,) int64
    node_mask: np.ndarray        # (G, n) bool: the slots of graph b's nodes


def _pair_list(mask, node_mask):
    """The True entries of a (G, n, n) pair mask in row-major order, as
    a PairIndex over the live node rows of node_mask (G, n)."""
    n = node_mask.shape[1]
    row = np.cumsum(node_mask.reshape(-1)) - 1  # slot b * n + i -> its row
    flat = np.flatnonzero(mask)
    slot = flat // n
    return ad.PairIndex(row[slot], row[slot - slot % n + flat % n],
                        int(node_mask.sum()))


def prepare_batch(aug_graphs) -> GraphTensorBatch:
    """Stack a list of augmented graphs into one batch of live rows."""
    if not aug_graphs:
        raise ValueError("empty batch")
    sizes = np.array([ag.n for ag in aug_graphs], dtype=np.int64)
    n = int(sizes.max())
    neigh = np.zeros((len(aug_graphs), n, n), dtype=bool)
    for b, ag in enumerate(aug_graphs):
        neigh[b, :ag.n, :ag.n] = ag.neighborhood
    mask = np.arange(n) < sizes[:, None]
    return GraphTensorBatch(
        np.concatenate([ag.node_feats for ag in aug_graphs]),
        np.concatenate([ag.base.node_categories for ag in aug_graphs]),
        _pair_list(neigh, mask),
        np.concatenate([ag.edge_feats[ag.neighborhood] for ag in aug_graphs]),
        np.concatenate([ag.base.edge_categories[~np.eye(ag.n, dtype=bool)]
                        for ag in aug_graphs]),
        sizes, mask)


def _pair_mlp(mlp, x, e, pairs):
    """mlp([x_i, x_j, e_ij]) for every listed pair: (P, out) rows.

    x: Tensor (N, h) node rows; e: Tensor (P, h), or None for an
    all-zero edge state. mlp has two layers or more; the first is one
    pair_affine with a fused ReLU, which never builds the wide input.
    """
    first = mlp.layers[0]
    return mlp.after_first(ad.pair_affine(x, first.w, first.b, pairs, e, relu=True))


def _mpnn_rounds(x, e, layers, pairs, train, weights=None):
    """Shared message-passing stack for encoder and decoder.

    x: Tensor (N, h) node rows; e: Tensor (P, h) over the pairs of the
    PairIndex `pairs`, or None for an all-zero start; weights (P,), if
    given, scale each pair's message. Returns final (x, e).
    """
    for layer in layers:
        e = batchnorm(_pair_mlp(layer.f_edge, x, e, pairs), layer.bn_e, train)
        # node messages read the updated edge states
        m = _pair_mlp(layer.f_node, x, e, pairs)
        x = batchnorm(x + ad.segment_sum(m, pairs, weights), layer.bn_x, train)
    return x, e


def encode(batch: GraphTensorBatch, enc: EncoderParams, train: bool) -> Tensor:
    """Embed each graph's nodes: (N, d_latent), one row per node of the
    batch. Messages run along the neighborhood pairs only."""
    x = enc.node_in(Tensor(batch.node_feats))
    e = enc.edge_in(Tensor(batch.edge_feats))
    x, _ = _mpnn_rounds(x, e, enc.layers, batch.neighborhood, train)
    return enc.out(x)


def decode(z, node_mask, dec: DecoderParams, train: bool, counts=None):
    """Reconstruct logits from node embeddings over the complete graph.

    z: Tensor or ndarray (N, d_latent), the rows of the nodes that
    node_mask (G, n) marks, graph by graph; a float32 ndarray decodes
    in float32 (inference only). Returns (node_logits (N, R),
    edge_logits (P, S)) with one edge row per listed pair (a, b) of each
    graph, row-major: the pairs a != b, as in
    GraphTensorBatch.edge_targets; the edge logits of (a, b) and (b, a)
    are exactly equal. A 1-node graph simply has no pairs.

    counts (G, n), eval mode only, makes row a stand for counts[a]
    interchangeable nodes (twins: one code tuple of a sampled set). The
    pairs then also hold (a, a) where counts[a] >= 2, and the message of
    (a, b) into a is weighted by w_ab = counts[b] - [a == b]. Eval-mode
    batchnorm works row by row, so by induction over the rounds node
    states depend only on the class and edge states only on the (class,
    class) pair, and the message sum into a node of class a is
    sum_b w_ab * m_ab: each row decodes as each of its nodes would. All
    counts 1 give the pairs and arithmetic of a call without counts.
    """
    eye = np.eye(node_mask.shape[1], dtype=bool)
    valid = node_mask[:, :, None] & node_mask[:, None, :] & ~eye
    if counts is not None:
        if train:
            raise ValueError("decode takes counts in eval mode only: batch statistics "
                             "would need the weights")
        valid |= eye & (node_mask & (counts >= 2))[:, :, None]
    pairs = _pair_list(valid, node_mask)
    weights = None if counts is None else counts[node_mask][pairs.j] - (pairs.i == pairs.j)
    x, e = _mpnn_rounds(dec.in_proj(z), None, dec.layers, pairs, train, weights)
    el = dec.edge_out(e)
    return dec.node_out(x), ad.mul(el + ad.permute_rows(el, pairs.t), 0.5)


def recon_loss(node_logits, edge_logits, batch: GraphTensorBatch):
    """Cross-entropy reconstruction loss, averaged over the batch.

    Each graph is weighted by 1 / (n + n^2); node terms run over its n
    nodes and edge terms over all ordered pairs i != j.
    """
    sizes = batch.sizes
    w = 1.0 / (sizes + sizes ** 2)
    ce_n = ad.cross_entropy_with_logits(node_logits, batch.node_targets)
    ce_e = ad.cross_entropy_with_logits(edge_logits, batch.edge_targets)
    total = ad.sum_(ad.mul(ce_n, Tensor(np.repeat(w, sizes)))) \
        + ad.sum_(ad.mul(ce_e, Tensor(np.repeat(w, sizes * (sizes - 1)))))
    return ad.mul(total, 1.0 / len(sizes))


def error_counts(node_logits, edge_logits, batch: GraphTensorBatch):
    """Argmax mismatches of the logit Tensors: (node errors, ordered
    pair errors)."""
    node_err = node_logits.data.argmax(axis=-1) != batch.node_targets
    edge_err = edge_logits.data.argmax(axis=-1) != batch.edge_targets
    return int(node_err.sum()), int(edge_err.sum())


def sample_graph(node_logits, edge_logits, classes=None) -> Graph:
    """Mode decode of one graph from ndarrays node_logits (k, R) and the
    decoder's symmetric edge_logits on its listed pairs (decode): argmax
    per row and per pair, ties to the lowest category, which gives
    symmetric edge categories. The rows are the nodes, or, given
    classes (n,), the classes of decode's counts, node v in row
    classes[v]; the categories then expand to the nodes. Category 0
    means no edge and the diagonal is set to it. Either array may be
    float32 (decode_sequences decodes in float32) or float64.
    """
    k = node_logits.shape[0]
    classes = np.arange(k) if classes is None else classes
    listed = ~np.eye(k, dtype=bool)
    listed.flat[::k + 1] = np.bincount(classes, minlength=k) >= 2
    grid = np.zeros((k, k), dtype=np.int64)
    grid[listed] = edge_logits.argmax(axis=1)
    edge_cat = grid[classes[:, None], classes]
    np.fill_diagonal(edge_cat, 0)
    return Graph(node_logits.argmax(axis=1)[classes], edge_cat, node_logits.shape[1],
                 edge_logits.shape[1])
