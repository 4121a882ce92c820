"""Brute-force reference implementations used to validate the library.

Everything here is deliberately slow and simple: exhaustive enumeration,
explicit double loops or dense forms, and no code shared with src/
beyond the autodiff primitives and the model's parameter objects.
Closed-form results in the package are checked against these. Four
helpers, grad_check, pair_matrix, encode_graph and load_bench_inputs,
are not references: they drive the package's own code, lay out its
pair rows as a matrix or load the benchmark's input writer for the
tests; dense_rows and dense_stats are not references either: they lay
out the package's sparse statistics tables as the per-graph dense
histograms the references give. The per-graph statistics
(graph_stats, clustering_coefficients, node_orbit_counts) are the
package's former one-graph-at-a-time definitions, kept to pin its
set-level ones; node_orbit_counts reads the package's connectedness
tables, which node_orbit_participation checks independently.
ema_update_per_partition and perplexity_from_histogram are the
package's former partition-by-partition EMA step and dict-counted
perplexity. matmul, concat and reshape are taped ops the package no
longer needs: the dense message-passing and attention oracles build
their unfactorised forms from them. emd_pairs is the dense all-pairs
EMD over the package's own tables, which the package no longer builds.
"""

import collections
import itertools
import types
from pathlib import Path

import numpy as np
from scipy.stats import wasserstein_distance

from dgae import autodiff as ad
from dgae import codec, evaluation
from dgae.autodiff import Tensor, batchnorm
from dgae.graphs import new_graph


def graphs_equal(a, b):
    return (a.num_node_categories == b.num_node_categories
            and a.num_edge_categories == b.num_edge_categories
            and np.array_equal(a.node_categories, b.node_categories)
            and np.array_equal(a.edge_categories, b.edge_categories))


def is_isomorphic_small(a, b):
    """Exact isomorphism test by permutation search; meant for n <= 8."""
    if a.n != b.n:
        return False
    if a.n > 8:
        raise ValueError("is_isomorphic_small is limited to n <= 8")
    if (a.num_node_categories != b.num_node_categories
            or a.num_edge_categories != b.num_edge_categories):
        return False
    # cheap invariants first
    da = np.sort(a.adjacency().sum(axis=1))
    db = np.sort(b.adjacency().sum(axis=1))
    if not np.array_equal(da, db):
        return False
    if not np.array_equal(np.sort(a.node_categories), np.sort(b.node_categories)):
        return False
    for perm in itertools.permutations(range(a.n)):
        p = np.array(perm)
        if (np.array_equal(b.node_categories, a.node_categories[p])
                and np.array_equal(b.edge_categories, a.edge_categories[p][:, p])):
            return True
    return False


def random_adjacency(rng, n, p=0.5):
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i, j] = adj[j, i] = 1
    return adj


def graph_from_adjacency(adj):
    n = adj.shape[0]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if adj[i, j]]
    return new_graph(n, edges)


def distinct_edge_walk_counts(adj, p):
    """(n, n) matrix: number of p-step walks i -> j that never reuse an
    undirected edge. Endpoints may coincide.
    """
    n = adj.shape[0]
    out = np.zeros((n, n), dtype=np.int64)

    def go(start, v, used, depth):
        if depth == p:
            out[start, v] += 1
            return
        for w in range(n):
            if adj[v, w]:
                e = (min(v, w), max(v, w))
                if e not in used:
                    go(start, w, used | {e}, depth + 1)

    for start in range(n):
        go(start, start, frozenset(), 0)
    return out


def simple_cycle_counts(adj):
    """(n, 3) matrix: per node, the number of simple cycles of length
    3, 4, 5 passing through it. Each cycle counted once per node on it.
    """
    n = adj.shape[0]
    out = np.zeros((n, 3), dtype=np.int64)
    for L in (3, 4, 5):
        seen = set()
        for nodes in itertools.combinations(range(n), L):
            for perm in itertools.permutations(nodes[1:]):
                cyc = (nodes[0],) + perm
                if all(adj[cyc[i], cyc[(i + 1) % L]] for i in range(L)):
                    key = frozenset(frozenset((cyc[i], cyc[(i + 1) % L]))
                                    for i in range(L))
                    if key not in seen:
                        seen.add(key)
                        for v in cyc:
                            out[v, L - 3] += 1
    return out


def automorphism_orbits(adj):
    """Node partition under the automorphism group, found by trying all
    permutations. Returns a list of frozensets covering range(n).
    """
    n = adj.shape[0]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in itertools.permutations(range(n)):
        pm = np.array(perm)
        if np.array_equal(adj[np.ix_(pm, pm)], adj):
            for i in range(n):
                ra, rb = find(i), find(perm[i])
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    return [frozenset(g) for g in groups.values()]


def canonical_code(adj):
    """Smallest adjacency bit-code over all relabelings; an isomorphism
    certificate for tiny graphs.
    """
    n = adj.shape[0]
    best = None
    for perm in itertools.permutations(range(n)):
        pm = np.array(perm)
        sub = adj[np.ix_(pm, pm)]
        code = 0
        for i in range(n):
            for j in range(i + 1, n):
                code = (code << 1) | int(sub[i, j])
        if best is None or code < best:
            best = code
    return (n, best)


def orbit_key(adj, v):
    """Label-free identity of node v's orbit inside the graph `adj`:
    the canonical code of the graph plus the sorted orbit that contains
    v after canonical relabeling. Two (graph, node) pairs get the same
    key exactly when the nodes are structurally interchangeable.
    """
    n = adj.shape[0]
    best = None
    for perm in itertools.permutations(range(n)):
        pm = np.array(perm)
        sub = adj[np.ix_(pm, pm)]
        code = 0
        for i in range(n):
            for j in range(i + 1, n):
                code = (code << 1) | int(sub[i, j])
        if best is None or code < best[0]:
            best = (code, pm)
    code, pm = best
    # position of v in the canonical labeling
    pos = int(np.where(pm == v)[0][0])
    canon = adj[np.ix_(pm, pm)]
    for orbit in automorphism_orbits(canon):
        if pos in orbit:
            return (n, code, tuple(sorted(orbit)))
    raise AssertionError("orbit partition must cover every node")


def node_orbit_participation(adj):
    """For each node, a dict orbit_key -> number of connected induced
    subgraphs of size 2..4 in which the node sits on that orbit.
    """
    n = adj.shape[0]
    out = [dict() for _ in range(n)]
    for size in (2, 3, 4):
        for nodes in itertools.combinations(range(n), size):
            sub = adj[np.ix_(nodes, nodes)]
            if not _connected(sub):
                continue
            for local, v in enumerate(nodes):
                key = orbit_key(sub, local)
                out[v][key] = out[v].get(key, 0) + 1
    return out


def node_orbit_counts(g):
    """(n,) int64 per-node orbit totals of one graph: the number of
    connected induced subgraphs on 2 to 4 nodes that contain each node."""
    tables = evaluation.graphlet_orbit_tables()
    A = g.adjacency().astype(bool).ravel()
    n = g.n
    totals = np.zeros(n, dtype=np.int64)
    for s in (2, 3, 4):
        if n < s:
            continue
        combos, flat = evaluation._subsets(n, s)
        codes = (1 << np.arange(len(flat))) @ A[flat]
        ok = tables[s][codes]
        totals += np.bincount(combos[ok].ravel(), minlength=n)
    return totals


def clustering_coefficients(g):
    A = g.adjacency()
    deg = A.sum(axis=1)
    tri = np.diagonal(A @ A @ A) // 2
    denom = deg * (deg - 1)
    return np.where(denom > 0, 2.0 * tri / np.maximum(denom, 1), 0.0)


GraphStats = collections.namedtuple("GraphStats", "degree_hist clustering_hist orbit_hist")


def graph_stats(g, clustering_bins=100):
    """One graph's GraphStats: bincount of degrees, np.histogram of the
    clustering coefficients over [0, 1], bincount of orbit totals."""
    A = g.adjacency()
    deg = A.sum(axis=1)
    degree_hist = np.bincount(deg)
    coef = clustering_coefficients(g)
    clustering_hist = np.histogram(coef, bins=clustering_bins, range=(0.0, 1.0))[0]
    orbit_hist = np.bincount(node_orbit_counts(g))
    return GraphStats(degree_hist, clustering_hist, orbit_hist)


def dense_rows(table, full=False):
    """The rows of an evaluation.Counts table as dense histograms of its
    counts' dtype: each table.L bins long if full, as np.histogram gives
    them, else ending at its last nonzero bin, as np.bincount does."""
    rows = []
    for o, p in zip(table.offsets[:-1], table.offsets[1:]):
        h = np.zeros(table.L if full else table.bins[p - 1] + 1 if p > o else 0, table.counts.dtype)
        h[table.bins[o:p]] = table.counts[o:p]
        rows.append(h)
    return rows


def dense_stats(stats):
    """One GraphStats of dense histograms per row of evaluation.graph_stats'
    tables, laid out as graph_stats above gives them."""
    return [GraphStats(*rows) for rows in zip(dense_rows(stats.degree),
                                              dense_rows(stats.clustering, full=True),
                                              dense_rows(stats.orbit))]


def _connected(adj):
    n = adj.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in range(n):
            if adj[v, w] and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def connected_graphs_up_to_iso(size):
    """All connected graphs on `size` labeled nodes, one adjacency per
    isomorphism class.
    """
    pairs = list(itertools.combinations(range(size), 2))
    reps = {}
    for bits in range(1 << len(pairs)):
        adj = np.zeros((size, size), dtype=np.int64)
        for b, (i, j) in enumerate(pairs):
            if bits >> b & 1:
                adj[i, j] = adj[j, i] = 1
        if not _connected(adj):
            continue
        reps.setdefault(canonical_code(adj), adj)
    return list(reps.values())


def emd_reference(p, q, bin_width=1.0):
    """Earth mover's distance between two histograms on a shared 1-D
    grid, via scipy's generic transport solver.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.sum() == 0 or q.sum() == 0:
        # degenerate inputs carry no mass to move
        return 0.0
    positions = np.arange(len(p)) * bin_width
    return float(wasserstein_distance(positions, positions, p, q))


def emd_pairs(hists, bin_width=1.0):
    """(N, N) 1-D EMD between every two of the histograms hists, over
    the tables evaluation._emd_tables gives them: the full matrix whose
    kernel values evaluation.mmd sums block by block without building
    it. A pair no table holds stays NaN."""
    D = np.full((len(hists), len(hists)), np.nan)
    for ra, Fa, rb, Fb, weights, scale in evaluation._emd_tables(list(hists)):
        e = np.tensordot(weights, np.abs(Fa[:, :, None] - Fb[:, None]), 1)
        e = e.astype(np.float64) * (scale * bin_width)
        D[np.ix_(ra, rb)] = e
        D[np.ix_(rb, ra)] = e.T
    return D


def mmd_double_sum(hists_a, hists_b, sigma=1.0, bin_width=1.0):
    """Biased squared MMD with the Gaussian-EMD kernel, written as the
    plain O(n^2) double sum over normalized histograms padded to a
    shared support.
    """
    L = max(len(h) for h in list(hists_a) + list(hists_b))

    def normalize(h):
        h = np.asarray(h, dtype=np.float64)
        out = np.zeros(L)
        out[:len(h)] = h
        s = out.sum()
        return out / s if s > 0 else out

    def kernel(x, y):
        d = emd_reference(normalize(x), normalize(y), bin_width)
        return np.exp(-d * d / (2.0 * sigma * sigma))

    na, nb = len(hists_a), len(hists_b)
    kaa = sum(kernel(x, y) for x in hists_a for y in hists_a) / (na * na)
    kbb = sum(kernel(x, y) for x in hists_b for y in hists_b) / (nb * nb)
    kab = sum(kernel(x, y) for x in hists_a for y in hists_b) / (na * nb)
    return kaa + kbb - 2.0 * kab


def grad_check(f, inputs, eps=1e-5):
    """Max relative error between backprop and central differences.

    `f` maps the Tensor list to a scalar Tensor. Relative error per
    coordinate is |analytic - fd| / max(|analytic|, |fd|, floor) with
    floor = eps * (1 + |f|): below it a central difference is rounding
    noise of f itself, so coordinates whose true gradient is exactly
    zero would otherwise register spurious errors.
    Non-finite values raise with the offending input and coordinate.
    """
    for t in inputs:
        t.grad = None
    out = f(inputs)
    out.backward()
    floor = eps * (1.0 + abs(float(out.data)))
    analytic = []
    for t in inputs:
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        analytic.append(g.copy())

    worst = 0.0
    for ti, t in enumerate(inputs):
        flat = t.data.reshape(-1)
        for ci in range(flat.size):
            orig = flat[ci]
            flat[ci] = orig + eps
            hi = float(f(inputs).data)
            flat[ci] = orig - eps
            lo = float(f(inputs).data)
            flat[ci] = orig
            fd = (hi - lo) / (2.0 * eps)
            an = analytic[ti].reshape(-1)[ci]
            if not (np.isfinite(fd) and np.isfinite(an)):
                raise FloatingPointError(
                    f"non-finite gradient at input {ti} coord {ci}: analytic={an} fd={fd}")
            rel = abs(an - fd) / max(abs(an), abs(fd), floor)
            worst = max(worst, rel)
    return worst


def matmul(a, b):
    """Matrix product. 2-D or batched with identical leading dims."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ad.ShapeError("matmul needs >=2-D operands")
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ad.ShapeError(f"matmul leading dims must match exactly: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ad.ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b._accumulate(np.swapaxes(a.data, -1, -2) @ g)

    return ad._node(out_data, (a, b), bw)


def concat(tensors, axis):
    tensors = [ad._as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return ad._node(out_data, tuple(tensors), bw)


def reshape(a, shape):
    a = ad._as_tensor(a)
    out_data = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return ad._node(out_data, (a,), bw)


def _concat_pair_mlp(mlp, x, e):
    """mlp([x_i, x_j, e_ij]) for every node pair, (B*n*n, out) rows, in
    the unfactorised form: x_i and x_j are gathered by one-hot selection
    matrices and concatenated with e into one 3h-wide input.

    x: Tensor (B, n, h); e: Tensor (B, n, n, h).
    """
    B, n, h = x.shape
    rows = np.arange(B * n).reshape(B, n)
    eye = np.eye(B * n)
    xf = reshape(x, (B * n, h))
    xi = matmul(Tensor(eye[np.repeat(rows.reshape(-1), n)]), xf)
    xj = matmul(Tensor(eye[np.repeat(rows, n, axis=0).reshape(-1)]), xf)
    return mlp(concat([xi, xj, reshape(e, (B * n * n, h))], 1))


def _live_batchnorm(x, live, state, train):
    """Batchnorm of the rows x (K, h) that the bool mask live (K,)
    marks, with statistics over those rows only: one-hot selection
    matmuls gather them and scatter the result back, zeros elsewhere."""
    pick = np.eye(len(live))[live]
    return matmul(Tensor(pick.T), batchnorm(matmul(Tensor(pick), x), state, train))


def _dense_mpnn_rounds(x, e, layers, neigh, node_mask, train):
    """The message-passing rounds over every node pair of a padded
    batch: dead pairs are computed, their messages zeroed, and both
    batchnorms take their statistics over live rows only.

    x: Tensor (B, n, h); e: Tensor (B, n, n, h); neigh (B, n, n) and
    node_mask (B, n) bool.
    """
    B, n, h = x.shape
    neigh_f = Tensor(np.repeat(neigh.reshape(-1, 1), h, axis=1).astype(np.float64))
    summing = Tensor(np.repeat(np.eye(B * n), n, axis=1))  # node row <- its n pair rows
    for layer in layers:
        e_new = _live_batchnorm(_concat_pair_mlp(layer.f_edge, x, e), neigh.reshape(-1),
                                layer.bn_e, train)
        e = reshape(e_new, (B, n, n, h))
        m = ad.mul(_concat_pair_mlp(layer.f_node, x, e), neigh_f)
        x_new = reshape(x, (B * n, h)) + matmul(summing, m)
        x = reshape(_live_batchnorm(x_new, node_mask.reshape(-1), layer.bn_x, train),
                    (B, n, h))
    return x, e


def _slots(node_mask):
    """(N, B*n) one-hot matrix: node row r -> its padded slot b*n + i."""
    return np.eye(node_mask.size)[node_mask.reshape(-1)]


def dense_encode(batch, enc, train):
    """codec.encode over all B*n*n pair rows of the padded batch:
    (N, d_latent) rows of the live nodes."""
    mask = batch.node_mask
    B, n = mask.shape
    h = enc.out.w.shape[0]
    slots = _slots(mask)
    # the neighborhood pairs and their features at their slots (b, i, j)
    slot = np.flatnonzero(mask)
    flat = slot[batch.neighborhood.i] * n + slot[batch.neighborhood.j] % n
    neigh = np.zeros(B * n * n, dtype=bool)
    neigh[flat] = True
    edge_feats = np.zeros((B * n * n, batch.edge_feats.shape[1]))
    edge_feats[flat] = batch.edge_feats
    x = matmul(Tensor(slots.T), enc.node_in(Tensor(batch.node_feats)))
    e = enc.edge_in(Tensor(edge_feats))
    x, _ = _dense_mpnn_rounds(reshape(x, (B, n, h)), reshape(e, (B, n, n, h)),
                              enc.layers, neigh.reshape(B, n, n), mask, train)
    return matmul(Tensor(slots), enc.out(reshape(x, (B * n, h))))


def dense_decode(z, node_mask, dec, train):
    """codec.decode over all B*n*n pair rows of the padded batch, from
    an all-zero edge state: node logits of the live nodes and edge
    logits of the valid pairs i != j, row-major.
    """
    B, n = node_mask.shape
    h = dec.in_proj.w.shape[1]
    slots = _slots(node_mask)
    live = node_mask[:, :, None] & node_mask[:, None, :] & ~np.eye(n, dtype=bool)
    x = matmul(Tensor(slots.T), dec.in_proj(z))
    x, e = _dense_mpnn_rounds(reshape(x, (B, n, h)), Tensor(np.zeros((B, n, n, h))),
                              dec.layers, live, node_mask, train)
    node_logits = matmul(Tensor(slots), dec.node_out(reshape(x, (B * n, h))))
    el = dec.edge_out(reshape(e, (B * n * n, h)))
    # row (b, i, j) of the mirror is row (b, j, i) of el
    mirror = np.arange(B * n * n).reshape(B, n, n).transpose(0, 2, 1).reshape(-1)
    el = ad.mul(el + ad.permute_rows(el, mirror), 0.5)
    return node_logits, matmul(Tensor(np.eye(B * n * n)[live.reshape(-1)]), el)


def softmax(a, axis=-1):
    """The taped softmax along axis, which the model itself no longer
    records: ad._softmax forward, ad._softmax_grad backward."""
    a = ad._as_tensor(a)
    out_data = ad._softmax(a.data, axis)

    def bw(g):
        if a.requires_grad:
            a._accumulate(ad._softmax_grad(out_data, g, axis))

    return ad._node(out_data, (a,), bw)



def attention_chain(q, k_t, v, allowed):
    """ad.causal_attention as the chain of taped ops it replaced, in
    head-major layout: q (B, H, R, d), k_t (B, H, d, S), v (B, H, S, d)
    and a bool mask `allowed` that broadcasts to (B, H, R, S). Returns
    (B, H, R, d).
    """
    scores = ad.mul(matmul(q, k_t), 1.0 / np.sqrt(q.shape[-1]))
    allowed = np.broadcast_to(allowed, scores.shape)
    probs = softmax(ad.masked_fill(scores, ~allowed, ad.MASK_VALUE), axis=-1)
    # a fully masked row softmaxes to uniform; its output is zeros
    live = np.broadcast_to(allowed.any(axis=-1, keepdims=True), scores.shape)
    return matmul(ad.mul(probs, Tensor(live.astype(np.float64))), v)


def pair_matrix(rows, n):
    """(n, n, S) from the pair rows (n(n-1), S) of one graph, listed
    row-major over the ordered pairs i != j; the diagonal is 0."""
    out = np.zeros((n, n, rows.shape[1]), dtype=rows.dtype)
    out[~np.eye(n, dtype=bool)] = rows
    return out


def encode_graph(ag, enc, train=False):
    """The package encoder on one augmented graph: (n, d_latent) numpy
    embedding."""
    return codec.encode(codec.prepare_batch([ag]), enc, train).data


def load_bench_inputs():
    """dgaebench/inputs.py as a module, executed from its source so that
    importing it writes nothing next to it."""
    path = Path(__file__).resolve().parents[1] / "dgaebench" / "inputs.py"
    mod = types.ModuleType("dgaebench_inputs")
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


def ema_update_per_partition(state, z, indices, decay, eps):
    """One EMA codebook step, one partition at a time. state maps
    codebooks (C, m, d), ema_counts (C, m) and ema_sums (C, m, d) to
    arrays; returns the next state as new arrays."""
    books, counts_all, sums_all = (state[k].copy()
                                   for k in ("codebooks", "ema_counts", "ema_sums"))
    C, m, d = books.shape
    z_parts = np.asarray(z).reshape(-1, C, d)
    indices = np.asarray(indices).reshape(-1, C)
    for c in range(C):
        counts = np.bincount(indices[:, c], minlength=m).astype(np.float64)
        sums = np.zeros((m, d))
        np.add.at(sums, indices[:, c], z_parts[:, c, :])
        counts_all[c] = decay * counts_all[c] + (1.0 - decay) * counts
        sums_all[c] = decay * sums_all[c] + (1.0 - decay) * sums
        books[c] = sums_all[c] / np.maximum(counts_all[c], eps)[:, None]
    return {"codebooks": books, "ema_counts": counts_all, "ema_sums": sums_all}


def perplexity_from_histogram(indices, M):
    """exp(entropy) / M of the index tuples' usage, counted in a dict."""
    hist = {}
    for row in np.asarray(indices):
        key = tuple(int(x) for x in row)
        hist[key] = hist.get(key, 0) + 1
    total = float(sum(hist.values()))
    h = 0.0
    for count in hist.values():
        p = count / total
        h -= p * np.log(p)
    return float(np.exp(h)) / M
