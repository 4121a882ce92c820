"""Brute-force reference implementations used to validate the library.

Everything here is deliberately slow and simple: exhaustive enumeration,
explicit double loops or dense forms, and no code shared with src/
beyond the autodiff primitives and the model's parameter objects.
Closed-form results in the package are checked against these. Two
helpers, grad_check and encode_graph, are not references: they drive
the package's own code for the tests.
"""

import itertools

import numpy as np
from scipy.stats import wasserstein_distance

from dgae import autodiff as ad
from dgae import codec
from dgae.autodiff import Tensor, batchnorm
from dgae.graphs import new_graph


def graphs_equal(a, b):
    return (a.directed == b.directed
            and np.array_equal(a.node_attrs, b.node_attrs)
            and np.array_equal(a.edge_attrs, b.edge_attrs))


def is_isomorphic_small(a, b):
    """Exact isomorphism test by permutation search; meant for n <= 8."""
    if a.n != b.n:
        return False
    if a.n > 8:
        raise ValueError("is_isomorphic_small is limited to n <= 8")
    if (a.num_node_categories != b.num_node_categories
            or a.num_edge_categories != b.num_edge_categories
            or a.directed != b.directed):
        return False
    # cheap invariants first
    da = np.sort(a.adjacency().sum(axis=1))
    db = np.sort(b.adjacency().sum(axis=1))
    if not np.array_equal(da, db):
        return False
    if not np.array_equal(np.sort(a.node_categories()), np.sort(b.node_categories())):
        return False
    for perm in itertools.permutations(range(a.n)):
        p = np.array(perm)
        if (np.array_equal(b.node_attrs, a.node_attrs[p])
                and np.array_equal(b.edge_attrs, a.edge_attrs[p][:, p])):
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


def _concat_pair_mlp(mlp, x, e):
    """mlp([x_i, x_j, e_ij]) for every node pair, (B*n*n, out) rows, in
    the unfactorised form: x_i and x_j are gathered by one-hot selection
    matrices and concatenated with e into one 3h-wide input.

    x: Tensor (B, n, h); e: Tensor (B, n, n, h).
    """
    B, n, h = x.shape
    rows = np.arange(B * n).reshape(B, n)
    eye = np.eye(B * n)
    xf = ad.reshape(x, (B * n, h))
    xi = ad.matmul(Tensor(eye[np.repeat(rows.reshape(-1), n)]), xf)
    xj = ad.matmul(Tensor(eye[np.repeat(rows, n, axis=0).reshape(-1)]), xf)
    return mlp(ad.concat([xi, xj, ad.reshape(e, (B * n * n, h))], 1))


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
        e_new = batchnorm(_concat_pair_mlp(layer.f_edge, x, e), layer.bn_e, train,
                          mask=neigh.reshape(-1))
        e = ad.reshape(e_new, (B, n, n, h))
        m = ad.mul(_concat_pair_mlp(layer.f_node, x, e), neigh_f)
        x_new = ad.reshape(x, (B * n, h)) + ad.matmul(summing, m)
        x = ad.reshape(batchnorm(x_new, layer.bn_x, train, mask=node_mask.reshape(-1)),
                       (B, n, h))
    return x, e


def dense_encode(batch, enc, train):
    """codec.encode over all B*n*n pair rows: (B, n, d_latent)."""
    B, n, fn = batch.node_feats.shape
    h = enc.state_width
    fe = batch.edge_feats.shape[-1]
    x = ad.reshape(enc.node_in(Tensor(batch.node_feats.reshape(B * n, fn))), (B, n, h))
    e = ad.reshape(enc.edge_in(Tensor(batch.edge_feats.reshape(B * n * n, fe))),
                   (B, n, n, h))
    x, _ = _dense_mpnn_rounds(x, e, enc.layers, batch.neighborhood, batch.node_mask, train)
    return ad.reshape(enc.out(ad.reshape(x, (B * n, h))), (B, n, -1))


def dense_decode(z, node_mask, dec, train):
    """codec.decode over all B*n*n pair rows, from an all-zero edge
    state; edge logits off the valid pairs i != j carry no meaning.
    """
    B, n, d = z.shape
    h = dec.state_width
    live = node_mask[:, :, None] & node_mask[:, None, :] & ~np.eye(n, dtype=bool)
    x = ad.reshape(dec.in_proj(ad.reshape(z, (B * n, d))), (B, n, h))
    x, e = _dense_mpnn_rounds(x, Tensor(np.zeros((B, n, n, h))), dec.layers, live,
                              node_mask, train)
    node_logits = ad.reshape(dec.node_out(ad.reshape(x, (B * n, h))), (B, n, -1))
    el = ad.reshape(dec.edge_out(ad.reshape(e, (B * n * n, h))), (B, n, n, -1))
    return node_logits, ad.mul(el + ad.transpose(el, (0, 2, 1, 3)), 0.5)


def encode_graph(ag, enc, train=False):
    """The package encoder on one augmented graph: (n, d_latent) numpy
    embedding."""
    batch = codec.prepare_batch([ag])
    return codec.encode(batch, enc, train).data[0, :ag.n]
