"""Brute-force reference implementations used to validate the library.

Everything here is deliberately slow and simple: exhaustive enumeration
or explicit double loops, no shared code with src/. Closed-form results
in the package are checked against these.
"""

import itertools

import numpy as np
from scipy.stats import wasserstein_distance

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
