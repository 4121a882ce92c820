"""Dense attributed graphs, synthetic generators, and JSONL datasets.

Graphs are stored densely: one-hot node categories (n, R) and one-hot
edge categories (n, n, S) with category 0 reserved for "no edge". The
dense layout caps out around n=64, which is the operating range here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Graph:
    node_attrs: np.ndarray  # (n, R) one-hot float64
    edge_attrs: np.ndarray  # (n, n, S) one-hot float64, channel 0 = no edge
    directed: bool = False

    @property
    def n(self):
        return self.node_attrs.shape[0]

    @property
    def num_node_categories(self):
        return self.node_attrs.shape[1]

    @property
    def num_edge_categories(self):
        return self.edge_attrs.shape[2]

    def adjacency(self):
        """0/1 matrix: any edge category other than 0, zero diagonal."""
        a = 1 - self.edge_attrs[:, :, 0]
        return np.round(a).astype(np.int64)

    def node_categories(self):
        return self.node_attrs.argmax(axis=1)

    def edge_categories(self):
        return self.edge_attrs.argmax(axis=2)

    def validate(self):
        n = self.n
        if self.edge_attrs.shape[:2] != (n, n):
            raise ValueError("edge_attrs must be (n, n, S)")
        for name, arr in (("node_attrs", self.node_attrs), ("edge_attrs", self.edge_attrs)):
            if not np.all((arr == 0) | (arr == 1)):
                raise ValueError(f"{name} must be exactly one-hot")
            if not np.all(arr.sum(axis=-1) == 1):
                raise ValueError(f"{name} rows must sum to 1")
        if not np.all(self.edge_attrs[np.arange(n), np.arange(n), 0] == 1):
            raise ValueError("diagonal must be category 0 (no self loops)")
        if not self.directed:
            if not np.array_equal(self.edge_attrs, self.edge_attrs.transpose(1, 0, 2)):
                raise ValueError("undirected graph has asymmetric edge_attrs")


def new_graph(n, edges=(), node_categories=None, num_node_categories=None,
              num_edge_categories=2, directed=False):
    """Build a validated graph from an edge list.

    edges: iterable of (i, j) or (i, j, category); category defaults
    to 1. Duplicate listings of a pair must agree on category.
    """
    if n < 1:
        raise ValueError("graph needs at least one node")
    if node_categories is None:
        node_categories = [0] * n
    node_categories = list(node_categories)
    if len(node_categories) != n:
        raise ValueError(f"expected {n} node categories, got {len(node_categories)}")
    R = num_node_categories if num_node_categories is not None else max(node_categories) + 1
    S = num_edge_categories
    if S < 2:
        raise ValueError("need at least 2 edge categories (category 0 is 'no edge')")

    node_attrs = np.zeros((n, R))
    for i, c in enumerate(node_categories):
        if not 0 <= c < R:
            raise ValueError(f"node {i} category {c} out of range [0, {R})")
        node_attrs[i, c] = 1.0

    cat = np.zeros((n, n), dtype=np.int64)
    for e in edges:
        if len(e) == 2:
            i, j, c = e[0], e[1], 1
        else:
            i, j, c = e
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) index out of range for n={n}")
        if i == j:
            raise ValueError(f"self loop at node {i} not allowed")
        if not 1 <= c < S:
            raise ValueError(f"edge ({i}, {j}) category {c} out of range [1, {S})")
        pairs = [(i, j)] if directed else [(i, j), (j, i)]
        for (p, q) in pairs:
            if cat[p, q] != 0 and cat[p, q] != c:
                raise ValueError(f"conflicting categories for edge ({p}, {q})")
            cat[p, q] = c

    edge_attrs = np.zeros((n, n, S))
    rows, cols = np.indices((n, n))
    edge_attrs[rows, cols, cat] = 1.0
    g = Graph(node_attrs, edge_attrs, directed)
    g.validate()
    return g


def permute(g: Graph, perm) -> Graph:
    """Relabel nodes: new index i takes old node perm[i]."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(g.n)):
        raise ValueError("perm must be a bijection on range(n)")
    return Graph(g.node_attrs[perm], g.edge_attrs[perm][:, perm], g.directed)


def gen_community_small(rng) -> Graph:
    """Two dense communities with sparse cross links.

    n is uniform over {12, 14, 16, 18, 20}, split into equal halves.
    Pairs inside a community are edges with p=0.7, pairs across with
    p=0.03. If no cross edge was drawn, one uniformly chosen crossing
    pair is added so the graph has at least one inter-community edge.
    """
    n = int(rng.choice(np.arange(12, 21, 2)))
    half = n // 2
    edges = []
    inter = []
    for i in range(n):
        for j in range(i + 1, n):
            same = (i < half) == (j < half)
            p = 0.7 if same else 0.03
            if rng.random() < p:
                edges.append((i, j))
                if not same:
                    inter.append((i, j))
    if not inter:
        i = int(rng.integers(0, half))
        j = int(rng.integers(half, n))
        edges.append((i, j))
    return new_graph(n, edges)


_GENERATORS = {"community-small": gen_community_small}


@dataclass
class DatasetSpec:
    generator: str
    count: int
    seed: int
    params: dict = field(default_factory=dict)


def build_dataset(spec: DatasetSpec):
    """Generate spec.count graphs; identical spec yields identical data."""
    if spec.generator not in _GENERATORS:
        raise ValueError(f"unknown generator {spec.generator!r}; "
                         f"known: {sorted(_GENERATORS)}")
    gen = _GENERATORS[spec.generator]
    rng = np.random.default_rng(spec.seed)
    return [gen(rng, **spec.params) for _ in range(spec.count)]


def save_dataset(path, graphs, R=None, S=None, directed=False):
    """Write graphs as JSONL: one header line, then one record per graph."""
    if graphs:
        R = graphs[0].num_node_categories if R is None else R
        S = graphs[0].num_edge_categories if S is None else S
    else:
        R = 1 if R is None else R
        S = 2 if S is None else S
    with open(path, "w") as f:
        f.write(json.dumps({"R": R, "S": S, "directed": directed}) + "\n")
        for g in graphs:
            if (g.num_node_categories, g.num_edge_categories, g.directed) != (R, S, directed):
                raise ValueError("graph category counts disagree with dataset header")
            cats = g.edge_categories()
            edges = []
            for i in range(g.n):
                lo = 0 if directed else i + 1
                for j in range(lo, g.n):
                    if i != j and cats[i, j] != 0:
                        edges.append([i, j, int(cats[i, j])])
            rec = {"n": g.n, "nodes": [int(c) for c in g.node_categories()], "edges": edges}
            f.write(json.dumps(rec) + "\n")


def load_dataset(path):
    """Read a JSONL dataset; exact inverse of save_dataset."""
    graphs = []
    with open(path) as f:
        header_line = f.readline()
        if not header_line.strip():
            # zero-length file reads back as the empty dataset
            return [], {"R": 1, "S": 2, "directed": False}
        try:
            header = json.loads(header_line)
            R, S, directed = header["R"], header["S"], header["directed"]
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise ValueError(f"{path}: bad dataset header: {e}") from e
        for ln, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                g = new_graph(rec["n"], [tuple(e) for e in rec["edges"]],
                              node_categories=rec["nodes"],
                              num_node_categories=R, num_edge_categories=S,
                              directed=directed)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{path}:{ln}: bad graph record: {e}") from e
            graphs.append(g)
    return graphs, {"R": R, "S": S, "directed": directed}
