"""Attributed graphs, synthetic generators, and JSONL datasets.

A graph is what a dataset record holds: one category per node and an
(n, n) matrix of edge categories, with category 0 reserved for "no
edge". The matrix is symmetric with a zero diagonal: edges have no
direction and there are no self loops. One-hot codes of the categories
exist only as encoder input features (features.augment).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class Graph:
    node_categories: np.ndarray  # (n,) int64 in [0, R)
    edge_categories: np.ndarray  # (n, n) int64 in [0, S), 0 = no edge
    num_node_categories: int     # R
    num_edge_categories: int     # S

    @property
    def n(self):
        return len(self.node_categories)

    def adjacency(self):
        """0/1 int64 matrix: any edge category other than 0."""
        return (self.edge_categories != 0).astype(np.int64)

    def validate(self):
        """Raise ValueError unless the fields have the shapes above, hold
        integer categories in range, and the edge matrix is symmetric with
        a zero diagonal."""
        V, E = self.node_categories, self.edge_categories
        R, S = self.num_node_categories, self.num_edge_categories
        if V.ndim != 1 or E.shape != (len(V), len(V)):
            raise ValueError("edge_categories must be (n, n) for n node categories")
        if R < 1 or S < 2:
            raise ValueError(f"need R >= 1 and S >= 2 categories, got R={R}, S={S}")
        for name, arr, k in (("node", V, R), ("edge", E, S)):
            if arr.dtype.kind not in "iu":
                raise ValueError(f"{name} categories must be integers")
            if arr.size and (arr.min() < 0 or arr.max() >= k):
                raise ValueError(f"{name} categories must lie in [0, {k})")
        if np.any(np.diagonal(E)):
            raise ValueError("diagonal must be category 0 (no self loops)")
        if not np.array_equal(E, E.T):
            raise ValueError("edge categories must be symmetric")


def _int_array(values, what):
    a = np.asarray(values)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers")
    return a.astype(np.int64)


def new_graph(n, edges=(), node_categories=None, num_node_categories=None,
              num_edge_categories=2):
    """Build a validated graph from an edge list.

    edges: iterable of (i, j) or (i, j, category); category defaults
    to 1. Duplicate listings of a pair must agree on category.
    """
    if n < 1:
        raise ValueError("graph needs at least one node")
    V = _int_array([0] * n if node_categories is None else node_categories, "node categories")
    if V.shape != (n,):
        raise ValueError(f"expected {n} node categories, got {V.size}")
    R = int(V.max()) + 1 if num_node_categories is None else num_node_categories
    S = num_edge_categories
    triples = _int_array([e if len(e) == 3 else (*e, 1) for e in edges] or np.zeros((0, 3)),
                         "edges")
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ValueError("edges must be (i, j) or (i, j, category)")
    i, j, c = triples.T
    bad = np.flatnonzero((i < 0) | (i >= n) | (j < 0) | (j >= n) | (i == j) | (c < 1) | (c >= S))
    if len(bad):
        raise ValueError(f"edge {triples[bad[0]].tolist()} needs 0 <= i != j < {n} "
                         f"and 1 <= category < {S}")
    E = np.zeros((n, n), dtype=np.int64)
    E[i, j] = c
    E[j, i] = c
    if np.any(E[i, j] != c):  # a pair listed twice with two categories
        raise ValueError("conflicting categories for one edge")
    g = Graph(V, E, R, S)
    g.validate()
    return g


def permute(g: Graph, perm) -> Graph:
    """Relabel nodes: new index i takes old node perm[i]."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(g.n)):
        raise ValueError("perm must be a bijection on range(n)")
    return Graph(g.node_categories[perm], g.edge_categories[np.ix_(perm, perm)],
                 g.num_node_categories, g.num_edge_categories)


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


def build_dataset(spec: DatasetSpec):
    """Generate spec.count graphs; identical spec yields identical data."""
    if spec.generator not in _GENERATORS:
        raise ValueError(f"unknown generator {spec.generator!r}; "
                         f"known: {sorted(_GENERATORS)}")
    gen = _GENERATORS[spec.generator]
    rng = np.random.default_rng(spec.seed)
    return [gen(rng) for _ in range(spec.count)]


def save_dataset(path, graphs, R=None, S=None):
    """Write graphs as JSONL: one header line, then one record per graph
    listing each edge once, as [i, j, category] with i < j."""
    if graphs:
        R = graphs[0].num_node_categories if R is None else R
        S = graphs[0].num_edge_categories if S is None else S
    else:
        R = 1 if R is None else R
        S = 2 if S is None else S
    with open(path, "w") as f:
        # the format keeps its "directed" key; false is the only value read back
        f.write(json.dumps({"R": R, "S": S, "directed": False}) + "\n")
        for g in graphs:
            if (g.num_node_categories, g.num_edge_categories) != (R, S):
                raise ValueError("graph category counts disagree with dataset header")
            E = g.edge_categories
            i, j = np.nonzero(np.triu(E, 1))
            rec = {"n": g.n, "nodes": g.node_categories.tolist(),
                   "edges": np.stack([i, j, E[i, j]], axis=1).tolist()}
            f.write(json.dumps(rec) + "\n")


def load_dataset(path):
    """Read a JSONL dataset; exact inverse of save_dataset."""
    graphs = []
    try:
        with open(path, encoding="utf-8") as f:
            header_line = f.readline()
            if not header_line.strip():
                # zero-length file reads back as the empty dataset
                return [], {"R": 1, "S": 2}
            try:
                header = json.loads(header_line)
                R, S = header["R"], header["S"]
                for key, low in (("R", 1), ("S", 2)):
                    if type(header[key]) is not int or header[key] < low:
                        raise ValueError(f"{key} must be an integer >= {low}, got {header[key]!r}")
                if header["directed"] is not False:
                    raise ValueError('only "directed": false is supported')
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{path}: bad dataset header: {e}") from e
            for ln, line in enumerate(f, start=2):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    g = new_graph(rec["n"], rec["edges"], node_categories=rec["nodes"],
                                  num_node_categories=R, num_edge_categories=S)
                except (KeyError, TypeError, ValueError) as e:
                    raise ValueError(f"{path}:{ln}: bad graph record: {e}") from e
                graphs.append(g)
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text") from e
    return graphs, {"R": R, "S": S}
