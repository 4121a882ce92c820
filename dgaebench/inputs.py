"""Benchmark inputs, made here rather than by the program under test.

The community-small generator follows the published recipe (two equal
communities of 6 to 10 nodes, intra-community edges with p=0.7, cross
edges with p=0.03, at least one cross edge) and writes the program's
JSONL dataset format (version 1) directly, so a change to the
program's own generator or writer cannot change the benchmark inputs
or invalidate the recorded references.
"""

import hashlib
import json

import numpy as np

INPUT_SEEDS = 16  # references are recorded for input seeds 0..15


def input_seed(seed):
    """Workload seed -> recorded input seed. Any --seed maps to one of
    the INPUT_SEEDS input sets that reference.json has answers for."""
    return seed % INPUT_SEEDS


def community_small(count, rng):
    """`count` graphs as (n, sorted edge list) pairs."""
    graphs = []
    for _ in range(count):
        n = int(rng.choice(np.arange(12, 21, 2)))
        half = n // 2
        edges = []
        crossing = False
        for i in range(n):
            for j in range(i + 1, n):
                same = (i < half) == (j < half)
                if rng.random() < (0.7 if same else 0.03):
                    edges.append((i, j))
                    crossing |= not same
        if not crossing:
            edges.append((int(rng.integers(0, half)), int(rng.integers(half, n))))
        graphs.append((n, sorted(edges)))
    return graphs


def write_dataset(path, graphs):
    """JSONL dataset, format version 1: header, then one graph a line."""
    with open(path, "w") as f:
        f.write(json.dumps({"R": 1, "S": 2, "directed": False}) + "\n")
        for n, edges in graphs:
            rec = {"n": n, "nodes": [0] * n, "edges": [[i, j, 1] for i, j in edges]}
            f.write(json.dumps(rec) + "\n")


def make_dataset(path, count, seed, stream):
    """Seeded community-small dataset; (seed, stream) picks the draw."""
    write_dataset(path, community_small(count, np.random.default_rng((seed, stream))))


def graph_hashes(path):
    """One 8-hex-digit digest per graph of a JSONL dataset, computed
    from its canonical content (n, node categories, undirected edge
    set with categories), not from the file's formatting."""
    out = []
    with open(path) as f:
        f.readline()
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            edges = sorted((min(i, j), max(i, j), c) for i, j, c in rec["edges"])
            key = f"{rec['n']}|{rec['nodes']}|{edges}"
            out.append(hashlib.sha256(key.encode()).hexdigest()[:8])
    return out


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
