import re

import numpy as np
import pytest

import oracles
from dgae.graphs import (DatasetSpec, build_dataset, gen_community_small,
                         load_dataset, new_graph, permute, save_dataset)
from oracles import graphs_equal, is_isomorphic_small, load_bench_inputs


def triangle():
    return new_graph(3, [(0, 1), (1, 2), (0, 2)])


def test_triangle_construction():
    g = triangle()
    adj = g.adjacency()
    assert np.array_equal(adj.sum(axis=1), [2, 2, 2])
    assert np.array_equal(adj, adj.T)
    g.validate()


def test_empty_graph_adjacency():
    g = new_graph(2)
    assert np.array_equal(g.adjacency(), np.zeros((2, 2)))
    # "no edge" is category 0 everywhere, the diagonal included
    assert np.array_equal(g.edge_categories, np.zeros((2, 2)))


def test_edge_category_symmetric():
    g = new_graph(2, [(0, 1, 2)], num_edge_categories=3)
    assert g.edge_categories[0, 1] == 2
    assert g.edge_categories[1, 0] == 2


def test_new_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        new_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        new_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        new_graph(3, [(0, 1, 1), (1, 0, 0)], num_edge_categories=2)
    with pytest.raises(ValueError):
        new_graph(2, [(0, 1, 5)], num_edge_categories=2)


def test_new_graph_tolerates_identical_duplicates():
    g = new_graph(3, [(0, 1), (1, 0)])
    assert g.adjacency()[0, 1] == 1


def test_permute_identity_and_inverse():
    g = new_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert graphs_equal(permute(g, [0, 1, 2, 3]), g)
    perm = np.array([2, 0, 3, 1])
    inv = np.argsort(perm)
    assert graphs_equal(permute(permute(g, perm), inv), g)


def test_permute_triangle_fixed_point():
    g = triangle()
    for perm in ([1, 2, 0], [2, 1, 0], [0, 2, 1]):
        assert graphs_equal(permute(g, perm), g)


def test_permute_path_swap_ends():
    g = new_graph(3, [(0, 1), (1, 2)])
    h = permute(g, [2, 1, 0])
    assert np.array_equal(np.sort(h.adjacency().sum(axis=1)), [1, 1, 2])
    assert h.adjacency()[1, 2] == 1 and h.adjacency()[0, 1] == 1
    assert h.adjacency()[0, 2] == 0


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError):
        permute(triangle(), [0, 0, 1])


def test_community_small_contract():
    sizes = set()
    for seed in range(300):
        g = gen_community_small(np.random.default_rng(seed))
        sizes.add(g.n)
        half = g.n // 2
        adj = g.adjacency()
        assert adj[:half, half:].sum() >= 1, "no edge crosses the community cut"
    assert sizes == {12, 14, 16, 18, 20}


def test_community_small_intra_density():
    total_pairs = 0
    total_edges = 0
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        g = gen_community_small(rng)
        half = g.n // 2
        adj = g.adjacency()
        for blk in (adj[:half, :half], adj[half:, half:]):
            total_edges += blk.sum() / 2
            total_pairs += half * (half - 1) / 2
    density = total_edges / total_pairs
    assert abs(density - 0.7) < 0.02


def test_build_dataset_deterministic():
    spec = DatasetSpec(generator="community-small", count=10, seed=5)
    a = build_dataset(spec)
    b = build_dataset(spec)
    assert len(a) == 10
    assert all(graphs_equal(x, y) for x, y in zip(a, b))


def test_dataset_roundtrip(tmp_path):
    graphs = [new_graph(3, [(0, 1), (1, 2), (0, 2)], num_edge_categories=3),
              new_graph(4, [(0, 1), (2, 3)], num_edge_categories=3),
              new_graph(2, [(0, 1, 2)], num_edge_categories=3)]
    path = tmp_path / "d.jsonl"
    save_dataset(path, graphs, R=1, S=3)
    back, header = load_dataset(path)
    assert header == {"R": 1, "S": 3}
    assert len(back) == 3
    for g, h in zip(graphs, back):
        assert g.n == h.n
        assert np.array_equal(g.adjacency(), h.adjacency())
    # the triangle record round-trips bit-exactly
    assert np.array_equal(graphs[0].node_categories, back[0].node_categories)
    assert np.array_equal(graphs[0].edge_categories == 0,
                          back[0].edge_categories == 0)


def test_dataset_roundtrip_bytes(tmp_path):
    """load_dataset then save_dataset gives back the bytes it read, for a
    file the package wrote and for one from the benchmark's independent
    writer, which pins the edge order and the number formatting."""
    ours, theirs = tmp_path / "a.jsonl", tmp_path / "bench.jsonl"
    save_dataset(ours, build_dataset(DatasetSpec(generator="community-small", count=5, seed=1)))
    load_bench_inputs().make_dataset(theirs, 20, 3, stream=1)
    for path in (ours, theirs):
        again = tmp_path / "again.jsonl"
        save_dataset(again, load_dataset(path)[0])
        assert again.read_bytes() == path.read_bytes(), path.name


def test_load_empty_file(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text("")
    graphs, _ = load_dataset(path)
    assert graphs == []


def test_load_rejects_out_of_range_category(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"R": 1, "S": 2, "directed": false}\n'
                    '{"n": 2, "nodes": [0, 0], "edges": [[0, 1, 7]]}\n')
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert "2" in str(err.value)  # failing line number is reported


def test_load_names_a_file_that_is_not_utf8_past_its_first_block(tmp_path):
    path = tmp_path / "late.jsonl"
    record = b'{"n": 2, "nodes": [0, 0], "edges": [[0, 1, 1]]}\n'
    path.write_bytes(b'{"R": 1, "S": 2, "directed": false}\n' + record * 500 + b"\xff\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: not UTF-8 text")):
        load_dataset(path)


def test_isomorphism_positive_and_negative():
    g = triangle()
    assert is_isomorphic_small(g, permute(g, [2, 0, 1]))
    assert not is_isomorphic_small(g, new_graph(3, [(0, 1), (1, 2)]))


def test_isomorphism_two_triangles_vs_hexagon():
    two_triangles = new_graph(6, [(0, 1), (1, 2), (0, 2),
                                  (3, 4), (4, 5), (3, 5)])
    hexagon = new_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    # same size and degree sequence, different structure
    assert np.array_equal(np.sort(two_triangles.adjacency().sum(1)),
                          np.sort(hexagon.adjacency().sum(1)))
    assert not is_isomorphic_small(two_triangles, hexagon)


def test_isomorphism_agrees_with_networkx():
    import networkx as nx
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        a = oracles.random_adjacency(rng, n)
        b = oracles.random_adjacency(rng, n)
        ga, gb = oracles.graph_from_adjacency(a), oracles.graph_from_adjacency(b)
        want = nx.is_isomorphic(nx.from_numpy_array(a), nx.from_numpy_array(b))
        assert is_isomorphic_small(ga, gb) == want
