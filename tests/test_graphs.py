from random import Random

import pytest

from graphcurves.errors import (
    Disconnected,
    GenerationFailed,
    MalformedPairing,
    NotTrivalent,
    UnknownName,
)
from graphcurves.graphs import (
    CATALOG_NAMES,
    POINT_INF,
    POINT_ONE,
    POINT_ZERO,
    TrivalentGraph,
    canonical_hash,
    catalog_graph,
    graph_from_json,
    graph_to_json,
    random_trivalent,
    spanning_tree,
)


@pytest.mark.parametrize(
    "name, vertices, edges, genus",
    [
        ("theta", 2, 3, 2),
        ("dumbbell", 2, 3, 2),
        ("k4", 4, 6, 3),
        ("k33", 6, 9, 4),
        ("prism", 6, 9, 4),
    ],
)
def test_catalog_counts(name, vertices, edges, genus):
    g = catalog_graph(name)
    assert g.vertex_count == vertices
    assert len(g.edges) == edges
    assert g.genus == genus
    # the two global count identities for trivalent graphs
    assert len(g.edges) == 3 * g.genus - 3
    assert g.vertex_count == 2 * g.genus - 2


def test_catalog_names_sorted():
    assert list(CATALOG_NAMES) == sorted(CATALOG_NAMES)


def test_unknown_catalog_name():
    with pytest.raises(UnknownName):
        catalog_graph("petersen")


def test_theta_structure():
    g = catalog_graph("theta")
    assert g.edges == ((0, 3), (1, 4), (2, 5))
    assert [g.partner(d) for d in range(6)] == [3, 4, 5, 0, 1, 2]
    assert [g.vertex_of(d) for d in range(6)] == [0, 0, 0, 1, 1, 1]
    assert not any(g.is_loop(e) for e in range(3))
    assert g.edge_endpoints(0) == (0, 1)


def test_theta_marked_points():
    # marked point of a dart is decided by its position among the
    # vertex's three darts, so both vertices run 0, 1, inf in order
    g = catalog_graph("theta")
    expected = [POINT_ZERO, POINT_ONE, POINT_INF] * 2
    assert [g.marked_point(d) for d in range(6)] == expected


def test_dumbbell_loops():
    g = catalog_graph("dumbbell")
    assert g.edges == ((0, 1), (2, 5), (3, 4))
    assert g.is_loop(0) and g.is_loop(2)
    assert not g.is_loop(1)
    assert g.edge_endpoints(1) == (0, 1)


def test_pairing_must_be_involution():
    with pytest.raises(MalformedPairing):
        TrivalentGraph(2, ((0, 1), (1, 2), (3, 4)))


def test_pairing_rejects_fixed_dart():
    with pytest.raises(MalformedPairing, match="paired with itself"):
        TrivalentGraph(2, ((0, 0), (1, 2), (3, 4)))


def test_pairing_rejects_out_of_range():
    with pytest.raises(MalformedPairing):
        TrivalentGraph(2, ((0, 6), (1, 2), (3, 4)))


def test_dart_count_must_be_multiple_of_three():
    with pytest.raises((MalformedPairing, NotTrivalent)):
        TrivalentGraph(2, ((0, 1), (2, 3)))


def test_pair_count_checked_before_allocating():
    # 200000 claimed vertices with three pairs: rejected on the pair count,
    # before any 3V-long list is built, with a short message.
    with pytest.raises(MalformedPairing) as info:
        graph_from_json({"vertices": 200000, "pairing": [[0, 1], [2, 3], [4, 5]]})
    assert len(str(info.value)) < 200
    with pytest.raises(MalformedPairing) as info:
        TrivalentGraph(2, ((0, 3), (1, 4), (2, 5)), list(range(200000)))
    assert len(str(info.value)) < 200


def test_vertex_map_must_be_trivalent():
    dart_vertex = (0, 0, 0, 0, 1, 1)  # vertex 0 gets four darts
    with pytest.raises(NotTrivalent):
        TrivalentGraph(2, ((0, 3), (1, 4), (2, 5)), dart_vertex)


def test_disconnected_rejected():
    # two disjoint theta graphs
    pairing = ((0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11))
    with pytest.raises(Disconnected):
        TrivalentGraph(4, pairing)


def test_genus_from_euler_characteristic():
    for name in CATALOG_NAMES:
        g = catalog_graph(name)
        assert g.genus == len(g.edges) - g.vertex_count + 1


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_random_trivalent_counts(n):
    g = random_trivalent(n, seed=17)
    assert g.vertex_count == n
    assert len(g.edges) == 3 * n // 2
    assert g.genus == n // 2 + 1


def test_random_trivalent_deterministic():
    a = random_trivalent(6, seed=5)
    b = random_trivalent(6, seed=5)
    assert a.edges == b.edges
    c = random_trivalent(6, seed=6)
    # different seed should give a different matching almost surely
    assert a.edges != c.edges


def test_random_trivalent_rejects_odd():
    with pytest.raises((GenerationFailed, ValueError)):
        random_trivalent(3, seed=0)


def test_random_trivalent_many_seeds():
    rng = Random(99)
    for _ in range(25):
        n = rng.choice([2, 4, 6, 8])
        g = random_trivalent(n, seed=rng.randrange(10**6))
        for d in range(3 * n):
            assert g.partner(g.partner(d)) == d
            assert g.vertex_of(d) == d // 3


def test_spanning_tree_theta():
    g = catalog_graph("theta")
    t = spanning_tree(g)
    assert t.order[0] == 0
    assert t.entry_dart == (None, 0)
    assert t.cotree_edges == (1, 2)
    assert t.order == (0, 1)


def test_spanning_tree_dumbbell_bridge():
    # only the bridge can be in the tree
    t = spanning_tree(catalog_graph("dumbbell"))
    assert t.entry_dart == (None, 2)
    assert t.cotree_edges == (0, 2)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_spanning_tree_sizes(name):
    g = catalog_graph(name)
    t = spanning_tree(g)
    tree_edges = [g.edge_index(t.entry_dart[v]) for v in t.order[1:]]
    assert len(tree_edges) == g.vertex_count - 1
    assert len(t.cotree_edges) == g.genus
    assert sorted(tree_edges + list(t.cotree_edges)) == list(range(len(g.edges)))
    assert sorted(t.order) == list(range(g.vertex_count))


def test_canonical_hash_frozen():
    expected = {
        "theta": "f1f52baf2dcd424e",
        "dumbbell": "aa345f7d80717fc4",
        "k4": "e71034e0dffbbbc3",
        "k33": "c50b1da19397fc55",
        "prism": "dbd3066580e95ca3",
    }
    for name, digest in expected.items():
        assert canonical_hash(catalog_graph(name)) == digest


def test_canonical_hash_relabel_invariant():
    g = catalog_graph("theta")
    # swap the two vertices: darts 0..2 <-> 3..5
    relabel = ((3, 0), (4, 1), (5, 2))
    h = TrivalentGraph(2, tuple(sorted((min(a, b), max(a, b)) for a, b in relabel)))
    assert canonical_hash(h) == canonical_hash(g)


def test_canonical_hash_separates_catalog():
    digests = {canonical_hash(catalog_graph(n)) for n in CATALOG_NAMES}
    assert len(digests) == len(CATALOG_NAMES)


def test_json_round_trip():
    for name in CATALOG_NAMES:
        g = catalog_graph(name)
        obj = graph_to_json(g)
        h = graph_from_json(obj)
        assert h.edges == g.edges
        assert h.vertex_count == g.vertex_count
        assert graph_to_json(h) == obj


def test_json_is_plain_data():
    import json

    obj = graph_to_json(catalog_graph("k4"))
    assert json.loads(json.dumps(obj)) == obj
