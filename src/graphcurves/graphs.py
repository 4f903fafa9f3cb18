"""Trivalent multigraphs encoded by darts, and the curves they index.

A dart is a half-edge.  A graph on n vertices carries darts 0..3n-1, a
fixed-point-free involution pairing them into edges, and a map assigning
each dart to its vertex.  Loops and parallel edges are allowed.  Every
connected trivalent graph here has first Betti number g = |E| - |V| + 1
with |E| = 3g - 3 and |V| = 2g - 2, so g >= 2.

Each vertex is read as a projective line with three marked points.  The
darts at a vertex, in increasing id order, sit at the points 0, 1 and
infinity of that line; gluing the lines along paired darts produces a
connected nodal curve of arithmetic genus g.

Every graph search is _breadth_first from vertex 0.  A graph's one
spanning tree, spanning_tree, is built by its constructor and kept as
graph.tree.  So is its edge-ends table, graph._edge_ends: for each side
of the edges, lower darts first, then partners, the tuple of vertices
and the tuple of marked points of the darts, in canonical edge order.
The kernels that match or transport across every node read it.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from random import Random

from .errors import (Disconnected, GenerationFailed, MalformedPairing,
                     NotTrivalent, UnknownName)

# Marked point labels by local index: z = 0, z = 1, z = infinity.
POINT_ZERO, POINT_ONE, POINT_INF = 0, 1, 2

# Draws of random_trivalent before it gives up on a connected graph.
MAX_ATTEMPTS = 1000


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class TrivalentGraph:
    """Immutable dart-encoded trivalent multigraph."""

    def __init__(self, vertex_count, pairing, dart_vertex=None):
        if not _is_int(vertex_count) or vertex_count < 2 or vertex_count % 2:
            raise NotTrivalent(
                f"vertex count must be an even integer >= 2, got {vertex_count!r}")
        n_darts = 3 * vertex_count
        # Sizes first, so a wrong vertex count allocates nothing 3V long.
        if not isinstance(pairing, (list, tuple)):
            raise MalformedPairing("pairing must be a list of dart pairs")
        if len(pairing) != n_darts // 2:
            raise MalformedPairing(
                f"{vertex_count} vertices need {n_darts // 2} dart pairs, "
                f"got {len(pairing)}")
        if dart_vertex is None:
            dart_vertex = [d // 3 for d in range(n_darts)]
        if not isinstance(dart_vertex, (list, tuple)):
            raise MalformedPairing("dart_vertex must be a list of vertex ids")
        dart_vertex = list(dart_vertex)
        if len(dart_vertex) != n_darts:
            raise MalformedPairing(
                f"dart_vertex must list all {n_darts} darts, got {len(dart_vertex)}")

        # 3V/2 pairs of distinct, unrepeated darts cover all 3V darts.
        partner = [None] * n_darts
        for pair in pairing:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise MalformedPairing(f"pair {pair!r} is not a 2-tuple")
            a, b = pair
            if not (_is_int(a) and _is_int(b)
                    and 0 <= a < n_darts and 0 <= b < n_darts):
                raise MalformedPairing(f"dart id out of range in pair {pair!r}")
            if a == b:
                raise MalformedPairing(f"dart {a} paired with itself")
            if partner[a] is not None or partner[b] is not None:
                raise MalformedPairing(f"dart repeated in pairing near {pair!r}")
            partner[a] = b
            partner[b] = a

        owned = [[] for _ in range(vertex_count)]
        for d, v in enumerate(dart_vertex):
            if not (_is_int(v) and 0 <= v < vertex_count):
                raise MalformedPairing(f"dart {d} assigned to invalid vertex {v}")
            owned[v].append(d)
        for v, ds in enumerate(owned):
            if len(ds) != 3:
                raise NotTrivalent(f"vertex {v} carries {len(ds)} darts, expected 3")

        self.vertex_count = vertex_count
        self.dart_count = n_darts
        self._partner = tuple(partner)
        self._dart_vertex = tuple(dart_vertex)
        self._vertex_darts = tuple(tuple(sorted(ds)) for ds in owned)
        self._local_index = [0] * n_darts
        for ds in self._vertex_darts:
            for i, d in enumerate(ds):
                self._local_index[d] = i
        self._local_index = tuple(self._local_index)

        # Edges in canonical order: (min dart, max dart), sorted by min dart.
        self.edges = tuple(sorted((min(d, self._partner[d]), max(d, self._partner[d]))
                                  for d in range(n_darts) if d < self._partner[d]))
        self._edge_of_dart = {}
        for i, (a, b) in enumerate(self.edges):
            self._edge_of_dart[a] = i
            self._edge_of_dart[b] = i
        self._edge_ends = tuple(
            (tuple(self._dart_vertex[d] for d in darts),
             tuple(self._local_index[d] for d in darts))
            for darts in zip(*self.edges))

        self.tree = spanning_tree(self)
        reached = len(self.tree.order)
        if reached != self.vertex_count:
            raise Disconnected(
                f"graph has {self.vertex_count} vertices but only {reached} reachable")

    # -- dart accessors -------------------------------------------------

    def partner(self, d: int) -> int:
        return self._partner[d]

    def vertex_of(self, d: int) -> int:
        return self._dart_vertex[d]

    def marked_point(self, d: int) -> int:
        """Marked point of the dart on its component: 0, 1 or 2 (= infinity)."""
        return self._local_index[d]

    def vertex_darts(self, v: int):
        return self._vertex_darts[v]

    # -- edge accessors -------------------------------------------------

    def edge_index(self, d: int) -> int:
        return self._edge_of_dart[d]

    def edge_endpoints(self, e: int):
        a, b = self.edges[e]
        return (self._dart_vertex[a], self._dart_vertex[b])

    def is_loop(self, e: int) -> bool:
        u, v = self.edge_endpoints(e)
        return u == v

    @property
    def genus(self) -> int:
        return len(self.edges) - self.vertex_count + 1

    def __eq__(self, other):
        if not isinstance(other, TrivalentGraph):
            return NotImplemented
        return (self._partner, self._dart_vertex) == (other._partner, other._dart_vertex)

    def __hash__(self):
        return hash((self._partner, self._dart_vertex))

    def __repr__(self):
        return (f"TrivalentGraph(vertices={self.vertex_count}, "
                f"edges={len(self.edges)}, genus={self.genus})")


# -- fixture catalog ----------------------------------------------------
#
# Block dart labels throughout: vertex v owns darts 3v, 3v+1, 3v+2 sitting
# at the marked points 0, 1, infinity in that order.
#
# theta     two vertices joined by three parallel edges          (genus 2)
# dumbbell  a loop at each of two vertices plus a bridge         (genus 2)
# k4        complete graph on four vertices                      (genus 3)
# k33       complete bipartite graph on 3 + 3 vertices           (genus 4)
# prism     two triangles joined by a perfect matching           (genus 4)

_CATALOG = {
    "theta": (2, ((0, 3), (1, 4), (2, 5))),
    "dumbbell": (2, ((0, 1), (3, 4), (2, 5))),
    "k4": (4, ((0, 3), (1, 6), (2, 9), (4, 7), (5, 10), (8, 11))),
    "k33": (6, ((0, 9), (1, 12), (2, 15), (3, 10), (4, 13), (5, 16),
                (6, 11), (7, 14), (8, 17))),
    "prism": (6, ((1, 3), (4, 6), (0, 7), (2, 11), (5, 14), (8, 17),
                  (10, 12), (13, 15), (9, 16))),
}

CATALOG_NAMES = tuple(sorted(_CATALOG))


def catalog_graph(name: str) -> TrivalentGraph:
    """Named fixture graph; see CATALOG_NAMES."""
    try:
        vertex_count, pairing = _CATALOG[name]
    except KeyError:
        raise UnknownName(f"no catalog graph named {name!r}; "
                          f"choose from {', '.join(CATALOG_NAMES)}") from None
    return TrivalentGraph(vertex_count, pairing)


def random_trivalent(vertex_count: int, seed: int) -> TrivalentGraph:
    """Uniformly random connected trivalent graph on the given vertices.

    Draws uniform perfect matchings on the darts and rejects disconnected
    outcomes, at most MAX_ATTEMPTS times; deterministic for a fixed
    (vertex_count, seed).
    """
    if vertex_count < 2 or vertex_count % 2:
        raise NotTrivalent(
            f"vertex count must be even and at least 2, got {vertex_count}")
    rng = Random(seed)
    darts = list(range(3 * vertex_count))
    for _ in range(MAX_ATTEMPTS):
        rng.shuffle(darts)
        pairing = [(darts[2 * i], darts[2 * i + 1]) for i in range(len(darts) // 2)]
        try:
            return TrivalentGraph(vertex_count, pairing)
        except Disconnected:
            continue
    raise GenerationFailed(
        f"no connected trivalent graph on {vertex_count} vertices "
        f"after {MAX_ATTEMPTS} attempts (seed {seed})")


def _breadth_first(arcs):
    """Breadth-first search from vertex 0.

    arcs(x) lists the (label, y) steps from vertex x to its neighbours
    in scan order.  Returns the reached vertices in discovery order and
    a dict taking each of them to the step (label, x) that discovered
    it, None at the root.
    """
    order = [0]
    found = {0: None}
    for x in order:  # order grows as the queue is read
        for label, y in arcs(x):
            if y not in found:
                found[y] = (label, x)
                order.append(y)
    return order, found


@dataclass(frozen=True)
class SpanningTreeData:
    """Deterministic breadth-first spanning tree rooted at vertex 0.

    order lists the vertices in discovery order.  entry_dart[v] is the
    dart at the parent of v pointing along the tree edge into v (None at
    the root).  cotree_edges lists the g edges off the tree in
    increasing edge-index order.
    """

    order: tuple
    entry_dart: tuple
    cotree_edges: tuple


def spanning_tree(graph: TrivalentGraph) -> SpanningTreeData:
    """BFS spanning tree scanning each vertex's darts in increasing id order.

    TrivalentGraph builds it once and keeps it as graph.tree.  On a
    disconnected graph it spans the component of vertex 0, which is how
    the constructor detects one.
    """
    order, found = _breadth_first(
        lambda v: [(d, graph.vertex_of(graph.partner(d)))
                   for d in graph.vertex_darts(v)])
    entry = [None] * graph.vertex_count
    for v in order[1:]:
        entry[v] = found[v][0]
    in_tree = {graph.edge_index(entry[v]) for v in order[1:]}
    cotree = tuple(e for e in range(len(graph.edges)) if e not in in_tree)
    return SpanningTreeData(order=tuple(order), entry_dart=tuple(entry),
                            cotree_edges=cotree)


def canonical_hash(graph: TrivalentGraph) -> str:
    """Fixture key: hash of the pairing after breadth-first relabeling.

    Vertices are renamed in the discovery order of graph.tree and each
    vertex's darts are renamed 3v, 3v+1, 3v+2 preserving their relative
    order, which keeps marked points in place.  This is a stable content
    key, not a graph isomorphism invariant.
    """
    order = graph.tree.order
    new_vertex = {v: i for i, v in enumerate(order)}
    new_dart = {}
    for v in order:
        base = 3 * new_vertex[v]
        for i, d in enumerate(graph.vertex_darts(v)):
            new_dart[d] = base + i
    pairs = sorted(tuple(sorted((new_dart[a], new_dart[b])))
                   for a, b in graph.edges)
    payload = json.dumps({"vertices": graph.vertex_count, "pairing": pairs})
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def graph_to_json(graph: TrivalentGraph) -> dict:
    return {
        "vertices": graph.vertex_count,
        "pairing": [list(e) for e in graph.edges],
        "dart_vertex": list(graph._dart_vertex),
    }


def graph_from_json(obj: dict) -> TrivalentGraph:
    if not isinstance(obj, dict) or "pairing" not in obj:
        raise MalformedPairing("graph JSON must be an object with a 'pairing' key")
    vertex_count = obj.get("vertices")
    dart_vertex = obj.get("dart_vertex")
    if vertex_count is None:
        if not (isinstance(dart_vertex, list) and dart_vertex
                and all(_is_int(v) for v in dart_vertex)):
            raise MalformedPairing(
                "graph JSON needs 'vertices' or a nonempty integer 'dart_vertex'")
        vertex_count = max(dart_vertex) + 1
    return TrivalentGraph(vertex_count, obj["pairing"], dart_vertex)
