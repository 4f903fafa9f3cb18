"""Framed SL(2,C) bundles on a graph curve and their flat refinements.

A framing is one determinant-one matrix per edge, a(d) on the edge's
lower dart d: the transport across the node from the frame at the
partner's vertex into the frame at d's vertex, read along the
orientation "d first".  The partner dart carries a(d)^-1, by
construction.  A gauge g (one matrix per vertex) acts by

    a(d)  ->  g(source) a(d) g(target)^-1,

source = vertex of d, target = vertex of partner(d).

Gauge-fixing the graph's spanning tree (graph.tree) to the identity
leaves one free holonomy per cotree edge; the graph's fundamental group
is free of rank g, so framings modulo gauge are g-tuples in SL(2,C)
modulo overall conjugation.

A flat surface bundle refines a framing by meridians mu(d): the local
monodromy around the node at dart d, in the frame of d's vertex.  The
two sides of a node determine each other,

    mu(partner(d)) = a(partner(d)) mu(d)^-1 a(partner(d))^-1,

and at each vertex the product over the three darts in marked-point
order (0, 1, inf) must be the identity, mirroring a three-holed sphere's
fundamental group relation.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from random import Random

from .errors import NotOnVariety, ValidationError
from .graphs import TrivalentGraph
from .linalg import rank
from .matrices import (IDENTITY, Mat2, _conjugation, check_unimodular,
                       random_unimodular)
from .scalars import EXACT, FLAT_TOL, IDENTITY_TOL, check_domain, domain_of


def _is_identity(m: Mat2, domain: str) -> bool:
    if domain == EXACT:
        return m == IDENTITY
    return (m - IDENTITY).max_norm() <= IDENTITY_TOL


def _check_count(items, count: int, what: str):
    if len(items) != count:
        raise ValidationError(f"need {count} {what}, got {len(items)}")


def _per_edge(items, graph: TrivalentGraph, what: str, domain: str,
              det_scales=None) -> tuple:
    """items as a _unimodular_tuple in edge order: a sequence with one
    matrix per edge, or a mapping whose keys are exactly the edges 0..E-1."""
    count = len(graph.edges)
    if isinstance(items, Mapping):
        _check_count(items, count, what)
        missing = [e for e in range(count) if e not in items]
        if missing:
            raise ValidationError(f"{what} missing for edges {missing}")
        items = [items[e] for e in range(count)]
    return _unimodular_tuple(items, count, what, domain, det_scales)


def _unimodular_tuple(mats, count: int, what: str, domain: str,
                     det_scales=None) -> tuple:
    """mats as a tuple of count determinant-one matrices in domain.

    Checks the domain, then that mats is iterable and has count items
    (_check_count), then that every entry fits the domain, then each
    determinant; det_scales, when given, holds one check_unimodular
    scale per matrix.
    """
    check_domain(domain)
    try:
        mats = tuple(mats)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence, "
                              f"got {type(mats).__name__}") from None
    _check_count(mats, count, what)
    if not all(isinstance(m, Mat2) for m in mats):
        raise ValidationError(f"{what} must be Mat2 matrices")
    # with a zero of domain: ints pass, and the other domain's scalars raise
    domain_of(Fraction(0) if domain == EXACT else 0.0,
              *(x for m in mats for x in m.entries()))
    for k, m in enumerate(mats):
        check_unimodular(m, domain, det_scales[k] if det_scales else 1)
    return mats


class GaugeTransform:
    """One determinant-one matrix per vertex."""

    def __init__(self, graph: TrivalentGraph, mats, domain: str = EXACT):
        self._mats = _unimodular_tuple(mats, graph.vertex_count, "gauge matrices",
                                       domain)
        self.graph = graph
        self.domain = domain

    @classmethod
    def identity(cls, graph: TrivalentGraph, domain: str = EXACT):
        return cls(graph, [IDENTITY] * graph.vertex_count, domain)

    @classmethod
    def random(cls, graph: TrivalentGraph, seed: int, domain: str = EXACT):
        rng = Random(seed)
        return cls(graph, [random_unimodular(rng, domain)
                           for _ in range(graph.vertex_count)], domain)

    def matrix(self, v: int) -> Mat2:
        return self._mats[v]

    def compose(self, other: "GaugeTransform") -> "GaugeTransform":
        """Gauge acting as self after other."""
        return GaugeTransform(self.graph,
                              [a * b for a, b in zip(self._mats, other._mats)],
                              self.domain)


class Framing:
    """Determinant-one transport across every node.

    edge_matrices holds one matrix per edge, a sequence in edge order or
    a mapping keyed by exactly the edges; each is stored on its edge's
    lower dart and its inverse on the partner.  det_scales, when given,
    holds one check_unimodular scale per edge for matrices computed as
    products (see _gauged).
    """

    def __init__(self, graph: TrivalentGraph, edge_matrices, domain: str = EXACT,
                 det_scales=None):
        edge_matrices = _per_edge(edge_matrices, graph, "edge matrices", domain,
                                  det_scales)
        mats = [None] * graph.dart_count
        for (a, b), m in zip(graph.edges, edge_matrices):
            mats[a] = m
            mats[b] = m.inv()
        self._mats = tuple(mats)
        self.graph = graph
        self.domain = domain
        # higgs.higgs_space's report, solved on its first call
        self._higgs_space = None

    @classmethod
    def identity(cls, graph: TrivalentGraph, domain: str = EXACT):
        return cls(graph, [IDENTITY] * len(graph.edges), domain)

    @classmethod
    def random(cls, graph: TrivalentGraph, seed: int, domain: str = EXACT):
        rng = Random(seed)
        return cls(graph, [random_unimodular(rng, domain)
                           for _ in range(len(graph.edges))], domain)

    def matrix(self, d: int) -> Mat2:
        return self._mats[d]

    def __eq__(self, other):
        if not isinstance(other, Framing):
            return NotImplemented
        return self.graph == other.graph and self._mats == other._mats


def _gauged(left: Mat2, m: Mat2, right: Mat2):
    """left m right, and the check_unimodular scale of its determinant.

    In floats that determinant's rounding error grows with the factors,
    not with the product, which is near the identity when a gauge undoes
    large factors; the scale is (product of the max norms)^2.
    """
    return left * m * right, (left.max_norm() * m.max_norm() * right.max_norm()) ** 2


def apply_gauge(gauge: GaugeTransform, framing: Framing) -> Framing:
    """g(source) a(d) g(target)^-1 on every lower dart; a group action."""
    g = framing.graph
    mats, scales = zip(*(_gauged(gauge.matrix(g.vertex_of(a)), framing.matrix(a),
                                 gauge.matrix(g.vertex_of(b)).inv())
                         for a, b in g.edges))
    return Framing(g, mats, framing.domain, det_scales=scales)


def tree_gauge(framing: Framing) -> GaugeTransform:
    """The gauge with identity at the root that trivializes graph.tree's darts."""
    g = framing.graph
    tree = g.tree
    fix = [IDENTITY] * g.vertex_count
    for v in tree.order[1:]:
        d = tree.entry_dart[v]
        fix[v] = fix[g.vertex_of(d)] * framing.matrix(d)
    return GaugeTransform(g, fix, framing.domain)


def schottky_holonomies(framing: Framing):
    """Cotree holonomies after gauge-fixing the tree darts to the identity.

    The gauge is unique once the root frame is pinned; gauge-equivalent
    framings yield simultaneously conjugate tuples (by the gauge matrix
    at the root).  Holonomies are listed in cotree order and read along
    each cotree edge's lower dart.
    """
    g = framing.graph
    gauge = tree_gauge(framing)
    out = []
    for e in g.tree.cotree_edges:
        a, b = g.edges[e]
        out.append(gauge.matrix(g.vertex_of(a)) * framing.matrix(a)
                   * gauge.matrix(g.vertex_of(b)).inv())
    return out


def trace_invariants(holonomies):
    """Traces of the generators, ordered pairs and ordered triples.

    A conjugation probe, not a decision procedure: the list separates
    generic orbits but is only complete for irreducible pairs.
    """
    out = [m.trace() for m in holonomies]
    n = len(holonomies)
    for i in range(n):
        for j in range(i + 1, n):
            out.append((holonomies[i] * holonomies[j]).trace())
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                out.append((holonomies[i] * holonomies[j] * holonomies[k]).trace())
    return out


class SurfaceFlatBundle:
    """A framing plus node meridians, one per dart.

    from_primary takes one meridian per edge and derives the partner
    side, so edge compatibility holds by construction there.  The
    constructor takes all 2E meridians as given: zero_section and
    apply_gauge_bundle build the partner side directly, because deriving
    it as t mu^-1 t^-1 rounds in floats (t t^-1 is not exactly the
    identity), and a trivial meridian then no longer gives a zero
    vertex residual.  The vertex relations (product of the three
    meridians in marked-point order is the identity) are a residual to
    be checked, not an invariant of the type.  det_scales, when given,
    holds one check_unimodular scale per dart (see _gauged).
    """

    def __init__(self, framing: Framing, meridians, det_scales=None):
        self._meridians = _unimodular_tuple(meridians, framing.graph.dart_count,
                                            "meridians", framing.domain, det_scales)
        self.framing = framing
        self.graph = framing.graph
        self.domain = framing.domain

    @classmethod
    def from_primary(cls, framing: Framing, edge_meridians):
        """Build from one meridian per edge on the lower dart."""
        g = framing.graph
        edge_meridians = _per_edge(edge_meridians, g, "edge meridians",
                                   framing.domain)
        mer = [None] * g.dart_count
        for (a, b), m in zip(g.edges, edge_meridians):
            mer[a] = m
            t = framing.matrix(b)
            mer[b] = t * m.inv() * t.inv()
        return cls(framing, mer)

    def meridian(self, d: int) -> Mat2:
        return self._meridians[d]

    def vertex_holonomy(self, v: int) -> Mat2:
        d0, d1, d2 = self.graph.vertex_darts(v)
        return self._meridians[d0] * self._meridians[d1] * self._meridians[d2]


def zero_section(framing: Framing) -> SurfaceFlatBundle:
    """All meridians trivial: the canonical flat refinement of a framing."""
    return SurfaceFlatBundle(framing, [IDENTITY] * framing.graph.dart_count)


def vertex_relation_residual(bundle: SurfaceFlatBundle):
    """Largest deviation of a vertex meridian product from the identity."""
    return max((bundle.vertex_holonomy(v) - IDENTITY).max_norm()
               for v in range(bundle.graph.vertex_count))


def apply_gauge_bundle(gauge: GaugeTransform,
                       bundle: SurfaceFlatBundle) -> SurfaceFlatBundle:
    """Gauge a bundle: framing as usual, meridians by conjugation at their vertex."""
    g = bundle.graph
    framing = apply_gauge(gauge, bundle.framing)
    mer, scales = zip(*(_gauged(gauge.matrix(g.vertex_of(d)), bundle.meridian(d),
                                gauge.matrix(g.vertex_of(d)).inv())
                        for d in range(g.dart_count)))
    return SurfaceFlatBundle(framing, mer, det_scales=scales)


def flat_linearization(bundle: SurfaceFlatBundle):
    """Jacobian of the vertex relations in per-edge meridian coordinates.

    Each edge contributes three parameters: the meridian mu on its lower
    dart moves as mu -> exp(t X) mu for X in the traceless basis, and the
    partner's, by edge compatibility, by -A mu^-1 X A^-1, A = a(partner).
    Rows are the (x11, x12, x21) coordinates of d(product) * product^-1
    per vertex, vertices in order; columns are edges in canonical order,
    three per edge in basis order.  A slot's block is X -> left X right
    (matrices._conjugation), with prefix and suffix the meridian products
    before and after the slot and f the whole product: left = prefix and
    right = mu suffix f^-1 on a lower dart, left = -prefix A mu^-1 and
    right = A^-1 suffix f^-1 on a partner.  right is not left^-1, since
    the constructor accepts meridians that break edge compatibility.
    """
    g = bundle.graph
    ncols = 3 * len(g.edges)
    rows = []
    for v in range(g.vertex_count):
        darts = g.vertex_darts(v)
        mats = [bundle.meridian(d) for d in darts]
        f_inv = (mats[0] * mats[1] * mats[2]).inv()
        # prefix[i] = product of meridians before slot i, suffix[i] after.
        prefix = [IDENTITY, mats[0], mats[0] * mats[1]]
        suffix = [mats[1] * mats[2], mats[2], IDENTITY]
        blocks = [[0] * ncols for _ in range(3)]
        for i, d in enumerate(darts):
            e = g.edge_index(d)
            lo = g.edges[e][0]
            if d == lo:
                left, right = prefix[i], mats[i] * suffix[i] * f_inv
            else:
                t = bundle.framing.matrix(d)
                left = -(prefix[i] * t * bundle.meridian(lo).inv())
                right = t.inv() * suffix[i] * f_inv
            for block, coeffs in zip(blocks, _conjugation(left, right)):
                for k, x in enumerate(coeffs):
                    block[3 * e + k] += x
        rows.extend(blocks)
    return rows


def flat_local_dimension(bundle: SurfaceFlatBundle) -> int:
    """Kernel dimension of the vertex-relation Jacobian at the bundle.

    The bundle must actually satisfy the relations: exactly in the exact
    domain, with residual <= FLAT_TOL in the float domain.
    """
    res = vertex_relation_residual(bundle)
    tol = 0 if bundle.domain == EXACT else FLAT_TOL
    if res > tol:
        raise NotOnVariety(f"vertex relation residual {res} exceeds {tol}")
    ncols = 3 * len(bundle.graph.edges)
    return ncols - rank(flat_linearization(bundle), ncols, bundle.domain)


def subspace_flags(bundle: SurfaceFlatBundle) -> dict:
    """Membership probes for the two distinguished representation subspaces.

    all_meridians_trivial: every node monodromy is the identity, i.e. the
    flat structure descends from the graph's fundamental group alone.
    cotree_holonomies_trivial: after tree gauge fixing the framing
    carries no holonomy, i.e. the underlying bundle is trivializable.
    """
    domain = bundle.domain
    meridians_ok = all(_is_identity(bundle.meridian(d), domain)
                       for d in range(bundle.graph.dart_count))
    holonomies = schottky_holonomies(bundle.framing)
    cotree_ok = all(_is_identity(h, domain) for h in holonomies)
    return {"all_meridians_trivial": meridians_ok,
            "cotree_holonomies_trivial": cotree_ok}

