"""Spectral curves of Higgs fields and their Prym data.

Over each vertex the characteristic equation y^2 = -det(phi) cuts a
double cover of the component, ramified at the two zeros of the
determinant; over each node the two eigenvalues +lambda and -lambda of
the residue matrix give two points on each side.  Transport by the
framing flips the sign of the eigenvalue, so the (+)-lift on one side
glues to the (-)-lift on the other.  The resulting nodal curve has
2g - 2 components and two nodes over each base edge, hence arithmetic
genus 4g - 3, and carries the sheet-swap involution whose quotient is
the base curve.

All computations here run in the float (complex) domain: eigenvalues
need square roots.  The combinatorial shadow (dual graphs, cycle spaces,
the Prym dimension count) is exact integer linear algebra.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from random import Random

from .errors import (DegenerateNode, InconsistentSpectralData,
                     IrregularDeterminant, NumericalError, ValidationError)
from .framings import Framing
from .graphs import TrivalentGraph, _breadth_first
from .higgs import (HiggsField, _float_draw, _residue_matrix,
                    _vertex_coefficients, higgs_space)
from .hitchin import hitchin_image, is_regular
from .linalg import independent_rows, integer_rank
from .matrices import Mat2, to_complex_mat
from .scalars import (DEGENERATE_RTOL, EIGEN_TOL, FLOAT, RECONSTRUCT_TOL,
                      TRANSVERSE_RTOL)

# Kernel combinations random_regular_higgs draws before it gives up.
MAX_DRAWS = 32


def _complex_residue_matrix(phi: HiggsField, v: int, point: int) -> Mat2:
    """Residue matrix of phi at (v, point), converting only vertex v to complex."""
    return _residue_matrix([complex(x) for x in phi.coefficients[6 * v:6 * v + 6]],
                           0, point)


def _as_complex_framing(framing: Framing) -> Framing:
    if framing.domain == FLOAT:
        return framing
    return Framing(framing.graph,
                   [to_complex_mat(framing.matrix(a)) for a, _ in framing.graph.edges],
                   FLOAT)


# -- branch points ------------------------------------------------------


@dataclass
class BranchData:
    """Two determinant zeros per vertex, ordered by (real, imag)."""

    graph: TrivalentGraph
    points: tuple  # per vertex: (z1, z2)


def branch_points(phi: HiggsField) -> BranchData:
    """Zeros of det(phi) on each component, in the standard coordinate.

    Requires a regular determinant (two distinct zeros per component,
    away from the marked points); a function of the determinant alone.
    """
    phi_c = HiggsField(phi.graph, [complex(x) for x in phi.coefficients])
    omega = hitchin_image(phi_c)
    report = is_regular(omega)
    if not report.regular:
        raise IrregularDeterminant(f"determinant not regular: {report.failures}")
    c = omega.coefficients
    points = []
    for q0, q1, q2 in zip(c[::3], c[1::3], c[2::3]):
        disc = cmath.sqrt(q1 * q1 - 4 * q0 * q2)
        roots = ((-q1 + disc) / (2 * q2), (-q1 - disc) / (2 * q2))
        points.append(tuple(sorted(roots, key=lambda z: (z.real, z.imag))))
    return BranchData(graph=phi.graph, points=tuple(points))


# -- node eigendata -----------------------------------------------------


def _normalize(v):
    x, y = v
    if abs(x) >= abs(y):
        return (1.0 + 0.0j, y / x) if x != 0 else (0.0j, 1.0 + 0.0j)
    return (x / y, 1.0 + 0.0j)


def _eigenline(m: Mat2, mu: complex):
    """Projective eigenvector of a traceless 2x2 matrix for eigenvalue mu.

    Picks the better-conditioned of the two kernel candidates of
    (m - mu), then normalizes the largest component to 1.
    """
    v1 = (-m.b, m.a - mu)
    v2 = (m.a + mu, m.c)
    n1 = abs(v1[0]) + abs(v1[1])
    n2 = abs(v2[0]) + abs(v2[1])
    return _normalize(v1 if n1 >= n2 else v2)


def line_mismatch(l1, l2) -> float:
    """Projective distance |x1 y2 - y1 x2| between normalized lines."""
    return abs(l1[0] * l2[1] - l1[1] * l2[0])


def _transport_mismatch(t: Mat2, target_lines, source_lines) -> float:
    """How far transport by t is from carrying the target-side (+, -)
    eigenlines to the normalized source-side (-, +) ones."""
    return max(line_mismatch(_normalize(t.apply(target_lines[0])), source_lines[1]),
               line_mismatch(_normalize(t.apply(target_lines[1])), source_lines[0]))


@dataclass
class NodeLift:
    """Eigen-data of a Higgs field at one node.

    lam is the principal square root of -det of the residue matrix; the
    lifts map each dart of the edge to its (+lam, -lam) eigenline pair.
    matching_residual records how far the framing is from carrying the
    target-side (+)-line to the source-side (-)-line and vice versa.
    """

    edge: int
    lam: complex
    lifts: dict
    matching_residual: float


def node_eigendata(phi: HiggsField, framing: Framing, edge: int) -> NodeLift:
    """Eigenvalues and eigenlines of the residue matrices at one node.

    Transport by the lower dart's matrix must send target-side
    eigenlines to source-side ones with the eigenvalue negated, within
    EIGEN_TOL.
    """
    g = phi.graph
    lo, hi = g.edges[edge]
    r_lo = _complex_residue_matrix(phi, g.vertex_of(lo), g.marked_point(lo))
    r_hi = _complex_residue_matrix(phi, g.vertex_of(hi), g.marked_point(hi))
    det = r_lo.det()
    scale = max(1.0, r_lo.max_norm() ** 2)
    if abs(det) <= DEGENERATE_RTOL * scale:
        raise DegenerateNode(f"residue determinant {det} vanishes at edge {edge}")
    lam = cmath.sqrt(-det)
    lifts = {
        lo: (_eigenline(r_lo, lam), _eigenline(r_lo, -lam)),
        hi: (_eigenline(r_hi, lam), _eigenline(r_hi, -lam)),
    }
    mismatch = _transport_mismatch(to_complex_mat(framing.matrix(lo)),
                                   lifts[hi], lifts[lo])
    if mismatch > EIGEN_TOL:
        raise InconsistentSpectralData(
            f"eigenline transport mismatch {mismatch} at edge {edge}")
    return NodeLift(edge=edge, lam=lam, lifts=lifts, matching_residual=mismatch)


def all_node_eigendata(phi: HiggsField, framing: Framing) -> dict:
    """NodeLift for every edge, keyed by edge index."""
    return {e: node_eigendata(phi, framing, e)
            for e in range(len(phi.graph.edges))}


# -- the spectral curve -------------------------------------------------


@dataclass
class SpectralCurve:
    """Nodal double cover: one component per base vertex, two nodes per edge.

    Nodes are labeled (edge, sign): sign +1 glues the (+)-lift on the
    lower-dart side to the (-)-lift on the partner side, sign -1 the
    other pairing.  The sheet-swap involution fixes each component,
    negates lam, swaps the two nodes over each edge and fixes exactly the
    branch points.
    """

    graph: TrivalentGraph
    branch: BranchData
    nodes: dict  # edge -> NodeLift

    @property
    def component_count(self) -> int:
        return self.graph.vertex_count

    @property
    def node_count(self) -> int:
        return 2 * len(self.graph.edges)

    @property
    def arithmetic_genus(self) -> int:
        return self.node_count - self.component_count + 1

    def node_labels(self):
        """(e, +1), (e, -1) for each edge e: the order of _doubled_edges,
        so a vector over the cover's dual-graph edges zips with it."""
        return [(e, s) for e in range(len(self.graph.edges)) for s in (1, -1)]

    def dual_graph(self):
        """(vertex_count, edge list) of the cover's dual graph.

        Each base edge appears twice with the same endpoints, labeled by
        the node (edge, sign), in _doubled_edges order.
        """
        edges = list(zip(_doubled_edges(self.graph), self.node_labels()))
        return self.graph.vertex_count, edges

    def involution_on_nodes(self):
        """The sheet swap as a map on node labels."""
        return {(e, s): (e, -s) for e, s in self.node_labels()}

    def fixed_points_per_component(self):
        """Branch points fixed by the involution, grouped by component."""
        return {v: self.branch.points[v]
                for v in range(self.graph.vertex_count)}

    def quotient_dual_graph(self):
        """Collapse the node pairs; returns the base graph's edge endpoint list."""
        _, edges = self.dual_graph()
        seen = {}
        for (u, v), (e, _) in edges:
            seen[e] = (u, v)
        return [seen[e] for e in sorted(seen)]


def build_spectral_curve(phi: HiggsField, framing: Framing) -> SpectralCurve:
    """Assemble branch points and node eigendata into the double cover."""
    branch = branch_points(phi)
    nodes = all_node_eigendata(phi, framing)
    return SpectralCurve(graph=phi.graph, branch=branch, nodes=nodes)


# -- cycle spaces of the doubled dual graph -----------------------------


def _doubled_edges(graph: TrivalentGraph):
    """Dual-graph edges of the cover: each base edge twice, canonical order.

    Index 2e is the (+)-node copy of base edge e, index 2e + 1 the
    (-)-node copy; both keep the base edge's endpoint orientation
    (vertex of lower dart -> vertex of higher dart).
    """
    out = []
    for e in range(len(graph.edges)):
        u, v = graph.edge_endpoints(e)
        out.append((u, v))
        out.append((u, v))
    return out


def _fundamental_cycles(vertex_count: int, edges):
    """Integer cycle basis from a BFS spanning tree of a connected multigraph.

    Returns vectors over the edge list: the cotree edge gets +1 and the
    tree path closes the loop with signs following the stored
    orientations.  The search is graphs._breadth_first scanning each
    vertex's edges in ascending index order.  On the cover's dual graph
    (_doubled_edges) that is a BFS of the base in edge-index order lifted
    to the (+)-copies, not graph.tree, whose scan is in dart order; this
    basis fixes anti_invariant_cycles and so the meaning of the twist
    parameters.
    """
    adjacency = [[] for _ in range(vertex_count)]  # ascending edge index
    for i, (u, v) in enumerate(edges):
        adjacency[u].append((i, v))
        if u != v:
            adjacency[v].append((i, u))
    _, parent = _breadth_first(adjacency.__getitem__)  # vertex -> (edge, parent)
    tree = {step[0] for step in parent.values() if step is not None}

    def path_to_root(x):
        """Flow of walking x up to the root, as (edge index, sign) steps.

        The sign is +1 when the step runs with the stored orientation.
        """
        steps = []
        while parent[x] is not None:
            i, up = parent[x]
            u, w = edges[i]
            steps.append((i, 1 if (u, w) == (x, up) else -1))
            x = up
        return steps

    cycles = []
    for i, (u, v) in enumerate(edges):
        if i in tree:
            continue
        vec = [0] * len(edges)
        vec[i] += 1
        for j, s in path_to_root(v):
            vec[j] += s
        for j, s in path_to_root(u):
            vec[j] -= s
        cycles.append(vec)
    return cycles


@dataclass
class PrymReport:
    """First Betti numbers of base and cover, and the odd-part dimension.

    pullback_rank is the integer rank of the map on first graph
    cohomology induced by collapsing the two node copies of each edge;
    a base cochain pulls back to the same value on both copies.
    """

    b1_base: int
    b1_spectral: int
    pullback_rank: int
    prym_dim: int


def prym_report(graph: TrivalentGraph) -> PrymReport:
    """Combinatorial Prym dimension count; independent of the Higgs field."""
    edges = _doubled_edges(graph)
    cycles = _fundamental_cycles(graph.vertex_count, edges)
    b1_spectral = len(cycles)

    # Pair pulled-back cotree cochains of the base against the cover's
    # cycle basis; the pairing matrix has full column rank g when the
    # pullback is injective.  Indicator cochains of the edges off any
    # spanning tree form a basis of the base's first cohomology.
    cotree = graph.tree.cotree_edges
    b1_base = len(cotree)
    pairing = [[z[2 * e] + z[2 * e + 1] for e in cotree] for z in cycles]
    pullback_rank = integer_rank(pairing)
    return PrymReport(b1_base=b1_base, b1_spectral=b1_spectral,
                      pullback_rank=pullback_rank,
                      prym_dim=b1_spectral - pullback_rank)


def anti_invariant_cycles(graph: TrivalentGraph):
    """Independent integer cycles of the cover negated by the sheet swap.

    The involution exchanges the two copies of each base edge; applying
    (1 - swap) to the fundamental cycles and keeping, in basis order,
    each image that is independent of those before it yields prym_dim
    generators.  The image of z is w on the (+)-copies and -w on the
    (-)-copies, w[e] = z[2e] - z[2e + 1]; that lift is injective, so the
    choice is made on the w and only the chosen ones are lifted.
    """
    edges = _doubled_edges(graph)
    cycles = _fundamental_cycles(graph.vertex_count, edges)
    halves = [[a - b for a, b in zip(z[::2], z[1::2])] for z in cycles]
    return [[y for x in halves[k] for y in (x, -x)]
            for k in independent_rows(halves)]


# -- line bundles on the cover ------------------------------------------


@dataclass
class SpectralLineBundle:
    """Degree (1, ..., 1) line bundle data: one gluing scalar per node."""

    curve: SpectralCurve
    multidegree: tuple
    gluings: dict  # (edge, sign) -> complex


def spectral_line_bundle(curve: SpectralCurve) -> SpectralLineBundle:
    """The tautological bundle class: degree one per component, unit gluings."""
    return SpectralLineBundle(
        curve=curve,
        multidegree=(1,) * curve.component_count,
        gluings={label: 1.0 + 0.0j for label in curve.node_labels()},
    )


def twist(bundle: SpectralLineBundle, parameters) -> SpectralLineBundle:
    """Multiply gluings by characters indexed by anti-invariant cycles.

    parameters: one nonzero scalar per independent anti-invariant cycle
    (prym_dim of them); parameter t on cycle w scales the gluing at the
    k-th node_labels entry by t ** w[k].  Twists compose multiplicatively
    parameter by parameter and never touch the multidegree.
    """
    cycles = anti_invariant_cycles(bundle.curve.graph)
    labels = bundle.curve.node_labels()
    if len(parameters) != len(cycles):
        raise ValidationError(
            f"need {len(cycles)} twist parameters, got {len(parameters)}")
    gluings = dict(bundle.gluings)
    for t, w in zip(parameters, cycles):
        t = complex(t)
        if t == 0:
            raise ValidationError("twist parameters must be nonzero")
        for label, exponent in zip(labels, w):
            if exponent:
                gluings[label] *= t ** exponent
    return SpectralLineBundle(curve=bundle.curve,
                              multidegree=bundle.multidegree,
                              gluings=gluings)


# -- matrix-level reconstruction ---------------------------------------


def _rank_one_projector_pair(lam, line_plus, line_minus):
    """Traceless matrix with eigenvalue lam on line_plus, -lam on line_minus."""
    x1, y1 = line_plus
    x2, y2 = line_minus
    det = x1 * y2 - x2 * y1
    if abs(det) <= (TRANSVERSE_RTOL * max(1.0, abs(x1) + abs(y1))
                    * max(1.0, abs(x2) + abs(y2))):
        raise InconsistentSpectralData("eigenlines at a node are not transverse")
    # P diag(lam, -lam) P^-1 with P = [line_plus | line_minus].
    p = Mat2(x1, x2, y1, y2)
    d = Mat2(lam, 0, 0, -lam)
    return p * d * p.inv()


def reconstruct_higgs(node_data: dict, framing: Framing) -> HiggsField:
    """Rebuild the Higgs field from per-node eigenvalues and eigenlines.

    Each dart's residue matrix is determined by its edge's lam and its
    eigenline pair; the three residue matrices at a vertex must sum to
    zero and the framing must transport eigenlines across each node with
    the eigenvalue negated, both within RECONSTRUCT_TOL.  The field is
    then read off from the residues at marked points 0 and 1 of every
    vertex.
    """
    g = framing.graph
    if sorted(node_data) != list(range(len(g.edges))):
        raise InconsistentSpectralData("node data must cover every edge exactly once")

    per_dart = {}
    for e in range(len(g.edges)):
        lift = node_data[e]
        lo, hi = g.edges[e]
        lam = complex(lift.lam)
        for d in (lo, hi):
            if d not in lift.lifts:
                raise InconsistentSpectralData(f"missing eigenlines for dart {d}")
            plus, minus = lift.lifts[d]
            per_dart[d] = _rank_one_projector_pair(lam, plus, minus)
        mismatch = _transport_mismatch(to_complex_mat(framing.matrix(lo)),
                                       lift.lifts[hi],
                                       [_normalize(x) for x in lift.lifts[lo]])
        if mismatch > RECONSTRUCT_TOL:
            raise InconsistentSpectralData(
                f"eigenline transport mismatch {mismatch} at edge {e}")

    out = []
    for v in range(g.vertex_count):
        mats = {g.marked_point(d): per_dart[d] for d in g.vertex_darts(v)}
        total = mats[0] + mats[1] + mats[2]
        scale = max(1.0, max(m.max_norm() for m in mats.values()))
        if total.max_norm() > RECONSTRUCT_TOL * scale:
            raise InconsistentSpectralData(
                f"residue matrices at vertex {v} sum to {total.max_norm()}")
        out.extend(_vertex_coefficients(mats[0], mats[1]))
    return HiggsField(g, out)


def roundtrip_error(phi: HiggsField, framing: Framing) -> float:
    """Relative gap between phi and its eigen-data reconstruction."""
    rebuilt = reconstruct_higgs(all_node_eigendata(phi, framing), framing)
    num = 0.0
    den = 1.0
    for a, b in zip([complex(x) for x in phi.coefficients], rebuilt.coefficients):
        num = max(num, abs(a - b))
        den = max(den, abs(a))
    return num / den


def random_regular_higgs(framing: Framing, seed: int) -> HiggsField:
    """Seeded random Higgs field with regular determinant (float domain).

    Draws up to MAX_DRAWS kernel combinations (higgs._float_draw) until
    the determinant is regular and every node is non-degenerate; the
    first is random_higgs_field's on a float framing.
    """
    a_c = _as_complex_framing(framing)
    basis = higgs_space(a_c).basis
    rng = Random(seed)
    for _ in range(MAX_DRAWS):
        phi = _float_draw(basis, a_c.graph, rng)
        if not is_regular(hitchin_image(phi)).regular:
            continue
        try:
            all_node_eigendata(phi, a_c)
        except NumericalError:
            continue
        return phi
    raise IrregularDeterminant(
        f"no regular Higgs field found in {MAX_DRAWS} draws (seed {seed})")
