"""Sections of the dualizing sheaf and its square on a graph curve.

On a single component (a projective line with marked points 0, 1, inf) a
logarithmic differential is

    omega = (r0 / z + r1 / (z - 1)) dz,

with residues (r0, r1, -(r0 + r1)) at the marked points; the space is
two dimensional per vertex.  A quadratic differential with double poles
at the marked points is

    Omega = (q0 + q1 z + q2 z^2) / (z^2 (z - 1)^2) dz^2,

with bi-residues (leading double-pole coefficients) (q0, q0+q1+q2, q2);
three dimensions per vertex.

A global section is a tuple of per-vertex data whose residues cancel
(for differentials) or whose bi-residues agree (for quadratic
differentials) across every node.  Global sections of the dualizing
sheaf form a g-dimensional space; its square gives a (3g-3)-dimensional
space on which the per-edge bi-residues are global coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import MatchingViolated, ScalarDomainMismatch
from .graphs import TrivalentGraph
from .linalg import KernelReport, solve_kernel
from .scalars import EXACT, MATCH_TOL, as_scalar, check_domain, domain_of

# Residue functionals on (r0, r1), indexed by marked point.
RESIDUE_FUNCTIONAL = ((1, 0), (0, 1), (-1, -1))
# Bi-residue functionals on (q0, q1, q2), indexed by marked point.
BIRESIDUE_FUNCTIONAL = ((1, 0, 0), (1, 1, 1), (0, 0, 1))


@dataclass(frozen=True)
class ComponentDifferential:
    """Logarithmic differential (r0/z + r1/(z-1)) dz on one component."""

    r0: object
    r1: object

    def residues(self):
        """Residues at the marked points (0, 1, inf)."""
        return (self.r0, self.r1, -(self.r0 + self.r1))

    def residue(self, point: int):
        return self.residues()[point]

    def __add__(self, other):
        return ComponentDifferential(self.r0 + other.r0, self.r1 + other.r1)

    def __neg__(self):
        return ComponentDifferential(-self.r0, -self.r1)

    def scale(self, s):
        return ComponentDifferential(s * self.r0, s * self.r1)


@dataclass(frozen=True)
class ComponentQuadratic:
    """Quadratic differential (q0 + q1 z + q2 z^2)/(z^2 (z-1)^2) dz^2."""

    q0: object
    q1: object
    q2: object

    def biresidues(self):
        """Leading double-pole coefficients at (0, 1, inf)."""
        return (self.q0, self.q0 + self.q1 + self.q2, self.q2)

    def biresidue(self, point: int):
        return self.biresidues()[point]

    def coefficients(self):
        return (self.q0, self.q1, self.q2)

    def value_at_one(self):
        return self.q0 + self.q1 + self.q2

    def discriminant(self):
        return self.q1 * self.q1 - 4 * self.q0 * self.q2

    def __add__(self, other):
        return ComponentQuadratic(self.q0 + other.q0, self.q1 + other.q1,
                                  self.q2 + other.q2)

    def __neg__(self):
        return ComponentQuadratic(-self.q0, -self.q1, -self.q2)

    def scale(self, s):
        return ComponentQuadratic(s * self.q0, s * self.q1, s * self.q2)


def multiply_differentials(d1: ComponentDifferential,
                           d2: ComponentDifferential) -> ComponentQuadratic:
    """Product of two logarithmic differentials on one component.

    The numerator over z^2 (z-1)^2 is
    r0 s0 (z-1)^2 + (r0 s1 + r1 s0) z (z-1) + r1 s1 z^2, and the
    bi-residue of the product at each marked point is the product of the
    residues there.
    """
    return ComponentQuadratic(*_product_coefficients(d1.r0, d1.r1, d2.r0, d2.r1))


def _product_coefficients(r0, r1, s0, s1):
    """(q0, q1, q2) of the product of (r0, r1) and (s0, s1) differentials."""
    cross = r0 * s1 + r1 * s0
    return (
        r0 * s0,
        -2 * r0 * s0 - cross,
        r0 * s0 + cross + r1 * s1,
    )


class _GlobalSection:
    """Per-vertex data attached to a fixed graph."""

    component_cls = None

    def __init__(self, graph: TrivalentGraph, components):
        components = tuple(components)
        if len(components) != graph.vertex_count:
            raise ScalarDomainMismatch(
                f"expected {graph.vertex_count} components, got {len(components)}")
        self.graph = graph
        self.components = components

    def component(self, v: int):
        return self.components[v]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.graph == other.graph and self.components == other.components

    def __add__(self, other):
        return type(self)(self.graph, tuple(a + b for a, b in
                                            zip(self.components, other.components)))

    def __neg__(self):
        return type(self)(self.graph, tuple(-c for c in self.components))

    def scale(self, s):
        return type(self)(self.graph, tuple(c.scale(s) for c in self.components))

    def domain(self):
        return domain_of(getattr(self.components[0], self._probe_field))


class GlobalDifferential(_GlobalSection):
    """Tuple of component differentials with cancelling residues at nodes."""

    _probe_field = "r0"

    def residue_matching_residual(self):
        """Largest |res + res| over nodes; zero for a true global section."""
        g = self.graph
        worst = 0
        for a, b in g.edges:
            s = (self.components[g.vertex_of(a)].residue(g.marked_point(a))
                 + self.components[g.vertex_of(b)].residue(g.marked_point(b)))
            worst = max(worst, abs(s))
        return worst


class GlobalQuadratic(_GlobalSection):
    """Tuple of component quadratic differentials with matching bi-residues."""

    _probe_field = "q0"


def canonical_matrix(graph: TrivalentGraph):
    """Residue-cancellation system for global differentials.

    One row per edge, columns (r0, r1) per vertex; entries are small
    integers, usable in either scalar domain.
    """
    ncols = 2 * graph.vertex_count
    rows = []
    for a, b in graph.edges:
        row = [0] * ncols
        for d in (a, b):
            base = 2 * graph.vertex_of(d)
            func = RESIDUE_FUNCTIONAL[graph.marked_point(d)]
            row[base] += func[0]
            row[base + 1] += func[1]
        rows.append(row)
    return rows


def canonical_space(graph: TrivalentGraph, domain: str = EXACT) -> KernelReport:
    """Global sections of the dualizing sheaf; dimension g, rank 3g - 4."""
    check_domain(domain)
    report = solve_kernel(canonical_matrix(graph), 2 * graph.vertex_count, domain)
    report.basis = [
        GlobalDifferential(graph, [ComponentDifferential(vec[2 * v], vec[2 * v + 1])
                                   for v in range(graph.vertex_count)])
        for vec in report.basis
    ]
    return report


def double_canonical_matrix(graph: TrivalentGraph):
    """Bi-residue matching system for global quadratic differentials.

    One row per edge: the bi-residue functional on the lower-dart side
    minus the functional on the partner side.
    """
    ncols = 3 * graph.vertex_count
    rows = []
    for a, b in graph.edges:
        row = [0] * ncols
        for d, sign in ((a, 1), (b, -1)):
            base = 3 * graph.vertex_of(d)
            func = BIRESIDUE_FUNCTIONAL[graph.marked_point(d)]
            for j in range(3):
                row[base + j] += sign * func[j]
        rows.append(row)
    return rows


def double_canonical_space(graph: TrivalentGraph, domain: str = EXACT) -> KernelReport:
    """Global quadratic differentials; dimension 3g - 3, full rank system."""
    check_domain(domain)
    report = solve_kernel(double_canonical_matrix(graph), 3 * graph.vertex_count,
                          domain)
    report.basis = [
        GlobalQuadratic(graph, [ComponentQuadratic(vec[3 * v], vec[3 * v + 1],
                                                   vec[3 * v + 2])
                                for v in range(graph.vertex_count)])
        for vec in report.basis
    ]
    return report


def bires_coordinates(omega: GlobalQuadratic):
    """Per-edge bi-residues of a global quadratic differential.

    The two sides of each node must agree: exactly in the exact domain,
    within MATCH_TOL relative to the overall scale in the float domain.
    Returns one scalar per edge in canonical edge order.
    """
    return _matched_biresidues(omega.graph,
                               [c.coefficients() for c in omega.components])


def _matched_biresidues(g: TrivalentGraph, triples):
    """bires_coordinates on per-vertex (q0, q1, q2) triples."""
    exact = domain_of(triples[0][0]) == EXACT
    scale = 1
    if not exact:
        scale = max([1.0] + [abs(x) for t in triples for x in t])
    bires = [(q0, q0 + q1 + q2, q2) for q0, q1, q2 in triples]
    coords = []
    for e, (a, b) in enumerate(g.edges):
        lhs = bires[g.vertex_of(a)][g.marked_point(a)]
        rhs = bires[g.vertex_of(b)][g.marked_point(b)]
        diff = abs(lhs - rhs)
        if (diff != 0) if exact else (diff > MATCH_TOL * scale):
            raise MatchingViolated(
                f"bi-residues differ across edge {e}: {lhs} vs {rhs}")
        coords.append(lhs)
    return coords


def constant_differential(graph: TrivalentGraph, r0, r1,
                          domain: str = EXACT) -> GlobalDifferential:
    """Same component differential on every vertex (handy in tests)."""
    c = ComponentDifferential(as_scalar(r0, domain), as_scalar(r1, domain))
    return GlobalDifferential(graph, [c] * graph.vertex_count)
