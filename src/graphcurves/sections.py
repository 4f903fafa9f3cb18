"""Sections of the dualizing sheaf and its square on a graph curve.

On a single component (a projective line with marked points 0, 1, inf) a
logarithmic differential is

    omega = (r0 / z + r1 / (z - 1)) dz,

with residues r0 at 0, r1 at 1 and minus their sum at inf (_residues);
the space is two dimensional per vertex.  A quadratic differential with
double poles at the marked points is

    Omega = (q0 + q1 z + q2 z^2) / (z^2 (z - 1)^2) dz^2,

with bi-residues (leading double-pole coefficients) q0 at 0, q2 at inf
and the sum of all three at 1 (_biresidues); three dimensions per vertex.

Per-vertex data is one flat coefficient tuple, vertex by vertex:
(r0, r1) per vertex for differentials (2V entries), (q0, q1, q2) per
vertex for quadratic differentials (3V entries).  A global section is
such a tuple whose residues cancel (for differentials) or whose
bi-residues agree (for quadratic differentials) across every node.
Global sections of the dualizing sheaf form a g-dimensional space; its
square gives a (3g-3)-dimensional space on which the per-edge
bi-residues are global coordinates.
"""
from __future__ import annotations

import cmath
from fractions import Fraction

from .errors import MatchingViolated, ValidationError
from .graphs import TrivalentGraph
from .linalg import KernelReport, _clear_denominators, solve_kernel
from .scalars import (EXACT, FLOAT, MATCH_TOL, _ComplexBatch, _from_pairs, _to_pairs,
                      domain_of)


def _residues(r0, r1):
    """Residues of the (r0, r1) differential at the marked points (0, 1, inf)."""
    return (r0, r1, -(r0 + r1))


def _biresidues(q0, q1, q2):
    """Bi-residues of the (q0, q1, q2) quadratic differential at (0, 1, inf)."""
    return (q0, q0 + q1 + q2, q2)


# Residue functionals on (r0, r1), indexed by marked point.
RESIDUE_FUNCTIONAL = tuple(zip(_residues(1, 0), _residues(0, 1)))
# Bi-residue functionals on (q0, q1, q2), indexed by marked point.
BIRESIDUE_FUNCTIONAL = tuple(zip(_biresidues(1, 0, 0), _biresidues(0, 1, 0),
                                 _biresidues(0, 0, 1)))


def multiply_differentials(d1, d2):
    """(q0, q1, q2) of the product of the (r0, r1) and (s0, s1) differentials.

    The numerator over z^2 (z-1)^2 is
    r0 s0 (z-1)^2 + (r0 s1 + r1 s0) z (z-1) + r1 s1 z^2, and the
    bi-residue of the product at each marked point is the product of the
    residues there.
    """
    return _product_coefficients(*d1, *d2)


def _product_coefficients(r0, r1, s0, s1, minus_two_r0=None):
    """(q0, q1, q2) of the product of (r0, r1) and (s0, s1) differentials,
    with -2 r0 taken in r0's own scalars unless given as minus_two_r0."""
    r0s0 = r0 * s0
    cross = r0 * s1 + r1 * s0
    if minus_two_r0 is None:
        minus_two_r0 = -2 * r0
    return (r0s0, minus_two_r0 * s0 - cross, r0s0 + cross + r1 * s1)


class _VertexCoefficients:
    """A flat tuple of WIDTH coefficients per vertex of graph, and their
    domain_of; the base of the per-vertex coefficient classes.

    Raises ValidationError when coefficients is not iterable, on any
    other length, on mixed domains, and on a float coefficient that is
    nan or infinite (every comparison with nan is false, so the rules
    downstream would accept it).
    """

    __slots__ = ("graph", "coefficients", "domain")
    WIDTH = 0

    def __init__(self, graph: TrivalentGraph, coefficients):
        try:
            coefficients = tuple(coefficients)
        except TypeError:
            raise ValidationError(f"coefficients must be a sequence, "
                                  f"got {type(coefficients).__name__}") from None
        if len(coefficients) != self.WIDTH * graph.vertex_count:
            raise ValidationError(f"need {self.WIDTH * graph.vertex_count} "
                                  f"coefficients, got {len(coefficients)}")
        domain = domain_of(*coefficients)
        if domain == FLOAT and not all(map(cmath.isfinite, coefficients)):
            raise ValidationError("float coefficients must be finite")
        self.graph, self.coefficients, self.domain = graph, coefficients, domain

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.graph == other.graph and self.coefficients == other.coefficients


class GlobalDifferential(_VertexCoefficients):
    """Differentials on every component: coefficients (r0, r1) per vertex."""

    __slots__ = ()
    WIDTH = 2


class GlobalQuadratic(_VertexCoefficients):
    """Quadratic differentials on every component: (q0, q1, q2) per vertex."""

    __slots__ = ()
    WIDTH = 3


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
    report = solve_kernel(canonical_matrix(graph), 2 * graph.vertex_count, domain)
    report.basis = [GlobalDifferential(graph, vec) for vec in report.basis]
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
    report = solve_kernel(double_canonical_matrix(graph), 3 * graph.vertex_count,
                          domain)
    report.basis = [GlobalQuadratic(graph, vec) for vec in report.basis]
    return report


def bires_coordinates(quadratics):
    """Per-edge bi-residues of global quadratic differentials on one graph.

    quadratics is a sequence of GlobalQuadratics on one graph; the result
    has one row per quadratic, one scalar per edge in canonical edge
    order, and an empty sequence gives [].  The two sides of each node
    must agree.  When every quadratic is exact, each is matched exactly on
    its integer numerators (_exact_biresidues).  Otherwise the whole
    sequence is FLOAT, as domain_of decides for a value, and is matched
    at once (_float_biresidue_rows), within MATCH_TOL relative to each
    quadratic's scale; its values are Python complex numbers.
    MatchingViolated names the first edge that fails in the first
    quadratic with one; a quadratic on another graph raises
    ValidationError.
    """
    if not quadratics:
        return []
    g = quadratics[0].graph
    if any(omega.graph != g for omega in quadratics):
        raise ValidationError("quadratic differentials on different graphs")
    if all(omega.domain == EXACT for omega in quadratics):
        return [_exact_biresidues(g, omega.coefficients) for omega in quadratics]
    q = _to_pairs([omega.coefficients for omega in quadratics], 3 * g.vertex_count)
    return _from_pairs(_float_biresidue_rows(g, q.columns(3))).tolist()


def _float_biresidue_rows(g: TrivalentGraph, q):
    """The float bi-residue matcher, over many quadratic differentials at once.

    q is the triple (q0, q1, q2) of coefficients, each a complex batch
    (scalars._ComplexBatch) of shape (rows, V), one row per quadratic
    differential; the result is the (rows, E) batch of their per-edge
    bi-residues.  Each row is checked against MATCH_TOL times max(1, max
    |coefficient|) of that row, with magnitudes by np.hypot (the hypot of
    abs(complex)); MatchingViolated names the first edge that fails in
    the first row with one, with the two bi-residues as Python complex
    numbers.
    """
    import numpy as np

    # [row, vertex, point]: the bi-residues at (0, 1, inf)
    bires = _ComplexBatch.stack(_biresidues(*q), axis=-1)
    lhs, rhs = (bires.map(lambda b: b[:, v, p]) for v, p in g._edge_ends)
    scale = np.maximum(1.0, np.max([np.hypot(*x) for x in q], axis=(0, 2),
                                   initial=0.0))
    bad = np.argwhere(np.hypot(*(lhs - rhs)) > MATCH_TOL * scale[:, None])
    if len(bad):
        k, e = bad[0]
        raise MatchingViolated(
            f"bi-residues differ across edge {e}: "
            f"{_from_pairs(lhs)[k, e].item()} vs {_from_pairs(rhs)[k, e].item()}")
    return lhs


def _exact_biresidues(g: TrivalentGraph, coeffs):
    """The per-edge bi-residues of one exact quadratic differential's flat
    coefficients, matched on their integer numerators.

    The coefficients are cleared of denominators once, the bi-residues
    compared as ints, and each edge's divided back once.  An entry has
    the type rational arithmetic gives it: an int where every
    coefficient it sums is an int, a Fraction otherwise.
    """
    ints, den = _clear_denominators(coeffs)
    bires = list(map(_biresidues, ints[::3], ints[1::3], ints[2::3]))
    # per bi-residue, the number of Fraction coefficients it sums
    fractions = [not isinstance(x, int) for x in coeffs]
    kinds = list(map(_biresidues, fractions[::3], fractions[1::3], fractions[2::3]))

    def value(v, point):
        n = bires[v][point]
        return Fraction(n, den) if kinds[v][point] else n // den

    coords = []
    for e, (u, pu, w, pw) in enumerate(zip(*g._edge_ends[0], *g._edge_ends[1])):
        if bires[u][pu] != bires[w][pw]:
            raise MatchingViolated(f"bi-residues differ across edge {e}: "
                                   f"{value(u, pu)} vs {value(w, pw)}")
        coords.append(value(u, pu))
    return coords
