"""Higgs fields on a framed graph curve.

A Higgs field assigns to each vertex a traceless 2x2 matrix of
logarithmic differentials, given by the three independent entries
(w11, w12, w21) with w22 = -w11.  A HiggsField is the flat tuple of
their 6V coefficients, (w11.r0, w11.r1, w12.r0, w12.r1, w21.r0, w21.r1)
vertex by vertex: the (r0, r1) layout of sections.GlobalDifferential
three times over.  At a node the residue matrices on the two sides must
cancel after transport by the framing:

    R_source + a(d) R_target a(d)^-1 = 0,

where d is the edge's lower dart, R_source the residue matrix at d's
marked point on d's vertex and R_target the one on the partner side.
The per-vertex sums R_0 + R_1 + R_inf = 0 hold identically in the chosen
differential basis and are therefore never imposed as equations.

For a fixed framing the solution space is a vector space, of dimension
3g - 3 for generic framings; the identity framing jumps to 3g (the
trivial bundle carries sl2 tensor the g-dimensional section space).
It depends only on the framing, so higgs_space solves it once per
framing and keeps the result on the framing: random_higgs_field and the
Jacobians of hitchin, called without a basis, reuse that solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .framings import Framing, GaugeTransform, flat_linearization, zero_section
from .graphs import TrivalentGraph
from .linalg import KernelReport, _clear_denominators, solve_kernel
from .matrices import Mat2, adjoint_matrix, from_sl2_coords
from .scalars import EXACT
from .sections import RESIDUE_FUNCTIONAL, _coefficient_tuple, _residues


def _residue_matrix(coeffs, base: int, point: int) -> Mat2:
    """Residue matrix at a marked point from the six coefficients at base."""
    return from_sl2_coords(*(_residues(coeffs[i], coeffs[i + 1])[point]
                             for i in (base, base + 2, base + 4)))


def _vertex_coefficients(m0: Mat2, m1: Mat2) -> tuple:
    """The six coefficients of a vertex from its residue matrices at 0 and 1."""
    return (m0.a, m1.a, m0.b, m1.b, m0.c, m1.c)


class HiggsField:
    """Per-vertex traceless matrices of logarithmic differentials.

    The stored data is ``coefficients``, the flat tuple of 6V
    coefficients (w11.r0, w11.r1, w12.r0, w12.r1, w21.r0, w21.r1) per
    vertex, and their scalar domain ``domain``.
    """

    __slots__ = ("graph", "coefficients", "domain")

    def __init__(self, graph: TrivalentGraph, coefficients):
        self.graph = graph
        self.coefficients, self.domain = _coefficient_tuple(graph, coefficients, 6)

    def residue_matrix(self, v: int, point: int) -> Mat2:
        """Traceless residue matrix of the field at a marked point of vertex v."""
        return _residue_matrix(self.coefficients, 6 * v, point)

    def __eq__(self, other):
        if not isinstance(other, HiggsField):
            return NotImplemented
        return self.graph == other.graph and self.coefficients == other.coefficients


def assemble_higgs_constraints(framing: Framing):
    """Node-cancellation system for Higgs fields with the given framing.

    Three rows per edge (the (x11, x12, x21) coordinates of the matrix
    equation), six columns per vertex; each edge's lower dart anchors
    its equation.
    """
    g = framing.graph
    ncols = 6 * g.vertex_count
    rows = []
    for d, p in g.edges:
        block = [[0] * ncols for _ in range(3)]
        # Source side: identity transport.
        func = RESIDUE_FUNCTIONAL[g.marked_point(d)]
        base = 6 * g.vertex_of(d)
        for r in range(3):
            block[r][base + 2 * r] += func[0]
            block[r][base + 2 * r + 1] += func[1]
        # Target side conjugated by the transport into the source frame.
        ad = adjoint_matrix(framing.matrix(d))
        func = RESIDUE_FUNCTIONAL[g.marked_point(p)]
        base = 6 * g.vertex_of(p)
        for r in range(3):
            for k in range(3):
                coeff = ad[r][k]
                if coeff:
                    block[r][base + 2 * k] += coeff * func[0]
                    block[r][base + 2 * k + 1] += coeff * func[1]
        rows.extend(block)
    return rows


def higgs_space(framing: Framing) -> KernelReport:
    """Solve the node-cancellation system in the framing's domain, as HiggsFields.

    A framing's matrices never change, so the system is solved once per
    framing, on the first call, and the report is stored on the framing
    and shared by every later call.  Its basis is a tuple, so no caller
    can change the basis another caller sees.
    """
    if framing._higgs_space is None:
        rows = assemble_higgs_constraints(framing)
        report = solve_kernel(rows, 6 * framing.graph.vertex_count, framing.domain)
        report.basis = tuple(HiggsField(framing.graph, vec) for vec in report.basis)
        framing._higgs_space = report
    return framing._higgs_space


def higgs_residual(phi: HiggsField, framing: Framing):
    """Largest entry of R_source + a R_target a^-1 over all edges.

    Exact fields on exact framings are checked on integers: with phi
    scaled by its lcm denominator L and a = T/d for an integer matrix T,
    d^2 L (R_s + a R_t a^-1) = d^2 L R_s + T (L R_t) adj(T), since a^-1
    is the adjugate of a (det a = 1).
    """
    g = framing.graph
    worst = 0
    if framing.domain != EXACT or phi.domain != EXACT:
        for a, b in g.edges:
            r_s = phi.residue_matrix(g.vertex_of(a), g.marked_point(a))
            r_t = phi.residue_matrix(g.vertex_of(b), g.marked_point(b))
            t = framing.matrix(a)
            worst = max(worst, (r_s + t * r_t * t.inv()).max_norm())
        return worst
    coeffs, den = _clear_denominators(phi.coefficients)
    for a, b in g.edges:
        r_s = _residue_matrix(coeffs, 6 * g.vertex_of(a), g.marked_point(a))
        r_t = _residue_matrix(coeffs, 6 * g.vertex_of(b), g.marked_point(b))
        (p, q, r, s), d = _clear_denominators(framing.matrix(a).entries())
        m = (r_s.scale(d * d) + Mat2(p, q, r, s) * r_t * Mat2(s, -q, -r, p)).max_norm()
        if m:
            worst = max(worst, Fraction(m, den * d * d))
    return worst


def gauge_transform_higgs(gauge: GaugeTransform, phi: HiggsField) -> HiggsField:
    """Conjugate the matrix of differentials at each vertex by the gauge."""
    c = phi.coefficients
    out = []
    for v in range(phi.graph.vertex_count):
        ad = adjoint_matrix(gauge.matrix(v))
        r0 = c[6 * v:6 * v + 6:2]
        r1 = c[6 * v + 1:6 * v + 6:2]
        for r in range(3):
            out.append(sum(ad[r][k] * r0[k] for k in range(3)))
            out.append(sum(ad[r][k] * r1[k] for k in range(3)))
    return HiggsField(phi.graph, out)


def random_higgs_field(framing: Framing, seed: int) -> HiggsField:
    """Seeded random element of the framing's Higgs space (a kernel combination).

    The kernel has dimension at least 3g - 3 (9g - 9 equations in 12g - 12
    unknowns), so the basis is never empty.
    """
    report = higgs_space(framing)
    rng = Random(seed)
    if framing.domain == EXACT:
        coeffs = [rng.randint(-9, 9) for _ in report.basis]
        if not any(coeffs):
            coeffs[0] = 1
        # sum c_k psi_k over the numerators at one common denominator
        cleared = [_clear_denominators(psi.coefficients) for psi in report.basis]
        den = math.lcm(*(d for _, d in cleared))
        acc = [0] * (6 * framing.graph.vertex_count)
        for c, (ints, d) in zip(coeffs, cleared):
            if c:
                s = c * (den // d)
                acc = [a + s * x for a, x in zip(acc, ints)]
        return HiggsField(framing.graph, [Fraction(a, den) for a in acc])
    coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in report.basis]
    acc = [0j] * (6 * framing.graph.vertex_count)
    for c, psi in zip(coeffs, report.basis):
        acc = [a + c * x for a, x in zip(acc, psi.coefficients)]
    return HiggsField(framing.graph, acc)


# -- per-edge residue parameterization ---------------------------------


@dataclass
class ResidueParameterization:
    """Higgs space in per-edge residue coordinates.

    One traceless matrix per edge (the residue at the lower dart), with
    the partner side determined by the node cancellation; the only
    remaining equations are the per-vertex sums, three rows per vertex.
    matches_flat_linearization records whether that system coincides,
    entry by entry, with the vertex-relation Jacobian of the zero
    section of the same framing.
    """

    matrix: list
    kernel: KernelReport
    basis_fields: list
    matches_flat_linearization: bool


def residue_parameterization_matrix(framing: Framing):
    """Per-vertex sum conditions in per-edge residue coordinates.

    Rows: three per vertex, vertex order.  Columns: three per edge in
    canonical edge order, (x11, x12, x21) coordinates of the residue at
    the edge's lower dart.  The lower dart contributes its coordinates
    directly; the partner dart contributes minus the adjoint action of
    its transport matrix.
    """
    g = framing.graph
    ncols = 3 * len(g.edges)
    blocks = [[[0] * ncols for _ in range(3)] for _ in range(g.vertex_count)]
    for e, (a, b) in enumerate(g.edges):
        block = blocks[g.vertex_of(a)]
        for r in range(3):
            block[r][3 * e + r] += 1
        ad = adjoint_matrix(framing.matrix(b))
        block = blocks[g.vertex_of(b)]
        for r in range(3):
            for k in range(3):
                if ad[r][k]:
                    block[r][3 * e + k] -= ad[r][k]
    return [row for block in blocks for row in block]


def higgs_from_edge_residues(framing: Framing, vec) -> HiggsField:
    """Rebuild a Higgs field from per-edge residue coordinates.

    vec lists (x11, x12, x21) per edge for the lower-dart residue; the
    partner residue is -a(partner) X a(partner)^-1.  The differentials
    are read off from the residues at marked points 0 and 1 of each
    vertex, which pins the residue at infinity through the basis.
    """
    g = framing.graph
    per_dart = {}
    for e, (a, b) in enumerate(g.edges):
        x = from_sl2_coords(vec[3 * e], vec[3 * e + 1], vec[3 * e + 2])
        per_dart[a] = x
        t = framing.matrix(b)
        per_dart[b] = -(t * x * t.inv())
    out = []
    for v in range(g.vertex_count):
        by_point = {g.marked_point(d): per_dart[d] for d in g.vertex_darts(v)}
        out.extend(_vertex_coefficients(by_point[0], by_point[1]))
    return HiggsField(g, out)


def residue_parameterization(framing: Framing) -> ResidueParameterization:
    """Solve the Higgs space in residue coordinates and cross-check it.

    The kernel, in the framing's domain, maps isomorphically onto
    higgs_space(framing); the system matrix is compared against the
    flat-bundle linearization at the zero section, which is built from
    the same products with identity factors and so equals it entry by
    entry in both domains.
    """
    rows = residue_parameterization_matrix(framing)
    report = solve_kernel(rows, 3 * len(framing.graph.edges), framing.domain)
    fields = [higgs_from_edge_residues(framing, vec) for vec in report.basis]
    matches = flat_linearization(zero_section(framing)) == rows
    return ResidueParameterization(matrix=rows, kernel=report,
                                   basis_fields=fields,
                                   matches_flat_linearization=matches)
