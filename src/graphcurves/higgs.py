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

The two domains solve different systems for the same space.  An exact
framing solves the node-cancellation system above (3E rows, 6V
columns): its reduced echelon form gives the canonical basis, one field
per free coefficient, that the exact outputs are built on.  A float
framing solves the per-vertex sums in per-edge residue coordinates (3V
rows, 3E columns, the system flat ranks, residue_parameterization_matrix):
one traceless residue per edge fixes the field, its partner being the
transport.  That SVD is a third smaller; its kernel is lifted to the 6V
coefficients and made orthonormal there, so a float basis is
orthonormal either way.  Each edge's coordinates are chosen so that the
pair of residues they give has their norm (_float_residue_system); the
float basis then meets the node cancellation to rounding of order
eps |Ad|, as an SVD of the node-cancellation system does.

higgs_residual checks a whole sequence of fields, such as that basis, in
one pass: the per-edge work is done once for all the fields, exact
fields on exact edges run on integer numerators, and every other field
and edge on float64 arrays with the rounding of the Mat2 product.  It
reads the residue matrices and the framing matrices themselves, not the
rows that assemble_higgs_constraints builds from them, so a fault in the
assembly shows as a nonzero residual instead of cancelling out.

Every kernel reads a sequence of fields in one working form per domain
(_working_form).  A basis from higgs_space keeps each form, read-only,
once the first kernel has made it (the float solve makes its own), so
no kernel converts that basis again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .errors import ValidationError
from .framings import Framing, GaugeTransform, flat_linearization, zero_section
from .linalg import KernelReport, _clear_denominators, solve_kernel
from .matrices import SL2_BASIS, Mat2, adjoint_matrix, from_sl2_coords, sl2_coords
from .scalars import EXACT, FLOAT, _ComplexBatch, _from_pairs, _to_pairs, domain_of
from .sections import RESIDUE_FUNCTIONAL, _residues, _VertexCoefficients


def _residue_coords(c, base: int, point: int):
    """(x11, x12, x21) of the residue matrix at a marked point from the six
    coefficients at base."""
    if point == 0:
        return c[base], c[base + 2], c[base + 4]
    if point == 1:
        return c[base + 1], c[base + 3], c[base + 5]
    return (-(c[base] + c[base + 1]), -(c[base + 2] + c[base + 3]),
            -(c[base + 4] + c[base + 5]))


def _residue_matrix(coeffs, base: int, point: int) -> Mat2:
    """Residue matrix at a marked point from the six coefficients at base."""
    return from_sl2_coords(*_residue_coords(coeffs, base, point))


def _vertex_coefficients(m0: Mat2, m1: Mat2) -> tuple:
    """The six coefficients of a vertex from its residue matrices at 0 and 1."""
    return (m0.a, m1.a, m0.b, m1.b, m0.c, m1.c)


class HiggsField(_VertexCoefficients):
    """Per-vertex traceless matrices of logarithmic differentials.

    The stored data is ``coefficients``, the flat tuple of 6V
    coefficients (w11.r0, w11.r1, w12.r0, w12.r1, w21.r0, w21.r1) per
    vertex, and their scalar domain ``domain``.
    """

    __slots__ = ()
    WIDTH = 6

    def residue_matrix(self, v: int, point: int) -> Mat2:
        """Traceless residue matrix of the field at a marked point of vertex v."""
        return _residue_matrix(self.coefficients, 6 * v, point)


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
    """The framing's Higgs space, solved in its domain, as HiggsFields.

    An exact framing solves the node-cancellation system
    (assemble_higgs_constraints); the basis is read off its reduced
    echelon form, one field per free coefficient, and defines the exact
    output.  A float framing solves the smaller per-vertex-sum system in
    per-edge residue coordinates (_float_residue_system) by SVD and
    lifts that kernel to the 6V coefficients (_float_higgs_space).
    Either way the report describes the node-cancellation system: ncols
    is 6V, nrows its 3E rows and rank 6V - dim.

    A framing's matrices never change, so the space is solved once per
    framing, on the first call, and the report is stored on the framing
    and shared by every later call.  Its basis is a tuple, and it keeps
    its working form per domain (_working_form) read-only, so no caller
    can change the basis another caller sees.
    """
    if framing._higgs_space is None:
        g = framing.graph
        if framing.domain == EXACT:
            report = solve_kernel(assemble_higgs_constraints(framing),
                                  6 * g.vertex_count, EXACT)
            report.basis = _Basis(HiggsField(g, vec) for vec in report.basis)
        else:
            report = _float_higgs_space(framing)
        framing._higgs_space = report
    return framing._higgs_space


class _Basis(tuple):
    """A Higgs basis as higgs_space returns it: a tuple of HiggsFields that
    keeps its working form in each domain once made, forms[domain]."""

    def __new__(cls, fields, forms=()):
        basis = super().__new__(cls, fields)
        basis.forms = dict(forms)
        return basis


def _working_form(fields, graph, domain: str):
    """The form in which the kernels read a sequence of HiggsFields on graph.

    EXACT: per field, its integer numerators, their lcm denominator
    (linalg._clear_denominators) and its live vertices, one bool per
    vertex that has a nonzero coefficient.  FLOAT: the complex batch of
    the coefficients, one row per field (scalars._to_pairs).
    A basis from higgs_space keeps each form once made, the float one
    taken from the solve's own array with the same bits; any other
    sequence is converted on each call.  The form is read-only: tuples,
    and arrays that cannot be written.  Raises ValidationError when a
    field lies on another graph.
    """
    if any(phi.graph != graph for phi in fields):
        raise ValidationError("Higgs fields on another graph")
    forms = getattr(fields, "forms", {})
    if domain not in forms:
        if domain == EXACT:
            cleared = (_clear_denominators(phi.coefficients) for phi in fields)
            forms[EXACT] = tuple(
                (tuple(c), den, tuple(any(c[i:i + 6]) for i in range(0, len(c), 6)))
                for c, den in cleared)
        else:
            forms[FLOAT] = _read_only(_to_pairs([phi.coefficients for phi in fields],
                                                6 * graph.vertex_count))
    return forms[domain]


def _read_only(arrays):
    """The arrays, each made so that it cannot be written."""
    for x in arrays:
        x.setflags(write=False)
    return arrays


def _float_residue_system(framing: Framing):
    """The per-vertex sums of a float framing in orthonormal edge coordinates.

    Edge e = (a, b) gets three coordinates u_e.  Its residue at the
    partner dart b is upper[e] u_e and its residue at the lower dart a is
    lower[e] u_e = -Ad(a) upper[e] u_e, the transport that higgs_residual
    applies to the partner side.  upper[e] is the top half of the Q factor
    of the 6 x 3 block (I; -Ad(a)), so (upper; lower) has orthonormal
    columns: the pair of residues of an edge has the norm of its
    coordinates, however large Ad(a) is.  lower is computed as the
    product, not taken from Q, so the two residues match as higgs_residual
    checks them, to the rounding of one transport.

    Returns (rows, upper, lower): rows is the 3V x 3E system, the three
    residues of a vertex summing to zero, as a complex array.  It is
    residue_parameterization_matrix with each edge's three columns
    multiplied by the invertible block lower[e]: the same kernel, in
    other coordinates.
    """
    import numpy as np

    g = framing.graph
    nedges = len(g.edges)
    ad = np.array([adjoint_matrix(framing.matrix(a)) for a, _ in g.edges],
                  dtype=complex).reshape(nedges, 3, 3)
    stacked = np.concatenate((np.broadcast_to(np.eye(3), ad.shape), -ad), axis=1)
    upper = np.linalg.qr(stacked).Q[:, :3]
    lower = -ad @ upper
    rows = np.zeros((g.vertex_count, 3, nedges, 3), dtype=complex)
    e = np.arange(nedges)
    for side, block in ((1, upper), (0, lower)):
        rows[g._edge_ends[side][0], :, e, :] += block
    return rows.reshape(3 * g.vertex_count, 3 * nedges), upper, lower


def _float_higgs_space(framing: Framing) -> KernelReport:
    """higgs_space of a float framing, through per-edge residue coordinates.

    The SVD kernel of _float_residue_system (3V x 3E) gives each edge's
    two residues; a vertex's coefficients are its residues at marked
    points 0 and 1, and a dart at marked point 2 adds nothing, its
    residue being -(r0 + r1).  The lifted basis is made orthonormal in
    coefficient coordinates by one QR, and its entries leave the array as
    Python complex numbers, as float_nullspace's do.

    The orthonormal edge coordinates keep the rounding of the basis, as
    higgs_residual measures it, of order eps |Ad|, as for an SVD of the
    node-cancellation system.  A residue at marked point 2 is read off
    the vertex sum, so it carries that sum's rounding, and the residual
    transports it through Ad of its edge.  In these coordinates the
    system has entries of order 1 and the sums round to order eps; with
    a plain residue per edge as the coordinates its entries reach |Ad|,
    and the residual grew as eps |Ad|^2.
    """
    import numpy as np

    g = framing.graph
    nedges, ncols = len(g.edges), 6 * g.vertex_count
    rows, upper, lower = _float_residue_system(framing)
    kernel = solve_kernel(rows, 3 * nedges, FLOAT).basis
    u = np.array(kernel, dtype=complex).reshape(len(kernel), nedges, 3)
    # [field, vertex, coordinate, marked point]: coefficient 6v + 2k + p
    coeffs = np.zeros((len(kernel), g.vertex_count, 3, 2), dtype=complex)
    for side, block in ((1, upper), (0, lower)):
        # [edge, field, coordinate]: each field's residue at the edge's dart
        residues = u.swapaxes(0, 1) @ block.swapaxes(1, 2)
        for e, (v, point) in enumerate(zip(*g._edge_ends[side])):
            if point != 2:
                coeffs[:, v, :, point] = residues[e]
    z = np.linalg.qr(coeffs.reshape(len(kernel), ncols).T)[0].T
    basis = _Basis((HiggsField(g, vec) for vec in z.tolist()),
                   {FLOAT: _read_only(_to_pairs(z, ncols))})
    return KernelReport(domain=FLOAT, nrows=3 * nedges, ncols=ncols,
                        rank=ncols - len(basis), basis=basis)


def higgs_residual(fields, framing: Framing):
    """Largest entry of R_source + a R_target a^-1 over the fields and edges.

    fields is a sequence of HiggsFields on the framing's graph, read in
    their working form (_working_form), so a field on another graph
    raises ValidationError; an empty one gives 0.  The check reads the
    residues and the framing matrices themselves, never the rows of
    assemble_higgs_constraints, so it checks that assembly
    independently.  The work of an edge (its
    transport and its inverse) is done once for all the fields.

    An exact field is checked on integers where the edge's matrix is
    exact (every entry an int or Fraction): with phi scaled by its lcm
    denominator L and a = T/d for an integer matrix T,
    d^2 L (R_s + a R_t a^-1) = d^2 L R_s + T (L R_t) adj(T), since a^-1
    is the adjugate of a (det a = 1).  An edge whose two vertices carry
    only zero coefficients has residual 0 there and is skipped.  Every
    other field and edge is checked in floats, all at once
    (_float_residual), to the bits of the Mat2 product on the fields'
    complex copies.  The result is 0, a Fraction or a float.
    """
    g = framing.graph
    exact_edges, float_edges = [], []
    for e, (a, _) in enumerate(g.edges):
        exact = domain_of(*framing.matrix(a).entries()) == EXACT
        (exact_edges if exact else float_edges).append(e)
    exact_fields = [phi for phi in fields if phi.domain == EXACT]
    float_fields = [phi for phi in fields if phi.domain != EXACT]
    if not (exact_fields and float_fields):
        # fields of one domain, such as a basis, are read whole, in the
        # working form a basis keeps
        exact_fields, float_fields = (fields, []) if exact_fields else ([], fields)
    return max(_exact_residual(exact_fields, framing, exact_edges),
               _float_residual(exact_fields, framing, float_edges),
               _float_residual(float_fields, framing, range(len(g.edges))))


def _conjugation_coefficients(p, q, r, s):
    """The nine ints of X -> T X adj(T), T = [[p, q], [r, s]], on
    (x11, x12, x21) coordinates, row by row (a row per image coordinate)."""
    t, adj = Mat2(p, q, r, s), Mat2(s, -q, -r, p)
    cols = [sl2_coords(t * e * adj) for e in SL2_BASIS]
    return tuple(cols[k][row] for row in range(3) for k in range(3))


def _exact_residual(fields, framing: Framing, edges):
    """higgs_residual of exact fields over the edges (indices) with exact
    matrices."""
    if not (fields and edges):
        return 0
    g = framing.graph
    (vs, ps), (vt, pt) = g._edge_ends
    hoisted = []
    for e in edges:
        entries, d = _clear_denominators(framing.matrix(g.edges[e][0]).entries())
        hoisted.append((vs[e], ps[e], vt[e], pt[e], d * d,
                        _conjugation_coefficients(*entries)))
    worst = 0
    for c, den, live in _working_form(fields, g, EXACT):
        for u, pu, w, pw, dd, (a0, a1, a2, b0, b1, b2, c0, c1, c2) in hoisted:
            if not (live[u] or live[w]):
                continue
            x0, x1, x2 = _residue_coords(c, 6 * u, pu)
            y0, y1, y2 = _residue_coords(c, 6 * w, pw)
            m = max(abs(dd * x0 + a0 * y0 + a1 * y1 + a2 * y2),
                    abs(dd * x1 + b0 * y0 + b1 * y1 + b2 * y2),
                    abs(dd * x2 + c0 * y0 + c1 * y1 + c2 * y2))
            if m:
                worst = max(worst, Fraction(m, den * dd))
    return worst


def _float_residual(fields, framing: Framing, edges):
    """higgs_residual in floats, vectorised over the fields and the edges
    (indices).

    R_source + a R_target a^-1 is taken on Mat2s of complex batches
    (scalars._ComplexBatch), one row per field and a column per edge, so
    every entry rounds as in the Mat2 product of complex numbers.  The
    residues are taken on the fields' float working form
    (sections._residues), so the residue at marked point 2 is summed
    from the rounded r0 and r1.  The inverse transport is Mat2.inv(),
    and magnitudes are np.hypot, the hypot of abs(complex).
    """
    if not (fields and edges):
        return 0
    import numpy as np

    g = framing.graph
    # [field, 3v + k, point]: coordinate k of the residue matrix at the
    # vertex's marked point
    residues = _ComplexBatch.stack(
        _residues(*_working_form(fields, g, FLOAT).columns(2)), axis=-1)

    def residue_matrices(side):
        v, p = (np.take(ends, edges) for ends in g._edge_ends[side])
        return from_sl2_coords(*(residues.map(lambda a: a[:, 3 * v + k, p])
                                 for k in range(3)))

    def transport(mats):
        entries = [x for m in mats for x in m.entries()]
        return Mat2(*_to_pairs([entries], len(entries)).columns(4))

    mats = [framing.matrix(g.edges[e][0]) for e in edges]
    gap = residue_matrices(0) + (transport(mats) * residue_matrices(1)
                                 * transport([t.inv() for t in mats]))
    return max(0, max(float(np.hypot(*x).max()) for x in gap.entries()))


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
    report, g = higgs_space(framing), framing.graph
    rng = Random(seed)
    if framing.domain == EXACT:
        coeffs = [rng.randint(-9, 9) for _ in report.basis]
        if not any(coeffs):
            coeffs[0] = 1
        # sum c_k psi_k over the numerators at one common denominator
        form = _working_form(report.basis, g, EXACT)
        den = math.lcm(*(d for _, d, _ in form))
        acc = [0] * (6 * g.vertex_count)
        for c, (ints, d, _) in zip(coeffs, form):
            if c:
                s = c * (den // d)
                acc = [a + s * x for a, x in zip(acc, ints)]
        return HiggsField(g, [Fraction(a, den) for a in acc])
    coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in report.basis]
    return HiggsField(g, _float_combination(
        coeffs, _working_form(report.basis, g, FLOAT), 0j))


def _float_combination(coeffs, parts, start=None):
    """sum_k c_k psi_k over a float basis given as its float working form
    (_working_form), a complex batch, with the rounding of the scalar loop

        acc = start; for c, psi: acc = [a + c * x for a, x in zip(acc, psi)]

    whose products are taken at once and summed in its order.  With start
    None the loop starts at the first term c_0 psi_0, not at 0j + c_0
    psi_0, which differ in signed zeros.
    The entries are Python complex numbers (scalars._from_pairs), as the
    loop gives on a basis of Python complex numbers.
    """
    acc = start
    for term in (_to_pairs([[c] for c in coeffs], 1) * parts).rows():
        acc = term if acc is None else acc + term
    return _from_pairs(acc).tolist()


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
