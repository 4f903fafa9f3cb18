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
columns), the sparse node rows of assemble_higgs_constraints
(sections._node_rows), by the one exact solve of the K and 2K spaces
too (sections._section_space): the canonical basis, one field per free
coefficient, as integer numerators over an lcm denominator.  The exact
outputs are built on that basis.  A float
framing solves the per-vertex sums in per-edge residue coordinates (3V
rows, 3E columns, the system flat ranks, residue_parameterization_matrix):
one traceless residue per edge fixes the field, its partner being the
transport.  That system is a third smaller and has full row rank at a
generic framing, so linalg's Cholesky certificate holds and the kernel
comes from one QR; an identity framing falls back to the SVD.  The
kernel is lifted to the 6V coefficients and made orthonormal there, so
a float basis is orthonormal either way.  Each edge's coordinates are
chosen so that the pair of residues they give has their norm
(_float_residue_system); the float basis then meets the node
cancellation to rounding of order eps |Ad|, as an orthonormal kernel of
the node-cancellation system does.

higgs_residual checks a whole sequence of fields, such as that basis, in
one pass: the per-edge work is done once for all the fields, exact
fields on exact edges run on integer numerators, and every other field
and edge on float64 arrays with the rounding of the Mat2 product.  It
reads the residue matrices and the framing matrices themselves, not the
rows that the solves build from them, so a fault in the assembly shows
as a nonzero residual instead of cancelling out.

Every kernel reads a sequence of fields in one working form per domain
(_working_form).  The exact form is sparse: per field, its lcm
denominator and the six integer numerators of each live vertex, one
with a nonzero coefficient.  A field of the exact basis lives on about
a third of the vertices at V = 40, and the exact kernels (higgs_residual,
random_higgs_field and hitchin's Jacobian rows) work on the live
vertices and the edges at them only.  The float form is the complex
batch of the coefficients.  Each solve makes its own form, and the
basis it returns (sections._Basis, the one lazy basis type of the K,
2K and Higgs solves, in both domains) keeps it, read-only, so no kernel
converts that basis.  The basis makes its HiggsFields, of
Fraction or complex coefficients, only when a caller first indexes,
slices or iterates it, and no CLI path does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .errors import ValidationError
from .framings import Framing, GaugeTransform, flat_linearization, zero_section
from .linalg import (KernelReport, _clear_denominators, _float_kernel, _fractions,
                     solve_kernel)
from .matrices import IDENTITY, Mat2, _conjugation, adjoint_matrix, from_sl2_coords
from .scalars import EXACT, FLOAT, _ComplexBatch, _from_pairs, _to_pairs, domain_of
from .sections import (RESIDUE_FUNCTIONAL, _Basis, _dense, _edges_at, _float_basis,
                       _live_form, _node_rows, _read_only, _residues, _section_space,
                       _VertexCoefficients)


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
    return _dense(_higgs_rows(framing), 6 * framing.graph.vertex_count)


def _higgs_rows(framing: Framing):
    """The sparse rows behind assemble_higgs_constraints (sections._node_rows),
    with each edge's blocks (Ad(1), Ad(a)) for its lower dart a."""
    g = framing.graph
    # the source side in its own frame, the partner side transported into it
    source = adjoint_matrix(IDENTITY)
    blocks = ((source, adjoint_matrix(framing.matrix(a))) for a, _ in g.edges)
    return _node_rows(g, 6, RESIDUE_FUNCTIONAL, blocks)


def higgs_space(framing: Framing) -> KernelReport:
    """The framing's Higgs space, solved in its domain, as HiggsFields.

    An exact framing solves the node-cancellation system
    (assemble_higgs_constraints) on sparse integers (sections._section_space);
    the basis is read off its reduced echelon form, one field per free
    coefficient, and defines the exact output.  A float framing solves
    the smaller per-vertex-sum system in per-edge residue coordinates
    (_float_residue_system), by QR when linalg's full-rank certificate
    holds and by SVD otherwise, and lifts that kernel to the 6V
    coefficients (_float_higgs_space).  Either way the report describes
    the node-cancellation system: ncols is 6V, nrows its 3E rows and
    rank 6V - dim.

    A framing's matrices never change, so the space is solved once per
    framing, on the first call, and the report is stored on the framing
    and shared by every later call.  Its basis (_Basis) is an immutable
    sequence that keeps its working form per domain (_working_form)
    read-only, so no caller can change the basis another caller sees.
    """
    if framing._higgs_space is None:
        if framing.domain == EXACT:
            g = framing.graph
            framing._higgs_space = _section_space(HiggsField, g, _higgs_rows(framing),
                                                  3 * len(g.edges), EXACT)
        else:
            framing._higgs_space = _float_higgs_space(framing)
    return framing._higgs_space


def _domains(fields) -> set:
    """The domains of the fields; a basis from higgs_space gives its own
    without making its fields."""
    if isinstance(fields, _Basis):
        return {fields.domain} if fields else set()
    return {phi.domain for phi in fields}


def _working_form(fields, graph, domain: str):
    """The form in which the kernels read a sequence of HiggsFields on graph.

    EXACT: per field, (live, den): den the lcm denominator of its
    coefficients, and live the pairs (v, the six integer numerators of
    vertex v) of the vertices v with a nonzero coefficient, in increasing
    order (_live_form).  FLOAT: the complex batch of the coefficients,
    one row per field (scalars._to_pairs).  A basis from higgs_space
    keeps each form once made, starting with the one its solve made, and
    is read without making its fields; any other sequence is converted
    on each call.  The form is read-only: tuples, and arrays that cannot
    be written.  Raises ValidationError when a field lies on another
    graph.
    """
    if isinstance(fields, _Basis):
        forms, graphs = fields.forms, [fields.graph]
    else:
        forms, graphs = {}, (phi.graph for phi in fields)
    if any(other != graph for other in graphs):
        raise ValidationError("Higgs fields on another graph")
    if domain not in forms:
        if domain == EXACT:
            cleared = (_clear_denominators(phi.coefficients) for phi in fields)
            forms[EXACT] = tuple(_live_form(((j, x) for j, x in enumerate(c) if x), den, 6)
                                 for c, den in cleared)
        else:
            forms[FLOAT] = _read_only(_to_pairs([phi.coefficients for phi in fields],
                                                6 * graph.vertex_count))
    return forms[domain]


def _integer_transport(a: Mat2):
    """(d^2, d^2 Ad(a)) on ints for an exact matrix a = T/d, T an integer
    matrix: det T = d^2 and a^-1 = adj(T)/d, so d^2 Ad(a) is
    _conjugation(T, adj T), adj T = [[s, -q], [-r, p]] for
    T = [[p, q], [r, s]]."""
    (p, q, r, s), d = _clear_denominators(a.entries())
    return d * d, _conjugation(Mat2(p, q, r, s), Mat2(s, -q, -r, p))


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

    The kernel of _float_residue_system (3V x 3E), kept as the array
    linalg._float_kernel returns (a QR under the full-rank certificate,
    else the SVD), gives each edge's two residues; a vertex's
    coefficients are its residues at marked points 0 and 1, and a dart at
    marked point 2 adds nothing, its residue being -(r0 + r1).  The
    lifted basis is made orthonormal in coefficient coordinates by one
    QR, and its entries leave the array as Python complex numbers, as
    float_nullspace's do.

    The orthonormal edge coordinates keep the rounding of the basis, as
    higgs_residual measures it, of order eps |Ad|, as for an orthonormal
    kernel of the node-cancellation system.  A residue at marked point 2
    is read off the vertex sum, so it carries that sum's rounding, and
    the residual transports it through Ad of its edge.  In these
    coordinates the system has entries of order 1 and the sums round to
    order eps; with a plain residue per edge as the coordinates its
    entries reach |Ad|, and the residual grew as eps |Ad|^2.
    """
    import numpy as np

    g = framing.graph
    nedges, ncols = len(g.edges), 6 * g.vertex_count
    rows, upper, lower = _float_residue_system(framing)
    kernel = _float_kernel(rows, 3 * nedges)
    u = kernel.reshape(len(kernel), nedges, 3)
    # [field, vertex, coordinate, marked point]: coefficient 6v + 2k + p
    coeffs = np.zeros((len(kernel), g.vertex_count, 3, 2), dtype=complex)
    for side, block in ((1, upper), (0, lower)):
        # [edge, field, coordinate]: each field's residue at the edge's dart
        residues = u.swapaxes(0, 1) @ block.swapaxes(1, 2)
        for e, (v, point) in enumerate(zip(*g._edge_ends[side])):
            if point != 2:
                coeffs[:, v, :, point] = residues[e]
    basis = _float_basis(HiggsField, g,
                         np.linalg.qr(coeffs.reshape(len(kernel), ncols).T)[0].T)
    return KernelReport(domain=FLOAT, nrows=3 * nedges, ncols=ncols,
                        rank=ncols - len(basis), basis=basis)


def higgs_residual(fields, framing: Framing):
    """Largest entry of R_source + a R_target a^-1 over the fields and edges.

    fields is a sequence of HiggsFields on the framing's graph, read in
    their working form (_working_form), so a field on another graph
    raises ValidationError; an empty one gives 0.  The check reads the
    residues and the framing matrices themselves, never the rows of
    assemble_higgs_constraints, and shares no code with the solve that
    builds them.  The work of an edge (its transport and its inverse) is
    done once for all the fields.  The fields must be of one domain: a
    sequence of exact and float fields raises ValidationError.

    An exact field is checked on integers where the edge's matrix is
    exact (every entry an int or Fraction): with phi scaled by its lcm
    denominator L and a = T/d for an integer matrix T,
    d^2 L (R_s + a R_t a^-1) = d^2 L R_s + T (L R_t) adj(T).  Only the
    edges at the field's live vertices are checked: on any other edge
    both sides are zero.  Every
    other field and edge is checked in floats, all at once
    (_float_residual), to the bits of the Mat2 product on the fields'
    complex copies.  The result is 0, a Fraction or a float.
    """
    domains = _domains(fields)
    if len(domains) == 2:
        raise ValidationError("Higgs fields of both domains, exact and float, "
                              "in one sequence")
    g = framing.graph
    exact_edges, float_edges = [], []
    for e, (a, _) in enumerate(g.edges):
        exact = domain_of(*framing.matrix(a).entries()) == EXACT
        (exact_edges if exact else float_edges).append(e)
    # the fields, such as a basis, are read whole, in the working form a
    # basis keeps
    exact_fields, float_fields = (fields, []) if EXACT in domains else ([], fields)
    return max(_exact_residual(exact_fields, framing, exact_edges),
               _float_residual(exact_fields, framing, float_edges),
               _float_residual(float_fields, framing, range(len(g.edges))))


def _exact_residual(fields, framing: Framing, edges):
    """higgs_residual of exact fields over the edges (indices) with exact
    matrices T/d, on ints: d^2 times the source plus d^2 Ad(T/d)
    (_integer_transport) on the partner, on the edges at each field's
    live vertices."""
    if not (fields and edges):
        return 0
    g = framing.graph
    (vs, ps), (vt, pt) = g._edge_ends
    hoisted = [None] * len(g.edges)
    for e in edges:
        hoisted[e] = (vs[e], ps[e], vt[e], pt[e],
                      *_integer_transport(framing.matrix(g.edges[e][0])))
    none = ((0, 0, 0),) * 3
    worst = 0
    for live, den in _working_form(fields, g, EXACT):
        # per live vertex, _residue_coords at each marked point
        residues = {v: ((c0, c2, c4), (c1, c3, c5), (-(c0 + c1), -(c2 + c3), -(c4 + c5)))
                    for v, (c0, c1, c2, c3, c4, c5) in live}
        for e in _edges_at(g, residues):
            if hoisted[e] is None:
                continue
            u, pu, w, pw, dd, ((a0, a1, a2), (b0, b1, b2), (c0, c1, c2)) = hoisted[e]
            x0, x1, x2 = residues.get(u, none)[pu]
            y0, y1, y2 = residues.get(w, none)[pw]
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
    from the rounded r0 and r1.  The inverse transport is the upper
    dart's matrix, which Framing stores as Mat2.inv() of the lower's, and
    magnitudes are np.hypot, the hypot of abs(complex).
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

    def transport(side):
        entries = [x for e in edges for x in framing.matrix(g.edges[e][side]).entries()]
        return Mat2(*_to_pairs([entries], len(entries)).columns(4))

    gap = residue_matrices(0) + transport(0) * residue_matrices(1) * transport(1)
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
    unknowns), so the basis is never empty.  A float field is _float_draw's
    first draw, as in random_regular_higgs.
    """
    report, g = higgs_space(framing), framing.graph
    rng = Random(seed)
    if framing.domain == EXACT:
        coeffs = [rng.randint(-9, 9) for _ in range(len(report.basis))]
        if not any(coeffs):
            coeffs[0] = 1
        # sum c_k psi_k over the numerators at one common denominator
        form = _working_form(report.basis, g, EXACT)
        den = math.lcm(*(d for _, d in form))
        acc = [0] * (6 * g.vertex_count)
        for c, (live, d) in zip(coeffs, form):
            if c:
                s = c * (den // d)
                for v, six in live:
                    for i, x in enumerate(six, 6 * v):
                        if x:
                            acc[i] += s * x
        return HiggsField._checked(g, tuple(_fractions(enumerate(acc), den, len(acc))),
                                   EXACT)
    return _float_draw(report.basis, g, rng)


def _float_draw(basis, graph, rng) -> HiggsField:
    """_float_combination of a float basis on graph, the real and
    imaginary parts of each coefficient drawn from rng.gauss(0, 1)."""
    coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(len(basis))]
    return HiggsField(graph, _float_combination(
        coeffs, _working_form(basis, graph, FLOAT)))


def _float_combination(coeffs, parts):
    """sum_k c_k psi_k over a float basis given as its float working form
    (_working_form), a complex batch, with the rounding of the scalar loop

        acc = 0j; for c, psi: acc = [a + c * x for a, x in zip(acc, psi)]

    whose products are taken at once and summed in its order.
    The entries are Python complex numbers (scalars._from_pairs), as the
    loop gives on a basis of Python complex numbers.
    """
    acc = 0j
    for term in (_to_pairs([[c] for c in coeffs], 1) * parts).rows():
        acc = acc + term
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
