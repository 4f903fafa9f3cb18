"""The determinant map from Higgs fields to quadratic differentials.

Vertex by vertex the image is det of the matrix of differentials,

    det(phi)(v) = -w11^2 - w12 w21,

computed through products of the per-vertex differentials.  Its bi-residue at
any marked point equals the determinant of the residue matrix there,
identically in the field; since residue matrices on the two sides of a
node are conjugate up to sign, the image of an actual Higgs field has
matching bi-residues and so defines a global quadratic differential.
Reading it in per-edge bi-residue coordinates gives a gauge-invariant
quadratic map whose Jacobian comes from the symmetric bilinear
polarization of det.

The kernels map a field's flat 6V coefficient tuple to the flat 3V
(q0, q1, q2)-per-vertex tuple of a GlobalQuadratic.  The Jacobians run
them in one of two ways.  Exact rows of hitchin_jacobian run on the
integer numerators of the fields and divide once per entry, which gives
the same Fractions as the rational computation.  Float rows, of
hitchin_jacobian, finite_difference_jacobian and jacobian_fd_error, run
the same kernels over the whole basis at once on complex batches
(scalars._ComplexBatch), so every entry has the bits the kernels give
on the coefficients of the fields.  A basis goes in as its working form
(higgs._working_form), which a basis from higgs_space keeps, phi through
scalars._to_pairs, and the rows come out through scalars._from_pairs, as
a complex array whose tolist() gives Python complex numbers, the type of
every float value outside an array.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MatchingViolated
from .framings import Framing
from .higgs import HiggsField, _working_form, higgs_space
from .linalg import _clear_denominators, rank as matrix_rank
from .scalars import EXACT, FLOAT, REGULAR_RTOL, _ComplexBatch, _from_pairs, _to_pairs
from .sections import (GlobalQuadratic, _biresidues, _exact_biresidues,
                       _float_biresidue_rows, _product_coefficients,
                       bires_coordinates)

FD_STEP = 1e-5  # central-difference step of the finite-difference Jacobian


def _det_coefficients(c):
    """(q0, q1, q2) per vertex, flat, of -(w11 w11 + w12 w21) from coefficients c."""
    out = []
    for b in range(0, len(c), 6):
        p = _product_coefficients(c[b], c[b + 1], c[b], c[b + 1])
        q = _product_coefficients(c[b + 2], c[b + 3], c[b + 4], c[b + 5])
        out.extend((-(p[0] + q[0]), -(p[1] + q[1]), -(p[2] + q[2])))
    return out


def _polarization_coefficients(c, d, minus_two_c=None):
    """(q0, q1, q2) per vertex, flat, of -(2 a11 b11 + a12 b21 + a21 b12),
    with -2 c taken in c's own scalars unless given as minus_two_c."""
    m = [None] * len(c) if minus_two_c is None else minus_two_c
    out = []
    for b in range(0, len(c), 6):
        p = _product_coefficients(c[b], c[b + 1], d[b], d[b + 1], m[b])
        q = _product_coefficients(c[b + 2], c[b + 3], d[b + 4], d[b + 5], m[b + 2])
        r = _product_coefficients(c[b + 4], c[b + 5], d[b + 2], d[b + 3], m[b + 4])
        out.extend((-(2 * p[0] + q[0] + r[0]), -(2 * p[1] + q[1] + r[1]),
                    -(2 * p[2] + q[2] + r[2])))
    return out


def hitchin_image(phi: HiggsField) -> GlobalQuadratic:
    """Per-vertex determinant of the matrix of differentials."""
    return GlobalQuadratic(phi.graph, _det_coefficients(phi.coefficients))


def bires_det_residual(phi: HiggsField):
    """Deviation of bi-residues of det(phi) from residue-matrix determinants.

    Zero for every field, Higgs or not: the bi-residue of a product of
    differentials is the product of residues, so both sides agree
    identically.  Exposed as a residual so the identity can be exercised.
    """
    q = hitchin_image(phi).coefficients
    worst = 0
    for v in range(phi.graph.vertex_count):
        for point, lhs in enumerate(_biresidues(*q[3 * v:3 * v + 3])):
            rhs = phi.residue_matrix(v, point).det()
            worst = max(worst, abs(lhs - rhs))
    return worst


def hitchin_edge_coords(phi: HiggsField):
    """det(phi) in per-edge bi-residue coordinates.

    Raises MatchingViolated when the bi-residues disagree across some
    node, which is the signature of a field that does not satisfy the
    node cancellation for any framing.
    """
    return bires_coordinates([hitchin_image(phi)])[0]


def polarization(phi: HiggsField, psi: HiggsField) -> GlobalQuadratic:
    """Symmetric bilinear form with det(phi + t psi) = det phi + t B + t^2 det psi."""
    return GlobalQuadratic(phi.graph, _polarization_coefficients(
        phi.coefficients, psi.coefficients))


@dataclass
class JacobianReport:
    """Rows: directions along the supplied basis; columns: edges."""

    matrix: list
    rank: int
    basis_size: int


def hitchin_jacobian(phi: HiggsField, framing: Framing,
                     basis=None) -> JacobianReport:
    """Differential of the edge-coordinate determinant map at phi.

    Row k holds the per-edge bi-residues of the polarization of phi with
    the k-th basis field, by default of higgs_space(framing), read in
    the working form that basis keeps; a basis on another graph than phi's
    raises ValidationError.  When phi and the basis are exact fields,
    the rows are computed on their integer numerators and the rank is
    taken of those integer rows; otherwise they are computed in floats
    for the whole basis at once and the rank is taken of their complex
    array.
    """
    if basis is None:
        basis = higgs_space(framing).basis
    ncols = len(phi.graph.edges)
    if _all_exact(phi, basis):
        int_rows, rows = _exact_jacobian_rows(phi, basis)
        return JacobianReport(matrix=rows, rank=matrix_rank(int_rows, ncols, EXACT),
                              basis_size=len(basis))
    rows = _from_pairs(_float_jacobian_rows(phi, basis))
    return JacobianReport(matrix=rows.tolist(), rank=matrix_rank(rows, ncols, FLOAT),
                          basis_size=len(basis))


def _all_exact(phi: HiggsField, basis) -> bool:
    return all(f.domain == EXACT for f in [phi, *basis])


def _exact_jacobian_rows(phi: HiggsField, basis):
    """hitchin_jacobian's rows of exact fields, and their integer rows.

    The polarization is bilinear, so the integer row of phi * den_phi
    against psi * den_psi is den_phi * den_psi times row k.
    """
    g = phi.graph
    x, den_phi = _clear_denominators(phi.coefficients)
    int_rows, rows = [], []
    for psi, (y, den_psi, _) in zip(basis, _working_form(basis, g, EXACT)):
        try:
            coords = _exact_biresidues(g, _polarization_coefficients(x, y))
        except MatchingViolated:
            # raise again with the rational bi-residues in the message
            _exact_biresidues(g, _polarization_coefficients(
                phi.coefficients, psi.coefficients))
            raise
        int_rows.append(coords)
        den = den_phi * den_psi
        rows.append([Fraction(c, den) for c in coords])
    return int_rows, rows


def finite_difference_jacobian(phi: HiggsField, framing: Framing, basis=None):
    """Central-difference Jacobian of the edge-coordinate map, step FD_STEP.

    Complex rows; the default basis is higgs_space(framing).
    """
    if basis is None:
        basis = higgs_space(framing).basis
    return _from_pairs(_float_fd_rows(phi, basis)).tolist()


def jacobian_fd_error(phi: HiggsField, framing: Framing, basis=None,
                      jacobian=None) -> float:
    """Relative max-norm gap between the Jacobian and central differences.

    jacobian is hitchin_jacobian(phi, framing, basis).matrix, when the
    caller has built it already; else its rows are built here, with no
    rank: in floats, or exactly when phi and the basis are exact.  The
    result is a float.  det is quadratic, so the central difference
    (Q(x+hy) - Q(x-hy))/2h equals the polarization exactly and the gap
    measures only rounding.
    """
    import numpy as np

    if basis is None:
        basis = higgs_space(framing).basis
    if jacobian is None and _all_exact(phi, basis):
        jacobian = _exact_jacobian_rows(phi, basis)[1]
    if jacobian is None:
        rows = _float_jacobian_rows(phi, basis)
    else:
        rows = _to_pairs(jacobian, len(phi.graph.edges))
    gap = np.hypot(*(rows - _float_fd_rows(phi, basis))).max(initial=0.0)
    return float(gap / np.hypot(*rows).max(initial=1.0))


# -- the float rows of both Jacobians, over the whole basis at once -----
#
# The kernels run on the six coefficient columns of phi and of the basis,
# each a complex batch (scalars._ComplexBatch) with one row per basis
# field, and so round as on Python complex coefficients.  -2 phi is
# passed in, taken in phi's own scalars: for an exact phi, the Fraction
# -2a reads as an imaginary part +0.0 where -2 times the batch of phi
# gives -0.0, and the rows would differ in signed zeros.


def _float_jacobian_rows(phi: HiggsField, basis) -> _ComplexBatch:
    """hitchin_jacobian's rows in floats, a (len(basis), E) batch: the
    polarization of phi with each basis field, matched per edge."""
    c = phi.coefficients
    x, minus_two_x = (_to_pairs([row], len(c)).columns(6)
                      for row in (c, [-2 * a for a in c]))
    y = _working_form(basis, phi.graph, FLOAT).columns(6)
    return _float_biresidue_rows(phi.graph,
                                 _polarization_coefficients(x, y, minus_two_x))


def _float_fd_rows(phi: HiggsField, basis) -> _ComplexBatch:
    """finite_difference_jacobian's rows, a (len(basis), E) batch.

    Row k is (Q(phi + h psi_k) - Q(phi - h psi_k)) / 2h, with Q(z) the
    per-edge bi-residues of _det_coefficients(z); each row is matched at
    +h, then at -h.
    """
    width = len(phi.coefficients)
    x = _to_pairs([phi.coefficients], width)
    y = _working_form(basis, phi.graph, FLOAT)
    # rows phi + h psi_0, phi - h psi_0, phi + h psi_1, ...
    z = _ComplexBatch.stack([x + FD_STEP * y, x + (-FD_STEP) * y], axis=1)
    q = _float_biresidue_rows(phi.graph, _det_coefficients(
        z.map(lambda a: a.reshape(-1, width)).columns(6)))
    return (q.map(lambda a: a[0::2]) - q.map(lambda a: a[1::2])) / (2 * FD_STEP)


@dataclass
class RegularityReport:
    """Genericity of a global quadratic differential, vertex by vertex.

    failures lists (vertex, condition) pairs; conditions are
    "zero_at_node_0", "zero_at_node_1", "zero_at_infinity" (the numerator
    loses degree) and "double_zero" (vanishing discriminant).
    """

    regular: bool
    failures: list


def is_regular(omega: GlobalQuadratic) -> RegularityReport:
    """Check that every component has two distinct zeros away from the nodes."""
    c = omega.coefficients
    threshold = (0 if omega.domain == EXACT
                 else REGULAR_RTOL * max([1.0] + [abs(x) for x in c]))
    failures = []
    for v in range(len(c) // 3):
        q0, q1, q2 = c[3 * v:3 * v + 3]
        checks = (
            *zip(("zero_at_node_0", "zero_at_node_1", "zero_at_infinity"),
                 _biresidues(q0, q1, q2)),
            ("double_zero", q1 * q1 - 4 * q0 * q2),
        )
        for name, value in checks:
            if abs(value) <= threshold:
                failures.append((v, name))
    return RegularityReport(regular=not failures, failures=failures)
