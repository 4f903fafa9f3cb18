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
(q0, q1, q2)-per-vertex tuple of a GlobalQuadratic, with the same
scalar operations in the same order in both domains.  hitchin_jacobian
runs on the integer numerators of exact fields and divides once per
entry, which gives the same Fractions as the rational computation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MatchingViolated
from .framings import Framing
from .higgs import HiggsField, higgs_space
from .linalg import _clear_denominators, rank as matrix_rank
from .scalars import EXACT, FLOAT, REGULAR_RTOL
from .sections import (GlobalQuadratic, _biresidues, _matched_biresidues,
                       _product_coefficients, bires_coordinates)

FD_STEP = 1e-5  # central-difference step of the finite-difference Jacobian


def _det_coefficients(c):
    """(q0, q1, q2) per vertex, flat, of -(w11 w11 + w12 w21) from coefficients c."""
    out = []
    for b in range(0, len(c), 6):
        p = _product_coefficients(c[b], c[b + 1], c[b], c[b + 1])
        q = _product_coefficients(c[b + 2], c[b + 3], c[b + 4], c[b + 5])
        out.extend((-(p[0] + q[0]), -(p[1] + q[1]), -(p[2] + q[2])))
    return out


def _polarization_coefficients(c, d):
    """(q0, q1, q2) per vertex, flat, of -(2 a11 b11 + a12 b21 + a21 b12)."""
    out = []
    for b in range(0, len(c), 6):
        p = _product_coefficients(c[b], c[b + 1], d[b], d[b + 1])
        q = _product_coefficients(c[b + 2], c[b + 3], d[b + 4], d[b + 5])
        r = _product_coefficients(c[b + 4], c[b + 5], d[b + 2], d[b + 3])
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
    return bires_coordinates(hitchin_image(phi))


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
    the k-th basis field of the framing's Higgs space.  When phi and the
    basis are exact fields, the rows are computed on their integer
    numerators and the rank is taken of those integer rows.
    """
    if basis is None:
        basis = higgs_space(framing).basis
    g = phi.graph
    ncols = len(g.edges)
    if any(f.domain != EXACT for f in [phi, *basis]):
        rows = [_matched_biresidues(g, _polarization_coefficients(
            phi.coefficients, psi.coefficients), FLOAT) for psi in basis]
        return JacobianReport(matrix=rows, rank=matrix_rank(rows, ncols, FLOAT),
                              basis_size=len(basis))
    # Exact fields: the polarization is bilinear, so the integer row of
    # phi * den_phi against psi * den_psi is den_phi * den_psi times row k.
    x, den_phi = _clear_denominators(phi.coefficients)
    int_rows, rows = [], []
    for psi in basis:
        y, den_psi = _clear_denominators(psi.coefficients)
        try:
            coords = _matched_biresidues(g, _polarization_coefficients(x, y), EXACT)
        except MatchingViolated:
            # raise again with the rational bi-residues in the message
            _matched_biresidues(g, _polarization_coefficients(
                phi.coefficients, psi.coefficients), EXACT)
            raise
        int_rows.append(coords)
        den = den_phi * den_psi
        rows.append([Fraction(c, den) for c in coords])
    return JacobianReport(matrix=rows, rank=matrix_rank(int_rows, ncols, EXACT),
                          basis_size=len(basis))


def finite_difference_jacobian(phi: HiggsField, framing: Framing, basis=None):
    """Central-difference Jacobian of the edge-coordinate map, step FD_STEP.

    Complex rows; the default basis is higgs_space(framing).
    """
    if basis is None:
        basis = higgs_space(framing).basis
    g = phi.graph
    x = phi.coefficients
    up, down = complex(FD_STEP), complex(-FD_STEP)
    rows = []
    for psi in basis:
        y = psi.coefficients
        plus = _matched_biresidues(g, _det_coefficients(
            [a + up * b for a, b in zip(x, y)]), FLOAT)
        minus = _matched_biresidues(g, _det_coefficients(
            [a + down * b for a, b in zip(x, y)]), FLOAT)
        rows.append([(p - m) / (2 * FD_STEP) for p, m in zip(plus, minus)])
    return rows


def jacobian_fd_error(phi: HiggsField, framing: Framing, basis=None,
                      jacobian=None) -> float:
    """Relative max-norm gap between the Jacobian and central differences.

    jacobian is hitchin_jacobian(phi, framing, basis).matrix, when the
    caller has built it already; else it is built here.  det is
    quadratic, so the central difference (Q(x+hy) - Q(x-hy))/2h equals
    the polarization exactly and the gap measures only rounding.
    """
    if basis is None:
        basis = higgs_space(framing).basis
    exact_rows = jacobian
    if exact_rows is None:
        exact_rows = hitchin_jacobian(phi, framing, basis).matrix
    fd_rows = finite_difference_jacobian(phi, framing, basis)
    scale = max([1.0] + [abs(x) for row in exact_rows for x in row])
    gap = max((abs(x - y) for er, fr in zip(exact_rows, fd_rows)
               for x, y in zip(er, fr)), default=0.0)
    return gap / scale


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
